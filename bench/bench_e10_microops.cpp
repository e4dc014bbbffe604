// E10 — micro-operation benchmarks: the primitive costs every other
// experiment builds on. GF(2^32) multiplies, WSC-2 symbol rates, CRC
// variants, chunk codec, fragmentation/reassembly, packetization,
// header compression, and the ILP layered-vs-integrated processing
// loops (google-benchmark), plus the zero-copy acceptance sections
// (owning vs view decode, the WSC-2 kernel roofline, GF multiply
// variants, batched header codec, and the sender's TX path) whose
// claims land in BENCH_e10.json. A custom main runs the acceptance sections
// first — CHUNKNET_BENCH_QUICK=1 shrinks them and skips the long
// google-benchmark sweep (the CI perf-smoke mode).
#include <benchmark/benchmark.h>

#include <cstring>
#include <string_view>

#include "bench_util.hpp"

#include "src/chunk/builder.hpp"
#include "src/chunk/codec.hpp"
#include "src/chunk/compress.hpp"
#include "src/chunk/fragment.hpp"
#include "src/chunk/packetizer.hpp"
#include "src/chunk/reassemble.hpp"
#include "src/common/rng.hpp"
#include "src/edc/crc32.hpp"
#include "src/edc/inet_checksum.hpp"
#include "src/edc/wsc2.hpp"
#include "src/gf/gf32.hpp"
#include "src/pipeline/stages.hpp"

namespace chunknet {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

// ------------------------------------------------------------ GF(2^32)

void BM_GfMulShift(benchmark::State& state) {
  std::uint32_t a = 0xDEADBEEF;
  std::uint32_t b = 0x9E3779B9;
  for (auto _ : state) {
    a = gf32::mul_shift(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_GfMulShift);

void BM_GfMulWindowed(benchmark::State& state) {
  std::uint32_t a = 0xDEADBEEF;
  std::uint32_t b = 0x9E3779B9;
  for (auto _ : state) {
    a = gf32::mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_GfMulWindowed);

void BM_GfAlphaPow(benchmark::State& state) {
  const auto& ladder = gf32::PowerLadder::shared();
  std::uint32_t i = 12345;
  for (auto _ : state) {
    i = ladder.alpha_pow(i & ((1u << 29) - 1));
    benchmark::DoNotOptimize(i);
  }
}
BENCHMARK(BM_GfAlphaPow);

// --------------------------------------------------------------- codes

void BM_Wsc2(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto c = wsc2_compute(data);
    benchmark::DoNotOptimize(c);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Wsc2)->Arg(1500)->Arg(65536);

void BM_Crc32Slice4(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32_slice4(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32Slice4)->Arg(1500)->Arg(65536);

void BM_InetChecksum(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(inet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_InetChecksum)->Arg(1500)->Arg(65536);

// --------------------------------------------------------- chunk codec

Chunk bench_chunk(std::uint16_t elements) {
  Chunk c;
  c.h.type = ChunkType::kData;
  c.h.size = 4;
  c.h.len = elements;
  c.h.conn = {1, 100, false};
  c.h.tpdu = {2, 0, true};
  c.h.xpdu = {3, 50, false};
  c.payload = random_bytes(static_cast<std::size_t>(elements) * 4);
  return c;
}

void BM_ChunkEncode(benchmark::State& state) {
  const Chunk c = bench_chunk(static_cast<std::uint16_t>(state.range(0)));
  std::vector<std::uint8_t> buf;
  for (auto _ : state) {
    buf.clear();
    ByteWriter w(buf);
    encode_chunk(w, c);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.wire_size()));
}
BENCHMARK(BM_ChunkEncode)->Arg(16)->Arg(256);

void BM_ChunkDecode(benchmark::State& state) {
  const Chunk c = bench_chunk(static_cast<std::uint16_t>(state.range(0)));
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  encode_chunk(w, c);
  for (auto _ : state) {
    ByteReader r(buf);
    Chunk out;
    benchmark::DoNotOptimize(decode_chunk(r, out));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.wire_size()));
}
BENCHMARK(BM_ChunkDecode)->Arg(16)->Arg(256);

void BM_ChunkSplit(benchmark::State& state) {
  const Chunk c = bench_chunk(static_cast<std::uint16_t>(state.range(0)));
  for (auto _ : state) {
    auto parts = split_chunk(c, static_cast<std::uint16_t>(c.h.len / 2));
    benchmark::DoNotOptimize(parts);
  }
}
BENCHMARK(BM_ChunkSplit)->Arg(16)->Arg(1024);

void BM_ChunkMerge(benchmark::State& state) {
  const Chunk c = bench_chunk(static_cast<std::uint16_t>(state.range(0)));
  const auto [a, b] = split_chunk(c, static_cast<std::uint16_t>(c.h.len / 2));
  for (auto _ : state) {
    auto m = merge_chunks(a, b);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_ChunkMerge)->Arg(16)->Arg(1024);

void BM_Coalesce64Fragments(benchmark::State& state) {
  const Chunk c = bench_chunk(1024);
  auto pieces = split_to_fit(c, kChunkHeaderBytes + 64);
  for (auto _ : state) {
    auto copy = pieces;
    benchmark::DoNotOptimize(coalesce(std::move(copy)));
  }
}
BENCHMARK(BM_Coalesce64Fragments);

// ------------------------------------------------------- packetization

void BM_Packetize64K(benchmark::State& state) {
  FramerOptions fo;
  fo.element_size = 4;
  fo.tpdu_elements = 2048;
  fo.xpdu_elements = 512;
  const auto stream = random_bytes(64 * 1024);
  const auto chunks = frame_stream(stream, fo);
  PacketizerOptions po;
  po.mtu = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto copy = chunks;
    benchmark::DoNotOptimize(packetize(std::move(copy), po));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (64 * 1024));
}
BENCHMARK(BM_Packetize64K)->Arg(576)->Arg(1500)->Arg(9000);

void BM_FrameStream64K(benchmark::State& state) {
  FramerOptions fo;
  fo.element_size = 4;
  fo.tpdu_elements = 2048;
  fo.xpdu_elements = 512;
  const auto stream = random_bytes(64 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame_stream(stream, fo));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (64 * 1024));
}
BENCHMARK(BM_FrameStream64K);

void BM_CompressPacket(benchmark::State& state) {
  FramerOptions fo;
  fo.element_size = 4;
  fo.tpdu_elements = 64;
  fo.xpdu_elements = 16;
  fo.max_chunk_elements = 8;
  fo.implicit_ids = true;
  const auto chunks = frame_stream(random_bytes(1024), fo);
  const CompressionProfile p;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress_packet(chunks, p, 65535));
  }
}
BENCHMARK(BM_CompressPacket);

// ----------------------------------------------------------------- ILP

void BM_LayeredProcess(benchmark::State& state) {
  const auto in = random_bytes(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> out(in.size());
  const XorCipherStage cipher;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layered_process(0, in, out, cipher));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LayeredProcess)->Arg(1500)->Arg(65536)->Arg(1 << 20);

void BM_IntegratedProcess(benchmark::State& state) {
  const auto in = random_bytes(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> out(in.size());
  const XorCipherStage cipher;
  for (auto _ : state) {
    benchmark::DoNotOptimize(integrated_process(0, in, out, cipher));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_IntegratedProcess)->Arg(1500)->Arg(65536)->Arg(1 << 20);

}  // namespace
}  // namespace chunknet

namespace chunknet::bench {
namespace {

/// A canonical 32-chunk packet (64 four-byte elements per chunk) —
/// the ISSUE's acceptance workload for decode.
std::vector<std::uint8_t> make_32chunk_packet(std::vector<Chunk>* out_chunks) {
  FramerOptions fo;
  fo.element_size = 4;
  fo.tpdu_elements = 32 * 64;
  fo.xpdu_elements = 32 * 64;
  fo.max_chunk_elements = 64;
  auto chunks = frame_stream(pattern_stream(32 * 64 * 4, 7), fo);
  chunks.resize(32);
  if (out_chunks != nullptr) *out_chunks = chunks;
  return encode_packet(chunks, 1 << 20);
}

void view_vs_owning_decode() {
  print_heading("E10.view",
                "packet decode — owning Chunk vs zero-copy ChunkView "
                "(32-chunk packet, 64 elements/chunk)");
  std::vector<Chunk> chunks;
  const auto packet = make_32chunk_packet(&chunks);
  const std::size_t iters = bench_quick() ? 5000 : 200000;

  // Both decoders must agree exactly before timing means anything.
  std::vector<ChunkView> views;
  bool agree = decode_packet_views(packet, views) &&
               views.size() == chunks.size();
  if (agree) {
    for (std::size_t i = 0; i < views.size(); ++i) {
      const Chunk materialized = views[i].to_chunk();
      agree &= materialized.h == chunks[i].h &&
               materialized.payload == chunks[i].payload;
    }
  }
  print_claim(agree, "decode_packet_views agrees exactly with "
                     "decode_packet (headers and payload bytes)");

  std::size_t sink = 0;
  const double ns_owning = time_ns_per_iter(
      [&] {
        ParsedPacket p = decode_packet(packet);
        sink += p.chunks.size();
      },
      iters);
  const double ns_view = time_ns_per_iter(
      [&] {
        decode_packet_views(packet, views);
        sink += views.size();
      },
      iters);
  benchmark::DoNotOptimize(sink);

  const double ratio = ns_owning / ns_view;
  const double bytes = static_cast<double>(packet.size());
  TextTable t({"decoder", "ns/packet", "GB/s", "speedup"});
  t.add_row({"owning (decode_packet)", TextTable::num(ns_owning, 1),
             TextTable::num(bytes / ns_owning, 2), TextTable::num(1.0, 2)});
  t.add_row({"view (decode_packet_views)", TextTable::num(ns_view, 1),
             TextTable::num(bytes / ns_view, 2), TextTable::num(ratio, 2)});
  print_table(t);
  record_metric("decode_owning_ns_per_packet", ns_owning, "ns");
  record_metric("decode_view_ns_per_packet", ns_view, "ns");
  record_metric("decode_view_speedup", ratio, "x");
  print_claim(ratio >= 2.0,
              "view decode is >= 2x faster than owning decode "
              "(measured " + TextTable::num(ratio, 2) + "x)");
}

void wsc2_scalar_vs_sliced() {
  const std::string wsc2_title =
      std::string("WSC-2 add_words — scalar Horner vs dispatched kernel "
                  "(64 KiB, 16384 symbols; dispatched: ") +
      wsc2_kernels::selected_kernel_name() + ")";
  print_heading("E10.wsc2", wsc2_title.c_str());
  const auto data = pattern_stream(64 * 1024, 11);
  const std::size_t iters = bench_quick() ? 50 : 2000;

  Wsc2Accumulator ref;
  ref.add_words_scalar(0, data);
  Wsc2Accumulator sliced;
  sliced.add_words(0, data);
  print_claim(ref.value() == sliced.value(),
              "dispatched kernel produces bit-identical P0/P1");

  Wsc2Accumulator a;
  const double ns_scalar =
      time_ns_per_iter([&] { a.add_words_scalar(0, data); }, iters);
  Wsc2Accumulator b;
  const double ns_sliced =
      time_ns_per_iter([&] { b.add_words(0, data); }, iters);
  benchmark::DoNotOptimize(a);
  benchmark::DoNotOptimize(b);

  const double ratio = ns_scalar / ns_sliced;
  const double bytes = static_cast<double>(data.size());
  TextTable t({"kernel", "ns/64KiB", "GB/s", "speedup"});
  t.add_row({"scalar Horner", TextTable::num(ns_scalar, 0),
             TextTable::num(bytes / ns_scalar, 2), TextTable::num(1.0, 2)});
  t.add_row({"dispatched", TextTable::num(ns_sliced, 0),
             TextTable::num(bytes / ns_sliced, 2), TextTable::num(ratio, 2)});
  print_table(t);
  record_metric("wsc2_scalar_ns_per_64k", ns_scalar, "ns");
  record_metric("wsc2_sliced_ns_per_64k", ns_sliced, "ns");
  record_metric("wsc2_sliced_speedup", ratio, "x");
  print_claim(ratio >= 1.5,
              "dispatched WSC-2 kernel is >= 1.5x faster than scalar "
              "(measured " + TextTable::num(ratio, 2) + "x)");
}

/// Per-kernel roofline table: every registered WSC-2 kernel (scalar,
/// slice-by-8, and the native carry-less-multiply variant when the
/// CPU has one) against the scalar oracle and a memcpy roofline row.
/// The registry is dispatch-independent, so this table is identical
/// under CHUNKNET_FORCE_SCALAR (which only pins what add_words USES).
void wsc2_kernel_roofline() {
  const std::string kern_title =
      std::string("WSC-2 kernels — per-variant GB/s roofline (64 KiB, "
                  "dispatched: ") +
      wsc2_kernels::selected_kernel_name() + ")";
  print_heading("E10.kern", kern_title.c_str());
  const auto data = pattern_stream(64 * 1024, 13);
  const std::size_t words = data.size() / 4;
  const std::size_t iters = bench_quick() ? 50 : 2000;
  const double bytes = static_cast<double>(data.size());

  const auto kernels = wsc2_kernels::available_kernels();
  const wsc2_kernels::RunSum want =
      wsc2_kernels::run_scalar(data.data(), words);
  bool all_match = true;
  for (const auto& k : kernels) {
    const wsc2_kernels::RunSum got = k.fn(data.data(), words);
    all_match &= got.x == want.x && got.h == want.h;
  }
  print_claim(all_match,
              "every WSC-2 kernel variant is bit-identical to the scalar "
              "oracle on this machine");

  TextTable t({"kernel", "ns/64KiB", "GB/s", "vs scalar"});
  double scalar_ns = 0.0;
  double best_ns = 0.0;  // widest kernel = last registry entry
  for (const auto& k : kernels) {
    wsc2_kernels::RunSum sink{};
    const double ns = time_ns_per_iter(
        [&] {
          const auto rs = k.fn(data.data(), words);
          sink.x ^= rs.x;
          sink.h ^= rs.h;
        },
        iters);
    benchmark::DoNotOptimize(sink);
    if (std::string_view(k.name) == "scalar") scalar_ns = ns;
    best_ns = ns;
    t.add_row({k.name, TextTable::num(ns, 0), TextTable::num(bytes / ns, 2),
               TextTable::num(scalar_ns > 0 ? scalar_ns / ns : 1.0, 2)});
    record_metric(std::string("wsc2_") + k.name + "_gbps", bytes / ns,
                  "GB/s");
  }
  // The machine's streaming ceiling, for reading the GB/s column.
  std::vector<std::uint8_t> dst(data.size());
  const double memcpy_ns = time_ns_per_iter(
      [&] {
        std::memcpy(dst.data(), data.data(), data.size());
        benchmark::DoNotOptimize(dst.data());
      },
      iters);
  t.add_row({"memcpy roofline", TextTable::num(memcpy_ns, 0),
             TextTable::num(bytes / memcpy_ns, 2), "-"});
  print_table(t);

  const double widened = scalar_ns > 0 && best_ns > 0
                             ? scalar_ns / best_ns
                             : 1.0;
  record_metric("wsc2_widest_over_scalar", widened, "x");
  print_claim(widened >= 2.0,
              "widest WSC-2 kernel is >= 2x the scalar oracle "
              "(measured " + TextTable::num(widened, 2) + "x)");
}

/// GF(2^32) multiply variants: bit-serial shift oracle, the 4-bit
/// windowed table walk, and the dispatched kernel (PCLMUL/PMULL when
/// the CPU has it — the name in the table says which ran here).
void gf_mul_variants() {
  const std::string gf_title =
      std::string("GF(2^32) multiply — shift vs windowed vs dispatched (") +
      gf32::mul_kernel_name() + ")";
  print_heading("E10.gf", gf_title.c_str());
  const std::size_t iters = bench_quick() ? 20000 : 2000000;

  Rng rng(17);
  bool agree = true;
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t a = rng.u32();
    const std::uint32_t b = rng.u32();
    const std::uint32_t want = gf32::mul_shift(a, b);
    agree &= gf32::mul(a, b) == want && gf32::mul_windowed(a, b) == want;
  }
  print_claim(agree, "dispatched and windowed multiplies are bit-identical "
                     "to the shift-and-reduce oracle");

  // Serial dependent chains so the measurement is latency, not ILP.
  auto chain = [&](auto mul_fn) {
    std::uint32_t a = 0xDEADBEEF;
    return time_ns_per_iter(
        [&] {
          a = mul_fn(a, 0x9E3779B9u);
          benchmark::DoNotOptimize(a);
        },
        iters);
  };
  const double ns_shift = chain([](std::uint32_t a, std::uint32_t b) {
    return gf32::mul_shift(a, b);
  });
  const double ns_win = chain([](std::uint32_t a, std::uint32_t b) {
    return gf32::mul_windowed(a, b);
  });
  const double ns_disp = chain([](std::uint32_t a, std::uint32_t b) {
    return gf32::mul(a, b);
  });

  TextTable t({"variant", "ns/mul", "vs windowed"});
  t.add_row({"shift-and-reduce", TextTable::num(ns_shift, 2),
             TextTable::num(ns_win / ns_shift, 2)});
  t.add_row({"windowed (4-bit)", TextTable::num(ns_win, 2),
             TextTable::num(1.0, 2)});
  t.add_row({std::string("dispatched: ") + gf32::mul_kernel_name(),
             TextTable::num(ns_disp, 2), TextTable::num(ns_win / ns_disp, 2)});
  print_table(t);
  record_metric("gf_mul_shift_ns", ns_shift, "ns");
  record_metric("gf_mul_windowed_ns", ns_win, "ns");
  record_metric("gf_mul_dispatched_ns", ns_disp, "ns");
  record_metric("gf_mul_dispatched_speedup", ns_win / ns_disp, "x");
}

/// Batched header codec: the pointer-walk encode_packet_into (reused
/// aligned buffer, one bounds check per packet) against the allocating
/// encode_packet, plus the raw 34-byte header store/load batch rate.
void header_codec_batched() {
  print_heading("E10.hdr",
                "packet encode — allocating vs batched into a reused "
                "buffer (32-chunk packet)");
  std::vector<Chunk> chunks;
  const auto packet = make_32chunk_packet(&chunks);
  const std::size_t iters = bench_quick() ? 5000 : 100000;
  const double bytes = static_cast<double>(packet.size());

  PacketBytes reused;
  bool ok = encode_packet_into(chunks, 1 << 20, reused);
  ok = ok && reused.size() == packet.size() &&
       std::equal(packet.begin(), packet.end(), reused.data());
  print_claim(ok, "batched encode_packet_into is byte-identical to "
                  "encode_packet");

  std::size_t sink = 0;
  const double ns_alloc = time_ns_per_iter(
      [&] { sink += encode_packet(chunks, 1 << 20).size(); }, iters);
  const double ns_batched = time_ns_per_iter(
      [&] {
        encode_packet_into(chunks, 1 << 20, reused);
        sink += reused.size();
      },
      iters);
  benchmark::DoNotOptimize(sink);

  // Raw header batch: all 32 canonical headers stored then re-loaded
  // through the primitives the batched packet encode and decode use.
  std::vector<std::uint8_t> hdrs(chunks.size() * kChunkHeaderBytes);
  ChunkHeader scratch;
  const double ns_hdr_batch = time_ns_per_iter(
      [&] {
        std::uint8_t* p = hdrs.data();
        for (const Chunk& c : chunks) {
          store_chunk_header(p, c.h);
          p += kChunkHeaderBytes;
        }
        const std::uint8_t* q = hdrs.data();
        for (std::size_t i = 0; i < chunks.size(); ++i) {
          load_chunk_header(q, scratch);
          q += kChunkHeaderBytes;
        }
        benchmark::DoNotOptimize(scratch);
      },
      iters);

  const double ratio = ns_alloc / ns_batched;
  TextTable t({"encoder", "ns/packet", "GB/s", "speedup"});
  t.add_row({"allocating encode_packet", TextTable::num(ns_alloc, 1),
             TextTable::num(bytes / ns_alloc, 2), TextTable::num(1.0, 2)});
  t.add_row({"batched encode_packet_into", TextTable::num(ns_batched, 1),
             TextTable::num(bytes / ns_batched, 2),
             TextTable::num(ratio, 2)});
  print_table(t);
  record_metric("encode_alloc_ns_per_packet", ns_alloc, "ns");
  record_metric("encode_batched_ns_per_packet", ns_batched, "ns");
  record_metric("encode_batched_speedup", ratio, "x");
  record_metric("header_batch_ns_per_header",
                ns_hdr_batch / (2.0 * static_cast<double>(chunks.size())),
                "ns");
}

/// The one packing loop, timed two ways on the same chunk set:
/// packetize (takes owning chunks by value, then copies each packet
/// out into its byte vector — what relays pay) and the sender's
/// transmit step (pack_views over borrowed views, each packet's views
/// encoded straight into an aligned wire buffer).
void tx_path() {
  print_heading("E10.tx",
                "TX path — packetize (owning chunks, copy out) vs the "
                "sender's pack + encode (32 chunks, MTU 1500)");
  std::vector<Chunk> chunks;
  make_32chunk_packet(&chunks);
  std::vector<ChunkView> views;
  views.reserve(chunks.size());
  std::size_t payload_total = 0;
  for (const Chunk& c : chunks) {
    views.push_back(as_view(c));
    payload_total += c.payload.size();
  }
  PacketizerOptions opts;
  opts.mtu = 1500;
  const std::size_t iters = bench_quick() ? 2000 : 50000;

  // Parity + the one-copy accounting, before any timing.
  const PacketizeResult flat = packetize(chunks, opts);
  std::vector<PacketBytes> sent;
  std::size_t encoded_payload = 0;
  pack_views(views, opts, [&](std::span<const ChunkView> packet) {
    encode_packet_into(packet, opts.mtu, sent.emplace_back());
    for (const ChunkView& v : packet) encoded_payload += v.payload.size();
  });
  bool same = sent.size() == flat.packets.size();
  for (std::size_t i = 0; same && i < sent.size(); ++i) {
    same = sent[i] == flat.packets[i];
  }
  print_claim(same, "the sender's pack + encode emits packetize's packets "
                    "byte for byte");
  print_claim(encoded_payload == payload_total,
              "pack + encode copies each payload byte once, straight "
              "from the borrowed view into its wire buffer");

  double wire_bytes = 0;
  for (const auto& p : flat.packets) {
    wire_bytes += static_cast<double>(p.size());
  }
  std::size_t sink = 0;
  const double ns_packetize = time_ns_per_iter(
      [&] { sink += packetize(chunks, opts).packets.size(); }, iters);
  PacketBytes out;
  const double ns_encode = time_ns_per_iter(
      [&] {
        pack_views(views, opts, [&](std::span<const ChunkView> packet) {
          encode_packet_into(packet, opts.mtu, out);
          sink += out.size();
        });
      },
      iters);
  benchmark::DoNotOptimize(sink);

  const double ratio = ns_packetize / ns_encode;
  TextTable t({"path", "ns/burst", "GB/s", "speedup"});
  t.add_row({"packetize (owning chunks, copy out)",
             TextTable::num(ns_packetize, 0),
             TextTable::num(wire_bytes / ns_packetize, 2),
             TextTable::num(1.0, 2)});
  t.add_row({"sender pack + encode", TextTable::num(ns_encode, 0),
             TextTable::num(wire_bytes / ns_encode, 2),
             TextTable::num(ratio, 2)});
  print_table(t);
  record_metric("tx_packetize_ns_per_burst", ns_packetize, "ns");
  record_metric("tx_pack_encode_ns_per_burst", ns_encode, "ns");
  record_metric("tx_pack_encode_speedup_over_packetize", ratio, "x");
}

}  // namespace
}  // namespace chunknet::bench

int main(int argc, char** argv) {
  chunknet::bench::view_vs_owning_decode();
  chunknet::bench::wsc2_scalar_vs_sliced();
  chunknet::bench::wsc2_kernel_roofline();
  chunknet::bench::gf_mul_variants();
  chunknet::bench::header_codec_batched();
  chunknet::bench::tx_path();
  chunknet::bench::write_bench_json("e10");
  if (!chunknet::bench::bench_quick()) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
