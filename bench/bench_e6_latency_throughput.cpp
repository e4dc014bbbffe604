// E6 — the headline claim (§1, §3.3): processing data as it arrives
// beats reordering/reassembly buffering in both latency and effective
// throughput. Sweeps loss rate and multipath skew across the three
// chunk delivery modes and the IP-fragmentation baseline, reporting
// per-element delivery latency and memory-bus traffic, then converts
// bus traffic into the RISC-workstation throughput bound of §1.
// The result tables are produced from the observability registry
// (src/obs): each run owns a MetricsRegistry, the transport records
// into it, and the table reads counters/histogram percentiles back —
// exercising the same instrumentation path tools/obs_report uses.
// Stream completion stays ground truth (receiver buffer coverage).
#include <algorithm>
#include <cinttypes>
#include <limits>

#include "bench_util.hpp"
#include "src/baselines/ip_transport.hpp"
#include "src/chunk/builder.hpp"
#include "src/chunk/packetizer.hpp"
#include "src/common/buffer_pool.hpp"
#include "src/common/stats.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"

namespace chunknet::bench {
namespace {

constexpr std::size_t kStreamBytes = 256 * 1024;

struct RunResult {
  double p50_ms{0};
  double p99_ms{0};
  double bus_per_byte{0};
  std::uint64_t retransmissions{0};
  bool complete{false};
};

RunResult run_chunk_mode(DeliveryMode mode, double loss, int lanes,
                         SimTime skew) {
  LinkConfig cfg;
  cfg.mtu = 1500;
  cfg.rate_bps = 622e6;
  cfg.prop_delay = 2 * kMillisecond;
  cfg.loss_rate = loss;
  cfg.lanes = lanes;
  cfg.lane_skew = skew;
  MetricsRegistry reg;
  ObsContext obs{&reg, nullptr};
  TransportHarness h(cfg, mode, kStreamBytes, 1993, 512, 128, 64, &obs);
  const auto stream = pattern_stream(kStreamBytes);
  h.sender->send_stream(stream);
  h.sim.run(60 * kSecond);

  RunResult r;
  r.complete = h.receiver->stream_complete(kStreamBytes / 4) &&
               h.sender->all_acked();
  const std::string p = std::string("receiver.") + to_string(mode) + ".";
  const Histogram* lat = reg.find_histogram(p + "delivery_latency_ns");
  const Counter* bus = reg.find_counter(p + "bus_bytes");
  const Counter* retx = reg.find_counter("sender.retransmissions");
  r.p50_ms = (lat != nullptr ? lat->percentile(50) : 0) / 1e6;
  r.p99_ms = (lat != nullptr ? lat->percentile(99) : 0) / 1e6;
  r.bus_per_byte = static_cast<double>(bus != nullptr ? bus->value() : 0) /
                   static_cast<double>(kStreamBytes);
  r.retransmissions = retx != nullptr ? retx->value() : 0;
  return r;
}

RunResult run_ip(double loss, int lanes, SimTime skew) {
  LinkConfig cfg;
  cfg.mtu = 1500;
  cfg.rate_bps = 622e6;
  cfg.prop_delay = 2 * kMillisecond;
  cfg.loss_rate = loss;
  cfg.lanes = lanes;
  cfg.lane_skew = skew;

  Simulator sim;
  Rng rng(1993);
  std::unique_ptr<IpFragTransportReceiver> receiver;
  std::unique_ptr<IpFragTransportSender> sender;
  std::unique_ptr<Link> forward;
  std::unique_ptr<Link> reverse;

  MetricsRegistry reg;
  ObsContext obs{&reg, nullptr};

  IpReceiverConfig rc;
  rc.app_buffer_bytes = kStreamBytes;
  rc.reassembly_pool_bytes = 1 << 20;
  rc.obs = &obs;
  rc.send_control = [&](std::vector<std::uint8_t> body) {
    SimPacket sp;
    sp.bytes = std::move(body);
    sp.id = sim.next_packet_id();
    sp.created_at = sim.now();
    reverse->send(std::move(sp));
  };
  receiver = std::make_unique<IpFragTransportReceiver>(sim, std::move(rc));
  forward = std::make_unique<Link>(sim, cfg, *receiver, rng);

  IpSenderConfig sc;
  sc.tpdu_bytes = 2048;  // same PDU size as the chunk transport's TPDUs
  sc.mtu = cfg.mtu;
  sc.retransmit_timeout = 20 * kMillisecond;
  sc.obs = &obs;
  sc.send_packet = [&](std::vector<std::uint8_t> bytes) {
    SimPacket sp;
    sp.bytes = std::move(bytes);
    sp.id = sim.next_packet_id();
    sp.created_at = sim.now();
    forward->send(std::move(sp));
  };
  sender = std::make_unique<IpFragTransportSender>(sim, std::move(sc));
  LinkConfig rev;
  rev.prop_delay = 1 * kMillisecond;
  reverse = std::make_unique<Link>(sim, rev, *sender, rng);

  sender->send_stream(pattern_stream(kStreamBytes));
  sim.run(60 * kSecond);

  RunResult r;
  r.complete = receiver->bytes_delivered() == kStreamBytes;
  const Histogram* lat = reg.find_histogram("ip_receiver.delivery_latency_ns");
  const Counter* bus = reg.find_counter("ip_receiver.bus_bytes");
  const Counter* retx = reg.find_counter("ip_sender.retransmissions");
  r.p50_ms = (lat != nullptr ? lat->percentile(50) : 0) / 1e6;
  r.p99_ms = (lat != nullptr ? lat->percentile(99) : 0) / 1e6;
  r.bus_per_byte = static_cast<double>(bus != nullptr ? bus->value() : 0) /
                   static_cast<double>(kStreamBytes);
  r.retransmissions = retx != nullptr ? retx->value() : 0;
  return r;
}

void sweep(const char* id, const char* title, double loss, int lanes,
           SimTime skew) {
  print_heading(id, title);
  TextTable t({"receiver", "p50 latency ms", "p99 latency ms",
               "bus bytes/byte", "retx", "complete"});
  RunResult rows[4];
  rows[0] = run_chunk_mode(DeliveryMode::kImmediate, loss, lanes, skew);
  rows[1] = run_chunk_mode(DeliveryMode::kReorder, loss, lanes, skew);
  rows[2] = run_chunk_mode(DeliveryMode::kReassemble, loss, lanes, skew);
  rows[3] = run_ip(loss, lanes, skew);
  const char* names[] = {"chunks/immediate", "chunks/reorder",
                         "chunks/reassemble", "IP-frag baseline"};
  for (int i = 0; i < 4; ++i) {
    t.add_row({names[i], TextTable::num(rows[i].p50_ms, 3),
               TextTable::num(rows[i].p99_ms, 3),
               TextTable::num(rows[i].bus_per_byte, 3),
               TextTable::num(rows[i].retransmissions),
               rows[i].complete ? "yes" : "NO"});
  }
  print_table(t);

  // On a perfectly clean, in-order path all receivers see the same
  // arrivals and IP's smaller headers win on pure wire time; the
  // paper's latency claim is about what happens once loss or disorder
  // forces buffering. Compare chunk modes always; include the IP
  // baseline only when the network actually disorders or loses.
  const bool disordered = loss > 0.0 || lanes > 1 || skew > 0;
  bool latency_ok = rows[0].p99_ms <= rows[1].p99_ms + 1e-9 &&
                    rows[0].p99_ms <= rows[2].p99_ms + 1e-9;
  if (disordered) latency_ok &= rows[0].p99_ms <= rows[3].p99_ms + 1e-9;
  print_claim(latency_ok,
              disordered
                  ? "immediate processing has the lowest tail latency"
                  : "immediate processing never waits longer than the "
                    "buffering modes (clean network: all equal)");
  print_claim(rows[0].bus_per_byte <= rows[1].bus_per_byte &&
                  rows[0].bus_per_byte < rows[3].bus_per_byte,
              "immediate processing moves each byte across the bus once; "
              "buffering receivers move (most) bytes twice");

  // §1's throughput bound: if the memory bus sustains B bytes/s, a
  // receiver that crosses it k times per byte delivers at most B/k.
  const double bus_gbps = 1.0;  // a 1 GB/s workstation bus
  std::printf("implied ceiling on application throughput with a %.0f GB/s "
              "bus:\n",
              bus_gbps);
  for (int i = 0; i < 4; ++i) {
    std::printf("  %-18s %.2f GB/s\n", names[i],
                bus_gbps / rows[i].bus_per_byte);
  }
}

// E6e — the CPU-cost side of the same story: the wall-clock cost of
// the receive path itself, owning decode (copy every payload into a
// heap Chunk, then into the app buffer) vs the zero-copy view path
// backed by a PacketBufferPool (payload copied once, straight into the
// app buffer; packet buffers recycled, zero steady-state allocations).
void receive_path_cost() {
  print_heading("E6e",
                "receive-path CPU cost — owning decode vs zero-copy "
                "views + PacketBufferPool (256 KiB stream, MTU 9000)");
  FramerOptions fo;
  fo.element_size = 4;
  fo.tpdu_elements = kStreamBytes / 4;  // one TPDU: no ED/finish cost
  fo.xpdu_elements = 16 * 1024;
  fo.max_chunk_elements = 64;
  const auto stream = pattern_stream(kStreamBytes, 29);
  const auto chunks = frame_stream(stream, fo);
  PacketizerOptions po;
  po.mtu = 9000;
  std::vector<std::vector<std::uint8_t>> wire =
      packetize(chunks, po).packets;

  Simulator sim;
  // Each path is timed as the best of kReps repetitions, alternating
  // between the two. They differ by one 256 KiB copy and the pool, a
  // margin that host drift between two single back-to-back timings can
  // swamp; alternation exposes both paths to the same drift, and the
  // minimum drops the disturbed repetitions.
  constexpr int kReps = 7;
  const std::size_t iters = bench_quick() ? 2 : 8;
  auto make_receiver = [&](PacketBufferPool* pool) {
    ReceiverConfig rc;
    rc.connection_id = 1;
    rc.element_size = 4;
    rc.app_buffer_bytes = kStreamBytes;
    rc.mode = DeliveryMode::kImmediate;
    rc.pool = pool;
    return std::make_unique<ChunkTransportReceiver>(sim, std::move(rc));
  };

  // Owning path: what the receiver did before ChunkView — materialize
  // every chunk, then place it.
  std::uint64_t owning_delivered = 0;
  auto owning = [&] {
    auto rx = make_receiver(nullptr);
    for (const auto& bytes : wire) {
      ParsedPacket parsed = decode_packet(bytes);
      for (Chunk& c : parsed.chunks) rx->on_chunk(std::move(c), 0, 0);
    }
    owning_delivered = rx->elements_delivered();
  };

  // Zero-copy path: the pool buffer stands in for the NIC receive
  // buffer — the copy into it is the wire's bus crossing, and
  // on_packet recycles it when done.
  PacketBufferPool pool(16 * 1024);
  std::uint64_t view_delivered = 0;
  auto view = [&] {
    auto rx = make_receiver(&pool);
    for (const auto& bytes : wire) {
      PooledBuffer buf = pool.acquire();
      buf.bytes().assign(bytes.begin(), bytes.end());
      SimPacket pkt;
      pkt.bytes = buf.take();
      rx->on_packet(std::move(pkt));
    }
    view_delivered = rx->elements_delivered();
  };

  double ns_owning = std::numeric_limits<double>::infinity();
  double ns_view = ns_owning;
  for (int rep = 0; rep < kReps; ++rep) {
    ns_owning = std::min(ns_owning, time_ns_per_iter(owning, iters));
    ns_view = std::min(ns_view, time_ns_per_iter(view, iters));
  }

  const double per_iter_bytes = static_cast<double>(kStreamBytes);
  const double ratio = ns_owning / ns_view;
  TextTable t({"receive path", "us/stream", "GB/s", "speedup"});
  t.add_row({"owning decode + copy", TextTable::num(ns_owning / 1e3, 1),
             TextTable::num(per_iter_bytes / ns_owning, 2),
             TextTable::num(1.0, 2)});
  t.add_row({"zero-copy views + pool", TextTable::num(ns_view / 1e3, 1),
             TextTable::num(per_iter_bytes / ns_view, 2),
             TextTable::num(ratio, 2)});
  print_table(t);
  const auto ps = pool.stats();
  std::printf("pool: %" PRIu64 " allocations, %" PRIu64 " reuses, %" PRIu64
              " releases\n",
              ps.allocations, ps.reuses, ps.releases);
  record_metric("receive_owning_ns_per_stream", ns_owning, "ns");
  record_metric("receive_view_ns_per_stream", ns_view, "ns");
  record_metric("receive_view_speedup", ratio, "x");
  record_metric("pool_allocations", static_cast<double>(ps.allocations));
  record_metric("pool_reuses", static_cast<double>(ps.reuses));
  print_claim(owning_delivered == view_delivered,
              "both paths deliver the identical element count");
  print_claim(ps.allocations <= 2 && ps.reuses > ps.allocations,
              "steady-state receive does zero allocations (every packet "
              "after warm-up reuses a pooled buffer)");
  print_claim(ratio > 1.0,
              "zero-copy views beat owning decode on the hot receive "
              "path (measured " + TextTable::num(ratio, 2) + "x)");
}

}  // namespace
}  // namespace chunknet::bench

int main() {
  chunknet::bench::sweep("E6a",
                         "clean single-path network (baseline sanity)",
                         0.0, 1, 0);
  chunknet::bench::sweep(
      "E6b", "8 parallel lanes, 400 us skew (AURORA-style striping, §1)",
      0.0, 8, 400 * chunknet::kMicrosecond);
  chunknet::bench::sweep("E6c", "2% loss, single path (retransmission gaps)",
                         0.02, 1, 0);
  chunknet::bench::sweep(
      "E6d", "2% loss + 8-lane skew (loss and disorder together)", 0.02, 8,
      400 * chunknet::kMicrosecond);
  chunknet::bench::receive_path_cost();
  chunknet::bench::write_bench_json("e6");
  return 0;
}
