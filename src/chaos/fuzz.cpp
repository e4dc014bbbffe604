#include "src/chaos/fuzz.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "src/chunk/codec.hpp"
#include "src/chunk/compress.hpp"
#include "src/chunk/fragment.hpp"
#include "src/edc/wsc2.hpp"
#include "src/edc/wsc2_kernels.hpp"
#include "src/gf/gf32.hpp"
#include "src/transport/signalling.hpp"

namespace chunknet {

namespace {

// Byte offsets of the canonical field boundaries, relative to a chunk's
// first byte (see encode_chunk): type, flags, size, len, then the six
// 32-bit tuple words and the spare word.
constexpr std::size_t kFieldOffsets[] = {0,  1,  2,  4,  6,  10,
                                         14, 18, 22, 26, 30};

// Values that historically break length arithmetic: zero, all-ones
// (LEN·SIZE overflow on 32-bit size_t), and the sign boundary.
constexpr std::uint16_t kHostileU16[] = {0x0000, 0x0001, 0x7FFF,
                                         0x8000, 0xFFFF, 0xFFFE};

Chunk random_chunk(Rng& rng) {
  Chunk c;
  c.h.type = rng.chance(0.8) ? ChunkType::kData
             : rng.chance(0.5) ? ChunkType::kErrorDetection
                               : ChunkType::kAck;
  c.h.size = static_cast<std::uint16_t>(1u << rng.below(5));  // 1..16
  c.h.len = static_cast<std::uint16_t>(1 + rng.below(32));
  c.h.conn = {static_cast<std::uint32_t>(rng.below(8)), rng.u32(),
              rng.chance(0.1)};
  c.h.tpdu = {static_cast<std::uint32_t>(1 + rng.below(16)), rng.u32(),
              rng.chance(0.1)};
  c.h.xpdu = {static_cast<std::uint32_t>(1 + rng.below(16)), rng.u32(),
              rng.chance(0.1)};
  c.payload.resize(c.payload_bytes());
  for (auto& b : c.payload) b = static_cast<std::uint8_t>(rng.u32());
  return c;
}

/// A well-formed signal chunk with fuzz-chosen field values, so the
/// mutation ladder starts from deep inside the signal parsers' accept
/// path rather than relying on garbage to stumble into kind bytes.
Chunk random_signal_chunk(Rng& rng) {
  switch (rng.below(5)) {
    case 0: {
      ConnectionOpen o;
      o.connection_id = rng.u32();
      o.first_conn_sn = rng.u32();
      o.profile.elide_size = rng.chance(0.5);
      o.profile.implicit_tid = rng.chance(0.5);
      o.profile.implicit_xid = rng.chance(0.5);
      o.profile.intra_packet_continuation = rng.chance(0.5);
      for (auto& s : o.profile.size_by_type) {
        s = static_cast<std::uint16_t>(rng.below(1 << 16));
      }
      return make_signal_chunk(o);
    }
    case 1: {
      ConnectionClose cl;
      cl.connection_id = rng.u32();
      cl.final_conn_sn = rng.u32();
      return make_signal_chunk(cl);
    }
    case 2: {
      GapNak nak;
      nak.connection_id = rng.u32();
      nak.tpdu_id = rng.u32();
      nak.need_ed_chunk = rng.chance(0.3);
      nak.need_tail = rng.chance(0.3);
      nak.tail_from = rng.u32();
      const std::size_t n = rng.below(6);
      for (std::size_t i = 0; i < n; ++i) {
        nak.gaps.push_back({rng.u32(), 1 + static_cast<std::uint32_t>(
                                               rng.below(1 << 10))});
      }
      return make_signal_chunk(nak);
    }
    case 3: {
      CreditGrant g;
      g.connection_id = rng.u32();
      g.grant_seq = rng.u32();
      g.credit_limit_bytes =
          (static_cast<std::uint64_t>(rng.u32()) << 32) | rng.u32();
      g.tpdu_slots = static_cast<std::uint16_t>(rng.below(1 << 16));
      return make_signal_chunk(g);
    }
    default: {
      ConnectionRefused rf;
      rf.connection_id = rng.u32();
      rf.retry_hint_bytes = rng.u32();
      return make_signal_chunk(rf);
    }
  }
}

void put_u16(std::vector<std::uint8_t>& bytes, std::size_t off,
             std::uint16_t v) {
  if (off + 2 > bytes.size()) return;
  bytes[off] = static_cast<std::uint8_t>(v >> 8);
  bytes[off + 1] = static_cast<std::uint8_t>(v);
}

std::string fmt(const char* f, std::uint64_t a, std::uint64_t b = 0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

bool same_chunk(const Chunk& a, const Chunk& b) {
  return a.h == b.h && a.payload == b.payload;
}

/// The differential oracle's independent decoder: the envelope checks
/// over a ByteReader, then a decode_chunk_view loop — the bounds-checked
/// reader path, which shares no code with decode_packet_views's pointer
/// walk. nullopt = reject.
std::optional<std::vector<ChunkView>> reference_decode(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const std::uint8_t magic = r.u8();
  const std::uint8_t version = r.u8();
  const std::uint16_t length = r.u16();
  if (!r.ok() || magic != kPacketMagic || version != kPacketVersion ||
      length != r.remaining()) {
    return std::nullopt;
  }
  std::vector<ChunkView> out;
  for (;;) {
    ChunkView v;
    switch (decode_chunk_view(r, v)) {
      case DecodeStatus::kOk:
        out.push_back(v);
        break;
      case DecodeStatus::kTerminator:
      case DecodeStatus::kEnd:
        return out;
      case DecodeStatus::kError:
        return std::nullopt;
    }
  }
}

}  // namespace

std::vector<std::uint8_t> random_fuzz_packet(Rng& rng) {
  if (rng.chance(0.1)) {
    // Raw garbage: the decoder must reject without reading out of
    // bounds. Occasionally starts with the real magic so the envelope
    // check is passed and the chunk walk sees the noise.
    std::vector<std::uint8_t> bytes(rng.below(200));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.u32());
    if (!bytes.empty() && rng.chance(0.5)) bytes[0] = kPacketMagic;
    if (bytes.size() >= 2 && rng.chance(0.5)) bytes[1] = kPacketVersion;
    return bytes;
  }
  std::vector<Chunk> chunks;
  const std::size_t n = 1 + rng.below(4);
  for (std::size_t i = 0; i < n; ++i) {
    chunks.push_back(rng.chance(0.2) ? random_signal_chunk(rng)
                                     : random_chunk(rng));
  }
  auto bytes = encode_packet(chunks, 1 << 16);
  if (bytes.empty()) bytes = encode_packet({}, 64);  // degenerate but valid
  return bytes;
}

void mutate_packet(std::vector<std::uint8_t>& bytes, Rng& rng) {
  if (bytes.empty()) {
    bytes.push_back(static_cast<std::uint8_t>(rng.u32()));
    return;
  }
  switch (rng.below(6)) {
    case 0: {  // flip one byte anywhere
      bytes[rng.below(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    }
    case 1: {  // hostile 16-bit value into the envelope length field
      put_u16(bytes, 2, kHostileU16[rng.below(std::size(kHostileU16))]);
      break;
    }
    case 2: {  // hostile SIZE or LEN in some chunk-header-shaped slot.
      // Chunks start at offset 4; without tracking the real chain we
      // aim at the first chunk (always correct) or a random later
      // offset (often mid-payload — also worth testing).
      const std::size_t base =
          rng.chance(0.7) || bytes.size() <= kPacketHeaderBytes
              ? kPacketHeaderBytes
              : kPacketHeaderBytes + rng.below(bytes.size() - kPacketHeaderBytes);
      const std::size_t field = rng.chance(0.5) ? 2 : 4;  // size : len
      put_u16(bytes, base + field,
              kHostileU16[rng.below(std::size(kHostileU16))]);
      break;
    }
    case 3: {  // corrupt one canonical field boundary of the first chunk
      const std::size_t off =
          kPacketHeaderBytes +
          kFieldOffsets[rng.below(std::size(kFieldOffsets))];
      if (off < bytes.size()) {
        bytes[off] = static_cast<std::uint8_t>(rng.u32());
      }
      break;
    }
    case 4: {  // truncate: tails cut mid-header and mid-payload
      bytes.resize(rng.below(bytes.size()));
      break;
    }
    default: {  // extend with noise (trailing bytes past the terminator)
      const std::size_t extra = 1 + rng.below(40);
      for (std::size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(rng.u32()));
      }
      break;
    }
  }
}

std::optional<std::string> differential_decode(
    std::span<const std::uint8_t> bytes) {
  const auto want = reference_decode(bytes);
  std::vector<ChunkView> views;
  const bool vok = decode_packet_views(bytes, views);
  if (want.has_value() != vok) {
    return fmt("differential: reference decode ok=%llu but "
               "decode_packet_views ok=%llu",
               want.has_value() ? 1 : 0, vok ? 1 : 0);
  }
  if (!vok) return std::nullopt;
  if (want->size() != views.size()) {
    return fmt("differential: %llu reference chunks vs %llu views",
               want->size(), views.size());
  }
  for (std::size_t i = 0; i < views.size(); ++i) {
    const ChunkView& ref = (*want)[i];
    if (ref.h != views[i].h ||
        !std::equal(ref.payload.begin(), ref.payload.end(),
                    views[i].payload.begin(), views[i].payload.end())) {
      return fmt("differential: chunk %llu differs between reference and "
                 "view decode",
                 i);
    }
  }
  const ParsedPacket owned = decode_packet(bytes);
  // Idempotence: an accepted packet re-encodes and re-decodes to the
  // same chunk sequence (the codec is a bijection on its accept set).
  const auto reenc = encode_packet(owned.chunks, 1 << 17);
  if (reenc.empty() && !owned.chunks.empty()) {
    return std::string("differential: accepted packet failed to re-encode");
  }
  const ParsedPacket again = decode_packet(reenc);
  if (!again.ok || again.chunks.size() != owned.chunks.size()) {
    return std::string(
        "differential: re-encoded packet no longer decodes to the same "
        "chunk count");
  }
  for (std::size_t i = 0; i < owned.chunks.size(); ++i) {
    if (!same_chunk(owned.chunks[i], again.chunks[i])) {
      return fmt("differential: chunk %llu changed across "
                 "re-encode/re-decode",
                 i);
    }
  }
  return std::nullopt;
}

std::optional<std::string> fragment_roundtrip(
    std::span<const std::uint8_t> bytes, Rng& rng) {
  const ParsedPacket p = decode_packet(bytes);
  if (!p.ok) return std::nullopt;
  for (const Chunk& c : p.chunks) {
    if (c.h.type != ChunkType::kData || c.h.len < 2 ||
        !c.structurally_valid()) {
      continue;
    }
    const auto head_len =
        static_cast<std::uint16_t>(1 + rng.below(c.h.len - 1u));
    const auto [head, tail] = split_chunk(c, head_len);
    if (head.h.len != head_len ||
        static_cast<std::uint16_t>(head.h.len + tail.h.len) != c.h.len) {
      return fmt("fragment: split of len=%llu at %llu does not conserve "
                 "elements",
                 c.h.len, head_len);
    }
    std::vector<std::uint8_t> glued = head.payload;
    glued.insert(glued.end(), tail.payload.begin(), tail.payload.end());
    if (glued != c.payload) {
      return std::string("fragment: split does not conserve payload bytes");
    }
    const std::uint32_t adv = head_len;
    if (tail.h.conn.sn != c.h.conn.sn + adv ||
        tail.h.tpdu.sn != c.h.tpdu.sn + adv ||
        tail.h.xpdu.sn != c.h.xpdu.sn + adv) {
      return std::string(
          "fragment: tail SNs did not advance in lock-step across all "
          "three framing tuples");
    }
    if (head.h.conn.st || head.h.tpdu.st || head.h.xpdu.st) {
      return std::string("fragment: head kept a stop bit");
    }
    if (tail.h.conn.st != c.h.conn.st || tail.h.tpdu.st != c.h.tpdu.st ||
        tail.h.xpdu.st != c.h.xpdu.st) {
      return std::string("fragment: tail did not inherit the stop bits");
    }
    // split_to_fit must cover the chunk exactly, in order.
    const std::size_t budget =
        kChunkHeaderBytes + static_cast<std::size_t>(c.h.size) *
                                (1 + rng.below(c.h.len));
    const auto parts = split_to_fit(c, budget);
    if (parts.empty()) {
      return std::string("fragment: split_to_fit found no cut although "
                         "one element fits the budget");
    }
    std::vector<std::uint8_t> cover;
    std::uint32_t expect_sn = c.h.conn.sn;
    for (const Chunk& part : parts) {
      if (part.h.conn.sn != expect_sn) {
        return std::string("fragment: split_to_fit parts are not "
                           "contiguous in C.SN");
      }
      expect_sn += part.h.len;
      cover.insert(cover.end(), part.payload.begin(), part.payload.end());
    }
    if (cover != c.payload) {
      return std::string(
          "fragment: split_to_fit does not conserve payload bytes");
    }
  }
  return std::nullopt;
}

std::optional<std::string> compress_roundtrip(
    std::span<const std::uint8_t> bytes, Rng& rng) {
  const ParsedPacket p = decode_packet(bytes);
  if (!p.ok || p.chunks.empty()) return std::nullopt;
  // Arbitrary decoded chunks satisfy neither the implicit-ID relation
  // nor a negotiated SIZE table, so only the unconditionally lossless
  // transforms are exercised here (the framer-coupled ones are covered
  // by tests/test_compress.cpp on conforming streams).
  CompressionProfile profile = CompressionProfile::none();
  profile.intra_packet_continuation = rng.chance(0.5);
  const auto compact = compress_packet(p.chunks, profile, 1 << 17);
  if (compact.empty()) {
    return std::string("compress: decodable packet failed to compress "
                       "within a 128 KiB budget");
  }
  const DecompressedPacket back = decompress_packet(compact, profile);
  if (!back.ok) {
    return std::string("compress: compact packet failed to decompress");
  }
  if (back.chunks.size() != p.chunks.size()) {
    return fmt("compress: %llu chunks in, %llu out", p.chunks.size(),
               back.chunks.size());
  }
  for (std::size_t i = 0; i < p.chunks.size(); ++i) {
    if (!same_chunk(p.chunks[i], back.chunks[i])) {
      return fmt("compress: chunk %llu not reproduced canonically", i);
    }
  }
  return std::nullopt;
}

std::optional<std::string> signal_roundtrip(
    std::span<const std::uint8_t> bytes) {
  const ParsedPacket p = decode_packet(bytes);
  if (!p.ok) return std::nullopt;
  for (const Chunk& c : p.chunks) {
    // Hostile input does not announce itself as signal-typed, so every
    // chunk goes to every parser; the parsers own the refusal.
    const auto kind = signal_kind(c);
    const auto open = parse_connection_open(c);
    const auto close = parse_connection_close(c);
    const auto nak = parse_gap_nak(c);
    const auto grant = parse_credit_grant(c);
    const auto refused = parse_connection_refused(c);
    const int accepted = (open ? 1 : 0) + (close ? 1 : 0) + (nak ? 1 : 0) +
                         (grant ? 1 : 0) + (refused ? 1 : 0);
    if (accepted > 1) {
      return std::string(
          "signal: one chunk parsed as two different message kinds");
    }
    if (accepted == 1 && !kind.has_value()) {
      return std::string(
          "signal: a parser accepted a chunk signal_kind refuses");
    }
    if (open) {
      if (kind != SignalKind::kConnectionOpen ||
          parse_connection_open(make_signal_chunk(*open)) != *open) {
        return std::string("signal: ConnectionOpen does not round-trip");
      }
    }
    if (close) {
      if (kind != SignalKind::kConnectionClose ||
          parse_connection_close(make_signal_chunk(*close)) != *close) {
        return std::string("signal: ConnectionClose does not round-trip");
      }
    }
    if (nak) {
      if (nak->gaps.size() > kMaxGapRanges) {
        return std::string(
            "signal: GapNak accepted more ranges than the wire can carry");
      }
      // The accepted count must be exactly what the payload holds —
      // the no-claimed-count-allocation property made real.
      if (c.payload.size() != 16 + nak->gaps.size() * 8) {
        return std::string(
            "signal: GapNak range count disagrees with the payload bytes");
      }
      if (kind != SignalKind::kGapNak ||
          parse_gap_nak(make_signal_chunk(*nak)) != *nak) {
        return std::string("signal: GapNak does not round-trip");
      }
    }
    if (grant) {
      if (kind != SignalKind::kCreditGrant ||
          parse_credit_grant(make_signal_chunk(*grant)) != *grant) {
        return std::string("signal: CreditGrant does not round-trip");
      }
    }
    if (refused) {
      if (kind != SignalKind::kConnectionRefused ||
          parse_connection_refused(make_signal_chunk(*refused)) !=
              *refused) {
        return std::string("signal: ConnectionRefused does not round-trip");
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> simd_differential(
    std::span<const std::uint8_t> bytes, Rng& rng) {
  // Bare kernels over a fuzz-chosen word range: varying the start and
  // length reaches every remainder path and small-group fallback.
  const std::size_t words = bytes.size() / 4;
  const std::size_t start = words == 0 ? 0 : rng.below(words + 1);
  const std::size_t span_words = words - start;
  const std::uint8_t* base = bytes.data() + start * 4;
  const wsc2_kernels::RunSum want = wsc2_kernels::run_scalar(base, span_words);
  for (const wsc2_kernels::NamedKernel& k :
       wsc2_kernels::available_kernels()) {
    const wsc2_kernels::RunSum got = k.fn(base, span_words);
    if (got.x != want.x || got.h != want.h) {
      return std::string("simd: WSC-2 kernel '") + k.name +
             "' diverges from the scalar reference (" +
             fmt("words=%llu start=%llu", span_words, start) + ")";
    }
  }

  // Full accumulator at a random absolute position: the dispatched
  // add_words (partial-tail grafting included) against the scalar loop.
  const std::uint32_t pos =
      static_cast<std::uint32_t>(rng.below(kWsc2PositionLimit - (1u << 16)));
  Wsc2Accumulator fast;
  Wsc2Accumulator slow;
  fast.add_words(pos, bytes);
  slow.add_words_scalar(pos, bytes);
  if (!(fast.value() == slow.value())) {
    return fmt("simd: add_words diverges from add_words_scalar at pos=%llu",
               pos);
  }

  // GF(2^32): the dispatched (possibly carry-less-multiply) and
  // windowed multiplies, plus the widened ×α⁸/×α¹⁶ steps, against the
  // bit-serial shift-and-reduce oracle on words drawn from the input.
  const gf32::PowerLadder& ladder = gf32::PowerLadder::shared();
  std::uint32_t prev = 0x00000001u;
  const std::size_t cap = std::min<std::size_t>(words, 64);
  for (std::size_t i = 0; i < cap; ++i) {
    const std::uint32_t w = (static_cast<std::uint32_t>(bytes[4 * i]) << 24) |
                            (static_cast<std::uint32_t>(bytes[4 * i + 1]) << 16) |
                            (static_cast<std::uint32_t>(bytes[4 * i + 2]) << 8) |
                            static_cast<std::uint32_t>(bytes[4 * i + 3]);
    const std::uint32_t oracle = gf32::mul_shift(w, prev);
    if (gf32::mul(w, prev) != oracle) {
      return fmt("simd: dispatched gf32::mul(%#llx, %#llx) != shift oracle", w,
                 prev);
    }
    if (gf32::mul_windowed(w, prev) != oracle) {
      return fmt("simd: gf32::mul_windowed(%#llx, %#llx) != shift oracle", w,
                 prev);
    }
    if (gf32::times_alpha8(w) != gf32::mul_shift(w, ladder.alpha_pow(8))) {
      return fmt("simd: times_alpha8(%#llx) != w * alpha^8", w);
    }
    if (gf32::times_alpha16(w) != gf32::mul_shift(w, ladder.alpha_pow(16))) {
      return fmt("simd: times_alpha16(%#llx) != w * alpha^16", w);
    }
    prev = w | 1u;  // keep the second operand nonzero
  }
  return std::nullopt;
}

std::optional<std::string> fuzz_one(std::span<const std::uint8_t> bytes,
                                    Rng& rng) {
  if (auto d = differential_decode(bytes)) return d;
  if (auto d = signal_roundtrip(bytes)) return d;
  if (auto d = fragment_roundtrip(bytes, rng)) return d;
  if (auto d = compress_roundtrip(bytes, rng)) return d;
  if (auto d = simd_differential(bytes, rng)) return d;
  return std::nullopt;
}

// ---------------------------------------------------------- corpus I/O

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0F]);
  }
  return out;
}

std::optional<std::vector<std::uint8_t>> from_hex(const std::string& line) {
  std::vector<std::uint8_t> out;
  int hi = -1;
  for (const char ch : line) {
    if (ch == ' ' || ch == '\t' || ch == '\r') continue;
    int v;
    if (ch >= '0' && ch <= '9') v = ch - '0';
    else if (ch >= 'a' && ch <= 'f') v = ch - 'a' + 10;
    else if (ch >= 'A' && ch <= 'F') v = ch - 'A' + 10;
    else return std::nullopt;
    if (hi < 0) {
      hi = v;
    } else {
      out.push_back(static_cast<std::uint8_t>((hi << 4) | v));
      hi = -1;
    }
  }
  if (hi >= 0) return std::nullopt;  // odd digit count
  return out;
}

std::vector<std::vector<std::uint8_t>> load_corpus(const std::string& path) {
  std::vector<std::vector<std::uint8_t>> corpus;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (auto bytes = from_hex(line)) corpus.push_back(std::move(*bytes));
  }
  return corpus;
}

bool append_corpus_entry(const std::string& path,
                         std::span<const std::uint8_t> bytes,
                         const std::string& comment) {
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  if (!comment.empty()) out << "# " << comment << "\n";
  out << to_hex(bytes) << "\n";
  return static_cast<bool>(out);
}

}  // namespace chunknet
