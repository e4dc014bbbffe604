// E3 — Table 1: "How corruption is detected for various chunk fields".
//
// For every chunk-header field (plus payload and the ED code itself)
// this harness injects a corruption into the WIRE BYTES of one packet
// of a TPDU, then classifies how the receiver-side machinery detects
// it:
//   - "Reassembly Error"     virtual reassembly never completes, or
//                            completes inconsistently (framing/layout);
//   - "Consistency Check"    (C.SN − T.SN) / (C.SN − X.SN) divergence;
//   - "Error Detection Code" WSC-2 invariant mismatch with the ED chunk.
// It also derives the "Changed by fragmentation?" column by actually
// splitting a chunk and diffing the headers — the same two columns as
// the paper's Table 1.
#include <algorithm>
#include <cinttypes>
#include <functional>
#include <optional>

#include "bench_util.hpp"
#include "src/chunk/builder.hpp"
#include "src/chunk/codec.hpp"
#include "src/chunk/fragment.hpp"
#include "src/reassembly/virtual_reassembly.hpp"
#include "src/transport/invariant.hpp"

namespace chunknet::bench {
namespace {

// Byte offsets of fields within an encoded chunk (see codec.cpp).
enum FieldOffset : std::size_t {
  kOffType = 0,
  kOffFlags = 1,
  kOffSize = 2,
  kOffLen = 4,
  kOffCid = 6,
  kOffCsn = 10,
  kOffTid = 14,
  kOffTsn = 18,
  kOffXid = 22,
  kOffXsn = 26,
  kOffPayload = kChunkHeaderBytes,
};

struct TpduFixture {
  std::vector<Chunk> chunks;  // data chunks of one TPDU
  Wsc2Code ed_code;           // transmitter's invariant value
};

/// One TPDU (T.ID 21, starting at C.SN 4096) of `elements` elements.
/// The default spans 8 data chunks, and its X-PDUs span chunks, so
/// every SN difference has 2+ samples; `elements` = 8 gives a TPDU of
/// one data chunk.
TpduFixture make_tpdu(std::uint32_t elements = 64) {
  FramerOptions fo;
  fo.connection_id = 0xC0FFEE;
  fo.element_size = 4;
  fo.tpdu_elements = elements;
  fo.xpdu_elements = std::min<std::uint32_t>(elements, 16);
  fo.max_chunk_elements = 8;
  fo.first_conn_sn = 4096;
  fo.first_tpdu_id = 21;
  fo.first_xpdu_id = 84;
  TpduFixture fx;
  fx.chunks = frame_stream(pattern_stream(elements * 4, 11), fo);
  TpduInvariant inv;
  for (const Chunk& c : fx.chunks) inv.absorb(c);
  fx.ed_code = inv.value();
  return fx;
}

/// The TPDU on the wire: one chunk per packet (so wire offsets are
/// stable), its ED chunk last.
std::vector<std::vector<std::uint8_t>> packets_of(const TpduFixture& fx) {
  std::vector<std::vector<std::uint8_t>> packets;
  for (const Chunk& c : fx.chunks) {
    packets.push_back(encode_packet(std::vector<Chunk>{c}, 65535));
  }
  packets.push_back(encode_packet(
      std::vector<Chunk>{make_ed_chunk(0xC0FFEE, 21, 4096, fx.ed_code)},
      65535));
  return packets;
}

/// Receiver-model classification: decode the (possibly corrupted)
/// packets into one TPDU context and report which mechanism fires.
const char* classify(const std::vector<std::vector<std::uint8_t>>& packets,
                     const Wsc2Code& expected_code) {
  PduTracker tracker;
  TpduInvariant inv;
  SnConsistencyChecker consistency;
  bool framing_error = false;
  bool layout_error = false;
  std::optional<Wsc2Code> received_code;

  for (const auto& pkt : packets) {
    const ParsedPacket parsed = decode_packet(pkt);
    if (!parsed.ok) continue;  // malformed packet: its chunks are lost
    for (const Chunk& c : parsed.chunks) {
      if (c.h.type == ChunkType::kErrorDetection) {
        // As the receiver does: the ED chunk's (C.SN − T.SN) is the
        // TPDU's starting C.SN, a consistency sample of its own.
        received_code = parse_ed_chunk(c);
        consistency.check(c);
        continue;
      }
      if (c.h.type != ChunkType::kData) continue;
      switch (tracker.add(c.h.tpdu.sn, c.h.len, c.h.tpdu.st)) {
        case PieceVerdict::kAccept:
          break;
        case PieceVerdict::kDuplicate:
        case PieceVerdict::kOverlap:
          continue;  // rejected, not absorbed
        case PieceVerdict::kAfterStop:
        case PieceVerdict::kStopConflict:
          framing_error = true;
          continue;
      }
      if (!inv.absorb(c)) layout_error = true;
      consistency.check(c);
    }
  }

  if (!tracker.complete() || framing_error || layout_error ||
      !received_code) {
    return "Reassembly Error";
  }
  if (!consistency.consistent()) return "Consistency Check";
  if (!(inv.value() == *received_code)) return "Error Detection Code";
  return "UNDETECTED";
}

struct Row {
  const char* field;
  std::size_t offset;       ///< wire offset within the chunk
  std::uint8_t xor_mask;    ///< byte flip applied
  int which_chunk;          ///< index into the TPDU's chunks (-1 = last)
  const char* paper_says;   ///< Table 1's detection column
};

void table1() {
  print_heading("E3", "Table 1 — field corruption vs detection mechanism "
                      "(wire-level fault injection)");

  const TpduFixture fx = make_tpdu();

  // Changed-by-fragmentation column, derived from a real split. Use
  // the TPDU's final chunk so the stop bits are present (splitting
  // moves them onto the tail — that is what "changed" means for ST).
  const Chunk& split_victim = fx.chunks.back();
  const auto [head, tail] = split_chunk(split_victim, 3);
  const auto changed = [&](auto get) {
    return get(head.h) != get(split_victim.h) ||
           get(tail.h) != get(split_victim.h);
  };
  const bool csn_chg = changed([](const ChunkHeader& h) { return h.conn.sn; });
  const bool tsn_chg = changed([](const ChunkHeader& h) { return h.tpdu.sn; });
  const bool xsn_chg = changed([](const ChunkHeader& h) { return h.xpdu.sn; });
  const bool len_chg = changed([](const ChunkHeader& h) { return h.len; });
  const bool st_chg =
      changed([](const ChunkHeader& h) { return h.tpdu.st; }) ||
      changed([](const ChunkHeader& h) { return h.conn.st; });
  const bool id_chg = changed([](const ChunkHeader& h) { return h.tpdu.id; }) ||
                      changed([](const ChunkHeader& h) { return h.conn.id; });
  const bool size_chg = changed([](const ChunkHeader& h) { return h.size; });

  const Row rows[] = {
      // field       offset       mask  chunk  paper's Table 1
      // ID fields are encoded into the invariant once, from the first
      // chunk of the TPDU a context sees — corrupt that one. (A
      // corrupted ID on a later chunk demultiplexes the chunk into a
      // different context, whose own EDC then fails — same mechanism,
      // seen from the other side.)
      {"C.ID", kOffCid, 0x10, 0, "Error Detection Code"},
      {"C.SN", kOffCsn + 3, 0x05, 2, "Consistency Check"},
      {"C.ST", kOffFlags, 0x01, -1, "Error Detection Code"},
      {"T.ID", kOffTid, 0x10, 0, "Error Detection Code"},
      {"T.SN", kOffTsn + 3, 0x05, 2, "Reassembly Error"},
      {"T.ST", kOffFlags, 0x02, 2, "Reassembly Error"},
      {"X.ID", kOffXid, 0x10, 1, "Error Detection Code"},
      {"X.SN", kOffXsn + 3, 0x05, 2, "Consistency Check"},
      {"X.ST", kOffFlags, 0x04, -1, "Error Detection Code"},
      {"TYPE", kOffType, 0x03, 2, "Reassembly Error"},
      {"LEN", kOffLen + 1, 0x05, 2, "Reassembly Error"},
      {"SIZE", kOffSize + 1, 0x06, 2, "Reassembly Error"},
      {"Data", kOffPayload + 5, 0xFF, 2, "Error Detection Code"},
  };

  TextTable t({"Field", "Changed by frag?", "Paper: detected by",
               "Observed", "Match"});
  bool all_match = true;

  for (const Row& row : rows) {
    std::vector<std::vector<std::uint8_t>> packets = packets_of(fx);
    const std::size_t victim =
        row.which_chunk < 0 ? fx.chunks.size() - 1
                            : static_cast<std::size_t>(row.which_chunk);
    packets[victim][kPacketHeaderBytes + row.offset] ^= row.xor_mask;

    const char* observed = classify(packets, fx.ed_code);
    const bool match = std::string_view(observed) == row.paper_says;
    all_match &= match;

    const char* frag_col = "No";
    const std::string_view f(row.field);
    if ((f == "C.SN" && csn_chg) || (f == "T.SN" && tsn_chg) ||
        (f == "X.SN" && xsn_chg) || (f == "LEN" && len_chg) ||
        ((f == "C.ST" || f == "T.ST" || f == "X.ST") && st_chg)) {
      frag_col = "Yes";
    }
    if ((f == "C.ID" || f == "T.ID" || f == "X.ID") && id_chg) frag_col = "Yes";
    if (f == "SIZE" && size_chg) frag_col = "Yes";

    t.add_row({row.field, frag_col, row.paper_says, observed,
               match ? "yes" : "NO"});
  }

  // C.SN of a TPDU with one data chunk: there is no second data chunk
  // to compare (C.SN − T.SN) with, so the ED chunk is the witness.
  {
    const TpduFixture one = make_tpdu(8);
    std::vector<std::vector<std::uint8_t>> packets = packets_of(one);
    packets[0][kPacketHeaderBytes + kOffCsn + 3] ^= 0x05;
    const char* observed = classify(packets, one.ed_code);
    const bool match = std::string_view(observed) == "Consistency Check";
    all_match &= match;
    t.add_row({"C.SN (1-chunk TPDU)", csn_chg ? "Yes" : "No",
               "Consistency Check", observed, match ? "yes" : "NO"});
  }

  // ED code corruption: the check value itself.
  {
    std::vector<std::vector<std::uint8_t>> packets = packets_of(fx);
    packets.back()[kPacketHeaderBytes + kOffPayload + 2] ^= 0x40;
    const char* observed = classify(packets, fx.ed_code);
    t.add_row({"ED code", "No", "Error Detection Code", observed,
               std::string_view(observed) == "Error Detection Code" ? "yes"
                                                                    : "NO"});
    all_match &=
        std::string_view(observed) == "Error Detection Code";
  }

  print_table(t);
  print_claim(all_match,
              "every Table-1 field corruption is detected by the mechanism "
              "the paper assigns it");

  // Sanity: an uncorrupted TPDU is accepted.
  print_claim(
      std::string_view(classify(packets_of(fx), fx.ed_code)) == "UNDETECTED",
      "control: the uncorrupted TPDU passes all three checks");
}

void duplicate_rejection_matters() {
  print_heading("E3b", "§3.3 — duplicate rejection protects the "
                       "incremental checksum");
  const TpduFixture fx = make_tpdu();

  // WITHOUT duplicate rejection: absorbing one chunk twice corrupts the
  // incremental code even though no data corruption occurred.
  TpduInvariant no_reject;
  for (const Chunk& c : fx.chunks) no_reject.absorb(c);
  no_reject.absorb(fx.chunks[1]);  // duplicate absorbed again
  print_claim(!(no_reject.value() == fx.ed_code),
              "without rejection, a clean duplicate corrupts the checksum");

  // WITH virtual-reassembly rejection: duplicate filtered, code intact.
  PduTracker tracker;
  TpduInvariant with_reject;
  auto feed = [&](const Chunk& c) {
    if (tracker.add(c.h.tpdu.sn, c.h.len, c.h.tpdu.st) ==
        PieceVerdict::kAccept) {
      with_reject.absorb(c);
    }
  };
  for (const Chunk& c : fx.chunks) feed(c);
  feed(fx.chunks[1]);
  print_claim(with_reject.value() == fx.ed_code,
              "with virtual-reassembly duplicate rejection, the code is "
              "correct");
}

}  // namespace
}  // namespace chunknet::bench

int main() {
  chunknet::bench::table1();
  chunknet::bench::duplicate_rejection_matters();
  chunknet::bench::write_bench_json("e3");
  return 0;
}
