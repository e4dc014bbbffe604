// Connection signalling (paper §2 + Appendix A).
//
// "The beginning of a connection is indicated with a special signaling
// message (connection establishment)" — and Appendix A moves several
// chunk-header fields into signalling: "the value of the SIZE field of
// each chunk TYPE can be carried in the signaling message", and "the
// C.ST bit also could be sent as a signaling message".
//
// SIGNAL chunks (TYPE = kSignal) carry these messages. This module
// defines their payload codecs:
//   - ConnectionOpen: connection id, first C.SN, element SIZE per chunk
//     TYPE (enabling SIZE elision), and whether the sender assigns
//     implicit IDs (enabling the Figure-7 transform) — i.e. the
//     CompressionProfile both ends will use;
//   - ConnectionClose: the signalled C.ST;
//   - GapNak: a selective retransmission request listing the missing
//     (T.SN, length) runs of a TPDU, straight out of the receiver's
//     virtual-reassembly interval set (an extension the paper enables:
//     the tracker knows exactly which elements are missing).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/chunk/compress.hpp"
#include "src/chunk/types.hpp"

namespace chunknet {

enum class SignalKind : std::uint8_t {
  kConnectionOpen = 1,
  kConnectionClose = 2,
  kGapNak = 3,
  kCreditGrant = 4,
  kConnectionRefused = 5,
};

struct ConnectionOpen {
  std::uint32_t connection_id{0};
  std::uint32_t first_conn_sn{0};
  CompressionProfile profile{};

  friend bool operator==(const ConnectionOpen& a, const ConnectionOpen& b) {
    return a.connection_id == b.connection_id &&
           a.first_conn_sn == b.first_conn_sn &&
           a.profile.elide_size == b.profile.elide_size &&
           a.profile.implicit_tid == b.profile.implicit_tid &&
           a.profile.implicit_xid == b.profile.implicit_xid &&
           a.profile.intra_packet_continuation ==
               b.profile.intra_packet_continuation &&
           a.profile.size_by_type == b.profile.size_by_type;
  }
};

struct ConnectionClose {
  std::uint32_t connection_id{0};
  std::uint32_t final_conn_sn{0};  ///< C.SN of the last element

  friend bool operator==(const ConnectionClose&,
                         const ConnectionClose&) = default;
};

/// One missing run of a TPDU, in elements.
struct GapRange {
  std::uint32_t first_sn{0};
  std::uint32_t length{0};

  friend bool operator==(const GapRange&, const GapRange&) = default;
};

struct GapNak {
  std::uint32_t connection_id{0};
  std::uint32_t tpdu_id{0};
  bool need_ed_chunk{false};  ///< the ED control chunk itself is missing
  /// When the TPDU's stop position is unknown (the T.ST chunk was
  /// lost), the receiver cannot enumerate trailing gaps; it asks for
  /// everything from `tail_from` onward instead.
  bool need_tail{false};
  std::uint32_t tail_from{0};
  std::vector<GapRange> gaps;

  friend bool operator==(const GapNak&, const GapNak&) = default;
};

/// The most gap ranges one GapNak can carry on the wire: the signal
/// payload's byte budget is the chunk header's 16-bit SIZE field, and
/// the fixed GapNak fields take 16 of those bytes. make_signal_chunk
/// clamps to this (the NAK is advisory — runs past the clamp are
/// simply re-requested next round) and parse_gap_nak refuses counts
/// the payload cannot actually contain.
inline constexpr std::size_t kMaxGapRanges = (65535 - 16) / 8;

/// A flow-control credit advertisement (receiver → sender). The limit
/// is CUMULATIVE — "you may have admitted up to `credit_limit_bytes` of
/// stream payload since the connection opened" — so a lost grant is
/// simply superseded by the next one (same loss-tolerance trick as a
/// TCP window / SCTP a_rwnd). `grant_seq` orders grants: a sender
/// ignores any grant older than the newest it has applied.
struct CreditGrant {
  std::uint32_t connection_id{0};
  std::uint32_t grant_seq{0};
  std::uint64_t credit_limit_bytes{0};
  std::uint16_t tpdu_slots{0};  ///< max unacknowledged TPDUs in flight

  friend bool operator==(const CreditGrant&, const CreditGrant&) = default;
};

/// Admission-control refusal (endpoint → would-be sender): the governor
/// had no headroom for a new connection. `retry_hint_bytes` tells the
/// peer how much headroom admission would have needed.
struct ConnectionRefused {
  std::uint32_t connection_id{0};
  std::uint64_t retry_hint_bytes{0};

  friend bool operator==(const ConnectionRefused&,
                         const ConnectionRefused&) = default;
};

/// Builds a SIGNAL chunk carrying the given message.
Chunk make_signal_chunk(const ConnectionOpen& open);
Chunk make_signal_chunk(const ConnectionClose& close);
Chunk make_signal_chunk(const GapNak& nak);
Chunk make_signal_chunk(const CreditGrant& grant);
Chunk make_signal_chunk(const ConnectionRefused& refused);

/// Returns the signal kind of a SIGNAL chunk (nullopt if malformed).
/// The view form reads a chunk in place in its received envelope.
std::optional<SignalKind> signal_kind(const ChunkView& c);
inline std::optional<SignalKind> signal_kind(const Chunk& c) {
  return signal_kind(as_view(c));
}

/// Payload parsers; nullopt on malformed input.
std::optional<ConnectionOpen> parse_connection_open(const Chunk& c);
std::optional<ConnectionClose> parse_connection_close(const Chunk& c);
std::optional<GapNak> parse_gap_nak(const ChunkView& c);
inline std::optional<GapNak> parse_gap_nak(const Chunk& c) {
  return parse_gap_nak(as_view(c));
}
std::optional<CreditGrant> parse_credit_grant(const ChunkView& c);
inline std::optional<CreditGrant> parse_credit_grant(const Chunk& c) {
  return parse_credit_grant(as_view(c));
}
std::optional<ConnectionRefused> parse_connection_refused(const Chunk& c);

}  // namespace chunknet
