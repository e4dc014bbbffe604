#include "src/transport/signalling.hpp"

#include <algorithm>

#include "src/common/bytes.hpp"

namespace chunknet {

namespace {

/// Wraps a serialized signal payload into a SIGNAL chunk. Control
/// information is indivisible (§2), so the payload travels as one
/// element: SIZE = payload bytes, LEN = 1.
Chunk wrap(std::uint32_t connection_id, std::vector<std::uint8_t> payload) {
  Chunk c;
  c.h.type = ChunkType::kSignal;
  c.h.size = static_cast<std::uint16_t>(payload.size());
  c.h.len = 1;
  c.h.conn = {connection_id, 0, false};
  c.payload = std::move(payload);
  return c;
}

constexpr std::uint8_t kFlagElideSize = 0x01;
constexpr std::uint8_t kFlagImplicitTid = 0x02;
constexpr std::uint8_t kFlagImplicitXid = 0x04;
constexpr std::uint8_t kFlagContinuation = 0x08;

}  // namespace

Chunk make_signal_chunk(const ConnectionOpen& open) {
  std::vector<std::uint8_t> p;
  ByteWriter w(p);
  w.u8(static_cast<std::uint8_t>(SignalKind::kConnectionOpen));
  w.u32(open.connection_id);
  w.u32(open.first_conn_sn);
  std::uint8_t flags = 0;
  if (open.profile.elide_size) flags |= kFlagElideSize;
  if (open.profile.implicit_tid) flags |= kFlagImplicitTid;
  if (open.profile.implicit_xid) flags |= kFlagImplicitXid;
  if (open.profile.intra_packet_continuation) flags |= kFlagContinuation;
  w.u8(flags);
  for (const std::uint16_t s : open.profile.size_by_type) w.u16(s);
  return wrap(open.connection_id, std::move(p));
}

Chunk make_signal_chunk(const ConnectionClose& close) {
  std::vector<std::uint8_t> p;
  ByteWriter w(p);
  w.u8(static_cast<std::uint8_t>(SignalKind::kConnectionClose));
  w.u32(close.connection_id);
  w.u32(close.final_conn_sn);
  return wrap(close.connection_id, std::move(p));
}

Chunk make_signal_chunk(const GapNak& nak) {
  // More ranges than the 16-bit SIZE field can carry would silently
  // truncate the chunk header; clamp instead — a NAK is advisory, and
  // runs past the clamp are re-requested by the next one.
  const std::size_t n = std::min(nak.gaps.size(), kMaxGapRanges);
  std::vector<std::uint8_t> p;
  ByteWriter w(p);
  w.u8(static_cast<std::uint8_t>(SignalKind::kGapNak));
  w.u32(nak.connection_id);
  w.u32(nak.tpdu_id);
  w.u8(static_cast<std::uint8_t>((nak.need_ed_chunk ? 1 : 0) |
                                 (nak.need_tail ? 2 : 0)));
  w.u32(nak.tail_from);
  w.u16(static_cast<std::uint16_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    w.u32(nak.gaps[i].first_sn);
    w.u32(nak.gaps[i].length);
  }
  return wrap(nak.connection_id, std::move(p));
}

Chunk make_signal_chunk(const CreditGrant& grant) {
  std::vector<std::uint8_t> p;
  ByteWriter w(p);
  w.u8(static_cast<std::uint8_t>(SignalKind::kCreditGrant));
  w.u32(grant.connection_id);
  w.u32(grant.grant_seq);
  w.u64(grant.credit_limit_bytes);
  w.u16(grant.tpdu_slots);
  return wrap(grant.connection_id, std::move(p));
}

Chunk make_signal_chunk(const ConnectionRefused& refused) {
  std::vector<std::uint8_t> p;
  ByteWriter w(p);
  w.u8(static_cast<std::uint8_t>(SignalKind::kConnectionRefused));
  w.u32(refused.connection_id);
  w.u64(refused.retry_hint_bytes);
  return wrap(refused.connection_id, std::move(p));
}

std::optional<SignalKind> signal_kind(const ChunkView& c) {
  if (c.h.type != ChunkType::kSignal || c.payload.empty()) return std::nullopt;
  // Control information is indivisible (§2): every signal travels as
  // exactly one element. A multi-element "signal" never came from
  // make_signal_chunk, so refuse it before any payload parse.
  if (c.h.len != 1) return std::nullopt;
  const std::uint8_t k = c.payload[0];
  if (k < 1 || k > 5) return std::nullopt;
  return static_cast<SignalKind>(k);
}

std::optional<ConnectionOpen> parse_connection_open(const Chunk& c) {
  if (signal_kind(c) != SignalKind::kConnectionOpen) return std::nullopt;
  ByteReader r(c.payload);
  r.u8();
  ConnectionOpen open;
  open.connection_id = r.u32();
  open.first_conn_sn = r.u32();
  const std::uint8_t flags = r.u8();
  open.profile.elide_size = (flags & kFlagElideSize) != 0;
  open.profile.implicit_tid = (flags & kFlagImplicitTid) != 0;
  open.profile.implicit_xid = (flags & kFlagImplicitXid) != 0;
  open.profile.intra_packet_continuation = (flags & kFlagContinuation) != 0;
  for (auto& s : open.profile.size_by_type) s = r.u16();
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return open;
}

std::optional<ConnectionClose> parse_connection_close(const Chunk& c) {
  if (signal_kind(c) != SignalKind::kConnectionClose) return std::nullopt;
  ByteReader r(c.payload);
  r.u8();
  ConnectionClose close;
  close.connection_id = r.u32();
  close.final_conn_sn = r.u32();
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return close;
}

std::optional<GapNak> parse_gap_nak(const ChunkView& c) {
  if (signal_kind(c) != SignalKind::kGapNak) return std::nullopt;
  ByteReader r(c.payload);
  r.u8();
  GapNak nak;
  nak.connection_id = r.u32();
  nak.tpdu_id = r.u32();
  const std::uint8_t flags = r.u8();
  nak.need_ed_chunk = (flags & 1) != 0;
  nak.need_tail = (flags & 2) != 0;
  nak.tail_from = r.u32();
  const std::uint16_t n = r.u16();
  // The count is attacker-controlled; size the allocation from the
  // bytes that are actually THERE, not from the claim. A 15-byte
  // datagram claiming 65535 ranges must not reserve 512 KB before the
  // truncation check finally fails.
  if (!r.ok() || r.remaining() != static_cast<std::size_t>(n) * 8) {
    return std::nullopt;
  }
  nak.gaps.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    GapRange g;
    g.first_sn = r.u32();
    g.length = r.u32();
    nak.gaps.push_back(g);
  }
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return nak;
}

std::optional<CreditGrant> parse_credit_grant(const ChunkView& c) {
  if (signal_kind(c) != SignalKind::kCreditGrant) return std::nullopt;
  ByteReader r(c.payload);
  r.u8();
  CreditGrant grant;
  grant.connection_id = r.u32();
  grant.grant_seq = r.u32();
  grant.credit_limit_bytes = r.u64();
  grant.tpdu_slots = r.u16();
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return grant;
}

std::optional<ConnectionRefused> parse_connection_refused(const Chunk& c) {
  if (signal_kind(c) != SignalKind::kConnectionRefused) return std::nullopt;
  ByteReader r(c.payload);
  r.u8();
  ConnectionRefused refused;
  refused.connection_id = r.u32();
  refused.retry_hint_bytes = r.u64();
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return refused;
}

}  // namespace chunknet
