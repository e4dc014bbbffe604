#include "src/transport/sender.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "src/chunk/codec.hpp"
#include "src/chunk/fragment.hpp"
#include "src/transport/signalling.hpp"

namespace chunknet {

ChunkTransportSender::ChunkTransportSender(Clock& clock, SenderConfig cfg)
    : clock_(cfg.timers ? *cfg.timers : clock),
      cfg_(std::move(cfg)),
      rto_(cfg_.rto, cfg_.retransmit_timeout) {
  if (cfg_.obs != nullptr) spans_ = cfg_.obs->spans;
  if (cfg_.obs != nullptr && cfg_.obs->metrics != nullptr) {
    MetricsRegistry& reg = *cfg_.obs->metrics;
    m_.tpdus_sent = &reg.counter("sender.tpdus_sent");
    m_.tpdus_acked = &reg.counter("sender.tpdus_acked");
    m_.retransmissions = &reg.counter("sender.retransmissions");
    m_.naks = &reg.counter("sender.naks");
    m_.gave_up = &reg.counter("sender.gave_up");
    m_.packets_sent = &reg.counter("sender.packets_sent");
    m_.bytes_sent = &reg.counter("sender.bytes_sent");
    m_.gap_naks_honoured = &reg.counter("sender.gap_naks_honoured");
    m_.retx_payload_bytes = &reg.counter("sender.retx_payload_bytes");
    m_.tx_bytes_copied = &reg.counter("sender.tx_bytes_copied");
    m_.tx_gather_bytes = &reg.counter("sender.tx_gather_bytes");
    m_.rto_samples = &reg.counter("sender.rto_samples");
    m_.rto_discarded = &reg.counter("sender.rto_discarded");
    m_.rto_backoffs = &reg.counter("sender.rto_backoffs");
    if (cfg_.flow.enabled) {
      m_.credit_grants = &reg.counter("flow.credit_grants");
      m_.flow_blocked = &reg.counter("flow.blocked");
      m_.zero_credit_probes = &reg.counter("flow.zero_credit_probes");
      m_.flow_backoffs = &reg.counter("flow.backoffs");
      m_.credit_window = &reg.gauge("flow.credit_window_bytes");
      m_.inflight_tpdus = &reg.gauge("flow.inflight_tpdus");
    }
  }
  if (cfg_.flow.enabled) {
    credit_limit_ = cfg_.flow.initial_credit_bytes;
    slots_ = std::max<std::uint16_t>(cfg_.flow.initial_tpdu_slots, 1);
    publish_flow_gauges();
  }
}

void ChunkTransportSender::publish_flow_gauges() {
  obs_set(m_.credit_window,
          static_cast<std::int64_t>(
              credit_limit_ > credit_consumed_ ? credit_limit_ - credit_consumed_
                                               : 0));
  obs_set(m_.inflight_tpdus, static_cast<std::int64_t>(inflight_));
}

void ChunkTransportSender::trace_chunk(TraceEventKind kind,
                                       const ChunkHeader& h,
                                       std::uint64_t aux) const {
  if (cfg_.obs == nullptr || cfg_.obs->tracer == nullptr) return;
  TraceEvent e;
  e.t = clock_.now();
  e.kind = kind;
  e.site = cfg_.obs_site;
  e.tpdu_id = h.tpdu.id;
  e.conn_sn = h.conn.sn;
  e.len = h.len;
  e.aux = aux;
  cfg_.obs->tracer->record(e);
}

void ChunkTransportSender::span(SpanEventKind kind, std::uint32_t tpdu_id,
                                std::uint64_t aux) const {
  if (spans_ == nullptr) return;
  SpanEvent e;
  e.t = clock_.now();
  e.kind = kind;
  e.connection_id = cfg_.framer.connection_id;
  e.tpdu_id = tpdu_id;
  e.aux = aux;
  spans_->record(e);
}

void ChunkTransportSender::send_stream(std::span<const std::uint8_t> stream) {
  if (started_) std::abort();  // the pending views alias stream_
  started_ = true;
  stream_.assign(stream.begin(), stream.end());
  const std::vector<ChunkView> views = frame_stream_views(stream_, cfg_.framer);

  for (auto first = views.begin(); first != views.end();) {
    const std::uint32_t tpdu_id = first->h.tpdu.id;
    const auto last = std::find_if(first, views.end(), [&](const ChunkView& v) {
      return v.h.tpdu.id != tpdu_id;
    });
    const std::span<const ChunkView> data(first, last);
    first = last;

    // Transmitter-side invariant: absorb the pristine chunks once.
    TpduInvariant inv(cfg_.invariant);
    bool ok = true;
    for (const ChunkView& v : data) ok = inv.absorb(v) && ok;
    if (!ok) continue;  // stream too large for the invariant layout

    // Built in place: chunks.back() views `ed`, and map nodes never move.
    PendingTpdu& p = outstanding_.try_emplace(tpdu_id).first->second;
    p.ed = make_ed_chunk(cfg_.framer.connection_id, tpdu_id,
                         data.front().h.conn.sn, inv.value());
    p.chunks.reserve(data.size() + 1);
    p.chunks.assign(data.begin(), data.end());
    p.chunks.push_back(as_view(p.ed));
    for (const ChunkView& v : p.chunks) {
      trace_chunk(TraceEventKind::kChunkBuilt, v.h);
      if (v.h.type == ChunkType::kData) p.payload_bytes += v.payload.size();
    }
    ++stats_.tpdus_sent;
    obs_add(m_.tpdus_sent);
    span(SpanEventKind::kTpduFramed, tpdu_id, p.payload_bytes);
    send_queue_.push_back(tpdu_id);
  }
  pump_queue();
}

void ChunkTransportSender::admit_tpdu(std::uint32_t tpdu_id, PendingTpdu& p) {
  p.admitted = true;
  credit_consumed_ += p.payload_bytes;
  ++inflight_;
  ++admit_epoch_;
  span(SpanEventKind::kTpduAdmitted, tpdu_id, p.payload_bytes);
  transmit_tpdu(tpdu_id, p);
}

void ChunkTransportSender::pump_queue() {
  while (!send_queue_.empty()) {
    auto it = outstanding_.find(send_queue_.front());
    if (it == outstanding_.end()) {  // retired before admission (shouldn't
      send_queue_.pop_front();       // happen, but never wedge on it)
      continue;
    }
    if (cfg_.flow.enabled &&
        (inflight_ >= slots_ ||
         credit_consumed_ + it->second.payload_bytes > credit_limit_)) {
      break;
    }
    send_queue_.pop_front();
    admit_tpdu(it->first, it->second);
  }
  const bool now_blocked = !send_queue_.empty();
  if (now_blocked && !blocked_) {
    ++stats_.flow_blocked;
    obs_add(m_.flow_blocked);
  }
  blocked_ = now_blocked;
  if (now_blocked) {
    arm_probe();
  } else {
    clock_.cancel(probe_timer_);  // nothing left for a probe to force
    probe_timer_ = 0;
  }
  publish_flow_gauges();
}

void ChunkTransportSender::arm_probe() {
  if (probe_timer_ != 0) return;
  const std::uint64_t epoch = admit_epoch_;
  probe_timer_ = clock_.arm_in(cfg_.flow.probe_timeout, [this, epoch] {
    probe_timer_ = 0;
    if (admit_epoch_ != epoch) {
      // Progress happened since arming; still blocked, so keep watch.
      arm_probe();
      return;
    }
    // Genuinely stalled: every grant since the last one we applied was
    // lost, or the receiver went quiet. Decay the slot estimate
    // (conservative restart) and force ONE TPDU through as a probe —
    // its ACK or the grant it provokes re-opens the window.
    slots_ = std::max<std::uint16_t>(slots_ / 2, 1);
    ++stats_.zero_credit_probes;
    obs_add(m_.zero_credit_probes);
    auto it = outstanding_.find(send_queue_.front());
    send_queue_.pop_front();
    if (it != outstanding_.end()) admit_tpdu(it->first, it->second);
    if (!send_queue_.empty()) arm_probe();
    publish_flow_gauges();
  });
}

void ChunkTransportSender::retire(Outstanding::iterator it) {
  clock_.cancel(it->second.rto);
  if (it->second.admitted && inflight_ > 0) --inflight_;
  outstanding_.erase(it);
}

void ChunkTransportSender::handle_credit_grant(const ChunkView& signal) {
  const auto grant = parse_credit_grant(signal);
  if (!grant || grant->connection_id != cfg_.framer.connection_id) return;
  // Wrap-safe ordering: apply only grants newer than the last applied.
  if (any_grant_ &&
      static_cast<std::int32_t>(grant->grant_seq - grant_seq_seen_) <= 0) {
    return;
  }
  any_grant_ = true;
  grant_seq_seen_ = grant->grant_seq;
  ++stats_.credit_grants;
  obs_add(m_.credit_grants);
  span(SpanEventKind::kCreditGrant, 0, grant->credit_limit_bytes);

  const std::uint64_t old_window =
      credit_limit_ > credit_consumed_ ? credit_limit_ - credit_consumed_ : 0;
  const std::uint64_t new_window = grant->credit_limit_bytes > credit_consumed_
                                       ? grant->credit_limit_bytes - credit_consumed_
                                       : 0;
  const std::uint16_t offered_slots =
      std::max<std::uint16_t>(grant->tpdu_slots, 1);
  if (new_window < old_window || offered_slots < slots_) {
    // The receiver is under pressure: back off multiplicatively rather
    // than sliding gently to the offered window.
    slots_ = std::max<std::uint16_t>(std::min(offered_slots,
                                              static_cast<std::uint16_t>(
                                                  slots_ / 2)),
                                     1);
    ++stats_.flow_backoffs;
    obs_add(m_.flow_backoffs);
  } else {
    slots_ = offered_slots;
  }
  credit_limit_ = grant->credit_limit_bytes;
  pump_queue();
}

void ChunkTransportSender::transmit_tpdu(std::uint32_t tpdu_id,
                                         PendingTpdu& p) {
  ++p.attempts;
  p.last_sent = clock_.now();
  if (p.attempts > 1) {
    p.retransmitted = true;
    stats_.retx_payload_bytes += p.payload_bytes;
    obs_add(m_.retx_payload_bytes, p.payload_bytes);
  }
  // The stored views go straight to the packer, which copies them into
  // its own work stack: no per-transmission vector.
  send_chunk_views(p.chunks);
  arm_timer(tpdu_id);
}

std::size_t ChunkTransportSender::abandon_outstanding() {
  std::size_t n = 0;
  while (!outstanding_.empty()) {
    give_up(outstanding_.begin());
    ++n;
  }
  // Queued ids point into outstanding_, so the loop above already
  // abandoned them; emptying the queue also cancels the probe.
  send_queue_.clear();
  pump_queue();
  return n;
}

void ChunkTransportSender::give_up(Outstanding::iterator it) {
  ++stats_.gave_up;
  obs_add(m_.gave_up);
  span(SpanEventKind::kTpduGaveUp, it->first);
  gave_up_ids_.push_back(it->first);
  retire(it);
}

void ChunkTransportSender::arm_timer(std::uint32_t tpdu_id) {
  // Looked up afresh: a synchronous wire may have acked it by now.
  const auto it = outstanding_.find(tpdu_id);
  if (it == outstanding_.end()) return;
  clock_.cancel(it->second.rto);
  // retire() cancels this deadline, so `it` is valid whenever it fires.
  it->second.rto = clock_.arm_in(rto_.timeout(), [this, it] {
    if (it->second.attempts > cfg_.max_retransmits) {
      give_up(it);
      pump_queue();
      return;
    }
    rto_.on_timeout();
    ++stats_.rto_backoffs;
    obs_add(m_.rto_backoffs);
    ++stats_.retransmissions;
    obs_add(m_.retransmissions);
    transmit_tpdu(it->first, it->second);
  });
}

namespace {

/// Cuts the piece of `v` covering elements [lo, hi) in T.SN space, or
/// nullopt if they don't intersect. Appendix-C splits keep every header
/// field (SNs, ST bits) exact, so the receiver accepts the piece as if
/// it had been fragmented in the network. Views make the cut pure
/// header math — the payload halves are subspans of the original.
std::optional<ChunkView> slice_view(const ChunkView& v, std::uint64_t lo,
                                    std::uint64_t hi) {
  const std::uint64_t s = v.h.tpdu.sn;
  const std::uint64_t e = s + v.h.len;
  const std::uint64_t a = std::max(lo, s);
  const std::uint64_t b = std::min(hi, e);
  if (a >= b) return std::nullopt;
  ChunkView piece = v;
  if (a > s) {
    piece = split_view(piece, static_cast<std::uint16_t>(a - s)).second;
  }
  if (b < e) {
    piece = split_view(piece, static_cast<std::uint16_t>(b - a)).first;
  }
  return piece;
}

}  // namespace

void ChunkTransportSender::send_chunk_views(std::span<const ChunkView> views) {
  pack_views(views, {.mtu = cfg_.mtu},
             [this](std::span<const ChunkView> packet) { send_one(packet); });
}

void ChunkTransportSender::send_one(std::span<const ChunkView> packet) {
  std::uint64_t payload = 0;
  for (const ChunkView& v : packet) payload += v.payload.size();
  PacketBytes pkt;
  if (cfg_.compress_wire) {
    // The compact negotiated syntax, encoded from the views: one copy
    // into compress_packet's vector, one into aligned storage. It is
    // never larger than the canonical envelope; a chunk the profile
    // cannot represent leaves the packet canonical (both parse at
    // the peer).
    const auto compact =
        compress_packet(packet, *cfg_.compress_wire, cfg_.mtu);
    if (!compact.empty()) {
      pkt = compact;
      stats_.tx_bytes_copied += 2 * payload;
      obs_add(m_.tx_bytes_copied, 2 * payload);
    }
  }
  if (pkt.empty()) {
    encode_packet_into(packet, cfg_.mtu, pkt);
    stats_.tx_gather_bytes += payload;
    obs_add(m_.tx_gather_bytes, payload);
  }
  stats_.bytes_sent += pkt.size();
  ++stats_.packets_sent;
  obs_add(m_.packets_sent);
  obs_add(m_.bytes_sent, pkt.size());
  if (cfg_.obs != nullptr && cfg_.obs->tracer != nullptr) {
    TraceEvent e;
    e.t = clock_.now();
    e.kind = TraceEventKind::kPacketized;
    e.site = cfg_.obs_site;
    e.aux = pkt.size();
    cfg_.obs->tracer->record(e);
  }
  if (cfg_.send_packet) cfg_.send_packet(std::move(pkt));
}

void ChunkTransportSender::handle_gap_nak(const ChunkView& signal) {
  const auto nak = parse_gap_nak(signal);
  if (!nak) return;
  const auto it = outstanding_.find(nak->tpdu_id);
  if (it == outstanding_.end()) return;  // already acked or abandoned
  // An honoured gap NAK consumes a retransmit attempt. Without this the
  // retry budget never trips on the selective path (each honoured NAK
  // also re-arms the whole-TPDU backstop below), and a receiver that
  // keeps shedding held state under memory pressure re-arms its NAK
  // budget with every recreated TPDU context — an unbounded
  // NAK → slice → evict livelock. Over budget, give up truthfully
  // exactly like the whole-TPDU retransmission path.
  if (it->second.attempts > cfg_.max_retransmits) {
    give_up(it);
    pump_queue();
    return;
  }
  ++it->second.attempts;
  ++stats_.gap_naks_honoured;
  obs_add(m_.gap_naks_honoured);

  // Slices are views over the pending chunks: the cut is header math
  // plus a payload subspan, so building the resend list copies nothing.
  std::vector<ChunkView> resend;
  auto take = [&](const ChunkView& piece) {
    stats_.selective_retx_elements += piece.h.len;
    stats_.retx_payload_bytes += piece.payload.size();
    obs_add(m_.retx_payload_bytes, piece.payload.size());
    trace_chunk(TraceEventKind::kChunkBuilt, piece.h, 1);
    resend.push_back(piece);
  };
  for (const ChunkView& v : it->second.chunks) {
    if (v.h.type == ChunkType::kErrorDetection) {
      if (nak->need_ed_chunk) resend.push_back(v);
      continue;
    }
    bool taken = false;
    for (const GapRange& g : nak->gaps) {
      if (auto piece = slice_view(v, g.first_sn,
                                  static_cast<std::uint64_t>(g.first_sn) +
                                      g.length)) {
        take(*piece);
        taken = true;
      }
    }
    if (!taken && nak->need_tail) {
      if (auto piece = slice_view(v, nak->tail_from, ~std::uint64_t{0})) {
        take(*piece);
      }
    }
  }
  if (resend.empty()) return;
  it->second.retransmitted = true;  // Karn: later ACK is ambiguous
  send_chunk_views(resend);
  arm_timer(nak->tpdu_id);
}

void ChunkTransportSender::on_packet(SimPacket pkt) { on_feedback(pkt.bytes); }

void ChunkTransportSender::on_feedback(
    std::span<const std::uint8_t> envelope) {
  // Feedback is read in place: the views alias `envelope`, which the
  // caller keeps alive until return. The scratch is taken for the call,
  // so a re-entrant call decodes into a vector of its own.
  std::vector<ChunkView> views = std::move(feedback_views_);
  const bool ok = decode_packet_views(envelope, views);
  if (ok) handle_feedback(views);
  feedback_views_ = std::move(views);
}

void ChunkTransportSender::handle_feedback(std::span<const ChunkView> views) {
  for (const ChunkView& c : views) {
    if (c.h.type == ChunkType::kSignal) {
      if (cfg_.flow.enabled && signal_kind(c) == SignalKind::kCreditGrant) {
        handle_credit_grant(c);
      } else if (cfg_.selective_retransmit) {
        handle_gap_nak(c);
      }
      continue;
    }
    if (c.h.type != ChunkType::kAck) continue;
    const AckInfo ack = parse_ack_chunk(c);
    auto it = outstanding_.find(ack.tpdu_id);
    if (it == outstanding_.end()) continue;
    if (ack.positive) {
      rto_.on_sample(clock_.now() - it->second.last_sent,
                     it->second.retransmitted);
      // Karn's rule: an ACK for a retransmitted TPDU is ambiguous, so
      // the estimator discarded that sample.
      if (it->second.retransmitted) {
        ++stats_.rto_discarded;
        obs_add(m_.rto_discarded);
      } else {
        ++stats_.rto_samples;
        obs_add(m_.rto_samples);
      }
      ++stats_.tpdus_acked;
      obs_add(m_.tpdus_acked);
      span(SpanEventKind::kTpduAcked, ack.tpdu_id);
      retire(it);
      pump_queue();
    } else {
      // NAK: retransmit immediately with the same identifiers.
      ++stats_.naks;
      obs_add(m_.naks);
      if (it->second.attempts > cfg_.max_retransmits) {
        give_up(it);
        pump_queue();
        continue;
      }
      ++stats_.retransmissions;
      obs_add(m_.retransmissions);
      transmit_tpdu(ack.tpdu_id, it->second);
    }
  }
}

}  // namespace chunknet
