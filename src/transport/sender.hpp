// The chunk transport sender.
//
// Frames one owned copy of the application stream into chunk views
// (three-level framing of Figure 1), attaches each TPDU's WSC-2
// invariant (Figure 5) as an ED control chunk (Figure 3), admits every
// TPDU through one send queue, and handles error control: per-TPDU
// ACK/NAK plus a retransmission timer. Every transmission (first send,
// resend, GapNak slice) packs the TPDU's stored views with pack_views
// and encodes each packet straight into its wire buffer, the one copy
// after the stream copy (the NIC-DMA analogue); compress_wire is the
// only step that copies more. Repacking policies (Figure 4) belong to
// relays. Retransmitted data reuses the ORIGINAL
// identifiers (§3.3: "retransmitted data should use the same
// identifiers as the originally transmitted data"), so late duplicates
// of the first transmission are recognized and rejected by the
// receiver's virtual reassembly.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include <optional>

#include "src/chunk/builder.hpp"
#include "src/chunk/compress.hpp"
#include "src/chunk/packetizer.hpp"
#include "src/common/runtime.hpp"
#include "src/obs/obs.hpp"
#include "src/transport/invariant.hpp"
#include "src/transport/rto.hpp"

namespace chunknet {

struct SenderConfig {
  FramerOptions framer{};
  std::size_t mtu{1500};
  InvariantConfig invariant{};
  SimTime retransmit_timeout{50 * kMillisecond};
  int max_retransmits{8};
  /// Adaptive RTO (Jacobson/Karn). When `rto.adaptive` is set the
  /// retransmission timer tracks measured RTT instead of the fixed
  /// `retransmit_timeout` (which then only seeds the estimator).
  RtoConfig rto{};
  /// Replaces the constructor's clock for time, retransmission and
  /// zero-credit-probe deadlines — typically a shared SimTimerWheel: at
  /// million-flow scale one pump event replaces one heap node per armed
  /// deadline. Must outlive the sender.
  Clock* timers{nullptr};
  /// Selective retransmission (extension): honour GapNak signal chunks
  /// by resending ONLY the missing element runs (chunks are cut to the
  /// exact gap boundaries with the Appendix-C split, so the receiver's
  /// duplicate/overlap rejection never discards them). The whole-TPDU
  /// timer remains as a backstop.
  bool selective_retransmit{false};
  /// When set, packets leave in the compact Appendix-A syntax under
  /// this (signalled) profile instead of the canonical fixed-field
  /// syntax: each packet's views are compressed, payload included (both
  /// copies counted in stats().tx_bytes_copied). Falls back to canonical
  /// per packet if a chunk is not representable under the profile.
  std::optional<CompressionProfile> compress_wire;
  /// Credit-based end-to-end flow control (docs/ROBUSTNESS.md,
  /// "Overload control"). When enabled, framed TPDUs wait in a send
  /// queue until the receiver's advertised credit (cumulative payload
  /// bytes + open-TPDU slots, carried in CreditGrant signal chunks)
  /// admits them; overload becomes sender-side queueing instead of
  /// receiver-side eviction storms.
  struct FlowControlConfig {
    bool enabled{false};
    /// Credit assumed before the first grant arrives (bootstraps the
    /// connection; one or two TPDUs' worth is typical).
    std::uint64_t initial_credit_bytes{16 * 1024};
    std::uint16_t initial_tpdu_slots{2};
    /// Zero-credit probe: blocked this long with no admission progress,
    /// the sender forces ONE TPDU through and halves its slot estimate
    /// — the decay that keeps a connection live when every grant since
    /// the last one was lost. Armed only while blocked, so an idle
    /// sender schedules nothing.
    SimTime probe_timeout{200 * kMillisecond};
  };
  FlowControlConfig flow{};
  /// Transmit a packet body into the network (first hop). Bodies are
  /// PacketBytes (64-byte aligned) so encoded packets travel without
  /// re-copying.
  std::function<void(PacketBytes)> send_packet;
  /// Observability (optional). Metric names are prefixed "sender.".
  ObsContext* obs{nullptr};
  std::uint16_t obs_site{0};
};

class ChunkTransportSender final : public PacketSink {
 public:
  ChunkTransportSender(Clock& clock, SenderConfig cfg);
  /// Cancels every deadline still armed (RTOs, zero-credit probe).
  ~ChunkTransportSender() override {
    for (const auto& [id, p] : outstanding_) clock_.cancel(p.rto);
    clock_.cancel(probe_timer_);
  }

  /// Copies, frames and transmits the whole stream (length must be a
  /// multiple of the framer element size); the caller's buffer is free
  /// on return. Once per connection: a second call aborts.
  void send_stream(std::span<const std::uint8_t> stream);

  /// Feedback channel: ACK/NAK chunks arrive here.
  void on_packet(SimPacket pkt) override;
  /// The same, decoding an envelope the caller owns (e.g. a pooled
  /// receive buffer), which must stay alive until this returns.
  void on_feedback(std::span<const std::uint8_t> envelope);

  /// Every TPDU was positively acknowledged. A transfer that gave up
  /// on a TPDU also drains `outstanding_`, so this is NOT merely
  /// "nothing left to send" — see finished()/failed().
  bool all_acked() const { return finished() && !failed(); }
  /// The sender has no more work (every TPDU was acked OR abandoned).
  bool finished() const { return outstanding_.empty() && started_; }
  /// At least one TPDU was abandoned after max_retransmits.
  bool failed() const { return stats_.gave_up > 0; }

  /// Its stats() count RTT samples, Karn's-rule discards and backoffs.
  const RtoEstimator& rto() const { return rto_; }

  /// Gives up on EVERY still-outstanding TPDU right now (drain path:
  /// the runtime is shutting down and will not wait out more RTO
  /// cycles). Each abandoned TPDU is accounted exactly like a
  /// max-retransmits give-up — stats().gave_up, the kTpduGaveUp span,
  /// gave_up_tpdus() — so delivery accounting stays truthful. Returns
  /// the number abandoned.
  std::size_t abandon_outstanding();

  /// TPDU ids abandoned after max_retransmits, in give-up order. The
  /// chaos conservation/leak oracles use this to tell the receiver to
  /// abort matching held state and to exclude these TPDUs from the
  /// truthful-delivery check.
  const std::vector<std::uint32_t>& gave_up_tpdus() const {
    return gave_up_ids_;
  }

  struct Stats {
    std::uint64_t tpdus_sent{0};
    std::uint64_t tpdus_acked{0};
    std::uint64_t retransmissions{0};
    std::uint64_t naks{0};
    std::uint64_t gave_up{0};
    std::uint64_t packets_sent{0};
    std::uint64_t bytes_sent{0};
    std::uint64_t gap_naks_honoured{0};
    std::uint64_t selective_retx_elements{0};
    std::uint64_t retx_payload_bytes{0};  ///< payload resent (any kind)
    /// Payload bytes COPIED beyond the one wire-buffer encode: only
    /// compress_wire copies (into its vector, then into aligned
    /// storage). Zero otherwise — the proof the lossy-link
    /// retransmission test pins.
    std::uint64_t tx_bytes_copied{0};
    /// Payload bytes encoded from the pending store straight into
    /// canonical wire buffers (the one copy, the NIC-DMA analogue).
    std::uint64_t tx_gather_bytes{0};
    /// Flow control: grants applied, blocked episodes, zero-credit
    /// probes fired, and multiplicative backoffs on shrinking grants.
    std::uint64_t credit_grants{0};
    std::uint64_t flow_blocked{0};
    std::uint64_t zero_credit_probes{0};
    std::uint64_t flow_backoffs{0};
  };
  const Stats& stats() const { return stats_; }

  /// Flow-control introspection (tests + benches).
  std::size_t flow_queued() const { return send_queue_.size(); }
  std::size_t flow_inflight() const { return inflight_; }
  std::uint64_t credit_limit() const { return credit_limit_; }
  std::uint64_t credit_consumed() const { return credit_consumed_; }
  std::uint16_t flow_slots() const { return slots_; }

 private:
  /// Lives in a std::map node, which never moves: `chunks` may view `ed`.
  struct PendingTpdu {
    PendingTpdu() = default;
    PendingTpdu(const PendingTpdu&) = delete;  // would alias the source's `ed`
    PendingTpdu& operator=(const PendingTpdu&) = delete;
    std::vector<ChunkView> chunks;  ///< data views into stream_, then `ed`
    Chunk ed;                       ///< the TPDU's ED chunk (WSC-2 code)
    int attempts{0};
    SimTime last_sent{0};  ///< RTT sample base
    TimerId rto{0};        ///< the live retransmission deadline
    /// Any part of this TPDU was ever resent (timer or GapNak slice):
    /// an ACK can no longer be matched to one transmission, so Karn's
    /// rule discards its RTT sample.
    bool retransmitted{false};
    /// Past the send queue (transmitted at least once).
    bool admitted{false};
    std::uint64_t payload_bytes{0};  ///< data payload (credit currency)
  };

  using Outstanding = std::map<std::uint32_t, PendingTpdu>;

  void transmit_tpdu(std::uint32_t tpdu_id, PendingTpdu& p);
  /// Abandons one outstanding TPDU, accounted as a give-up everywhere.
  void give_up(Outstanding::iterator it);
  /// Replaces the TPDU's RTO with a fresh one (no-op once retired).
  void arm_timer(std::uint32_t tpdu_id);
  /// Acts on the chunks of one decoded feedback envelope.
  void handle_feedback(std::span<const ChunkView> views);
  void handle_gap_nak(const ChunkView& signal);
  void handle_credit_grant(const ChunkView& signal);
  /// Admits queued TPDUs (under flow control, while credit and slots
  /// allow); arms the zero-credit probe while blocked, cancels it if empty.
  void pump_queue();
  void admit_tpdu(std::uint32_t tpdu_id, PendingTpdu& p);
  void arm_probe();
  /// Drops an acked or abandoned TPDU, its RTO and its flow slot.
  void retire(Outstanding::iterator it);
  void publish_flow_gauges();
  /// The one transmit path: packs views into the pending store and
  /// hands each packet's views to send_one.
  void send_chunk_views(std::span<const ChunkView> views);
  /// Encodes one packet's views, compressed if configured, straight
  /// into the body it hands to send_packet.
  void send_one(std::span<const ChunkView> packet);
  void trace_chunk(TraceEventKind kind, const ChunkHeader& h,
                   std::uint64_t aux = 0) const;
  void span(SpanEventKind kind, std::uint32_t tpdu_id,
            std::uint64_t aux = 0) const;

  struct ObsHandles {
    Counter* tpdus_sent{nullptr};
    Counter* tpdus_acked{nullptr};
    Counter* retransmissions{nullptr};
    Counter* naks{nullptr};
    Counter* gave_up{nullptr};
    Counter* packets_sent{nullptr};
    Counter* bytes_sent{nullptr};
    Counter* gap_naks_honoured{nullptr};
    Counter* retx_payload_bytes{nullptr};
    Counter* tx_bytes_copied{nullptr};
    Counter* tx_gather_bytes{nullptr};
    Counter* rto_samples{nullptr};
    Counter* rto_discarded{nullptr};
    Counter* rto_backoffs{nullptr};
    Counter* credit_grants{nullptr};
    Counter* flow_blocked{nullptr};
    Counter* zero_credit_probes{nullptr};
    Counter* flow_backoffs{nullptr};
    Gauge* credit_window{nullptr};
    Gauge* inflight_tpdus{nullptr};
  };

  Clock& clock_;  ///< cfg.timers if set, else the constructor's clock
  SenderConfig cfg_;
  RtoEstimator rto_;
  ObsHandles m_;
  SpanRecorder* spans_{nullptr};  ///< resolved once; hot path
  /// The one owned copy of the stream; pending data views alias it.
  std::vector<std::uint8_t> stream_;
  Outstanding outstanding_;
  std::vector<std::uint32_t> gave_up_ids_;
  /// on_packet's decode scratch (capacity kept across envelopes).
  std::vector<ChunkView> feedback_views_;
  bool started_{false};
  Stats stats_;

  std::deque<std::uint32_t> send_queue_;  ///< framed, not yet admitted
  // Admission state (credit and slots gate only under flow control).
  std::uint64_t credit_limit_{0};     ///< cumulative admit budget (bytes)
  std::uint64_t credit_consumed_{0};  ///< payload bytes admitted so far
  std::uint16_t slots_{0};            ///< open-TPDU window
  std::size_t inflight_{0};           ///< admitted and not yet retired
  std::uint32_t grant_seq_seen_{0};
  bool any_grant_{false};
  bool blocked_{false};
  std::uint64_t admit_epoch_{0};  ///< bumps on every admission
  TimerId probe_timer_{0};        ///< 0 when no probe is armed
};

}  // namespace chunknet
