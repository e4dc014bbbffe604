// The reorder-sensitive in-order baseline: a TCP-like sequenced byte
// stream against which the chunk transport's reorder immunity is
// measured (ROADMAP multipath item; docs/PERFORMANCE.md E14).
//
// Where the chunk receiver places any labelled chunk the moment it
// arrives (§1: chunks shrug off multipath reordering), this transport
// delivers strictly in sequence: a gap parks every later segment in a
// resequencing buffer and stalls delivery at the head of line until
// the missing segment shows up. The sender is a classic fixed window
// over cumulative ACKs with duplicate-ACK fast retransmit and an RTO
// fallback — so lane-skew reordering shows up as spurious dup-ACK
// retransmissions, head-of-line stalls, and a cum-ACK clock that
// cannot advance past the slowest path. The receiver accounts both:
// resequencing-buffer occupancy (peak and byte·ns integral) and total
// head-of-line stall time, the two costs the paper says labelling
// makes vanish.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "src/common/runtime.hpp"
#include "src/transport/rto.hpp"

namespace chunknet {

struct InOrderStreamConfig {
  std::size_t mtu{1500};
  /// Sliding window in segments (cum-ACK clocked).
  std::size_t window_segments{64};
  SimTime retransmit_timeout{50 * kMillisecond};
  int max_retransmits{8};
  /// Duplicate cumulative ACKs that trigger a fast retransmit.
  int dupack_threshold{3};
  /// Adaptive RTO (Jacobson/Karn); `retransmit_timeout` seeds it.
  RtoConfig rto{};
  std::function<void(std::vector<std::uint8_t>)> send_packet;
};

/// Wire: 'D' seq(4: segment index) dlen(2) payload crc32(4).
/// ACKs: 'A' + cumulative next-expected segment index (4).
inline constexpr std::size_t kInOrderHeaderBytes = 7;
inline constexpr std::size_t kInOrderTrailerBytes = 4;

class InOrderStreamSender final : public PacketSink {
 public:
  InOrderStreamSender(Clock& clock, InOrderStreamConfig cfg);
  ~InOrderStreamSender() override { clock_.cancel(timer_); }

  void send_stream(std::span<const std::uint8_t> stream);
  void on_packet(SimPacket pkt) override;  ///< cumulative ACKs
  bool all_acked() const { return finished() && !failed(); }
  bool finished() const {
    return started_ && (base_ >= segments_.size() || stats_.gave_up > 0);
  }
  bool failed() const { return stats_.gave_up > 0; }

  const RtoEstimator& rto() const { return rto_; }

  struct Stats {
    std::uint64_t segments_sent{0};
    std::uint64_t packets_sent{0};
    std::uint64_t bytes_sent{0};
    std::uint64_t retransmissions{0};
    std::uint64_t fast_retransmits{0};  ///< subset of retransmissions
    std::uint64_t timeouts{0};
    std::uint64_t dupacks{0};
    std::uint64_t gave_up{0};  ///< 1 = whole stream abandoned
    /// Total time the window was full (cum-ACK clock stalled).
    std::uint64_t window_stall_ns{0};
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Segment {
    std::vector<std::uint8_t> packet;
    int attempts{0};
    SimTime last_sent{0};
    bool retransmitted{false};  ///< Karn: ACK RTT sample is ambiguous
  };
  void transmit(std::size_t idx);
  void fill_window();
  void arm_timer();
  void note_window(bool was_full);

  Clock& clock_;
  InOrderStreamConfig cfg_;
  RtoEstimator rto_;
  std::vector<Segment> segments_;
  std::size_t base_{0};  ///< lowest unacked segment
  std::size_t next_{0};  ///< next never-sent segment
  TimerId timer_{0};  ///< the one retransmission timer
  int dupack_count_{0};
  bool fast_retx_done_{false};  ///< one fast retransmit per loss event
  bool window_full_{false};
  SimTime window_full_since_{0};
  bool started_{false};
  Stats stats_;
};

class InOrderStreamReceiver final : public PacketSink {
 public:
  InOrderStreamReceiver(
      Clock& clock, std::size_t app_buffer_bytes,
      std::function<void(std::vector<std::uint8_t>)> send_control);

  void on_packet(SimPacket pkt) override;

  /// The in-order-delivered prefix of the application buffer.
  std::span<const std::uint8_t> app_data() const {
    return std::span<const std::uint8_t>(app_buffer_.data(),
                                         delivered_bytes_);
  }
  std::uint64_t bytes_delivered() const { return delivered_bytes_; }

  struct Stats {
    std::uint64_t segments_ok{0};
    std::uint64_t segments_bad_check{0};
    std::uint64_t duplicates{0};
    std::uint64_t bus_bytes{0};
    /// Resequencing buffer: out-of-order segments parked behind a gap.
    std::uint64_t reseq_buffered_segments{0};
    std::uint64_t reseq_bytes_now{0};
    std::uint64_t reseq_bytes_peak{0};
    /// Occupancy integral (bytes · ns): mean occupancy over a run is
    /// this divided by the run's duration.
    std::uint64_t reseq_byte_ns{0};
    /// Head-of-line stalls: episodes where delivery waited on a gap,
    /// and the total time spent waiting.
    std::uint64_t hol_stalls{0};
    std::uint64_t hol_stall_ns{0};
    /// Per-segment latency, first transmission to in-order release.
    std::vector<double> delivery_latency_ns;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Parked {
    std::vector<std::uint8_t> payload;
    SimTime created_at{0};
  };
  void account_occupancy();

  Clock& clock_;
  std::function<void(std::vector<std::uint8_t>)> send_control_;
  std::vector<std::uint8_t> app_buffer_;
  std::map<std::uint32_t, Parked> parked_;  // keyed by segment index
  std::uint32_t next_expected_{0};
  std::uint64_t delivered_bytes_{0};
  SimTime stall_start_{0};
  bool stalled_{false};
  SimTime occupancy_mark_{0};
  Stats stats_;
};

}  // namespace chunknet
