// Adaptive retransmission timeout (Jacobson/Karn).
//
// Every transport in this repo retransmits on a timer, and until now
// that timer was a fixed constant — tuned for one topology, hopeless on
// any other (too short → spurious retransmits that the receiver's
// duplicate rejection must absorb; too long → goodput collapses under
// loss). This estimator implements the classic adaptive algorithm:
//
//   - RTT samples are taken from ACKs: sample = now − last_sent.
//   - Karn's rule: retransmitted PDUs reuse their ORIGINAL identifiers
//     (§3.3 of the paper), so an ACK for a retransmitted PDU is
//     ambiguous — the sample is discarded.
//   - Jacobson smoothing: SRTT ← (1−α)·SRTT + α·R,
//     RTTVAR ← (1−β)·RTTVAR + β·|SRTT − R|, RTO = SRTT + k·RTTVAR,
//     with α=1/8, β=1/4, k=4 (first sample: SRTT=R, RTTVAR=R/2).
//   - Exponential backoff on timeout, capped at max_rto; a valid
//     (non-Karn-discarded) sample resets the backoff.
//
// The estimator is deliberately transport-agnostic: the chunk sender
// and all three baseline senders embed one.
#pragma once

#include <cstdint>

#include "src/common/runtime.hpp"

namespace chunknet {

struct RtoConfig {
  /// Off by default so existing fixed-timeout experiments reproduce
  /// bit-for-bit; timeout() consults rto() only when this is set.
  bool adaptive{false};
  SimTime min_rto{1 * kMillisecond};
  SimTime max_rto{4 * kSecond};  ///< also the backoff cap
  double alpha{0.125};
  double beta{0.25};
  double k{4.0};
};

class RtoEstimator {
 public:
  /// `initial_rto` is used until the first RTT sample arrives (senders
  /// pass their configured `retransmit_timeout`).
  RtoEstimator(RtoConfig cfg, SimTime initial_rto);

  /// Feeds one ACK-derived RTT sample. `retransmitted` must be true if
  /// the acked PDU was ever resent (Karn's rule discards the sample —
  /// the ACK cannot be matched to a transmission). A kept sample also
  /// resets exponential backoff.
  void on_sample(SimTime rtt, bool retransmitted);

  /// A retransmission timer fired: double the backoff (capped).
  void on_timeout();

  /// The timeout to arm now (smoothed estimate × backoff, clamped).
  SimTime rto() const;
  /// What a sender arms: rto() when adaptive, else the fixed timeout.
  SimTime timeout() const { return cfg_.adaptive ? rto() : fixed_rto_; }

  bool has_estimate() const { return have_srtt_; }
  SimTime srtt() const { return static_cast<SimTime>(srtt_); }
  SimTime rttvar() const { return static_cast<SimTime>(rttvar_); }

  struct Stats {
    std::uint64_t samples_taken{0};
    std::uint64_t samples_discarded{0};  ///< Karn's rule
    std::uint64_t backoffs{0};
  };
  const Stats& stats() const { return stats_; }

 private:
  RtoConfig cfg_;
  SimTime fixed_rto_;     ///< `initial_rto` as given
  SimTime base_rto_;      ///< current estimate before backoff
  std::uint32_t backoff_shift_{0};
  bool have_srtt_{false};
  double srtt_{0};
  double rttvar_{0};
  Stats stats_;
};

}  // namespace chunknet
