#include "src/transport/rto.hpp"

#include <algorithm>
#include <cmath>

namespace chunknet {

RtoEstimator::RtoEstimator(RtoConfig cfg, SimTime initial_rto)
    : cfg_(cfg),
      fixed_rto_(initial_rto),
      base_rto_(std::clamp(initial_rto, cfg.min_rto, cfg.max_rto)) {}

void RtoEstimator::on_sample(SimTime rtt, bool retransmitted) {
  if (retransmitted) {
    ++stats_.samples_discarded;
    return;
  }
  ++stats_.samples_taken;
  const double r = static_cast<double>(rtt);
  if (!have_srtt_) {
    srtt_ = r;
    rttvar_ = r / 2.0;
    have_srtt_ = true;
  } else {
    rttvar_ = (1.0 - cfg_.beta) * rttvar_ + cfg_.beta * std::abs(srtt_ - r);
    srtt_ = (1.0 - cfg_.alpha) * srtt_ + cfg_.alpha * r;
  }
  const double rto = srtt_ + cfg_.k * rttvar_;
  base_rto_ = std::clamp(static_cast<SimTime>(rto), cfg_.min_rto, cfg_.max_rto);
  backoff_shift_ = 0;  // fresh evidence the path is alive at this RTT
}

void RtoEstimator::on_timeout() {
  if ((base_rto_ << backoff_shift_) < cfg_.max_rto) ++backoff_shift_;
  ++stats_.backoffs;
}

SimTime RtoEstimator::rto() const {
  // Shift with overflow care: SimTime is ns in a uint64, and the shift
  // is bounded by the max_rto cap check in on_timeout anyway.
  const SimTime backed = base_rto_ << backoff_shift_;
  return std::clamp(backed, cfg_.min_rto, cfg_.max_rto);
}

}  // namespace chunknet
