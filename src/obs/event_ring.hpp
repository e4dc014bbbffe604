// The bounded event ring behind ChunkTracer (trace.hpp) and
// SpanRecorder (spans.hpp). Recording is O(1) — a slot write under a
// spinlock, safe from parallel pipeline workers — and once the ring is
// full the oldest events are overwritten, so a recorder can stay
// attached to a long run and always hold the most recent window.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

namespace chunknet {

template <typename Event>
class EventRing {
 public:
  explicit EventRing(std::size_t capacity)
      : ring_(std::max<std::size_t>(capacity, 1)) {}

  /// O(1); overwrites the oldest event once the ring is full.
  void record(const Event& e) noexcept {
    lock();
    ring_[next_ % ring_.size()] = e;
    ++next_;
    unlock();
  }

  /// Retained events in record order (oldest first).
  std::vector<Event> events() const {
    lock();
    std::vector<Event> out;
    const std::size_t cap = ring_.size();
    const std::uint64_t kept = std::min<std::uint64_t>(next_, cap);
    out.reserve(kept);
    for (std::uint64_t i = next_ - kept; i < next_; ++i) {
      out.push_back(ring_[i % cap]);
    }
    unlock();
    return out;
  }

  /// Total record() calls.
  std::uint64_t recorded() const noexcept {
    lock();
    const std::uint64_t n = next_;
    unlock();
    return n;
  }

  /// Events overwritten by wrap.
  std::uint64_t dropped() const noexcept {
    const std::uint64_t n = recorded();
    return n > ring_.size() ? n - ring_.size() : 0;
  }

  std::size_t capacity() const noexcept { return ring_.size(); }

 private:
  void lock() const noexcept {
    while (lock_.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() const noexcept { lock_.clear(std::memory_order_release); }

  mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
  std::vector<Event> ring_;
  std::uint64_t next_{0};
};

}  // namespace chunknet
