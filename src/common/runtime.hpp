// What protocol code needs from whatever runs it: time and deadlines
// (Clock), and the packet unit (SimPacket, PacketSink).
//
// The sender, receiver and demultiplexer see time only through `Clock`,
// the one deadline API: arm_at() returns an id that cancel() drops.
// Simulator (below) implements it with exact heap timing, one event per
// deadline; TimerWheel and SimTimerWheel (timer_wheel.hpp) implement it
// on a wheel's tick. DESIGN.md "The clock seam" says why both exist.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/common/aligned.hpp"

namespace chunknet {

/// Simulated time in nanoseconds.
using SimTime = std::uint64_t;

inline constexpr SimTime kMicrosecond = 1'000;
inline constexpr SimTime kMillisecond = 1'000'000;
inline constexpr SimTime kSecond = 1'000'000'000;

/// Names one armed deadline. 0 is never issued, so it can mean "none".
/// Ids encode {slot, generation}: cancelling one that already fired (or
/// was cancelled) is a safe no-op, even after its slot was reused.
using TimerId = std::uint64_t;

/// A clock that runs callbacks at deadlines; they hold its address.
class Clock {
 public:
  Clock() = default;
  Clock(const Clock&) = delete;
  Clock& operator=(const Clock&) = delete;
  virtual ~Clock() = default;

  virtual SimTime now() const = 0;
  /// Runs `cb` at or after `deadline` (absolute, this clock's time).
  virtual TimerId arm_at(SimTime deadline, std::function<void()> cb) = 0;
  /// Drops a pending deadline so it never runs. True when it was still
  /// pending; false (a no-op) for 0 and for fired or cancelled ids.
  virtual bool cancel(TimerId id) = 0;

  TimerId arm_in(SimTime delay, std::function<void()> cb) {
    return arm_at(now() + delay, std::move(cb));
  }
};

/// Minimal event-driven scheduler: stable FIFO order among events at
/// the same timestamp. cancel() bumps the id's slot generation, leaving
/// a tombstone in the heap that is skipped when popped: it neither runs
/// nor moves now(), so live events keep their exact times. Slots are
/// recycled, bounding them by the events pending at once.
class Simulator final : public Clock {
 public:
  SimTime now() const override { return now_; }
  /// One heap event per deadline, fired at exactly `t` (clamped to now).
  TimerId arm_at(SimTime t, std::function<void()> fn) override;
  bool cancel(TimerId id) override;

  /// Runs until no live event remains or `deadline` passes.
  /// Returns the number of events executed.
  std::uint64_t run(SimTime deadline = ~SimTime{0});

  /// True if any live (armed, not cancelled) event remains.
  bool pending() const { return free_slots_.size() < gens_.size(); }

  std::uint64_t next_packet_id() { return ++packet_counter_; }

 private:
  struct Event {
    SimTime t;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    TimerId id;
    std::function<void()> fn;
  };

  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  SimTime now_{0};
  std::uint64_t seq_counter_{0};
  std::uint64_t packet_counter_{0};
  std::priority_queue<Event, std::vector<Event>, Later> events_;
  std::vector<std::uint32_t> gens_;  ///< per slot; a slot is live or free
  std::vector<std::uint32_t> free_slots_;
};

/// A packet in flight: opaque bytes plus bookkeeping for latency traces.
/// The bytes are PacketBytes (64-byte aligned) so pooled buffers travel
/// through the simulator without losing their alignment guarantee.
struct SimPacket {
  PacketBytes bytes;
  std::uint64_t id{0};         ///< unique per simulator (trace key)
  SimTime created_at{0};       ///< first transmission time
  int hops{0};                 ///< links traversed so far
};

/// Anything that can receive packets from a link, which holds it.
class PacketSink {
 public:
  PacketSink() = default;
  PacketSink(const PacketSink&) = delete;
  PacketSink& operator=(const PacketSink&) = delete;
  virtual ~PacketSink() = default;
  virtual void on_packet(SimPacket pkt) = 0;
};

}  // namespace chunknet
