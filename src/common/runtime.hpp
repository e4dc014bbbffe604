// What protocol code needs from whatever runs it: time and deadlines
// (Clock), and the packet unit (SimPacket, PacketSink).
//
// The sender, receiver and demultiplexer see time only through `Clock`.
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

/// A clock that can also run a callback at a deadline on itself.
/// Deadlines cannot be cancelled here: the transport guards each one
/// with an epoch check instead. Cancellation is a TimerWheel feature.
class Clock {
 public:
  virtual ~Clock() = default;

  virtual SimTime now() const = 0;
  /// Runs `cb` at or after `deadline` (absolute, this clock's time).
  virtual void arm_at(SimTime deadline, std::function<void()> cb) = 0;

  void arm_in(SimTime delay, std::function<void()> cb) {
    arm_at(now() + delay, std::move(cb));
  }
};

/// Minimal event-driven scheduler: stable FIFO order among events at
/// the same timestamp.
class Simulator final : public Clock {
 public:
  SimTime now() const override { return now_; }
  /// One heap event per deadline, fired at exactly `t` (clamped to now).
  void arm_at(SimTime t, std::function<void()> fn) override;

  /// Runs until the event queue drains or `deadline` passes.
  /// Returns the number of events executed.
  std::uint64_t run(SimTime deadline = ~SimTime{0});

  /// True if any event remains.
  bool pending() const { return !events_.empty(); }

  std::uint64_t next_packet_id() { return ++packet_counter_; }

 private:
  struct Event {
    SimTime t;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
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

/// Anything that can receive packets from a link.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void on_packet(SimPacket pkt) = 0;
};

}  // namespace chunknet
