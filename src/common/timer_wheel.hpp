// Hierarchical timer wheel for million-flow deadline management.
//
// The transport arms a deadline per in-flight TPDU (RTO), per
// incomplete TPDU (gap-NAK), per blocked sender (zero-credit probe)
// and per idle connection (demux idle eviction). Scheduling each of
// those as its own simulator event means a binary-heap node and an
// allocated closure per deadline — and no way to CANCEL, so finished
// work leaves dead events to drain. The wheel gives O(1) arm, O(1)
// cancel, and amortized O(1) fire:
//
//   4 levels x 256 slots; level L spans tick<<(8L) per slot, so a
//   1 ms tick covers ~49 days of deadline horizon. Timers land in the
//   coarsest level whose resolution still separates them from "now"
//   and CASCADE one level down each time their slot's window opens.
//
// Resolution contract: a timer armed for deadline D fires at the
// first advance(now) with now >= D rounded UP to a tick boundary —
// never early, at most one tick late. RTO/idle deadlines are tens of
// milliseconds against a 1 ms default tick, so the quantization is
// noise there by construction.
//
// TimerId encodes {slab index, generation}: cancel of an already-fired
// (or re-armed) id is a safe no-op, so callers never chase use-after-
// fire races.
//
// `TimerWheel` is the pure data structure and a Clock of its own: its
// now() is the time of the latest advance(), so whoever drives it (the
// bench, the real-I/O EventLoop) decides what time the code armed on
// it sees. `SimTimerWheel` couples one to another Clock, normally a
// Simulator, with a single self-rescheduling pump deadline, so wheel
// deadlines fire on that clock without one heap event per timer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/runtime.hpp"

namespace chunknet {

class TimerWheel final : public Clock {
 public:
  /// 0 is never a valid id: arm() always returns non-zero.
  using TimerId = std::uint64_t;

  struct Config {
    SimTime tick{1 * kMillisecond};
  };

  struct Stats {
    std::uint64_t armed_total{0};
    std::uint64_t cancelled{0};
    std::uint64_t fired{0};
    std::uint64_t cascaded{0};
  };

  TimerWheel() : TimerWheel(Config{}) {}
  explicit TimerWheel(Config cfg);

  /// Schedules `cb` for `deadline` (absolute). Deadlines at or before
  /// the current tick fire on the next advance().
  TimerId arm(SimTime deadline, std::function<void()> cb);

  /// The time of the latest advance() (0 before the first).
  SimTime now() const override { return now_; }
  void arm_at(SimTime deadline, std::function<void()> cb) override {
    arm(deadline, std::move(cb));
  }

  /// O(1). True when the timer was still pending (not fired, not
  /// already cancelled); stale ids are a safe no-op.
  bool cancel(TimerId id);

  /// Fires every timer whose deadline tick is <= now. Callbacks may
  /// arm or cancel freely.
  void advance(SimTime now);

  /// Conservative earliest-pending-deadline bound: never later than
  /// the true earliest deadline, within one slot span of it. nullopt
  /// when nothing is armed.
  std::optional<SimTime> next_deadline() const;

  std::size_t armed() const { return armed_; }
  const Stats& stats() const { return stats_; }
  SimTime tick() const { return cfg_.tick; }
  std::size_t memory_bytes() const;

 private:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr std::uint64_t kSlots = 1ull << kSlotBits;
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  static constexpr std::int32_t kNil = -1;

  struct Node {
    std::uint64_t deadline_tick{0};
    std::uint32_t gen{0};
    std::int32_t prev{kNil};
    std::int32_t next{kNil};
    std::int16_t level{-1};  ///< -1 = free / not armed
    std::int16_t slot{0};
    std::function<void()> cb;
  };

  std::int32_t alloc_node();
  void free_node(std::int32_t n);
  /// `level == kLevels` means the immediately-due list.
  void link(std::int32_t n, int level, int slot);
  void unlink(std::int32_t n);
  void place(std::int32_t n);           ///< choose level+slot from delta
  void cascade(int level, int slot);    ///< re-place every node in a slot
  void fire_slot(int slot);             ///< level-0 slot is due
  void fire_due();                      ///< drain the immediately-due list
  void step_boundaries();               ///< cur_tick_ crossed a multiple of 256

  Config cfg_;
  SimTime now_{0};
  std::uint64_t cur_tick_{0};
  std::vector<Node> slab_;
  std::int32_t free_{kNil};
  std::int32_t slots_[kLevels][kSlots];
  std::int32_t tails_[kLevels][kSlots];
  std::int32_t due_head_{kNil};
  std::int32_t due_tail_{kNil};
  std::size_t level_count_[kLevels]{};
  std::size_t armed_{0};
  Stats stats_;
};

/// Couples a TimerWheel to another Clock: one pump deadline is kept
/// armed on it at (a bound on) the earliest pending wheel deadline;
/// firing it advances the wheel and re-arms. Arming an earlier deadline
/// pulls the pump earlier. Stale pumps (a later one left behind after
/// an earlier arm) advance harmlessly and are bounded by the number of
/// arms.
class SimTimerWheel final : public Clock {
 public:
  explicit SimTimerWheel(Clock& clock, TimerWheel::Config cfg = {})
      : clock_(clock), wheel_(cfg) {}

  /// Unlike arm_at, returns an id for cancel().
  TimerWheel::TimerId arm(SimTime deadline, std::function<void()> cb) {
    wheel_.advance(clock_.now());
    const TimerWheel::TimerId id = wheel_.arm(deadline, std::move(cb));
    // Wake at the deadline rounded up to the wheel's tick — the time
    // the wheel will actually consider it due.
    const SimTime tick = wheel_.tick();
    pump((deadline + tick - 1) / tick * tick);
    return id;
  }
  bool cancel(TimerWheel::TimerId id) { return wheel_.cancel(id); }

  SimTime now() const override { return clock_.now(); }
  void arm_at(SimTime deadline, std::function<void()> cb) override {
    arm(deadline, std::move(cb));
  }

  TimerWheel& wheel() { return wheel_; }

 private:
  void pump(SimTime at) {
    if (at < clock_.now()) at = clock_.now();
    if (wake_at_ <= at) return;  // an earlier-or-equal wake is outstanding
    wake_at_ = at;
    clock_.arm_at(at, [this] { on_wake(); });
  }
  void on_wake() {
    wake_at_ = kNoWake;
    wheel_.advance(clock_.now());
    if (const auto nd = wheel_.next_deadline()) pump(*nd);
  }

  Clock& clock_;
  TimerWheel wheel_;
  static constexpr SimTime kNoWake = ~SimTime{0};
  SimTime wake_at_{kNoWake};  ///< earliest pump deadline outstanding
};

}  // namespace chunknet
