// The real-I/O event loop: epoll + the hierarchical timer wheel on
// CLOCK_MONOTONIC.
//
// This is the runtime that moves chunknet off the discrete-event
// simulator and onto real sockets. The transport stack (sender,
// receiver, demux) runs unchanged because it is written against the
// Clock seam (src/common/runtime.hpp), and the loop is that Clock
// (clock()). Its now() is the loop's current time: nanoseconds since the
// loop started, read fresh from CLOCK_MONOTONIC through the syscall
// shim on every call. Its arm_at() arms the loop's TimerWheel, which
// keeps only deadlines: each poll iteration advances the wheel to the
// current time, so a deadline (RTO, gap-NAK, reconnect backoff) fires
// on real time, and the epoll timeout is computed from the earliest
// pending deadline so the loop sleeps exactly as long as it may.
//
// The clock is read fresh, not cached at the last timer pump, because
// the transport does real work between polls. A sender that spends
// tens of milliseconds framing and encoding a stream before its first
// transmission must arm that transmission's RTO from when it actually
// went out; armed from a stale pump time, the deadline is already due
// at the next poll and the whole first burst is resent while its ACKs
// are in flight.
//
// Deferred work runs once per batch, not once per event. A component
// that queues output during a callback (the endpoint's TX queue, the
// receiver session's control chunks) registers one defer() entry; the
// loop drains the entries, in registration order and until none are
// left, right before it blocks in epoll_wait and again at the end of
// each poll iteration. So everything one iteration produces leaves in
// as few syscalls as it fits in, and nothing waits out a sleep.
//
// Single-threaded by design: every callback (fd readiness, timer,
// datagram delivery, deferred step) runs on the thread inside
// run()/poll_once(). The transport stack's single-writer assumptions
// carry over intact.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/flat_map.hpp"
#include "src/common/timer_wheel.hpp"
#include "src/io/syscall.hpp"
#include "src/obs/obs.hpp"

namespace chunknet {

struct EventLoopConfig {
  /// Syscall seam; null = the process-wide real shim.
  SyscallShim* sys{nullptr};
  /// Timer wheel tick. 1 ms matches the transport's deadline scale.
  SimTime timer_tick{1 * kMillisecond};
  /// Upper bound on one epoll sleep, so a loop with no armed deadline
  /// still re-checks stop flags and drains stray work.
  SimTime max_poll{50 * kMillisecond};
  /// Observability (optional). Metric names are prefixed "io.loop.".
  ObsContext* obs{nullptr};
};

class EventLoop final : public Clock {
 public:
  using FdCallback = std::function<void(std::uint32_t epoll_events)>;

  explicit EventLoop(EventLoopConfig cfg = {});
  ~EventLoop() override;

  /// Nanoseconds since construction, read fresh from CLOCK_MONOTONIC.
  SimTime now() const override;
  TimerId arm_at(SimTime deadline, std::function<void()> cb) override {
    return timers_.arm_at(deadline, std::move(cb));
  }
  bool cancel(TimerId id) override { return timers_.cancel(id); }

  /// Registers `fd` for `events` (EPOLLIN/EPOLLOUT/...). One callback
  /// per fd; re-adding an existing fd replaces events and callback.
  bool add_fd(int fd, std::uint32_t events, FdCallback cb);
  bool mod_fd(int fd, std::uint32_t events);
  void del_fd(int fd);

  /// This loop as the Clock every io session and the transport it
  /// drives read time and arm deadlines on.
  Clock& clock() { return *this; }
  /// The deadline store behind clock(). Its own now() is the time of
  /// the latest pump, which lags the loop between polls: read time
  /// from clock() instead.
  TimerWheel& timers() { return timers_; }
  SyscallShim& sys() { return *sys_; }

  /// Runs `fn` at the loop's next deferred step: before it next blocks
  /// in epoll_wait, or at the end of the current poll iteration. Entries
  /// run in registration order; one that defers again runs in the same
  /// step. `owner` is the key cancel_deferred() removes by.
  void defer(const void* owner, std::function<void()> fn);
  /// Drops every pending entry of `owner` (call from its destructor).
  void cancel_deferred(const void* owner);

  /// One poll iteration: fire due timers, run deferred work, sleep at
  /// most until the next deadline (capped by `max_wait` and
  /// cfg.max_poll), dispatch fd events, fire timers that came due
  /// meanwhile, run deferred work again. Returns the number of fd
  /// events dispatched.
  int poll_once(SimTime max_wait);

  /// Pumps until `done()` returns true or `deadline` (loop time)
  /// passes. Returns done()'s final value — false means timeout.
  bool run_until(const std::function<bool()>& done, SimTime deadline);

  /// Makes run_until return at the next iteration (callable from
  /// within a callback).
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  struct Stats {
    std::uint64_t polls{0};
    std::uint64_t fd_events{0};
    std::uint64_t timer_fires{0};   ///< wheel callbacks fired
    std::uint64_t eintr_retries{0}; ///< epoll_wait interrupted, retried
    std::uint64_t epoll_errors{0};  ///< epoll_wait failed hard (not EINTR)
    std::uint64_t deferred_runs{0}; ///< deferred entries run
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Deferred {
    const void* owner;  ///< null once cancelled
    std::function<void()> fn;
  };

  /// Advances the wheel to now(), firing every due deadline.
  void pump_timers();
  /// Runs deferred entries until none are left.
  void run_deferred();

  SyscallShim* sys_;
  EventLoopConfig cfg_;
  TimerWheel timers_;
  std::uint64_t epoch_ns_{0};
  int epfd_{-1};
  bool stopped_{false};
  FlatMap<int, FdCallback> fds_;
  std::vector<epoll_event> event_buf_;
  std::vector<Deferred> deferred_;
  Stats stats_;
  Counter* c_eintr_{nullptr};
  Counter* c_epoll_errors_{nullptr};
};

}  // namespace chunknet
