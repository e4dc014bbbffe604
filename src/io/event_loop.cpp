#include "src/io/event_loop.hpp"

#include <errno.h>

#include <algorithm>

namespace chunknet {

EventLoop::EventLoop(EventLoopConfig cfg)
    : sys_(cfg.sys != nullptr ? cfg.sys : &real_syscalls()),
      cfg_(cfg),
      timers_(TimerWheel::Config{cfg.timer_tick}) {
  epoch_ns_ = sys_->sys_monotonic_ns();
  // EPOLL_CLOEXEC: the udp_transfer example forks helpers; leaked epoll
  // fds across exec would pin the loop alive in the child.
  epfd_ = sys_->sys_epoll_create1(EPOLL_CLOEXEC);
  event_buf_.resize(64);
  if (cfg_.obs != nullptr && cfg_.obs->metrics != nullptr) {
    c_eintr_ = &cfg_.obs->metrics->counter("io.loop.eintr_retries");
    c_epoll_errors_ = &cfg_.obs->metrics->counter("io.loop.epoll_errors");
  }
}

EventLoop::~EventLoop() {
  if (epfd_ >= 0) sys_->sys_close(epfd_);
}

SimTime EventLoop::now() const {
  return sys_->sys_monotonic_ns() - epoch_ns_;
}

bool EventLoop::add_fd(int fd, std::uint32_t events, FdCallback cb) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  const bool known = fds_.contains(fd);
  const int op = known ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (sys_->sys_epoll_ctl(epfd_, op, fd, &ev) != 0) return false;
  fds_.insert_or_assign(fd, std::move(cb));
  return true;
}

bool EventLoop::mod_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  return sys_->sys_epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EventLoop::del_fd(int fd) {
  if (!fds_.erase(fd)) return;
  epoll_event ev{};  // non-null for pre-2.6.9 kernels, per epoll_ctl(2)
  sys_->sys_epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
}

void EventLoop::defer(const void* owner, std::function<void()> fn) {
  deferred_.push_back(Deferred{owner, std::move(fn)});
}

void EventLoop::cancel_deferred(const void* owner) {
  for (Deferred& d : deferred_) {
    if (d.owner != owner) continue;
    d.owner = nullptr;
    d.fn = nullptr;
  }
}

void EventLoop::run_deferred() {
  // By index, with cancelled entries tombstoned rather than erased: an
  // entry may defer more work (appended, run in this same pass) or
  // cancel another owner's entries while the pass is under way.
  for (std::size_t i = 0; i < deferred_.size(); ++i) {
    if (deferred_[i].owner == nullptr) continue;
    deferred_[i].owner = nullptr;
    const std::function<void()> fn = std::move(deferred_[i].fn);
    ++stats_.deferred_runs;
    fn();
  }
  deferred_.clear();
}

void EventLoop::pump_timers() {
  const std::uint64_t fired = timers_.stats().fired;
  timers_.advance(now());
  stats_.timer_fires += timers_.stats().fired - fired;
}

int EventLoop::poll_once(SimTime max_wait) {
  ++stats_.polls;
  pump_timers();
  // What the caller and the timers queued goes out before the sleep.
  run_deferred();

  // Sleep until the earliest pending deadline, the caller's cap, or
  // the loop default — whichever is soonest. Milliseconds, rounded UP
  // so a deadline 0.4 ms out does not busy-spin at timeout 0.
  SimTime wait = std::min(max_wait, cfg_.max_poll);
  if (const auto next = timers_.next_deadline()) {
    const SimTime t = now();
    wait = std::min(wait, *next > t ? *next - t : 0);
  }
  const int timeout_ms =
      static_cast<int>((wait + kMillisecond - 1) / kMillisecond);

  int n = sys_->sys_epoll_wait(epfd_, event_buf_.data(),
                               static_cast<int>(event_buf_.size()),
                               timeout_ms);
  if (n < 0) {
    if (errno == EINTR) {
      // A signal is not an error: count it and let the caller's loop
      // re-enter with deadlines intact.
      ++stats_.eintr_retries;
      if (c_eintr_ != nullptr) c_eintr_->add();
      n = 0;
    } else {
      // A hard failure (EBADF, EINVAL, ...) would otherwise be an
      // uncounted busy spin until the caller's deadline: count it.
      ++stats_.epoll_errors;
      if (c_epoll_errors_ != nullptr) c_epoll_errors_->add();
      n = 0;
    }
  }
  for (int i = 0; i < n; ++i) {
    const int fd = event_buf_[static_cast<std::size_t>(i)].data.fd;
    const std::uint32_t ev = event_buf_[static_cast<std::size_t>(i)].events;
    // Re-find per event: a callback may del_fd a sibling.
    if (FdCallback* cb = fds_.find(fd); cb != nullptr && *cb) {
      ++stats_.fd_events;
      (*cb)(ev);
    }
  }
  pump_timers();
  run_deferred();
  return n;
}

bool EventLoop::run_until(const std::function<bool()>& done,
                          SimTime deadline) {
  stopped_ = false;
  while (!stopped_) {
    if (done()) return true;
    const SimTime t = now();
    if (t >= deadline) break;
    poll_once(deadline - t);
  }
  return done();
}

}  // namespace chunknet
