// EventLoop on real time: timers armed on the loop's wheel fire on
// CLOCK_MONOTONIC, the transport clock reads current time, the epoll
// sleep tracks the earliest deadline, an interrupted epoll_wait is a
// retry, and a failed one is counted. The deferred step runs in order
// and honours cancellation, and an endpoint's TX queue leaves in
// tx_batch-sized sendmmsg calls without holding back a lone datagram.
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <unistd.h>

#include <memory>

#include "src/io/event_loop.hpp"
#include "src/io/syscall.hpp"
#include "src/io/udp_endpoint.hpp"

namespace chunknet {
namespace {

/// The real shim, counting sendmmsg calls and the datagrams they sent.
class CountingSyscalls final : public SyscallShim {
 public:
  int sys_sendmmsg(int fd, mmsghdr* msgs, unsigned n, int flags) override {
    const int sent = SyscallShim::sys_sendmmsg(fd, msgs, n, flags);
    ++calls;
    if (sent > 0) datagrams += static_cast<std::uint64_t>(sent);
    return sent;
  }
  std::uint64_t calls{0};
  std::uint64_t datagrams{0};
};

/// A receiving endpoint and a sender connected to it, on one loop.
struct EndpointPair {
  std::unique_ptr<UdpEndpoint> rx;
  std::unique_ptr<UdpEndpoint> tx;
  int received{0};

  explicit EndpointPair(EventLoop& loop) {
    UdpEndpointConfig rc;
    rc.bind = UdpAddress{0x7f000001, 0};
    rx = std::make_unique<UdpEndpoint>(loop, rc);
    EXPECT_TRUE(rx->ok());
    rx->on_datagram([this](PooledBuffer&&, const UdpAddress&) { ++received; });
    UdpEndpointConfig tc;
    tc.bind = UdpAddress{0x7f000001, 0};
    tc.peer = rx->local_addr();
    tx = std::make_unique<UdpEndpoint>(loop, tc);
    EXPECT_TRUE(tx->ok());
  }
};

TEST(IoLoop, TimerFiresOnRealTime) {
  EventLoop loop;
  ASSERT_TRUE(loop.timers().armed() == 0);
  bool fired = false;
  SimTime fired_at = 0;
  loop.timers().arm_in(5 * kMillisecond, [&] {
    fired = true;
    fired_at = loop.timers().now();
  });
  ASSERT_TRUE(loop.run_until([&] { return fired; }, 500 * kMillisecond));
  // Fired no earlier than armed (modulo the wheel's 1 ms tick) and
  // well before the deadline.
  EXPECT_GE(fired_at, 4 * kMillisecond);
  EXPECT_LT(fired_at, 250 * kMillisecond);
}

TEST(IoLoop, TransportClockTracksWallClock) {
  EventLoop loop;
  // The clock the transport reads is the loop's current time: it moves
  // with the wall clock even when nothing is armed, never runs ahead of
  // a fresh read, and does not wait for a poll to move.
  Clock& clock = loop.clock();
  SimTime prev = clock.now();
  for (int i = 0; i < 3; ++i) {
    loop.poll_once(2 * kMillisecond);
    const SimTime t = clock.now();
    EXPECT_GT(t, prev);
    EXPECT_LE(t, loop.now());
    prev = t;
  }
  const SimTime before = clock.now();
  while (loop.now() == before) {
  }
  EXPECT_GT(clock.now(), before);
}

TEST(IoLoop, TimerOrderingPreserved) {
  EventLoop loop;
  std::vector<int> order;
  loop.timers().arm_in(6 * kMillisecond, [&] { order.push_back(2); });
  loop.timers().arm_in(2 * kMillisecond, [&] { order.push_back(1); });
  loop.timers().arm_in(10 * kMillisecond, [&] { order.push_back(3); });
  ASSERT_TRUE(
      loop.run_until([&] { return order.size() == 3; }, kSecond));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(IoLoop, PipeReadinessDispatches) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::string got;
  ASSERT_TRUE(loop.add_fd(fds[0], EPOLLIN, [&](std::uint32_t ev) {
    if ((ev & EPOLLIN) != 0) {
      char buf[16];
      const ssize_t n = read(fds[0], buf, sizeof(buf));
      if (n > 0) got.append(buf, static_cast<std::size_t>(n));
    }
  }));
  ASSERT_EQ(write(fds[1], "ping", 4), 4);
  ASSERT_TRUE(loop.run_until([&] { return !got.empty(); }, kSecond));
  EXPECT_EQ(got, "ping");
  EXPECT_GE(loop.stats().fd_events, 1u);
  loop.del_fd(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

TEST(IoLoop, EpollWaitEintrIsRetriedAndCounted) {
  FaultInjectingSyscalls faulty(real_syscalls());
  faulty.fail_next(IoCall::kEpollWait, EINTR, 3);
  EventLoopConfig cfg;
  cfg.sys = &faulty;
  EventLoop loop(cfg);
  bool fired = false;
  loop.timers().arm_in(2 * kMillisecond, [&] { fired = true; });
  ASSERT_TRUE(loop.run_until([&] { return fired; }, kSecond));
  EXPECT_EQ(loop.stats().eintr_retries, 3u);
  EXPECT_EQ(faulty.pending(), 0u);
}

TEST(IoLoop, EpollWaitHardFailureIsCountedNotSilent) {
  MetricsRegistry metrics;
  ObsContext obs;
  obs.metrics = &metrics;
  FaultInjectingSyscalls faulty(real_syscalls());
  faulty.fail_next(IoCall::kEpollWait, EBADF, 3);
  EventLoopConfig cfg;
  cfg.sys = &faulty;
  cfg.obs = &obs;
  EventLoop loop(cfg);
  const SimTime start = loop.now();
  EXPECT_FALSE(
      loop.run_until([] { return false; }, start + 10 * kMillisecond));
  EXPECT_GE(loop.now(), start + 10 * kMillisecond);
  EXPECT_LT(loop.now(), start + kSecond);
  EXPECT_EQ(loop.stats().epoll_errors, 3u);
  EXPECT_EQ(loop.stats().eintr_retries, 0u);
  EXPECT_EQ(metrics.counter("io.loop.epoll_errors").value(), 3u);
  EXPECT_EQ(faulty.pending(), 0u);
}

TEST(IoLoop, RunUntilHonoursDeadline) {
  EventLoop loop;
  const SimTime start = loop.now();
  EXPECT_FALSE(
      loop.run_until([] { return false; }, start + 10 * kMillisecond));
  EXPECT_GE(loop.now(), start + 10 * kMillisecond);
  // And does not massively overshoot a short deadline.
  EXPECT_LT(loop.now(), start + kSecond);
}

// Deferred entries run in registration order and once each; an entry
// may defer more work (run in the same step) or cancel another owner's
// pending entries (which then never run).
TEST(IoLoop, DeferredStepRunsInOrderAndHonoursCancel) {
  EventLoop loop;
  std::vector<int> order;
  int a = 0, b = 0, c = 0;  // owners
  loop.defer(&a, [&] {
    order.push_back(1);
    loop.cancel_deferred(&b);
    loop.defer(&a, [&] { order.push_back(4); });
  });
  loop.defer(&b, [&] { order.push_back(2); });
  loop.defer(&c, [&] { order.push_back(3); });
  loop.poll_once(0);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
  loop.poll_once(0);
  EXPECT_EQ(order.size(), 3u);
  EXPECT_EQ(loop.stats().deferred_runs, 3u);
}

// A lone datagram is not held back for a batch that never fills: the
// loop flushes it before it sleeps, so the peer on the same loop wakes
// the first poll at once instead of after the 1 s it was allowed.
TEST(IoLoop, LoneSendLeavesWithinOnePoll) {
  EventLoopConfig lc;
  lc.max_poll = 10 * kSecond;  // let the caller's 1 s cap rule
  EventLoop loop(lc);
  EndpointPair p(loop);
  p.tx->send(PacketBytes(64, 0x5a));
  EXPECT_EQ(p.tx->stats().datagrams_sent, 0u) << "a short queue waits";
  const SimTime t0 = loop.now();
  loop.poll_once(kSecond);
  EXPECT_LT(loop.now() - t0, kSecond / 2);
  EXPECT_EQ(p.tx->stats().datagrams_sent, 1u);
  EXPECT_EQ(p.tx->stats().sendmmsg_calls, 1u);
  EXPECT_EQ(p.received, 1);
}

// 40 queued datagrams leave in ceil(40/16) = 3 sendmmsg calls: two full
// batches at once while they are queued, the 8 left at the next poll.
TEST(IoLoop, BurstLeavesInTxBatchSizedCalls) {
  CountingSyscalls sys;
  EventLoopConfig lc;
  lc.sys = &sys;
  EventLoop loop(lc);
  EndpointPair p(loop);
  for (int i = 0; i < 40; ++i) p.tx->send(PacketBytes(64, 0x5a));
  EXPECT_EQ(sys.calls, 2u);
  EXPECT_EQ(p.tx->tx_queued(), 8u);
  ASSERT_TRUE(loop.run_until([&] { return p.received == 40; },
                             loop.now() + 2 * kSecond));
  EXPECT_EQ(sys.calls, 3u);
  EXPECT_EQ(sys.datagrams, 40u);
  EXPECT_EQ(p.tx->stats().sendmmsg_calls, 3u);
}

// An endpoint destroyed with its flush still deferred takes the entry
// with it; the loop polls on safely (AddressSanitizer checks the rest).
TEST(IoLoop, EndpointDestroyedWithAFlushDeferredLeavesTheLoopSafe) {
  EventLoop loop;
  EndpointPair p(loop);
  p.tx->send(PacketBytes(64, 0x5a));
  p.tx.reset();
  loop.poll_once(0);
  loop.poll_once(0);
  EXPECT_EQ(loop.stats().deferred_runs, 0u);
  EXPECT_EQ(p.received, 0);
}

TEST(IoLoop, StopBreaksTheLoop) {
  EventLoop loop;
  loop.timers().arm_in(2 * kMillisecond, [&] { loop.stop(); });
  EXPECT_FALSE(loop.run_until([] { return false; }, 10 * kSecond));
  EXPECT_TRUE(loop.stopped());
}

}  // namespace
}  // namespace chunknet
