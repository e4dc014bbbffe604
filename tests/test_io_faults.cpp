// The syscall fault matrix: every errno the shim can inject has a
// test here asserting the runtime (a) survives it, (b) loses nothing
// silently — the fault surfaces in a named counter, and delivery
// accounting still closes exactly.
#include <gtest/gtest.h>

#include <errno.h>

#include <memory>
#include <vector>

#include "src/io/event_loop.hpp"
#include "src/io/syscall.hpp"
#include "src/io/udp_endpoint.hpp"

namespace chunknet {
namespace {

PacketBytes make_datagram(std::size_t n, std::uint8_t seed) {
  PacketBytes b;
  b.resize_uninitialized(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.data()[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return b;
}

/// Two endpoints on one loop: `tx` connected to `rx` over loopback,
/// with the fault injector between the runtime and the kernel.
struct Pair {
  FaultInjectingSyscalls faulty{real_syscalls()};
  std::unique_ptr<EventLoop> loop;
  std::unique_ptr<UdpEndpoint> rx;
  std::unique_ptr<UdpEndpoint> tx;
  std::vector<PacketBytes> received;

  explicit Pair(UdpEndpointConfig tx_extra = {}) {
    EventLoopConfig lc;
    lc.sys = &faulty;
    loop = std::make_unique<EventLoop>(lc);

    UdpEndpointConfig rc;
    rc.bind = UdpAddress{0x7f000001, 0};  // ephemeral
    rx = std::make_unique<UdpEndpoint>(*loop, rc);
    EXPECT_TRUE(rx->ok());
    rx->on_datagram([this](PooledBuffer&& buf, const UdpAddress&) {
      received.push_back(buf.take());
    });

    UdpEndpointConfig tc = tx_extra;
    tc.bind = UdpAddress{0x7f000001, 0};
    tc.peer = rx->local_addr();
    tx = std::make_unique<UdpEndpoint>(*loop, tc);
    EXPECT_TRUE(tx->ok());
  }

  bool pump_until_received(std::size_t n, SimTime budget = 2 * kSecond) {
    return loop->run_until([&] { return received.size() >= n; },
                           loop->now() + budget);
  }

  /// The conservation oracle: everything enqueued is either on the
  /// wire (received) or in a named drop counter. No third bucket.
  void expect_accounting_closes(std::uint64_t enqueued) {
    const auto& s = tx->stats();
    EXPECT_EQ(enqueued, s.datagrams_sent + s.tx_oversize_dropped +
                            s.tx_queue_dropped)
        << "sent=" << s.datagrams_sent
        << " oversize=" << s.tx_oversize_dropped
        << " queue_dropped=" << s.tx_queue_dropped;
  }
};

TEST(IoFaults, CleanTransferBaseline) {
  Pair p;
  for (int i = 0; i < 10; ++i) p.tx->send(make_datagram(100, i));
  ASSERT_TRUE(p.pump_until_received(10));
  EXPECT_EQ(p.tx->stats().datagrams_sent, 10u);
  EXPECT_EQ(p.rx->stats().datagrams_received, 10u);
  p.expect_accounting_closes(10);
  // Batching actually batched: 10 datagrams needed < 10 syscalls.
  EXPECT_LE(p.tx->stats().sendmmsg_calls, 10u);
}

TEST(IoFaults, SendEintrIsRetriedInPlace) {
  Pair p;
  p.faulty.fail_next(IoCall::kSendmmsg, EINTR, 2);
  p.tx->send(make_datagram(64, 1));
  ASSERT_TRUE(p.pump_until_received(1));
  EXPECT_EQ(p.tx->stats().eintr_retries, 2u);
  EXPECT_EQ(p.faulty.stats().injected[static_cast<int>(IoCall::kSendmmsg)],
            2u);
  p.expect_accounting_closes(1);
}

TEST(IoFaults, RecvEintrIsRetriedInPlace) {
  Pair p;
  p.faulty.fail_next(IoCall::kRecvmmsg, EINTR, 2);
  p.tx->send(make_datagram(64, 2));
  ASSERT_TRUE(p.pump_until_received(1));
  EXPECT_EQ(p.rx->stats().eintr_retries, 2u);
  p.expect_accounting_closes(1);
}

TEST(IoFaults, EagainKeepsQueueAndDeliversViaEpollout) {
  Pair p;
  p.faulty.fail_next(IoCall::kSendmmsg, EAGAIN, 1);
  for (int i = 0; i < 4; ++i) p.tx->send(make_datagram(64, i));
  ASSERT_TRUE(p.pump_until_received(4));
  EXPECT_GE(p.tx->stats().tx_eagain, 1u);
  EXPECT_EQ(p.rx->stats().datagrams_received, 4u);
  p.expect_accounting_closes(4);
}

TEST(IoFaults, EnobufsIsBackpressureNotLoss) {
  Pair p;
  // Enough injections to cover every immediate-flush attempt during
  // the sends plus several backoff-timer retries after them.
  p.faulty.fail_next(IoCall::kSendmmsg, ENOBUFS, 12);
  int pressure_on = 0, pressure_off = 0;
  p.tx->on_backpressure([&](bool on) { (on ? pressure_on : pressure_off)++; });
  for (int i = 0; i < 8; ++i) p.tx->send(make_datagram(64, i));
  // A short queue waits for the loop's deferred flush; try it now.
  p.tx->flush();
  // While the kernel refuses buffers the datagrams stay queued...
  EXPECT_GT(p.tx->tx_queued(), 0u);
  EXPECT_TRUE(p.tx->backpressured());
  // ...and the backoff timer eventually pushes every one through.
  ASSERT_TRUE(p.pump_until_received(8));
  EXPECT_GE(p.tx->stats().tx_enobufs, 1u);
  EXPECT_GE(p.tx->stats().backpressure_episodes, 1u);
  EXPECT_GE(pressure_on, 1);
  EXPECT_GE(pressure_off, 1);
  EXPECT_FALSE(p.tx->backpressured());
  EXPECT_EQ(p.tx->stats().tx_queue_dropped, 0u) << "ENOBUFS must not drop";
  p.expect_accounting_closes(8);
}

TEST(IoFaults, EnobufsQueueIsGovernorVisible) {
  GovernorConfig gc;
  gc.hard_watermark_bytes = 1 << 20;
  ResourceGovernor governor(gc);
  const std::uint64_t headroom_before = governor.headroom();

  UdpEndpointConfig extra;
  extra.governor = &governor;
  extra.governor_client = 42;
  Pair p(extra);
  governor.bind_client(42);
  p.faulty.fail_next(IoCall::kSendmmsg, ENOBUFS, 10);
  for (int i = 0; i < 6; ++i) p.tx->send(make_datagram(200, i));
  // The stuck queue's bytes are charged (class kStaging): anyone
  // granting credit out of governor headroom sees the socket stall.
  EXPECT_EQ(governor.stats().charged_now, p.tx->tx_queued_bytes());
  EXPECT_GT(governor.stats().charged_now, 0u);
  EXPECT_LT(governor.headroom(), headroom_before);
  ASSERT_TRUE(p.pump_until_received(6));
  // Flushed: the charge is fully released.
  EXPECT_EQ(governor.stats().charged_now, 0u);
  p.expect_accounting_closes(6);
}

TEST(IoFaults, OversizeIsDroppedVisiblyAtEnqueue) {
  Pair p;
  p.tx->send(make_datagram(3000, 1));  // > max_datagram (1500)
  p.tx->send(make_datagram(64, 2));
  ASSERT_TRUE(p.pump_until_received(1));
  EXPECT_EQ(p.tx->stats().tx_oversize_dropped, 1u);
  EXPECT_EQ(p.received.size(), 1u);
  EXPECT_EQ(p.received[0].size(), 64u);
  p.expect_accounting_closes(2);
}

TEST(IoFaults, KernelEmsgsizeDropsHeadAndContinues) {
  Pair p;
  p.faulty.fail_next(IoCall::kSendmmsg, EMSGSIZE, 1);
  for (int i = 0; i < 3; ++i) p.tx->send(make_datagram(64, i));
  // Head datagram is the casualty; the remaining two must arrive.
  ASSERT_TRUE(p.pump_until_received(2));
  EXPECT_EQ(p.tx->stats().tx_oversize_dropped, 1u);
  EXPECT_EQ(p.rx->stats().datagrams_received, 2u);
  p.expect_accounting_closes(3);
}

TEST(IoFaults, PartialBatchResumesFromTail) {
  Pair p;
  // Wedge each immediate flush with EAGAIN so a real multi-datagram
  // batch builds up, then let the kernel accept only part of it.
  p.faulty.fail_next(IoCall::kSendmmsg, EAGAIN, 10);
  InjectedFault f;
  f.call = IoCall::kSendmmsg;
  f.partial = 3;
  p.faulty.inject(f);
  for (int i = 0; i < 10; ++i) p.tx->send(make_datagram(64, i));
  EXPECT_EQ(p.tx->tx_queued(), 10u);
  ASSERT_TRUE(p.pump_until_received(10));
  EXPECT_GE(p.tx->stats().tx_partial_batches, 1u);
  EXPECT_EQ(p.rx->stats().datagrams_received, 10u);
  // Order preserved across the partial boundary.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(p.received[static_cast<std::size_t>(i)].data()[0],
              static_cast<std::uint8_t>(i));
  }
  p.expect_accounting_closes(10);
}

TEST(IoFaults, ShortReadIsCountedNotTrusted) {
  Pair p;
  InjectedFault f;
  f.call = IoCall::kRecvmmsg;
  f.truncate_by = 20;
  p.faulty.inject(f);
  p.tx->send(make_datagram(100, 9));
  ASSERT_TRUE(p.pump_until_received(1));
  // The endpoint delivered the SHORT length — never the stale tail.
  EXPECT_EQ(p.received[0].size(), 80u);
  // Downstream, the strict decoder rejects such a stump (covered by
  // the loopback transport tests); here the contract is just that the
  // reported length is what the consumer sees.
}

TEST(IoFaults, ConnRefusedBacksOffAndRecovers) {
  FaultInjectingSyscalls faulty(real_syscalls());
  EventLoopConfig lc;
  lc.sys = &faulty;
  EventLoop loop(lc);

  // Learn a port that exists, then make it not exist: bind a probe
  // endpoint, record its port, destroy it. Loopback ICMP unreachable
  // is synchronous and reliable.
  std::uint16_t port;
  {
    UdpEndpointConfig probe;
    probe.bind = UdpAddress{0x7f000001, 0};
    UdpEndpoint tmp(loop, probe);
    ASSERT_TRUE(tmp.ok());
    port = tmp.local_addr().port;
  }

  UdpEndpointConfig tc;
  tc.bind = UdpAddress{0x7f000001, 0};
  tc.peer = UdpAddress{0x7f000001, port};
  tc.reconnect_backoff_min = 2 * kMillisecond;
  tc.reconnect_backoff_max = 20 * kMillisecond;
  UdpEndpoint tx(loop, tc);
  ASSERT_TRUE(tx.ok());
  int unreachable_cbs = 0;
  tx.on_peer_unreachable([&] { ++unreachable_cbs; });

  // Send into the void until the refusal is observed.
  tx.send(make_datagram(64, 1));
  loop.run_until([&] { return tx.stats().peer_unreachable > 0; },
                 loop.now() + 2 * kSecond);
  EXPECT_GE(tx.stats().peer_unreachable, 1u);
  EXPECT_GE(tx.stats().reconnects, 1u);
  EXPECT_GE(unreachable_cbs, 1);

  // Peer restarts on the SAME port: delivery resumes. The endpoint
  // never discarded anything (the first datagram left the socket
  // before the ICMP error arrived — UDP semantics; the transport
  // layer's RTO is what recovers it).
  UdpEndpointConfig rc;
  rc.bind = UdpAddress{0x7f000001, port};
  UdpEndpoint rx(loop, rc);
  ASSERT_TRUE(rx.ok()) << "port was reused; rerun";
  std::size_t got = 0;
  rx.on_datagram([&](PooledBuffer&&, const UdpAddress&) { ++got; });
  tx.send(make_datagram(64, 2));
  ASSERT_TRUE(
      loop.run_until([&] { return got >= 1; }, loop.now() + 5 * kSecond));
  EXPECT_EQ(tx.stats().tx_queue_dropped, 0u);
}

// An endpoint destroyed while its reconnect backoff is armed takes the
// backoff timer with it: polling the loop past the backoff is safe
// (AddressSanitizer checks the rest).
TEST(IoFaults, DestroyedDuringReconnectBackoffLeavesTheLoopSafe) {
  EventLoop loop;
  std::uint16_t port;
  {
    UdpEndpointConfig probe;
    probe.bind = UdpAddress{0x7f000001, 0};
    UdpEndpoint tmp(loop, probe);
    ASSERT_TRUE(tmp.ok());
    port = tmp.local_addr().port;
  }
  UdpEndpointConfig tc;
  tc.bind = UdpAddress{0x7f000001, 0};
  tc.peer = UdpAddress{0x7f000001, port};
  tc.reconnect_backoff_min = 5 * kMillisecond;
  auto tx = std::make_unique<UdpEndpoint>(loop, tc);
  ASSERT_TRUE(tx->ok());
  tx->send(make_datagram(64, 1));
  ASSERT_TRUE(loop.run_until([&] { return tx->stats().peer_unreachable > 0; },
                             loop.now() + 2 * kSecond));
  tx.reset();
  const std::uint64_t fired = loop.stats().timer_fires;
  const SimTime end = loop.now() + 30 * kMillisecond;
  while (loop.now() < end) loop.poll_once(5 * kMillisecond);
  EXPECT_EQ(loop.stats().timer_fires, fired);
}

TEST(IoFaults, QueueOverflowDropsNewestVisibly) {
  Pair p;
  // Wedge the socket so the queue can only grow.
  p.faulty.fail_next(IoCall::kSendmmsg, EAGAIN, 1000000);
  UdpEndpointConfig tc;
  tc.bind = UdpAddress{0x7f000001, 0};
  tc.peer = p.rx->local_addr();
  tc.max_tx_queue = 4;
  UdpEndpoint tx(*p.loop, tc);
  ASSERT_TRUE(tx.ok());
  for (int i = 0; i < 10; ++i) tx.send(make_datagram(64, i));
  EXPECT_EQ(tx.tx_queued(), 4u);
  EXPECT_EQ(tx.stats().tx_queue_dropped, 6u);
  const auto& s = tx.stats();
  EXPECT_EQ(10u, s.datagrams_sent + s.tx_oversize_dropped +
                     s.tx_queue_dropped + tx.tx_queued());
}

TEST(IoFaults, ShutdownAccountsAbandonedDatagrams) {
  Pair p;
  // Nothing can leave: every send attempt gets EAGAIN.
  p.faulty.fail_next(IoCall::kSendmmsg, EAGAIN, 1000000);
  for (int i = 0; i < 5; ++i) p.tx->send(make_datagram(64, i));
  const std::uint64_t abandoned =
      p.tx->shutdown(p.loop->now() + 20 * kMillisecond);
  EXPECT_EQ(abandoned, 5u);
  EXPECT_EQ(p.tx->stats().tx_queue_dropped, 5u);
  p.expect_accounting_closes(5);
  // Truthful: nothing claims to have been sent.
  EXPECT_EQ(p.tx->stats().datagrams_sent, 0u);
}

TEST(IoFaults, ShutdownFlushesWhatItCan) {
  Pair p;
  for (int i = 0; i < 5; ++i) p.tx->send(make_datagram(64, i));
  const std::uint64_t abandoned =
      p.tx->shutdown(p.loop->now() + 200 * kMillisecond);
  EXPECT_EQ(abandoned, 0u);
  ASSERT_TRUE(p.pump_until_received(5));
  p.expect_accounting_closes(5);
}

TEST(IoFaults, SocketCreationFailureIsSurfaced) {
  FaultInjectingSyscalls faulty(real_syscalls());
  EventLoopConfig lc;
  lc.sys = &faulty;
  EventLoop loop(lc);
  faulty.fail_next(IoCall::kSocket, EMFILE, 1);
  UdpEndpointConfig c;
  c.bind = UdpAddress{0x7f000001, 0};
  UdpEndpoint ep(loop, c);
  EXPECT_FALSE(ep.ok());
  EXPECT_EQ(ep.last_error(), EMFILE);
}

TEST(IoFaults, BindFailureIsSurfaced) {
  FaultInjectingSyscalls faulty(real_syscalls());
  EventLoopConfig lc;
  lc.sys = &faulty;
  EventLoop loop(lc);
  faulty.fail_next(IoCall::kBind, EADDRINUSE, 1);
  UdpEndpointConfig c;
  c.bind = UdpAddress{0x7f000001, 0};
  UdpEndpoint ep(loop, c);
  EXPECT_FALSE(ep.ok());
  EXPECT_EQ(ep.last_error(), EADDRINUSE);
}

}  // namespace
}  // namespace chunknet
