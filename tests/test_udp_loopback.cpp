// End-to-end chunk transport over real loopback UDP sockets: bit-exact
// delivery, survival of injected syscall faults, mid-transfer receiver
// restart, truthful drain accounting, and the ingress guard's hostile-
// input screens. Everything runs on one EventLoop in one process —
// two sockets, real datagrams, real epoll.
#include <gtest/gtest.h>

#include <errno.h>

#include <memory>
#include <vector>

#include "src/chunk/builder.hpp"
#include "src/chunk/codec.hpp"
#include "src/io/udp_transport.hpp"

namespace chunknet {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 1103515245u + 12345u) >> 9);
  }
  return v;
}

constexpr std::uint32_t kConn = 7;
constexpr std::uint16_t kElem = 4;
constexpr std::uint32_t kTpduElems = 256;  // 1 KiB per TPDU

SenderConfig fast_sender_config() {
  SenderConfig sc;
  sc.framer.connection_id = kConn;
  sc.framer.element_size = kElem;
  sc.framer.tpdu_elements = kTpduElems;
  sc.framer.xpdu_elements = 64;
  sc.framer.max_chunk_elements = 64;
  sc.mtu = 1400;
  sc.retransmit_timeout = 30 * kMillisecond;
  sc.max_retransmits = 30;
  return sc;
}

ReceiverConfig fast_receiver_config(std::size_t stream_bytes) {
  ReceiverConfig rc;
  rc.connection_id = kConn;
  rc.element_size = kElem;
  rc.app_buffer_bytes = stream_bytes;
  rc.record_latency_samples = false;
  return rc;
}

TEST(UdpLoopback, BitExactTransfer) {
  EventLoop loop;
  const auto stream = pattern(64 * 1024);

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(stream.size());
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  UdpSenderSessionConfig scfg;
  scfg.peer = rx.endpoint().local_addr();
  scfg.sender = fast_sender_config();
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  tx.send_stream(stream);
  ASSERT_TRUE(rx.run_until_complete(stream.size() / kElem,
                                    loop.now() + 10 * kSecond));
  ASSERT_TRUE(tx.run_until_finished(loop.now() + 10 * kSecond));

  EXPECT_TRUE(tx.sender().all_acked());
  const auto got = rx.receiver().app_data();
  ASSERT_EQ(got.size(), stream.size());
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(), got.begin()))
      << "delivered bytes differ from the source stream";
  EXPECT_EQ(rx.guard().stats().malformed, 0u);
}

TEST(UdpLoopback, BitExactUnderInjectedFaults) {
  FaultInjectingSyscalls faulty(real_syscalls());
  EventLoopConfig lc;
  lc.sys = &faulty;
  EventLoop loop(lc);
  const auto stream = pattern(32 * 1024);

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(stream.size());
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  UdpSenderSessionConfig scfg;
  scfg.peer = rx.endpoint().local_addr();
  scfg.sender = fast_sender_config();
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  // A hostile afternoon: interrupted syscalls, kernel buffer
  // exhaustion, partial batches, and a short read that truncates a
  // data packet mid-envelope.
  faulty.fail_next(IoCall::kSendmmsg, EINTR, 2);
  faulty.fail_next(IoCall::kRecvmmsg, EINTR, 2);
  faulty.fail_next(IoCall::kEpollWait, EINTR, 3);
  {
    InjectedFault f;
    f.call = IoCall::kSendmmsg;
    f.after = 4;
    f.err = ENOBUFS;
    faulty.inject(f);
    f.after = 1;
    faulty.inject(f);
  }
  {
    InjectedFault f;
    f.call = IoCall::kSendmmsg;
    f.after = 2;
    f.partial = 1;
    f.err = 0;
    faulty.inject(f);
  }
  {
    InjectedFault f;
    f.call = IoCall::kRecvmmsg;
    f.after = 2;
    f.truncate_by = 30;
    f.err = 0;
    faulty.inject(f);
  }

  tx.send_stream(stream);
  ASSERT_TRUE(rx.run_until_complete(stream.size() / kElem,
                                    loop.now() + 20 * kSecond));
  ASSERT_TRUE(tx.run_until_finished(loop.now() + 20 * kSecond));

  EXPECT_TRUE(tx.sender().all_acked());
  const auto got = rx.receiver().app_data();
  ASSERT_EQ(got.size(), stream.size());
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(), got.begin()));
  // Every scripted fault was consumed by the runtime.
  EXPECT_EQ(faulty.pending(), 0u);
  // The truncated datagram was refused by a strict decoder somewhere
  // (the guard for data, the sender's own decode for control) — it was
  // NOT silently accepted; the transport recovered by retransmission.
  EXPECT_GE(faulty.stats().injected[static_cast<int>(IoCall::kRecvmmsg)],
            1u);
}

// Mid-transfer receiver restart: the receiver process "crashes" (its
// socket closes, all transport state is lost) and comes back on the
// same port with fresh state. The application-level durable buffer —
// written once per ACCEPTED TPDU, keyed by the TPDU's stream offset —
// plus the sender's RTO retransmission of unacked TPDUs reassembles a
// bit-exact stream across the blackout.
TEST(UdpLoopback, ReceiverRestartMidTransferIsBitExact) {
  EventLoop loop;
  const auto stream = pattern(64 * 1024);
  const std::size_t tpdu_bytes = std::size_t{kTpduElems} * kElem;
  const std::size_t total_tpdus = stream.size() / tpdu_bytes;

  std::vector<std::uint8_t> durable(stream.size(), 0);
  std::vector<bool> have(total_tpdus, false);

  std::unique_ptr<UdpReceiverSession> rx;
  // Commits an accepted TPDU's bytes from the receiver's app memory
  // into durable storage (what a real receiver process would fsync).
  auto commit = [&](const TpduOutcome& out) {
    if (out.verdict != TpduVerdict::kAccepted) return;
    const std::size_t idx = out.tpdu_id - 1;  // sequential from 1
    ASSERT_LT(idx, total_tpdus);
    const std::size_t off = idx * tpdu_bytes;
    const auto app = rx->receiver().app_data();
    std::copy(app.begin() + off, app.begin() + off + tpdu_bytes,
              durable.begin() + off);
    have[idx] = true;
  };

  auto make_rx = [&](std::uint16_t port) {
    UdpReceiverSessionConfig rcfg;
    rcfg.bind = UdpAddress{0x7f000001, port};
    rcfg.receiver = fast_receiver_config(stream.size());
    rcfg.receiver.on_tpdu = commit;
    // One datagram per poll so run_until's half-way check actually
    // lands MID-transfer (a full-speed loopback drain would otherwise
    // finish the whole stream inside a single poll iteration).
    rcfg.endpoint.rx_batch = 1;
    rcfg.endpoint.max_rx_per_poll = 1;
    return std::make_unique<UdpReceiverSession>(loop, rcfg);
  };

  rx = make_rx(0);
  ASSERT_TRUE(rx->ok());
  const std::uint16_t port = rx->endpoint().local_addr().port;

  UdpSenderSessionConfig scfg;
  scfg.peer = rx->endpoint().local_addr();
  scfg.sender = fast_sender_config();
  scfg.endpoint.reconnect_backoff_min = 2 * kMillisecond;
  scfg.endpoint.reconnect_backoff_max = 10 * kMillisecond;
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  tx.send_stream(stream);
  // Let roughly half the TPDUs land...
  ASSERT_TRUE(loop.run_until(
      [&] {
        return rx->receiver().stats().tpdus_accepted >= total_tpdus / 2;
      },
      loop.now() + 10 * kSecond));

  // ...then the receiver dies. Socket gone, transport state gone.
  const std::uint64_t accepted_before_crash =
      rx->receiver().stats().tpdus_accepted;
  rx.reset();

  // The sender notices: sends start drawing ECONNREFUSED.
  loop.run_until(
      [&] { return tx.endpoint().stats().peer_unreachable > 0; },
      loop.now() + 2 * kSecond);

  // Restart on the same port, fresh state.
  rx = make_rx(port);
  ASSERT_TRUE(rx->ok()) << "restart port was taken; rerun";

  // The sender's RTO drives retransmission of every unacked TPDU into
  // the new receiver; already-acked TPDUs are never resent (their
  // bytes live only in the durable buffer).
  ASSERT_TRUE(tx.run_until_finished(loop.now() + 30 * kSecond));
  EXPECT_TRUE(tx.sender().all_acked());
  EXPECT_GE(tx.endpoint().stats().peer_unreachable, 1u);

  for (std::size_t i = 0; i < total_tpdus; ++i) {
    EXPECT_TRUE(have[i]) << "TPDU " << (i + 1) << " never committed";
  }
  EXPECT_EQ(durable, stream) << "stream corrupted across the restart";
  // The restart actually happened mid-transfer.
  EXPECT_LT(accepted_before_crash, total_tpdus);
  EXPECT_GT(rx->receiver().stats().tpdus_accepted, 0u);
}

TEST(UdpLoopback, DrainReportsTruthfullyAgainstDeadPeer) {
  EventLoop loop;
  const auto stream = pattern(4 * 1024);

  // Find a dead port.
  std::uint16_t dead_port;
  {
    UdpEndpointConfig probe;
    probe.bind = UdpAddress{0x7f000001, 0};
    UdpEndpoint tmp(loop, probe);
    ASSERT_TRUE(tmp.ok());
    dead_port = tmp.local_addr().port;
  }

  UdpSenderSessionConfig scfg;
  scfg.peer = UdpAddress{0x7f000001, dead_port};
  scfg.sender = fast_sender_config();
  scfg.sender.retransmit_timeout = 10 * kMillisecond;
  scfg.sender.max_retransmits = 2;
  scfg.endpoint.reconnect_backoff_min = kMillisecond;
  scfg.endpoint.reconnect_backoff_max = 5 * kMillisecond;
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  tx.send_stream(stream);
  const DrainReport r = tx.drain(loop.now() + 5 * kSecond);
  // Nothing was acked, and the report says so — gave-up TPDUs are
  // named, clean is false, and nothing pretends to have been delivered.
  EXPECT_FALSE(r.clean);
  EXPECT_EQ(r.tpdus_acked, 0u);
  EXPECT_EQ(r.tpdus_gave_up + r.tpdus_abandoned,
            stream.size() / (std::size_t{kTpduElems} * kElem));
  EXPECT_EQ(tx.sender().gave_up_tpdus().size(),
            r.tpdus_gave_up + r.tpdus_abandoned);
}

TEST(UdpLoopback, DrainCleanOnHealthyTransfer) {
  EventLoop loop;
  const auto stream = pattern(16 * 1024);

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(stream.size());
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  UdpSenderSessionConfig scfg;
  scfg.peer = rx.endpoint().local_addr();
  scfg.sender = fast_sender_config();
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  tx.send_stream(stream);
  const DrainReport r = tx.drain(loop.now() + 10 * kSecond);
  EXPECT_TRUE(r.clean);
  EXPECT_EQ(r.tpdus_acked, stream.size() / (std::size_t{kTpduElems} * kElem));
  EXPECT_EQ(r.tpdus_gave_up, 0u);
  EXPECT_EQ(r.tpdus_abandoned, 0u);
  EXPECT_EQ(r.datagrams_unsent, 0u);
  EXPECT_EQ(rx.drain(loop.now() + kSecond), 0u);
}

TEST(UdpLoopback, AbandonedDeadlineDrainIsCountedNotHidden) {
  EventLoop loop;
  const auto stream = pattern(8 * 1024);

  // Dead peer and an immediate deadline: no time for RTO give-up, so
  // every TPDU is abandoned by the drain itself.
  UdpSenderSessionConfig scfg;
  scfg.peer = UdpAddress{0x7f000001, 1};  // nothing listens on port 1
  scfg.sender = fast_sender_config();
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  tx.send_stream(stream);
  const DrainReport r = tx.drain(loop.now());  // deadline already passed
  EXPECT_FALSE(r.clean);
  EXPECT_EQ(r.tpdus_abandoned,
            stream.size() / (std::size_t{kTpduElems} * kElem));
  EXPECT_TRUE(tx.sender().finished());
}

TEST(UdpLoopback, GuardDropsGarbageAndCountsIt) {
  EventLoop loop;
  const auto stream = pattern(8 * 1024);

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(stream.size());
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  // A hostile neighbour blasts garbage at the receiver port while a
  // legitimate transfer runs.
  UdpEndpointConfig hc;
  hc.bind = UdpAddress{0x7f000001, 0};
  hc.peer = rx.endpoint().local_addr();
  UdpEndpoint hostile(loop, hc);
  ASSERT_TRUE(hostile.ok());
  for (int i = 0; i < 20; ++i) {
    PacketBytes junk;
    junk.resize_uninitialized(100);
    for (std::size_t j = 0; j < junk.size(); ++j) {
      junk.data()[j] = static_cast<std::uint8_t>(i * 31 + j);
    }
    hostile.send(std::move(junk));
  }

  UdpSenderSessionConfig scfg;
  scfg.peer = rx.endpoint().local_addr();
  scfg.sender = fast_sender_config();
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());
  tx.send_stream(stream);

  ASSERT_TRUE(rx.run_until_complete(stream.size() / kElem,
                                    loop.now() + 10 * kSecond));
  const auto got = rx.receiver().app_data();
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(), got.begin()));
  EXPECT_GE(rx.guard().stats().malformed, 1u)
      << "garbage must be counted, not vanish";
}

TEST(UdpLoopback, GuardRateLimitsAFloodingSource) {
  EventLoop loop;

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(1024);
  rcfg.guard.rate_per_sec = 100.0;
  rcfg.guard.burst = 10.0;
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  UdpEndpointConfig hc;
  hc.bind = UdpAddress{0x7f000001, 0};
  hc.peer = rx.endpoint().local_addr();
  UdpEndpoint hostile(loop, hc);
  ASSERT_TRUE(hostile.ok());

  for (int i = 0; i < 100; ++i) {
    PacketBytes junk;
    junk.resize_uninitialized(64);
    for (std::size_t j = 0; j < junk.size(); ++j) {
      junk.data()[j] = static_cast<std::uint8_t>(j);
    }
    hostile.send(std::move(junk));
  }
  loop.run_until(
      [&] {
        const auto& s = rx.guard().stats();
        return s.rate_limited + s.malformed + s.empty >= 100;
      },
      loop.now() + 5 * kSecond);
  // The burst allowance parses a few; the rest die at the bucket
  // without being decoded.
  EXPECT_GE(rx.guard().stats().rate_limited, 50u);
  EXPECT_LE(rx.guard().stats().malformed, 20u);
}

TEST(UdpLoopback, GuardRefusalMemoryBlocksUnknownConnCheaply) {
  EventLoop loop;

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(1024);
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  UdpEndpointConfig hc;
  hc.bind = UdpAddress{0x7f000001, 0};
  hc.peer = rx.endpoint().local_addr();
  UdpEndpoint stranger(loop, hc);
  ASSERT_TRUE(stranger.ok());

  // Structurally VALID packets for a connection this receiver has
  // never heard of.
  auto foreign_packet = [] {
    Chunk c;
    c.h.type = ChunkType::kData;
    c.h.size = 4;
    c.h.len = 1;
    c.h.conn.id = 999;  // != kConn
    c.payload = {1, 2, 3, 4};
    return PacketBytes(
        encode_packet(std::span<const Chunk>(&c, 1), 1400));
  };

  for (int i = 0; i < 5; ++i) stranger.send(foreign_packet());
  loop.run_until(
      [&] {
        const auto& g = rx.guard().stats();
        return g.accepted + g.refused_conn >= 5;
      },
      loop.now() + 5 * kSecond);

  const auto& g = rx.guard().stats();
  // The first foreign packet is admitted (and teaches the refusal
  // memory); subsequent ones are refused at the door.
  EXPECT_GE(g.refused_conn, 1u);
  EXPECT_GE(g.refusals_remembered, 1u);
  EXPECT_TRUE(rx.guard().is_refused(999, loop.timers().now()));
  // The receiver itself never saw the refused packets.
  EXPECT_EQ(rx.receiver().stats().packets, 0u);
  EXPECT_EQ(rx.receiver().stats().foreign_chunks, 0u);
}

}  // namespace
}  // namespace chunknet
