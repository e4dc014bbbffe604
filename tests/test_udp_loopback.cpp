// End-to-end chunk transport over real loopback UDP sockets: bit-exact
// delivery, survival of injected syscall faults, mid-transfer receiver
// restart, truthful drain accounting, the ingress guard's hostile-
// input screens and its credit path, RTOs armed on current time,
// control chunks coalesced into shared envelopes, and feedback buffers
// recycled through the pool. Everything runs on one EventLoop in one
// process — two sockets, real datagrams, real epoll.
#include <gtest/gtest.h>

#include <errno.h>

#include <memory>
#include <vector>

#include "src/chunk/builder.hpp"
#include "src/chunk/codec.hpp"
#include "src/io/udp_transport.hpp"
#include "src/transport/signalling.hpp"

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
  //
  // The sendmmsg script is timed against the calls the transfer is
  // sure to make. send_stream queues 32 one-datagram TPDUs, so the
  // sender flushes two full 16-datagram batches before the loop runs:
  // the first is cut after 5 datagrams (a real partial batch), the
  // resumed tail of 11 is interrupted twice, and the second batch
  // meets ENOBUFS. The second ENOBUFS lets one call through and lands
  // on a later one (the first deferred flush, or the receiver's first
  // ACK envelope).
  {
    InjectedFault f;
    f.call = IoCall::kSendmmsg;
    f.partial = 5;
    faulty.inject(f);
  }
  faulty.fail_next(IoCall::kSendmmsg, EINTR, 2);
  faulty.fail_next(IoCall::kRecvmmsg, EINTR, 2);
  faulty.fail_next(IoCall::kEpollWait, EINTR, 3);
  {
    InjectedFault f;
    f.call = IoCall::kSendmmsg;
    f.err = ENOBUFS;
    faulty.inject(f);
    f.after = 1;
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
  EXPECT_GE(tx.endpoint().stats().tx_partial_batches, 1u);
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

// A flow-controlled peer is paced by the credit its receiver grants,
// not by the guard's per-source token bucket: a bucket far too slow for
// the stream's datagram count still lets the whole transfer through,
// with no datagram refused and nothing resent.
TEST(UdpLoopback, CreditPacesAPeerPastASlowGuard) {
  EventLoop loop;
  const auto stream = pattern(256 * 1024);
  const std::size_t tpdu_bytes = std::size_t{kTpduElems} * kElem;

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(stream.size());
  rcfg.receiver.grant_credit = true;
  rcfg.receiver.credit_window_bytes = 64 * 1024;
  // 100 datagrams/s: uncredited, the stream's 256+ datagrams would be
  // refused by the hundred and recovered only by RTO.
  rcfg.guard.rate_per_sec = 100.0;
  // The burst pays for what credit does not:
  //  - the bootstrap: datagrams sent on the sender's initial credit
  //    before the first grant arrives. initial_tpdu_slots caps it at 2
  //    TPDUs, each one datagram here (1 KiB of payload under a 1400 B
  //    MTU), so 2 datagrams.
  //  - envelope overhead: grants count payload bytes, datagrams are
  //    charged wire bytes. Chunk headers and the envelope add under a
  //    fifth to each 1 KiB of payload, so under 52 KiB over the whole
  //    stream. Every grant credits the payload received so far plus a
  //    64 KiB window, so the allowance runs a window ahead of the
  //    payload; the overhead never uses up that lead, and none of it
  //    reaches the bucket.
  // 8 covers both with room to spare, and is still far below 256.
  rcfg.guard.burst = 8.0;
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  UdpSenderSessionConfig scfg;
  scfg.peer = rx.endpoint().local_addr();
  scfg.sender = fast_sender_config();
  scfg.sender.flow.enabled = true;
  // Loaded hosts must not turn a slow ACK into a resend.
  scfg.sender.retransmit_timeout = 250 * kMillisecond;
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  tx.send_stream(stream);
  ASSERT_TRUE(rx.run_until_complete(stream.size() / kElem,
                                    loop.now() + 20 * kSecond));
  const DrainReport r = tx.drain(loop.now() + 10 * kSecond);
  EXPECT_TRUE(r.clean);
  EXPECT_EQ(r.tpdus_acked, stream.size() / tpdu_bytes);

  const auto got = rx.receiver().app_data();
  ASSERT_EQ(got.size(), stream.size());
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(), got.begin()));

  const auto& g = rx.guard().stats();
  EXPECT_EQ(g.rate_limited, 0u);
  EXPECT_EQ(tx.sender().stats().retransmissions, 0u);
  // Almost every datagram was paid for with credit, not a token.
  EXPECT_GE(g.credited, tx.sender().stats().packets_sent - 8);
}

// The real shim with a CLOCK_MONOTONIC the test can step forward: time
// passes with no poll in between, as it does while a sender frames and
// encodes a large stream before its first transmission.
class SteppedClockSyscalls final : public SyscallShim {
 public:
  void step(SimTime by) { offset_ += by; }
  std::uint64_t sys_monotonic_ns() override {
    return SyscallShim::sys_monotonic_ns() + offset_;
  }

 private:
  std::uint64_t offset_{0};
};

// An RTO is armed from when its TPDU actually went out. Armed from the
// time of the loop's last timer pump instead, the first burst's
// deadlines are already due at the next poll and every TPDU is resent
// while its ACK is in flight.
TEST(UdpLoopback, RtoArmedOnCurrentTimeAfterASlowStart) {
  SteppedClockSyscalls sys;
  EventLoopConfig lc;
  lc.sys = &sys;
  EventLoop loop(lc);
  const auto stream = pattern(64 * 1024);

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(stream.size());
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  UdpSenderSessionConfig scfg;
  scfg.peer = rx.endpoint().local_addr();
  scfg.sender = fast_sender_config();
  scfg.sender.retransmit_timeout = 250 * kMillisecond;
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  sys.step(4 * scfg.sender.retransmit_timeout);
  tx.send_stream(stream);
  ASSERT_TRUE(rx.run_until_complete(stream.size() / kElem,
                                    loop.now() + 10 * kSecond));
  ASSERT_TRUE(tx.run_until_finished(loop.now() + 10 * kSecond));

  EXPECT_TRUE(tx.sender().all_acked());
  EXPECT_EQ(tx.sender().stats().retransmissions, 0u);
  EXPECT_EQ(rx.receiver().stats().duplicate_chunks, 0u);
}

/// The real shim, sorting every datagram sendmmsg sends by what its
/// envelope carries: data (any DATA chunk) or control only.
class EnvelopeCountingSyscalls final : public SyscallShim {
 public:
  int sys_sendmmsg(int fd, mmsghdr* msgs, unsigned n, int flags) override {
    const int sent = SyscallShim::sys_sendmmsg(fd, msgs, n, flags);
    for (int i = 0; i < sent; ++i) {
      const iovec& v = msgs[i].msg_hdr.msg_iov[0];
      const std::span<const std::uint8_t> bytes(
          static_cast<const std::uint8_t*>(v.iov_base), v.iov_len);
      if (!decode_packet_views(bytes, views_)) {
        ++undecodable;
        continue;
      }
      bool data = false;
      for (const ChunkView& c : views_) {
        data = data || c.h.type == ChunkType::kData;
        if (c.h.type == ChunkType::kAck) ++ack_chunks;
        if (signal_kind(c) == SignalKind::kCreditGrant) ++grant_chunks;
      }
      ++(data ? data_dgrams : ctrl_dgrams);
    }
    return sent;
  }

  std::uint64_t data_dgrams{0};
  std::uint64_t ctrl_dgrams{0};
  std::uint64_t ack_chunks{0};
  std::uint64_t grant_chunks{0};
  std::uint64_t undecodable{0};

 private:
  std::vector<ChunkView> views_;
};

// Control is coalesced, not suppressed: over a 1 MiB credit-flow
// transfer the receiver's ACKs and grants share envelopes (at most one
// control datagram per 8 data datagrams), yet every ACK and every grant
// the receiver produced is on the wire.
TEST(UdpLoopback, ControlChunksShareEnvelopes) {
  EnvelopeCountingSyscalls sys;
  EventLoopConfig lc;
  lc.sys = &sys;
  EventLoop loop(lc);
  const auto stream = pattern(1 << 20);
  const std::size_t tpdus = stream.size() / (std::size_t{kTpduElems} * kElem);

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(stream.size());
  // The E15a window: wide enough that a poll sees a burst of TPDUs.
  rcfg.receiver.grant_credit = true;
  rcfg.receiver.credit_window_bytes = 512 * 1024;
  rcfg.receiver.credit_tpdu_slots = 128;
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  UdpSenderSessionConfig scfg;
  scfg.peer = rx.endpoint().local_addr();
  scfg.sender = fast_sender_config();
  scfg.sender.flow.enabled = true;
  scfg.sender.flow.initial_credit_bytes = 256 * 1024;
  scfg.sender.flow.initial_tpdu_slots = 64;
  scfg.sender.retransmit_timeout = 250 * kMillisecond;
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  tx.send_stream(stream);
  ASSERT_TRUE(rx.run_until_complete(stream.size() / kElem,
                                    loop.now() + 20 * kSecond));
  const DrainReport r = tx.drain(loop.now() + 10 * kSecond);
  EXPECT_TRUE(r.clean);
  EXPECT_EQ(rx.drain(loop.now() + kSecond), 0u);

  const auto& rs = rx.receiver().stats();
  EXPECT_EQ(rs.tpdus_accepted, tpdus);
  EXPECT_EQ(sys.undecodable, 0u);
  EXPECT_EQ(sys.ack_chunks, rs.tpdus_accepted + rs.tpdus_rejected +
                                rs.acks_resent);
  EXPECT_GT(rs.credit_grants_sent, 0u);
  EXPECT_EQ(sys.grant_chunks, rs.credit_grants_sent);
  EXPECT_GE(sys.data_dgrams, tpdus);
  EXPECT_LE(sys.ctrl_dgrams * 8, sys.data_dgrams)
      << sys.ctrl_dgrams << " control datagrams for " << sys.data_dgrams
      << " data datagrams";
}

// Feedback is decoded in place from the pooled receive buffer, so the
// buffer stays in the endpoint's receive slot and carries the next
// datagram: over a 1 MiB transfer the feedback far outnumbers the
// buffers the pool ever allocated. (Handing each buffer up the stack
// cost one allocation per feedback datagram.)
TEST(UdpLoopback, FeedbackBuffersAreRecycled) {
  EventLoop loop;
  const auto stream = pattern(1 << 20);

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(stream.size());
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  PacketBufferPool pool;  // outlives the sender's endpoint
  UdpSenderSessionConfig scfg;
  scfg.peer = rx.endpoint().local_addr();
  scfg.sender = fast_sender_config();
  scfg.sender.retransmit_timeout = 250 * kMillisecond;
  scfg.endpoint.pool = &pool;
  // A small receive batch, so the feedback outnumbers the buffers the
  // endpoint keeps armed many times over.
  scfg.endpoint.rx_batch = 4;
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  tx.send_stream(stream);
  ASSERT_TRUE(rx.run_until_complete(stream.size() / kElem,
                                    loop.now() + 20 * kSecond));
  EXPECT_EQ(rx.drain(loop.now() + kSecond), 0u);
  ASSERT_TRUE(tx.run_until_finished(loop.now() + 10 * kSecond));
  EXPECT_TRUE(tx.sender().all_acked());

  const PacketBufferPool::Stats st = pool.stats();
  const std::uint64_t feedback = tx.endpoint().stats().datagrams_received;
  EXPECT_LE(st.allocations, scfg.endpoint.rx_batch + 4u)
      << st.allocations << " allocations for " << feedback
      << " feedback datagrams";
  EXPECT_GT(feedback, 2 * st.allocations);
}

// Draining the receiver right after the stream completes still gets
// the final ACKs out, so the sender ends with every TPDU acked.
TEST(UdpLoopback, ReceiverDrainDeliversTheFinalAcks) {
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
  scfg.sender.retransmit_timeout = 250 * kMillisecond;
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  tx.send_stream(stream);
  ASSERT_TRUE(rx.run_until_complete(stream.size() / kElem,
                                    loop.now() + 10 * kSecond));
  EXPECT_EQ(rx.drain(loop.now() + kSecond), 0u);
  ASSERT_TRUE(tx.run_until_finished(loop.now() + 10 * kSecond));
  EXPECT_TRUE(tx.sender().all_acked());
}

// A receiver session destroyed with its control flush still deferred
// takes the entry with it: the queued ACK is never sent, and the loop
// polls on safely (AddressSanitizer checks the rest).
TEST(UdpLoopback, SessionDestroyedWithControlDeferredLeavesTheLoopSafe) {
  EventLoop loop;
  const auto stream = pattern(4 * 1024);

  std::unique_ptr<UdpReceiverSession> rx;
  int teardown = 0;  // owner of the deferred teardown
  bool scheduled = false;
  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(stream.size());
  // on_tpdu runs before the TPDU's ACK is queued, so the teardown is
  // deferred ahead of the session's first control flush and runs first.
  rcfg.receiver.on_tpdu = [&](const TpduOutcome&) {
    if (scheduled) return;
    scheduled = true;
    loop.defer(&teardown, [&] { rx.reset(); });
  };
  rx = std::make_unique<UdpReceiverSession>(loop, rcfg);
  ASSERT_TRUE(rx->ok());

  UdpSenderSessionConfig scfg;
  scfg.peer = rx->endpoint().local_addr();
  scfg.sender = fast_sender_config();
  scfg.sender.retransmit_timeout = 250 * kMillisecond;
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  tx.send_stream(stream);
  ASSERT_TRUE(loop.run_until([&] { return rx == nullptr; },
                             loop.now() + 5 * kSecond));
  for (int i = 0; i < 3; ++i) loop.poll_once(kMillisecond);
  EXPECT_EQ(tx.sender().stats().tpdus_acked, 0u);
}

TEST(UdpLoopback, SessionsDestroyedWithDeadlinesArmedLeaveTheLoopClean) {
  // A sender with RTOs armed and a receiver with a gap-NAK armed are
  // destroyed while the loop lives on; polling past both deadlines
  // must run nothing of theirs (no callback into a freed session).
  EventLoop loop;
  const auto stream = pattern(8 * 1024);

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(stream.size());
  rcfg.receiver.gap_nak_delay = 10 * kMillisecond;
  auto rx = std::make_unique<UdpReceiverSession>(loop, rcfg);
  ASSERT_TRUE(rx->ok());

  UdpSenderSessionConfig scfg;
  scfg.peer = rx->endpoint().local_addr();
  scfg.sender = fast_sender_config();
  scfg.sender.retransmit_timeout = 20 * kMillisecond;
  auto tx = std::make_unique<UdpSenderSession>(loop, scfg);
  ASSERT_TRUE(tx->ok());

  // One chunk of a TPDU straight into the receiver: an incomplete TPDU
  // whose gap-NAK deadline is armed on the loop.
  const std::vector<Chunk> chunks = frame_stream(stream, scfg.sender.framer);
  rx->receiver().on_packet(
      SimPacket{.bytes = encode_packet(std::span(chunks).first(1), 1500)});
  tx->send_stream(stream);  // one RTO per TPDU, none acked yet
  ASSERT_GT(loop.timers().armed(), 1u);

  tx.reset();
  rx.reset();
  EXPECT_EQ(loop.timers().armed(), 0u);
  const std::uint64_t fires = loop.stats().timer_fires;
  loop.run_until([] { return false; }, loop.now() + 60 * kMillisecond);
  EXPECT_EQ(loop.stats().timer_fires, fires);
}

}  // namespace
}  // namespace chunknet
