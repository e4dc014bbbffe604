// Tests for credit-based end-to-end flow control and admission control
// (docs/ROBUSTNESS.md, "Overload control"): the sender's credit gate
// (block on zero credit, zero-credit probe + slot decay, multiplicative
// backoff on shrinking grants), the receiver's governor-capped grants,
// demux admission refusal, and the system-level invariant that charged
// bytes never exceed the governor's hard watermark under overload.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "src/chunk/builder.hpp"
#include "src/chunk/codec.hpp"
#include "src/common/buffer_pool.hpp"
#include "src/common/resource_governor.hpp"
#include "src/netsim/link.hpp"
#include "src/netsim/simulator.hpp"
#include "src/transport/demux.hpp"
#include "src/transport/invariant.hpp"
#include "src/transport/receiver.hpp"
#include "src/transport/sender.hpp"
#include "src/transport/signalling.hpp"

namespace chunknet {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 2246822519u) >> 11);
  }
  return v;
}

/// A standalone flow-controlled sender whose packets land in `sent`
/// (no network, no receiver): the credit gate is observable directly.
struct CapturingSender {
  Simulator sim;
  std::vector<std::vector<std::uint8_t>> sent;
  std::unique_ptr<ChunkTransportSender> sender;

  explicit CapturingSender(SenderConfig::FlowControlConfig flow) {
    SenderConfig sc;
    sc.framer.connection_id = 7;
    sc.framer.element_size = 4;
    sc.framer.tpdu_elements = 512;  // 2048-byte TPDUs
    sc.framer.xpdu_elements = 128;
    sc.framer.max_chunk_elements = 64;
    sc.mtu = 1500;
    sc.flow = flow;
    sc.flow.enabled = true;
    sc.send_packet = [this](std::vector<std::uint8_t> b) {
      sent.push_back(std::move(b));
    };
    sender = std::make_unique<ChunkTransportSender>(sim, std::move(sc));
  }

  void feed_grant(std::uint32_t seq, std::uint64_t limit,
                  std::uint16_t slots) {
    CreditGrant g;
    g.connection_id = 7;
    g.grant_seq = seq;
    g.credit_limit_bytes = limit;
    g.tpdu_slots = slots;
    feed(make_signal_chunk(g));
  }

  void feed(Chunk feedback) {
    SimPacket sp;
    sp.bytes = encode_packet(std::vector<Chunk>{std::move(feedback)}, 1500);
    sp.id = sim.next_packet_id();
    sp.created_at = sim.now();
    sender->on_packet(std::move(sp));
  }
};

TEST(FlowControl, SenderBlocksOnInitialCreditThenGrantUnblocks) {
  SenderConfig::FlowControlConfig flow;
  flow.initial_credit_bytes = 2048;  // exactly one TPDU
  flow.initial_tpdu_slots = 8;
  CapturingSender h(flow);

  h.sender->send_stream(pattern(8192));  // four TPDUs
  EXPECT_EQ(h.sender->flow_queued(), 3u);  // one admitted, three blocked
  EXPECT_EQ(h.sender->credit_consumed(), 2048u);
  EXPECT_EQ(h.sender->stats().flow_blocked, 1u);
  const std::size_t blocked_packets = h.sent.size();
  EXPECT_GT(blocked_packets, 0u);

  h.feed_grant(/*seq=*/1, /*limit=*/8192, /*slots=*/8);
  EXPECT_EQ(h.sender->flow_queued(), 0u);
  EXPECT_EQ(h.sender->credit_consumed(), 8192u);
  EXPECT_GT(h.sent.size(), blocked_packets);
  EXPECT_EQ(h.sender->stats().credit_grants, 1u);
}

TEST(FlowControl, SlotWindowCapsInflightTpdus) {
  SenderConfig::FlowControlConfig flow;
  flow.initial_credit_bytes = 1 << 20;  // credit is not the limit here
  flow.initial_tpdu_slots = 2;
  CapturingSender h(flow);
  h.sender->send_stream(pattern(8192));
  EXPECT_EQ(h.sender->flow_inflight(), 2u);
  EXPECT_EQ(h.sender->flow_queued(), 2u);
}

TEST(FlowControl, StaleGrantIsIgnored) {
  SenderConfig::FlowControlConfig flow;
  CapturingSender h(flow);
  h.feed_grant(/*seq=*/2, /*limit=*/4096, /*slots=*/4);
  EXPECT_EQ(h.sender->credit_limit(), 4096u);
  // An older (reordered / duplicated) grant must not roll credit back.
  h.feed_grant(/*seq=*/1, /*limit=*/999999, /*slots=*/16);
  EXPECT_EQ(h.sender->credit_limit(), 4096u);
  EXPECT_EQ(h.sender->stats().credit_grants, 1u);
}

TEST(FlowControl, ShrinkingGrantBacksOffMultiplicatively) {
  SenderConfig::FlowControlConfig flow;
  CapturingSender h(flow);
  h.feed_grant(/*seq=*/1, /*limit=*/16384, /*slots=*/8);
  EXPECT_EQ(h.sender->flow_slots(), 8u);
  // The receiver shrank the window: slots halve instead of tracking the
  // still-large offer (multiplicative backoff under pressure).
  h.feed_grant(/*seq=*/2, /*limit=*/8192, /*slots=*/8);
  EXPECT_EQ(h.sender->flow_slots(), 4u);
  EXPECT_EQ(h.sender->stats().flow_backoffs, 1u);
}

TEST(FlowControl, ZeroCreditProbeKeepsTheConnectionAlive) {
  SenderConfig::FlowControlConfig flow;
  flow.initial_credit_bytes = 0;  // every grant "lost" from the start
  flow.initial_tpdu_slots = 2;
  flow.probe_timeout = 10 * kMillisecond;
  CapturingSender h(flow);

  h.sender->send_stream(pattern(4096));  // two TPDUs, zero credit
  EXPECT_EQ(h.sent.size(), 0u);  // fully blocked
  EXPECT_EQ(h.sender->flow_queued(), 2u);

  h.sim.run(100 * kMillisecond);
  // The probe forced progress (and decayed the slot estimate) instead
  // of wedging forever.
  EXPECT_GE(h.sender->stats().zero_credit_probes, 2u);
  EXPECT_EQ(h.sender->flow_queued(), 0u);
  EXPECT_GT(h.sent.size(), 0u);
  EXPECT_EQ(h.sender->flow_slots(), 1u);
}

TEST(FlowControl, ProbeEndsWithTheQueueItWatched) {
  SenderConfig::FlowControlConfig flow;
  flow.initial_credit_bytes = 2048;  // one TPDU admitted, three queued
  flow.initial_tpdu_slots = 8;
  CapturingSender h(flow);
  h.sender->send_stream(pattern(8192));
  ASSERT_EQ(h.sender->flow_queued(), 3u);

  // A grant drains the queue at 5 ms; every TPDU is acked at 10 ms.
  h.sim.arm_at(5 * kMillisecond, [&] { h.feed_grant(1, 8192, 8); });
  h.sim.arm_at(10 * kMillisecond, [&] {
    for (std::uint32_t id = 1; id <= 4; ++id) h.feed(make_ack_chunk(7, id, true));
  });
  h.sim.run();

  EXPECT_TRUE(h.sender->all_acked());
  EXPECT_EQ(h.sender->stats().zero_credit_probes, 0u);
  // The probe went with the queue: the run ends at the last ACK, not
  // at a no-op probe fire probe_timeout after blocking.
  EXPECT_EQ(h.sim.now(), 10 * kMillisecond);
}

/// Frames one 8-element TPDU (+ ED chunk) for direct receiver feeding.
std::vector<Chunk> one_tpdu(const std::vector<std::uint8_t>& stream) {
  FramerOptions fo;
  fo.connection_id = 1;
  fo.element_size = 4;
  fo.tpdu_elements = 8;
  fo.xpdu_elements = 8;
  fo.max_chunk_elements = 4;
  auto chunks = frame_stream(stream, fo);
  TpduInvariant inv;
  for (const Chunk& c : chunks) inv.absorb(c);
  chunks.push_back(make_ed_chunk(fo.connection_id, chunks.front().h.tpdu.id,
                                 chunks.front().h.conn.sn, inv.value()));
  return chunks;
}

TEST(FlowControl, ReceiverGrantShrinksUnderGovernorPressure) {
  Simulator sim;
  GovernorConfig gc;
  gc.soft_watermark_bytes = 4096;
  gc.hard_watermark_bytes = 8192;
  ResourceGovernor gov(gc);

  std::vector<CreditGrant> grants;
  ReceiverConfig rc;
  rc.connection_id = 1;
  rc.element_size = 4;
  rc.app_buffer_bytes = 64;
  rc.governor = &gov;
  rc.grant_credit = true;
  rc.credit_window_bytes = 64 * 1024;
  rc.credit_tpdu_slots = 4;
  rc.send_control = [&grants](Chunk ctrl) {
    if (signal_kind(ctrl) == SignalKind::kCreditGrant) {
      const auto g = parse_credit_grant(ctrl);
      ASSERT_TRUE(g.has_value());
      grants.push_back(*g);
    }
  };
  ChunkTransportReceiver rx(sim, std::move(rc));

  const auto chunks = one_tpdu(pattern(32));
  for (const Chunk& c : chunks) rx.on_chunk(c, 0);
  ASSERT_EQ(grants.size(), 1u);  // granted with the finish ACK
  EXPECT_EQ(grants[0].tpdu_slots, 4u);

  // Another connection's holdings push the governor over its soft
  // watermark; the re-ACK path re-advertises, and the new grant must
  // carry a collapsed window and halved slots.
  gov.charge(99, ResourceClass::kHeld, 7000);
  for (const Chunk& c : chunks) {
    if (c.h.type == ChunkType::kErrorDetection) rx.on_chunk(c, 0);
  }
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_GT(grants[1].grant_seq, grants[0].grant_seq);
  EXPECT_EQ(grants[1].tpdu_slots, 2u);
  EXPECT_LT(grants[1].credit_limit_bytes, grants[0].credit_limit_bytes);
}

TEST(FlowControl, DemuxRefusesConnectionsBeyondGovernorHeadroom) {
  GovernorConfig gc;
  gc.soft_watermark_bytes = 48 * 1024;
  gc.hard_watermark_bytes = 64 * 1024;
  ResourceGovernor gov(gc);

  Simulator sim;
  std::vector<std::unique_ptr<ChunkTransportReceiver>> receivers;
  std::vector<ConnectionRefused> refusals;
  ChunkDemultiplexer demux;
  DemuxAdmissionConfig adm;
  adm.governor = &gov;
  adm.reserve_bytes = 48 * 1024;
  adm.open_connection =
      [&](const ConnectionOpen& open) -> ChunkTransportReceiver* {
    ReceiverConfig rc;
    rc.connection_id = open.connection_id;
    rc.element_size = 4;
    rc.app_buffer_bytes = 1024;
    receivers.push_back(
        std::make_unique<ChunkTransportReceiver>(sim, std::move(rc)));
    return receivers.back().get();
  };
  adm.send_refusal = [&refusals](Chunk c) {
    const auto r = parse_connection_refused(c);
    ASSERT_TRUE(r.has_value());
    refusals.push_back(*r);
  };
  demux.configure_admission(std::move(adm));

  auto open_packet = [](std::uint32_t id) {
    ConnectionOpen open;
    open.connection_id = id;
    SimPacket sp;
    sp.bytes =
        encode_packet(std::vector<Chunk>{make_signal_chunk(open)}, 1500);
    return sp;
  };

  demux.on_packet(open_packet(5));  // 48K reserve fits under 64K
  EXPECT_EQ(receivers.size(), 1u);
  EXPECT_TRUE(refusals.empty());

  demux.on_packet(open_packet(6));  // 96K committed would exceed 64K
  EXPECT_EQ(receivers.size(), 1u);
  ASSERT_EQ(refusals.size(), 1u);
  EXPECT_EQ(refusals[0].connection_id, 6u);
  EXPECT_EQ(refusals[0].retry_hint_bytes, 48u * 1024u);
  EXPECT_EQ(demux.stats().connections_admitted, 1u);
  EXPECT_EQ(demux.stats().connections_refused, 1u);

  // A refused connection is remembered: a duplicate open is dropped
  // silently, not refused again.
  demux.on_packet(open_packet(6));
  EXPECT_EQ(refusals.size(), 1u);
}

TEST(FlowControl, EndToEndCreditedTransferCompletesExactly) {
  Simulator sim;
  Rng rng(1993);
  GovernorConfig gc;
  gc.soft_watermark_bytes = 12 * 1024;
  gc.hard_watermark_bytes = 16 * 1024;
  ResourceGovernor gov(gc);

  const auto stream = pattern(32 * 1024);
  std::unique_ptr<ChunkTransportReceiver> rx;
  std::unique_ptr<ChunkTransportSender> tx;
  std::unique_ptr<Link> forward;
  std::unique_ptr<Link> reverse;

  ReceiverConfig rc;
  rc.connection_id = 1;
  rc.element_size = 4;
  rc.app_buffer_bytes = stream.size();
  rc.mode = DeliveryMode::kReassemble;
  rc.governor = &gov;
  rc.grant_credit = true;
  rc.credit_window_bytes = 8 * 1024;
  rc.credit_tpdu_slots = 2;
  rc.send_control = [&](Chunk ctrl) {
    SimPacket sp;
    sp.bytes = encode_packet(std::vector<Chunk>{std::move(ctrl)}, 1500);
    sp.id = sim.next_packet_id();
    sp.created_at = sim.now();
    reverse->send(std::move(sp));
  };
  rx = std::make_unique<ChunkTransportReceiver>(sim, std::move(rc));

  LinkConfig fwd_cfg;
  fwd_cfg.mtu = 1500;
  fwd_cfg.rate_bps = 50e6;
  forward = std::make_unique<Link>(sim, fwd_cfg, *rx, rng);

  SenderConfig sc;
  sc.framer.connection_id = 1;
  sc.framer.element_size = 4;
  sc.framer.tpdu_elements = 512;
  sc.framer.xpdu_elements = 128;
  sc.framer.max_chunk_elements = 64;
  sc.mtu = 1500;
  sc.flow.enabled = true;
  sc.flow.initial_credit_bytes = 4096;
  sc.send_packet = [&](std::vector<std::uint8_t> bytes) {
    SimPacket sp;
    sp.bytes = std::move(bytes);
    sp.id = sim.next_packet_id();
    sp.created_at = sim.now();
    forward->send(std::move(sp));
  };
  tx = std::make_unique<ChunkTransportSender>(sim, std::move(sc));
  LinkConfig rev_cfg;
  reverse = std::make_unique<Link>(sim, rev_cfg, *tx, rng);

  tx->send_stream(stream);
  sim.run(10 * kSecond);

  EXPECT_TRUE(tx->all_acked());
  EXPECT_TRUE(rx->stream_complete(stream.size() / 4));
  EXPECT_TRUE(
      std::equal(stream.begin(), stream.end(), rx->app_data().begin()));
  EXPECT_GT(tx->stats().credit_grants, 0u);
  EXPECT_GT(rx->stats().credit_grants_sent, 0u);
  EXPECT_LE(gov.stats().charged_peak, gc.hard_watermark_bytes);
}

// The ISSUE's required system-level assertion: under a lossy, bursty,
// multi-connection overload (more offered than the governor's budget
// can hold), charged bytes — receiver holds AND pool retention — never
// exceed the hard watermark at ANY sampled instant of the sweep.
TEST(FlowControl, HardWatermarkHoldsThroughOverloadSweep) {
  Simulator sim;
  Rng rng(424242);
  GovernorConfig gc;
  gc.soft_watermark_bytes = 16 * 1024;
  gc.hard_watermark_bytes = 24 * 1024;
  ResourceGovernor gov(gc);

  // Pool retention is charged to the same budget (class kPool).
  PacketBufferPool pool(2048, /*max_free_buffers=*/8);
  pool.attach_governor(&gov);
  {
    std::vector<PooledBuffer> warm;
    for (int i = 0; i < 6; ++i) warm.push_back(pool.acquire());
  }  // six buffers parked in the freelist, charged to the governor
  EXPECT_GT(gov.stats().charged_now, 0u);

  ChunkDemultiplexer demux;
  DemuxAdmissionConfig adm;
  adm.governor = &gov;
  adm.reserve_bytes = 2048;
  demux.configure_admission(std::move(adm));

  LinkConfig bottleneck;
  bottleneck.mtu = 1500;
  bottleneck.rate_bps = 50e6;
  bottleneck.prop_delay = 1 * kMillisecond;
  bottleneck.queue_limit_bytes = 16 * 1024;
  bottleneck.loss_rate = 0.02;  // loss => gaps => reassembly holds
  bottleneck.jitter = 500 * kMicrosecond;
  Link forward(sim, bottleneck, demux, rng);

  struct Conn {
    std::uint64_t accepted{0};
    std::unique_ptr<ChunkTransportReceiver> receiver;
    std::unique_ptr<ChunkTransportSender> sender;
    std::unique_ptr<Link> reverse;
  };
  const std::size_t nbytes = 16 * 1024;
  const std::uint32_t nconn = 6;
  std::vector<Conn> conns(nconn);
  for (std::uint32_t i = 0; i < nconn; ++i) {
    const std::uint32_t id = 3 + i;
    ASSERT_TRUE(demux.try_admit(id));
    Conn& c = conns[i];

    ReceiverConfig rc;
    rc.connection_id = id;
    rc.element_size = 4;
    rc.app_buffer_bytes = nbytes;
    rc.mode = DeliveryMode::kReassemble;
    rc.governor = &gov;
    rc.grant_credit = true;
    rc.credit_window_bytes = 4096;
    rc.credit_tpdu_slots = 2;
    rc.gap_nak_delay = 5 * kMillisecond;
    Conn* cp = &c;
    rc.on_tpdu = [cp](const TpduOutcome& o) {
      if (o.verdict == TpduVerdict::kAccepted) cp->accepted += o.elements;
    };
    rc.send_control = [&sim, cp](Chunk ctrl) {
      SimPacket sp;
      sp.bytes = encode_packet(std::vector<Chunk>{std::move(ctrl)}, 1500);
      sp.id = sim.next_packet_id();
      sp.created_at = sim.now();
      cp->reverse->send(std::move(sp));
    };
    c.receiver = std::make_unique<ChunkTransportReceiver>(sim, std::move(rc));
    demux.attach(id, *c.receiver);

    SenderConfig sd;
    sd.framer.connection_id = id;
    sd.framer.element_size = 4;
    sd.framer.tpdu_elements = 512;
    sd.framer.xpdu_elements = 128;
    sd.framer.max_chunk_elements = 64;
    sd.mtu = 1500;
    sd.retransmit_timeout = 25 * kMillisecond;
    sd.max_retransmits = 10;
    sd.selective_retransmit = true;
    sd.flow.enabled = true;
    sd.flow.initial_credit_bytes = 4096;
    sd.send_packet = [&sim, &forward](std::vector<std::uint8_t> bytes) {
      SimPacket sp;
      sp.bytes = std::move(bytes);
      sp.id = sim.next_packet_id();
      sp.created_at = sim.now();
      forward.send(std::move(sp));
    };
    c.sender = std::make_unique<ChunkTransportSender>(sim, std::move(sd));
    LinkConfig rev;
    rev.prop_delay = bottleneck.prop_delay;
    c.reverse = std::make_unique<Link>(sim, rev, *c.sender, rng);
  }

  // Sample the invariant continuously while any transfer is running.
  std::uint64_t samples = 0;
  std::uint64_t worst = 0;
  auto sampler = std::make_shared<std::function<void()>>();
  *sampler = [&]() {
    const std::uint64_t now = gov.stats().charged_now;
    worst = std::max(worst, now);
    ++samples;
    ASSERT_LE(now, gc.hard_watermark_bytes);
    const bool busy = std::any_of(
        conns.begin(), conns.end(),
        [](const Conn& c) { return !c.sender->finished(); });
    if (busy) sim.arm_in(1 * kMillisecond, *sampler);
  };
  sim.arm_in(1 * kMillisecond, *sampler);

  const auto stream = pattern(nbytes);
  for (Conn& c : conns) c.sender->send_stream(stream);
  sim.run(60 * kSecond);

  EXPECT_GT(samples, 10u);
  EXPECT_LE(gov.stats().charged_peak, gc.hard_watermark_bytes);
  std::uint64_t total_accepted = 0;
  for (const Conn& c : conns) total_accepted += c.accepted;
  EXPECT_GT(total_accepted, 0u);  // degraded, not starved
}

}  // namespace
}  // namespace chunknet
