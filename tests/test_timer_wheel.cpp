// Hierarchical timer wheel: O(1) arm/cancel, cascading across levels,
// never-early/at-most-one-tick-late firing, and the Simulator-coupled
// pump (SimTimerWheel) that drives wheel deadlines off sim events.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/chunk/codec.hpp"
#include "src/common/pick_queue.hpp"
#include "src/common/rng.hpp"
#include "src/common/timer_wheel.hpp"
#include "src/netsim/link.hpp"
#include "src/netsim/simulator.hpp"
#include "src/transport/receiver.hpp"
#include "src/transport/sender.hpp"

namespace chunknet {
namespace {

TEST(TimerWheel, FiresAtDeadlineNeverEarly) {
  TimerWheel w({/*tick=*/kMillisecond});
  std::vector<int> fired;
  w.arm_at(5 * kMillisecond, [&] { fired.push_back(5); });
  w.arm_at(2 * kMillisecond, [&] { fired.push_back(2); });
  w.arm_at(9 * kMillisecond, [&] { fired.push_back(9); });
  EXPECT_EQ(w.armed(), 3u);

  w.advance(1 * kMillisecond);
  EXPECT_TRUE(fired.empty());
  w.advance(2 * kMillisecond - 1);  // one ns short: not yet due
  EXPECT_TRUE(fired.empty());
  w.advance(2 * kMillisecond);
  EXPECT_EQ(fired, std::vector<int>({2}));
  w.advance(20 * kMillisecond);
  EXPECT_EQ(fired, std::vector<int>({2, 5, 9}));
  EXPECT_EQ(w.armed(), 0u);
}

TEST(TimerWheel, SubTickDeadlineRoundsUp) {
  TimerWheel w({/*tick=*/kMillisecond});
  bool fired = false;
  w.arm_at(kMillisecond + 1, [&] { fired = true; });  // just past tick 1
  w.advance(kMillisecond);
  EXPECT_FALSE(fired);  // never early
  w.advance(2 * kMillisecond);
  EXPECT_TRUE(fired);  // at most one tick late
}

TEST(TimerWheel, PastDeadlineFiresOnNextAdvance) {
  TimerWheel w({kMillisecond});
  w.advance(10 * kMillisecond);
  bool fired = false;
  w.arm_at(3 * kMillisecond, [&] { fired = true; });  // already past
  w.advance(10 * kMillisecond);                    // no time progress needed
  EXPECT_TRUE(fired);
}

TEST(TimerWheel, CancelIsO1AndStaleIdsAreSafe) {
  TimerWheel w({kMillisecond});
  bool fired = false;
  const auto id = w.arm_at(5 * kMillisecond, [&] { fired = true; });
  EXPECT_TRUE(w.cancel(id));
  EXPECT_FALSE(w.cancel(id));  // double-cancel: no-op
  w.advance(10 * kMillisecond);
  EXPECT_FALSE(fired);
  EXPECT_EQ(w.armed(), 0u);

  // A fired timer's id goes stale too.
  int n = 0;
  const auto id2 = w.arm_at(12 * kMillisecond, [&] { ++n; });
  w.advance(20 * kMillisecond);
  EXPECT_EQ(n, 1);
  EXPECT_FALSE(w.cancel(id2));

  // The recycled slab slot gets a new generation: the old id must not
  // cancel the new timer.
  const auto id3 = w.arm_at(25 * kMillisecond, [&] { ++n; });
  EXPECT_NE(id2, id3);
  EXPECT_FALSE(w.cancel(id2));
  w.advance(30 * kMillisecond);
  EXPECT_EQ(n, 2);
}

TEST(TimerWheel, CascadesAcrossLevels) {
  // Deadlines far beyond the level-0 horizon (256 ticks) must cascade
  // down and still fire exactly on time.
  TimerWheel w({kMillisecond});
  std::vector<std::uint64_t> fired;
  const std::uint64_t deadlines_ms[] = {3, 250, 300, 65000, 70000, 20000000};
  for (const std::uint64_t ms : deadlines_ms) {
    w.arm_at(ms * kMillisecond, [&fired, ms] { fired.push_back(ms); });
  }
  for (const std::uint64_t ms : deadlines_ms) {
    w.advance(ms * kMillisecond - 1);
    EXPECT_TRUE(std::find(fired.begin(), fired.end(), ms) == fired.end())
        << ms << " fired early";
    w.advance(ms * kMillisecond);
    EXPECT_TRUE(std::find(fired.begin(), fired.end(), ms) != fired.end())
        << ms << " did not fire on time";
  }
  EXPECT_EQ(w.armed(), 0u);
  EXPECT_GT(w.stats().cascaded, 0u);
}

TEST(TimerWheel, RandomizedAgainstReferenceSchedule) {
  // 4k timers with random deadlines across all wheel levels, a third
  // cancelled; advance in random increments and check every survivor
  // fires in [deadline, deadline + tick).
  TimerWheel w({kMillisecond});
  Rng rng(99);
  struct Ref {
    SimTime deadline;
    bool cancelled;
    bool fired;
  };
  std::vector<Ref> refs(4096);
  std::vector<TimerId> ids(refs.size());
  SimTime last_advance = 0;
  std::vector<SimTime> fire_time(refs.size(), 0);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    refs[i].deadline = rng.range(1, 2'000'000) * kMicrosecond;
    ids[i] = w.arm_at(refs[i].deadline, [&, i] {
      refs[i].fired = true;
      fire_time[i] = last_advance;
    });
  }
  for (std::size_t i = 0; i < refs.size(); i += 3) {
    refs[i].cancelled = w.cancel(ids[i]);
  }
  SimTime now = 0;
  while (now < 2'100'000 * kMicrosecond) {
    now += rng.range(1, 40) * kMillisecond / 4;
    last_advance = now;
    w.advance(now);
  }
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (refs[i].cancelled) {
      EXPECT_FALSE(refs[i].fired) << i;
    } else {
      ASSERT_TRUE(refs[i].fired) << i;
      EXPECT_GE(fire_time[i], refs[i].deadline) << i;  // never early
      EXPECT_LT(fire_time[i], refs[i].deadline + 11 * kMillisecond) << i;
    }
  }
  EXPECT_EQ(w.armed(), 0u);
}

TEST(TimerWheel, CallbackMayRearmItself) {
  TimerWheel w({kMillisecond});
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) {
      w.arm_at((count + 1) * 10 * kMillisecond, tick);
    }
  };
  w.arm_at(10 * kMillisecond, tick);
  w.advance(kSecond);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(w.armed(), 0u);
}

TEST(SimTimerWheel, FiresOnSimClockWithoutPerTimerEvents) {
  Simulator sim;
  SimTimerWheel timers(sim, {kMillisecond});
  std::vector<SimTime> fired_at;
  for (int i = 1; i <= 100; ++i) {
    timers.arm_at(i * 10 * kMillisecond,
               [&fired_at, &sim] { fired_at.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(fired_at.size(), 100u);
  for (int i = 1; i <= 100; ++i) {
    EXPECT_EQ(fired_at[static_cast<std::size_t>(i - 1)],
              static_cast<SimTime>(i) * 10 * kMillisecond);
  }
}

TEST(SimTimerWheel, ArmEarlierDeadlinePullsWakeForward) {
  Simulator sim;
  SimTimerWheel timers(sim, {kMillisecond});
  std::vector<int> order;
  timers.arm_at(100 * kMillisecond, [&] { order.push_back(100); });
  timers.arm_at(5 * kMillisecond, [&] { order.push_back(5); });
  sim.run();
  EXPECT_EQ(order, std::vector<int>({5, 100}));
}

TEST(SimTimerWheel, CancelledTimersLeaveNoFire) {
  Simulator sim;
  SimTimerWheel timers(sim, {kMillisecond});
  bool fired = false;
  const auto id = timers.arm_at(50 * kMillisecond, [&] { fired = true; });
  sim.arm_at(10 * kMillisecond, [&] { timers.cancel(id); });
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(PickQueue, FifoWithMiddlePickAndTouch) {
  PickQueue q;
  const auto a = q.push_back(10);
  const auto b = q.push_back(20);
  const auto c = q.push_back(30);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.value(q.front()), 10u);

  q.remove(b);  // pick from the middle
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.value(q.front()), 10u);
  EXPECT_EQ(q.value(q.next(q.front())), 30u);

  q.touch(a);  // LRU touch: move to back, handle stays valid
  EXPECT_EQ(q.value(q.front()), 30u);
  EXPECT_EQ(q.value(a), 10u);
  q.remove(a);
  q.remove(c);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.front(), PickQueue::kNil);
}

TEST(SimTimerWheel, DrivesTransportRtoAndGapNakDeadlines) {
  // End-to-end: sender RTO/backstop timers and receiver gap-NAK timers
  // all armed on ONE shared wheel (SenderConfig/ReceiverConfig::timers)
  // instead of individual simulator heap events. A lossy transfer must
  // complete byte-exact with retransmissions actually driven by wheel
  // firings.
  Simulator sim;
  Rng rng{1993};
  SimTimerWheel wheel(sim);

  std::vector<std::uint8_t> stream(32 * 1024);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }

  std::unique_ptr<ChunkTransportReceiver> receiver;
  std::unique_ptr<ChunkTransportSender> sender;
  std::unique_ptr<Link> forward;
  std::unique_ptr<Link> reverse;

  ReceiverConfig rc;
  rc.connection_id = 7;
  rc.element_size = 4;
  rc.mode = DeliveryMode::kImmediate;
  rc.app_buffer_bytes = stream.size();
  rc.gap_nak_delay = 10 * kMillisecond;
  rc.timers = &wheel;
  rc.send_control = [&](Chunk ack) {
    auto pkt = encode_packet(std::vector<Chunk>{std::move(ack)}, 1500);
    SimPacket sp;
    sp.bytes = std::move(pkt);
    sp.id = sim.next_packet_id();
    sp.created_at = sim.now();
    reverse->send(std::move(sp));
  };
  receiver = std::make_unique<ChunkTransportReceiver>(sim, std::move(rc));

  LinkConfig fwd_cfg;
  fwd_cfg.mtu = 1500;
  fwd_cfg.loss_rate = 0.2;
  forward = std::make_unique<Link>(sim, fwd_cfg, *receiver, rng);

  SenderConfig sc;
  sc.framer.connection_id = 7;
  sc.framer.element_size = 4;
  sc.framer.tpdu_elements = 512;
  sc.framer.xpdu_elements = 128;
  sc.framer.max_chunk_elements = 64;
  sc.mtu = fwd_cfg.mtu;
  sc.retransmit_timeout = 20 * kMillisecond;
  sc.selective_retransmit = true;
  sc.timers = &wheel;
  sc.send_packet = [&](PacketBytes bytes) {
    SimPacket sp;
    sp.bytes = std::move(bytes);
    sp.id = sim.next_packet_id();
    sp.created_at = sim.now();
    forward->send(std::move(sp));
  };
  sender = std::make_unique<ChunkTransportSender>(sim, std::move(sc));

  LinkConfig rev_cfg;
  rev_cfg.prop_delay = 1 * kMillisecond;
  reverse = std::make_unique<Link>(sim, rev_cfg, *sender, rng);

  sender->send_stream(stream);
  sim.run();

  EXPECT_GT(forward->stats().lost, 0u);
  EXPECT_TRUE(sender->all_acked());
  EXPECT_TRUE(receiver->stream_complete(stream.size() / 4));
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         receiver->app_data().begin()));
  EXPECT_GT(sender->stats().retransmissions +
                sender->stats().gap_naks_honoured,
            0u);
  // The deadlines really lived on the wheel.
  EXPECT_GT(wheel.wheel().stats().armed_total, 0u);
  EXPECT_GT(wheel.wheel().stats().fired, 0u);
}

TEST(SimTimerWheel, TransportDestroyedWithDeadlinesArmedLeavesNoneBehind) {
  // A sender with RTOs armed and a receiver with a gap-NAK armed are
  // destroyed mid-transfer while the run goes on, on a plain Simulator
  // and on a wheel: nothing of theirs may be left to fire.
  for (const bool on_wheel : {false, true}) {
    Simulator sim;
    SimTimerWheel wheel(sim);
    Clock& clock = on_wheel ? static_cast<Clock&>(wheel) : sim;

    ReceiverConfig rc;
    rc.connection_id = 7;
    rc.element_size = 4;
    rc.app_buffer_bytes = 4096;
    rc.gap_nak_delay = 10 * kMillisecond;
    rc.send_control = [](Chunk) {};
    auto receiver = std::make_unique<ChunkTransportReceiver>(clock, rc);

    SenderConfig sc;
    sc.framer.connection_id = 7;
    sc.framer.element_size = 4;
    sc.framer.tpdu_elements = 512;
    sc.framer.max_chunk_elements = 64;
    sc.mtu = 300;  // several packets per TPDU
    sc.retransmit_timeout = 20 * kMillisecond;
    std::vector<PacketBytes> wire;
    sc.send_packet = [&wire](PacketBytes b) { wire.push_back(std::move(b)); };
    auto sender = std::make_unique<ChunkTransportSender>(clock, sc);
    sender->send_stream(std::vector<std::uint8_t>(4096, 7));
    receiver->on_packet(SimPacket{.bytes = wire.front()});  // TPDU open

    sender.reset();
    receiver.reset();
    EXPECT_EQ(wheel.wheel().armed(), 0u) << on_wheel;
    EXPECT_EQ(sim.pending(), on_wheel);  // only the wheel's pumps are left
    sim.run();  // they advance an empty wheel
    EXPECT_EQ(wheel.wheel().stats().fired, 0u) << on_wheel;
  }
}

TEST(PickQueue, HandlesRecycleSafely) {
  PickQueue q;
  std::vector<std::int32_t> hs;
  for (std::uint32_t i = 0; i < 100; ++i) hs.push_back(q.push_back(i));
  for (std::uint32_t i = 0; i < 100; i += 2) q.remove(hs[i]);
  for (std::uint32_t i = 0; i < 50; ++i) q.push_back(1000 + i);
  EXPECT_EQ(q.size(), 100u);
  // Walk: odd originals in order, then the new ones.
  std::vector<std::uint32_t> vals;
  for (auto n = q.front(); n != PickQueue::kNil; n = q.next(n)) {
    vals.push_back(q.value(n));
  }
  ASSERT_EQ(vals.size(), 100u);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(vals[i], i * 2 + 1);
  for (std::size_t i = 50; i < 100; ++i) EXPECT_EQ(vals[i], 1000 + (i - 50));
}

}  // namespace
}  // namespace chunknet
