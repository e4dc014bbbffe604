// The clock-and-timer seam: the transport runs on any Clock. Here a
// sender/receiver pair runs on a hand-driven fake with no Simulator and
// no network model behind it; the test decides when each deadline
// fires and what the wire loses. The Simulator's cancel() is checked
// for exact heap timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "src/chunk/codec.hpp"
#include "src/common/runtime.hpp"
#include "src/transport/receiver.hpp"
#include "src/transport/sender.hpp"

namespace chunknet {
namespace {

/// Deadlines wait in a list until the test fires them; time moves only
/// when a deadline fires.
class FakeClock final : public Clock {
 public:
  SimTime now() const override { return now_; }
  TimerId arm_at(SimTime deadline, std::function<void()> cb) override {
    armed_.push_back({++last_id_, deadline, std::move(cb)});
    return last_id_;
  }
  bool cancel(TimerId id) override {
    return std::erase_if(armed_, [id](const Armed& a) { return a.id == id; });
  }

  std::size_t armed() const { return armed_.size(); }

  /// Jumps to the earliest armed deadline and runs it. False when
  /// nothing is armed.
  bool fire_next() {
    if (armed_.empty()) return false;
    auto it = std::min_element(
        armed_.begin(), armed_.end(),
        [](const auto& a, const auto& b) { return a.deadline < b.deadline; });
    Armed fired = std::move(*it);
    armed_.erase(it);
    now_ = std::max(now_, fired.deadline);
    fired.cb();
    return true;
  }

 private:
  struct Armed {
    TimerId id;
    SimTime deadline;
    std::function<void()> cb;
  };
  SimTime now_{0};
  TimerId last_id_{0};
  std::vector<Armed> armed_;
};

TEST(ClockSeam, FakeClockDrivesRtoRecoveryWithoutSimulator) {
  constexpr std::size_t kBytes = 4096;  // two TPDUs of 512 elements
  std::vector<std::uint8_t> stream(kBytes);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }

  FakeClock clock;
  std::deque<PacketBytes> to_receiver;
  std::deque<PacketBytes> to_sender;

  ReceiverConfig rc;
  rc.connection_id = 7;
  rc.element_size = 4;
  rc.app_buffer_bytes = kBytes;
  rc.send_control = [&](Chunk ctrl) {
    to_sender.push_back(encode_packet(std::span<const Chunk>(&ctrl, 1), 1500));
  };
  ChunkTransportReceiver receiver(clock, std::move(rc));

  SenderConfig sc;
  sc.framer.connection_id = 7;
  sc.framer.element_size = 4;
  sc.framer.tpdu_elements = 512;
  sc.framer.xpdu_elements = 128;
  sc.framer.max_chunk_elements = 64;
  sc.retransmit_timeout = 30 * kMillisecond;
  int data_packets = 0;
  sc.send_packet = [&](PacketBytes bytes) {
    if (++data_packets == 1) return;  // the wire loses the first one
    to_receiver.push_back(std::move(bytes));
  };
  ChunkTransportSender sender(clock, std::move(sc));

  // Zero-latency wire: deliver until both directions are quiet.
  auto deliver = [&] {
    while (!to_receiver.empty() || !to_sender.empty()) {
      if (!to_receiver.empty()) {
        receiver.on_packet(SimPacket{.bytes = std::move(to_receiver.front())});
        to_receiver.pop_front();
      } else {
        sender.on_packet(SimPacket{.bytes = std::move(to_sender.front())});
        to_sender.pop_front();
      }
    }
  };

  sender.send_stream(stream);
  deliver();
  ASSERT_GT(data_packets, 2);
  // The second TPDU got through; the first lacks its lost packet.
  EXPECT_EQ(sender.stats().tpdus_acked, 1u);
  EXPECT_FALSE(receiver.stream_complete(kBytes / 4));
  // The second TPDU's ACK cancelled its RTO: only the first's is left.
  ASSERT_EQ(clock.armed(), 1u);

  // Fire the RTO: the sender resends the first TPDU at 30 ms.
  ASSERT_TRUE(clock.fire_next());
  EXPECT_EQ(clock.now(), 30 * kMillisecond);
  EXPECT_EQ(sender.stats().retransmissions, 1u);
  deliver();

  EXPECT_TRUE(sender.all_acked());
  EXPECT_TRUE(receiver.stream_complete(kBytes / 4));
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         receiver.app_data().begin()));
  // Each ACK cancelled its TPDU's RTO, so no deadline is left behind.
  EXPECT_EQ(clock.armed(), 0u);
}

TEST(ClockSeam, SimulatorCancelLeavesNoTraceInTimeOrPending) {
  Simulator sim;
  std::vector<int> ran;
  const TimerId late = sim.arm_at(50 * kMillisecond, [&] { ran.push_back(50); });
  EXPECT_NE(late, 0u);
  EXPECT_TRUE(sim.cancel(late));
  EXPECT_FALSE(sim.pending());  // a tombstone is not a pending event
  EXPECT_FALSE(sim.cancel(late));
  EXPECT_FALSE(sim.cancel(0));

  // Same timestamp: the first event cancels the second, which never runs.
  TimerId second = 0;
  sim.arm_at(10 * kMillisecond, [&] {
    ran.push_back(1);
    EXPECT_TRUE(sim.cancel(second));
  });
  second = sim.arm_at(10 * kMillisecond, [&] { ran.push_back(2); });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(ran, std::vector<int>{1});
  EXPECT_EQ(sim.now(), 10 * kMillisecond);  // tombstones do not move time
  EXPECT_FALSE(sim.pending());

  // Fired and cancelled ids stay dead after their slots are reused.
  bool fired = false;
  const TimerId next = sim.arm_in(kMillisecond, [&] { fired = true; });
  EXPECT_FALSE(sim.cancel(second));
  EXPECT_FALSE(sim.cancel(late));
  EXPECT_NE(next, late);
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(sim.cancel(next));
}

}  // namespace
}  // namespace chunknet
