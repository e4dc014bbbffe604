// The clock-and-timer seam: the transport runs on any Clock. Here a
// sender/receiver pair runs on a hand-driven fake with no Simulator and
// no network model behind it; the test decides when each deadline
// fires and what the wire loses.
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
  void arm_at(SimTime deadline, std::function<void()> cb) override {
    armed_.emplace_back(deadline, std::move(cb));
  }

  std::size_t armed() const { return armed_.size(); }

  /// Jumps to the earliest armed deadline and runs it. False when
  /// nothing is armed.
  bool fire_next() {
    if (armed_.empty()) return false;
    auto it = std::min_element(
        armed_.begin(), armed_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    auto [deadline, cb] = std::move(*it);
    armed_.erase(it);
    now_ = std::max(now_, deadline);
    cb();
    return true;
  }

 private:
  SimTime now_{0};
  std::vector<std::pair<SimTime, std::function<void()>>> armed_;
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
  ASSERT_GE(clock.armed(), 1u);  // one RTO per TPDU, on the fake

  // Fire the RTO: the sender resends the first TPDU at 30 ms.
  ASSERT_TRUE(clock.fire_next());
  EXPECT_EQ(clock.now(), 30 * kMillisecond);
  EXPECT_EQ(sender.stats().retransmissions, 1u);
  deliver();

  EXPECT_TRUE(sender.all_acked());
  EXPECT_TRUE(receiver.stream_complete(kBytes / 4));
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         receiver.app_data().begin()));
  // Every deadline left behind is a stale RTO that fires as a no-op.
  while (clock.fire_next()) {
  }
  EXPECT_EQ(sender.stats().retransmissions, 1u);
  EXPECT_TRUE(sender.all_acked());
}

}  // namespace
}  // namespace chunknet
