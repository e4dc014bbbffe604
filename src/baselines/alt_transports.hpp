// The "one self-checked PDU per packet" baseline (paper §3.2): every
// packet is a complete TPDU with its own header and CRC trailer, placed
// on arrival by its byte seq. Two header layouts, the only difference:
//  - kXtp ([XTP 90]): "convert large PDUs into smaller PDUs", so "the
//    overhead of all PDUs must be carried in each packet".
//  - kCompact ([KENT 87], option 4 of §3): never fragment, size every
//    TPDU to the path MTU, "at the expense of complicating reassembly
//    of TPDUs because more TPDUs are used".
// Runs on any Clock over PacketSinks. Bench A4 compares both layouts
// with the chunk transport under identical network conditions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "src/common/interval_set.hpp"
#include "src/common/runtime.hpp"
#include "src/transport/rto.hpp"

namespace chunknet {

enum class PduHeader : std::uint8_t {
  kXtp,      ///< key(4) seq(4) dlen(4) flags(4: bit0 ETAG)
  kCompact,  ///< seq(4) dlen(2) flags(1) — MTU discovery
};

constexpr std::size_t pdu_header_bytes(PduHeader h) {
  return h == PduHeader::kXtp ? 16 : 7;
}
/// Wire: header payload crc32(4). ACKs: 'A' + byte seq (4).
inline constexpr std::size_t kPduTrailerBytes = 4;

struct PduPerPacketConfig {
  PduHeader header{PduHeader::kXtp};
  std::size_t mtu{1500};  ///< the discovered minimum along the route
  SimTime retransmit_timeout{50 * kMillisecond};
  int max_retransmits{8};
  /// Adaptive RTO (Jacobson/Karn); `retransmit_timeout` seeds it.
  RtoConfig rto{};
  std::function<void(std::vector<std::uint8_t>)> send_packet;
};

class PduPerPacketSender final : public PacketSink {
 public:
  PduPerPacketSender(Clock& clock, PduPerPacketConfig cfg);

  void send_stream(std::span<const std::uint8_t> stream);
  void on_packet(SimPacket pkt) override;  ///< 5-byte ACKs: 'A' + seq
  /// Every PDU was acknowledged (giving up is failure, not success).
  bool all_acked() const { return finished() && !failed(); }
  bool finished() const { return outstanding_.empty() && started_; }
  bool failed() const { return stats_.gave_up > 0; }

  struct Stats {
    std::uint64_t pdus_sent{0};
    std::uint64_t retransmissions{0};
    std::uint64_t packets_sent{0};
    std::uint64_t bytes_sent{0};
    std::uint64_t gave_up{0};
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Pending {
    std::vector<std::uint8_t> packet;
    int attempts{0};
    SimTime last_sent{0};
    bool retransmitted{false};  ///< Karn: ACK RTT sample is ambiguous
  };
  /// Sends `p` and arms its retransmission timer.
  void transmit(std::uint32_t seq, Pending& p);

  Clock& clock_;
  PduPerPacketConfig cfg_;
  RtoEstimator rto_;
  std::map<std::uint32_t, Pending> outstanding_;  // keyed by byte seq
  bool started_{false};
  Stats stats_;
};

class PduPerPacketReceiver final : public PacketSink {
 public:
  PduPerPacketReceiver(
      Clock& clock, PduHeader header, std::size_t app_buffer_bytes,
      std::function<void(std::vector<std::uint8_t>)> send_control);

  void on_packet(SimPacket pkt) override;

  std::span<const std::uint8_t> app_data() const { return app_buffer_; }
  std::uint64_t bytes_delivered() const { return coverage_.covered(); }

  struct Stats {
    std::uint64_t pdus_ok{0};
    std::uint64_t pdus_bad_check{0};
    std::uint64_t duplicates{0};
    std::uint64_t bus_bytes{0};
    std::vector<double> delivery_latency_ns;
  };
  const Stats& stats() const { return stats_; }

 private:
  Clock& clock_;
  PduHeader header_;
  std::function<void(std::vector<std::uint8_t>)> send_control_;
  std::vector<std::uint8_t> app_buffer_;
  IntervalSet coverage_;  // byte-granular
  Stats stats_;
};

}  // namespace chunknet
