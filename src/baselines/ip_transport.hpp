// Conventional IP-fragmentation transport — the end-to-end baseline
// chunks are compared against (paper §3.2, §3.3).
//
// The sender cuts the stream into TPDU-sized datagrams, protects each
// with a CRC-32 trailer (computed over the ordered datagram — CRC
// *requires* order), and fragments datagrams to the first-hop MTU.
// Routers may fragment further (inter-network fragmentation) but never
// combine ("IP fragmentation never combines fragments in the network").
// The receiver must buffer fragments in a physical reassembly pool;
// only when a datagram completes can the CRC be verified and the data
// placed — so every byte crosses the bus twice, delivery latency is
// gated on the slowest fragment, and the pool can lock up (§3.3).
//
// Wire format of one fragment (all big-endian):
//   magic 'I' (1) | flags (1: bit0 MF) | dgram id (4) | offset (4) |
//   stream base of dgram (4) | payload len (2) | payload
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "src/common/runtime.hpp"
#include "src/netsim/router.hpp"
#include "src/reassembly/ip_reassembly.hpp"
#include "src/transport/rto.hpp"

namespace chunknet {

inline constexpr std::uint8_t kIpFragMagic = 'I';
inline constexpr std::size_t kIpFragHeaderBytes = 16;

/// One serialized fragment.
std::vector<std::uint8_t> encode_ip_fragment(std::uint32_t dgram_id,
                                             std::uint32_t offset,
                                             std::uint32_t stream_base,
                                             bool more_fragments,
                                             std::span<const std::uint8_t> body);

struct DecodedIpFragment {
  bool ok{false};
  std::uint32_t dgram_id{0};
  std::uint32_t offset{0};
  std::uint32_t stream_base{0};
  bool more_fragments{true};
  std::span<const std::uint8_t> body;
};

DecodedIpFragment decode_ip_fragment(std::span<const std::uint8_t> bytes);

/// Router relay: re-fragments fragments that exceed the egress MTU.
/// Never merges (per IP semantics).
RelayFn ip_fragment_relay(RelayStats* stats = nullptr);

struct IpSenderConfig {
  std::size_t tpdu_bytes{8192};  ///< datagram size (CRC-protected unit)
  std::size_t mtu{1500};
  SimTime retransmit_timeout{50 * kMillisecond};
  int max_retransmits{8};
  /// Adaptive RTO (Jacobson/Karn); `retransmit_timeout` seeds it.
  RtoConfig rto{};
  std::function<void(std::vector<std::uint8_t>)> send_packet;
  /// Observability (optional). Metric names prefixed "ip_sender.".
  ObsContext* obs{nullptr};
};

/// Sender: datagram = payload + CRC-32 trailer, fragmented to MTU.
/// Retransmission is whole-datagram ("if a single fragment is lost,
/// then an entire TPDU is retransmitted" — [KENT 87] via §3).
class IpFragTransportSender final : public PacketSink {
 public:
  IpFragTransportSender(Clock& clock, IpSenderConfig cfg);

  void send_stream(std::span<const std::uint8_t> stream);

  /// Feedback: 5-byte ACK/NAK bodies ('A'|'N' + dgram id).
  void on_packet(SimPacket pkt) override;

  /// Every datagram was positively acknowledged (giving up is failure,
  /// not success — see finished()/failed()).
  bool all_acked() const { return finished() && !failed(); }
  bool finished() const { return outstanding_.empty() && started_; }
  bool failed() const { return stats_.gave_up > 0; }

  const RtoEstimator& rto() const { return rto_; }

  struct Stats {
    std::uint64_t datagrams_sent{0};
    std::uint64_t datagrams_acked{0};
    std::uint64_t retransmissions{0};
    std::uint64_t gave_up{0};
    std::uint64_t packets_sent{0};
    std::uint64_t bytes_sent{0};
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Pending {
    std::vector<std::uint8_t> datagram;  ///< payload + CRC trailer
    std::uint32_t stream_base{0};
    int attempts{0};
    SimTime last_sent{0};
    bool retransmitted{false};  ///< Karn: ACK RTT sample is ambiguous
  };
  void transmit(std::uint32_t id, Pending& p);
  void arm_timer(std::uint32_t id);

  struct ObsHandles {
    Counter* datagrams_sent{nullptr};
    Counter* retransmissions{nullptr};
    Counter* gave_up{nullptr};
    Counter* packets_sent{nullptr};
    Counter* bytes_sent{nullptr};
  };

  Clock& clock_;
  IpSenderConfig cfg_;
  RtoEstimator rto_;
  ObsHandles m_;
  std::map<std::uint32_t, Pending> outstanding_;
  std::uint32_t next_id_{1};
  bool started_{false};
  Stats stats_;
};

struct IpReceiverConfig {
  std::size_t app_buffer_bytes{1 << 20};
  std::size_t reassembly_pool_bytes{1 << 18};
  /// Sends an ACK/NAK body back toward the sender.
  std::function<void(std::vector<std::uint8_t>)> send_control;
  /// Observability (optional). Metric names prefixed "ip_receiver.".
  ObsContext* obs{nullptr};
};

/// Receiver: physical reassembly, then CRC verification, then placement.
class IpFragTransportReceiver final : public PacketSink {
 public:
  IpFragTransportReceiver(Clock& clock, IpReceiverConfig cfg);

  void on_packet(SimPacket pkt) override;

  std::span<const std::uint8_t> app_data() const { return app_buffer_; }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }

  struct Stats {
    std::uint64_t fragments{0};
    std::uint64_t malformed{0};
    std::uint64_t datagrams_ok{0};
    std::uint64_t datagrams_bad_crc{0};
    std::uint64_t bus_bytes{0};
    std::uint64_t pool_lockups{0};
    std::vector<double> delivery_latency_ns;
  };
  const Stats& stats() const { return stats_; }
  const IpReassemblyBuffer& pool() const { return pool_; }

 private:
  struct ObsHandles {
    Counter* fragments{nullptr};
    Counter* malformed{nullptr};
    Counter* datagrams_ok{nullptr};
    Counter* datagrams_bad_crc{nullptr};
    Counter* bus_bytes{nullptr};
    Counter* bytes_delivered{nullptr};
    Gauge* pool_lockups{nullptr};
    Gauge* pool_frags_dropped{nullptr};
    Histogram* delivery_latency{nullptr};
  };

  Clock& clock_;
  IpReceiverConfig cfg_;
  ObsHandles m_;
  IpReassemblyBuffer pool_;
  std::map<std::uint32_t, std::uint32_t> stream_base_;  ///< dgram → base
  std::map<std::uint32_t, SimTime> first_fragment_at_;
  std::vector<std::uint8_t> app_buffer_;
  std::uint64_t bytes_delivered_{0};
  Stats stats_;
};

}  // namespace chunknet
