#include "src/baselines/alt_transports.hpp"

#include <algorithm>

#include "src/common/bytes.hpp"
#include "src/edc/crc32.hpp"

namespace chunknet {

namespace {

void send_ack(const std::function<void(std::vector<std::uint8_t>)>& out,
              std::uint32_t seq) {
  if (!out) return;
  std::vector<std::uint8_t> ack;
  ByteWriter w(ack);
  w.u8('A');
  w.u32(seq);
  out(ack);
}

std::uint32_t parse_ack(const SimPacket& pkt) {
  if (pkt.bytes.size() != 5 || pkt.bytes[0] != 'A') return 0xFFFFFFFFu;
  ByteReader r(pkt.bytes);
  r.u8();
  return r.u32();
}

}  // namespace

// ------------------------------------------------------------ XTP-like

XtpLikeSender::XtpLikeSender(Simulator& sim, XtpConfig cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      rto_(cfg_.rto, cfg_.retransmit_timeout) {}

void XtpLikeSender::send_stream(std::span<const std::uint8_t> stream) {
  started_ = true;
  const std::size_t body =
      cfg_.mtu - kXtpHeaderBytes - kXtpTrailerBytes;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t n = std::min(body, stream.size() - pos);
    Pending p;
    ByteWriter w(p.packet);
    w.u32(0x5E17);                            // key
    w.u32(static_cast<std::uint32_t>(pos));   // byte seq
    w.u32(static_cast<std::uint32_t>(n));     // dlen
    w.u32(pos + n >= stream.size() ? 1u : 0u);  // ETAG
    w.bytes(stream.subspan(pos, n));
    w.u32(crc32(std::span<const std::uint8_t>(p.packet)));  // per-PDU check

    const auto seq = static_cast<std::uint32_t>(pos);
    auto [it, _] = outstanding_.emplace(seq, std::move(p));
    ++stats_.pdus_sent;
    transmit(seq, it->second);
    pos += n;
  }
}

void XtpLikeSender::transmit(std::uint32_t seq, Pending& p) {
  ++p.attempts;
  p.last_sent = sim_.now();
  if (p.attempts > 1) p.retransmitted = true;
  stats_.bytes_sent += p.packet.size();
  ++stats_.packets_sent;
  if (cfg_.send_packet) cfg_.send_packet(p.packet);
  arm_timer(seq);
}

void XtpLikeSender::arm_timer(std::uint32_t seq) {
  const SimTime armed_at = sim_.now();
  const SimTime timeout =
      cfg_.rto.adaptive ? rto_.rto() : cfg_.retransmit_timeout;
  sim_.arm_in(timeout, [this, seq, armed_at] {
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) return;
    if (it->second.last_sent > armed_at) return;
    if (it->second.attempts > cfg_.max_retransmits) {
      ++stats_.gave_up;
      outstanding_.erase(it);
      return;
    }
    rto_.on_timeout();
    ++stats_.retransmissions;
    transmit(seq, it->second);
  });
}

void XtpLikeSender::on_packet(SimPacket pkt) {
  const std::uint32_t seq = parse_ack(pkt);
  auto it = outstanding_.find(seq);
  if (it == outstanding_.end()) return;
  rto_.on_sample(sim_.now() - it->second.last_sent,
                 it->second.retransmitted);
  outstanding_.erase(it);
}

XtpLikeReceiver::XtpLikeReceiver(
    Simulator& sim, std::size_t app_buffer_bytes,
    std::function<void(std::vector<std::uint8_t>)> send_control)
    : sim_(sim),
      send_control_(std::move(send_control)),
      app_buffer_(app_buffer_bytes, 0) {}

void XtpLikeReceiver::on_packet(SimPacket pkt) {
  if (pkt.bytes.size() < kXtpHeaderBytes + kXtpTrailerBytes) return;
  const std::span<const std::uint8_t> view(pkt.bytes);
  ByteReader r(view);
  const std::uint32_t key = r.u32();
  const std::uint32_t seq = r.u32();
  const std::uint32_t dlen = r.u32();
  r.u32();  // flags
  if (key != 0x5E17 ||
      pkt.bytes.size() != kXtpHeaderBytes + dlen + kXtpTrailerBytes) {
    return;
  }
  const auto body = r.bytes(dlen);
  const std::uint32_t check = r.u32();
  if (check != crc32(view.subspan(0, kXtpHeaderBytes + dlen))) {
    ++stats_.pdus_bad_check;
    return;
  }
  // Byte seq places the payload — XTP can process disordered arrivals.
  if (coverage_.covers(seq, seq + dlen)) {
    ++stats_.duplicates;
    send_ack(send_control_, seq);  // re-ack so the sender stops
    return;
  }
  if (static_cast<std::size_t>(seq) + dlen <= app_buffer_.size()) {
    std::copy(body.begin(), body.end(), app_buffer_.begin() + seq);
    coverage_.add(seq, seq + dlen);
    stats_.bus_bytes += dlen;
    const double latency = static_cast<double>(sim_.now() - pkt.created_at);
    for (std::uint32_t i = 0; i < dlen / 4; ++i) {
      stats_.delivery_latency_ns.push_back(latency);
    }
  }
  ++stats_.pdus_ok;
  send_ack(send_control_, seq);
}

// ------------------------------------------------- MTU-discovery (opt 4)

MtuDiscoverySender::MtuDiscoverySender(Simulator& sim, MtuDiscoveryConfig cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      rto_(cfg_.rto, cfg_.retransmit_timeout) {}

void MtuDiscoverySender::send_stream(std::span<const std::uint8_t> stream) {
  started_ = true;
  const std::size_t body =
      cfg_.path_mtu - kMtuDiscHeaderBytes - kMtuDiscTrailerBytes;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t n = std::min(body, stream.size() - pos);
    Pending p;
    ByteWriter w(p.packet);
    w.u32(static_cast<std::uint32_t>(pos));
    w.u16(static_cast<std::uint16_t>(n));
    w.u8(pos + n >= stream.size() ? 1 : 0);
    w.bytes(stream.subspan(pos, n));
    w.u32(crc32(std::span<const std::uint8_t>(p.packet)));

    const auto seq = static_cast<std::uint32_t>(pos);
    auto [it, _] = outstanding_.emplace(seq, std::move(p));
    ++stats_.pdus_sent;
    transmit(seq, it->second);
    pos += n;
  }
}

void MtuDiscoverySender::transmit(std::uint32_t seq, Pending& p) {
  ++p.attempts;
  p.last_sent = sim_.now();
  if (p.attempts > 1) p.retransmitted = true;
  stats_.bytes_sent += p.packet.size();
  ++stats_.packets_sent;
  if (cfg_.send_packet) cfg_.send_packet(p.packet);
  arm_timer(seq);
}

void MtuDiscoverySender::arm_timer(std::uint32_t seq) {
  const SimTime armed_at = sim_.now();
  const SimTime timeout =
      cfg_.rto.adaptive ? rto_.rto() : cfg_.retransmit_timeout;
  sim_.arm_in(timeout, [this, seq, armed_at] {
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) return;
    if (it->second.last_sent > armed_at) return;
    if (it->second.attempts > cfg_.max_retransmits) {
      ++stats_.gave_up;
      outstanding_.erase(it);
      return;
    }
    rto_.on_timeout();
    ++stats_.retransmissions;
    transmit(seq, it->second);
  });
}

void MtuDiscoverySender::on_packet(SimPacket pkt) {
  const std::uint32_t seq = parse_ack(pkt);
  auto it = outstanding_.find(seq);
  if (it == outstanding_.end()) return;
  rto_.on_sample(sim_.now() - it->second.last_sent,
                 it->second.retransmitted);
  outstanding_.erase(it);
}

MtuDiscoveryReceiver::MtuDiscoveryReceiver(
    Simulator& sim, std::size_t app_buffer_bytes,
    std::function<void(std::vector<std::uint8_t>)> send_control)
    : sim_(sim),
      send_control_(std::move(send_control)),
      app_buffer_(app_buffer_bytes, 0) {}

void MtuDiscoveryReceiver::on_packet(SimPacket pkt) {
  if (pkt.bytes.size() < kMtuDiscHeaderBytes + kMtuDiscTrailerBytes) return;
  const std::span<const std::uint8_t> view(pkt.bytes);
  ByteReader r(view);
  const std::uint32_t seq = r.u32();
  const std::uint16_t dlen = r.u16();
  r.u8();  // flags
  if (pkt.bytes.size() !=
      kMtuDiscHeaderBytes + dlen + kMtuDiscTrailerBytes) {
    return;
  }
  const auto body = r.bytes(dlen);
  const std::uint32_t check = r.u32();
  if (check != crc32(view.subspan(0, kMtuDiscHeaderBytes + dlen))) {
    ++stats_.pdus_bad_check;
    return;
  }
  if (coverage_.covers(seq, static_cast<std::uint64_t>(seq) + dlen)) {
    ++stats_.duplicates;
    send_ack(send_control_, seq);
    return;
  }
  if (static_cast<std::size_t>(seq) + dlen <= app_buffer_.size()) {
    std::copy(body.begin(), body.end(), app_buffer_.begin() + seq);
    coverage_.add(seq, static_cast<std::uint64_t>(seq) + dlen);
    stats_.bus_bytes += dlen;
    const double latency = static_cast<double>(sim_.now() - pkt.created_at);
    for (std::uint32_t i = 0; i < dlen / 4u; ++i) {
      stats_.delivery_latency_ns.push_back(latency);
    }
  }
  ++stats_.pdus_ok;
  send_ack(send_control_, seq);
}

}  // namespace chunknet
