#include "src/baselines/alt_transports.hpp"

#include <algorithm>

#include "src/common/bytes.hpp"
#include "src/edc/crc32.hpp"

namespace chunknet {
namespace {

constexpr std::uint32_t kXtpKey = 0x5E17;

// The only place the two layouts differ.
void write_header(ByteWriter& w, PduHeader h, std::uint32_t seq,
                  std::uint32_t dlen, bool last) {
  const bool xtp = h == PduHeader::kXtp;
  if (xtp) w.u32(kXtpKey);
  w.u32(seq);
  if (xtp) {
    w.u32(dlen);
    w.u32(last ? 1u : 0u);  // flags: bit0 ETAG
  } else {
    w.u16(static_cast<std::uint16_t>(dlen));
    w.u8(last ? 1 : 0);
  }
}

/// Reads seq and dlen and skips the flags; false on a foreign XTP key.
bool read_header(ByteReader& r, PduHeader h, std::uint32_t& seq,
                 std::uint32_t& dlen) {
  const bool xtp = h == PduHeader::kXtp;
  if (xtp && r.u32() != kXtpKey) return false;
  seq = r.u32();
  dlen = xtp ? r.u32() : r.u16();
  r.bytes(xtp ? 4 : 1);
  return true;
}

}  // namespace

PduPerPacketSender::PduPerPacketSender(Clock& clock, PduPerPacketConfig cfg)
    : clock_(clock),
      cfg_(std::move(cfg)),
      rto_(cfg_.rto, cfg_.retransmit_timeout) {}

void PduPerPacketSender::send_stream(std::span<const std::uint8_t> stream) {
  started_ = true;
  const std::size_t body =
      cfg_.mtu - pdu_header_bytes(cfg_.header) - kPduTrailerBytes;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t n = std::min(body, stream.size() - pos);
    const auto seq = static_cast<std::uint32_t>(pos);
    Pending p;
    ByteWriter w(p.packet);
    write_header(w, cfg_.header, seq, static_cast<std::uint32_t>(n),
                 pos + n >= stream.size());
    w.bytes(stream.subspan(pos, n));
    w.u32(crc32(std::span<const std::uint8_t>(p.packet)));  // per-PDU check
    auto [it, _] = outstanding_.emplace(seq, std::move(p));
    ++stats_.pdus_sent;
    transmit(seq, it->second);
    pos += n;
  }
}

void PduPerPacketSender::transmit(std::uint32_t seq, Pending& p) {
  if (++p.attempts > 1) p.retransmitted = true;
  p.last_sent = clock_.now();
  stats_.bytes_sent += p.packet.size();
  ++stats_.packets_sent;
  // A synchronous ACK may retire `p` inside send_packet: touch only seq.
  if (cfg_.send_packet) cfg_.send_packet(p.packet);
  const SimTime armed_at = clock_.now();
  const SimTime timeout =
      cfg_.rto.adaptive ? rto_.rto() : cfg_.retransmit_timeout;
  clock_.arm_in(timeout, [this, seq, armed_at] {
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end() || it->second.last_sent > armed_at) return;
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

void PduPerPacketSender::on_packet(SimPacket pkt) {
  if (pkt.bytes.size() != 5 || pkt.bytes[0] != 'A') return;
  ByteReader r(std::span<const std::uint8_t>(pkt.bytes).subspan(1));
  auto it = outstanding_.find(r.u32());
  if (it == outstanding_.end()) return;
  rto_.on_sample(clock_.now() - it->second.last_sent,
                 it->second.retransmitted);
  outstanding_.erase(it);
}

PduPerPacketReceiver::PduPerPacketReceiver(
    Clock& clock, PduHeader header, std::size_t app_buffer_bytes,
    std::function<void(std::vector<std::uint8_t>)> send_control)
    : clock_(clock),
      header_(header),
      send_control_(std::move(send_control)),
      app_buffer_(app_buffer_bytes, 0) {}

void PduPerPacketReceiver::on_packet(SimPacket pkt) {
  const std::span<const std::uint8_t> view(pkt.bytes);
  ByteReader r(view);
  std::uint32_t seq = 0;
  std::uint32_t dlen = 0;
  if (!read_header(r, header_, seq, dlen) ||
      view.size() != pdu_header_bytes(header_) + dlen + kPduTrailerBytes) {
    return;
  }
  const auto body = r.bytes(dlen);
  const std::uint32_t check = r.u32();
  if (check != crc32(view.first(view.size() - kPduTrailerBytes))) {
    ++stats_.pdus_bad_check;
    return;
  }
  // Byte seq places the payload — each PDU is processed on arrival,
  // in whatever order the network delivers it.
  const std::uint64_t end = std::uint64_t{seq} + dlen;
  if (coverage_.covers(seq, end)) {
    ++stats_.duplicates;  // re-ack below so the sender stops
  } else {
    if (end <= app_buffer_.size()) {
      std::copy(body.begin(), body.end(), app_buffer_.begin() + seq);
      coverage_.add(seq, end);
      stats_.bus_bytes += dlen;
      auto& latency = stats_.delivery_latency_ns;  // one sample per word
      latency.insert(latency.end(), dlen / 4,
                     static_cast<double>(clock_.now() - pkt.created_at));
    }
    ++stats_.pdus_ok;
  }
  if (send_control_) {
    std::vector<std::uint8_t> ack{'A'};
    ByteWriter(ack).u32(seq);
    send_control_(std::move(ack));
  }
}

}  // namespace chunknet
