#include "src/baselines/inorder_stream.hpp"

#include <algorithm>

#include "src/common/bytes.hpp"
#include "src/edc/crc32.hpp"

namespace chunknet {

namespace {

void send_ack(const std::function<void(std::vector<std::uint8_t>)>& out,
              std::uint32_t next_expected) {
  if (!out) return;
  std::vector<std::uint8_t> ack;
  ByteWriter w(ack);
  w.u8('A');
  w.u32(next_expected);
  out(ack);
}

std::uint32_t parse_ack(const SimPacket& pkt) {
  if (pkt.bytes.size() != 5 || pkt.bytes[0] != 'A') return 0xFFFFFFFFu;
  ByteReader r(pkt.bytes);
  r.u8();
  return r.u32();
}

}  // namespace

// --------------------------------------------------------------- sender

InOrderStreamSender::InOrderStreamSender(Simulator& sim,
                                         InOrderStreamConfig cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      rto_(cfg_.rto, cfg_.retransmit_timeout) {}

void InOrderStreamSender::send_stream(
    std::span<const std::uint8_t> stream) {
  started_ = true;
  const std::size_t body =
      cfg_.mtu - kInOrderHeaderBytes - kInOrderTrailerBytes;
  std::size_t pos = 0;
  std::uint32_t seq = 0;
  while (pos < stream.size()) {
    const std::size_t n = std::min(body, stream.size() - pos);
    Segment s;
    ByteWriter w(s.packet);
    w.u8('D');
    w.u32(seq);
    w.u16(static_cast<std::uint16_t>(n));
    w.bytes(stream.subspan(pos, n));
    w.u32(crc32(std::span<const std::uint8_t>(s.packet)));
    segments_.push_back(std::move(s));
    pos += n;
    ++seq;
  }
  fill_window();
  if (base_ < next_) arm_timer();
}

void InOrderStreamSender::transmit(std::size_t idx) {
  Segment& s = segments_[idx];
  ++s.attempts;
  s.last_sent = sim_.now();
  if (s.attempts > 1) s.retransmitted = true;
  stats_.bytes_sent += s.packet.size();
  ++stats_.packets_sent;
  if (cfg_.send_packet) cfg_.send_packet(s.packet);
}

void InOrderStreamSender::fill_window() {
  if (stats_.gave_up > 0) return;
  while (next_ < segments_.size() &&
         next_ < base_ + cfg_.window_segments) {
    transmit(next_);
    ++next_;
    ++stats_.segments_sent;
  }
  const bool full = base_ < segments_.size() &&
                    next_ >= base_ + cfg_.window_segments;
  note_window(full);
}

void InOrderStreamSender::note_window(bool full_now) {
  if (full_now && !window_full_) {
    window_full_ = true;
    window_full_since_ = sim_.now();
  } else if (!full_now && window_full_) {
    window_full_ = false;
    stats_.window_stall_ns += sim_.now() - window_full_since_;
  }
}

void InOrderStreamSender::arm_timer() {
  // One retransmission timer covering the head of the window; re-arming
  // invalidates every older pending timer (TCP's single-timer model).
  const SimTime timeout =
      cfg_.rto.adaptive ? rto_.rto() : cfg_.retransmit_timeout;
  const std::uint64_t gen = ++timer_gen_;
  sim_.arm_in(timeout, [this, gen] {
    if (gen != timer_gen_) return;  // superseded by a newer arm
    if (stats_.gave_up > 0 || base_ >= segments_.size()) return;
    Segment& s = segments_[base_];
    if (s.attempts > cfg_.max_retransmits) {
      // Abandon the whole stream: a byte-stream transport cannot skip
      // over the head of line.
      stats_.gave_up = 1;
      note_window(false);
      return;
    }
    rto_.on_timeout();
    ++stats_.timeouts;
    ++stats_.retransmissions;
    dupack_count_ = 0;
    fast_retx_done_ = false;
    transmit(base_);
    arm_timer();
  });
}

void InOrderStreamSender::on_packet(SimPacket pkt) {
  const std::uint32_t ack = parse_ack(pkt);
  if (ack == 0xFFFFFFFFu || ack > segments_.size() || stats_.gave_up > 0) {
    return;
  }
  if (ack > base_) {
    // Karn: sample RTT only from a never-retransmitted segment.
    const Segment& s = segments_[ack - 1];
    if (!s.retransmitted) rto_.on_sample(sim_.now() - s.last_sent, false);
    base_ = ack;
    dupack_count_ = 0;
    fast_retx_done_ = false;
    fill_window();
    if (base_ < next_) {
      arm_timer();
    } else {
      ++timer_gen_;  // nothing outstanding: cancel the pending timer
      note_window(false);
    }
  } else if (ack == base_ && base_ < next_) {
    ++stats_.dupacks;
    if (++dupack_count_ >= cfg_.dupack_threshold && !fast_retx_done_) {
      fast_retx_done_ = true;
      ++stats_.retransmissions;
      ++stats_.fast_retransmits;
      transmit(base_);
      arm_timer();
    }
  }
}

// ------------------------------------------------------------- receiver

InOrderStreamReceiver::InOrderStreamReceiver(
    Simulator& sim, std::size_t app_buffer_bytes,
    std::function<void(std::vector<std::uint8_t>)> send_control)
    : sim_(sim),
      send_control_(std::move(send_control)),
      app_buffer_(app_buffer_bytes, 0) {}

void InOrderStreamReceiver::account_occupancy() {
  const SimTime now = sim_.now();
  stats_.reseq_byte_ns += stats_.reseq_bytes_now * (now - occupancy_mark_);
  occupancy_mark_ = now;
}

void InOrderStreamReceiver::on_packet(SimPacket pkt) {
  if (pkt.bytes.size() < kInOrderHeaderBytes + kInOrderTrailerBytes) {
    return;
  }
  const std::span<const std::uint8_t> view(pkt.bytes);
  ByteReader r(view);
  if (r.u8() != 'D') return;
  const std::uint32_t seq = r.u32();
  const std::uint16_t dlen = r.u16();
  if (pkt.bytes.size() != kInOrderHeaderBytes + dlen + kInOrderTrailerBytes) {
    return;
  }
  const auto body = r.bytes(dlen);
  const std::uint32_t check = r.u32();
  if (check != crc32(view.subspan(0, kInOrderHeaderBytes + dlen))) {
    ++stats_.segments_bad_check;
    return;  // corrupt segments earn no ACK
  }

  if (seq == next_expected_) {
    // In-order: deliver, then drain every consecutive parked segment.
    if (delivered_bytes_ + dlen <= app_buffer_.size()) {
      std::copy(body.begin(), body.end(),
                app_buffer_.begin() +
                    static_cast<std::ptrdiff_t>(delivered_bytes_));
      delivered_bytes_ += dlen;
      stats_.bus_bytes += dlen;
      stats_.delivery_latency_ns.push_back(
          static_cast<double>(sim_.now() - pkt.created_at));
    }
    ++stats_.segments_ok;
    ++next_expected_;
    while (!parked_.empty() && parked_.begin()->first == next_expected_) {
      account_occupancy();
      Parked& p = parked_.begin()->second;
      if (delivered_bytes_ + p.payload.size() <= app_buffer_.size()) {
        std::copy(p.payload.begin(), p.payload.end(),
                  app_buffer_.begin() +
                      static_cast<std::ptrdiff_t>(delivered_bytes_));
        delivered_bytes_ += p.payload.size();
        stats_.bus_bytes += p.payload.size();
        stats_.delivery_latency_ns.push_back(
            static_cast<double>(sim_.now() - p.created_at));
      }
      stats_.reseq_bytes_now -= p.payload.size();
      parked_.erase(parked_.begin());
      ++next_expected_;
    }
    if (parked_.empty() && stalled_) {
      stats_.hol_stall_ns += sim_.now() - stall_start_;
      stalled_ = false;
    }
  } else if (seq > next_expected_) {
    // A gap: park the segment and stall the head of line.
    if (parked_.count(seq) != 0) {
      ++stats_.duplicates;
    } else {
      account_occupancy();
      if (parked_.empty()) {
        stall_start_ = sim_.now();
        stalled_ = true;
        ++stats_.hol_stalls;
      }
      Parked p;
      p.payload.assign(body.begin(), body.end());
      p.created_at = pkt.created_at;
      stats_.reseq_bytes_now += p.payload.size();
      stats_.reseq_bytes_peak =
          std::max(stats_.reseq_bytes_peak, stats_.reseq_bytes_now);
      ++stats_.reseq_buffered_segments;
      ++stats_.segments_ok;
      parked_.emplace(seq, std::move(p));
    }
  } else {
    ++stats_.duplicates;  // already delivered
  }
  send_ack(send_control_, next_expected_);
}

}  // namespace chunknet
