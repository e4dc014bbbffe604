#include "src/io/udp_transport.hpp"

#include <utility>

#include "src/chunk/codec.hpp"
#include "src/transport/signalling.hpp"

namespace chunknet {

UdpSenderSession::UdpSenderSession(EventLoop& loop,
                                   UdpSenderSessionConfig cfg)
    : loop_(loop) {
  UdpEndpointConfig ec = cfg.endpoint;
  ec.bind = cfg.bind;
  ec.peer = cfg.peer;
  if (ec.obs == nullptr) ec.obs = cfg.obs;
  if (ec.pool == nullptr) ec.pool = &feedback_pool_;
  endpoint_ = std::make_unique<UdpEndpoint>(loop, std::move(ec));

  SenderConfig sc = std::move(cfg.sender);
  if (sc.obs == nullptr) sc.obs = cfg.obs;
  sc.send_packet = [this](PacketBytes bytes) {
    endpoint_->send(std::move(bytes));
  };
  sender_ =
      std::make_unique<ChunkTransportSender>(loop.clock(), std::move(sc));

  // Feedback path: ACK/NAK/grant packets from the receiver. The sender
  // decodes the envelope itself; malformed feedback dies in its strict
  // decoder exactly like malformed data dies in the receiver's.
  endpoint_->on_datagram(
      [this](PooledBuffer&& buf, const UdpAddress& /*from*/) {
        sender_->on_packet(SimPacket{.bytes = buf.take()});
      });
}

bool UdpSenderSession::run_until_finished(SimTime deadline) {
  return loop_.run_until(
      [this] {
        return sender_->finished() && endpoint_->tx_queued() == 0;
      },
      deadline);
}

DrainReport UdpSenderSession::drain(SimTime deadline) {
  run_until_finished(deadline);
  DrainReport r;
  r.tpdus_gave_up = sender_->stats().gave_up;
  r.tpdus_abandoned = sender_->abandon_outstanding();
  r.tpdus_acked = sender_->stats().tpdus_acked;
  r.datagrams_unsent = endpoint_->shutdown(deadline);
  r.clean = r.tpdus_gave_up == 0 && r.tpdus_abandoned == 0 &&
            r.datagrams_unsent == 0;
  return r;
}

UdpReceiverSession::UdpReceiverSession(EventLoop& loop,
                                       UdpReceiverSessionConfig cfg)
    : loop_(loop), cfg_(std::move(cfg)) {
  UdpEndpointConfig ec = cfg_.endpoint;
  ec.bind = cfg_.bind;
  ec.peer.reset();  // receivers answer whoever shows up
  if (ec.obs == nullptr) ec.obs = cfg_.obs;
  if (ec.pool == nullptr) ec.pool = &rx_pool_;
  endpoint_ = std::make_unique<UdpEndpoint>(loop, std::move(ec));

  IngressGuardConfig gc = cfg_.guard;
  if (gc.obs == nullptr) gc.obs = cfg_.obs;
  guard_ = std::make_unique<IngressGuard>(gc);

  ReceiverConfig rc = std::move(cfg_.receiver);
  if (rc.obs == nullptr) rc.obs = cfg_.obs;
  rc.send_control = [this](Chunk ctrl) {
    if (!reply_to_.has_value()) return;  // no admitted sender yet
    // A grant asks the peer for more data: let that much of it past
    // the guard's token bucket.
    if (const auto grant = parse_credit_grant(ctrl);
        grant.has_value() && grant->credit_limit_bytes > credit_granted_) {
      guard_->credit(*reply_to_, grant->credit_limit_bytes - credit_granted_);
      credit_granted_ = grant->credit_limit_bytes;
    }
    PacketBytes body =
        encode_packet(std::span<const Chunk>(&ctrl, 1), 1500);
    endpoint_->send_to(std::move(body), *reply_to_);
  };
  receiver_ =
      std::make_unique<ChunkTransportReceiver>(loop.clock(), std::move(rc));

  endpoint_->on_datagram([this](PooledBuffer&& buf, const UdpAddress& from) {
    handle_datagram(std::move(buf), from);
  });
}

void UdpReceiverSession::handle_datagram(PooledBuffer&& buf,
                                         const UdpAddress& from) {
  const SimTime now = loop_.clock().now();
  const IngressGuard::Verdict v =
      guard_->screen(buf.bytes(), from, now, view_scratch_);
  if (v != IngressGuard::Verdict::kAccept) return;  // counted by the guard

  // An accepted datagram that carries only foreign C.IDs teaches the
  // refusal memory; one that carries ours updates the reply path.
  bool any_ours = false;
  for (const ChunkView& cv : view_scratch_) {
    if (cv.h.conn.id == cfg_.receiver.connection_id) {
      any_ours = true;
      break;
    }
  }
  if (!any_ours) {
    for (const ChunkView& cv : view_scratch_) {
      guard_->remember_refusal(cv.h.conn.id, now);
    }
    return;
  }
  reply_to_ = from;

  const std::uint64_t pkt_id = ++rx_datagrams_;
  // The pooled buffer stays alive (and unmoved) in `buf` for the whole
  // loop — the views alias it. ~PooledBuffer recycles it afterwards.
  for (const ChunkView& cv : view_scratch_) {
    receiver_->on_chunk_view(cv, now, pkt_id);
  }
  view_scratch_.clear();
}

bool UdpReceiverSession::run_until_complete(std::uint64_t total_elements,
                                            SimTime deadline) {
  return loop_.run_until(
      [this, total_elements] {
        return receiver_->stream_complete(total_elements);
      },
      deadline);
}

std::uint64_t UdpReceiverSession::drain(SimTime deadline) {
  // Let queued ACKs out before closing; the sender's RTO depends on
  // the last ACK making it more often than not.
  loop_.run_until([this] { return endpoint_->tx_queued() == 0; }, deadline);
  return endpoint_->shutdown(deadline);
}

}  // namespace chunknet
