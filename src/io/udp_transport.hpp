// Chunk transport over a real UDP socket: the glue that runs
// ChunkTransportSender / ChunkTransportReceiver on an EventLoop (whose
// clock() is their clock) and a UdpEndpoint.
//
// A session owns the endpoint, wires the transport's send_packet /
// send_control callbacks into the endpoint's TX queue, and feeds
// received datagrams back in: the receiver side screens them through
// an IngressGuard first (rate limit, strict decode, refusal memory)
// and then hands each ChunkView straight to on_chunk_view — the
// zero-copy ingest path, with the pooled buffer held alive across the
// views that point into it. Every CreditGrant the receiver sends
// credits the guard with the grant's increase, so a flow-controlled
// peer is paced by the credit its receiver grants, not by the guard's
// per-source token bucket.
//
// Control is coalesced, not suppressed: the ACKs and grants one poll
// iteration produces are queued and, at the loop's deferred step, packed
// whole (never split) into as few envelopes as fit the endpoint's
// max_datagram — "as many chunks as fit can be placed in a single
// packet" (paper §2). Every chunk is still sent; the envelopes leave in
// the same sendmmsg batch as the endpoint's flush that follows.
//
// Shutdown is truthful: drain() flushes what it can until a deadline
// and then reports exactly what was abandoned — TPDUs the sender gave
// up on (by RTO exhaustion or by the drain itself) and datagrams that
// never reached the wire. Nothing is silently discarded.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "src/io/event_loop.hpp"
#include "src/io/ingress_guard.hpp"
#include "src/io/udp_endpoint.hpp"
#include "src/transport/receiver.hpp"
#include "src/transport/sender.hpp"

namespace chunknet {

/// What a graceful drain actually delivered — the session's exit
/// receipt. `clean` iff every TPDU was positively acked and no queued
/// datagram was thrown away.
struct DrainReport {
  std::uint64_t tpdus_acked{0};
  std::uint64_t tpdus_gave_up{0};      ///< RTO exhaustion before drain
  std::uint64_t tpdus_abandoned{0};    ///< still outstanding at deadline
  std::uint64_t datagrams_unsent{0};   ///< TX queue dropped at close
  bool clean{false};
};

struct UdpSenderSessionConfig {
  /// Where the receiver listens. Required.
  UdpAddress peer{};
  /// Local bind (default: ephemeral loopback).
  UdpAddress bind{};
  /// Transport configuration. send_packet and (unless `timers` is set)
  /// the clock, the loop's clock(), are provided by the session;
  /// everything else is the caller's.
  SenderConfig sender{};
  /// Endpoint tuning (peer/bind/obs are overwritten by the session).
  UdpEndpointConfig endpoint{};
  ObsContext* obs{nullptr};
};

class UdpSenderSession {
 public:
  UdpSenderSession(EventLoop& loop, UdpSenderSessionConfig cfg);

  bool ok() const { return endpoint_->ok(); }
  UdpEndpoint& endpoint() { return *endpoint_; }
  ChunkTransportSender& sender() { return *sender_; }

  void send_stream(std::span<const std::uint8_t> stream) {
    sender_->send_stream(stream);
  }

  /// Pumps the loop until every TPDU is resolved (acked or given up)
  /// AND the TX queue is empty, or `deadline` (loop time) passes.
  bool run_until_finished(SimTime deadline);

  /// Graceful shutdown with truthful accounting: pump until finished
  /// or `deadline`, abandon whatever is still outstanding, flush/close
  /// the socket, and report exactly what happened.
  DrainReport drain(SimTime deadline);

 private:
  EventLoop& loop_;
  PacketBufferPool feedback_pool_;  ///< outlives the endpoint
  std::unique_ptr<UdpEndpoint> endpoint_;
  std::unique_ptr<ChunkTransportSender> sender_;
};

struct UdpReceiverSessionConfig {
  /// Where to listen. Required (a receiver with an ephemeral port is
  /// fine for tests; read it back via endpoint().local_addr()).
  UdpAddress bind{};
  /// Transport configuration. send_control and (unless `timers` is set)
  /// the clock, the loop's clock(), are provided by the session.
  ReceiverConfig receiver{};
  UdpEndpointConfig endpoint{};
  IngressGuardConfig guard{};
  ObsContext* obs{nullptr};
};

class UdpReceiverSession {
 public:
  UdpReceiverSession(EventLoop& loop, UdpReceiverSessionConfig cfg);
  ~UdpReceiverSession();

  UdpReceiverSession(const UdpReceiverSession&) = delete;
  UdpReceiverSession& operator=(const UdpReceiverSession&) = delete;

  bool ok() const { return endpoint_->ok(); }
  UdpEndpoint& endpoint() { return *endpoint_; }
  ChunkTransportReceiver& receiver() { return *receiver_; }
  IngressGuard& guard() { return *guard_; }

  /// Pumps the loop until the stream covers `total_elements` or
  /// `deadline` passes.
  bool run_until_complete(std::uint64_t total_elements, SimTime deadline);

  /// Flushes pending control traffic (queued control chunks, then the
  /// TX queue) until `deadline`, then closes. Returns datagrams
  /// abandoned unsent.
  std::uint64_t drain(SimTime deadline);

 private:
  void handle_datagram(PooledBuffer&& buf, const UdpAddress& from);
  /// Packs the queued control chunks into envelopes to reply_to_.
  void flush_control();

  EventLoop& loop_;
  UdpReceiverSessionConfig cfg_;
  PacketBufferPool rx_pool_;  ///< outlives the endpoint that holds its buffers
  std::unique_ptr<UdpEndpoint> endpoint_;
  std::unique_ptr<IngressGuard> guard_;
  std::unique_ptr<ChunkTransportReceiver> receiver_;
  std::vector<ChunkView> view_scratch_;
  /// Control chunks of the current poll iteration, and their views.
  std::vector<Chunk> ctrl_queue_;
  std::vector<ChunkView> ctrl_views_;
  bool ctrl_deferred_{false};
  /// Control replies go to the source of the last admitted datagram —
  /// which survives a SENDER restart from a new ephemeral port.
  std::optional<UdpAddress> reply_to_;
  /// Trace packet id: admitted datagrams of this session, counted.
  std::uint64_t rx_datagrams_{0};
  /// Highest credit limit granted so far; each grant credits the guard
  /// with its increase over this.
  std::uint64_t credit_granted_{0};
};

}  // namespace chunknet
