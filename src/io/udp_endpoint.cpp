#include "src/io/udp_endpoint.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <string.h>
#include <sys/socket.h>

#include <algorithm>

namespace chunknet {

namespace {

sockaddr_in to_sockaddr(const UdpAddress& a) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(a.ip_host_order);
  sa.sin_port = htons(a.port);
  return sa;
}

UdpAddress from_sockaddr(const sockaddr_in& sa) {
  UdpAddress a;
  a.ip_host_order = ntohl(sa.sin_addr.s_addr);
  a.port = ntohs(sa.sin_port);
  return a;
}

}  // namespace

UdpEndpoint::UdpEndpoint(EventLoop& loop, UdpEndpointConfig cfg)
    : loop_(loop),
      cfg_(cfg),
      sys_(loop.sys()),
      own_pool_(cfg.max_datagram),
      pool_(cfg.pool != nullptr ? cfg.pool : &own_pool_),
      tx_msgs_(cfg.tx_batch),
      tx_iovs_(cfg.tx_batch),
      tx_dests_(cfg.tx_batch),
      rx_msgs_(cfg.rx_batch),
      rx_iovs_(cfg.rx_batch),
      rx_srcs_(cfg.rx_batch),
      rx_bufs_(cfg.rx_batch) {
  if (cfg_.obs != nullptr && cfg_.obs->metrics != nullptr) {
    MetricsRegistry& m = *cfg_.obs->metrics;
    m_.datagrams_sent = &m.counter("io.datagrams_sent");
    m_.datagrams_received = &m.counter("io.datagrams_received");
    m_.eintr_retries = &m.counter("io.eintr_retries");
    m_.tx_eagain = &m.counter("io.tx_eagain");
    m_.tx_enobufs = &m.counter("io.tx_enobufs");
    m_.tx_partial_batches = &m.counter("io.tx_partial_batches");
    m_.tx_oversize_dropped = &m.counter("io.tx_oversize_dropped");
    m_.tx_queue_dropped = &m.counter("io.tx_queue_dropped");
    m_.rx_truncated_dropped = &m.counter("io.rx_truncated_dropped");
    m_.peer_unreachable = &m.counter("io.peer_unreachable");
    m_.reconnects = &m.counter("io.reconnects");
    m_.tx_backpressure = &m.gauge("io.tx_backpressure");
    m_.tx_queued_bytes = &m.gauge("io.tx_queued_bytes");
  }

  fd_ = sys_.sys_socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (fd_ < 0) {
    last_errno_ = errno;
    return;
  }
  if (cfg_.so_rcvbuf > 0) {
    sys_.sys_setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &cfg_.so_rcvbuf,
                        sizeof(cfg_.so_rcvbuf));
  }
  if (cfg_.so_sndbuf > 0) {
    sys_.sys_setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &cfg_.so_sndbuf,
                        sizeof(cfg_.so_sndbuf));
  }
  sockaddr_in sa = to_sockaddr(cfg_.bind);
  if (sys_.sys_bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) !=
      0) {
    last_errno_ = errno;
    sys_.sys_close(fd_);
    fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (sys_.sys_getsockname(fd_, reinterpret_cast<sockaddr*>(&bound),
                           &blen) == 0) {
    local_ = from_sockaddr(bound);
  }
  if (cfg_.peer.has_value()) {
    sockaddr_in peer = to_sockaddr(*cfg_.peer);
    if (sys_.sys_connect(fd_, reinterpret_cast<sockaddr*>(&peer),
                         sizeof(peer)) != 0) {
      last_errno_ = errno;
      sys_.sys_close(fd_);
      fd_ = -1;
      return;
    }
  }
  loop_.add_fd(fd_, EPOLLIN, [this](std::uint32_t ev) {
    if ((ev & EPOLLIN) != 0) handle_readable();
    if ((ev & EPOLLOUT) != 0) flush();
    if ((ev & EPOLLERR) != 0) {
      // A connected UDP socket raises EPOLLERR when an ICMP error is
      // queued; the error pops out of the NEXT send or recv. Read
      // first — that consumes the pending error (recvmmsg returns
      // ECONNREFUSED) even when the TX queue is empty, so a
      // level-triggered EPOLLERR cannot spin — then retry TX.
      handle_readable();
      flush();
    }
  });
}

UdpEndpoint::~UdpEndpoint() {
  loop_.cancel_deferred(this);
  loop_.clock().cancel(flush_timer_);
  if (fd_ >= 0) {
    loop_.del_fd(fd_);
    sys_.sys_close(fd_);
    fd_ = -1;
  }
  release_tx(txq_bytes_);
  txq_bytes_ = 0;
}

void UdpEndpoint::charge_tx(std::uint64_t bytes) {
  if (cfg_.governor != nullptr && bytes > 0) {
    cfg_.governor->charge(cfg_.governor_client, ResourceClass::kStaging,
                          bytes);
  }
  obs_add(m_.tx_queued_bytes, static_cast<std::int64_t>(bytes));
}

void UdpEndpoint::release_tx(std::uint64_t bytes) {
  if (cfg_.governor != nullptr && bytes > 0) {
    cfg_.governor->release(cfg_.governor_client, ResourceClass::kStaging,
                           bytes);
  }
  obs_add(m_.tx_queued_bytes, -static_cast<std::int64_t>(bytes));
}

void UdpEndpoint::send(PacketBytes bytes) {
  enqueue(TxDatagram{std::move(bytes), UdpAddress{}, false});
}

void UdpEndpoint::send_to(PacketBytes bytes, const UdpAddress& dest) {
  enqueue(TxDatagram{std::move(bytes), dest, true});
}

void UdpEndpoint::enqueue(TxDatagram d) {
  if (closed_ || fd_ < 0) {
    // The socket is gone; be honest about the loss.
    ++stats_.tx_queue_dropped;
    obs_add(m_.tx_queue_dropped);
    return;
  }
  if (d.bytes.size() > cfg_.max_datagram) {
    // Would be EMSGSIZE at the kernel anyway — reject up front so one
    // oversized envelope cannot wedge the head of the queue.
    ++stats_.tx_oversize_dropped;
    obs_add(m_.tx_oversize_dropped);
    return;
  }
  if (txq_.size() >= cfg_.max_tx_queue) {
    // Drop the NEWEST datagram: the queued head is oldest and most
    // likely to be an in-flight retransmit the peer is waiting on.
    ++stats_.tx_queue_dropped;
    obs_add(m_.tx_queue_dropped);
    return;
  }
  charge_tx(d.bytes.size());
  txq_bytes_ += d.bytes.size();
  txq_.push_back(std::move(d));
  if (txq_.size() >= cfg_.tx_batch) {
    flush();
  } else if (!flush_deferred_) {
    flush_deferred_ = true;
    loop_.defer(this, [this] {
      flush_deferred_ = false;
      flush();
    });
  }
}

void UdpEndpoint::drop_tx_head(std::uint64_t* counter, Counter* metric) {
  if (txq_.empty()) return;
  const std::uint64_t n = txq_.front().bytes.size();
  txq_.pop_front();
  txq_bytes_ -= n;
  release_tx(n);
  ++*counter;
  obs_add(metric);
}

void UdpEndpoint::flush() {
  if (fd_ < 0) return;
  while (!txq_.empty()) {
    const unsigned n = static_cast<unsigned>(
        std::min<std::size_t>(txq_.size(), cfg_.tx_batch));
    // Build the sendmmsg batch over the queue head. iovecs point into
    // the queued PacketBytes — valid until pop_front.
    for (unsigned i = 0; i < n; ++i) {
      TxDatagram& d = txq_[i];
      tx_iovs_[i].iov_base = d.bytes.data();
      tx_iovs_[i].iov_len = d.bytes.size();
      msghdr& h = tx_msgs_[i].msg_hdr;
      h = msghdr{};
      h.msg_iov = &tx_iovs_[i];
      h.msg_iovlen = 1;
      if (d.explicit_dest && !cfg_.peer.has_value()) {
        tx_dests_[i] = to_sockaddr(d.dest);
        h.msg_name = &tx_dests_[i];
        h.msg_namelen = sizeof(tx_dests_[i]);
      }
    }
    int sent = sys_.sys_sendmmsg(fd_, tx_msgs_.data(), n, 0);
    if (sent < 0) {
      const int err = errno;
      last_errno_ = err;
      switch (err) {
        case EINTR:
          ++stats_.eintr_retries;
          obs_add(m_.eintr_retries);
          continue;  // retry the same batch
        case EAGAIN:
#if EAGAIN != EWOULDBLOCK
        case EWOULDBLOCK:
#endif
          // Socket buffer full: keep the queue, let EPOLLOUT call back.
          ++stats_.tx_eagain;
          obs_add(m_.tx_eagain);
          update_epollout();
          return;
        case ENOBUFS:
          // Kernel is out of buffer memory. Dropping here would be the
          // silent-loss path; instead hold the queue (its bytes stay
          // charged to the governor, shrinking credit grants upstream)
          // and retry after a backoff.
          ++stats_.tx_enobufs;
          obs_add(m_.tx_enobufs);
          enter_backpressure();
          arm_flush_in(cfg_.enobufs_backoff);
          return;
        case EMSGSIZE:
          // Only the head datagram is at fault; drop it VISIBLY and
          // keep the rest of the queue moving.
          drop_tx_head(&stats_.tx_oversize_dropped, m_.tx_oversize_dropped);
          continue;
        case ECONNREFUSED:
          handle_conn_refused();
          return;
        default:
          // Unknown kernel refusal: treat like EAGAIN but bounded —
          // drop the head so a permanently poisoned datagram cannot
          // wedge the queue forever, then retry the rest later.
          drop_tx_head(&stats_.tx_queue_dropped, m_.tx_queue_dropped);
          arm_flush_in(cfg_.enobufs_backoff);
          return;
      }
    }
    ++stats_.sendmmsg_calls;
    if (static_cast<unsigned>(sent) < n) {
      ++stats_.tx_partial_batches;
      obs_add(m_.tx_partial_batches);
    }
    for (int i = 0; i < sent; ++i) {
      const std::uint64_t sz = txq_.front().bytes.size();
      txq_.pop_front();
      txq_bytes_ -= sz;
      release_tx(sz);
      ++stats_.datagrams_sent;
      stats_.bytes_sent += sz;
    }
    obs_add(m_.datagrams_sent, static_cast<std::uint64_t>(sent));
    // Progress resets the peer-gone backoff.
    reconnect_backoff_ = 0;
  }
  // Queue fully drained.
  leave_backpressure();
  update_epollout();
}

void UdpEndpoint::update_epollout() {
  const bool want = !txq_.empty();
  if (want == epollout_armed_ || fd_ < 0) return;
  // After shutdown() begins, RX interest stays off — a level-triggered
  // EPOLLIN on a socket we refuse to read would spin the drain loop.
  const std::uint32_t base = closed_ ? 0u : static_cast<std::uint32_t>(EPOLLIN);
  const std::uint32_t ev =
      base | (want ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (loop_.mod_fd(fd_, ev)) epollout_armed_ = want;
}

void UdpEndpoint::enter_backpressure() {
  if (backpressure_) return;
  backpressure_ = true;
  ++stats_.backpressure_episodes;
  obs_set(m_.tx_backpressure, 1);
  if (on_backpressure_) on_backpressure_(true);
}

void UdpEndpoint::leave_backpressure() {
  if (!backpressure_) return;
  backpressure_ = false;
  obs_set(m_.tx_backpressure, 0);
  if (on_backpressure_) on_backpressure_(false);
}

void UdpEndpoint::handle_conn_refused() {
  // ICMP port-unreachable from the peer: its socket is gone (process
  // died or restarted). Keep the queue — the transport's RTO state is
  // the source of truth for what must be retransmitted — and retry on
  // a bounded exponential backoff so a dead peer costs little CPU.
  ++stats_.peer_unreachable;
  obs_add(m_.peer_unreachable);
  if (reconnect_backoff_ == 0) {
    reconnect_backoff_ = cfg_.reconnect_backoff_min;
  } else {
    reconnect_backoff_ =
        std::min(reconnect_backoff_ * 2, cfg_.reconnect_backoff_max);
  }
  ++stats_.reconnects;
  obs_add(m_.reconnects);
  arm_flush_in(reconnect_backoff_);
  if (on_peer_unreachable_) on_peer_unreachable_();
}

void UdpEndpoint::arm_flush_in(SimTime delay) {
  if (flush_timer_ != 0) return;
  flush_timer_ = loop_.clock().arm_in(delay, [this] {
    flush_timer_ = 0;
    flush();
  });
}

void UdpEndpoint::handle_readable() {
  unsigned delivered = 0;
  while (delivered < cfg_.max_rx_per_poll) {
    const int got = rx_batch_once();
    if (got < 0) break;  // EAGAIN: drained
    delivered += static_cast<unsigned>(got);
    if (static_cast<unsigned>(got) < cfg_.rx_batch) break;  // short batch
  }
}

int UdpEndpoint::rx_batch_once() {
  if (fd_ < 0 || closed_) return -1;
  const unsigned n = cfg_.rx_batch;
  for (unsigned i = 0; i < n; ++i) {
    // A slot whose buffer went up the stack last call is empty (moved
    // from); refill it. Undelivered buffers stay for the next call.
    if (rx_bufs_[i].bytes().data() == nullptr) rx_bufs_[i] = pool_->acquire();
    PacketBytes& b = rx_bufs_[i].bytes();
    b.resize_uninitialized(cfg_.max_datagram);
    rx_iovs_[i].iov_base = b.data();
    rx_iovs_[i].iov_len = b.size();
    msghdr& h = rx_msgs_[i].msg_hdr;
    h = msghdr{};
    h.msg_iov = &rx_iovs_[i];
    h.msg_iovlen = 1;
    h.msg_name = &rx_srcs_[i];
    h.msg_namelen = sizeof(rx_srcs_[i]);
  }
  int got;
  for (;;) {
    got = sys_.sys_recvmmsg(fd_, rx_msgs_.data(), n, MSG_TRUNC);
    if (got >= 0) break;
    const int err = errno;
    if (err == EINTR) {
      ++stats_.eintr_retries;
      obs_add(m_.eintr_retries);
      continue;
    }
    if (err == ECONNREFUSED) {
      // Connected socket: the queued ICMP error pops out of the
      // receive path too. Same peer-gone handling, keep reading after.
      last_errno_ = err;
      handle_conn_refused();
      continue;
    }
    last_errno_ = err;
    return -1;  // EAGAIN or a hard error: nothing readable now
  }
  // A successful batch proves the peer's socket exists again.
  if (got > 0) reconnect_backoff_ = 0;
  ++stats_.recvmmsg_calls;
  for (int i = 0; i < got; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    const std::size_t len = rx_msgs_[slot].msg_len;
    if ((rx_msgs_[slot].msg_hdr.msg_flags & MSG_TRUNC) != 0 ||
        len > cfg_.max_datagram) {
      // Datagram larger than our buffer: the tail is gone, and a
      // truncated envelope must never reach the decoder as if whole.
      ++stats_.rx_truncated_dropped;
      obs_add(m_.rx_truncated_dropped);
      continue;
    }
    rx_bufs_[slot].bytes().resize_uninitialized(len);  // keeps the bytes
    ++stats_.datagrams_received;
    stats_.bytes_received += len;
    obs_add(m_.datagrams_received);
    // A callback that keeps the buffer moves (or take()s) it out of
    // the slot; one that only reads it leaves it for the next call.
    if (on_datagram_) {
      on_datagram_(std::move(rx_bufs_[slot]), from_sockaddr(rx_srcs_[slot]));
    }
  }
  return got;
}

std::uint64_t UdpEndpoint::shutdown(SimTime deadline) {
  if (closed_) return 0;
  closed_ = true;  // no new enqueues, no more RX delivery
  loop_.cancel_deferred(this);  // the flush below replaces it
  flush_deferred_ = false;
  if (fd_ >= 0) {
    loop_.mod_fd(fd_, txq_.empty() ? 0u : static_cast<std::uint32_t>(EPOLLOUT));
    epollout_armed_ = !txq_.empty();
  }
  // Best-effort final flush loop: poll EPOLLOUT readiness by retrying
  // directly; shutdown runs outside poll_once so timers cannot help.
  while (!txq_.empty() && loop_.now() < deadline) {
    const std::size_t before = txq_.size();
    flush();
    if (txq_.size() == before) {
      // No progress (EAGAIN/ENOBUFS/refused): give the kernel a poll
      // tick to drain its buffers, bounded by the deadline.
      const SimTime t = loop_.now();
      if (t >= deadline) break;
      loop_.poll_once(std::min<SimTime>(deadline - t, kMillisecond));
    }
  }
  // Whatever is still queued did NOT reach the wire. Count it.
  std::uint64_t abandoned = 0;
  while (!txq_.empty()) {
    drop_tx_head(&stats_.tx_queue_dropped, m_.tx_queue_dropped);
    ++abandoned;
  }
  if (fd_ >= 0) {
    loop_.del_fd(fd_);
    sys_.sys_close(fd_);
    fd_ = -1;
  }
  leave_backpressure();
  return abandoned;
}

}  // namespace chunknet
