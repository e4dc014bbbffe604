#include "timing_shim.hpp"

#include <chrono>

#include "src/chunk/codec.hpp"
#include "src/transport/signalling.hpp"

namespace chunknet::perfbench {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Times one call into `s`; a batch call that moved datagrams adds
/// them to `items`.
template <typename F>
int timed(TimingSyscalls::CallStats& s, F&& call, bool batch = false) {
  const std::uint64_t t0 = now_ns();
  const int r = call();
  s.ns += now_ns() - t0;
  ++s.calls;
  if (batch && r > 0) {
    s.items += static_cast<std::uint64_t>(r);
    ++s.productive_calls;
  }
  return r;
}

/// Counts of the chunk kinds in one envelope.
struct EnvelopeCounts {
  std::uint32_t data{0}, ed{0}, ack{0}, grant{0}, gap_nak{0}, other{0};
};

/// False if the envelope does not decode.
bool count_envelope(const std::uint8_t* p, std::size_t len,
                    EnvelopeCounts& out) {
  thread_local std::vector<ChunkView> views;
  if (!decode_packet_views(std::span<const std::uint8_t>(p, len), views)) {
    return false;
  }
  for (const ChunkView& v : views) {
    switch (v.h.type) {
      case ChunkType::kData: ++out.data; break;
      case ChunkType::kErrorDetection: ++out.ed; break;
      case ChunkType::kAck: ++out.ack; break;
      case ChunkType::kSignal: {
        // Same shape rule as signal_kind(): one element, kind byte first.
        const bool one = v.h.len == 1 && !v.payload.empty();
        const auto kind = one ? static_cast<SignalKind>(v.payload[0])
                              : SignalKind{0};
        if (kind == SignalKind::kCreditGrant) {
          ++out.grant;
        } else if (kind == SignalKind::kGapNak) {
          ++out.gap_nak;
        } else {
          ++out.other;
        }
        break;
      }
      default: ++out.other; break;
    }
  }
  return true;
}

}  // namespace

std::uint64_t TimingSyscalls::Stats::total_calls() const {
  std::uint64_t n = setsockopt.calls + getsockname.calls;
  for (const CallStats& c : call) n += c.calls;
  return n;
}

std::uint64_t TimingSyscalls::Stats::total_ns() const {
  std::uint64_t n = setsockopt.ns + getsockname.ns + shim_ns;
  for (const CallStats& c : call) n += c.ns;
  return n;
}

std::uint64_t TimingSyscalls::Stats::setup_ns() const {
  return of(IoCall::kSocket).ns + of(IoCall::kBind).ns +
         of(IoCall::kConnect).ns + of(IoCall::kClose).ns +
         of(IoCall::kEpollCreate).ns + of(IoCall::kEpollCtl).ns +
         setsockopt.ns + getsockname.ns;
}

void TimingSyscalls::note_sent(const std::uint8_t* p, std::size_t len) {
  EnvelopeCounts c;
  if (!count_envelope(p, len, c)) {
    ++stats_.undecodable_dgrams;
    return;
  }
  const bool data = c.data + c.ed > 0;
  ++(data ? stats_.data_dgrams : stats_.ctrl_dgrams);
  stats_.data_chunks += c.data;
  stats_.ed_chunks += c.ed;
  stats_.ack_chunks += c.ack;
  stats_.grant_chunks += c.grant;
  stats_.gap_nak_chunks += c.gap_nak;
  stats_.other_signal_chunks += c.other;
}

void TimingSyscalls::capture(const std::uint8_t* p, std::size_t len) {
  EnvelopeCounts c;
  const bool data = count_envelope(p, len, c) && c.data + c.ed > 0;
  captured_.push_back({PacketBytes(p, p + len), poll_opened_ns_, data});
}

int TimingSyscalls::sys_socket(int domain, int type, int protocol) {
  return timed(at(IoCall::kSocket),
               [&] { return inner_.sys_socket(domain, type, protocol); });
}

int TimingSyscalls::sys_bind(int fd, const sockaddr* addr, socklen_t len) {
  return timed(at(IoCall::kBind),
               [&] { return inner_.sys_bind(fd, addr, len); });
}

int TimingSyscalls::sys_connect(int fd, const sockaddr* addr,
                                socklen_t len) {
  return timed(at(IoCall::kConnect),
               [&] { return inner_.sys_connect(fd, addr, len); });
}

int TimingSyscalls::sys_getsockname(int fd, sockaddr* addr, socklen_t* len) {
  return timed(stats_.getsockname,
               [&] { return inner_.sys_getsockname(fd, addr, len); });
}

int TimingSyscalls::sys_setsockopt(int fd, int level, int optname,
                                   const void* optval, socklen_t optlen) {
  return timed(stats_.setsockopt, [&] {
    return inner_.sys_setsockopt(fd, level, optname, optval, optlen);
  });
}

int TimingSyscalls::sys_close(int fd) {
  return timed(at(IoCall::kClose), [&] { return inner_.sys_close(fd); });
}

int TimingSyscalls::sys_epoll_create1(int flags) {
  return timed(at(IoCall::kEpollCreate),
               [&] { return inner_.sys_epoll_create1(flags); });
}

int TimingSyscalls::sys_epoll_ctl(int epfd, int op, int fd,
                                  epoll_event* ev) {
  return timed(at(IoCall::kEpollCtl),
               [&] { return inner_.sys_epoll_ctl(epfd, op, fd, ev); });
}

int TimingSyscalls::sys_epoll_wait(int epfd, epoll_event* evs, int maxevents,
                                   int timeout_ms) {
  // The loop read its clock just before this wait and screens what the
  // wait delivers at that time.
  if (capture_) poll_opened_ns_ = inner_.sys_monotonic_ns();
  return timed(at(IoCall::kEpollWait), [&] {
    return inner_.sys_epoll_wait(epfd, evs, maxevents, timeout_ms);
  });
}

int TimingSyscalls::sys_recvmmsg(int fd, mmsghdr* msgs, unsigned n,
                                 int flags) {
  const int got = timed(
      at(IoCall::kRecvmmsg),
      [&] { return inner_.sys_recvmmsg(fd, msgs, n, flags); }, true);
  const std::uint64_t t0 = now_ns();
  for (int i = 0; capture_ && i < got; ++i) {
    const msghdr& h = msgs[i].msg_hdr;
    // A truncated datagram is dropped by the endpoint; so is it here.
    if ((h.msg_flags & MSG_TRUNC) != 0 || h.msg_iovlen != 1 ||
        msgs[i].msg_len > h.msg_iov[0].iov_len) {
      continue;
    }
    capture(static_cast<const std::uint8_t*>(h.msg_iov[0].iov_base),
            msgs[i].msg_len);
  }
  stats_.shim_ns += now_ns() - t0;
  return got;
}

int TimingSyscalls::sys_sendmmsg(int fd, mmsghdr* msgs, unsigned n,
                                 int flags) {
  const int sent = timed(
      at(IoCall::kSendmmsg),
      [&] { return inner_.sys_sendmmsg(fd, msgs, n, flags); }, true);
  const std::uint64_t t0 = now_ns();
  // Decode only what the kernel accepted; a partial batch is resent
  // from its tail by the endpoint and is counted then.
  for (int i = 0; i < sent; ++i) {
    const msghdr& h = msgs[i].msg_hdr;
    if (h.msg_iovlen != 1) continue;  // the endpoint sends one iovec
    note_sent(static_cast<const std::uint8_t*>(h.msg_iov[0].iov_base),
              h.msg_iov[0].iov_len);
  }
  stats_.shim_ns += now_ns() - t0;
  return sent;
}

}  // namespace chunknet::perfbench
