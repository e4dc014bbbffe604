// A timing SyscallShim decorator, shaped like FaultInjectingSyscalls:
// every call passes through to the inner shim, and the benchmark's
// traced runs learn from outside the program how long each kernel call
// took, how many datagrams each batch moved, and what the outgoing
// envelopes carried.
//
// Outgoing datagrams are decoded (decode_packet_views) to count data,
// ED, ACK, credit-grant and gap-NAK chunks; a datagram with at least one
// data or ED chunk is a data datagram, any other is a control datagram. When
// capture is on, every datagram the kernel hands to recvmmsg is copied
// out with its arrival time, for the replay ledger (replay.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/aligned.hpp"
#include "src/io/syscall.hpp"

namespace chunknet::perfbench {

/// One captured datagram: the bytes as received, when they arrived,
/// and whether they carried data (sender -> receiver) or only control
/// chunks (the feedback). Arrival is CLOCK_MONOTONIC ns as the event
/// loop saw it: the clock reading that opened the poll which delivered
/// the datagram, the `now` the ingress guard screened it at.
struct CapturedDatagram {
  PacketBytes bytes;
  std::uint64_t arrived_ns{0};
  bool data{false};
};

class TimingSyscalls final : public SyscallShim {
 public:
  explicit TimingSyscalls(SyscallShim& inner) : inner_(inner) {}

  struct CallStats {
    std::uint64_t calls{0};
    std::uint64_t ns{0};
    std::uint64_t items{0};  ///< datagrams moved (recvmmsg/sendmmsg)
    std::uint64_t productive_calls{0};  ///< calls that moved >= 1 item
  };
  struct Stats {
    std::array<CallStats, static_cast<int>(IoCall::kCallCount)> call{};
    /// Socket-option and address queries: set-up calls the IoCall enum
    /// does not name.
    CallStats setsockopt;
    CallStats getsockname;
    std::uint64_t data_dgrams{0};
    std::uint64_t ctrl_dgrams{0};
    std::uint64_t undecodable_dgrams{0};
    std::uint64_t data_chunks{0};
    std::uint64_t ed_chunks{0};
    std::uint64_t ack_chunks{0};
    std::uint64_t grant_chunks{0};
    std::uint64_t gap_nak_chunks{0};
    std::uint64_t other_signal_chunks{0};
    /// Time the shim itself spent decoding and capturing.
    std::uint64_t shim_ns{0};

    const CallStats& of(IoCall c) const {
      return call[static_cast<int>(c)];
    }
    std::uint64_t total_calls() const;
    /// Time inside the kernel calls plus the shim's own work: what an
    /// in-place timing around code that calls into the shim subtracts.
    std::uint64_t total_ns() const;
    /// Time in socket / bind / connect / setsockopt / getsockname /
    /// epoll_create1 / epoll_ctl / close.
    std::uint64_t setup_ns() const;
  };

  const Stats& stats() const { return stats_; }

  /// While on, every datagram received is appended to the capture.
  void set_capture(bool on) { capture_ = on; }
  std::vector<CapturedDatagram> take_captured() {
    return std::move(captured_);
  }

  int sys_socket(int domain, int type, int protocol) override;
  int sys_bind(int fd, const sockaddr* addr, socklen_t len) override;
  int sys_connect(int fd, const sockaddr* addr, socklen_t len) override;
  int sys_getsockname(int fd, sockaddr* addr, socklen_t* len) override;
  int sys_setsockopt(int fd, int level, int optname, const void* optval,
                     socklen_t optlen) override;
  int sys_close(int fd) override;
  int sys_epoll_create1(int flags) override;
  int sys_epoll_ctl(int epfd, int op, int fd, epoll_event* ev) override;
  int sys_epoll_wait(int epfd, epoll_event* evs, int maxevents,
                     int timeout_ms) override;
  int sys_recvmmsg(int fd, mmsghdr* msgs, unsigned n, int flags) override;
  int sys_sendmmsg(int fd, mmsghdr* msgs, unsigned n, int flags) override;
  std::uint64_t sys_monotonic_ns() override {
    return inner_.sys_monotonic_ns();
  }

 private:
  CallStats& at(IoCall c) { return stats_.call[static_cast<int>(c)]; }
  /// Classifies and counts one outgoing datagram.
  void note_sent(const std::uint8_t* p, std::size_t len);
  void capture(const std::uint8_t* p, std::size_t len);

  SyscallShim& inner_;
  Stats stats_;
  bool capture_{false};
  std::vector<CapturedDatagram> captured_;
  std::uint64_t poll_opened_ns_{0};
};

}  // namespace chunknet::perfbench
