// The untrusted-peer front door.
//
// Everything arriving off a real socket is attacker-controlled bytes
// until proven otherwise. The guard sits between UdpEndpoint and the
// transport demux and applies three screens, in order of cost:
//
//  1. Per-source token bucket — a flooding source is throttled BEFORE
//     we spend cycles parsing its datagrams. Buckets live in a bounded
//     FlatMap; when full, the guard falls back to a shared overflow
//     bucket rather than growing without bound (an attacker rotating
//     source ports must not allocate memory per port).
//     A source's entry also holds a byte allowance that credit() adds
//     to: the receiver credits its peer with each increase of the
//     credit it grants, so a datagram the receiver asked for spends
//     allowance (its wire size, before decode) instead of a token.
//     What a credited peer can push past the bucket is therefore
//     bounded by the bytes its receiver has verified plus one credit
//     window; envelope overhead, retransmissions beyond the credit and
//     every uncredited source still pay the bucket, and the overflow
//     bucket is never credited.
//  2. Strict envelope decode — decode_packet_views() already rejects
//     bad magic, truncated headers, and length fields that overrun the
//     datagram. A datagram that fails here is counted and dropped;
//     nothing downstream ever sees a partially-valid view.
//  3. Refusal memory for unknown connection IDs — a C.ID the transport
//     has refused keeps getting refused here, cheaply, with a TTL so a
//     legitimately restarted peer can come back. Mirrors the demux's
//     RefusedEntry idiom at the socket boundary.
//
// Verdicts are counted per reason; the no-silent-drops rule applies to
// hostile traffic too — an operator watching metrics can tell a quiet
// network from a guard eating a flood.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/chunk/codec.hpp"
#include "src/common/flat_map.hpp"
#include "src/io/udp_endpoint.hpp"
#include "src/obs/obs.hpp"

namespace chunknet {

struct IngressGuardConfig {
  /// Token bucket: sustained datagrams/sec per source, with burst.
  double rate_per_sec{50'000.0};
  double burst{2'048.0};
  /// Max distinct sources tracked; beyond this, new sources share one
  /// overflow bucket (and are counted as untracked).
  std::size_t max_sources{1'024};
  /// Refused-C.ID memory: capacity and entry TTL.
  std::size_t max_refused{1'024};
  SimTime refused_ttl{5 * kSecond};
  ObsContext* obs{nullptr};
};

class IngressGuard {
 public:
  enum class Verdict : std::uint8_t {
    kAccept = 0,
    kRateLimited,    ///< source over its token budget
    kMalformed,      ///< strict decode failed
    kEmpty,          ///< valid envelope, zero chunks (nothing to do)
    kRefusedConn,    ///< all chunks target remembered-refused C.IDs
  };

  explicit IngressGuard(IngressGuardConfig cfg);

  /// Screens one datagram. On kAccept, `views` holds the decoded chunk
  /// views (pointing INTO `bytes` — same zero-copy contract as
  /// decode_packet_views). On anything else, `views` is empty and the
  /// datagram should be dropped by the caller.
  Verdict screen(const PacketBytes& bytes, const UdpAddress& from,
                 SimTime now, std::vector<ChunkView>& views);

  /// Adds `bytes` of allowance to `peer`'s bucket entry: that many
  /// wire bytes from it skip the token bucket. A peer with no entry of
  /// its own (never screened, or fell to the overflow bucket) gains
  /// nothing.
  void credit(const UdpAddress& peer, std::uint64_t bytes);

  /// Remembers that the transport refused connection `conn` (unknown /
  /// evicted C.ID): future datagrams carrying only that C.ID are
  /// dropped at the door until the TTL lapses. Bounded: when full, the
  /// stalest entry is evicted.
  void remember_refusal(std::uint32_t conn, SimTime now);
  bool is_refused(std::uint32_t conn, SimTime now) const;

  struct Stats {
    std::uint64_t accepted{0};
    std::uint64_t rate_limited{0};
    std::uint64_t malformed{0};
    std::uint64_t empty{0};
    std::uint64_t refused_conn{0};
    std::uint64_t untracked_sources{0};  ///< fell to the overflow bucket
    /// Paid for with credit allowance instead of a token (whatever
    /// their verdict after decode).
    std::uint64_t credited{0};
    std::uint64_t refusals_remembered{0};
    std::uint64_t refusals_evicted{0};
  };
  const Stats& stats() const { return stats_; }
  std::size_t refused_size() const { return refused_.size(); }

 private:
  struct Bucket {
    double tokens;
    SimTime refilled_at;
    std::uint64_t allowance{0};  ///< credited wire bytes not yet spent
  };
  struct RefusedEntry {
    SimTime expires_at;
  };

  bool take_token(Bucket& b, SimTime now);

  IngressGuardConfig cfg_;
  FlatMap<std::uint64_t, Bucket> buckets_;
  Bucket overflow_{};
  FlatMap<std::uint32_t, RefusedEntry> refused_;
  Stats stats_;
  struct {
    Counter* accepted{nullptr};
    Counter* rate_limited{nullptr};
    Counter* malformed{nullptr};
    Counter* refused_conn{nullptr};
    Counter* credited{nullptr};
  } m_;
};

}  // namespace chunknet
