// IngressGuard's credit path, screened directly (no sockets): credited
// datagrams skip the token bucket until the allowance runs out, the
// allowance is spent before decode, the overflow bucket is never
// credited, and an uncredited source is screened exactly as without a
// credit path. Also the refusal memory's eviction order when full.
#include <gtest/gtest.h>

#include <vector>

#include "src/chunk/codec.hpp"
#include "src/io/ingress_guard.hpp"

namespace chunknet {
namespace {

using Verdict = IngressGuard::Verdict;

const UdpAddress kPeer{0x7f000001, 4000};
const UdpAddress kOther{0x7f000001, 4001};
constexpr SimTime kNow = kSecond;

/// A structurally valid one-chunk datagram.
PacketBytes valid_datagram() {
  Chunk c;
  c.h.type = ChunkType::kData;
  c.h.size = 4;
  c.h.len = 1;
  c.h.conn.id = 7;
  c.payload = {1, 2, 3, 4};
  return PacketBytes(encode_packet(std::span<const Chunk>(&c, 1), 1400));
}

/// A datagram strict decode rejects.
PacketBytes garbage_datagram() { return PacketBytes(100, 0xA5); }

/// A guard whose bucket never refills at kNow: `burst` tokens, then
/// every uncredited datagram is refused.
IngressGuardConfig tight_config(double burst) {
  IngressGuardConfig cfg;
  cfg.rate_per_sec = 100.0;
  cfg.burst = burst;
  return cfg;
}

Verdict screen(IngressGuard& g, const PacketBytes& b, const UdpAddress& from,
               SimTime now = kNow) {
  std::vector<ChunkView> views;
  return g.screen(b, from, now, views);
}

TEST(IngressGuard, CreditedPeerSkipsTheBucketUntilTheAllowanceRunsOut) {
  IngressGuard g(tight_config(1.0));
  const PacketBytes d = valid_datagram();
  // The first datagram creates the peer's entry and pays a token.
  ASSERT_EQ(screen(g, d, kPeer), Verdict::kAccept);

  // Three datagrams' worth of allowance, and half of a fourth.
  g.credit(kPeer, 3 * d.size() + d.size() / 2);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(screen(g, d, kPeer), Verdict::kAccept) << i;
  }
  EXPECT_EQ(g.stats().credited, 3u);
  // The half-datagram left over does not cover the next one, which
  // pays the bucket; the bucket is empty, so it is refused.
  EXPECT_EQ(screen(g, d, kPeer), Verdict::kRateLimited);
  EXPECT_EQ(g.stats().credited, 3u);
  EXPECT_EQ(g.stats().rate_limited, 1u);
  EXPECT_EQ(g.stats().accepted, 4u);

  // Topped up, the leftover half counts towards the next datagram.
  g.credit(kPeer, d.size() / 2 + 1);
  EXPECT_EQ(screen(g, d, kPeer), Verdict::kAccept);
  EXPECT_EQ(g.stats().credited, 4u);
}

TEST(IngressGuard, MalformedDatagramsSpendAllowance) {
  MetricsRegistry metrics;
  ObsContext obs;
  obs.metrics = &metrics;
  IngressGuardConfig cfg = tight_config(1.0);
  cfg.obs = &obs;
  IngressGuard g(cfg);
  const PacketBytes junk = garbage_datagram();
  ASSERT_EQ(screen(g, valid_datagram(), kPeer), Verdict::kAccept);

  g.credit(kPeer, 2 * junk.size());
  EXPECT_EQ(screen(g, junk, kPeer), Verdict::kMalformed);
  EXPECT_EQ(screen(g, junk, kPeer), Verdict::kMalformed);
  EXPECT_EQ(g.stats().credited, 2u);
  EXPECT_EQ(g.stats().malformed, 2u);
  // Charged in wire bytes before decode: the garbage used the
  // allowance up, so the next datagram meets the empty bucket.
  EXPECT_EQ(screen(g, junk, kPeer), Verdict::kRateLimited);
  EXPECT_EQ(metrics.counter("ingress.credited").value(), 2u);
}

TEST(IngressGuard, OverflowSourceIsNeverCredited) {
  IngressGuardConfig cfg = tight_config(1.0);
  cfg.max_sources = 1;
  IngressGuard g(cfg);
  const PacketBytes d = valid_datagram();
  ASSERT_EQ(screen(g, d, kPeer), Verdict::kAccept);  // takes the one slot
  ASSERT_EQ(screen(g, d, kOther), Verdict::kAccept);  // overflow's token
  ASSERT_EQ(g.stats().untracked_sources, 1u);

  g.credit(kOther, 100 * d.size());
  EXPECT_EQ(screen(g, d, kOther), Verdict::kRateLimited);
  EXPECT_EQ(g.stats().credited, 0u);
  // Nor does the credit land on the tracked source.
  EXPECT_EQ(screen(g, d, kPeer), Verdict::kRateLimited);
}

TEST(IngressGuard, UncreditedSourceIsScreenedAsWithoutCredit) {
  // The same traffic from kOther through a guard that credits kPeer
  // and through one that credits nobody: verdict for verdict the same.
  IngressGuard credited(tight_config(4.0));
  IngressGuard plain(tight_config(4.0));
  ASSERT_EQ(screen(credited, valid_datagram(), kPeer), Verdict::kAccept);
  credited.credit(kPeer, 1u << 20);
  credited.credit(kOther, 1u << 20);  // no entry yet: gains nothing

  std::vector<PacketBytes> traffic;
  for (int i = 0; i < 6; ++i) traffic.push_back(valid_datagram());
  traffic.push_back(garbage_datagram());
  traffic.emplace_back();  // a zero-length datagram pays a token too
  std::vector<Verdict> want;
  std::vector<Verdict> got;
  // Two rounds 25 ms apart: the bucket refills 2.5 tokens in between.
  for (const SimTime t : {kNow, kNow + 25 * kMillisecond}) {
    for (const PacketBytes& b : traffic) {
      want.push_back(screen(plain, b, kOther, t));
      got.push_back(screen(credited, b, kOther, t));
    }
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(credited.stats().credited, 0u);
  EXPECT_EQ(credited.stats().rate_limited, plain.stats().rate_limited);
  EXPECT_EQ(credited.stats().accepted, plain.stats().accepted + 1);
  // 4 burst tokens, then 2 whole ones refilled: 10 of the 16
  // datagrams refused.
  EXPECT_EQ(plain.stats().rate_limited, 10u);
}

TEST(IngressGuard, FullRefusalMemoryForgetsTheLeastRecentlyRemembered) {
  // One fixed TTL: the least recently remembered refusal is the one
  // closest to expiry, so it is the one a full table forgets.
  IngressGuardConfig cfg;
  cfg.max_refused = 3;
  IngressGuard g(cfg);
  g.remember_refusal(1, kNow);
  g.remember_refusal(2, kNow + 1);
  g.remember_refusal(3, kNow + 2);
  g.remember_refusal(1, kNow + 3);  // refreshed: now the newest
  g.remember_refusal(4, kNow + 4);
  const SimTime t = kNow + 5;
  EXPECT_TRUE(g.is_refused(1, t));
  EXPECT_FALSE(g.is_refused(2, t));
  EXPECT_TRUE(g.is_refused(3, t));
  EXPECT_TRUE(g.is_refused(4, t));
  EXPECT_EQ(g.refused_size(), 3u);
  EXPECT_EQ(g.stats().refusals_evicted, 1u);
  EXPECT_EQ(g.stats().refusals_remembered, 5u);
}

}  // namespace
}  // namespace chunknet
