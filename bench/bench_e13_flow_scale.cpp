// E13 — million-flow scale-out: the connection plane at 10k → 1M
// concurrent flows.
//
// The paper's labelling thesis makes demultiplexing a pure function of
// the chunk label: route by C.ID, no per-packet search whose cost grows
// with connection count. This bench pins the production consequence on
// the sharded demultiplexer (open-addressed flat tables, per-shard
// idle/refusal state) and the hierarchical timer wheel:
//
//   1. attach    N flows admitted and attached; lease-batched admission
//                does O(N / batch) governor round-trips, not O(N).
//   2. route     per-packet routing cost measured at each scale; the
//                claim is cost at the LARGEST scale within 1.25x of the
//                smallest — independent of connection count.
//   3. memory    demux state bytes per flow, flat across scales (no
//                per-flow heap nodes, geometric flat tables only).
//   4. timers    N deadlines armed on one wheel and fired to empty;
//                arm cost is O(1) slot insertion.
//
// Quick mode (CHUNKNET_BENCH_QUICK=1) stops at 100k flows so the CI
// smoke finishes in seconds; the committed baseline runs the full
// ladder to 1,000,000.
#include <memory>

#include "bench_util.hpp"
#include "src/common/resource_governor.hpp"
#include "src/common/timer_wheel.hpp"
#include "src/transport/demux.hpp"

namespace chunknet::bench {
namespace {

constexpr std::uint32_t kShards = 64;
/// Receivers are pooled: the bench scales the DEMUX's per-flow state,
/// not N private application buffers (flow-table bytes are what the
/// memory probe measures; receiver state is per-connection payload the
/// transport benches already cover).
constexpr std::size_t kPoolReceivers = 1024;
constexpr std::size_t kTemplates = 2048;
constexpr std::uint32_t kLeaseBatch = 64;
constexpr std::uint64_t kAdmitReserve = 64;

std::vector<std::size_t> scales() {
  if (bench_quick()) return {10'000, 100'000};
  return {10'000, 100'000, 1'000'000};
}

std::size_t route_packets() { return bench_quick() ? 50'000 : 200'000; }

/// A sender's typical near-MTU packet: eight 32-element data chunks of
/// ONE connection (1 KiB of payload plus headers). Routing it costs one
/// cold flow-table lookup plus seven warm ones — the realistic
/// per-packet mix the 1.25x claim is stated over.
constexpr std::uint32_t kChunksPerPacket = 8;
constexpr std::uint32_t kElemsPerChunk = 32;

std::vector<std::uint8_t> route_packet(std::uint32_t conn_id) {
  std::vector<Chunk> chunks;
  for (std::uint32_t k = 0; k < kChunksPerPacket; ++k) {
    const std::uint32_t sn = k * kElemsPerChunk;
    Chunk c;
    c.h.type = ChunkType::kData;
    c.h.size = 4;
    c.h.len = kElemsPerChunk;
    c.h.conn = {conn_id, sn, false};
    c.h.tpdu = {1, sn, false};
    c.h.xpdu = {1, sn, false};
    c.payload.assign(4 * kElemsPerChunk, static_cast<std::uint8_t>(k));
    chunks.push_back(std::move(c));
  }
  return encode_packet(chunks, 1500);
}

struct ScaleResult {
  std::size_t flows{0};
  double attach_ns{0};
  double route_ns{0};
  double bytes_per_flow{0};
  std::uint64_t chunks_routed{0};
  std::uint64_t unknown{0};
};

/// One scale's demux with N flows attached and its packet templates
/// ready, so the routing cost of several scales can be timed in turn.
class ScaleBench {
 public:
  explicit ScaleBench(std::size_t nflows) {
    r_.flows = nflows;
    DemuxConfig dc;
    dc.shards = kShards;
    demux_ = std::make_unique<ChunkDemultiplexer>(dc);

    pool_.reserve(kPoolReceivers);
    for (std::size_t i = 0; i < kPoolReceivers; ++i) {
      ReceiverConfig rc;
      rc.connection_id = 7;
      rc.element_size = 4;
      rc.app_buffer_bytes = 4 * kElemsPerChunk * kChunksPerPacket;
      rc.mode = DeliveryMode::kImmediate;
      pool_.push_back(
          std::make_unique<ChunkTransportReceiver>(sim_, std::move(rc)));
    }

    // ---- attach N flows
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < nflows; ++i) {
      demux_->attach(static_cast<std::uint32_t>(i + 1),
                     *pool_[i % kPoolReceivers]);
    }
    const auto t1 = std::chrono::steady_clock::now();
    r_.attach_ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(nflows);
    r_.bytes_per_flow = static_cast<double>(demux_->state_bytes()) /
                        static_cast<double>(nflows);

    // ---- packets over uniformly random flows
    Rng rng(1993);
    tmpl_.reserve(kTemplates);
    for (std::size_t t = 0; t < kTemplates; ++t) {
      tmpl_.push_back(route_packet(
          static_cast<std::uint32_t>(1 + rng.below(nflows))));
    }
    // Warm-up pass: populates each pooled receiver's TPDU state so the
    // timed reps measure the steady state (route + duplicate-reject).
    for (std::size_t i = 0; i < kTemplates; ++i) route_one(i);
  }

  // The pooled receivers hold a reference to sim_.
  ScaleBench(const ScaleBench&) = delete;
  ScaleBench& operator=(const ScaleBench&) = delete;

  /// Times one rep of route_packets() packets; keeps the minimum.
  void time_rep() {
    const std::size_t npkts = route_packets();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < npkts; ++i) route_one(i);
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(npkts);
    if (r_.route_ns == 0 || ns < r_.route_ns) r_.route_ns = ns;
  }

  ScaleResult result() const {
    ScaleResult r = r_;
    r.chunks_routed = demux_->stats().data_chunks_routed;
    r.unknown = demux_->stats().unknown_connection;
    return r;
  }

 private:
  void route_one(std::size_t i) {
    SimPacket sp;
    sp.bytes = tmpl_[i % kTemplates];
    sp.id = i;
    sp.created_at = 0;
    demux_->on_packet(std::move(sp));
  }

  Simulator sim_;
  std::vector<std::unique_ptr<ChunkTransportReceiver>> pool_;
  std::unique_ptr<ChunkDemultiplexer> demux_;
  std::vector<std::vector<std::uint8_t>> tmpl_;
  ScaleResult r_;
};

/// Timed rounds per scale. The claim compares scales, so the scales are
/// timed in turn within each round (alternating direction) and each
/// keeps its fastest rep: host speed drifting over the run then moves
/// every scale alike instead of skewing the ratio.
constexpr int kRouteRounds = 7;

void flow_scale() {
  print_heading("E13a", "sharded demux at scale: attach rate, per-packet "
                        "routing cost, and bytes per flow vs flow count");

  std::vector<std::unique_ptr<ScaleBench>> benches;
  for (const std::size_t n : scales()) {
    benches.push_back(std::make_unique<ScaleBench>(n));
  }
  for (int round = 0; round < kRouteRounds; ++round) {
    for (std::size_t k = 0; k < benches.size(); ++k) {
      const std::size_t i = round % 2 == 0 ? k : benches.size() - 1 - k;
      benches[i]->time_rep();
    }
  }
  std::vector<ScaleResult> rs;
  for (const auto& b : benches) rs.push_back(b->result());
  benches.clear();

  TextTable t({"flows", "attach ns/flow", "route ns/pkt", "vs smallest",
               "bytes/flow", "chunks routed", "unknown"});
  for (const ScaleResult& r : rs) {
    t.add_row({TextTable::num(static_cast<std::uint64_t>(r.flows)),
               TextTable::num(r.attach_ns, 1), TextTable::num(r.route_ns, 1),
               TextTable::num(r.route_ns / rs.front().route_ns, 3),
               TextTable::num(r.bytes_per_flow, 1),
               TextTable::num(r.chunks_routed),
               TextTable::num(r.unknown)});
  }
  print_table(t);

  const ScaleResult& lo = rs.front();
  const ScaleResult& hi = rs.back();
  const double ratio = hi.route_ns / lo.route_ns;
  double max_bpf = 0;
  bool clean_routing = true;
  for (const ScaleResult& r : rs) {
    max_bpf = std::max(max_bpf, r.bytes_per_flow);
    if (r.unknown != 0 || r.chunks_routed == 0) clean_routing = false;
  }
  record_metric("route_ns_smallest", lo.route_ns, "ns");
  record_metric("route_ns_largest", hi.route_ns, "ns");
  record_metric("route_cost_ratio_largest_vs_smallest", ratio, "x");
  record_metric("bytes_per_flow_max", max_bpf, "B");
  record_metric("flows_largest", static_cast<double>(hi.flows));

  print_claim(ratio <= 1.25,
              "per-packet routing cost at the largest scale is within "
              "1.25x of the smallest (label routing is independent of "
              "connection count)");
  print_claim(max_bpf <= 256.0,
              "demux state stays under 256 bytes per flow at every scale "
              "(flat tables, no per-flow heap nodes)");
  print_claim(clean_routing,
              "every routed chunk found its flow at every scale (no "
              "unknown-connection drops)");
}

void admission_scale() {
  print_heading("E13b", "lease-batched admission: governor round-trips "
                        "for N admissions, batched vs per-connection");

  const std::size_t n = bench_quick() ? 100'000 : 1'000'000;
  TextTable t({"arm", "admitted", "governor round-trips", "ns/admission"});
  std::uint64_t batched_acquires = 0;
  bool all_admitted = true;
  for (const bool batched : {false, true}) {
    GovernorConfig gc;
    gc.hard_watermark_bytes = static_cast<std::uint64_t>(n) * kAdmitReserve * 4;
    gc.soft_watermark_bytes = gc.hard_watermark_bytes * 3 / 4;
    ResourceGovernor gov(gc);

    DemuxConfig dc;
    dc.shards = kShards;
    ChunkDemultiplexer demux(dc);
    DemuxAdmissionConfig adm;
    adm.governor = &gov;
    adm.reserve_bytes = kAdmitReserve;
    adm.lease_batch = batched ? kLeaseBatch : 0;
    demux.configure_admission(std::move(adm));

    std::uint64_t admitted = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      admitted += demux.try_admit(static_cast<std::uint32_t>(i + 1)) ? 1 : 0;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(n);
    // The per-connection arm talks to the governor once per admission
    // by construction; the batched arm's traffic is its lease count.
    const std::uint64_t trips =
        batched ? demux.stats().lease_acquires : static_cast<std::uint64_t>(n);
    if (batched) batched_acquires = trips;
    if (admitted != n) all_admitted = false;
    t.add_row({batched ? "lease-batched" : "per-connection",
               TextTable::num(admitted), TextTable::num(trips),
               TextTable::num(ns, 1)});
  }
  print_table(t);

  record_metric("batched_admission_roundtrips",
                static_cast<double>(batched_acquires));
  print_claim(all_admitted,
              "every offered connection was admitted under the sized "
              "budget in both arms");
  print_claim(batched_acquires * 32 <= n,
              "lease-batched admission does at most N/32 governor "
              "round-trips (the admit fast path is shard-local)");
}

void timer_scale() {
  print_heading("E13c", "hierarchical timer wheel: N deadlines armed on "
                        "one wheel and fired to empty");

  TextTable t({"timers", "arm ns/timer", "fired", "cascaded"});
  bool all_fired = true;
  double arm_lo = 0, arm_hi = 0;
  for (const std::size_t n : scales()) {
    Simulator sim;
    SimTimerWheel wheel(sim);
    Rng rng(7);
    std::uint64_t fired = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      wheel.arm_in(rng.range(1, 10'000) * kMillisecond,
                   [&fired] { ++fired; });
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double arm_ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(n);
    sim.run();
    const auto& ws = wheel.wheel().stats();
    if (fired != n || ws.fired != n) all_fired = false;
    if (n == scales().front()) arm_lo = arm_ns;
    if (n == scales().back()) arm_hi = arm_ns;
    t.add_row({TextTable::num(static_cast<std::uint64_t>(n)),
               TextTable::num(arm_ns, 1), TextTable::num(fired),
               TextTable::num(ws.cascaded)});
  }
  print_table(t);

  record_metric("timer_arm_ns_smallest", arm_lo, "ns");
  record_metric("timer_arm_ns_largest", arm_hi, "ns");
  print_claim(all_fired,
              "every armed deadline fired exactly once at every scale "
              "(none lost to cascading)");
}

}  // namespace
}  // namespace chunknet::bench

int main() {
  chunknet::bench::flow_scale();
  chunknet::bench::admission_scale();
  chunknet::bench::timer_scale();
  chunknet::bench::write_bench_json("e13");
  return 0;
}
