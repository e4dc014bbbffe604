#include "src/chaos/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "src/chunk/codec.hpp"
#include "src/common/resource_governor.hpp"
#include "src/common/rng.hpp"
#include "src/netsim/multipath.hpp"
#include "src/netsim/router.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/spans.hpp"
#include "src/obs/timeseries.hpp"
#include "src/obs/trace.hpp"
#include "src/transport/demux.hpp"
#include "src/transport/sender.hpp"
#include "src/transport/signalling.hpp"

namespace chunknet {

namespace {

/// Deterministic stream content, independent of the run's Rng stream so
/// the oracles can recompute any byte from (seed, index) alone.
std::uint8_t stream_byte(std::uint64_t seed, std::size_t i) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<std::uint8_t>(z >> 56);
}

LinkConfig to_link_config(const ChaosHop& h, ObsContext* obs,
                          std::uint16_t site) {
  LinkConfig cfg;
  cfg.rate_bps = h.rate_bps;
  cfg.prop_delay = h.prop_delay;
  cfg.mtu = h.mtu;
  cfg.loss_rate = h.loss_rate;
  cfg.dup_rate = h.dup_rate;
  cfg.jitter = h.jitter;
  cfg.lanes = h.lanes;
  cfg.lane_skew = h.lane_skew;
  cfg.route_flap_interval = h.route_flap_interval;
  cfg.obs = obs;
  cfg.obs_site = site;
  return cfg;
}

RelayFn make_relay(const ChaosHop& h, Rng& rng) {
  switch (h.relay) {
    case ChaosRelayKind::kTransparent: return transparent_relay();
    case ChaosRelayKind::kRepack: return chunk_relay(RepackPolicy::kRepack);
    case ChaosRelayKind::kReassembleRelay:
      return chunk_relay(RepackPolicy::kReassemble);
    case ChaosRelayKind::kRewriting: {
      HeaderRewriteConfig cfg;
      cfg.rewrite_rate = h.rewrite_rate;
      cfg.field = h.rewrite_field;
      return header_rewriting_relay(cfg, rng);
    }
  }
  return transparent_relay();
}

std::string fmt(const char* f, std::uint64_t a) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, static_cast<unsigned long long>(a));
  return buf;
}

std::string fmt(const char* f, std::uint64_t a, std::uint64_t b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

std::string fmt(const char* f, std::uint64_t a, std::uint64_t b,
                const char* c) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b), c);
  return buf;
}

/// Stamps `bytes` as a fresh packet on the simulator's clock.
SimPacket new_packet(Simulator& sim, PacketBytes bytes) {
  SimPacket sp;
  sp.bytes = std::move(bytes);
  sp.id = sim.next_packet_id();
  sp.created_at = sim.now();
  return sp;
}

/// Flight-recorder instrumentation for one run: owns the rings and the
/// sampler, wires them into the shared ObsContext, and serializes the
/// bundle artefacts at the end. Inert when no capture was requested.
struct CaptureRig {
  std::unique_ptr<ChunkTracer> tracer;
  std::unique_ptr<SpanRecorder> spans;
  std::unique_ptr<TimeSeriesSampler> sampler;

  void arm(const ChaosCapture& cap, ObsContext& obs,
           const MetricsRegistry& reg, const ChaosScenario& sc,
           Simulator& sim) {
    tracer = std::make_unique<ChunkTracer>(cap.trace_capacity);
    spans = std::make_unique<SpanRecorder>(cap.span_capacity);
    obs.tracer = tracer.get();
    obs.spans = spans.get();
    TimeSeriesConfig ts;
    ts.interval = cap.sample_interval;
    sampler = std::make_unique<TimeSeriesSampler>(reg, ts);
    // Tracked metrics resolve lazily, so names that never materialize
    // in this run (no governor, flow control or multipath) just read 0.
    const std::string p =
        std::string("receiver.") + to_string(sc.mode) + ".";
    sampler->track_counter(p + "data_chunks");
    sampler->track_counter(p + "chunks_placed");
    sampler->track_counter(p + "tpdus_accepted");
    sampler->track_counter(p + "tpdus_rejected");
    sampler->track_counter(p + "dropped_unplaced_bytes");
    sampler->track_gauge(p + "held_bytes");
    sampler->track_quantile(p + "delivery_latency_ns", 50.0);
    sampler->track_counter("sender.retransmissions");
    sampler->track_counter("sender.gave_up");
    sampler->track_counter("sender.tpdus_acked");
    sampler->track_counter("mpath.failovers");
    sampler->track_counter("mpath.failbacks");
    sampler->track_gauge("governor.charged_bytes");
    sampler->track_counter("governor.sheds");
    sampler->track_counter("flow.grants_sent");
    attach_sampler(sim, *sampler);
  }

  void finish(ChaosCapture& cap, Simulator& sim,
              const MetricsRegistry& reg) {
    // Final row AFTER quiescence cleanup: the bundle's last sample
    // agrees exactly with the registry snapshot beside it.
    sampler->sample(sim.now());
    cap.trace_json = trace_to_json(*tracer);
    cap.timeseries_json = sampler->to_json();
    cap.chrome_json = spans_to_chrome_json(*spans, sampler.get());
    cap.metrics_json = metrics_to_json(reg);
  }
};

/// Everything owned per connection. The forward path (links, routers,
/// fault injector, demultiplexer) is shared; the reverse (ACK/credit)
/// link is private per connection.
struct ChaosConn {
  std::uint32_t id{0};
  std::vector<std::uint8_t> stream;
  std::vector<TpduOutcome> outcomes;
  std::unique_ptr<ChunkTransportReceiver> receiver;
  std::unique_ptr<ChunkTransportSender> sender;
  std::unique_ptr<Link> reverse;
};

}  // namespace

ChaosResult run_chaos(const ChaosScenario& sc) {
  return run_chaos(sc, nullptr);
}

// One pipeline for every scenario (Appendix A's demultiplexer, with one
// connection as the simplest case): `sc.connections` senders share the
// forward path into one demultiplexer; receivers charge held state to
// a common ResourceGovernor when one is configured; credit flow control
// (when enabled) turns overload into sender-side queueing.
ChaosResult run_chaos(const ChaosScenario& sc, ChaosCapture* capture) {
  ChaosResult res;
  Simulator sim;
  // The run's randomness is a different stream than the generator's, so
  // scenario knobs and link noise stay decoupled.
  Rng rng(sc.seed ^ 0xC4A05C4A05ULL);
  MetricsRegistry reg;
  ObsContext obs{&reg, nullptr};
  CaptureRig rig;
  if (capture != nullptr) rig.arm(*capture, obs, reg, sc, sim);

  const std::uint32_t nconn = std::max<std::uint32_t>(1, sc.connections);
  const std::size_t nbytes = sc.stream_bytes();

  std::unique_ptr<ResourceGovernor> gov;
  if (sc.governor_budget != 0) {
    GovernorConfig gc;
    gc.hard_watermark_bytes = sc.governor_budget;
    gc.soft_watermark_bytes = sc.governor_budget * 3 / 4;
    gc.policy = static_cast<ShedPolicy>(sc.governor_policy);
    gc.obs = &obs;
    gc.clock = &sim;
    gov = std::make_unique<ResourceGovernor>(gc);
  }

  // Sharded connection table (4 shards here: enough to spread the
  // connection ids across shards every run without dwarfing the small
  // connection counts). Churn runs additionally get the timer wheel so
  // remembered refusals age out on their TTL mid-run.
  const std::uint32_t churn_n = sc.churn_connections;
  const SimTime churn_step =
      sc.churn_interval > 0 ? sc.churn_interval : kMillisecond;
  SimTimerWheel wheel(sim);
  DemuxConfig dcfg;
  dcfg.shards = 4;
  if (churn_n > 0) {
    dcfg.timers = &wheel;
    dcfg.refused_ttl =
        std::max<SimTime>(40 * churn_step, 100 * kMillisecond);
  }
  ChunkDemultiplexer demux(dcfg);
  demux.set_obs(&obs, &sim);

  // Churn connections are opened through the SIGNAL path (a real
  // ConnectionOpen chunk through the demultiplexer), so they exercise
  // admission, the refused-connection memory, and the sharded flow
  // table the same way a remote endpoint would. Their receivers carry
  // no data; the interesting state is the demultiplexer's.
  std::vector<std::unique_ptr<ChunkTransportReceiver>> churn_rxs;
  std::set<std::uint32_t> churn_live;
  std::uint64_t churn_admitted = 0;
  std::uint64_t churn_refused = 0;

  if (gov != nullptr || churn_n > 0) {
    DemuxAdmissionConfig adm;
    adm.governor = gov.get();
    adm.reserve_bytes = 8 * 1024;
    if (churn_n > 0) {
      adm.open_connection =
          [&](const ConnectionOpen& open) -> ChunkTransportReceiver* {
        ReceiverConfig crc;
        crc.connection_id = open.connection_id;
        crc.element_size = sc.element_size;
        crc.first_conn_sn = open.first_conn_sn;
        crc.app_buffer_bytes = 1024;
        crc.mode = sc.mode;
        churn_rxs.push_back(
            std::make_unique<ChunkTransportReceiver>(sim, std::move(crc)));
        ++churn_admitted;
        churn_live.insert(open.connection_id);
        return churn_rxs.back().get();
      };
      adm.send_refusal = [&churn_refused](Chunk) { ++churn_refused; };
    }
    demux.configure_admission(std::move(adm));
  }

  // ---- shared forward path, built back-to-front: the last hop
  // delivers to the demultiplexer; each earlier hop feeds a router
  // applying that hop's relay; the fault injector sits right after hop 0.
  const std::size_t nh = sc.hops.size();
  std::vector<std::unique_ptr<Link>> links(nh);
  std::vector<std::unique_ptr<Router>> routers;
  PacketSink* downstream = &demux;
  for (std::size_t i = nh; i-- > 1;) {
    links[i] = std::make_unique<Link>(
        sim, to_link_config(sc.hops[i], &obs, static_cast<std::uint16_t>(i)),
        *downstream, rng);
    routers.push_back(std::make_unique<Router>(
        sim, make_relay(sc.hops[i], rng), *links[i], &obs,
        static_cast<std::uint16_t>(i)));
    downstream = routers.back().get();
  }

  FaultConfig fc;
  fc.gilbert_elliott = GilbertElliottConfig::with_mean_loss(
      sc.fault_mean_loss, sc.fault_mean_burst);
  fc.payload_flip_rate = sc.payload_flip_rate;
  fc.header_flip_rate = sc.header_flip_rate;
  fc.blackout_interval = sc.blackout_interval;
  fc.blackout_duration = sc.blackout_duration;
  fc.obs = &obs;
  FaultInjector injector(sim, fc, *downstream, rng);

  // Hop 0 is either one link or a multipath plane spraying across
  // mp_paths skewed copies of it (aggregate rate preserved), feeding
  // the same fault injector either way. The offered-load multiplier
  // divides hop 0's rate: >1 means aggregate demand exceeds the
  // bottleneck.
  LinkConfig hop0 = to_link_config(sc.hops[0], &obs, 0);
  if (sc.offered_load > 0.0) hop0.rate_bps /= sc.offered_load;
  std::unique_ptr<MultipathScheduler> mpath;
  if (sc.multipath()) {
    MultipathConfig mc;
    mc.mode = static_cast<SprayMode>(sc.mp_mode);
    mc.obs = &obs;
    std::vector<MultipathPathConfig> mpc(sc.mp_paths);
    for (std::uint32_t i = 0; i < sc.mp_paths; ++i) {
      mpc[i].link = hop0;
      mpc[i].link.obs = nullptr;
      mpc[i].link.rate_bps /= sc.mp_paths;
      mpc[i].link.prop_delay += i * sc.mp_skew;
      if (sc.mp_loss > 0.0) {
        mpc[i].faults =
            GilbertElliottConfig::with_mean_loss(sc.mp_loss, 4.0);
      }
    }
    mpath = std::make_unique<MultipathScheduler>(sim, mc, std::move(mpc),
                                                 injector, rng);
    if (sc.mp_kill_at > 0) {
      MultipathScheduler* mp = mpath.get();
      const std::size_t victim = sc.mp_kill_path % sc.mp_paths;
      sim.arm_at(sc.mp_kill_at,
                 [mp, victim] { mp->kill_path(victim); });
      if (sc.mp_revive_at > sc.mp_kill_at) {
        sim.arm_at(sc.mp_revive_at,
                   [mp, victim] { mp->revive_path(victim); });
      }
    }
  } else {
    links[0] = std::make_unique<Link>(sim, hop0, injector, rng);
  }
  auto send_hop0 = [&sim, &links, &mpath](PacketBytes bytes) {
    SimPacket sp = new_packet(sim, std::move(bytes));
    if (mpath != nullptr) {
      mpath->send(std::move(sp));
    } else {
      links[0]->send(std::move(sp));
    }
  };

  // ---- per-connection endpoints. A scenario that is not overloaded
  // keeps its stream on the scenario seed itself, so its replays keep
  // their bytes: how WSC-2 meets a corrupted header depends on them.
  std::vector<ChaosConn> conns;
  conns.reserve(nconn);
  for (std::uint32_t i = 0; i < nconn; ++i) {
    const std::uint32_t id = 7 + i;
    if (gov != nullptr && !demux.try_admit(id)) continue;  // refused

    conns.emplace_back();
    ChaosConn& c = conns.back();
    c.id = id;
    c.stream.resize(nbytes);
    const std::uint64_t stream_seed =
        sc.overloaded() ? sc.seed ^ (0x5DEECE66DULL * (i + 1)) : sc.seed;
    for (std::size_t b = 0; b < nbytes; ++b) {
      c.stream[b] = stream_byte(stream_seed, b);
    }

    ReceiverConfig rc;
    rc.connection_id = id;
    rc.element_size = sc.element_size;
    rc.first_conn_sn = sc.first_conn_sn;
    rc.app_buffer_bytes = nbytes;
    rc.mode = sc.mode;
    rc.max_held_bytes = sc.max_held_bytes;
    rc.max_open_tpdus = sc.max_open_tpdus;
    rc.gap_nak_delay = sc.gap_nak_delay;
    rc.max_gap_naks = sc.max_gap_naks;
    rc.governor = gov.get();
    rc.shed_priority = 1 + static_cast<int>(i % 3);
    rc.grant_credit = sc.flow_control;
    if (sc.governor_budget != 0) {
      rc.credit_window_bytes = std::max<std::uint64_t>(
          sc.governor_budget / nconn, 8 * 1024);
    }
    rc.obs = &obs;
    // The reverse link is wired up after the sender exists; the control
    // lambda dereferences it at call time, never at capture time.
    ChaosConn* cp = &c;
    rc.on_tpdu = [cp](const TpduOutcome& o) { cp->outcomes.push_back(o); };
    rc.send_control = [&sim, cp](Chunk ack) {
      cp->reverse->send(new_packet(
          sim, encode_packet(std::vector<Chunk>{std::move(ack)}, 1500)));
    };
    c.receiver = std::make_unique<ChunkTransportReceiver>(sim, std::move(rc));
    demux.attach(id, *c.receiver);

    SenderConfig sd;
    sd.framer.connection_id = id;
    sd.framer.element_size = sc.element_size;
    sd.framer.tpdu_elements = sc.tpdu_elements;
    sd.framer.xpdu_elements = sc.xpdu_elements;
    sd.framer.max_chunk_elements = sc.max_chunk_elements;
    sd.framer.first_conn_sn = sc.first_conn_sn;
    sd.mtu = sc.hops[0].mtu;
    sd.max_retransmits = sc.max_retransmits;
    sd.retransmit_timeout = sc.retransmit_timeout;
    sd.rto.adaptive = sc.adaptive_rto;
    sd.selective_retransmit = sc.selective_retransmit;
    sd.flow.enabled = sc.flow_control;
    sd.obs = &obs;
    sd.send_packet = send_hop0;
    c.sender = std::make_unique<ChunkTransportSender>(sim, std::move(sd));

    LinkConfig rev_cfg;
    rev_cfg.prop_delay = sc.hops[0].prop_delay;
    rev_cfg.loss_rate = sc.ack_loss_rate;
    c.reverse = std::make_unique<Link>(sim, rev_cfg, *c.sender, rng);
  }

  // ChaosConn holds unique_ptrs only, but the lambdas above capture
  // raw element addresses: the vector must never reallocate past this
  // point (reserve(nconn) above guarantees it never does at all).

  // ---- churn schedule: one ConnectionOpen per churn_interval. Ids
  // repeat (half as many distinct ids as opens) so re-opens hit the
  // established fast path and the refused-memory fast path, not just
  // fresh admissions; each open schedules its own close a few intervals
  // later, which hands the admission reservation back to the governor.
  if (churn_n > 0) {
    const std::uint32_t distinct = std::max<std::uint32_t>(1, churn_n / 2);
    const SimTime close_after = 5 * churn_step;
    for (std::uint32_t k = 0; k < churn_n; ++k) {
      const std::uint32_t cid = 0x40000000u + (k % distinct);
      sim.arm_at(
          (k + 1) * churn_step,
          [&sim, &demux, &churn_live, &gov, cid, close_after] {
            ConnectionOpen open;
            open.connection_id = cid;
            demux.on_packet(new_packet(
                sim, encode_packet(
                         std::vector<Chunk>{make_signal_chunk(open)}, 1500)));
            sim.arm_in(close_after, [&demux, &churn_live, &gov, cid] {
              if (churn_live.erase(cid) == 0) return;  // refused / closed
              demux.detach(cid);
              if (gov != nullptr) gov->unbind_client(cid);
            });
          });
    }
  }

  // ---- run to quiescence under the watchdog
  for (ChaosConn& c : conns) c.sender->send_stream(c.stream);
  sim.run(sc.watchdog);
  res.sim_end = sim.now();

  const auto& dstats = demux.stats();
  res.connections_admitted =
      gov != nullptr ? dstats.connections_admitted : conns.size();
  res.connections_refused = dstats.connections_refused;

  // ---- oracle 4 (aggregate livelock + per-sender completion/budget)
  if (sim.pending()) {
    res.fail("oracle-4: watchdog expired with events still pending "
             "(livelock)");
  }
  const std::uint32_t tpdu_count =
      (sc.stream_elements + sc.tpdu_elements - 1) / sc.tpdu_elements;
  for (ChaosConn& c : conns) {
    const auto& ss = c.sender->stats();
    res.tpdus_gave_up += ss.gave_up;
    res.retransmissions += ss.retransmissions;
    if (!c.sender->finished()) {
      res.fail(fmt("oracle-4: connection %llu neither delivered nor "
                   "abandoned every TPDU at quiescence",
                   c.id));
    }
    const std::uint64_t retx_budget =
        ss.tpdus_sent * (static_cast<std::uint64_t>(sc.max_retransmits) + 1);
    if (ss.retransmissions > retx_budget) {
      res.fail(fmt("oracle-4: connection %llu: %llu retransmissions exceed "
                   "the retry budget (retransmit storm)",
                   c.id, ss.retransmissions));
    }
    if (ss.tpdus_sent != ss.tpdus_acked + ss.gave_up) {
      res.fail(fmt("oracle-2: connection %llu sent TPDUs != acked+gave_up "
                   "(%llu missing)",
                   c.id, ss.tpdus_sent - ss.tpdus_acked - ss.gave_up));
    }
  }

  // ---- quiescence cleanup: the senders are done, so no unfinished
  // receiver TPDU can ever complete. First abort what each sender
  // abandoned, then whatever garbage remains: faults that can mint
  // phantom TPDU ids (header corruption; payload flips, whose region
  // covers every chunk header after the first) or resurrect state past
  // an evicted tombstone (duplication, open-cap eviction, governor
  // shedding) leave some. In strict scenarios nothing may remain.
  bool strict_leak = !sc.overloaded() && !sc.corrupts_headers() &&
                     sc.payload_flip_rate == 0.0 && sc.max_open_tpdus == 0;
  for (const ChaosHop& h : sc.hops) {
    if (h.dup_rate > 0.0) strict_leak = false;
  }
  for (ChaosConn& c : conns) {
    const auto gave_up = c.sender->gave_up_tpdus();
    for (std::uint32_t id : gave_up) c.receiver->abort_tpdu(id);
    const auto leftovers = c.receiver->unfinished_tpdu_ids();
    if (strict_leak && !leftovers.empty()) {
      std::string ids;
      for (std::uint32_t id : leftovers) ids += fmt(" %llu", id);
      res.fail(fmt("oracle-3: connection %llu keeps %llu unfinished TPDU "
                   "contexts after the given-up TPDUs were aborted (ids:%s)",
                   c.id, leftovers.size(), ids.c_str()));
    }
    for (std::uint32_t id : leftovers) c.receiver->abort_tpdu(id);

    // ---- oracle 3: no held state after cleanup
    const auto& rs = c.receiver->stats();
    if (rs.held_bytes_now != 0) {
      res.fail(fmt("oracle-3: connection %llu still holds %llu bytes after "
                   "quiescence cleanup",
                   c.id, rs.held_bytes_now));
    }
    if (c.receiver->reorder_queue_chunks() != 0) {
      res.fail(fmt("oracle-3: connection %llu still queues chunks for "
                   "reorder after cleanup (%llu)",
                   c.id, c.receiver->reorder_queue_chunks()));
    }
    if (c.receiver->unfinished_tpdus() != 0) {
      res.fail(fmt("oracle-3: connection %llu has %llu unfinished TPDU "
                   "contexts after abort",
                   c.id, c.receiver->unfinished_tpdus()));
    }
  }

  // ---- oracle 2: per-connection conservation + registry cross-check
  // (every receiver shares the mode-prefixed counters, so the registry
  // holds the SUM across connections).
  std::uint64_t sum_placed = 0, sum_dropped = 0, sum_dropped_bytes = 0,
                sum_dups = 0, sum_gave_up = 0, sum_rto_backoffs = 0;
  for (ChaosConn& c : conns) {
    const auto& rs = c.receiver->stats();
    const std::uint64_t dispositions =
        rs.framing_error_chunks + rs.duplicate_chunks + rs.overlap_chunks +
        rs.chunks_placed + rs.oob_chunks + rs.dropped_unplaced_chunks;
    if (rs.data_chunks != dispositions) {
      res.fail(fmt("oracle-2: connection %llu: %llu data chunks do not "
                   "balance against dispositions",
                   c.id, rs.data_chunks));
    }
    sum_placed += rs.chunks_placed;
    sum_dropped += rs.dropped_unplaced_chunks;
    sum_dropped_bytes += rs.dropped_unplaced_bytes;
    sum_dups += rs.duplicate_chunks;
    sum_gave_up += c.sender->stats().gave_up;
    sum_rto_backoffs += c.sender->stats().rto_backoffs;
    res.tpdus_accepted += rs.tpdus_accepted;
    res.tpdus_rejected += rs.tpdus_rejected;
    res.data_chunks += rs.data_chunks;
    res.acks_resent += rs.acks_resent;
  }
  const auto& fs = injector.stats();
  if (fs.offered != fs.delivered + fs.dropped_loss + fs.dropped_blackout) {
    res.fail(fmt("oracle-2: fault injector offered %llu != delivered + "
                 "dropped %llu",
                 fs.offered,
                 fs.delivered + fs.dropped_loss + fs.dropped_blackout));
  }
  const std::string p = std::string("receiver.") + to_string(sc.mode) + ".";
  const struct {
    const char* name;
    std::uint64_t expect;
  } reg_checks[] = {
      {"data_chunks", res.data_chunks},
      {"chunks_placed", sum_placed},
      {"dropped_unplaced_chunks", sum_dropped},
      {"dropped_unplaced_bytes", sum_dropped_bytes},
      {"duplicate_chunks", sum_dups},
      {"tpdus_accepted", res.tpdus_accepted},
      {"tpdus_rejected", res.tpdus_rejected},
      {"acks_resent", res.acks_resent},
  };
  for (const auto& ck : reg_checks) {
    const std::uint64_t v = reg.counter(p + ck.name).value();
    if (v != ck.expect) {
      res.fail(fmt((std::string("oracle-2: registry ") + p + ck.name +
                    " = %llu but summed receiver stats say %llu")
                       .c_str(),
                   v, ck.expect));
    }
  }
  if (reg.counter("sender.gave_up").value() != sum_gave_up) {
    res.fail(fmt("oracle-2: registry sender.gave_up %llu != summed stats "
                 "%llu",
                 reg.counter("sender.gave_up").value(), sum_gave_up));
  }
  if (sc.adaptive_rto &&
      reg.counter("sender.rto_backoffs").value() != sum_rto_backoffs) {
    res.fail(fmt("oracle-2: registry sender.rto_backoffs %llu != summed "
                 "stats %llu",
                 reg.counter("sender.rto_backoffs").value(),
                 sum_rto_backoffs));
  }

  // ---- oracle 1: truthful delivery, per connection against its own
  // deterministic stream. Every TPDU a sender did not give up on was
  // positively acked, so the receiver must have accepted it with
  // exactly the transmitted bytes in application memory.
  for (ChaosConn& c : conns) {
    std::set<std::uint32_t> accepted_ids;
    for (const TpduOutcome& o : c.outcomes) {
      if (o.verdict == TpduVerdict::kAccepted) accepted_ids.insert(o.tpdu_id);
    }
    const auto gave_up = c.sender->gave_up_tpdus();
    const std::set<std::uint32_t> gave_up_ids(gave_up.begin(), gave_up.end());
    const auto app = c.receiver->app_data();
    for (std::uint32_t k = 0; k < tpdu_count; ++k) {
      const std::uint32_t id = 1 + k;  // frame_stream's first_tpdu_id
      if (gave_up_ids.count(id) != 0) continue;  // reported undelivered
      if (accepted_ids.count(id) == 0) {
        res.fail(fmt("oracle-1: connection %llu TPDU %llu was positively "
                     "acked but never reported accepted",
                     c.id, id));
        continue;
      }
      const std::size_t lo =
          static_cast<std::size_t>(k) * sc.tpdu_elements * sc.element_size;
      const std::size_t hi =
          std::min(nbytes, lo + static_cast<std::size_t>(sc.tpdu_elements) *
                                    sc.element_size);
      for (std::size_t b = lo; b < hi; ++b) {
        if (app[b] != c.stream[b]) {
          res.fail(fmt("oracle-1: connection %llu TPDU %llu delivered with "
                       "wrong bytes",
                       c.id, id));
          break;
        }
      }
    }
    if (gave_up.empty() && c.sender->all_acked() &&
        !c.receiver->stream_complete(sc.stream_elements)) {
      res.fail(fmt("oracle-1: connection %llu fully acked yet the element "
                   "coverage map reports the stream incomplete",
                   c.id));
    }
  }

  // ---- oracle 5: invariant soundness. Without any corruption source,
  // arbitrary re-enveloping (splits, merges, repacking, disorder,
  // loss-induced retransmission) must never produce a rejected TPDU or
  // a NAK: WSC-2 over the fragmentation-invariant layout plus the SN
  // consistency checks are exact under Appendix C/D transforms.
  if (!sc.corrupts_anything()) {
    if (res.tpdus_rejected != 0) {
      res.fail(fmt("oracle-5: %llu TPDUs rejected in a corruption-free "
                   "scenario",
                   res.tpdus_rejected));
      for (ChaosConn& c : conns) {
        for (const TpduOutcome& o : c.outcomes) {
          if (o.verdict != TpduVerdict::kAccepted) {
            res.fail(std::string("oracle-5:   connection ") +
                     std::to_string(c.id) + " TPDU " +
                     std::to_string(o.tpdu_id) + " verdict " +
                     to_string(o.verdict));
          }
        }
      }
    }
    for (ChaosConn& c : conns) {
      if (c.sender->stats().naks != 0) {
        res.fail(fmt("oracle-5: connection %llu saw NAKs in a "
                     "corruption-free scenario",
                     c.id));
      }
    }
  }

  // ---- oracle 6: overload fairness. Governed memory stays under the
  // hard watermark at its PEAK, drains at quiescence, admission
  // accounting closes, and no admitted connection silently starves.
  if (gov != nullptr) {
    const auto gs = gov->stats();
    res.governor_charged_peak = gs.charged_peak;
    res.governor_sheds = gs.sheds;
    if (gs.charged_peak > sc.governor_budget) {
      res.fail(fmt("oracle-6: governor charged_peak %llu exceeded the hard "
                   "watermark %llu",
                   gs.charged_peak, sc.governor_budget));
    }
    if (gs.charged_now != 0) {
      res.fail(fmt("oracle-6: governor still accounts %llu charged bytes "
                   "after quiescence cleanup",
                   gs.charged_now));
    }
    // Every main connection gets exactly one admission decision; every
    // churn decision was observed through the open/refusal callbacks —
    // the two independent tallies must agree with the shard counters.
    if (dstats.connections_admitted + dstats.connections_refused !=
        nconn + churn_admitted + churn_refused) {
      res.fail(fmt("oracle-6: admission accounting does not close: "
                   "admitted+refused %llu != offered %llu",
                   dstats.connections_admitted + dstats.connections_refused,
                   nconn + churn_admitted + churn_refused));
    }
  }
  if (churn_n > 0) {
    // Churn must not leak connection-table state: every ephemeral flow
    // was closed, and every remembered refusal aged out on its TTL.
    if (demux.flows() != conns.size()) {
      res.fail(fmt("oracle-3: connection table holds %llu flows after the "
                   "churn drained but only %llu long-lived connections "
                   "exist",
                   demux.flows(), conns.size()));
    }
    if (demux.refused_size() != 0) {
      res.fail(fmt("oracle-3: %llu refused-connection entries survived "
                   "their TTL",
                   demux.refused_size()));
    }
    if (churn_admitted + churn_refused == 0) {
      res.fail(fmt("oracle-6: churn dimension requested (%llu opens) but "
                   "no admission decision was ever made",
                   churn_n));
    }
  }
  if (sc.overloaded()) {
    for (ChaosConn& c : conns) {
      std::uint64_t accepted = 0;
      for (const TpduOutcome& o : c.outcomes) {
        if (o.verdict == TpduVerdict::kAccepted) ++accepted;
      }
      if (accepted == 0 && c.sender->stats().gave_up < tpdu_count) {
        res.fail(fmt("oracle-6: admitted connection %llu starved: zero "
                     "TPDUs accepted and not every TPDU truthfully given up",
                     c.id));
      }
    }
  }

  // ---- oracle 7: no stranded packets on a dead path. Every packet
  // the spray plane transmitted is accounted as delivered or as loss
  // evidence (dead-path drops included), nothing is still tracked in
  // flight at quiescence, a killed path never carried traffic while a
  // live one existed, and the kill itself surfaced as a failover. The
  // registry's per-path counters must agree with the scheduler.
  if (mpath != nullptr) {
    const auto& ms = mpath->stats();
    res.mp_failovers = ms.failovers;
    res.mp_failbacks = ms.failbacks;
    if (mpath->inflight() != 0) {
      res.fail(fmt("oracle-7: %llu packets still tracked in flight on "
                   "the multipath plane after quiescence",
                   mpath->inflight()));
    }
    std::uint64_t sprayed_sum = 0;
    for (std::size_t i = 0; i < mpath->path_count(); ++i) {
      const auto& ps = mpath->path_stats(i);
      sprayed_sum += ps.tx_packets;
      res.mp_lost += ps.lost;
      if (ps.tx_packets != ps.delivered + ps.lost) {
        res.fail(fmt((std::string("oracle-7: path ") + std::to_string(i) +
                      " conservation does not close: %llu tx != %llu "
                      "delivered+lost")
                         .c_str(),
                     ps.tx_packets, ps.delivered + ps.lost));
      }
      const std::string mp =
          "mpath.path" + std::to_string(i) + ".tx_packets";
      if (reg.counter(mp).value() != ps.tx_packets) {
        res.fail(fmt((std::string("oracle-7: registry ") + mp +
                      " = %llu but scheduler stats say %llu")
                         .c_str(),
                     reg.counter(mp).value(), ps.tx_packets));
      }
    }
    if (sprayed_sum != ms.sprayed) {
      res.fail(fmt("oracle-7: %llu sprayed packets but per-path tx sums "
                   "to %llu",
                   ms.sprayed, sprayed_sum));
    }
    if (ms.killed_path_sends != 0) {
      res.fail(fmt("oracle-7: %llu packets were routed onto a killed "
                   "path while a live path existed",
                   ms.killed_path_sends));
    }
    if (sc.mp_kill_at > 0 && ms.failovers == 0) {
      res.fail("oracle-7: a path was killed mid-run but no failover was "
               "ever recorded");
    }
    if (reg.counter("mpath.failovers").value() != ms.failovers) {
      res.fail(fmt("oracle-7: registry mpath.failovers %llu != stats %llu",
                   reg.counter("mpath.failovers").value(), ms.failovers));
    }
  }

  if (capture != nullptr) rig.finish(*capture, sim, reg);
  return res;
}

// ------------------------------------------------------- minimization

ChaosScenario minimize_scenario(const ChaosScenario& sc, int steps) {
  using Pass = bool (*)(ChaosScenario&);
  // Each pass tries one simplification; minimization keeps it only if
  // the scenario still fails. Ordered most-destructive first so the
  // greedy walk sheds whole subsystems before fiddling with rates.
  static constexpr Pass passes[] = {
      [](ChaosScenario& s) {
        // Shed the whole overload dimension in one step: one
        // connection, no governor, flow control or churn.
        if (!s.overloaded()) return false;
        s.connections = 1;
        s.offered_load = 1.0;
        s.governor_budget = 0;
        s.governor_policy = 0;
        s.flow_control = false;
        s.churn_connections = 0;
        s.churn_interval = 0;
        return true;
      },
      [](ChaosScenario& s) {
        if (s.churn_connections == 0) return false;
        s.churn_connections = 0;
        s.churn_interval = 0;
        return true;
      },
      [](ChaosScenario& s) {
        // Shed the whole multipath plane back to a single first hop.
        if (!s.multipath()) return false;
        s.mp_paths = 0;
        s.mp_mode = 0;
        s.mp_skew = 0;
        s.mp_loss = 0.0;
        s.mp_kill_at = s.mp_revive_at = 0;
        s.mp_kill_path = 0;
        return true;
      },
      [](ChaosScenario& s) {
        if (s.mp_kill_at == 0) return false;
        s.mp_kill_at = s.mp_revive_at = 0;
        return true;
      },
      [](ChaosScenario& s) {
        if (s.mp_loss == 0.0 && s.mp_skew == 0) return false;
        s.mp_loss = 0.0;
        s.mp_skew = 0;
        return true;
      },
      [](ChaosScenario& s) {
        if (s.connections <= 2) return false;
        s.connections /= 2;
        return true;
      },
      [](ChaosScenario& s) {
        if (s.governor_budget == 0) return false;
        s.governor_budget = 0;
        s.governor_policy = 0;
        return true;
      },
      [](ChaosScenario& s) {
        if (!s.flow_control) return false;
        s.flow_control = false;
        return true;
      },
      [](ChaosScenario& s) {
        if (s.offered_load == 1.0) return false;
        s.offered_load = 1.0;
        return true;
      },
      [](ChaosScenario& s) {
        if (s.hops.size() <= 1) return false;
        s.hops.resize(1);
        return true;
      },
      [](ChaosScenario& s) {
        bool changed = false;
        for (ChaosHop& h : s.hops) {
          if (h.relay != ChaosRelayKind::kTransparent) {
            h.relay = ChaosRelayKind::kTransparent;
            h.rewrite_rate = 0.0;
            changed = true;
          }
        }
        return changed;
      },
      [](ChaosScenario& s) {
        if (s.blackout_interval == 0) return false;
        s.blackout_interval = s.blackout_duration = 0;
        return true;
      },
      [](ChaosScenario& s) {
        if (s.header_flip_rate == 0.0) return false;
        s.header_flip_rate = 0.0;
        return true;
      },
      [](ChaosScenario& s) {
        if (s.payload_flip_rate == 0.0) return false;
        s.payload_flip_rate = 0.0;
        return true;
      },
      [](ChaosScenario& s) {
        if (s.fault_mean_loss == 0.0) return false;
        s.fault_mean_loss = 0.0;
        return true;
      },
      [](ChaosScenario& s) {
        if (s.ack_loss_rate == 0.0) return false;
        s.ack_loss_rate = 0.0;
        return true;
      },
      [](ChaosScenario& s) {
        bool changed = false;
        for (ChaosHop& h : s.hops) {
          if (h.loss_rate != 0.0 || h.dup_rate != 0.0 || h.jitter != 0 ||
              h.route_flap_interval != 0) {
            h.loss_rate = h.dup_rate = 0.0;
            h.jitter = 0;
            h.route_flap_interval = 0;
            changed = true;
          }
        }
        return changed;
      },
      [](ChaosScenario& s) {
        bool changed = false;
        for (ChaosHop& h : s.hops) {
          if (h.lanes != 1) {
            h.lanes = 1;
            h.lane_skew = 0;
            changed = true;
          }
        }
        return changed;
      },
      [](ChaosScenario& s) {
        if (!s.selective_retransmit && s.gap_nak_delay == 0) return false;
        s.selective_retransmit = false;
        s.gap_nak_delay = 0;
        return true;
      },
      [](ChaosScenario& s) {
        if (!s.adaptive_rto) return false;
        s.adaptive_rto = false;
        return true;
      },
      [](ChaosScenario& s) {
        if (s.max_held_bytes == 0 && s.max_open_tpdus == 0) return false;
        s.max_held_bytes = 0;
        s.max_open_tpdus = 0;
        return true;
      },
      [](ChaosScenario& s) {
        if (s.first_conn_sn == 0) return false;
        s.first_conn_sn = 0;
        return true;
      },
      [](ChaosScenario& s) {
        if (s.stream_elements <= 2 * s.tpdu_elements) return false;
        s.stream_elements /= 2;
        return true;
      },
  };

  ChaosScenario best = sc;
  if (run_chaos(best).ok) return best;  // nothing to minimize

  bool progress = true;
  while (progress && steps > 0) {
    progress = false;
    for (const Pass pass : passes) {
      if (steps <= 0) break;
      ChaosScenario candidate = best;
      if (!pass(candidate)) continue;
      --steps;
      if (!run_chaos(candidate).ok) {
        best = candidate;
        progress = true;
      }
    }
  }
  return best;
}

}  // namespace chunknet
