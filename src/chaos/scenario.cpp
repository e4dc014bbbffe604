#include "src/chaos/scenario.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <type_traits>

#include "src/common/rng.hpp"

namespace chunknet {

const char* to_string(ChaosRelayKind k) {
  switch (k) {
    case ChaosRelayKind::kTransparent: return "transparent";
    case ChaosRelayKind::kRepack: return "repack";
    case ChaosRelayKind::kReassembleRelay: return "reassemble";
    case ChaosRelayKind::kRewriting: return "rewriting";
  }
  return "?";
}

namespace {

/// Header fields a rewriting relay may target. kPayload corrupts data
/// (end-to-end code territory); the rest corrupt framing. Grouped so
/// the generator can pick "payload-only" vs "any field".
constexpr ChunkField kHeaderFields[] = {
    ChunkField::kLen,  ChunkField::kCsn, ChunkField::kCst,
    ChunkField::kTid,  ChunkField::kTsn, ChunkField::kTst,
    ChunkField::kXid,  ChunkField::kXsn, ChunkField::kXst,
    ChunkField::kCid,
};

}  // namespace

bool ChaosScenario::corrupts_headers() const {
  if (header_flip_rate > 0.0) return true;
  for (const ChaosHop& h : hops) {
    if (h.relay == ChaosRelayKind::kRewriting && h.rewrite_rate > 0.0 &&
        h.rewrite_field != ChunkField::kPayload) {
      return true;
    }
  }
  return false;
}

bool ChaosScenario::corrupts_anything() const {
  if (payload_flip_rate > 0.0 || header_flip_rate > 0.0) return true;
  for (const ChaosHop& h : hops) {
    if (h.relay == ChaosRelayKind::kRewriting && h.rewrite_rate > 0.0) {
      return true;
    }
  }
  return false;
}

ChaosScenario make_scenario(std::uint64_t seed) {
  // A dedicated generator stream: the run itself draws from a different
  // stream (seed ^ run-salt in the harness), so adding a knob here
  // never perturbs link-level randomness of existing seeds' runs more
  // than necessary.
  Rng g(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  ChaosScenario sc;
  sc.seed = seed;

  // ---- workload: small enough to soak thousands of scenarios, large
  // enough for multi-TPDU, multi-packet interleavings.
  sc.element_size = static_cast<std::uint16_t>(4u << g.below(3));  // 4/8/16
  sc.tpdu_elements = static_cast<std::uint32_t>(g.range(64, 1024));
  const std::uint32_t tpdus = static_cast<std::uint32_t>(g.range(2, 12));
  sc.stream_elements = sc.tpdu_elements * tpdus -
                       static_cast<std::uint32_t>(g.below(sc.tpdu_elements / 2));
  sc.xpdu_elements = static_cast<std::uint32_t>(g.range(16, 512));
  sc.max_chunk_elements = static_cast<std::uint16_t>(g.range(8, 128));
  // Bias the C.SN origin toward the 2^32 boundary: half the scenarios
  // start close enough below it that the stream crosses the wrap.
  if (g.chance(0.5)) {
    sc.first_conn_sn =
        0xFFFFFFFFu - static_cast<std::uint32_t>(
                          g.below(sc.stream_elements > 2 ? sc.stream_elements - 1
                                                         : 1));
  } else {
    sc.first_conn_sn = g.u32() & 0x00FFFFFFu;
  }

  // ---- sender
  sc.max_retransmits = static_cast<int>(g.range(6, 16));
  sc.retransmit_timeout = g.range(10, 60) * kMillisecond;
  sc.adaptive_rto = g.chance(0.5);
  sc.selective_retransmit = g.chance(0.4);

  // ---- faults
  if (g.chance(0.7)) {
    sc.fault_mean_loss = 0.01 + 0.14 * g.uniform();
    sc.fault_mean_burst = 1.0 + 5.0 * g.uniform();
  }
  if (g.chance(0.4)) sc.payload_flip_rate = 0.01 + 0.09 * g.uniform();
  if (g.chance(0.3)) sc.header_flip_rate = 0.005 + 0.045 * g.uniform();
  if (g.chance(0.3)) {
    sc.blackout_interval = g.range(200, 800) * kMillisecond;
    sc.blackout_duration = g.range(20, 120) * kMillisecond;
  }
  sc.ack_loss_rate = g.chance(0.5) ? 0.15 * g.uniform() : 0.0;

  // ---- topology: 1–3 hops
  const std::size_t nhops = 1 + g.below(3);
  sc.hops.clear();
  for (std::size_t i = 0; i < nhops; ++i) {
    ChaosHop h;
    h.rate_bps = 100e6 * static_cast<double>(g.range(1, 10));
    h.prop_delay = g.range(100, 4000) * kMicrosecond;
    h.mtu = static_cast<std::size_t>(g.range(296, 4000));
    h.loss_rate = g.chance(0.4) ? 0.08 * g.uniform() : 0.0;
    h.dup_rate = g.chance(0.25) ? 0.05 * g.uniform() : 0.0;
    h.jitter = g.chance(0.5) ? g.range(0, 2000) * kMicrosecond : 0;
    h.lanes = g.chance(0.4) ? static_cast<int>(g.range(2, 8)) : 1;
    h.lane_skew = h.lanes > 1 ? g.range(0, 800) * kMicrosecond : 0;
    h.route_flap_interval =
        g.chance(0.2) ? g.range(50, 400) * kMillisecond : 0;
    if (i > 0) {
      switch (g.below(5)) {
        case 0: h.relay = ChaosRelayKind::kTransparent; break;
        case 1:
        case 2: h.relay = ChaosRelayKind::kRepack; break;
        case 3: h.relay = ChaosRelayKind::kReassembleRelay; break;
        case 4:
          h.relay = ChaosRelayKind::kRewriting;
          h.rewrite_rate = 0.02 + 0.08 * g.uniform();
          h.rewrite_field =
              g.chance(0.4)
                  ? ChunkField::kPayload
                  : kHeaderFields[g.below(std::size(kHeaderFields))];
          break;
      }
      // A transparent relay in front of a smaller egress MTU drops
      // every full-size packet — a guaranteed give-up storm, not an
      // interesting scenario. Give transparent hops a pass-through MTU.
      if (h.relay == ChaosRelayKind::kTransparent) {
        h.mtu = sc.hops.empty() ? h.mtu : sc.hops.front().mtu;
      }
    }
    sc.hops.push_back(h);
  }

  // ---- receiver: mode constrained by the corruption model. Header
  // corruption demands reassemble-first delivery for byte-exactness
  // (immediate/reorder place data before the verdict; a flipped C.SN
  // would scribble into a neighbouring TPDU's delivered region — the
  // documented E11c trade-off, asserted by the oracle-sensitivity test).
  if (sc.corrupts_headers()) {
    sc.mode = DeliveryMode::kReassemble;
  } else if (sc.corrupts_anything()) {
    // Payload-only corruption: immediate placement is still eventually
    // byte-exact (the accepted attempt re-places every element itself),
    // but reorder is not — a stale corrupted copy can sit queued while
    // its clean retransmission is placed directly, then be released
    // over it. Keep reorder for corruption-free scenarios.
    sc.mode = g.chance(0.5) ? DeliveryMode::kImmediate
                            : DeliveryMode::kReassemble;
  } else {
    switch (g.below(3)) {
      case 0: sc.mode = DeliveryMode::kImmediate; break;
      case 1: sc.mode = DeliveryMode::kReorder; break;
      case 2: sc.mode = DeliveryMode::kReassemble; break;
    }
  }
  if (sc.mode != DeliveryMode::kImmediate && g.chance(0.4)) {
    sc.max_held_bytes = static_cast<std::size_t>(g.range(8, 64)) * 1024;
  }
  if (g.chance(0.3)) sc.max_open_tpdus = g.range(4, 32);
  if (g.chance(0.5)) {
    sc.gap_nak_delay = g.range(5, 40) * kMillisecond;
    sc.max_gap_naks = static_cast<int>(g.range(2, 8));
    sc.selective_retransmit = true;
  }

  // ---- overload dimension, drawn LAST: earlier draws are identical to
  // the pre-overload generator, so non-overload seeds replay their old
  // scenarios bit-for-bit. A quarter of the seeds become multi-
  // connection contention runs: several senders share the bottleneck
  // and a governor budget sized to a handful of TPDUs, with credit flow
  // control keeping every admitted connection live (the no-starvation
  // oracle). Corruption is zeroed here — overload runs probe resource
  // arbitration, and the corruption oracles stay single-connection
  // territory.
  if (g.chance(0.25)) {
    sc.connections = static_cast<std::uint32_t>(g.range(2, 6));
    sc.offered_load = 0.5 + 3.5 * g.uniform();
    sc.governor_budget = static_cast<std::size_t>(g.range(48, 160)) * 1024;
    sc.governor_policy = static_cast<std::uint8_t>(g.below(3));
    sc.flow_control = true;
    sc.payload_flip_rate = 0.0;
    sc.header_flip_rate = 0.0;
    for (ChaosHop& h : sc.hops) {
      if (h.relay == ChaosRelayKind::kRewriting) {
        h.relay = ChaosRelayKind::kTransparent;
        h.rewrite_rate = 0.0;
        h.mtu = sc.hops.front().mtu;
      }
    }
    // Held-state pressure is the point: reassemble-first delivery
    // stages whole TPDUs, the state the governor arbitrates. Local
    // caps come off so the GLOBAL budget is the binding constraint.
    sc.mode = DeliveryMode::kReassemble;
    sc.max_held_bytes = 0;
    sc.max_open_tpdus = 0;
    // A shared bottleneck plus eviction-driven retransmission needs a
    // roomier retry budget than a private path.
    sc.max_retransmits = std::max(sc.max_retransmits, 12);
  }

  // ---- connection churn, drawn after everything above (the same
  // appended-last contract the overload block honours): half the
  // overload runs also cycle ephemeral connections through the
  // demultiplexer — admission decisions, remembered refusals aging out
  // on the timer wheel, explicit closes — while the long-lived
  // transfers contend for the governor budget.
  if (sc.overloaded() && g.chance(0.5)) {
    sc.churn_connections = static_cast<std::uint32_t>(g.range(8, 48));
    sc.churn_interval = g.range(2, 20) * kMillisecond;
  }

  // ---- multipath dimension, drawn after churn (appended-last again,
  // so every earlier seed replays bit-for-bit): a fifth of the
  // single-connection seeds spray the first hop across 2–4 skewed
  // paths, half with per-path bursty loss, half with a mid-run
  // administrative path kill (mostly revived later so the hysteresis
  // failback runs too). Overload runs keep their shared bottleneck —
  // resource arbitration and path failover probe different planes.
  if (!sc.overloaded() && g.chance(0.2)) {
    sc.mp_paths = static_cast<std::uint32_t>(g.range(2, 4));
    sc.mp_mode = static_cast<std::uint8_t>(g.below(3));
    sc.mp_skew = g.range(0, 2000) * kMicrosecond;
    if (g.chance(0.5)) sc.mp_loss = 0.05 * g.uniform();
    if (g.chance(0.5)) {
      sc.mp_kill_at = g.range(30, 250) * kMillisecond;
      sc.mp_kill_path = static_cast<std::uint32_t>(g.below(sc.mp_paths));
      if (g.chance(0.7)) {
        sc.mp_revive_at = sc.mp_kill_at + g.range(50, 400) * kMillisecond;
      }
    }
    // Losing a path's worth of in-flight packets leans on the retry
    // budget the same way overload eviction does.
    sc.max_retransmits = std::max(sc.max_retransmits, 12);
  }
  return sc;
}

// ------------------------------------------------------- serialization

namespace {

/// Every scenario key, each named once and in text order: to_text
/// writes through these walks and parse_scenario_text reads through
/// them. `S` and `H` may be const. The last key, "hops", carries the
/// hop vector.
template <typename H, typename F>
void for_each_hop_field(H& h, F&& f) {
  f("rate_bps", h.rate_bps);
  f("prop_delay", h.prop_delay);
  f("mtu", h.mtu);
  f("loss_rate", h.loss_rate);
  f("dup_rate", h.dup_rate);
  f("jitter", h.jitter);
  f("lanes", h.lanes);
  f("lane_skew", h.lane_skew);
  f("route_flap_interval", h.route_flap_interval);
  f("relay", h.relay);
  f("rewrite_rate", h.rewrite_rate);
  f("rewrite_field", h.rewrite_field);
}

template <typename S, typename F>
void for_each_field(S& sc, F&& f) {
  f("seed", sc.seed);
  f("stream_elements", sc.stream_elements);
  f("element_size", sc.element_size);
  f("tpdu_elements", sc.tpdu_elements);
  f("xpdu_elements", sc.xpdu_elements);
  f("max_chunk_elements", sc.max_chunk_elements);
  f("first_conn_sn", sc.first_conn_sn);
  f("max_retransmits", sc.max_retransmits);
  f("retransmit_timeout", sc.retransmit_timeout);
  f("adaptive_rto", sc.adaptive_rto);
  f("selective_retransmit", sc.selective_retransmit);
  f("mode", sc.mode);
  f("max_held_bytes", sc.max_held_bytes);
  f("max_open_tpdus", sc.max_open_tpdus);
  f("gap_nak_delay", sc.gap_nak_delay);
  f("max_gap_naks", sc.max_gap_naks);
  f("fault_mean_loss", sc.fault_mean_loss);
  f("fault_mean_burst", sc.fault_mean_burst);
  f("payload_flip_rate", sc.payload_flip_rate);
  f("header_flip_rate", sc.header_flip_rate);
  f("blackout_interval", sc.blackout_interval);
  f("blackout_duration", sc.blackout_duration);
  f("ack_loss_rate", sc.ack_loss_rate);
  f("connections", sc.connections);
  f("offered_load", sc.offered_load);
  f("governor_budget", sc.governor_budget);
  f("governor_policy", sc.governor_policy);
  f("flow_control", sc.flow_control);
  f("churn_connections", sc.churn_connections);
  f("churn_interval", sc.churn_interval);
  f("mp_paths", sc.mp_paths);
  f("mp_mode", sc.mp_mode);
  f("mp_skew", sc.mp_skew);
  f("mp_loss", sc.mp_loss);
  f("mp_kill_at", sc.mp_kill_at);
  f("mp_revive_at", sc.mp_revive_at);
  f("mp_kill_path", sc.mp_kill_path);
  f("watchdog", sc.watchdog);
  f("hops", sc.hops);
}

constexpr char kHopPrefix[] = "hop";

/// Doubles print round-trippably; integers, bools and enums print as
/// their unsigned 64-bit value.
template <typename T>
void put(std::ostringstream& os, const std::string& key, const T& v) {
  os << key << " = ";
  if constexpr (std::is_floating_point_v<T>) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
  } else {
    os << static_cast<std::uint64_t>(v);
  }
  os << "\n";
}

/// The hop list prints as its count, then each hop's keys as
/// hopN.<key>.
void put(std::ostringstream& os, const std::string& key,
         const std::vector<ChaosHop>& hops) {
  put(os, key, hops.size());
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const std::string p = kHopPrefix + std::to_string(i) + ".";
    for_each_hop_field(hops[i], [&](const char* hkey, const auto& v) {
      put(os, p + hkey, v);
    });
  }
}

/// Stores a strtod-parsed value: bools are `!= 0`, the rest a cast; the
/// hop list resizes to the count.
template <typename T>
void assign(T& field, double num) {
  if constexpr (std::is_same_v<T, bool>) {
    field = num != 0;
  } else {
    field = static_cast<T>(num);
  }
}
void assign(std::vector<ChaosHop>& hops, double num) {
  hops.resize(static_cast<std::size_t>(num));
}

std::string trim(const std::string& s) {
  std::size_t a = 0, b = s.size();
  while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
  while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
  return s.substr(a, b - a);
}

}  // namespace

std::string to_text(const ChaosScenario& sc) {
  std::ostringstream os;
  os << "# chunknet chaos scenario (replay: chaos_soak --replay-file <this>)\n";
  for_each_field(sc, [&](const char* key, const auto& v) { put(os, key, v); });
  return os.str();
}

std::optional<ChaosScenario> parse_scenario_text(const std::string& text) {
  ChaosScenario sc;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = trim(t.substr(0, eq));
    const std::string val = trim(t.substr(eq + 1));
    char* end = nullptr;
    const double num = std::strtod(val.c_str(), &end);
    if (end == val.c_str()) return std::nullopt;

    // Sets the field a walk names `want`. The seed is a full 64-bit
    // value: it is parsed as an integer (a double round-trip would lose
    // bits above 2^53 and replay a different run).
    bool known = false;
    const auto set_named = [&](const std::string& want) {
      return [&, want](const char* name, auto& field) {
        if (known || want != name) return;
        known = true;
        if (&field == static_cast<void*>(&sc.seed)) {
          sc.seed = std::strtoull(val.c_str(), nullptr, 10);
        } else {
          assign(field, num);
        }
      };
    };
    for_each_field(sc, set_named(key));
    if (!known && key.rfind(kHopPrefix, 0) == 0) {
      const std::size_t dot = key.find('.');
      if (dot == std::string::npos) return std::nullopt;
      const std::size_t idx = static_cast<std::size_t>(
          std::atoi(key.c_str() + std::strlen(kHopPrefix)));
      if (idx >= sc.hops.size()) sc.hops.resize(idx + 1);
      for_each_hop_field(sc.hops[idx], set_named(key.substr(dot + 1)));
    }
    if (!known) return std::nullopt;  // a repro must mean what it says
  }
  if (sc.hops.empty()) sc.hops.push_back(ChaosHop{});
  return sc;
}

}  // namespace chunknet
