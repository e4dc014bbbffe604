// Seed-derived chaos scenarios.
//
// A ChaosScenario is a complete, self-contained description of one
// randomized end-to-end run: the workload, the sender/receiver
// configuration, a 1–3 hop topology (each hop with its own impairments
// and relay behaviour), and a fault-injection schedule. Everything is
// derived deterministically from one 64-bit master seed, so any failing
// run replays bit-for-bit from `chaos_soak --replay <seed>` — the same
// single-seed reproducibility contract the Rng header promises for the
// benches, extended to whole adversarial scenarios.
//
// Scenarios also serialize to a human-readable key=value text form so a
// minimized repro can be checked in under tests/chaos_repros/ and
// replayed with --replay-file long after the generator's sampling
// distribution has changed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/netsim/faults.hpp"
#include "src/netsim/link.hpp"
#include "src/netsim/simulator.hpp"
#include "src/transport/receiver.hpp"

namespace chunknet {

/// What the router between two hops does to packets in flight.
enum class ChaosRelayKind : std::uint8_t {
  kTransparent = 0,  ///< forward unchanged (egress MTU drops oversize)
  kRepack = 1,       ///< re-envelope chunks (Figure 4 method 2)
  kReassembleRelay = 2,  ///< merge + re-envelope (Figure 4 method 3)
  kRewriting = 3,    ///< misbehaving: rewrites one framing field
};

const char* to_string(ChaosRelayKind k);

/// One hop of the forward path. The first hop has no relay in front of
/// it (the sender injects straight into it); every later hop is fed by
/// a router applying `relay`.
struct ChaosHop {
  double rate_bps{622e6};
  SimTime prop_delay{1 * kMillisecond};
  std::size_t mtu{1500};
  double loss_rate{0.0};
  double dup_rate{0.0};
  SimTime jitter{0};
  int lanes{1};
  SimTime lane_skew{0};
  SimTime route_flap_interval{0};
  ChaosRelayKind relay{ChaosRelayKind::kTransparent};
  double rewrite_rate{0.0};          ///< kRewriting only
  ChunkField rewrite_field{ChunkField::kPayload};  ///< kRewriting only
};

struct ChaosScenario {
  std::uint64_t seed{0};

  // ---- workload
  std::uint32_t stream_elements{4096};
  std::uint16_t element_size{4};
  std::uint32_t tpdu_elements{512};
  std::uint32_t xpdu_elements{128};
  std::uint16_t max_chunk_elements{64};
  /// Near-wrap starts are sampled deliberately so every soak batch
  /// exercises C.SN arithmetic across the 2^32 boundary.
  std::uint32_t first_conn_sn{0};

  // ---- sender
  int max_retransmits{12};
  SimTime retransmit_timeout{20 * kMillisecond};
  bool adaptive_rto{false};
  bool selective_retransmit{false};

  // ---- receiver
  DeliveryMode mode{DeliveryMode::kImmediate};
  std::size_t max_held_bytes{0};
  std::size_t max_open_tpdus{0};
  SimTime gap_nak_delay{0};
  int max_gap_naks{6};

  // ---- fault injector (sits after the first hop)
  double fault_mean_loss{0.0};
  double fault_mean_burst{4.0};
  double payload_flip_rate{0.0};
  double header_flip_rate{0.0};
  SimTime blackout_interval{0};
  SimTime blackout_duration{0};

  // ---- reverse (ACK) path
  double ack_loss_rate{0.0};

  // ---- overload dimension (docs/ROBUSTNESS.md, "Overload control"):
  // `connections` senders share the forward path through one
  // demultiplexer whose receivers charge a common ResourceGovernor.
  // Drawn LAST by the generator so pre-overload seeds replay untouched.
  std::uint32_t connections{1};
  /// Offered-load multiplier: the first hop's rate is divided by this,
  /// so >1 means aggregate demand exceeds the bottleneck.
  double offered_load{1.0};
  /// Governor hard watermark in bytes shared by every connection
  /// (soft = 3/4 of it). 0 disables the governor.
  std::size_t governor_budget{0};
  std::uint8_t governor_policy{0};  ///< ShedPolicy numeric value
  /// Credit-based flow control on every connection (sender window +
  /// receiver grants).
  bool flow_control{false};
  /// Connection churn (drawn after the overload block — new knobs are
  /// appended, never inserted, so earlier seeds replay bit-for-bit):
  /// this many ephemeral ConnectionOpen signals cycle through the
  /// demultiplexer while the long-lived transfers run — admissions,
  /// TTL'd refusals, and explicit closes, all against the sharded
  /// connection table.
  std::uint32_t churn_connections{0};
  /// Gap between successive churn opens.
  SimTime churn_interval{0};

  // ---- multipath dimension (drawn after the churn block under the
  // same appended-last contract): the first hop is replaced by a
  // MultipathScheduler spraying across `mp_paths` copies of hop 0,
  // each at rate/mp_paths with `i * mp_skew` extra propagation delay
  // and an optional private Gilbert–Elliott loss process, plus an
  // optional mid-run administrative path kill (and revival). The
  // generator draws it only into runs that are not overloaded, but the
  // harness runs it with any number of connections; checked by oracle
  // 7 (no stranded packets on a dead path).
  std::uint32_t mp_paths{0};   ///< 0/1 = off; >= 2 sprays hop 0
  std::uint8_t mp_mode{0};     ///< SprayMode numeric value
  SimTime mp_skew{0};          ///< extra prop delay per path index
  double mp_loss{0.0};         ///< per-path GE mean loss rate
  SimTime mp_kill_at{0};       ///< 0 = never kill a path
  SimTime mp_revive_at{0};     ///< 0 = killed path stays dead
  std::uint32_t mp_kill_path{0};

  std::vector<ChaosHop> hops{ChaosHop{}};

  /// Simulator watchdog: a run still holding events at this simulated
  /// time is declared livelocked (oracle 4).
  SimTime watchdog{600 * kSecond};

  /// True when some fault source can corrupt chunk HEADERS in flight
  /// (bit flips in the header region or a framing-field-rewriting
  /// relay). Such scenarios are only byte-exact-safe in kReassemble
  /// delivery (immediate/reorder place data before the verdict — the
  /// documented E11c trade-off), and the generator constrains them so.
  bool corrupts_headers() const;
  /// True when any source can corrupt bytes at all (headers or
  /// payload); corruption-free scenarios must see zero rejected TPDUs
  /// (oracle 5: no false rejects across arbitrary re-enveloping).
  bool corrupts_anything() const;

  /// True when the scenario contends for shared resources: several
  /// connections, a governor, credit flow control, or churn. Every
  /// scenario runs the same demultiplexer pipeline; this flag only
  /// steers the generator and the minimizer, gives each connection its
  /// own stream seed, relaxes oracle 3's no-leftover check and turns
  /// on oracle 6.
  bool overloaded() const {
    return connections > 1 || governor_budget != 0 || flow_control ||
           churn_connections > 0;
  }

  /// True when the first hop is sprayed across a multipath plane.
  bool multipath() const { return mp_paths >= 2; }

  std::size_t stream_bytes() const {
    return static_cast<std::size_t>(stream_elements) * element_size;
  }
};

/// Derives a full scenario from a master seed. Always returns a
/// scenario whose oracle set is expected to hold (e.g. header-corrupting
/// faults force kReassemble delivery).
ChaosScenario make_scenario(std::uint64_t seed);

/// Human-readable `key = value` serialization (one key per line,
/// hops as hopN.field). Round-trips through parse_scenario_text.
std::string to_text(const ChaosScenario& sc);

/// Parses the to_text form. Unknown keys are errors (a repro file must
/// mean what it says); missing keys keep their defaults.
std::optional<ChaosScenario> parse_scenario_text(const std::string& text);

}  // namespace chunknet
