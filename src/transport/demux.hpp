// Connection demultiplexing (paper Appendix A + [FELD 90]).
//
// "Packets are utilized more efficiently if multiple chunks can be
// carried in a packet… this idea can be extended to packets that carry
// chunks from multiple connections. Data, signaling information, and
// acknowledgments can be combined in any combination."
//
// The demultiplexer opens each packet envelope ONCE and routes every
// chunk to its connection's receiver by C.ID (and ACK/SIGNAL chunks to
// a control sink, enabling piggybacked acknowledgments without any
// piggybacking logic in the error-control protocol — the Appendix-A
// modularity point). Chunk TYPE-based routing to processing units is
// how the paper envisions distributed protocol processors.
//
// Million-flow scale-out: the connection table is SHARDED by a mixed
// hash of C.ID. Each shard owns its flows (an open-addressed FlatMap),
// its refused-connection table, its idle-LRU order, and its slice of
// the admission lease — nothing on the per-packet path crosses shards
// or takes a global lock. Shards map 1:1 onto the paper's distributed
// protocol processors: a chunk's owning shard is a pure function of
// the label, so a hardware demultiplexer could route to per-shard
// processing units the same way.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/flat_map.hpp"
#include "src/common/pick_queue.hpp"
#include "src/common/resource_governor.hpp"
#include "src/common/runtime.hpp"
#include "src/transport/receiver.hpp"
#include "src/transport/signalling.hpp"

namespace chunknet {

/// Admission control for new connections (docs/ROBUSTNESS.md,
/// "Overload control"): a ConnectionOpen for an unknown C.ID is
/// admitted only if the governor can reserve `reserve_bytes` of
/// headroom under its hard watermark; otherwise the demultiplexer
/// answers with an explicit ConnectionRefused signal instead of letting
/// the newcomer thrash established connections.
struct DemuxAdmissionConfig {
  ResourceGovernor* governor{nullptr};
  std::uint64_t reserve_bytes{32 * 1024};
  int priority{1};
  /// Batched admission: when > 0, each shard reserves
  /// `lease_batch * reserve_bytes` of governor headroom in one call
  /// and admits that many connections locally before going back —
  /// the admit fast path touches only shard-local state. 0 keeps the
  /// legacy one-governor-call-per-connection behaviour.
  std::uint32_t lease_batch{0};
  /// Governor client ids for the per-shard leases: shard i leases
  /// under `lease_client_base + i`. Must not collide with connection
  /// ids (the default sits at the top of the id space).
  std::uint32_t lease_client_base{0xFFFF0000u};
  /// Creates and attaches the receiver for an admitted connection
  /// (ownership stays with the caller; return nullptr to refuse).
  std::function<ChunkTransportReceiver*(const ConnectionOpen&)>
      open_connection;
  /// Carries the refusal signal back toward the would-be sender.
  std::function<void(Chunk)> send_refusal;
};

/// Structural knobs, fixed at construction. The defaults reproduce the
/// single-shard demultiplexer (1 shard, no timers) — sharding and the
/// deadline-driven maintenance paths are opt-in.
struct DemuxConfig {
  /// Connection-table shards; rounded up to a power of two.
  std::uint32_t shards{1};
  /// Hard cap on remembered refusals PER SHARD; beyond it the oldest
  /// refusal is forgotten (FIFO) so the table is bounded even without
  /// a clock to age them out.
  std::uint32_t max_refused{4096};
  /// Refusals are forgotten after this long (the retry-hint deadline):
  /// a sender that retries later gets a fresh admission decision.
  /// Aged out on `timers`; without one only the cap applies.
  SimTime refused_ttl{5 * kSecond};
  /// When > 0, a connection with no routed chunks for this long is
  /// evicted from its shard in LRU order, on `timers` (no clock, no
  /// idle eviction).
  SimTime idle_timeout{0};
  /// Drives time and the refused-TTL and idle-eviction deadlines: any
  /// Clock, e.g. a Simulator or one endpoint's shared SimTimerWheel.
  Clock* timers{nullptr};
  /// Told about each idle eviction (the receiver is NOT destroyed —
  /// ownership stays with the caller, mirroring attach()).
  std::function<void(std::uint32_t, ChunkTransportReceiver*)> on_idle_evict;
};

class ChunkDemultiplexer final : public PacketSink {
 public:
  ChunkDemultiplexer() : ChunkDemultiplexer(DemuxConfig{}) {}
  explicit ChunkDemultiplexer(DemuxConfig cfg);
  ~ChunkDemultiplexer() override;

  /// Routes data/ED chunks with the given C.ID to `receiver`.
  void attach(std::uint32_t connection_id, ChunkTransportReceiver& receiver);

  void detach(std::uint32_t connection_id);

  /// Routes ACK and SIGNAL chunks (any connection) to `sink`; they are
  /// re-wrapped in a single-chunk packet since control consumers speak
  /// the PacketSink interface.
  void attach_control(PacketSink& sink) { control_ = &sink; }

  /// Enables signal-driven admission control (see DemuxAdmissionConfig).
  void configure_admission(DemuxAdmissionConfig admission) {
    admission_ = std::move(admission);
  }

  /// Observability (optional): connection-admission span events are
  /// recorded against cfg.timers (time 0 without one), and per-shard
  /// routing counters are published to the registry.
  void set_obs(ObsContext* obs);

  /// Programmatic admission (benches / topology builders): reserves
  /// governor headroom for `connection_id` without a ConnectionOpen
  /// signal. True when admitted (always, if no governor is configured).
  bool try_admit(std::uint32_t connection_id);

  void on_packet(SimPacket pkt) override;

  struct Stats {
    std::uint64_t packets{0};
    std::uint64_t malformed{0};
    std::uint64_t data_chunks_routed{0};
    std::uint64_t control_chunks_routed{0};
    std::uint64_t unknown_connection{0};
    std::uint64_t connections_admitted{0};
    std::uint64_t connections_refused{0};
    std::uint64_t refused_expired{0};  ///< refusals aged out (TTL/cap)
    std::uint64_t idle_evicted{0};
    std::uint64_t lease_acquires{0};   ///< governor round-trips for admission
  };
  /// Aggregated over shards (packet-level fields are demux-global).
  Stats stats() const;

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Which shard owns a connection id (pure function of the label).
  std::uint32_t shard_of(std::uint32_t connection_id) const {
    return static_cast<std::uint32_t>(flat_hash_mix(connection_id) >>
                                      shard_shift_) &
           (shard_count() - 1);
  }
  /// Routing/admission counters for one shard (packet-level fields 0).
  const Stats& shard_stats(std::uint32_t shard) const {
    return shards_[shard].stats;
  }
  std::size_t flows() const;
  std::size_t refused_size() const;  ///< remembered refusals, all shards
  /// Structural memory of the connection tables (flow + refused maps,
  /// LRU queues) — the bench's bytes-per-flow probe.
  std::size_t state_bytes() const;

 private:
  struct FlowEntry {
    ChunkTransportReceiver* rx{nullptr};
    SimTime last_activity{0};
    std::int32_t idle_node{PickQueue::kNil};
    bool leased{false};  ///< admitted against the shard's lease
  };
  struct RefusedEntry {
    SimTime expires{0};
    std::int32_t node{PickQueue::kNil};  ///< position in refused_fifo
  };
  struct Shard {
    FlatMap<std::uint32_t, FlowEntry> flows;
    FlatMap<std::uint32_t, RefusedEntry> refused;
    PickQueue idle_lru;      ///< front = least recently active
    PickQueue refused_fifo;  ///< front = oldest refusal (= earliest TTL)
    TimerId idle_timer{0};
    TimerId refused_timer{0};
    std::uint32_t lease_slots{0};   ///< admissions left in current lease
    std::uint64_t lease_bytes{0};   ///< reserve currently held via lease
    Stats stats;
    Counter* c_data_routed{nullptr};
    Counter* c_admitted{nullptr};
    Counter* c_refused{nullptr};
  };

  void handle_connection_open(const ChunkView& v);
  bool admit(Shard& sh, std::uint32_t connection_id);
  void note_refused(Shard& sh, std::uint32_t connection_id);
  void insert_flow(Shard& sh, std::uint32_t connection_id,
                   ChunkTransportReceiver* rx, bool leased);
  void remove_flow(Shard& sh, std::uint32_t connection_id, FlowEntry& f);
  void arm_idle_timer(Shard& sh);
  void fire_idle(Shard& sh);
  void arm_refused_timer(Shard& sh);
  void fire_refused(Shard& sh);
  std::uint32_t lease_id(const Shard& sh) const;
  SimTime now() const;
  void span(SpanEventKind kind, std::uint32_t connection_id,
            std::uint64_t aux = 0) const;

  Shard& shard_for(std::uint32_t connection_id) {
    return shards_[shard_of(connection_id)];
  }

  DemuxConfig cfg_;
  std::vector<Shard> shards_;
  /// mix(id) >> shift, masked to the shard count, picks the shard. Uses
  /// the TOP bits of the mix — the FlatMap bucket index uses the low
  /// bits, so shard choice and probe position stay uncorrelated. With
  /// one shard the mask is 0 (shift stays < 64: no UB).
  int shard_shift_{32};
  PacketSink* control_{nullptr};
  ObsContext* obs_{nullptr};
  DemuxAdmissionConfig admission_;
  /// Reused across packets (no per-packet allocation at steady state).
  std::vector<ChunkView> view_scratch_;
  /// The packet-level fields of stats() (a packet may span shards).
  Stats packet_stats_;
};

}  // namespace chunknet
