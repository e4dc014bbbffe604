#include "src/transport/demux.hpp"

#include <string>

#include "src/chunk/codec.hpp"

namespace chunknet {

namespace {
std::uint32_t round_up_pow2(std::uint32_t v) {
  if (v <= 1) return 1;
  --v;
  v |= v >> 1;
  v |= v >> 2;
  v |= v >> 4;
  v |= v >> 8;
  v |= v >> 16;
  return v + 1;
}
}  // namespace

ChunkDemultiplexer::ChunkDemultiplexer(DemuxConfig cfg)
    : cfg_(std::move(cfg)) {
  const std::uint32_t n = round_up_pow2(cfg_.shards == 0 ? 1 : cfg_.shards);
  int bits = 0;
  while ((1u << bits) < n) ++bits;
  shard_shift_ = bits == 0 ? 32 : 64 - bits;
  shards_.resize(n);
}

ChunkDemultiplexer::~ChunkDemultiplexer() {
  // Hand every shard's outstanding lease reserve back to the governor
  // (covers both unconsumed lease slots and still-attached flows).
  if (admission_.governor != nullptr) {
    for (Shard& sh : shards_) {
      if (sh.lease_bytes > 0) {
        admission_.governor->release_admission_lease(lease_id(sh),
                                                     sh.lease_bytes);
      }
    }
  }
  if (cfg_.timers != nullptr) {
    for (Shard& sh : shards_) {
      cfg_.timers->cancel(sh.idle_timer);
      cfg_.timers->cancel(sh.refused_timer);
    }
  }
}

std::uint32_t ChunkDemultiplexer::lease_id(const Shard& sh) const {
  return admission_.lease_client_base +
         static_cast<std::uint32_t>(&sh - shards_.data());
}

SimTime ChunkDemultiplexer::now() const {
  return cfg_.timers != nullptr ? cfg_.timers->now() : 0;
}

void ChunkDemultiplexer::set_obs(ObsContext* obs) {
  obs_ = obs;
  if (obs_ != nullptr && obs_->metrics != nullptr) {
    MetricsRegistry& m = *obs_->metrics;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const std::string base = "demux.shard" + std::to_string(i) + ".";
      shards_[i].c_data_routed = &m.counter(base + "data_chunks");
      shards_[i].c_admitted = &m.counter(base + "admitted");
      shards_[i].c_refused = &m.counter(base + "refused");
    }
  }
}

void ChunkDemultiplexer::span(SpanEventKind kind,
                              std::uint32_t connection_id,
                              std::uint64_t aux) const {
  if (obs_ == nullptr || obs_->spans == nullptr) return;
  SpanEvent e;
  e.t = now();
  e.kind = kind;
  e.connection_id = connection_id;
  e.aux = aux;
  obs_->spans->record(e);
}

ChunkDemultiplexer::Stats ChunkDemultiplexer::stats() const {
  Stats agg = packet_stats_;
  for (const Shard& sh : shards_) {
    agg.data_chunks_routed += sh.stats.data_chunks_routed;
    agg.unknown_connection += sh.stats.unknown_connection;
    agg.connections_admitted += sh.stats.connections_admitted;
    agg.connections_refused += sh.stats.connections_refused;
    agg.refused_expired += sh.stats.refused_expired;
    agg.idle_evicted += sh.stats.idle_evicted;
    agg.lease_acquires += sh.stats.lease_acquires;
  }
  return agg;
}

std::size_t ChunkDemultiplexer::flows() const {
  std::size_t n = 0;
  for (const Shard& sh : shards_) n += sh.flows.size();
  return n;
}

std::size_t ChunkDemultiplexer::refused_size() const {
  std::size_t n = 0;
  for (const Shard& sh : shards_) n += sh.refused.size();
  return n;
}

std::size_t ChunkDemultiplexer::state_bytes() const {
  std::size_t n = sizeof(*this) + shards_.capacity() * sizeof(Shard);
  for (const Shard& sh : shards_) {
    n += sh.flows.memory_bytes() + sh.refused.memory_bytes() +
         sh.idle_lru.memory_bytes() + sh.refused_fifo.memory_bytes();
  }
  return n;
}

// ---------------------------------------------------------------- flows

void ChunkDemultiplexer::insert_flow(Shard& sh, std::uint32_t connection_id,
                                     ChunkTransportReceiver* rx, bool leased) {
  auto [f, inserted] = sh.flows.try_emplace(connection_id);
  f->rx = rx;
  f->leased = f->leased || leased;
  f->last_activity = now();
  if (cfg_.idle_timeout > 0 && cfg_.timers != nullptr) {
    if (inserted || f->idle_node == PickQueue::kNil) {
      f->idle_node = sh.idle_lru.push_back(connection_id);
    } else {
      sh.idle_lru.touch(f->idle_node);
    }
    arm_idle_timer(sh);
  }
}

void ChunkDemultiplexer::remove_flow(Shard& sh, std::uint32_t connection_id,
                                     FlowEntry& f) {
  if (f.idle_node != PickQueue::kNil) sh.idle_lru.remove(f.idle_node);
  if (f.leased && admission_.governor != nullptr) {
    // The flow's slice of the shard lease goes back to the governor so
    // `reserved_now` keeps tracking live admissions, not table size.
    const std::uint64_t give =
        std::min<std::uint64_t>(sh.lease_bytes, admission_.reserve_bytes);
    if (give > 0) {
      admission_.governor->release_admission_lease(lease_id(sh), give);
      sh.lease_bytes -= give;
    }
  }
  sh.flows.erase(connection_id);
}

void ChunkDemultiplexer::attach(std::uint32_t connection_id,
                                ChunkTransportReceiver& receiver) {
  insert_flow(shard_for(connection_id), connection_id, &receiver, false);
}

void ChunkDemultiplexer::detach(std::uint32_t connection_id) {
  Shard& sh = shard_for(connection_id);
  FlowEntry* f = sh.flows.find(connection_id);
  if (f == nullptr) return;
  remove_flow(sh, connection_id, *f);
}

// ------------------------------------------------------------- deadlines

void ChunkDemultiplexer::arm_idle_timer(Shard& sh) {
  if (cfg_.timers == nullptr || cfg_.idle_timeout == 0) return;
  if (sh.idle_timer != 0 || sh.idle_lru.empty()) return;
  const std::uint32_t front_id = sh.idle_lru.value(sh.idle_lru.front());
  const FlowEntry* f = sh.flows.find(front_id);
  if (f == nullptr) return;  // unreachable: LRU mirrors the flow table
  sh.idle_timer = cfg_.timers->arm_at(f->last_activity + cfg_.idle_timeout,
                                      [this, &sh] { fire_idle(sh); });
}

void ChunkDemultiplexer::fire_idle(Shard& sh) {
  sh.idle_timer = 0;
  const SimTime t = now();
  // Touched flows moved towards the back, so expiry is checked only at
  // the LRU head: O(evicted), never O(live). A head that was touched
  // since the timer was armed just re-arms for its new deadline.
  while (!sh.idle_lru.empty()) {
    const std::uint32_t id = sh.idle_lru.value(sh.idle_lru.front());
    FlowEntry* f = sh.flows.find(id);
    if (f == nullptr || f->last_activity + cfg_.idle_timeout > t) break;
    ChunkTransportReceiver* rx = f->rx;
    const SimTime idle_ns = t - f->last_activity;
    remove_flow(sh, id, *f);
    ++sh.stats.idle_evicted;
    span(SpanEventKind::kConnIdleEvicted, id, idle_ns);
    if (cfg_.on_idle_evict) cfg_.on_idle_evict(id, rx);
  }
  arm_idle_timer(sh);
}

void ChunkDemultiplexer::arm_refused_timer(Shard& sh) {
  if (cfg_.timers == nullptr || cfg_.refused_ttl == 0) return;
  if (sh.refused_timer != 0 || sh.refused_fifo.empty()) return;
  const std::uint32_t front_id =
      sh.refused_fifo.value(sh.refused_fifo.front());
  const RefusedEntry* re = sh.refused.find(front_id);
  if (re == nullptr) return;
  sh.refused_timer =
      cfg_.timers->arm_at(re->expires, [this, &sh] { fire_refused(sh); });
}

void ChunkDemultiplexer::fire_refused(Shard& sh) {
  sh.refused_timer = 0;
  const SimTime t = now();
  // TTL is constant, so FIFO order == expiry order: only the head can
  // be due.
  while (!sh.refused_fifo.empty()) {
    const std::uint32_t id = sh.refused_fifo.value(sh.refused_fifo.front());
    RefusedEntry* re = sh.refused.find(id);
    if (re == nullptr) {  // unreachable: FIFO mirrors the refused map
      sh.refused_fifo.remove(sh.refused_fifo.front());
      continue;
    }
    if (re->expires > t) break;
    sh.refused_fifo.remove(re->node);
    sh.refused.erase(id);
    ++sh.stats.refused_expired;
  }
  arm_refused_timer(sh);
}

// ------------------------------------------------------------- admission

bool ChunkDemultiplexer::admit(Shard& sh, std::uint32_t connection_id) {
  bool admitted = true;
  if (admission_.governor != nullptr) {
    if (admission_.lease_batch > 0) {
      if (sh.lease_slots == 0) {
        // Refill: one governor transaction buys lease_batch local
        // admissions. Fall back to a single-slot lease under memory
        // pressure so batching never refuses a connection the legacy
        // path would have admitted.
        std::uint32_t batch = admission_.lease_batch;
        ++sh.stats.lease_acquires;
        if (!admission_.governor->acquire_admission_lease(
                lease_id(sh), batch * admission_.reserve_bytes)) {
          batch = 1;
          ++sh.stats.lease_acquires;
          if (!admission_.governor->acquire_admission_lease(
                  lease_id(sh), admission_.reserve_bytes)) {
            batch = 0;
          }
        }
        sh.lease_slots = batch;
        sh.lease_bytes +=
            static_cast<std::uint64_t>(batch) * admission_.reserve_bytes;
      }
      if (sh.lease_slots > 0) {
        --sh.lease_slots;  // shard-local admit: no governor traffic
      } else {
        admitted = false;
      }
    } else {
      admitted = admission_.governor->try_admit(
          connection_id, admission_.reserve_bytes, admission_.priority);
    }
  }
  if (!admitted) {
    ++sh.stats.connections_refused;
    obs_add(sh.c_refused);
    span(SpanEventKind::kConnRefused, connection_id,
         admission_.reserve_bytes);
    return false;
  }
  ++sh.stats.connections_admitted;
  obs_add(sh.c_admitted);
  span(SpanEventKind::kConnAdmitted, connection_id,
       admission_.reserve_bytes);
  return true;
}

bool ChunkDemultiplexer::try_admit(std::uint32_t connection_id) {
  return admit(shard_for(connection_id), connection_id);
}

void ChunkDemultiplexer::note_refused(Shard& sh,
                                      std::uint32_t connection_id) {
  // Bounded by construction: FIFO-evict the oldest remembered refusal
  // at the cap (it simply gets re-refused if it retries), and TTL-evict
  // from the timer wheel when one is available.
  while (sh.refused.size() >= cfg_.max_refused && !sh.refused_fifo.empty()) {
    const std::uint32_t old = sh.refused_fifo.value(sh.refused_fifo.front());
    sh.refused_fifo.remove(sh.refused_fifo.front());
    sh.refused.erase(old);
    ++sh.stats.refused_expired;
  }
  auto [re, inserted] = sh.refused.try_emplace(connection_id);
  re->expires = now() + cfg_.refused_ttl;
  if (inserted) {
    re->node = sh.refused_fifo.push_back(connection_id);
  } else if (re->node != PickQueue::kNil) {
    sh.refused_fifo.touch(re->node);  // refreshed refusal: new deadline
  }
  arm_refused_timer(sh);
}

void ChunkDemultiplexer::handle_connection_open(const ChunkView& v) {
  const Chunk c = v.to_chunk();
  const auto open = parse_connection_open(c);
  if (!open) return;
  span(SpanEventKind::kConnOpenSeen, open->connection_id);
  Shard& sh = shard_for(open->connection_id);
  if (sh.flows.contains(open->connection_id)) return;  // established
  if (RefusedEntry* re = sh.refused.find(open->connection_id)) {
    if (cfg_.timers == nullptr || re->expires > now()) {
      return;  // already told no, hint still fresh
    }
    // The retry-hint deadline passed but the wheel has not swept yet:
    // forget the stale refusal and re-evaluate.
    sh.refused_fifo.remove(re->node);
    sh.refused.erase(open->connection_id);
    ++sh.stats.refused_expired;
  }
  const bool leased =
      admission_.governor != nullptr && admission_.lease_batch > 0;
  bool admitted = admit(sh, open->connection_id);
  ChunkTransportReceiver* r = nullptr;
  if (admitted) {
    r = admission_.open_connection(*open);
    if (r == nullptr) {
      // The endpoint declined even with governor headroom; hand the
      // reservation back so it does not leak.
      if (admission_.governor != nullptr) {
        if (leased) {
          ++sh.lease_slots;  // slot back into the shard-local pool
        } else {
          admission_.governor->unbind_client(open->connection_id);
        }
      }
      --sh.stats.connections_admitted;
      ++sh.stats.connections_refused;
      span(SpanEventKind::kConnRefused, open->connection_id, 0);
      admitted = false;
    }
  }
  if (!admitted) {
    note_refused(sh, open->connection_id);
    if (admission_.send_refusal) {
      ConnectionRefused refusal;
      refusal.connection_id = open->connection_id;
      refusal.retry_hint_bytes = admission_.reserve_bytes;
      admission_.send_refusal(make_signal_chunk(refusal));
    }
    return;
  }
  insert_flow(sh, open->connection_id, r, leased);
}

// ------------------------------------------------------------ data path

void ChunkDemultiplexer::on_packet(SimPacket pkt) {
  ++packet_stats_.packets;
  // The envelope is opened ONCE, into views over pkt.bytes: routing a
  // data/ED chunk to its receiver copies nothing — the receiver's
  // zero-copy entry point reads the payload straight from the packet
  // buffer. Only control chunks (re-wrapped for the PacketSink
  // interface) are materialized.
  if (!decode_packet_views(pkt.bytes, view_scratch_)) {
    ++packet_stats_.malformed;
    return;
  }
  const bool track_idle = cfg_.idle_timeout > 0 && cfg_.timers != nullptr;
  for (const ChunkView& v : view_scratch_) {
    switch (v.h.type) {
      case ChunkType::kData:
      case ChunkType::kErrorDetection: {
        Shard& sh = shard_for(v.h.conn.id);
        FlowEntry* f = sh.flows.find(v.h.conn.id);
        if (f == nullptr) {
          ++sh.stats.unknown_connection;
          break;
        }
        ++sh.stats.data_chunks_routed;
        obs_add(sh.c_data_routed);
        ChunkTransportReceiver* rx = f->rx;
        if (track_idle) {
          // LRU touch is two link splices; done BEFORE the receiver
          // runs, since its callbacks may detach flows and invalidate
          // the FlatMap entry pointer.
          f->last_activity = pkt.created_at > now() ? pkt.created_at : now();
          sh.idle_lru.touch(f->idle_node);
        }
        rx->on_chunk_view(v, pkt.created_at, pkt.id);
        break;
      }
      case ChunkType::kAck:
      case ChunkType::kSignal: {
        if (v.h.type == ChunkType::kSignal && admission_.open_connection &&
            v.payload.size() >= 1 &&
            v.payload[0] ==
                static_cast<std::uint8_t>(SignalKind::kConnectionOpen)) {
          handle_connection_open(v);
        }
        if (control_ == nullptr) break;
        ++packet_stats_.control_chunks_routed;
        SimPacket wrapped;
        encode_packet_into(std::span<const ChunkView>(&v, 1), 65535,
                           wrapped.bytes);
        wrapped.id = pkt.id;
        wrapped.created_at = pkt.created_at;
        wrapped.hops = pkt.hops;
        control_->on_packet(std::move(wrapped));
        break;
      }
      default:
        break;
    }
  }
  view_scratch_.clear();
}

}  // namespace chunknet
