// Chunk-lifecycle tracing: a bounded ring (event_ring.hpp) of
// timestamped events keyed by SimPacket::id (packet-level events) and
// (tpdu_id, C.SN) (chunk-level events). The ring keeps the most recent
// window of a long run. tools/obs_report turns the exported JSON into
// per-hop latency breakdowns and drop/reorder attribution.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/event_ring.hpp"

namespace chunknet {

enum class TraceEventKind : std::uint8_t {
  kChunkBuilt = 0,      ///< sender framed the chunk (or its ED chunk);
                        ///< aux = 1 for a selective-retransmit slice
  kPacketized,          ///< sender sealed a packet envelope (aux = bytes)
  kLinkEnqueued,        ///< link accepted the packet (aux = lane)
  kLinkDelivered,       ///< link handed the packet to its sink
  kLinkDropped,         ///< i.i.d. loss on the link
  kLinkDuplicated,      ///< link scheduled a duplicate delivery
  kOversizeDropped,     ///< packet exceeded the link MTU
  kRouterRelayed,       ///< router emitted packet id, aux = ingress id
  kRouterDropped,       ///< relay produced no output (parse failure)
  kPacketReceived,      ///< receiver opened the envelope
  kMalformedPacket,     ///< envelope failed to parse
  kChunkPlaced,         ///< payload copied into application memory
  kChunkHeld,           ///< buffered by a reorder/reassemble receiver
  kInvariantAbsorbed,   ///< WSC-2 invariant absorbed the chunk (aux = ok)
  kDuplicateRejected,   ///< virtual reassembly: already seen
  kOverlapRejected,     ///< virtual reassembly: partial overlap
  kFramingRejected,     ///< after-stop / stop-conflict / bad structure
  kTpduAccepted,        ///< all Table-1 checks passed
  kTpduRejected,        ///< aux = TpduVerdict
  kChunkSkipped,        ///< parallel pipeline could not process the
                        ///< chunk (aux: 1 = non-data TYPE, 2 = SIZE
                        ///< not a multiple of 4)
  kChunkEvicted,        ///< receiver cap pressure forced a held chunk
                        ///< out early (aux: 1 = placed out of order,
                        ///< 0 = dropped with its TPDU state)
  kQueueDropped,        ///< drop-tail: the link's bounded queue was
                        ///< full (aux = backlog bytes at arrival)
  kPathSelected,        ///< multipath scheduler routed the packet
                        ///< (site = path site, aux = path index)
  kPathFailover,        ///< path health marked a path down (aux = path)
  kPathFailback,        ///< hysteresis probes brought it back (aux = path)
  kPathDeadDrop,        ///< packet arrived on a killed path's egress and
                        ///< was discarded (aux = path index)
};

const char* to_string(TraceEventKind k);
std::optional<TraceEventKind> trace_event_kind_from_string(
    std::string_view s);

struct TraceEvent {
  std::uint64_t t{0};          ///< simulated time, ns
  std::uint64_t packet_id{0};  ///< SimPacket::id (0 = not packet-keyed)
  std::uint64_t aux{0};        ///< kind-specific (see enum comments)
  std::uint32_t tpdu_id{0};
  std::uint32_t conn_sn{0};    ///< C.SN of the first element
  std::uint32_t len{0};        ///< elements covered
  std::uint16_t site{0};       ///< instrumentation site (link/router id)
  TraceEventKind kind{TraceEventKind::kChunkBuilt};
};

/// Chunk-lifecycle events in an EventRing (event_ring.hpp).
class ChunkTracer : public EventRing<TraceEvent> {
 public:
  explicit ChunkTracer(std::size_t capacity = 1 << 16)
      : EventRing(capacity) {}
};

/// {"recorded": N, "dropped": D, "events": [{t, kind, site, pkt, tpdu,
/// sn, len, aux} ...]} — kind as the to_string name.
std::string trace_to_json(const ChunkTracer& tracer);

}  // namespace chunknet
