// Causal connection/TPDU spans: the second observability layer on top
// of the chunk-lifecycle tracer. Where ChunkTracer records *what the
// data path did* (per chunk, per packet), the SpanRecorder records the
// *control-plane story per connection*: open -> admission -> credit
// grants -> TPDU framed -> delivered / evicted / refused. Events live
// in the same bounded ring as ChunkTracer's (event_ring.hpp), and
// spans_to_chrome_json() exports them as Chrome trace-event JSON that
// loads directly in Perfetto / chrome://tracing with one track (pid)
// per connection.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/event_ring.hpp"

namespace chunknet {

class TimeSeriesSampler;

enum class SpanEventKind : std::uint8_t {
  kConnOpenSeen = 0,  ///< demux saw a ConnectionOpen signal
  kConnAdmitted,      ///< admission reserved governor headroom
  kConnRefused,       ///< admission refused (aux = reserve asked)
  kCreditGrant,       ///< credit advertised/applied (aux = limit bytes)
  kTpduFramed,        ///< sender framed the TPDU (span begin, sender)
  kTpduAdmitted,      ///< the send queue admitted the TPDU to the wire
  kTpduAcked,         ///< sender saw the positive ACK (span end)
  kTpduGaveUp,        ///< sender abandoned after max retries (span end)
  kTpduFirstChunk,    ///< receiver opened TPDU state (span begin)
  kTpduDelivered,     ///< receiver accepted the TPDU (span end)
  kTpduRejected,      ///< receiver rejected it (span end, aux = verdict)
  kTpduEvicted,       ///< receiver dropped the TPDU state under
                      ///< pressure (span end; aux: 0 = cap eviction,
                      ///< 1 = governor hard-watermark abort)
  kGovernorShed,      ///< governor shed hook ran (aux = bytes freed,
                      ///< connection_id = victim)
  kConnIdleEvicted,   ///< demux evicted an idle connection (aux =
                      ///< idle time in ns at eviction)
  kPathFailover,      ///< multipath health marked a path down
                      ///< (aux = path index; renders as an instant, so
                      ///< Perfetto timelines show path flaps)
  kPathFailback,      ///< hysteresis probes brought the path back
                      ///< (aux = path index)
};

const char* to_string(SpanEventKind k);
std::optional<SpanEventKind> span_event_kind_from_string(std::string_view s);

struct SpanEvent {
  std::uint64_t t{0};               ///< simulated time, ns
  std::uint64_t aux{0};             ///< kind-specific (see enum)
  std::uint32_t connection_id{0};   ///< 0 = endpoint-wide
  std::uint32_t tpdu_id{0};         ///< 0 = not TPDU-keyed
  SpanEventKind kind{SpanEventKind::kConnOpenSeen};
};

/// Span events in an EventRing (event_ring.hpp), the same recording
/// contract as ChunkTracer.
class SpanRecorder : public EventRing<SpanEvent> {
 public:
  explicit SpanRecorder(std::size_t capacity = 1 << 14)
      : EventRing(capacity) {}
};

/// Plain JSON export, symmetric with trace_to_json: {"recorded": N,
/// "dropped": D, "events": [{t, kind, conn, tpdu, aux} ...]}.
std::string spans_to_json(const SpanRecorder& spans);

/// Chrome trace-event JSON (the Perfetto / chrome://tracing format):
/// one process (pid) per connection with a process_name metadata
/// record, async "b"/"e" pairs for sender- and receiver-side TPDU
/// lifetimes (cat "sender" / "receiver", id = TPDU id), instant events
/// for signalling (open/admit/refuse/shed), and "C" counter events for
/// per-connection credit. When `ts` is non-null its sampled series are
/// additionally emitted as pid-0 counter tracks, so the time-series
/// curves render next to the spans. Timestamps are microseconds.
std::string spans_to_chrome_json(const SpanRecorder& spans,
                                 const TimeSeriesSampler* ts = nullptr);

}  // namespace chunknet
