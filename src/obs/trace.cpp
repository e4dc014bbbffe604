#include "src/obs/trace.hpp"

#include <cstdio>

#include "src/obs/json.hpp"

namespace chunknet {

namespace {

constexpr const char* kKindNames[] = {
    "chunk_built",        "packetized",        "link_enqueued",
    "link_delivered",     "link_dropped",      "link_duplicated",
    "oversize_dropped",   "router_relayed",    "router_dropped",
    "packet_received",    "malformed_packet",  "chunk_placed",
    "chunk_held",         "invariant_absorbed", "duplicate_rejected",
    "overlap_rejected",   "framing_rejected",  "tpdu_accepted",
    "tpdu_rejected",      "chunk_skipped",     "chunk_evicted",
    "queue_dropped",      "path_selected",     "path_failover",
    "path_failback",      "path_dead_drop",
};
constexpr std::size_t kKindCount =
    sizeof(kKindNames) / sizeof(kKindNames[0]);

}  // namespace

const char* to_string(TraceEventKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kKindCount ? kKindNames[i] : "?";
}

std::optional<TraceEventKind> trace_event_kind_from_string(
    std::string_view s) {
  for (std::size_t i = 0; i < kKindCount; ++i) {
    if (s == kKindNames[i]) return static_cast<TraceEventKind>(i);
  }
  return std::nullopt;
}

std::string trace_to_json(const ChunkTracer& tracer) {
  const auto events = tracer.events();
  std::string out = "{\n  \"recorded\": ";
  char buf[192];
  std::snprintf(buf, sizeof buf, "%llu,\n  \"dropped\": %llu,\n",
                static_cast<unsigned long long>(tracer.recorded()),
                static_cast<unsigned long long>(tracer.dropped()));
  out += buf;
  out += "  \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::snprintf(
        buf, sizeof buf,
        "%s\n    {\"t\": %llu, \"kind\": \"%s\", \"site\": %u, "
        "\"pkt\": %llu, \"tpdu\": %lu, \"sn\": %lu, \"len\": %lu, "
        "\"aux\": %llu}",
        i == 0 ? "" : ",", static_cast<unsigned long long>(e.t),
        to_string(e.kind), static_cast<unsigned>(e.site),
        static_cast<unsigned long long>(e.packet_id),
        static_cast<unsigned long>(e.tpdu_id),
        static_cast<unsigned long>(e.conn_sn),
        static_cast<unsigned long>(e.len),
        static_cast<unsigned long long>(e.aux));
    out += buf;
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace chunknet
