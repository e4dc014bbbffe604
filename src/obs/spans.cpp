#include "src/obs/spans.hpp"

#include <cstdio>
#include <set>

#include "src/obs/json.hpp"
#include "src/obs/timeseries.hpp"

namespace chunknet {

namespace {

constexpr const char* kKindNames[] = {
    "conn_open_seen", "conn_admitted",   "conn_refused",
    "credit_grant",   "tpdu_framed",     "tpdu_admitted",
    "tpdu_acked",     "tpdu_gave_up",    "tpdu_first_chunk",
    "tpdu_delivered", "tpdu_rejected",   "tpdu_evicted",
    "governor_shed",  "conn_idle_evicted", "path_failover",
    "path_failback",
};
constexpr std::size_t kKindCount =
    sizeof(kKindNames) / sizeof(kKindNames[0]);

}  // namespace

const char* to_string(SpanEventKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kKindCount ? kKindNames[i] : "?";
}

std::optional<SpanEventKind> span_event_kind_from_string(
    std::string_view s) {
  for (std::size_t i = 0; i < kKindCount; ++i) {
    if (s == kKindNames[i]) return static_cast<SpanEventKind>(i);
  }
  return std::nullopt;
}

std::string spans_to_json(const SpanRecorder& spans) {
  const auto events = spans.events();
  std::string out = "{\n  \"recorded\": ";
  char buf[160];
  std::snprintf(buf, sizeof buf, "%llu,\n  \"dropped\": %llu,\n",
                static_cast<unsigned long long>(spans.recorded()),
                static_cast<unsigned long long>(spans.dropped()));
  out += buf;
  out += "  \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"t\": %llu, \"kind\": \"%s\", \"conn\": %lu, "
                  "\"tpdu\": %lu, \"aux\": %llu}",
                  i == 0 ? "" : ",", static_cast<unsigned long long>(e.t),
                  to_string(e.kind), static_cast<unsigned long>(e.connection_id),
                  static_cast<unsigned long>(e.tpdu_id),
                  static_cast<unsigned long long>(e.aux));
    out += buf;
  }
  out += "\n  ]\n}\n";
  return out;
}

namespace {

/// Microsecond timestamp with sub-µs fraction (sim time is ns).
void append_ts(std::string& out, std::uint64_t t_ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(t_ns / 1000),
                static_cast<unsigned long long>(t_ns % 1000));
  out += buf;
}

void append_common(std::string& out, const char* ph, const char* cat,
                   std::uint32_t pid, std::uint64_t t_ns) {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "{\"ph\": \"%s\", \"cat\": \"%s\", \"pid\": %lu, "
                "\"tid\": 1, \"ts\": ",
                ph, cat, static_cast<unsigned long>(pid));
  out += buf;
  append_ts(out, t_ns);
}

}  // namespace

std::string spans_to_chrome_json(const SpanRecorder& spans,
                                 const TimeSeriesSampler* ts) {
  const auto events = spans.events();
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  auto sep = [&out, &first] {
    out += first ? "\n " : ",\n ";
    first = false;
  };
  char buf[192];

  // One process per connection so Perfetto shows one track group each.
  std::set<std::uint32_t> conns;
  for (const SpanEvent& e : events) conns.insert(e.connection_id);
  for (const std::uint32_t c : conns) {
    sep();
    if (c == 0) {
      std::snprintf(buf, sizeof buf,
                    "{\"ph\": \"M\", \"name\": \"process_name\", "
                    "\"pid\": 0, \"args\": {\"name\": \"endpoint\"}}");
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"ph\": \"M\", \"name\": \"process_name\", "
                    "\"pid\": %lu, \"args\": {\"name\": "
                    "\"connection %lu\"}}",
                    static_cast<unsigned long>(c),
                    static_cast<unsigned long>(c));
    }
    out += buf;
  }

  for (const SpanEvent& e : events) {
    const std::uint32_t pid = e.connection_id;
    const char* begin_cat = nullptr;   // async span begin
    const char* end_cat = nullptr;     // async span end
    const char* outcome = nullptr;
    switch (e.kind) {
      case SpanEventKind::kTpduFramed: begin_cat = "sender"; break;
      case SpanEventKind::kTpduAcked:
        end_cat = "sender";
        outcome = "acked";
        break;
      case SpanEventKind::kTpduGaveUp:
        end_cat = "sender";
        outcome = "gave_up";
        break;
      case SpanEventKind::kTpduFirstChunk: begin_cat = "receiver"; break;
      case SpanEventKind::kTpduDelivered:
        end_cat = "receiver";
        outcome = "delivered";
        break;
      case SpanEventKind::kTpduRejected:
        end_cat = "receiver";
        outcome = "rejected";
        break;
      case SpanEventKind::kTpduEvicted:
        end_cat = "receiver";
        outcome = "evicted";
        break;
      case SpanEventKind::kCreditGrant: {
        sep();
        append_common(out, "C", "flow", pid, e.t);
        std::snprintf(buf, sizeof buf,
                      ", \"name\": \"credit bytes\", \"args\": "
                      "{\"value\": %llu}}",
                      static_cast<unsigned long long>(e.aux));
        out += buf;
        continue;
      }
      default: {  // signalling instants
        sep();
        append_common(out, "i", "signal", pid, e.t);
        std::snprintf(buf, sizeof buf,
                      ", \"s\": \"p\", \"name\": \"%s\", \"args\": "
                      "{\"aux\": %llu}}",
                      to_string(e.kind),
                      static_cast<unsigned long long>(e.aux));
        out += buf;
        continue;
      }
    }
    if (begin_cat != nullptr) {
      sep();
      append_common(out, "b", begin_cat, pid, e.t);
      std::snprintf(buf, sizeof buf,
                    ", \"id\": %lu, \"name\": \"tpdu %lu\"}",
                    static_cast<unsigned long>(e.tpdu_id),
                    static_cast<unsigned long>(e.tpdu_id));
      out += buf;
    } else {
      sep();
      append_common(out, "e", end_cat, pid, e.t);
      std::snprintf(buf, sizeof buf,
                    ", \"id\": %lu, \"name\": \"tpdu %lu\", \"args\": "
                    "{\"outcome\": \"%s\", \"aux\": %llu}}",
                    static_cast<unsigned long>(e.tpdu_id),
                    static_cast<unsigned long>(e.tpdu_id), outcome,
                    static_cast<unsigned long long>(e.aux));
      out += buf;
    }
  }

  // Time-series curves as pid-0 counter tracks, one per series.
  if (ts != nullptr) {
    for (std::size_t r = 0; r < ts->rows(); ++r) {
      for (std::size_t c = 0; c < ts->columns(); ++c) {
        sep();
        append_common(out, "C", "timeseries", 0, ts->time_at(r));
        std::snprintf(buf, sizeof buf, ", \"name\": \"%s\", \"args\": "
                      "{\"value\": %.10g}}",
                      json_escape(ts->labels()[c]).c_str(),
                      ts->value_at(r, c));
        out += buf;
      }
    }
  }

  out += "\n]}\n";
  return out;
}

}  // namespace chunknet
