// chunkbench — the end-to-end and per-layer benchmark for chunknet.
//
//   chunkbench --workload bulk|msg|sim_lossy --seed N --seconds S --trace 0|1
//
// Each workload is a closed loop driven by one client in this one
// single-threaded process: the next op starts when the previous one has
// been verified. Every op is verified; a failed op counts against the
// attempts and makes the run exit non-zero. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 prints the end-to-end metrics. --trace 1 is a separate run
// that alternates plain ops with traced ops (timing shim, capture) and
// then replays the captured op layer by layer; it prints the per-layer
// metrics. Everything is measured from outside the library, through
// its public entry points, seams and stats. NOTES.md says why each
// workload and metric is here.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "replay.hpp"
#include "src/chunk/codec.hpp"
#include "src/common/rng.hpp"
#include "src/common/timer_wheel.hpp"
#include "src/io/udp_transport.hpp"
#include "src/netsim/link.hpp"
#include "src/transport/demux.hpp"
#include "timing_shim.hpp"

namespace chunknet::perfbench {
namespace {

// ---- measurement helpers ---------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double user_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
}

/// Peak resident set of this program (VmHWM). Not getrusage's
/// ru_maxrss, which keeps the peak of whatever process exec'd us.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Latency histogram with log buckets 0.1% wide, from 1 ns to ~10^12 ns:
/// percentiles of millions of samples in fixed memory, so the samples
/// a run collects do not show in its peak RSS.
class LatencyHistogram {
 public:
  void add_ns(double ns) {
    const double x = std::log(std::max(ns, 1.0)) * kPerE;
    ++buckets_[std::min(static_cast<std::size_t>(x), buckets_.size() - 1)];
    ++count_;
  }
  /// q in [0, 1]; the bucket's geometric midpoint, in microseconds.
  double quantile_us(double q) const {
    const auto want = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))),
        1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= want) {
        return std::exp((static_cast<double>(i) + 0.5) / kPerE) / 1e3;
      }
    }
    return 0.0;
  }

 private:
  static constexpr double kPerE = 1000.0;  // buckets per factor e
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(28'000);
  std::uint64_t count_{0};
};

std::vector<std::uint8_t> seeded_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t x = rng.next();
    std::memcpy(v.data() + i, &x, 8);
  }
  for (; i < n; ++i) v[i] = static_cast<std::uint8_t>(rng.next());
  return v;
}

/// Derives the seed of sub-stream `k` from the run seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t k) {
  Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * (k + 1)));
  return rng.next();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
};

/// What one traced op observed, summed over the traced ops of a run.
struct LayerTotals {
  std::uint64_t ops{0};
  double wall_ns{0};
  double send_stream_ns{0};
  std::uint64_t polls{0}, timer_fires{0};
  std::uint64_t guard_screened{0}, guard_rate_limited{0};
  std::uint64_t tpdus{0}, acks{0}, grants{0}, flow_blocked{0};
  std::uint64_t tx_bytes_copied{0}, stream_bytes{0};
  std::uint64_t data_chunks{0}, dup_chunks{0}, overlap_chunks{0};
  std::uint64_t held_bytes_peak{0}, gap_naks{0}, retransmissions{0};
  std::uint64_t pkts_dropped{0};
  std::uint64_t data_dgrams{0};  ///< sender -> receiver datagrams

  void add(const LayerTotals& o) {
    ops += o.ops;
    wall_ns += o.wall_ns;
    send_stream_ns += o.send_stream_ns;
    polls += o.polls;
    timer_fires += o.timer_fires;
    guard_screened += o.guard_screened;
    guard_rate_limited += o.guard_rate_limited;
    tpdus += o.tpdus;
    acks += o.acks;
    grants += o.grants;
    flow_blocked += o.flow_blocked;
    tx_bytes_copied += o.tx_bytes_copied;
    stream_bytes += o.stream_bytes;
    data_chunks += o.data_chunks;
    dup_chunks += o.dup_chunks;
    overlap_chunks += o.overlap_chunks;
    held_bytes_peak = std::max(held_bytes_peak, o.held_bytes_peak);
    gap_naks += o.gap_naks;
    retransmissions += o.retransmissions;
    pkts_dropped += o.pkts_dropped;
    data_dgrams += o.data_dgrams;
  }
  /// Folds in one connection's sender and receiver stats.
  void add_transport(const ChunkTransportSender::Stats& tx,
                     const ChunkTransportReceiver::Stats& rx) {
    tpdus += tx.tpdus_sent;
    flow_blocked += tx.flow_blocked;
    tx_bytes_copied += tx.tx_bytes_copied;
    gap_naks += tx.gap_naks_honoured;
    retransmissions += tx.retransmissions;
    grants += rx.credit_grants_sent;
    data_chunks += rx.data_chunks;
    dup_chunks += rx.duplicate_chunks;
    overlap_chunks += rx.overlap_chunks;
    held_bytes_peak = std::max(held_bytes_peak, rx.held_bytes_peak);
  }
};

// ---- real-I/O ops ------------------------------------------------------

constexpr std::uint32_t kConn = 15;
constexpr std::uint16_t kElem = 4;
constexpr std::size_t kMtu = 1400;
const UdpAddress kLoopbackAny{0x7f000001, 0};

/// One op over loopback UDP, as every real-I/O workload runs it: a fresh
/// event loop and session pair, send, wait for delivery, drain both
/// ends truthfully, close.
struct UdpOpSpec {
  SenderConfig sender;
  ReceiverConfig receiver;
  SimTime deliver_timeout{30 * kSecond};
};

struct UdpOpResult {
  bool ok{false};
  double total_s{0};     ///< session open to both ends closed
  double deliver_s{0};   ///< send call to full delivery
  double finish_s{0};    ///< send call to every TPDU acked, queue empty
  /// The send_stream call, less the time spent in the shim during it
  /// (meaningful only when the op ran through the shim).
  double send_stream_ns{0};
  ChunkTransportSender::Stats tx;
  ChunkTransportReceiver::Stats rx;
  IngressGuard::Stats guard;
  EventLoop::Stats loop;
};

/// `shim` (optional) runs the op's syscalls through the timing shim.
UdpOpResult run_udp_op(const UdpOpSpec& spec,
                       std::span<const std::uint8_t> payload,
                       TimingSyscalls* shim) {
  UdpOpResult r;
  const auto t_open = Clock::now();
  {
    EventLoopConfig lc;
    lc.sys = shim;
    EventLoop loop(lc);
    UdpReceiverSessionConfig rcfg;
    rcfg.bind = kLoopbackAny;
    rcfg.receiver = spec.receiver;
    UdpReceiverSession rx(loop, rcfg);
    UdpSenderSessionConfig scfg;
    scfg.peer = rx.endpoint().local_addr();
    scfg.sender = spec.sender;
    UdpSenderSession tx(loop, scfg);
    if (!rx.ok() || !tx.ok()) return r;

    const std::uint64_t want = payload.size() / kElem;
    // send_stream transmits what credit allows at once; the kernel time
    // and the shim's own work inside it are not the transport's.
    const std::uint64_t shim0 = shim != nullptr ? shim->stats().total_ns() : 0;
    const auto t_send = Clock::now();
    tx.send_stream(payload);
    r.send_stream_ns = seconds_since(t_send) * 1e9;
    if (shim != nullptr) {
      r.send_stream_ns -=
          static_cast<double>(shim->stats().total_ns() - shim0);
    }
    const bool delivered = loop.run_until(
        [&] { return rx.receiver().stream_complete(want); },
        loop.now() + spec.deliver_timeout);
    r.deliver_s = seconds_since(t_send);
    const DrainReport d = tx.drain(loop.now() + 5 * kSecond);
    r.finish_s = seconds_since(t_send);
    rx.drain(loop.now() + 100 * kMillisecond);

    const auto got = rx.receiver().app_data();
    const bool exact = got.size() == payload.size() &&
                       std::equal(payload.begin(), payload.end(), got.begin());
    r.ok = delivered && d.clean && exact;
    if (!r.ok) {
      std::printf("FAIL: op delivered=%d bit_exact=%d drain clean=%d "
                  "(acked %" PRIu64 ", gave up %" PRIu64 ", abandoned %" PRIu64
                  ", unsent %" PRIu64 ")\n",
                  delivered, exact, d.clean, d.tpdus_acked, d.tpdus_gave_up,
                  d.tpdus_abandoned, d.datagrams_unsent);
    }
    r.tx = tx.sender().stats();
    r.rx = rx.receiver().stats();
    r.guard = rx.guard().stats();
    r.loop = loop.stats();
  }
  r.total_s = seconds_since(t_open);
  return r;
}

/// One traced op's contribution to the per-layer totals.
LayerTotals udp_layer_totals(const UdpOpResult& r, std::size_t bytes) {
  LayerTotals t;
  t.ops = 1;
  t.wall_ns = r.total_s * 1e9;
  t.send_stream_ns = r.send_stream_ns;
  t.polls = r.loop.polls;
  t.timer_fires = r.loop.timer_fires;
  t.guard_screened = r.guard.accepted + r.guard.rate_limited +
                     r.guard.malformed + r.guard.empty + r.guard.refused_conn;
  t.guard_rate_limited = r.guard.rate_limited;
  t.stream_bytes = bytes;
  t.add_transport(r.tx, r.rx);
  return t;
}

// The E15a configuration: 4 KiB TPDUs, MTU 1400, credit flow on, and
// session defaults everywhere else (the default IngressGuard included).
UdpOpSpec bulk_spec(std::size_t bytes) {
  UdpOpSpec s;
  s.sender.framer.connection_id = kConn;
  s.sender.framer.element_size = kElem;
  s.sender.framer.tpdu_elements = 1024;
  s.sender.framer.xpdu_elements = 256;
  s.sender.framer.max_chunk_elements = 256;
  s.sender.mtu = kMtu;
  s.sender.retransmit_timeout = 30 * kMillisecond;
  s.sender.max_retransmits = 30;
  s.sender.flow.enabled = true;
  s.sender.flow.initial_credit_bytes = 256 * 1024;
  s.sender.flow.initial_tpdu_slots = 64;
  s.receiver.connection_id = kConn;
  s.receiver.element_size = kElem;
  s.receiver.app_buffer_bytes = bytes;
  s.receiver.record_latency_samples = false;
  s.receiver.grant_credit = true;
  s.receiver.credit_window_bytes = 512 * 1024;
  s.receiver.credit_tpdu_slots = 128;
  return s;
}

// One message = one chunk = one TPDU = one datagram (the E15b shape).
UdpOpSpec msg_spec(std::size_t bytes) {
  UdpOpSpec s;
  const auto elems = static_cast<std::uint32_t>(bytes / kElem);
  s.sender.framer.connection_id = kConn;
  s.sender.framer.element_size = kElem;
  s.sender.framer.tpdu_elements = elems;
  s.sender.framer.xpdu_elements = elems;
  s.sender.framer.max_chunk_elements = static_cast<std::uint16_t>(elems);
  s.sender.mtu = kMtu;
  s.sender.retransmit_timeout = 20 * kMillisecond;
  s.receiver.connection_id = kConn;
  s.receiver.element_size = kElem;
  s.receiver.app_buffer_bytes = bytes;
  s.receiver.record_latency_samples = false;
  s.deliver_timeout = 5 * kSecond;
  return s;
}

// ---- the simulated lossy op ---------------------------------------------

constexpr int kSimConns = 4;
constexpr std::size_t kSimStreamBytes = 256 * 1024;

/// Forwards to `next`; while capturing, also records the packets of
/// one connection with their (simulated) arrival time, for the replay.
/// `data` says which direction the sink sits on.
class CapturingSink final : public PacketSink {
 public:
  CapturingSink(Simulator& sim, PacketSink& next, bool data)
      : sim_(sim), next_(next), data_(data) {}
  void on_packet(SimPacket pkt) override {
    if (capture_ != nullptr && decode_packet_views(pkt.bytes, views_) &&
        !views_.empty() && views_.front().h.conn.id == conn_) {
      capture_->push_back({pkt.bytes, sim_.now(), data_});
    }
    next_.on_packet(std::move(pkt));
  }
  void capture(std::vector<CapturedDatagram>* out, std::uint32_t conn) {
    capture_ = out;
    conn_ = conn;
  }

 private:
  Simulator& sim_;
  PacketSink& next_;
  bool data_;
  std::vector<CapturedDatagram>* capture_{nullptr};
  std::uint32_t conn_{0};
  std::vector<ChunkView> views_;
};

SenderConfig sim_sender_config(std::uint32_t conn) {
  SenderConfig sc;
  sc.framer.connection_id = conn;
  sc.framer.element_size = kElem;
  sc.framer.tpdu_elements = 512;
  sc.framer.xpdu_elements = 128;
  sc.framer.max_chunk_elements = 64;
  sc.mtu = 1500;
  sc.retransmit_timeout = 40 * kMillisecond;
  sc.selective_retransmit = true;
  return sc;
}

ReceiverConfig sim_receiver_config(std::uint32_t conn) {
  ReceiverConfig rc;
  rc.connection_id = conn;
  rc.element_size = kElem;
  rc.app_buffer_bytes = kSimStreamBytes;
  rc.mode = DeliveryMode::kImmediate;
  rc.gap_nak_delay = 8 * kMillisecond;
  return rc;
}

struct SimOpResult {
  bool ok{false};
  SimTime delivered_at{0};  ///< last TPDU of any connection verified
  std::uint64_t payload_bytes{0};
  std::uint64_t retx_payload_bytes{0};
  std::uint64_t dropped{0};
  double wall_s{0};
  double send_stream_ns{0};
  LayerTotals layers;
  /// The op's repeatable identity: equal seeds must give equal values.
  std::uint64_t fingerprint() const {
    return dropped * 1'000'003ULL ^ delivered_at ^ (retx_payload_bytes << 20);
  }
};

/// Four chunk connections through one ChunkDemultiplexer and a shared
/// SimTimerWheel, over one 622 Mb/s path with 2% loss and 8 lanes skewed
/// by 400 us (the E6d shape); gap-NAK selective retransmission on,
/// immediate delivery. Element latencies go into `lat`.
SimOpResult run_sim_op(const std::vector<std::vector<std::uint8_t>>& streams,
                       std::uint64_t op_seed, LatencyHistogram* lat,
                       std::vector<CapturedDatagram>* capture) {
  SimOpResult r;
  const auto t0 = Clock::now();
  Simulator sim;
  SimTimerWheel wheel(sim);
  Rng rng(op_seed);
  DemuxConfig dc;
  dc.timers = &wheel;
  ChunkDemultiplexer demux(dc);
  CapturingSink fwd_sink(sim, demux, true);

  LinkConfig fwd_cfg;
  fwd_cfg.mtu = 1500;
  fwd_cfg.rate_bps = 622e6;
  fwd_cfg.prop_delay = 2 * kMillisecond;
  fwd_cfg.loss_rate = 0.02;
  fwd_cfg.lanes = 8;
  fwd_cfg.lane_skew = 400 * kMicrosecond;
  Link forward(sim, fwd_cfg, fwd_sink, rng);

  std::vector<std::unique_ptr<ChunkTransportReceiver>> rxs;
  std::vector<std::unique_ptr<ChunkTransportSender>> txs;
  std::vector<std::unique_ptr<Link>> reverse;
  std::vector<std::unique_ptr<CapturingSink>> rev_sinks;
  for (int i = 0; i < kSimConns; ++i) {
    const auto conn = static_cast<std::uint32_t>(i + 1);
    ReceiverConfig rc = sim_receiver_config(conn);
    rc.timers = &wheel;
    // The reverse link is built after its sender; the callback looks
    // it up when it fires.
    const std::size_t idx = reverse.size();
    reverse.push_back(nullptr);
    rc.send_control = [&sim, &reverse, &r, idx](Chunk ctrl) {
      if (ctrl.h.type == ChunkType::kAck) ++r.layers.acks;
      SimPacket sp;
      sp.bytes = encode_packet(std::span<const Chunk>(&ctrl, 1), 1500);
      sp.id = sim.next_packet_id();
      sp.created_at = sim.now();
      reverse[idx]->send(std::move(sp));
    };
    rc.on_tpdu = [&r](const TpduOutcome& o) {
      r.delivered_at = std::max(r.delivered_at, o.completed_at);
    };
    rxs.push_back(std::make_unique<ChunkTransportReceiver>(sim, std::move(rc)));
    demux.attach(conn, *rxs.back());

    SenderConfig sc = sim_sender_config(conn);
    sc.timers = &wheel;
    sc.send_packet = [&sim, &forward](PacketBytes bytes) {
      SimPacket sp;
      sp.bytes = std::move(bytes);
      sp.id = sim.next_packet_id();
      sp.created_at = sim.now();
      forward.send(std::move(sp));
    };
    txs.push_back(std::make_unique<ChunkTransportSender>(sim, std::move(sc)));
    rev_sinks.push_back(
        std::make_unique<CapturingSink>(sim, *txs.back(), false));
    LinkConfig rev_cfg;
    rev_cfg.prop_delay = 1 * kMillisecond;
    reverse[idx] = std::make_unique<Link>(sim, rev_cfg, *rev_sinks.back(), rng);
  }
  if (capture != nullptr) {
    fwd_sink.capture(capture, 1);
    rev_sinks.front()->capture(capture, 1);
  }

  const auto t_send = Clock::now();
  for (int i = 0; i < kSimConns; ++i) txs[i]->send_stream(streams[i]);
  r.send_stream_ns = seconds_since(t_send) * 1e9;
  sim.run(600 * kSecond);

  r.ok = true;
  LayerTotals& t = r.layers;
  for (int i = 0; i < kSimConns; ++i) {
    const auto& rx = *rxs[i];
    const auto& tx = *txs[i];
    const auto got = rx.app_data();
    r.ok = r.ok && rx.stream_complete(streams[i].size() / kElem) &&
           tx.all_acked() && got.size() == streams[i].size() &&
           std::equal(streams[i].begin(), streams[i].end(), got.begin());
    r.payload_bytes += streams[i].size();
    r.retx_payload_bytes += tx.stats().retx_payload_bytes;
    if (lat != nullptr) {
      for (const double ns : rx.stats().delivery_latency_ns) lat->add_ns(ns);
    }
    t.stream_bytes += streams[i].size();
    t.add_transport(tx.stats(), rx.stats());
  }
  r.dropped = forward.stats().lost + forward.stats().queue_dropped;
  for (const auto& l : reverse) {
    r.dropped += l->stats().lost + l->stats().queue_dropped;
  }
  t.pkts_dropped = r.dropped;
  t.data_dgrams = forward.stats().delivered;
  t.ops = 1;
  if (!r.ok) {
    std::printf("FAIL: simulated op (seed %" PRIu64 ") incomplete, unacked "
                "or not bit-exact\n", op_seed);
  }
  r.wall_s = seconds_since(t0);
  t.wall_ns = r.wall_s * 1e9;
  t.send_stream_ns = r.send_stream_ns;
  return r;
}

// ---- workloads ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
};

/// Set-up is timed this many times per run; the median is reported.
constexpr int kSetupReps = 5;

/// Runs `once` kSetupReps times and returns the median seconds.
double timed_setup(const std::function<void()>& once) {
  std::vector<double> s;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    once();
    s.push_back(seconds_since(t0));
  }
  return median(std::move(s));
}

void add_e2e(RunResult& r, double goodput_mbps, double ops_per_s,
             double p50_us, double p90_us, double tx_per_byte,
             double setup_s) {
  r.metrics.push_back({"goodput_MBps", goodput_mbps, "MB/s"});
  r.metrics.push_back({"ops_per_s", ops_per_s, "1/s"});
  r.metrics.push_back({"latency_p50_us", p50_us, "us"});
  r.metrics.push_back({"latency_p90_us", p90_us, "us"});
  r.metrics.push_back({"payload_tx_per_byte", tx_per_byte, "x"});
  r.metrics.push_back({"setup_s", setup_s, "s"});
  r.metrics.push_back({"peak_rss_MB", peak_rss_mb(), "MB"});
}

/// What the per-layer report needs besides the traced-op totals.
struct TraceExtras {
  const TimingSyscalls::Stats* io{nullptr};  ///< null: no kernel I/O
  Ledger ledger;
  double plain_wall_ns_per_op{0};
  double plain_user_ns_per_op{0};
};

void add_per_layer(RunResult& r, const LayerTotals& t, const TraceExtras& x) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(t.ops, 1));
  const double tpdus = static_cast<double>(t.tpdus);
  const TimingSyscalls::Stats none;
  const TimingSyscalls::Stats& io = x.io != nullptr ? *x.io : none;
  const auto& snd = io.of(IoCall::kSendmmsg);
  const auto& rcv = io.of(IoCall::kRecvmmsg);
  const auto& ep = io.of(IoCall::kEpollWait);
  const Ledger& l = x.ledger;
  auto add = [&r](const char* n, double v, const char* u) {
    r.metrics.push_back({n, v, u});
  };
  add("io.sendmmsg_time_share", ratio(snd.ns, t.wall_ns), "share");
  add("io.sendmmsg_dgrams_per_call", ratio(snd.items, snd.calls),
      "dgrams/call");
  add("io.recvmmsg_time_share", ratio(rcv.ns, t.wall_ns), "share");
  add("io.recvmmsg_dgrams_per_call", ratio(rcv.items, rcv.productive_calls),
      "dgrams/call");
  add("io.epoll_wait_time_share", ratio(ep.ns, t.wall_ns), "share");
  add("io.ctrl_dgrams_per_data_dgram",
      ratio(io.ctrl_dgrams, io.data_dgrams), "x");
  add("io.guard.rate_limited_share",
      ratio(t.guard_rate_limited, t.guard_screened), "share");
  add("io.setup_syscall_us_per_op", io.setup_ns() / ops / 1e3, "us/op");
  add("io.syscalls_per_op", io.total_calls() / ops, "calls/op");
  add("io.loop.polls_per_op", t.polls / ops, "polls/op");
  add("io.loop.timer_fires_per_op", t.timer_fires / ops, "fires/op");
  add("io.user_time_share",
      ratio(x.plain_user_ns_per_op, x.plain_wall_ns_per_op), "share");
  add("io.guard.screen_ns_per_dgram", ratio(l.screen_ns, l.data_dgrams),
      "ns/dgram");
  add("chunk.decode_ns_per_dgram", ratio(l.decode_ns, l.data_dgrams),
      "ns/dgram");
  add("transport.rx_ns_per_dgram", ratio(l.rx_ns, l.accepted_dgrams),
      "ns/dgram");
  add("chunk.ctrl_encode_ns_per_chunk", ratio(l.ctrl_encode_ns, l.ctrl_chunks),
      "ns/chunk");
  add("transport.feedback_ns_per_dgram",
      ratio(l.feedback_ns, l.feedback_dgrams), "ns/dgram");
  add("edc.wsc2_ns_per_KB", ratio(l.wsc2_ns, l.wsc2_bytes / 1024.0), "ns/KB");
  const double send_stream_ns = t.send_stream_ns / ops;
  add("transport.send_stream_ns_per_KB",
      ratio(send_stream_ns, t.stream_bytes / ops / 1024.0), "ns/KB");
  // The replay covers one op (one connection on sim_lossy); scale it to
  // an average op's data datagrams.
  const double scale = ratio(t.data_dgrams / ops, l.data_dgrams);
  add("io.unattributed_share",
      x.plain_user_ns_per_op > 0
          ? 1.0 - (l.attributed_ns() * scale + send_stream_ns) /
                      x.plain_user_ns_per_op
          : 0.0,
      "share");
  add("transport.acks_per_tpdu", ratio(t.acks, tpdus), "x");
  add("transport.grants_per_tpdu", ratio(t.grants, tpdus), "x");
  add("transport.flow_blocked_per_op", t.flow_blocked / ops, "1/op");
  add("transport.tx_bytes_copied_per_byte",
      ratio(t.tx_bytes_copied, t.stream_bytes), "x");
  add("transport.retx_share", ratio(t.retransmissions, tpdus), "share");
  add("transport.dup_chunk_share", ratio(t.dup_chunks, t.data_chunks),
      "share");
  add("transport.gap_naks_per_tpdu", ratio(t.gap_naks, tpdus), "x");
  add("reassembly.overlap_chunks", t.overlap_chunks / ops, "chunks/op");
  add("reassembly.held_bytes_peak", static_cast<double>(t.held_bytes_peak),
      "B");
  add("netsim.pkts_dropped_per_op", t.pkts_dropped / ops, "pkts/op");
  add("trace.overhead_share",
      ratio(t.wall_ns / ops, x.plain_wall_ns_per_op) - 1.0, "share");
}

/// Replays a capture, first once to size the repetitions so the whole
/// ledger takes about half a second.
Ledger replay(const ReplayInput& in) {
  const auto t0 = Clock::now();
  replay_ledger(in, 1);
  const double one = std::max(seconds_since(t0), 1e-6);
  const int reps = static_cast<int>(std::clamp(0.5 / one, 5.0, 2000.0));
  const Ledger l = replay_ledger(in, reps);
  std::printf("replay: %d reps of %" PRIu64 " data datagrams (%" PRIu64
              " admitted by the replayed guard) and %" PRIu64
              " feedback; replayed receiver covered the whole stream: %s\n",
              reps, l.data_dgrams, l.accepted_dgrams, l.feedback_dgrams,
              l.rx_complete ? "yes" : "no");
  return l;
}

/// bulk and msg: the same loopback op on different payloads.
RunResult run_real(const Args& a, const UdpOpSpec& spec,
                   const std::function<std::vector<std::vector<std::uint8_t>>()>&
                       make_payloads,
                   int warm_ops) {
  RunResult r;
  std::vector<std::vector<std::uint8_t>> payloads;
  auto count = [&r](const UdpOpResult& op) {
    ++r.attempted;
    if (!op.ok) ++r.failed;
    return op.ok;
  };
  const double setup_s = timed_setup([&] {
    payloads = make_payloads();
    for (int i = 0; i < warm_ops; ++i) {
      count(run_udp_op(spec, payloads[i % payloads.size()], nullptr));
    }
  });

  // Rates come from median op times: one op stalled by the host weighs
  // no more than any other, and the tail shows in latency_p90_us.
  LatencyHistogram deliver, finish, plain_op;
  double plain_ops = 0, bytes = 0, retx_bytes = 0;
  double sum_total_s = 0, plain_user_s = 0;
  TimingSyscalls shim(real_syscalls());
  LayerTotals traced;
  std::vector<CapturedDatagram> capture;
  std::size_t captured_payload = 0;
  const auto t_end = Clock::now() + std::chrono::duration<double>(a.seconds);
  for (std::uint64_t i = 0; Clock::now() < t_end; ++i) {
    const auto& p = payloads[i % payloads.size()];
    const bool traced_op = a.trace && (i % 2 == 1);
    if (traced_op && traced.ops == 0) shim.set_capture(true);
    const double u0 = user_cpu_s();
    const UdpOpResult op = run_udp_op(spec, p, traced_op ? &shim : nullptr);
    const double user_s = user_cpu_s() - u0;
    if (!count(op)) continue;
    if (traced_op) {
      if (traced.ops == 0) {
        shim.set_capture(false);
        capture = shim.take_captured();
        captured_payload = i % payloads.size();
      }
      traced.add(udp_layer_totals(op, p.size()));
      continue;
    }
    ++plain_ops;
    plain_op.add_ns(op.total_s * 1e9);
    plain_user_s += user_s;
    deliver.add_ns(op.deliver_s * 1e9);
    finish.add_ns(op.finish_s * 1e9);
    bytes += static_cast<double>(p.size());
    retx_bytes += static_cast<double>(op.tx.retx_payload_bytes);
    sum_total_s += op.total_s;
  }
  if (!a.trace) {
    add_e2e(r, ratio(bytes / plain_ops, finish.quantile_us(0.5)),
            ratio(1e6, plain_op.quantile_us(0.5)), deliver.quantile_us(0.5),
            deliver.quantile_us(0.9),
            ratio(bytes + retx_bytes, bytes), setup_s);
    return r;
  }
  TraceExtras x;
  x.io = &shim.stats();
  if (!capture.empty()) {
    ReplayInput in;
    in.dgrams = std::move(capture);
    in.stream = payloads[captured_payload];
    in.sender = spec.sender;
    in.receiver = spec.receiver;
    x.ledger = replay(in);
  }
  const double n = std::max(plain_ops, 1.0);
  x.plain_wall_ns_per_op = sum_total_s * 1e9 / n;
  x.plain_user_ns_per_op = plain_user_s * 1e9 / n;
  traced.acks = shim.stats().ack_chunks;
  traced.data_dgrams = shim.stats().data_dgrams;
  add_per_layer(r, traced, x);
  return r;
}

constexpr std::size_t kBulkBytes = 16u << 20;
constexpr std::size_t kMsgBytes = 256;
constexpr std::size_t kMsgPool = 1024;
constexpr int kMsgWarmOps = 2000;
/// Simulated ops per pass: the end-to-end figures pool exactly these.
constexpr std::uint64_t kSimPassOps = 128;
/// Untimed-in-the-loop warm-up ops per set-up.
constexpr int kSimWarmOps = 8;

RunResult run_bulk(const Args& a) {
  return run_real(
      a, bulk_spec(kBulkBytes),
      [&a] {
        return std::vector<std::vector<std::uint8_t>>{
            seeded_bytes(kBulkBytes, derive(a.seed, 0))};
      },
      1);
}

RunResult run_msg(const Args& a) {
  return run_real(
      a, msg_spec(kMsgBytes),
      [&a] {
        std::vector<std::vector<std::uint8_t>> v;
        for (std::size_t i = 0; i < kMsgPool; ++i) {
          v.push_back(seeded_bytes(kMsgBytes, derive(a.seed, i)));
        }
        return v;
      },
      kMsgWarmOps);
}

RunResult run_sim_lossy(const Args& a) {
  RunResult r;
  std::vector<std::vector<std::uint8_t>> streams;
  auto count = [&r](const SimOpResult& op) {
    ++r.attempted;
    if (!op.ok) ++r.failed;
    return op.ok;
  };
  const double setup_s = timed_setup([&] {
    streams.clear();
    for (int i = 0; i < kSimConns; ++i) {
      streams.push_back(seeded_bytes(kSimStreamBytes, derive(a.seed, 100 + i)));
    }
    for (int i = 0; i < kSimWarmOps; ++i) {
      count(run_sim_op(streams, derive(a.seed, 1000 + i), nullptr, nullptr));
    }
  });

  // The first pass over kSimPassOps op seeds gives the figures; later
  // passes replay the same seeds until time is up and must reproduce
  // each op's fingerprint exactly.
  LatencyHistogram lat;
  std::vector<std::uint64_t> fingerprint(kSimPassOps, 0);
  double payload = 0, retx = 0, sim_s = 0;
  LayerTotals traced;
  std::vector<CapturedDatagram> capture;
  double plain_ops = 0, plain_user_s = 0, plain_wall_s = 0;
  std::uint64_t mismatches = 0;
  const auto t_end = Clock::now() + std::chrono::duration<double>(a.seconds);
  for (std::uint64_t i = 0; i < kSimPassOps || Clock::now() < t_end; ++i) {
    const std::uint64_t k = i % kSimPassOps;
    const bool first_pass = i < kSimPassOps;
    const bool traced_op = a.trace && (i % 2 == 1);
    const bool capture_op = traced_op && traced.ops == 0;
    const double u0 = user_cpu_s();
    const SimOpResult op =
        run_sim_op(streams, derive(a.seed, k), first_pass ? &lat : nullptr,
                   capture_op ? &capture : nullptr);
    const double user_s = user_cpu_s() - u0;
    if (!count(op)) continue;
    if (first_pass) {
      fingerprint[k] = op.fingerprint();
      payload += static_cast<double>(op.payload_bytes);
      retx += static_cast<double>(op.retx_payload_bytes);
      sim_s += static_cast<double>(op.delivered_at) / 1e9;
    } else if (fingerprint[k] != op.fingerprint()) {
      ++mismatches;
      ++r.failed;
    }
    if (traced_op) {
      traced.add(op.layers);
    } else {
      ++plain_ops;
      plain_user_s += user_s;
      plain_wall_s += op.wall_s;
    }
  }
  if (mismatches > 0) {
    std::printf("FAIL: %" PRIu64 " repeated ops did not reproduce their "
                "seed's fingerprint\n", mismatches);
  }
  if (!a.trace) {
    add_e2e(r, ratio(payload / 1e6, sim_s),
            ratio(static_cast<double>(kSimPassOps), sim_s),
            lat.quantile_us(0.5), lat.quantile_us(0.9),
            ratio(payload + retx, payload), setup_s);
    return r;
  }
  TraceExtras x;
  if (!capture.empty()) {
    ReplayInput in;
    in.dgrams = std::move(capture);
    in.stream = streams.front();
    in.sender = sim_sender_config(1);
    in.receiver = sim_receiver_config(1);
    x.ledger = replay(in);
  }
  const double n = std::max(plain_ops, 1.0);
  x.plain_wall_ns_per_op = plain_wall_s * 1e9 / n;
  x.plain_user_ns_per_op = plain_user_s * 1e9 / n;
  add_per_layer(r, traced, x);
  return r;
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 600) return false;
    } else if (k == "--trace") {
      const std::string t = v;
      if (t != "0" && t != "1") return false;
      a.trace = t == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace
}  // namespace chunknet::perfbench

int main(int argc, char** argv) {
  using namespace chunknet::perfbench;
  // A fixed mmap threshold maps and unmaps every buffer of 1 MiB or more
  // (bulk's 16 MiB streams and application buffers) instead of letting
  // glibc raise the threshold and reuse heap holes. Whether a hole is
  // free depends on op timing; with reuse, peak RSS jumped by 16 MiB in
  // some runs and not others.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: chunkbench --workload bulk|msg|sim_lossy --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  RunResult r;
  if (a.workload == "bulk") {
    r = run_bulk(a);
  } else if (a.workload == "msg") {
    r = run_msg(a);
  } else if (a.workload == "sim_lossy") {
    r = run_sim_lossy(a);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
    return 2;
  }
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("workload %s seed %" PRIu64 " trace %d: %" PRIu64
              " ops attempted, %" PRIu64 " failed\n",
              a.workload.c_str(), a.seed, a.trace ? 1 : 0, r.attempted,
              r.failed);
  for (const Metric& m : r.metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  char buf[128];
  std::snprintf(buf, sizeof buf,
                ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                r.attempted, r.failed);
  json += buf;
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
