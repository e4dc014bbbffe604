// E15 — the chunk transport over REAL loopback UDP sockets, against a
// length-prefixed framing baseline on the same wire.
//
// Every other bench in this directory measures the protocol inside the
// discrete-event simulator; this one pays the kernel: epoll, recvmmsg /
// sendmmsg batches, socket buffers, the loopback queue. Two phases:
//
//   E15a  bulk throughput — stream N bytes through UdpSenderSession /
//         UdpReceiverSession (full reliability: ACKs, RTO, ingress
//         guard) vs the same bytes as raw [u32 len][payload] datagrams
//         through bare UdpEndpoints (no reliability, no headers).
//   E15b  per-message latency — one small message through a fresh
//         session pair, timed send-to-delivery; p50/p99 over many
//         messages, vs a single raw datagram through fresh endpoints.
//
// The absolute numbers belong to the host's network stack as much as
// to chunknet, so this bench stamps `"realio": true` into its JSON
// meta block and tools/bench_check compares only the claims and the
// chunk-vs-baseline ratios across runs (see src/obs/bench_compare.cpp).
#include <algorithm>
#include <cstring>

#include "bench_util.hpp"
#include "src/common/stats.hpp"
#include "src/io/udp_transport.hpp"

namespace chunknet::bench {
namespace {

constexpr std::uint32_t kConn = 15;
constexpr std::uint16_t kElem = 4;
constexpr std::size_t kMtu = 1400;

SenderConfig bulk_sender_config(std::size_t /*stream_bytes*/) {
  SenderConfig sc;
  sc.framer.connection_id = kConn;
  sc.framer.element_size = kElem;
  sc.framer.tpdu_elements = 1024;  // 4 KiB TPDUs
  sc.framer.xpdu_elements = 256;
  sc.framer.max_chunk_elements = 256;
  sc.mtu = kMtu;
  sc.retransmit_timeout = 30 * kMillisecond;
  sc.max_retransmits = 30;
  // Without end-to-end credit the sender would burst the whole stream
  // into loopback's ~1 MB SO_RCVBUF and measure RTO recovery instead
  // of transfer: real-I/O runs want overload as sender-side queueing.
  sc.flow.enabled = true;
  sc.flow.initial_credit_bytes = 256 * 1024;
  sc.flow.initial_tpdu_slots = 64;
  return sc;
}

struct BulkResult {
  double mbps{0};
  bool bit_exact{false};
  bool clean{false};
  double seconds{0};
};

/// The full story: sessions on both ends, ingress guard screening,
/// ACK/RTO reliability, truthful drain.
BulkResult run_chunk_bulk(const std::vector<std::uint8_t>& stream) {
  EventLoop loop;
  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver.connection_id = kConn;
  rcfg.receiver.element_size = kElem;
  rcfg.receiver.app_buffer_bytes = stream.size();
  rcfg.receiver.record_latency_samples = false;
  rcfg.receiver.grant_credit = true;
  rcfg.receiver.credit_window_bytes = 512 * 1024;
  rcfg.receiver.credit_tpdu_slots = 128;
  UdpReceiverSession rx(loop, rcfg);

  UdpSenderSessionConfig scfg;
  scfg.peer = rx.endpoint().local_addr();
  scfg.sender = bulk_sender_config(stream.size());
  UdpSenderSession tx(loop, scfg);

  BulkResult r;
  const SimTime t0 = loop.now();
  tx.send_stream(stream);
  // Finished = every TPDU acked, which implies the receiver has it.
  tx.run_until_finished(t0 + 60 * kSecond);
  const SimTime t1 = loop.now();

  const DrainReport d = tx.drain(loop.now() + kSecond);
  rx.drain(loop.now() + 100 * kMillisecond);
  r.seconds = static_cast<double>(t1 - t0) / 1e9;
  r.mbps = static_cast<double>(stream.size()) / 1e6 / r.seconds;
  const auto got = rx.receiver().app_data();
  r.bit_exact = got.size() == stream.size() &&
                std::equal(stream.begin(), stream.end(), got.begin());
  r.clean = d.clean;
  return r;
}

/// The baseline: the same bytes as raw [u32 len][payload] datagrams —
/// framing and syscalls only, no headers, no ACKs, no guard. Loopback
/// does not lose datagrams under these watermarks, but the loop still
/// ends on a deadline and reports what actually arrived.
BulkResult run_framed_bulk(const std::vector<std::uint8_t>& stream) {
  EventLoop loop;
  UdpEndpointConfig rxe;
  rxe.bind = UdpAddress{0x7f000001, 0};
  UdpEndpoint rx(loop, rxe);

  std::size_t received = 0;
  bool framing_ok = true;
  rx.on_datagram([&](PooledBuffer&& buf, const UdpAddress&) {
    const auto& b = buf.bytes();
    if (b.size() < 4) {
      framing_ok = false;
      return;
    }
    std::uint32_t len = 0;
    std::memcpy(&len, b.data(), 4);
    if (b.size() != 4u + len) {
      framing_ok = false;
      return;
    }
    received += len;
  });

  UdpEndpointConfig txe;
  txe.peer = rx.local_addr();
  UdpEndpoint tx(loop, txe);

  constexpr std::size_t kPayload = kMtu - 4;
  // Loopback UDP never blocks the sender: when the receiver's
  // SO_RCVBUF is full the kernel just drops, so the only honest pacing
  // signal is the receiver's own progress. Keep the in-flight window
  // under the 1 MB rcvbuf.
  constexpr std::size_t kWindow = 384 * kPayload;
  BulkResult r;
  const SimTime t0 = loop.now();
  std::size_t offset = 0;
  const SimTime deadline = t0 + 60 * kSecond;
  while (received < stream.size() && loop.now() < deadline) {
    while (offset < stream.size() && offset - received < kWindow) {
      const std::size_t n = std::min(kPayload, stream.size() - offset);
      PacketBytes dgram(4 + n);
      const std::uint32_t len = static_cast<std::uint32_t>(n);
      std::memcpy(dgram.data(), &len, 4);
      std::memcpy(dgram.data() + 4, stream.data() + offset, n);
      tx.send(std::move(dgram));
      offset += n;
    }
    loop.poll_once(kMillisecond);
  }
  const SimTime t1 = loop.now();
  r.seconds = static_cast<double>(t1 - t0) / 1e9;
  r.mbps = static_cast<double>(received) / 1e6 / r.seconds;
  r.bit_exact = framing_ok && received == stream.size();
  r.clean = tx.stats().tx_queue_dropped == 0 &&
            tx.stats().tx_oversize_dropped == 0;
  return r;
}

/// One small message through a FRESH chunk session pair: socket setup
/// happens before t0; the sample is send-stream-to-delivery.
double chunk_message_us(const std::vector<std::uint8_t>& msg) {
  EventLoop loop;
  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver.connection_id = kConn;
  rcfg.receiver.element_size = kElem;
  rcfg.receiver.app_buffer_bytes = msg.size();
  rcfg.receiver.record_latency_samples = false;
  UdpReceiverSession rx(loop, rcfg);

  UdpSenderSessionConfig scfg;
  scfg.peer = rx.endpoint().local_addr();
  scfg.sender.framer.connection_id = kConn;
  scfg.sender.framer.element_size = kElem;
  scfg.sender.framer.tpdu_elements =
      static_cast<std::uint32_t>(msg.size() / kElem);
  scfg.sender.framer.xpdu_elements =
      static_cast<std::uint32_t>(msg.size() / kElem);
  scfg.sender.framer.max_chunk_elements =
      static_cast<std::uint16_t>(msg.size() / kElem);
  scfg.sender.mtu = kMtu;
  scfg.sender.retransmit_timeout = 20 * kMillisecond;
  UdpSenderSession tx(loop, scfg);

  const std::uint64_t want = msg.size() / kElem;
  const SimTime t0 = loop.now();
  tx.send_stream(msg);
  loop.run_until(
      [&] { return rx.receiver().elements_delivered() >= want; },
      t0 + 5 * kSecond);
  const SimTime t1 = loop.now();
  tx.drain(loop.now() + 100 * kMillisecond);
  rx.drain(loop.now() + 10 * kMillisecond);
  return static_cast<double>(t1 - t0) / 1e3;
}

/// One raw datagram through fresh bare endpoints: the floor the chunk
/// path is measured against.
double framed_message_us(const std::vector<std::uint8_t>& msg) {
  EventLoop loop;
  UdpEndpointConfig rxe;
  rxe.bind = UdpAddress{0x7f000001, 0};
  UdpEndpoint rx(loop, rxe);
  bool got = false;
  rx.on_datagram([&](PooledBuffer&&, const UdpAddress&) { got = true; });

  UdpEndpointConfig txe;
  txe.peer = rx.local_addr();
  UdpEndpoint tx(loop, txe);

  const SimTime t0 = loop.now();
  PacketBytes dgram(4 + msg.size());
  const std::uint32_t len = static_cast<std::uint32_t>(msg.size());
  std::memcpy(dgram.data(), &len, 4);
  std::memcpy(dgram.data() + 4, msg.data(), msg.size());
  tx.send(std::move(dgram));
  loop.run_until([&] { return got; }, t0 + 5 * kSecond);
  const SimTime t1 = loop.now();
  return static_cast<double>(t1 - t0) / 1e3;
}

void bench_bulk() {
  print_heading("E15a", "bulk throughput over loopback UDP");
  const std::size_t bytes = bench_quick() ? (1u << 20) : (8u << 20);
  const auto stream = pattern_stream(bytes, 1915);

  const BulkResult chunk = run_chunk_bulk(stream);
  const BulkResult framed = run_framed_bulk(stream);

  TextTable t({"transport", "MB/s", "seconds", "bit-exact", "clean"});
  t.add_row({"chunk sessions", TextTable::num(chunk.mbps, 1),
             TextTable::num(chunk.seconds, 3),
             chunk.bit_exact ? "yes" : "NO", chunk.clean ? "yes" : "NO"});
  t.add_row({"length-prefixed", TextTable::num(framed.mbps, 1),
             TextTable::num(framed.seconds, 3),
             framed.bit_exact ? "yes" : "NO", framed.clean ? "yes" : "NO"});
  print_table(t);

  const double ratio = framed.mbps > 0 ? chunk.mbps / framed.mbps : 0;
  record_metric("chunk_throughput_MBps", chunk.mbps, "MB/s");
  record_metric("framed_throughput_MBps", framed.mbps, "MB/s");
  record_metric("chunk_vs_framed_throughput", ratio, "x");

  print_claim(chunk.bit_exact,
              "chunk transport delivers the stream bit-exact over real "
              "loopback UDP");
  print_claim(chunk.clean,
              "drain is clean: every TPDU positively acked, nothing "
              "abandoned or silently dropped");
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "reliability costs less than 5x of raw framing "
                "throughput (measured %.2fx)",
                ratio);
  print_claim(ratio >= 0.2, buf);
}

void bench_latency() {
  print_heading("E15b", "per-message latency over loopback UDP");
  const std::size_t samples = bench_quick() ? 40 : 200;
  const auto msg = pattern_stream(256, 1916);  // one 256-byte message

  Percentiles chunk_us, framed_us;
  for (std::size_t i = 0; i < samples; ++i) {
    chunk_us.add(chunk_message_us(msg));
    framed_us.add(framed_message_us(msg));
  }

  const double cp50 = chunk_us.percentile(50), cp99 = chunk_us.p99();
  const double fp50 = framed_us.percentile(50), fp99 = framed_us.p99();
  TextTable t({"transport", "p50 us", "p99 us"});
  t.add_row({"chunk sessions", TextTable::num(cp50, 1),
             TextTable::num(cp99, 1)});
  t.add_row({"length-prefixed", TextTable::num(fp50, 1),
             TextTable::num(fp99, 1)});
  print_table(t);

  record_metric("chunk_msg_p50_us", cp50, "us");
  record_metric("chunk_msg_p99_us", cp99, "us");
  record_metric("framed_msg_p50_us", fp50, "us");
  record_metric("framed_msg_p99_us", fp99, "us");
  // Higher = chunk closer to the raw-framing floor; unit "x" so the
  // ratio survives bench_check's realio demotion.
  record_metric("framed_vs_chunk_p50",
                cp50 > 0 ? fp50 / cp50 : 0, "x");

  char buf[96];
  std::snprintf(buf, sizeof buf,
                "per-message p50 stays within 50x of a raw datagram "
                "(measured %.1fx)",
                fp50 > 0 ? cp50 / fp50 : 0);
  print_claim(fp50 > 0 && cp50 <= 50 * fp50, buf);
}

}  // namespace
}  // namespace chunknet::bench

int main() {
  using namespace chunknet::bench;
  mark_bench_realio();
  bench_bulk();
  bench_latency();
  write_bench_json("e15");
  return 0;
}
