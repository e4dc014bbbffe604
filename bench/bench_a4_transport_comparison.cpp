// A4 — ablation: four complete transport stacks on the same impaired
// internet path — the chunk transport vs the three design points the
// paper positions itself against:
//   IP-frag        fragment + physically reassemble + CRC (conventional),
//   XTP-like       PDU per packet, full overhead everywhere (§3.2),
//   MTU-discovery  never fragment, TPDU = path minimum ([KENT 87]);
// the last two are one PDU-per-packet transport with a 16 B or 7 B header.
// Same stream, same loss/disorder; reports wire cost, recovery traffic
// and delivery latency.
#include <cinttypes>

#include "bench_util.hpp"
#include "src/baselines/alt_transports.hpp"
#include "src/baselines/ip_transport.hpp"

namespace chunknet::bench {
namespace {

constexpr std::size_t kStreamBytes = 256 * 1024;

struct Row {
  const char* name;
  std::uint64_t wire_bytes{0};
  std::uint64_t packets{0};
  double p99_ms{0};
  std::uint64_t bus_per_kb{0};
  bool complete{false};
};

LinkConfig path() {
  LinkConfig cfg;
  cfg.mtu = 576;  // the narrow internet hop everyone must live with
  cfg.rate_bps = 155e6;
  cfg.prop_delay = 3 * kMillisecond;
  cfg.loss_rate = 0.01;
  cfg.lanes = 4;
  cfg.lane_skew = 300 * kMicrosecond;
  return cfg;
}

Row run_chunks() {
  TransportHarness h(path(), DeliveryMode::kImmediate, kStreamBytes, 11,
                     /*tpdu_elements=*/4096, /*xpdu_elements=*/1024,
                     /*max_chunk_elements=*/64);
  h.sender->send_stream(pattern_stream(kStreamBytes));
  h.sim.run(120 * kSecond);
  Row r{"chunks (16 KiB TPDUs)"};
  r.wire_bytes = h.sender->stats().bytes_sent;
  r.packets = h.sender->stats().packets_sent;
  Percentiles p;
  for (const double ns : h.receiver->stats().delivery_latency_ns) p.add(ns);
  r.p99_ms = p.p99() / 1e6;
  r.bus_per_kb = h.receiver->stats().bus_bytes * 1024 / kStreamBytes;
  r.complete = h.receiver->stream_complete(kStreamBytes / 4) &&
               h.sender->all_acked();
  return r;
}

Row run_pdu_per_packet(const char* name, PduHeader header) {
  Simulator sim;
  Rng rng(11);
  std::unique_ptr<Link> forward;
  std::unique_ptr<Link> reverse;
  PduPerPacketReceiver receiver(
      sim, header, kStreamBytes, [&](std::vector<std::uint8_t> body) {
        SimPacket sp;
        sp.bytes = std::move(body);
        sp.id = sim.next_packet_id();
        sp.created_at = sim.now();
        reverse->send(std::move(sp));
      });
  forward = std::make_unique<Link>(sim, path(), receiver, rng);
  PduPerPacketConfig cfg;
  cfg.header = header;
  cfg.mtu = 576;
  cfg.retransmit_timeout = 60 * kMillisecond;
  cfg.send_packet = [&](std::vector<std::uint8_t> bytes) {
    SimPacket sp;
    sp.bytes = std::move(bytes);
    sp.id = sim.next_packet_id();
    sp.created_at = sim.now();
    forward->send(std::move(sp));
  };
  PduPerPacketSender sender(sim, std::move(cfg));
  LinkConfig rev;
  rev.prop_delay = 3 * kMillisecond;
  reverse = std::make_unique<Link>(sim, rev, sender, rng);

  sender.send_stream(pattern_stream(kStreamBytes));
  sim.run(120 * kSecond);

  Row r{name};
  r.wire_bytes = sender.stats().bytes_sent;
  r.packets = sender.stats().packets_sent;
  Percentiles p;
  for (const double ns : receiver.stats().delivery_latency_ns) p.add(ns);
  r.p99_ms = p.p99() / 1e6;
  r.bus_per_kb = receiver.stats().bus_bytes * 1024 / kStreamBytes;
  r.complete =
      receiver.bytes_delivered() == kStreamBytes && sender.all_acked();
  return r;
}

Row run_ip() {
  Simulator sim;
  Rng rng(11);
  std::unique_ptr<IpFragTransportReceiver> receiver;
  std::unique_ptr<IpFragTransportSender> sender;
  std::unique_ptr<Link> forward;
  std::unique_ptr<Link> reverse;
  IpReceiverConfig rc;
  rc.app_buffer_bytes = kStreamBytes;
  rc.reassembly_pool_bytes = 1 << 20;
  rc.send_control = [&](std::vector<std::uint8_t> body) {
    SimPacket sp;
    sp.bytes = std::move(body);
    sp.id = sim.next_packet_id();
    sp.created_at = sim.now();
    reverse->send(std::move(sp));
  };
  receiver = std::make_unique<IpFragTransportReceiver>(sim, std::move(rc));
  forward = std::make_unique<Link>(sim, path(), *receiver, rng);
  IpSenderConfig sc;
  sc.tpdu_bytes = 16 * 1024;
  sc.mtu = 576;
  sc.retransmit_timeout = 60 * kMillisecond;
  sc.send_packet = [&](std::vector<std::uint8_t> bytes) {
    SimPacket sp;
    sp.bytes = std::move(bytes);
    sp.id = sim.next_packet_id();
    sp.created_at = sim.now();
    forward->send(std::move(sp));
  };
  sender = std::make_unique<IpFragTransportSender>(sim, std::move(sc));
  LinkConfig rev;
  rev.prop_delay = 3 * kMillisecond;
  reverse = std::make_unique<Link>(sim, rev, *sender, rng);

  sender->send_stream(pattern_stream(kStreamBytes));
  sim.run(120 * kSecond);
  Row r{"IP-frag (16 KiB dgrams)"};
  r.wire_bytes = sender->stats().bytes_sent;
  r.packets = sender->stats().packets_sent;
  Percentiles p;
  for (const double ns : receiver->stats().delivery_latency_ns) p.add(ns);
  r.p99_ms = p.p99() / 1e6;
  r.bus_per_kb = receiver->stats().bus_bytes * 1024 / kStreamBytes;
  r.complete =
      receiver->bytes_delivered() == kStreamBytes && sender->all_acked();
  return r;
}

void compare() {
  print_heading("A4", "four transports, one impaired path "
                      "(MTU 576, 1% loss, 4-lane skew, 256 KiB)");
  Row rows[4];
  rows[0] = run_chunks();
  rows[1] = run_ip();
  rows[2] = run_pdu_per_packet("XTP-like (PDU/packet)", PduHeader::kXtp);
  rows[3] = run_pdu_per_packet("MTU-discovery (opt 4)", PduHeader::kCompact);

  TextTable t({"transport", "wire bytes", "packets", "p99 latency ms",
               "bus B/KiB", "complete"});
  for (const Row& r : rows) {
    t.add_row({r.name, TextTable::num(r.wire_bytes), TextTable::num(r.packets),
               TextTable::num(r.p99_ms, 2), TextTable::num(r.bus_per_kb),
               r.complete ? "yes" : "NO"});
  }
  print_table(t);

  print_claim(rows[0].complete && rows[1].complete && rows[2].complete &&
                  rows[3].complete,
              "all four stacks deliver the stream");
  print_claim(rows[0].bus_per_kb < rows[1].bus_per_kb,
              "chunks touch memory once per byte; the physically "
              "reassembling baseline touches twice");
  print_claim(rows[0].p99_ms <= rows[1].p99_ms,
              "chunk tail latency beats reassemble-then-verify");
  std::printf("reading: XTP-like and MTU-discovery also place disordered "
              "data (single-level framing), but pay full per-packet PDU "
              "overhead and per-tiny-PDU error control; chunks keep big "
              "TPDUs, small marginal headers, and one-touch placement — "
              "the paper's compromise (§3.2).\n");
}

}  // namespace
}  // namespace chunknet::bench

int main() {
  chunknet::bench::compare();
  chunknet::bench::write_bench_json("a4");
  return 0;
}
