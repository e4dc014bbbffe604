#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "src/chunk/codec.hpp"
#include "src/transport/invariant.hpp"

namespace chunknet::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// The replayed datagrams come from 127.0.0.1 on one fixed port, as
/// the op's sender did.
constexpr UdpAddress kReplaySource{0x7f000001, 40000};

}  // namespace

Ledger replay_ledger(const ReplayInput& in, int reps) {
  Ledger out;
  std::vector<const CapturedDatagram*> data, feedback;
  for (const CapturedDatagram& d : in.dgrams) {
    (d.data ? data : feedback).push_back(&d);
  }
  out.data_dgrams = data.size();
  out.feedback_dgrams = feedback.size();
  const SimTime origin = in.dgrams.empty() ? 0 : in.dgrams.front().arrived_ns;

  // Untimed preparation: the views the receiver and WSC-2 replays feed
  // on, grouped per datagram and per TPDU. They point into `in.dgrams`.
  std::vector<std::vector<ChunkView>> views(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    decode_packet_views(data[i]->bytes, views[i]);
  }
  std::map<std::uint32_t, std::vector<ChunkView>> by_tpdu;
  {
    std::map<std::pair<std::uint32_t, std::uint32_t>, bool> seen;
    for (const auto& dv : views) {
      for (const ChunkView& v : dv) {
        if (v.h.type != ChunkType::kData) continue;
        // Absorb each element run once, as virtual reassembly would.
        if (!seen.emplace(std::make_pair(v.h.tpdu.id, v.h.tpdu.sn), true)
                 .second) {
          continue;
        }
        by_tpdu[v.h.tpdu.id].push_back(v);
        out.wsc2_bytes += v.payload.size();
      }
    }
  }

  std::vector<double> screen, decode, rx, enc, fb, wsc2;
  std::vector<Chunk> ctrl;
  std::vector<ChunkView> scratch;
  for (int rep = 0; rep < reps; ++rep) {
    // io.guard.screen, at the recorded arrival times.
    IngressGuardConfig gc = in.guard;
    gc.obs = nullptr;
    IngressGuard guard(gc);
    std::vector<bool> accepted(data.size(), false);
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < data.size(); ++i) {
      accepted[i] =
          guard.screen(data[i]->bytes, kReplaySource,
                       data[i]->arrived_ns - origin,
                       scratch) == IngressGuard::Verdict::kAccept;
    }
    screen.push_back(ns_since(t0));

    // chunk.decode.
    t0 = Clock::now();
    for (const CapturedDatagram* d : data) {
      decode_packet_views(d->bytes, scratch);
    }
    decode.push_back(ns_since(t0));

    // transport.rx, on the datagrams the guard let through.
    Simulator sim;
    ReceiverConfig rc = in.receiver;
    rc.obs = nullptr;
    rc.timers = nullptr;
    rc.pool = nullptr;
    rc.governor = nullptr;
    rc.on_tpdu = nullptr;
    ctrl.clear();
    rc.send_control = [&ctrl](Chunk c) { ctrl.push_back(std::move(c)); };
    ChunkTransportReceiver receiver(sim, std::move(rc));
    std::uint64_t fed = 0;
    t0 = Clock::now();
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (!accepted[i]) continue;
      ++fed;
      const SimTime at = data[i]->arrived_ns - origin;
      for (const ChunkView& v : views[i]) receiver.on_chunk_view(v, at, i);
    }
    rx.push_back(ns_since(t0));
    out.accepted_dgrams = fed;
    out.rx_complete = receiver.stream_complete(
        in.stream.size() / std::max<std::uint16_t>(in.receiver.element_size, 1));

    // chunk.ctrl_encode: one envelope per control chunk, as the UDP
    // receiver session sends them.
    t0 = Clock::now();
    for (const Chunk& c : ctrl) {
      const auto body = encode_packet(std::span<const Chunk>(&c, 1), 1500);
      asm volatile("" : : "r"(body.data()) : "memory");
    }
    enc.push_back(ns_since(t0));
    out.ctrl_chunks = ctrl.size();

    // transport.feedback, on a sender that has sent the same stream.
    Simulator ssim;
    SenderConfig sc = in.sender;
    sc.obs = nullptr;
    sc.timers = nullptr;
    sc.send_packet = [](PacketBytes) {};
    ChunkTransportSender sender(ssim, std::move(sc));
    sender.send_stream(in.stream);
    std::vector<SimPacket> pkts(feedback.size());
    for (std::size_t i = 0; i < feedback.size(); ++i) {
      pkts[i].bytes = feedback[i]->bytes;
    }
    t0 = Clock::now();
    for (SimPacket& p : pkts) sender.on_packet(std::move(p));
    fb.push_back(ns_since(t0));

    // edc.wsc2: one invariant per TPDU, as the receiver keeps.
    std::uint64_t sink = 0;
    t0 = Clock::now();
    for (const auto& [id, tv] : by_tpdu) {
      TpduInvariant inv(in.receiver.invariant);
      for (const ChunkView& v : tv) inv.absorb(v);
      sink ^= inv.value().p0 ^ id;
    }
    wsc2.push_back(ns_since(t0));
    // Keeps the absorbs from being optimized away.
    asm volatile("" : : "r"(sink) : "memory");
  }
  out.screen_ns = median(screen);
  out.decode_ns = median(decode);
  out.rx_ns = median(rx);
  out.ctrl_encode_ns = median(enc);
  out.feedback_ns = median(fb);
  out.wsc2_ns = median(wsc2);
  return out;
}

}  // namespace chunknet::perfbench
