// The replay ledger: per-layer CPU cost measured from outside the
// program.
//
// A traced op's datagrams are captured as they arrived (timing_shim.hpp
// for real sockets, a capturing sink for the simulator) and then replayed
// one layer at a time through the same public entry points the runtime
// calls, each layer timed as a whole batch:
//
//   io.guard.screen       IngressGuard::screen on every data datagram,
//                         at its recorded arrival time
//   chunk.decode          decode_packet_views on every data datagram
//   transport.rx          ChunkTransportReceiver::on_chunk_view for every
//                         view of every datagram the guard accepted
//   chunk.ctrl_encode     encode_packet of each control chunk the
//                         replayed receiver emitted
//   transport.feedback    ChunkTransportSender::on_packet for every
//                         feedback datagram, on a sender that has sent
//                         the same stream
//   edc.wsc2              TpduInvariant::absorb over each TPDU's data
//
// decode is part of screen, and wsc2 part of rx, in the real path; the
// attributed total therefore counts screen + rx + ctrl_encode + feedback
// only.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/io/ingress_guard.hpp"
#include "src/transport/receiver.hpp"
#include "src/transport/sender.hpp"
#include "timing_shim.hpp"

namespace chunknet::perfbench {

struct ReplayInput {
  /// Every datagram of one op, in arrival order; arrival times are
  /// relative to any fixed origin.
  std::vector<CapturedDatagram> dgrams;
  std::span<const std::uint8_t> stream;  ///< what the sender sent
  SenderConfig sender;      ///< callbacks/timers/obs are replaced
  ReceiverConfig receiver;  ///< callbacks/timers/obs are replaced
  IngressGuardConfig guard;
};

/// Median ns per replay of the whole op's traffic, per layer, and the
/// work counts the per-unit metrics divide by.
struct Ledger {
  double screen_ns{0}, decode_ns{0}, rx_ns{0}, ctrl_encode_ns{0},
      feedback_ns{0}, wsc2_ns{0};
  std::uint64_t data_dgrams{0};      ///< screened and decoded
  std::uint64_t accepted_dgrams{0};  ///< fed to the receiver
  std::uint64_t feedback_dgrams{0};
  std::uint64_t ctrl_chunks{0};
  std::uint64_t wsc2_bytes{0};
  /// The replayed receiver covered the whole stream: the replay saw
  /// the traffic that delivered the op.
  bool rx_complete{false};

  double attributed_ns() const {
    return screen_ns + rx_ns + ctrl_encode_ns + feedback_ns;
  }
};

/// Replays `in` `reps` times and returns each layer's median.
Ledger replay_ledger(const ReplayInput& in, int reps);

}  // namespace chunknet::perfbench
