// Virtual reassembly (paper §3.3).
//
// "Regardless of whether we perform physical PDU reassembly, packet
// reordering, or immediate packet processing, we must perform virtual
// reassembly… keeping track of the received fragments to determine when
// all of the fragments of a PDU have been received."
//
// The tracker also performs the two duties §3.3 assigns it:
//  - duplicate rejection, so an incremental checksum never absorbs the
//    same piece twice and a corrupted duplicate never overwrites good
//    data;
//  - completion detection, so the receiver knows when an incrementally
//    computed error-detection code is ready to compare against the
//    received ED chunk.
//
// This is the software equivalent of the VLSI virtual-reassembly unit
// of [MCAU 93b] (see DESIGN.md substitutions).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/interval_set.hpp"
#include "src/chunk/types.hpp"
#include "src/obs/obs.hpp"

namespace chunknet {

/// Verdict for one arriving piece of a PDU.
enum class PieceVerdict {
  kAccept,     ///< new data; process it
  kDuplicate,  ///< entirely seen before; MUST NOT be processed again
  kOverlap,    ///< partially seen; reject (cannot partially absorb)
  kAfterStop,  ///< data beyond an already-seen stop bit: corrupt framing
  kStopConflict,  ///< a second, different stop position: corrupt framing
};

/// Tracks one PDU's arrival state in element-SN space.
class PduTracker {
 public:
  /// Records a piece covering elements [sn, sn+len) with `st` set on
  /// the final element iff `stop`.
  PieceVerdict add(std::uint32_t sn, std::uint32_t len, bool stop);

  /// Complete = a stop position is known and [0, stop] fully covered.
  bool complete() const;

  /// Elements received (each counted once).
  std::uint64_t elements_received() const { return seen_.covered(); }

  /// Number of disjoint runs currently tracked (disorder metric).
  std::size_t pieces() const { return seen_.pieces(); }

  std::optional<std::uint32_t> stop_element() const { return stop_; }

  /// Highest element SN seen so far plus one (0 if nothing arrived).
  std::uint64_t max_seen() const;

  /// The missing element runs: within [0, stop] when the stop position
  /// is known, else within [0, max_seen()). Feeds selective
  /// retransmission (GapNak) — virtual reassembly already knows
  /// exactly what is absent.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> missing_runs() const;

  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t overlaps() const { return overlaps_; }

 private:
  IntervalSet seen_;
  std::optional<std::uint32_t> stop_;  // SN of the final element
  std::uint64_t duplicates_{0};
  std::uint64_t overlaps_{0};
};

/// What PduTracker::add returns for the piece (sn, len, stop) once the
/// tracker is complete with its final element at `stop_sn`: a complete
/// tracker judges a piece by its framing against the stop alone, so an
/// accepted PDU's context can shrink to that one SN.
PieceVerdict verdict_once_complete(std::uint32_t stop_sn, std::uint32_t sn,
                                   std::uint32_t len, bool stop);

/// Key identifying a PDU within a receiver: (connection, PDU id).
struct PduKey {
  std::uint32_t conn_id{0};
  std::uint32_t pdu_id{0};
  friend auto operator<=>(const PduKey&, const PduKey&) = default;
};

/// Virtual reassembly across all in-flight TPDUs of all connections.
/// Chunks may arrive in any order, fragmented any number of times; the
/// tracker only ever sees (key, sn, len, st) — it never buffers data.
class VirtualReassembler {
 public:
  PieceVerdict add_chunk(const Chunk& c) { return add_chunk(c.h); }
  PieceVerdict add_chunk(const ChunkView& c) { return add_chunk(c.h); }
  PieceVerdict add_chunk(const ChunkHeader& h) {
    return add(PduKey{h.conn.id, h.tpdu.id}, h.tpdu.sn, h.len, h.tpdu.st);
  }
  PieceVerdict add(const PduKey& key, std::uint32_t sn, std::uint32_t len,
                   bool stop);

  bool complete(const PduKey& key) const;

  /// Returns the tracker for `key`, or nullptr if nothing arrived yet.
  const PduTracker* find(const PduKey& key) const;

  /// Drops per-PDU state (after delivery or abort). Returns true if
  /// state existed.
  bool erase(const PduKey& key) { return trackers_.erase(key) > 0; }

  std::size_t in_flight() const { return trackers_.size(); }

  struct Stats {
    std::uint64_t pieces_accepted{0};
    std::uint64_t duplicates_rejected{0};
    std::uint64_t overlaps_rejected{0};
    std::uint64_t framing_errors{0};
  };
  const Stats& stats() const { return stats_; }

  /// Observability (optional). Counters under "vreass."; rejections
  /// also emit trace events (t = 0: the reassembler has no clock).
  void set_obs(ObsContext* obs, std::uint16_t site = 0);

 private:
  struct ObsHandles {
    Counter* pieces_accepted{nullptr};
    Counter* duplicates_rejected{nullptr};
    Counter* overlaps_rejected{nullptr};
    Counter* framing_errors{nullptr};
  };

  std::map<PduKey, PduTracker> trackers_;
  Stats stats_;
  ObsContext* obs_{nullptr};
  std::uint16_t obs_site_{0};
  ObsHandles m_;
};

}  // namespace chunknet
