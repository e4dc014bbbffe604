#include "src/transport/invariant.hpp"

namespace chunknet {

bool TpduInvariant::absorb(const ChunkHeader& h,
                           std::span<const std::uint8_t> payload) {
  if (h.type != ChunkType::kData) return false;
  if (h.size % 4 != 0) return false;  // data must be 32-bit symbols

  const std::uint32_t words_per_element = h.size / 4;
  // A hostile T.SN can wrap 32-bit position arithmetic and slip a chunk
  // past the layout bound (the wrapped product lands back inside
  // [0, max_data_symbols)); do the extent check in 64 bits so rejection
  // is decided on the true positions (fuzzer regression).
  const std::uint64_t first_symbol =
      static_cast<std::uint64_t>(h.tpdu.sn) * words_per_element;
  const std::uint64_t symbol_count =
      static_cast<std::uint64_t>(h.len) * words_per_element;
  if (first_symbol + symbol_count > cfg_.max_data_symbols) return false;

  // --- payload words at their fragmentation-invariant positions.
  acc_.add_words(static_cast<std::uint32_t>(first_symbol), payload);

  // --- once-per-TPDU constants. T.ID and C.ID are identical in every
  // chunk of the TPDU, so encoding them on first contact is equivalent
  // to the transmitter encoding them once.
  const std::uint32_t base = cfg_.max_data_symbols;
  if (!ids_encoded_) {
    encode_symbol(base + 0, h.tpdu.id);
    encode_symbol(base + 1, h.conn.id);
    ids_encoded_ = true;
  }

  // --- C.ST: "can be set only on a TPDU boundary, so a set C.ST bit
  // can occur at most once in a TPDU". Encoding value 0 is a no-op, so
  // unconditionally encoding the bit's value when it appears preserves
  // the exactly-once semantics.
  if (h.conn.st) encode_symbol(base + 2, 1);

  // --- (X.ID, X.ST) pairs (Figure 6). Encode when the chunk ends an
  // external PDU (X.ST) or ends the TPDU (T.ST, covering an external
  // PDU that begins but does not end here). When both bits are set the
  // pair is encoded once, with the X.ST value inside, so X.ST
  // corruption is detectable even then.
  if (h.xpdu.st || h.tpdu.st) {
    // In range after the 64-bit extent check above (t < max_data_symbols),
    // so the 32-bit pair-position arithmetic cannot wrap.
    const std::uint32_t last_element_sn = h.tpdu.sn + h.len - 1;
    const std::uint32_t t = last_element_sn * words_per_element;
    const std::uint32_t pair_pos = 2 * t + base + 3;
    encode_symbol(pair_pos, h.xpdu.id);
    encode_symbol(pair_pos + 1, h.xpdu.st ? 1u : 0u);
  }
  return true;
}

bool SnConsistencyChecker::check(const ChunkHeader& h) {
  const bool ed = h.type == ChunkType::kErrorDetection;
  if (h.type != ChunkType::kData && !ed) return consistent_;
  const std::uint32_t dct = h.conn.sn - h.tpdu.sn;
  if (!delta_ct_) {
    delta_ct_ = dct;
  } else if (*delta_ct_ != dct) {
    consistent_ = false;
  }
  if (ed) return consistent_;
  const std::uint32_t dcx = h.conn.sn - h.xpdu.sn;
  const auto [it, inserted] = delta_cx_by_xid_.emplace(h.xpdu.id, dcx);
  if (!inserted && it->second != dcx) consistent_ = false;
  return consistent_;
}

}  // namespace chunknet
