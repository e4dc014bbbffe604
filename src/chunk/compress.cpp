#include "src/chunk/compress.hpp"

#include "src/common/bytes.hpp"
#include "src/chunk/codec.hpp"

namespace chunknet {

namespace {

constexpr std::uint8_t kTagFull = 0x80;  // bit 7: full header follows
// bit 6: IDs carried explicitly in this header even under an implicit-ID
// profile — the escape hatch for control chunks (ED, ACK), whose ID
// fields are references to *other* PDUs and so cannot be derived from
// their own SNs (Appendix A's transforms target data chunks).
constexpr std::uint8_t kTagExplicitIds = 0x40;
constexpr std::uint8_t kTagCst = 0x01;
constexpr std::uint8_t kTagTst = 0x02;
constexpr std::uint8_t kTagXst = 0x04;
// bits 3..5: TYPE (3 bits)

std::uint8_t make_tag(const ChunkHeader& h, bool full, bool explicit_ids) {
  std::uint8_t tag = static_cast<std::uint8_t>(
      (static_cast<std::uint8_t>(h.type) & 0x07u) << 3);
  if (full) tag |= kTagFull;
  if (explicit_ids) tag |= kTagExplicitIds;
  if (h.conn.st) tag |= kTagCst;
  if (h.tpdu.st) tag |= kTagTst;
  if (h.xpdu.st) tag |= kTagXst;
  return tag;
}

/// True when the chunk's IDs match the implicit derivation of Figure 7
/// under the given profile (so they need not be transmitted).
bool ids_derivable(const ChunkHeader& h, const CompressionProfile& profile) {
  if (profile.implicit_tid && h.tpdu.id != h.conn.sn - h.tpdu.sn) return false;
  if (profile.implicit_xid && h.xpdu.id != h.conn.sn - h.xpdu.sn) return false;
  return true;
}

/// Predicts the header a CONT decoder would reconstruct after `prev`,
/// for a chunk with the given tag-derived fields. Encoder emits CONT
/// only when the prediction matches the real header exactly.
ChunkHeader predict_continuation(const ChunkHeader& prev, ChunkType type,
                                 std::uint16_t size, std::uint16_t len,
                                 const CompressionProfile& profile) {
  ChunkHeader h;
  h.type = type;
  h.size = size;
  h.len = len;
  h.conn.id = prev.conn.id;
  h.conn.sn = prev.conn.sn + prev.len;
  if (prev.tpdu.st) {
    h.tpdu.sn = 0;
    h.tpdu.id = profile.implicit_tid ? h.conn.sn : prev.tpdu.id + 1;
  } else {
    h.tpdu.sn = prev.tpdu.sn + prev.len;
    h.tpdu.id = prev.tpdu.id;
  }
  if (prev.xpdu.st) {
    h.xpdu.sn = 0;
    h.xpdu.id = profile.implicit_xid ? h.conn.sn : prev.xpdu.id + 1;
  } else {
    h.xpdu.sn = prev.xpdu.sn + prev.len;
    h.xpdu.id = prev.xpdu.id;
  }
  return h;
}

bool headers_equal_ignoring_st(const ChunkHeader& a, const ChunkHeader& b) {
  return a.type == b.type && a.size == b.size && a.len == b.len &&
         a.conn.id == b.conn.id && a.conn.sn == b.conn.sn &&
         a.tpdu.id == b.tpdu.id && a.tpdu.sn == b.tpdu.sn &&
         a.xpdu.id == b.xpdu.id && a.xpdu.sn == b.xpdu.sn;
}

void encode_full(ByteWriter& w, const ChunkHeader& h,
                 const CompressionProfile& profile) {
  const bool explicit_ids = !ids_derivable(h, profile);
  w.u8(make_tag(h, /*full=*/true, explicit_ids));
  if (!profile.elide_size) w.u16(h.size);
  w.u16(h.len);
  w.u32(h.conn.id);
  w.u32(h.conn.sn);
  if (!profile.implicit_tid || explicit_ids) w.u32(h.tpdu.id);
  w.u32(h.tpdu.sn);
  if (!profile.implicit_xid || explicit_ids) w.u32(h.xpdu.id);
  w.u32(h.xpdu.sn);
}

template <typename ChunkT>
std::vector<std::uint8_t> compress_packet_impl(
    std::span<const ChunkT> chunks, const CompressionProfile& profile,
    std::size_t capacity) {
  // SIZE elision requires every chunk to use its TYPE's negotiated
  // SIZE; a chunk that deviates is not representable in this profile.
  // Checked before any byte is written, so a refused packet costs no
  // payload copy.
  if (profile.elide_size) {
    for (const ChunkT& c : chunks) {
      if (profile.size_by_type[static_cast<std::uint8_t>(c.h.type) & 7] !=
          c.h.size) {
        return {};
      }
    }
  }
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u8(kCompressedPacketMagic);
  w.u8(kPacketVersion);
  w.u16(0);  // patched below

  const ChunkHeader* prev = nullptr;
  for (const ChunkT& c : chunks) {
    bool cont = false;
    if (profile.intra_packet_continuation && prev != nullptr) {
      // Predict with the SIZE the decoder will infer (negotiated per
      // TYPE, or carried over from the previous chunk) — CONT is legal
      // only if that inference matches reality.
      const std::uint16_t inferred_size =
          profile.elide_size
              ? profile.size_by_type[static_cast<std::uint8_t>(c.h.type) & 7]
              : prev->size;
      const ChunkHeader predicted = predict_continuation(
          *prev, c.h.type, inferred_size, c.h.len, profile);
      cont = headers_equal_ignoring_st(predicted, c.h);
    }
    if (cont) {
      w.u8(make_tag(c.h, /*full=*/false, /*explicit_ids=*/false));
      w.u16(c.h.len);
    } else {
      encode_full(w, c.h, profile);
    }
    w.bytes(c.payload);
    prev = &c.h;
  }

  if (out.size() > capacity) return {};
  const std::size_t length = out.size() - kPacketHeaderBytes;
  out[2] = static_cast<std::uint8_t>(length >> 8);
  out[3] = static_cast<std::uint8_t>(length);
  return out;
}

}  // namespace

std::size_t compressed_header_size(const CompressionProfile& profile,
                                   bool continuation) {
  if (continuation) return 1 + 2;  // tag + LEN
  std::size_t n = 1 + 2 + 4 + 4 + 4 + 4;  // tag, LEN, C.ID, C.SN, T.SN, X.SN
  if (!profile.elide_size) n += 2;
  if (!profile.implicit_tid) n += 4;
  if (!profile.implicit_xid) n += 4;
  return n;
}

std::vector<std::uint8_t> compress_packet(std::span<const Chunk> chunks,
                                          const CompressionProfile& profile,
                                          std::size_t capacity) {
  return compress_packet_impl(chunks, profile, capacity);
}

std::vector<std::uint8_t> compress_packet(std::span<const ChunkView> chunks,
                                          const CompressionProfile& profile,
                                          std::size_t capacity) {
  return compress_packet_impl(chunks, profile, capacity);
}

DecompressedPacket decompress_packet(std::span<const std::uint8_t> bytes,
                                     const CompressionProfile& profile) {
  DecompressedPacket result;
  ByteReader r(bytes);
  const std::uint8_t magic = r.u8();
  const std::uint8_t version = r.u8();
  const std::uint16_t length = r.u16();
  if (!r.ok() || magic != kCompressedPacketMagic ||
      version != kPacketVersion || length != r.remaining()) {
    return result;
  }

  const ChunkHeader* prev = nullptr;
  ChunkHeader prev_storage;
  while (r.remaining() > 0) {
    const std::uint8_t tag = r.u8();
    const auto type = static_cast<ChunkType>((tag >> 3) & 0x07u);
    if (type == ChunkType::kTerminator) break;
    if (static_cast<std::uint8_t>(type) >
        static_cast<std::uint8_t>(ChunkType::kAck)) {
      return result;
    }

    Chunk c;
    c.h.type = type;
    if ((tag & kTagFull) != 0) {
      const bool explicit_ids = (tag & kTagExplicitIds) != 0;
      c.h.size = profile.elide_size
                     ? profile.size_by_type[static_cast<std::uint8_t>(type) & 7]
                     : r.u16();
      c.h.len = r.u16();
      c.h.conn.id = r.u32();
      c.h.conn.sn = r.u32();
      if (!profile.implicit_tid || explicit_ids) c.h.tpdu.id = r.u32();
      c.h.tpdu.sn = r.u32();
      if (!profile.implicit_xid || explicit_ids) c.h.xpdu.id = r.u32();
      c.h.xpdu.sn = r.u32();
      if (profile.implicit_tid && !explicit_ids) {
        c.h.tpdu.id = c.h.conn.sn - c.h.tpdu.sn;
      }
      if (profile.implicit_xid && !explicit_ids) {
        c.h.xpdu.id = c.h.conn.sn - c.h.xpdu.sn;
      }
    } else {
      if (prev == nullptr) return result;  // CONT with no predecessor
      const std::uint16_t len = r.u16();
      const std::uint16_t size =
          profile.elide_size
              ? profile.size_by_type[static_cast<std::uint8_t>(type) & 7]
              : prev->size;
      c.h = predict_continuation(*prev, type, size, len, profile);
    }
    c.h.conn.st = (tag & kTagCst) != 0;
    c.h.tpdu.st = (tag & kTagTst) != 0;
    c.h.xpdu.st = (tag & kTagXst) != 0;

    if (!r.ok() || c.h.size == 0 || c.h.len == 0) return result;
    // 64-bit extent, checked against the bytes present, so a hostile
    // LEN·SIZE can neither wrap on 32-bit targets nor over-read a
    // truncated tail (mirrors decode_chunk_view).
    const std::uint64_t extent = static_cast<std::uint64_t>(c.h.size) *
                                 static_cast<std::uint64_t>(c.h.len);
    if (extent > r.remaining()) return result;
    const auto view = r.bytes(static_cast<std::size_t>(extent));
    if (!r.ok()) return result;
    c.payload.assign(view.begin(), view.end());

    prev_storage = c.h;
    prev = &prev_storage;
    result.chunks.push_back(std::move(c));
  }
  result.ok = true;
  return result;
}

}  // namespace chunknet
