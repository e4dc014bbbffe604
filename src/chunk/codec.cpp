#include "src/chunk/codec.hpp"

#include <cstdio>
#include <cstring>

namespace chunknet {

const char* to_string(ChunkType t) {
  switch (t) {
    case ChunkType::kTerminator: return "TERM";
    case ChunkType::kData: return "D";
    case ChunkType::kErrorDetection: return "ED";
    case ChunkType::kSignal: return "SIG";
    case ChunkType::kAck: return "ACK";
  }
  return "?";
}

std::string to_string(const FrameTuple& t) {
  char buf[64];
  const int w = std::snprintf(buf, sizeof buf, "(id=%u sn=%u st=%d)", t.id,
                              t.sn, t.st ? 1 : 0);
  return std::string(buf, static_cast<std::size_t>(w));
}

std::string to_string(const Chunk& c) {
  std::string out = "chunk{";
  out += to_string(c.h.type);
  char buf[64];
  int w = std::snprintf(buf, sizeof buf, " size=%u len=%u C=", c.h.size, c.h.len);
  out.append(buf, static_cast<std::size_t>(w));
  out += to_string(c.h.conn);
  out += " T=";
  out += to_string(c.h.tpdu);
  out += " X=";
  out += to_string(c.h.xpdu);
  out += "}";
  return out;
}

namespace {

constexpr std::uint8_t kFlagCst = 0x01;
constexpr std::uint8_t kFlagTst = 0x02;
constexpr std::uint8_t kFlagXst = 0x04;

inline void store_be16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

inline std::uint16_t load_be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((static_cast<std::uint16_t>(p[0]) << 8) |
                                    p[1]);
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

}  // namespace

void store_chunk_header(std::uint8_t* p, const ChunkHeader& h) {
  p[0] = static_cast<std::uint8_t>(h.type);
  std::uint8_t flags = 0;
  if (h.conn.st) flags |= kFlagCst;
  if (h.tpdu.st) flags |= kFlagTst;
  if (h.xpdu.st) flags |= kFlagXst;
  p[1] = flags;
  store_be16(p + 2, h.size);
  store_be16(p + 4, h.len);
  store_be32(p + 6, h.conn.id);
  store_be32(p + 10, h.conn.sn);
  store_be32(p + 14, h.tpdu.id);
  store_be32(p + 18, h.tpdu.sn);
  store_be32(p + 22, h.xpdu.id);
  store_be32(p + 26, h.xpdu.sn);
  store_be32(p + 30, 0);  // spare / future use
}

void load_chunk_header(const std::uint8_t* p, ChunkHeader& h) {
  h.type = static_cast<ChunkType>(p[0]);
  const std::uint8_t flags = p[1];
  h.size = load_be16(p + 2);
  h.len = load_be16(p + 4);
  h.conn.id = load_be32(p + 6);
  h.conn.sn = load_be32(p + 10);
  h.tpdu.id = load_be32(p + 14);
  h.tpdu.sn = load_be32(p + 18);
  h.xpdu.id = load_be32(p + 22);
  h.xpdu.sn = load_be32(p + 26);
  // p+30..p+33 is the spare word; ignored on load.
  h.conn.st = (flags & kFlagCst) != 0;
  h.tpdu.st = (flags & kFlagTst) != 0;
  h.xpdu.st = (flags & kFlagXst) != 0;
}

void encode_chunk(ByteWriter& w, const Chunk& c) {
  w.u8(static_cast<std::uint8_t>(c.h.type));
  std::uint8_t flags = 0;
  if (c.h.conn.st) flags |= kFlagCst;
  if (c.h.tpdu.st) flags |= kFlagTst;
  if (c.h.xpdu.st) flags |= kFlagXst;
  w.u8(flags);
  w.u16(c.h.size);
  w.u16(c.h.len);
  w.u32(c.h.conn.id);
  w.u32(c.h.conn.sn);
  w.u32(c.h.tpdu.id);
  w.u32(c.h.tpdu.sn);
  w.u32(c.h.xpdu.id);
  w.u32(c.h.xpdu.sn);
  w.u32(0);  // spare / future use (kept so kChunkHeaderBytes is stable)
  w.bytes(c.payload);
}

DecodeStatus decode_chunk_view(ByteReader& r, ChunkView& out) {
  if (r.remaining() == 0) return DecodeStatus::kEnd;
  const std::uint8_t type = r.u8();
  if (type == static_cast<std::uint8_t>(ChunkType::kTerminator)) {
    return DecodeStatus::kTerminator;
  }
  if (type > static_cast<std::uint8_t>(ChunkType::kAck)) {
    return DecodeStatus::kError;
  }
  const std::uint8_t flags = r.u8();
  out.h.type = static_cast<ChunkType>(type);
  out.h.size = r.u16();
  out.h.len = r.u16();
  out.h.conn.id = r.u32();
  out.h.conn.sn = r.u32();
  out.h.tpdu.id = r.u32();
  out.h.tpdu.sn = r.u32();
  out.h.xpdu.id = r.u32();
  out.h.xpdu.sn = r.u32();
  r.skip(4);  // spare
  if (!r.ok()) return DecodeStatus::kError;
  out.h.conn.st = (flags & kFlagCst) != 0;
  out.h.tpdu.st = (flags & kFlagTst) != 0;
  out.h.xpdu.st = (flags & kFlagXst) != 0;
  if (out.h.size == 0 || out.h.len == 0) return DecodeStatus::kError;
  // The declared extent is LEN·SIZE. Compute it in 64 bits and compare
  // against the bytes actually present BEFORE forming a std::size_t, so
  // a hostile header can neither wrap the product on 32-bit targets nor
  // drive the reader past a truncated tail (fuzzer regression).
  const std::uint64_t payload = static_cast<std::uint64_t>(out.h.size) *
                                static_cast<std::uint64_t>(out.h.len);
  if (payload > r.remaining()) return DecodeStatus::kError;
  out.payload = r.bytes(static_cast<std::size_t>(payload));
  if (!r.ok()) return DecodeStatus::kError;
  return DecodeStatus::kOk;
}

DecodeStatus decode_chunk(ByteReader& r, Chunk& out) {
  ChunkView v;
  const DecodeStatus s = decode_chunk_view(r, v);
  if (s == DecodeStatus::kOk) {
    out.h = v.h;
    out.payload.assign(v.payload.begin(), v.payload.end());
  }
  return s;
}

namespace {

// Batched encode: the total wire size is known up front, so the
// buffer is sized ONCE and every chunk header lands via raw big-endian
// stores — no per-byte push_back bounds churn. ~2x faster than the
// ByteWriter loop on multi-chunk packets (bench E10.hdr). The one
// packet encoder: owning chunks and views, into vectors or PacketBytes.
template <typename ChunkT, typename Buffer>
bool encode_packet_into_impl(std::span<const ChunkT> chunks,
                             std::size_t capacity, Buffer& out) {
  out.clear();
  std::size_t body = kPacketHeaderBytes;
  for (const ChunkT& c : chunks) body += c.wire_size();
  if (body > capacity) return false;
  const bool terminator = body < capacity;
  const std::size_t total = body + (terminator ? 1 : 0);
  if constexpr (requires { out.resize_uninitialized(total); }) {
    out.resize_uninitialized(total);
  } else {
    out.resize(total);
  }
  std::uint8_t* p = out.data();
  p[0] = kPacketMagic;
  p[1] = kPacketVersion;
  store_be16(p + 2, static_cast<std::uint16_t>(total - kPacketHeaderBytes));
  p += kPacketHeaderBytes;
  for (const ChunkT& c : chunks) {
    store_chunk_header(p, c.h);
    if (!c.payload.empty()) {
      std::memcpy(p + kChunkHeaderBytes, c.payload.data(), c.payload.size());
    }
    p += kChunkHeaderBytes + c.payload.size();
  }
  if (terminator) *p = static_cast<std::uint8_t>(ChunkType::kTerminator);
  return true;
}

}  // namespace

bool encode_packet_into(std::span<const Chunk> chunks, std::size_t capacity,
                        std::vector<std::uint8_t>& out) {
  return encode_packet_into_impl(chunks, capacity, out);
}

bool encode_packet_into(std::span<const Chunk> chunks, std::size_t capacity,
                        PacketBytes& out) {
  return encode_packet_into_impl(chunks, capacity, out);
}

bool encode_packet_into(std::span<const ChunkView> chunks,
                        std::size_t capacity, std::vector<std::uint8_t>& out) {
  return encode_packet_into_impl(chunks, capacity, out);
}

bool encode_packet_into(std::span<const ChunkView> chunks,
                        std::size_t capacity, PacketBytes& out) {
  return encode_packet_into_impl(chunks, capacity, out);
}

std::vector<std::uint8_t> encode_packet(std::span<const Chunk> chunks,
                                        std::size_t capacity) {
  std::vector<std::uint8_t> out;
  encode_packet_into(chunks, capacity, out);
  return out;
}

bool decode_packet_views(std::span<const std::uint8_t> bytes,
                         std::vector<ChunkView>& out) {
  // Pointer-walk version of the ByteReader loop: one bounds check per
  // chunk, then a batched raw header load. Accept/reject decisions are
  // byte-for-byte those of decode_chunk_view (property-tested).
  out.clear();
  if (bytes.size() < kPacketHeaderBytes || bytes[0] != kPacketMagic ||
      bytes[1] != kPacketVersion) {
    return false;
  }
  const std::uint16_t length = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(bytes[2]) << 8) | bytes[3]);
  if (length != bytes.size() - kPacketHeaderBytes) return false;
  const std::uint8_t* p = bytes.data() + kPacketHeaderBytes;
  const std::uint8_t* const end = bytes.data() + bytes.size();
  while (p < end) {
    const std::uint8_t type = *p;
    if (type == static_cast<std::uint8_t>(ChunkType::kTerminator)) {
      return true;  // bytes after the terminator are dead space
    }
    if (type > static_cast<std::uint8_t>(ChunkType::kAck) ||
        static_cast<std::size_t>(end - p) < kChunkHeaderBytes) {
      out.clear();
      return false;
    }
    ChunkView v;
    load_chunk_header(p, v.h);
    if (v.h.size == 0 || v.h.len == 0) {
      out.clear();
      return false;
    }
    // LEN·SIZE in 64 bits before any size_t conversion, exactly like
    // decode_chunk_view's overflow guard.
    const std::uint64_t payload = static_cast<std::uint64_t>(v.h.size) *
                                  static_cast<std::uint64_t>(v.h.len);
    if (payload > static_cast<std::uint64_t>(end - p) - kChunkHeaderBytes) {
      out.clear();
      return false;
    }
    v.payload = std::span<const std::uint8_t>(
        p + kChunkHeaderBytes, static_cast<std::size_t>(payload));
    out.push_back(v);
    p += kChunkHeaderBytes + static_cast<std::size_t>(payload);
  }
  return true;  // exhausted exactly at a chunk boundary (kEnd)
}

ParsedPacket decode_packet(std::span<const std::uint8_t> bytes) {
  ParsedPacket result;
  std::vector<ChunkView> views;
  result.ok = decode_packet_views(bytes, views);
  result.chunks.reserve(views.size());
  for (const ChunkView& v : views) result.chunks.push_back(v.to_chunk());
  return result;
}

}  // namespace chunknet
