#include "src/chunk/builder.hpp"

#include <cassert>

#include "src/common/bytes.hpp"

namespace chunknet {

std::vector<ChunkView> frame_stream_views(std::span<const std::uint8_t> stream,
                                         const FramerOptions& opts) {
  assert(opts.element_size > 0);
  assert(stream.size() % opts.element_size == 0);
  assert(opts.tpdu_elements > 0);

  const std::uint32_t total =
      static_cast<std::uint32_t>(stream.size() / opts.element_size);
  std::vector<ChunkView> out;
  if (total == 0) return out;

  // Element-indexed framing state.
  std::uint32_t conn_sn = opts.first_conn_sn;
  std::uint32_t tpdu_id = opts.first_tpdu_id;
  std::uint32_t tpdu_sn = 0;
  std::uint32_t xpdu_id = opts.first_xpdu_id;
  std::uint32_t xpdu_sn = 0;
  std::size_t xpdu_boundary_idx = 0;

  auto xpdu_len = [&]() -> std::uint32_t {
    if (opts.xpdu_boundaries.empty()) return opts.xpdu_elements;
    return opts.xpdu_boundaries[xpdu_boundary_idx %
                                opts.xpdu_boundaries.size()];
  };

  if (opts.implicit_ids) {
    // Figure 7: choose IDs so that id == C.SN − PDU.SN. The difference
    // is then constant across the PDU and can replace the explicit ID.
    tpdu_id = conn_sn - tpdu_sn;
    xpdu_id = conn_sn - xpdu_sn;
  }

  std::uint32_t element = 0;
  while (element < total) {
    // Length of the current run: up to the nearest framing boundary.
    const std::uint32_t tpdu_left = opts.tpdu_elements - tpdu_sn;
    const std::uint32_t xpdu_left = xpdu_len() - xpdu_sn;
    std::uint32_t run = tpdu_left < xpdu_left ? tpdu_left : xpdu_left;
    if (run > total - element) run = total - element;
    if (opts.max_chunk_elements > 0 && run > opts.max_chunk_elements) {
      run = opts.max_chunk_elements;
    }
    if (run > 0xFFFFu) run = 0xFFFFu;  // LEN is a 16-bit field

    ChunkView c;
    c.h.type = ChunkType::kData;
    c.h.size = opts.element_size;
    c.h.len = static_cast<std::uint16_t>(run);
    c.h.conn = {opts.connection_id, conn_sn, false};
    c.h.tpdu = {tpdu_id, tpdu_sn, false};
    c.h.xpdu = {xpdu_id, xpdu_sn, false};
    const std::size_t off = static_cast<std::size_t>(element) * opts.element_size;
    const std::size_t bytes = static_cast<std::size_t>(run) * opts.element_size;
    c.payload = stream.subspan(off, bytes);

    element += run;
    conn_sn += run;
    tpdu_sn += run;
    xpdu_sn += run;

    // Stop bits land on the chunk containing the final element of the
    // respective PDU (and only that chunk).
    if (xpdu_sn == xpdu_len()) {
      c.h.xpdu.st = true;
      xpdu_sn = 0;
      ++xpdu_boundary_idx;
      xpdu_id = opts.implicit_ids ? conn_sn : xpdu_id + 1;
    }
    if (tpdu_sn == opts.tpdu_elements) {
      c.h.tpdu.st = true;
      tpdu_sn = 0;
      tpdu_id = opts.implicit_ids ? conn_sn : tpdu_id + 1;
    }
    if (element == total) {
      if (opts.final_element_ends_connection) c.h.conn.st = true;
      // A stream that ends mid-PDU still terminates those PDUs: the
      // sender closes open framing at end of stream.
      c.h.tpdu.st = true;
      c.h.xpdu.st = true;
    }
    out.push_back(c);
  }
  return out;
}

std::vector<Chunk> frame_stream(std::span<const std::uint8_t> stream,
                                const FramerOptions& opts) {
  const std::vector<ChunkView> views = frame_stream_views(stream, opts);
  std::vector<Chunk> out;
  out.reserve(views.size());
  for (const ChunkView& v : views) out.push_back(v.to_chunk());
  return out;
}

Chunk make_ed_chunk(std::uint32_t connection_id, std::uint32_t tpdu_id,
                    std::uint32_t conn_sn_of_tpdu, const Wsc2Code& code) {
  Chunk c;
  c.h.type = ChunkType::kErrorDetection;
  c.h.size = 8;
  c.h.len = 1;
  c.h.conn = {connection_id, conn_sn_of_tpdu, false};
  c.h.tpdu = {tpdu_id, 0, false};
  c.h.xpdu = {0, 0, false};
  c.payload.reserve(8);
  ByteWriter w(c.payload);
  w.u32(code.p0);
  w.u32(code.p1);
  return c;
}

Wsc2Code parse_ed_chunk(std::span<const std::uint8_t> payload) {
  Wsc2Code code;
  if (payload.size() != 8) return code;
  ByteReader r(payload);
  code.p0 = r.u32();
  code.p1 = r.u32();
  return code;
}

Chunk make_ack_chunk(std::uint32_t connection_id, std::uint32_t tpdu_id,
                     bool positive) {
  Chunk c;
  c.h.type = ChunkType::kAck;
  c.h.size = 5;
  c.h.len = 1;
  c.h.conn = {connection_id, 0, false};
  c.h.tpdu = {tpdu_id, 0, false};
  c.payload.reserve(5);
  ByteWriter w(c.payload);
  w.u32(tpdu_id);
  w.u8(positive ? 1 : 0);
  return c;
}

AckInfo parse_ack_chunk(const ChunkView& ack) {
  AckInfo info;
  if (ack.payload.size() != 5) return info;
  ByteReader r(ack.payload);
  info.tpdu_id = r.u32();
  info.positive = r.u8() != 0;
  return info;
}

}  // namespace chunknet
