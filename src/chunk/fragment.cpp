#include "src/chunk/fragment.hpp"

#include <cassert>

#include "src/chunk/codec.hpp"

namespace chunknet {

std::pair<Chunk, Chunk> split_chunk(const Chunk& c, std::uint16_t head_len) {
  auto [a, b] = split_view(as_view(c), head_len);
  return {a.to_chunk(), b.to_chunk()};
}

std::pair<ChunkView, ChunkView> split_view(const ChunkView& v,
                                           std::uint16_t head_len) {
  assert(v.structurally_valid());
  assert(head_len > 0 && head_len < v.h.len);

  const std::size_t cut = static_cast<std::size_t>(head_len) * v.h.size;

  ChunkView a;
  a.h = v.h;  // TYPE, SIZE, all IDs, all SNs copied
  a.h.len = head_len;
  a.h.conn.st = false;  // "no ST bits are set in any other chunk"
  a.h.tpdu.st = false;
  a.h.xpdu.st = false;
  a.payload = v.payload.subspan(0, cut);

  ChunkView b;
  b.h = v.h;  // ST bits of the original land on the tail
  b.h.len = static_cast<std::uint16_t>(v.h.len - head_len);
  b.h.conn.sn = v.h.conn.sn + head_len;  // SNs advance in lock-step
  b.h.tpdu.sn = v.h.tpdu.sn + head_len;
  b.h.xpdu.sn = v.h.xpdu.sn + head_len;
  b.payload = v.payload.subspan(cut);

  return {a, b};
}

std::uint16_t elements_that_fit(const ChunkView& v, std::size_t budget_bytes) {
  if (budget_bytes <= kChunkHeaderBytes) return 0;
  const std::size_t room = budget_bytes - kChunkHeaderBytes;
  const std::size_t n = room / v.h.size;
  if (n == 0) return 0;
  return static_cast<std::uint16_t>(n < v.h.len ? n : v.h.len);
}

std::uint16_t elements_that_fit(const Chunk& c, std::size_t budget_bytes) {
  return elements_that_fit(as_view(c), budget_bytes);
}

std::vector<Chunk> split_to_fit(const Chunk& c, std::size_t max_wire_bytes) {
  std::vector<Chunk> out;
  for (const ChunkView& v : split_view_to_fit(as_view(c), max_wire_bytes)) {
    out.push_back(v.to_chunk());
  }
  return out;
}

std::vector<ChunkView> split_view_to_fit(const ChunkView& v,
                                         std::size_t max_wire_bytes) {
  if (v.wire_size() <= max_wire_bytes) return {v};
  const std::uint16_t per = elements_that_fit(v, max_wire_bytes);
  if (per == 0) return {};
  std::vector<ChunkView> out;
  ChunkView rest = v;
  while (rest.h.len > per) {
    auto [head, tail] = split_view(rest, per);
    out.push_back(head);
    rest = tail;
  }
  out.push_back(rest);
  return out;
}

}  // namespace chunknet
