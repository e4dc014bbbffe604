// A freelist of receive/send buffers, so the steady-state packet loop
// allocates nothing.
//
// The zero-copy receive path (docs/PERFORMANCE.md) parses packets into
// ChunkViews that point INTO the packet buffer; the buffer must stay
// alive and unmodified while any view of it is in use. This pool makes
// that lifetime explicit and cheap to manage: a buffer is acquired,
// filled, carried through the stack, and released back to the freelist
// when the last view of it is done — after warm-up, every acquire is a
// freelist pop (zero heap traffic) and the stats prove it.
//
// Two usage styles:
//  - RAII: `PooledBuffer b = pool.acquire();` — the destructor returns
//    the storage automatically;
//  - detached: `b.take()` moves the raw vector out (e.g. into a
//    SimPacket); whoever ends up owning it calls `pool.release()` to
//    close the recycle loop.
//
// The freelist is BOUNDED: `max_free_buffers` caps what a burst can
// leave behind (excess releases free their storage immediately), and
// `trim_tick()` implements a periodic decay — half of the buffers that
// sat idle through the whole interval are freed, so the pool tracks
// the working set instead of sticking at its high-water mark forever.
// Retained (freelist) bytes can be charged to a ResourceGovernor and
// are exported through the `pool.retained_bytes` gauge; the governor
// may also reclaim pool memory via a shed hook that drops half the
// freelist.
//
// Buffers are `PacketBytes` (src/common/aligned.hpp): every allocation
// the pool hands out starts on a 64-byte boundary, so the SIMD kernels
// and the transmit encoder can assume cache-line-aligned packet
// storage instead of allocator luck. acquire() asserts the alignment.
//
// Thread-safe (one mutex; the pool is not on the per-word hot path —
// it is touched once per packet).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/common/aligned.hpp"
#include "src/common/resource_governor.hpp"
#include "src/obs/obs.hpp"

namespace chunknet {

class PacketBufferPool;

/// RAII handle to one pooled buffer. Movable, not copyable; returns
/// the storage to the pool on destruction unless `take()`n.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(PacketBufferPool* pool, PacketBytes storage)
      : pool_(pool), storage_(std::move(storage)) {}
  PooledBuffer(PooledBuffer&& o) noexcept
      : pool_(o.pool_), storage_(std::move(o.storage_)) {
    o.pool_ = nullptr;
  }
  PooledBuffer& operator=(PooledBuffer&& o) noexcept {
    if (this != &o) {
      reset();
      pool_ = o.pool_;
      storage_ = std::move(o.storage_);
      o.pool_ = nullptr;
    }
    return *this;
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;
  ~PooledBuffer() { reset(); }

  PacketBytes& bytes() { return storage_; }
  const PacketBytes& bytes() const { return storage_; }

  /// Detaches the storage (handle becomes empty; nothing returns to the
  /// pool until someone hands the buffer back via release()).
  PacketBytes take() {
    pool_ = nullptr;
    return std::move(storage_);
  }

  /// Returns the storage to the pool now (no-op if empty/taken).
  void reset();

 private:
  PacketBufferPool* pool_{nullptr};
  PacketBytes storage_;
};

class PacketBufferPool {
 public:
  /// `buffer_capacity` is the reserve given to freshly allocated
  /// buffers (default: one jumbo frame). `max_free_buffers` bounds the
  /// freelist: a release that would exceed it frees the storage instead
  /// of retaining it (0 = unbounded, the pre-governor behaviour).
  explicit PacketBufferPool(std::size_t buffer_capacity = 9000,
                            std::size_t max_free_buffers = 0)
      : buffer_capacity_(buffer_capacity), max_free_(max_free_buffers) {}

  /// Charges retained freelist bytes to `governor` under `client` (class
  /// kPool) and registers a shed hook that drops half the freelist.
  /// Call before traffic starts; `governor` must outlive the pool.
  void attach_governor(ResourceGovernor* governor, std::uint32_t client = 0);

  /// Resolves the `pool.retained_bytes` gauge / `pool.trimmed_buffers`
  /// counter (null-tolerant, like every other obs site).
  void attach_obs(ObsContext* obs);

  /// Pops a free buffer (cleared, capacity retained) or allocates one.
  /// The storage is always 64-byte aligned (asserted).
  PooledBuffer acquire();

  /// Hands a buffer's storage back to the freelist. The recycle half of
  /// `take()`; also used directly to recycle SimPacket::bytes.
  void release(PacketBytes storage);

  /// Frees freelist storage down to `keep` buffers. Returns bytes freed.
  std::uint64_t trim(std::size_t keep);

  /// Periodic decay: frees half of the buffers that stayed idle through
  /// the whole interval since the previous tick (the freelist's minimum
  /// depth over the interval). Returns bytes freed.
  std::uint64_t trim_tick();

  std::size_t free_buffers() const;
  /// Bytes parked in the freelist right now.
  std::uint64_t retained_bytes() const;

  struct Stats {
    std::uint64_t allocations{0};  ///< acquires that hit the heap
    std::uint64_t reuses{0};       ///< acquires served from the freelist
    std::uint64_t releases{0};
    std::uint64_t trimmed{0};      ///< buffers freed by cap/trim/shed
  };
  Stats stats() const;

 private:
  /// Pops up to `n` buffers' storage for freeing; returns bytes dropped.
  std::uint64_t drop_locked(std::size_t n);

  std::size_t buffer_capacity_;
  std::size_t max_free_;
  mutable std::mutex mu_;
  std::vector<PacketBytes> free_;
  std::uint64_t retained_{0};
  std::size_t min_free_since_tick_{0};
  Stats stats_;
  ResourceGovernor* governor_{nullptr};
  std::uint32_t governor_client_{0};
  Gauge* g_retained_{nullptr};
  Counter* c_trimmed_{nullptr};
};

inline void PooledBuffer::reset() {
  if (pool_ != nullptr) {
    pool_->release(std::move(storage_));
    pool_ = nullptr;
  }
  storage_.clear();
}

}  // namespace chunknet
