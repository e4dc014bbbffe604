// PacketBytes — a 64-byte-aligned byte buffer for packet storage.
//
// The SIMD kernels (PCLMUL GF(2^32), sliced WSC-2) and the packet encoder
// read and write payload spans straight in packet buffers.
// `std::vector<std::uint8_t>` only promises `alignof(std::max_align_t)`
// (16 on glibc), so cache-line-aligned loads would be relying on
// allocator luck. PacketBytes is the packet-byte currency instead: its
// storage always starts on a 64-byte boundary (one cache line, and the
// widest vector register any of the kernels use).
//
// It deliberately keeps a `std::vector`-shaped API (resize zero-fills,
// capacity is retained by clear(), amortized push_back) and converts
// implicitly BOTH ways with `std::vector<std::uint8_t>` — by copy. That
// keeps the long tail of tests, examples, and relay helpers compiling
// unchanged; the hot paths (sender view encode, receiver view decode,
// PacketBufferPool recycling) are written against PacketBytes natively,
// so they move storage and never hit the converting copies.
//
// HugePageAllocator is the other end of the size range: the two
// stream-sized buffers (the sender's owned copy of the stream and the
// receiver's application buffer) are megabytes each and are built and
// freed once per transfer. Backed by plain 4 KiB pages, every transfer
// makes the kernel zero-fill and map each page on first touch — a
// hidden extra pass over memory the protocol never asked for. Blocks of
// at least kHugePageBytes are mapped 2 MiB-aligned, advised for
// transparent huge pages, and unmapped when freed; smaller blocks take
// plain `operator new`.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

namespace chunknet {

/// Every PacketBytes data() pointer is aligned to this many bytes.
inline constexpr std::size_t kPacketBytesAlignment = 64;

class PacketBytes {
 public:
  using value_type = std::uint8_t;
  using size_type = std::size_t;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  PacketBytes() = default;
  explicit PacketBytes(std::size_t n) { resize(n); }
  PacketBytes(std::size_t n, std::uint8_t value) { assign(n, value); }
  PacketBytes(std::initializer_list<std::uint8_t> il) {
    assign(il.begin(), il.end());
  }
  template <typename It>
    requires(!std::is_integral_v<It>)
  PacketBytes(It first, It last) {
    assign(first, last);
  }
  // Implicit by design: lets `std::vector` packet bytes flow into
  // PacketBytes slots (as a copy) without touching every call site.
  PacketBytes(const std::vector<std::uint8_t>& v) {  // NOLINT(runtime/explicit)
    assign(v.begin(), v.end());
  }

  PacketBytes(const PacketBytes& o) { assign(o.begin(), o.end()); }
  PacketBytes(PacketBytes&& o) noexcept
      : data_(o.data_), size_(o.size_), cap_(o.cap_) {
    o.data_ = nullptr;
    o.size_ = 0;
    o.cap_ = 0;
  }
  PacketBytes& operator=(const PacketBytes& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }
  PacketBytes& operator=(PacketBytes&& o) noexcept {
    if (this != &o) {
      deallocate();
      data_ = o.data_;
      size_ = o.size_;
      cap_ = o.cap_;
      o.data_ = nullptr;
      o.size_ = 0;
      o.cap_ = 0;
    }
    return *this;
  }
  PacketBytes& operator=(const std::vector<std::uint8_t>& v) {
    assign(v.begin(), v.end());
    return *this;
  }
  PacketBytes& operator=(std::initializer_list<std::uint8_t> il) {
    assign(il.begin(), il.end());
    return *this;
  }
  ~PacketBytes() { deallocate(); }

  /// The reverse implicit conversion (also a copy) — keeps callables and
  /// comparisons written against `std::vector` packet bytes working.
  operator std::vector<std::uint8_t>() const {  // NOLINT(runtime/explicit)
    return std::vector<std::uint8_t>(begin(), end());
  }

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }
  const_iterator cbegin() const { return data_; }
  const_iterator cend() const { return data_ + size_; }

  std::uint8_t& operator[](std::size_t i) { return data_[i]; }
  const std::uint8_t& operator[](std::size_t i) const { return data_[i]; }
  std::uint8_t& front() { return data_[0]; }
  const std::uint8_t& front() const { return data_[0]; }
  std::uint8_t& back() { return data_[size_ - 1]; }
  const std::uint8_t& back() const { return data_[size_ - 1]; }

  void clear() { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > cap_) regrow(n);
  }

  void resize(std::size_t n) { resize(n, 0); }
  void resize(std::size_t n, std::uint8_t fill) {
    if (n > cap_) regrow(grow_target(n));
    if (n > size_) std::memset(data_ + size_, fill, n - size_);
    size_ = n;
  }

  /// resize() without the zero-fill, for buffers about to be fully
  /// overwritten (batched packet encode). The bytes are indeterminate.
  void resize_uninitialized(std::size_t n) {
    if (n > cap_) regrow(grow_target(n));
    size_ = n;
  }

  void push_back(std::uint8_t v) {
    if (size_ == cap_) regrow(grow_target(size_ + 1));
    data_[size_++] = v;
  }

  void append(const std::uint8_t* p, std::size_t n) {
    if (size_ + n > cap_) regrow(grow_target(size_ + n));
    if (n > 0) std::memcpy(data_ + size_, p, n);
    size_ += n;
  }

  void assign(std::size_t n, std::uint8_t value) {
    size_ = 0;
    resize(n, value);
  }
  template <typename It>
    requires(!std::is_integral_v<It>)
  void assign(It first, It last) {
    size_ = 0;
    // Contiguous byte ranges (vector/span/PacketBytes iterators) are
    // the common case and must memcpy, not loop — this assign sits on
    // the per-packet receive path.
    if constexpr (std::contiguous_iterator<It>) {
      append(reinterpret_cast<const std::uint8_t*>(std::to_address(first)),
             static_cast<std::size_t>(last - first));
    } else {
      for (; first != last; ++first) push_back(*first);
    }
  }
  void assign(const std::uint8_t* first, const std::uint8_t* last) {
    size_ = 0;
    append(first, static_cast<std::size_t>(last - first));
  }

  std::span<const std::uint8_t> span() const { return {data_, size_}; }

  friend bool operator==(const PacketBytes& a, const PacketBytes& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }
  friend bool operator==(const PacketBytes& a,
                         const std::vector<std::uint8_t>& b) {
    return a.size_ == b.size() &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data(), a.size_) == 0);
  }
  friend bool operator==(const std::vector<std::uint8_t>& a,
                         const PacketBytes& b) {
    return b == a;
  }

 private:
  std::size_t grow_target(std::size_t need) const {
    return std::max({need, cap_ * 2, kPacketBytesAlignment});
  }

  void regrow(std::size_t new_cap) {
    auto* p = static_cast<std::uint8_t*>(
        ::operator new(new_cap, std::align_val_t{kPacketBytesAlignment}));
    assert(reinterpret_cast<std::uintptr_t>(p) % kPacketBytesAlignment == 0);
    if (size_ > 0) std::memcpy(p, data_, size_);
    deallocate();
    data_ = p;
    cap_ = new_cap;
  }

  void deallocate() {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t{kPacketBytesAlignment});
      data_ = nullptr;
    }
  }

  std::uint8_t* data_{nullptr};
  std::size_t size_{0};
  std::size_t cap_{0};
};

/// The huge-page size of x86-64 and of aarch64 with 4 KiB base pages.
/// Blocks this large or larger are huge-page blocks.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Bytes a block of `n` bytes occupies: `n` below kHugePageBytes, else
/// `n` rounded up to a multiple of kHugePageBytes.
constexpr std::size_t huge_block_length(std::size_t n) {
  return n < kHugePageBytes
             ? n
             : (n + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
}

/// A block of at least `n` bytes. From kHugePageBytes up: a fresh
/// (zero-filled) anonymous mapping of huge_block_length(n) bytes,
/// kHugePageBytes-aligned and advised MADV_HUGEPAGE (a refusal is
/// ignored: the block then stays on base pages). Below: `operator
/// new(n)`. Throws std::bad_alloc when the memory is not there.
void* allocate_huge_block(std::size_t n);

/// Frees a block from allocate_huge_block(n), with the same `n`. A
/// huge-page block goes straight back to the OS.
void deallocate_huge_block(void* p, std::size_t n) noexcept;

/// std-style allocator over allocate_huge_block, for stream-sized
/// containers (see StreamBytes).
template <typename T>
struct HugePageAllocator {
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_alloc();
    return static_cast<T*>(allocate_huge_block(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    deallocate_huge_block(p, n * sizeof(T));
  }

  template <typename U>
  friend bool operator==(const HugePageAllocator&,
                         const HugePageAllocator<U>&) {
    return true;
  }
};

/// A byte buffer sized to a whole stream (megabytes): huge-page backed
/// from kHugePageBytes up, an ordinary heap block below.
using StreamBytes = std::vector<std::uint8_t, HugePageAllocator<std::uint8_t>>;

/// True when `p` sits on a PacketBytes-grade boundary. The pool and the
/// alignment test assert this on every allocation.
inline bool is_packet_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kPacketBytesAlignment == 0;
}

}  // namespace chunknet
