#include "src/common/aligned.hpp"

#include <sys/mman.h>

#include <cstdint>
#include <new>

namespace chunknet {

void* allocate_huge_block(std::size_t n) {
  if (n < kHugePageBytes) return ::operator new(n);
  const std::size_t len = huge_block_length(n);
  // mmap only promises page alignment: map one huge page more than
  // needed, then unmap the slack on either side of the aligned block.
  void* raw = ::mmap(nullptr, len + kHugePageBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  auto* const base = static_cast<std::uint8_t*>(raw);
  const std::size_t head =
      (kHugePageBytes - reinterpret_cast<std::uintptr_t>(base) % kHugePageBytes) %
      kHugePageBytes;
  if (head > 0) ::munmap(base, head);
  ::munmap(base + head + len, kHugePageBytes - head);
  std::uint8_t* const block = base + head;
  (void)::madvise(block, len, MADV_HUGEPAGE);  // advice only
  return block;
}

void deallocate_huge_block(void* p, std::size_t n) noexcept {
  if (n < kHugePageBytes) {
    ::operator delete(p, n);
  } else {
    ::munmap(p, huge_block_length(n));
  }
}

}  // namespace chunknet
