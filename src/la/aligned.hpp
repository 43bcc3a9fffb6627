// Cache-line-aligned storage for the buffers that the multiversioned
// kernels (la/kernel_clones.hpp) stream at full vector width: the LDLᵀ lane
// buffers of sparse/splu.cpp, the row-layout bases and block rows of
// mor/compressor.cpp and mor/state_space.cpp, and the Jacobi rows of
// la::svd_right.
//
// glibc's malloc aligns to 16 bytes only, and a block above its mmap
// threshold (128 KiB by default) starts 16 bytes into its first page, past
// the chunk header. A buffer there sits at 16 mod 64, so every 64-byte
// AVX-512 load and store of it spans two cache lines. AlignedVector starts
// its storage on a cache line instead. Alignment moves no bit: the kernels
// assign entries to lanes by index, never by address.
//
// la::Matrix and the GEMM's packed panels keep std::allocator: aligning
// them bought no time (docs/PERFORMANCE.md, "Aligned kernel storage").
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace pmtbr::la {

inline constexpr std::size_t kCacheLineBytes = 64;

/// std::allocator with every block starting on a cache line.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() noexcept = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(std::size_t count) {
    if (count > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_array_new_length();
    return static_cast<T*>(::operator new(count * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t count) noexcept {
    ::operator delete(p, count * sizeof(T), std::align_val_t{kCacheLineBytes});
  }

  template <typename U>
  bool operator==(const CacheLineAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using AlignedVector = std::vector<T, CacheLineAllocator<T>>;

/// Whether `p` starts a cache line.
inline bool is_cache_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kCacheLineBytes == 0;
}

}  // namespace pmtbr::la
