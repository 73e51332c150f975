// std::vector storage that starts on a cache-line boundary. The
// Min-Hash kernel keeps 8 hash functions of a column in one 64-byte
// line and updates it with one vector min; a line that straddled two
// cache lines would double the memory traffic of every update.

#ifndef SANS_UTIL_ALIGNED_VECTOR_H_
#define SANS_UTIL_ALIGNED_VECTOR_H_

#include <cstddef>
#include <new>
#include <vector>

namespace sans {

inline constexpr size_t kCacheLineBytes = 64;

/// Allocator whose blocks are aligned to kCacheLineBytes.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const {
    return true;
  }
};

template <typename T>
using CacheAlignedVector = std::vector<T, CacheAlignedAllocator<T>>;

}  // namespace sans

#endif  // SANS_UTIL_ALIGNED_VECTOR_H_
