#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace adsd {

/// Minimal cache-line/SIMD-aligned allocator for the solver's plane
/// buffers. 64-byte alignment covers AVX-512 loads and keeps each plane on
/// its own cache lines, so the vectorized inner loops of the bSB engine
/// never straddle a line on entry.
template <class T, std::size_t Alignment = 64>
struct AlignedAllocator {
  using value_type = T;

  static_assert((Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two");
  static_assert(Alignment >= alignof(T), "alignment below natural alignment");

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  template <class U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const noexcept {
    return true;
  }
  template <class U>
  bool operator!=(const AlignedAllocator<U, Alignment>&) const noexcept {
    return false;
  }
};

/// std::vector with 64-byte-aligned storage.
template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace adsd
