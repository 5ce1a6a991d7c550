// Counting replacement of the global allocator, for the binaries that
// measure heap use: it counts the operator new calls made and the
// malloc_usable_size bytes handed out and not yet freed.
//
// It defines the replaceable global operator new and delete, which then
// apply to the whole program.  Include it in exactly one translation unit
// of a binary of its own, so that no other suite runs on it.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

#include <malloc.h>  // malloc_usable_size

/// operator new calls so far.
inline std::uint64_t g_allocations = 0;
/// Usable bytes of every block operator new handed out and not yet freed.
inline std::uint64_t g_live_heap_bytes = 0;

namespace coolstream::counting_allocator {

inline void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  ++g_allocations;
  g_live_heap_bytes += malloc_usable_size(p);
  return p;
}

inline void* counted_alloc(std::size_t size) {
  return counted(std::malloc(size));
}

inline void* counted_alloc(std::size_t size, std::align_val_t align) {
  return counted(std::aligned_alloc(
      static_cast<std::size_t>(align),
      (size + static_cast<std::size_t>(align) - 1) &
          ~(static_cast<std::size_t>(align) - 1)));
}

inline void counted_free(void* p) noexcept {
  g_live_heap_bytes -= malloc_usable_size(p);  // 0 for nullptr
  std::free(p);
}

}  // namespace coolstream::counting_allocator

void* operator new(std::size_t size) {
  return coolstream::counting_allocator::counted_alloc(size);
}
void* operator new[](std::size_t size) {
  return coolstream::counting_allocator::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return coolstream::counting_allocator::counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return coolstream::counting_allocator::counted_alloc(size, align);
}
void operator delete(void* p) noexcept {
  coolstream::counting_allocator::counted_free(p);
}
void operator delete[](void* p) noexcept {
  coolstream::counting_allocator::counted_free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  coolstream::counting_allocator::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  coolstream::counting_allocator::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  coolstream::counting_allocator::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  coolstream::counting_allocator::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  coolstream::counting_allocator::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  coolstream::counting_allocator::counted_free(p);
}
