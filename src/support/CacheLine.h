//===- support/CacheLine.h - False-sharing avoidance ------------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cache-line sizing, a padded wrapper and whole-line heap arrays.
/// Registers that the paper keeps logically separate (FLAG[i] of distinct
/// processes, TURN, CONTENTION, the lock word) are placed on distinct
/// cache lines so that measured contention reflects the algorithm, not
/// accidental false sharing.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_SUPPORT_CACHELINE_H
#define CSOBJ_SUPPORT_CACHELINE_H

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>

namespace csobj {

/// Fixed at 64 bytes (x86-64 / common AArch64). A constant is preferred
/// over std::hardware_destructive_interference_size, whose value can vary
/// across compiler versions and tuning flags.
inline constexpr std::size_t CacheLineSize = 64;

/// Wraps \p T padded out to a full cache line. Access the payload through
/// value().
template <typename T>
struct alignas(CacheLineSize) CacheLinePadded {
  T Payload{};

  T &value() { return Payload; }
  const T &value() const { return Payload; }
};

/// True when \p T occupies whole cache lines exclusively: its alignment
/// keeps it off anyone else's line and its size keeps anyone else off its
/// lines, so adjacent array elements of T can never false-share. The
/// false-sharing regression tests static_assert this for every hot word
/// that sits in a shared array (FLAG entries, elimination slots, combiner
/// publication records).
template <typename T>
inline constexpr bool occupiesWholeCacheLines =
    alignof(T) >= CacheLineSize && sizeof(T) % CacheLineSize == 0;

static_assert(occupiesWholeCacheLines<CacheLinePadded<char>>,
              "CacheLinePadded must round its payload up to full lines");

/// Frees an array from allocateWholeLines().
struct WholeLinesDelete {
  template <typename T> void operator()(T *P) const {
    ::operator delete[](P, std::align_val_t{CacheLineSize});
  }
};

template <typename T>
using WholeLinesArray = std::unique_ptr<T[], WholeLinesDelete>;

/// Bytes that allocateWholeLines() takes for \p Count Ts.
template <typename T>
constexpr std::size_t wholeLinesBytes(std::size_t Count) {
  return (Count * sizeof(T) + CacheLineSize - 1) / CacheLineSize *
         CacheLineSize;
}

/// \p Count default-constructed Ts in storage that starts on a line
/// boundary and is rounded up to whole lines, so no other heap block
/// shares a line with the array. A plain new[] gives 16-byte alignment:
/// the block after it may start on the array's last line, and whether
/// it does depends on what the allocator reused.
template <typename T> WholeLinesArray<T> allocateWholeLines(std::size_t Count) {
  static_assert(std::is_trivially_destructible_v<T>,
                "WholeLinesDelete runs no destructors");
  T *P = static_cast<T *>(::operator new[](wholeLinesBytes<T>(Count),
                                           std::align_val_t{CacheLineSize}));
  for (std::size_t I = 0; I < Count; ++I)
    ::new (static_cast<void *>(P + I)) T;
  return WholeLinesArray<T>(P);
}

} // namespace csobj

#endif // CSOBJ_SUPPORT_CACHELINE_H
