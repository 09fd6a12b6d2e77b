//===- core/ContentionSensitiveCounter.h - Figure 3 genericity --*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A second, minimal instantiation of the Figure 3 skeleton demonstrating
/// that the construction is independent of the object: an abortable
/// fetch-and-add counter (read + C&S; abort when the C&S loses) wrapped
/// into a starvation-free strong counter. A contention-free strong add
/// performs three shared-memory accesses (read CONTENTION, read the
/// counter, C&S the counter).
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_CONTENTIONSENSITIVECOUNTER_H
#define CSOBJ_CORE_CONTENTIONSENSITIVECOUNTER_H

#include "core/ContentionSensitive.h"
#include "memory/AtomicRegister.h"

#include <cstddef>
#include <cstdint>
#include <optional>

namespace csobj {

/// Abortable counter: one read + one C&S per attempt.
class AbortableCounter {
public:
  /// Heap owned by the counter: none (one inline register).
  std::size_t heapBytes() const { return 0; }

  /// Adds \p Delta; returns the new value, or nullopt (bottom) when a
  /// concurrent update won the C&S.
  std::optional<std::uint64_t> weakAdd(std::uint64_t Delta) {
    const std::uint64_t Seen = Register.read();
    if (Register.compareAndSwap(Seen, Seen + Delta))
      return Seen + Delta;
    return std::nullopt;
  }

  std::uint64_t valueForTesting() const {
    return Register.peekForTesting();
  }

private:
  AtomicRegister<std::uint64_t> Register{0};
};

/// Starvation-free strong counter via the Figure 3 skeleton. \p SkeletonT
/// defaults to Figure 3; the flat-combining skeleton plugs in the same
/// way (perf/CombiningSlowPath.h).
template <typename Lock = TasLock,
          typename SkeletonT = ContentionSensitive<Lock>>
class ContentionSensitiveCounter {
public:
  explicit ContentionSensitiveCounter(std::uint32_t NumThreads)
      : Strong(NumThreads) {}

  /// Adds \p Delta and returns the new value. Never fails, always
  /// terminates.
  std::uint64_t add(std::uint32_t Tid, std::uint64_t Delta) {
    return Strong.strongApply(
        Tid, [this, Delta] { return Weak.weakAdd(Delta); });
  }

  /// Group add: applies Deltas[0..Count) in index order as one batch
  /// (one seam acquisition for the contended remainder). Adds never
  /// report Full/Empty so the whole batch always applies; the running
  /// post-add values land in NewValues[0..Count) when non-null. Returns
  /// Count.
  std::size_t add_all(std::uint32_t Tid, const std::uint64_t *Deltas,
                      std::size_t Count,
                      std::uint64_t *NewValues = nullptr) {
    BatchScratch<std::uint64_t> Scratch(NewValues ? 0 : Count);
    return Strong.strongApplyBatch(
        Tid, Count,
        [this, Deltas](std::size_t I) { return Weak.weakAdd(Deltas[I]); },
        [](std::uint64_t) { return false; },
        NewValues ? NewValues : Scratch.data());
  }

  std::uint64_t valueForTesting() const { return Weak.valueForTesting(); }

  AbortableCounter &abortable() { return Weak; }

  /// Path-attributed metrics of the skeleton (obs/PathCounters.h).
  obs::PathSnapshot pathSnapshot() const { return Strong.pathSnapshot(); }

  /// Resident bytes of the whole object (footprintBytesOf).
  std::size_t footprintBytes() const {
    return footprintBytesOf(*this, Weak, Strong);
  }

  obs::Path lastPath(std::uint32_t Tid) const {
    return Strong.metrics().lastPath(Tid);
  }

private:
  AbortableCounter Weak;
  SkeletonT Strong;
};

} // namespace csobj

#endif // CSOBJ_CORE_CONTENTIONSENSITIVECOUNTER_H
