//===- core/ContentionSensitiveDeque.h - Figure 3 on the deque --*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 3 instantiated over the HLM obstruction-free deque (the
/// paper's reference [8]). This closes the loop the paper opens when it
/// ranks progress conditions in Section 1.2: HLM is the canonical
/// *obstruction-free-only* object (two symmetric operations can abort
/// each other forever under an adversarial scheduler), and the paper's
/// generic construction lifts exactly such objects to
/// starvation-freedom. A contention-free strong operation on an end is
/// lock-free and costs the weak attempt plus one read of CONTENTION.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_CONTENTIONSENSITIVEDEQUE_H
#define CSOBJ_CORE_CONTENTIONSENSITIVEDEQUE_H

#include "core/ContentionSensitive.h"
#include "core/ObstructionFreeDeque.h"
#include "locks/TasLock.h"

#include <cstddef>
#include <cstdint>
#include <utility>

namespace csobj {

/// Starvation-free contention-sensitive double-ended queue. \p SkeletonT
/// defaults to the paper's Figure 3 skeleton; the flat-combining
/// (perf/CombiningObjects.h) and crash-tolerant (CrashTolerantDeque in
/// core/CrashTolerant.h) skeletons plug in the same way.
template <typename Lock = TasLock,
          typename SkeletonT = ContentionSensitive<Lock>>
class ContentionSensitiveDeque {
public:
  using Value = ObstructionFreeDeque::Value;
  using Skeleton = SkeletonT;

  /// \p NumThreads is the paper's n; \p Capacity and \p InitialLeftSlots
  /// as in ObstructionFreeDeque. Any trailing arguments go to the
  /// skeleton's constructor.
  template <typename... SkeletonArgs>
  ContentionSensitiveDeque(std::uint32_t NumThreads, std::uint32_t Capacity,
                           std::uint32_t InitialLeftSlots = ~std::uint32_t{0},
                           SkeletonArgs &&...Args)
      : Weak(Capacity, InitialLeftSlots),
        Strong(NumThreads, std::forward<SkeletonArgs>(Args)...) {}

  PushResult pushLeft(std::uint32_t Tid, Value V) {
    return Strong.strongApply(
        Tid, bottomIfAbort([this, V] { return Weak.tryPushLeft(V); }));
  }
  PushResult pushRight(std::uint32_t Tid, Value V) {
    return Strong.strongApply(
        Tid, bottomIfAbort([this, V] { return Weak.tryPushRight(V); }));
  }
  PopResult<Value> popLeft(std::uint32_t Tid) {
    return Strong.strongApply(
        Tid, bottomIfAbort([this] { return Weak.tryPopLeft(); }));
  }
  PopResult<Value> popRight(std::uint32_t Tid) {
    return Strong.strongApply(
        Tid, bottomIfAbort([this] { return Weak.tryPopRight(); }));
  }

  /// Group push on the right end: pushes Vs[0..Count) in index order as
  /// one batch, stopping at the first Full answer (the deque receives a
  /// prefix of Vs). Returns the number pushed.
  std::size_t push_all(std::uint32_t Tid, const Value *Vs,
                       std::size_t Count) {
    return strongPushAll(Strong, Tid, Count, [this, Vs](std::size_t I) {
      return Weak.tryPushRight(Vs[I]);
    });
  }

  /// Group pop from the right end (LIFO relative to push_all): pops up
  /// to \p MaxCount values into Out[0..], stopping at the first Empty
  /// answer. Returns the number popped.
  std::size_t pop_all(std::uint32_t Tid, Value *Out, std::size_t MaxCount) {
    return strongPopAll(Strong, Tid, Out, MaxCount,
                        [this] { return Weak.tryPopRight(); });
  }

  /// Drains the right end: pop_all bounded by the caller's buffer.
  std::size_t drain(std::uint32_t Tid, Value *Out, std::size_t MaxOut) {
    return pop_all(Tid, Out, MaxOut);
  }

  std::uint32_t capacity() const { return Weak.capacity(); }
  std::uint32_t numThreads() const { return Strong.numThreads(); }
  std::uint32_t sizeForTesting() const { return Weak.sizeForTesting(); }

  /// The underlying HLM object (test/debug aid).
  ObstructionFreeDeque &abortable() { return Weak; }

  /// The strong-operation skeleton (test/debug/stats aid).
  SkeletonT &skeleton() { return Strong; }
  const SkeletonT &skeleton() const { return Strong; }

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
  ObstructionFreeDeque Weak;
  SkeletonT Strong;
};

} // namespace csobj

#endif // CSOBJ_CORE_CONTENTIONSENSITIVEDEQUE_H
