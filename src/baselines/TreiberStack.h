//===- baselines/TreiberStack.h - Classic lock-free stack -------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Treiber's linked lock-free stack (IBM RC 5118, 1986), the canonical
/// CAS-retry stack and the natural baseline for the paper's array-based
/// family. Nodes come from a preallocated IndexPool so the structure is
/// allocation-free, and the head carries an ABA tag exactly as Section 2.2
/// prescribes.
///
/// The stack is bounded and total like the paper's. Full is decided from
/// the depth kept in the head word, so it linearizes at the head read,
/// and not from the pool: nodes in transit (acquired but not yet linked,
/// or unlinked but not yet released) make "pool empty" differ from
/// "stack full". Each thread owns at most one node in transit, so a pool
/// with NumThreads nodes of headroom beyond Capacity is never empty when
/// a push that saw depth < Capacity acquires.
///
/// The retry loops make the structure *lock-free* (some operation always
/// completes) but not starvation-free, and unlike Figure 1 an individual
/// attempt is never surfaced as aborted — contrast objects for
/// experiments E2-E5.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_BASELINES_TREIBERSTACK_H
#define CSOBJ_BASELINES_TREIBERSTACK_H

#include "core/Results.h"
#include "memory/AtomicRegister.h"
#include "memory/IndexPool.h"
#include "support/BitPack.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>

namespace csobj {

/// Bounded Treiber stack over a preallocated node pool.
///
/// \tparam Policy register policy (Instrumented / Fast).
template <typename Policy = DefaultRegisterPolicy>
class TreiberStackT {
public:
  using Value = std::uint32_t;
  using RegisterPolicy = Policy;

  /// \p NumThreads bounds the threads operating concurrently (the
  /// pool's headroom); \p Capacity is the element bound. Throws
  /// std::invalid_argument when the nodes do not fit the head's link
  /// field.
  TreiberStackT(std::uint32_t NumThreads, std::uint32_t Capacity)
      : K(checkedCapacity(NumThreads, Capacity)),
        Pool(Capacity + NumThreads), Nodes(new Node[Capacity + NumThreads]) {}

  /// Pushes \p V; Full when the stack holds Capacity values.
  PushResult push(Value V) {
    std::optional<std::uint32_t> Idx;
    while (true) {
      const std::uint64_t Observed = Head.read();
      if (depthOf(Observed) == K) {
        if (Idx)
          Pool.release(*Idx);
        return PushResult::Full;
      }
      if (!Idx)
        Idx = acquireNode(V);
      Nodes[*Idx].Next.write(linkOf(Observed));
      if (Head.compareAndSwap(Observed, pushed(Observed, *Idx)))
        return PushResult::Done;
    }
  }

  /// Pops the top value; Empty when the stack is empty.
  PopResult<Value> pop() {
    while (true) {
      const PopResult<Value> Res = tryPopOnce();
      if (!Res.isAbort())
        return Res;
    }
  }

  /// Single head-CAS push attempt: Done, Full, or Abort when the CAS
  /// lost a race. This makes the Treiber stack an *abortable* object in
  /// the paper's sense, so it can be wrapped by the Figure 3 construction
  /// (ablation E8) and by the elimination layer.
  PushResult tryPushOnce(Value V) {
    const std::uint64_t Observed = Head.read();
    if (depthOf(Observed) == K)
      return PushResult::Full;
    const std::uint32_t Idx = acquireNode(V);
    Nodes[Idx].Next.write(linkOf(Observed));
    if (Head.compareAndSwap(Observed, pushed(Observed, Idx)))
      return PushResult::Done;
    Pool.release(Idx);
    return PushResult::Abort;
  }

  /// Single head-CAS pop attempt: value, Empty, or Abort on a lost race.
  PopResult<Value> tryPopOnce() {
    const std::uint64_t Observed = Head.read();
    const std::uint32_t Link = linkOf(Observed);
    if (Link == 0)
      return PopResult<Value>::empty();
    const std::uint32_t Idx = Link - 1;
    const std::uint32_t NextLink = Nodes[Idx].Next.read();
    const Value V = Nodes[Idx].Payload.read();
    if (Head.compareAndSwap(Observed, popped(Observed, NextLink))) {
      Pool.release(Idx);
      return PopResult<Value>::value(V);
    }
    return PopResult<Value>::abort();
  }

  std::uint32_t capacity() const { return K; }

  /// Quiescent-only element count (test/debug aid).
  std::uint32_t sizeForTesting() const {
    std::uint32_t Count = 0;
    std::uint32_t Link = linkOf(Head.peekForTesting());
    while (Link != 0) {
      ++Count;
      Link = Nodes[Link - 1].Next.peekForTesting();
    }
    return Count;
  }

private:
  /// Head word: <link:20, depth:20, tag:24>; link = index+1, 0 = empty.
  using HeadCodec = PackedTriple<std::uint64_t, 20, 20, 24>;

  static std::uint32_t linkOf(std::uint64_t Word) {
    return static_cast<std::uint32_t>(HeadCodec::a(Word));
  }
  static std::uint32_t depthOf(std::uint64_t Word) {
    return static_cast<std::uint32_t>(HeadCodec::b(Word));
  }
  static std::uint64_t nextTag(std::uint64_t Word) {
    return (HeadCodec::c(Word) + 1) & HeadCodec::FieldC::maxValue();
  }
  /// The head after linking node \p Idx on top of \p Word.
  static std::uint64_t pushed(std::uint64_t Word, std::uint32_t Idx) {
    return HeadCodec::pack(Idx + 1, depthOf(Word) + 1, nextTag(Word));
  }
  /// The head after unlinking the top of \p Word, exposing \p NextLink.
  static std::uint64_t popped(std::uint64_t Word, std::uint32_t NextLink) {
    return HeadCodec::pack(NextLink, depthOf(Word) - 1, nextTag(Word));
  }

  static std::uint32_t checkedCapacity(std::uint32_t NumThreads,
                                       std::uint32_t Capacity) {
    if (NumThreads == 0 || std::uint64_t{Capacity} + NumThreads >
                               HeadCodec::FieldA::maxValue())
      throw std::invalid_argument(
          "TreiberStack: need 1 <= threads and capacity + threads < 2^20");
    return Capacity;
  }

  /// Takes a node for \p V from the pool; the headroom guarantees one.
  std::uint32_t acquireNode(Value V) {
    const std::optional<std::uint32_t> Idx = Pool.tryAcquire();
    assert(Idx && "in-transit headroom guarantees a free node");
    Nodes[*Idx].Payload.write(V);
    return *Idx;
  }

  struct Node {
    AtomicRegister<Value, Policy> Payload{0};
    AtomicRegister<std::uint32_t, Policy> Next{
        0}; ///< Link = index+1; 0 = null.
  };

  const std::uint32_t K;
  IndexPool Pool;
  AtomicRegister<std::uint64_t, Policy> Head{
      0}; ///< <link, depth, tag>; link 0 = empty.
  std::unique_ptr<Node[]> Nodes;
};

/// The library-default Treiber stack (instrumented unless
/// CSOBJ_FAST_REGISTERS).
using TreiberStack = TreiberStackT<>;

} // namespace csobj

#endif // CSOBJ_BASELINES_TREIBERSTACK_H
