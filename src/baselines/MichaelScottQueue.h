//===- baselines/MichaelScottQueue.h - Lock-free FIFO queue -----*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Michael & Scott's lock-free queue (PODC'96), the canonical linked
/// CAS-based FIFO and the lock-free baseline for the queue family
/// (experiment E7). Nodes come from a preallocated IndexPool (one extra
/// node is the permanent dummy), with ABA tags on head, tail and every
/// next link as in the original algorithm. Lock-free (helping swings the
/// tail), not starvation-free.
///
/// Bounded and total: Full is decided from the queue's own length, not
/// from the pool, whose nodes in transit (acquired but not yet linked, or
/// a retired dummy not yet released) make "pool empty" differ from
/// "queue full". Each successful head C&S is one dequeue and each tail
/// C&S one enqueue's swing, each bumping its tag by one, so while the
/// tail's next link is null the length is tag(Tail) - tag(Head). The pool
/// carries NumThreads nodes of headroom so an enqueue always finds one.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_BASELINES_MICHAELSCOTTQUEUE_H
#define CSOBJ_BASELINES_MICHAELSCOTTQUEUE_H

#include "core/Results.h"
#include "memory/AtomicRegister.h"
#include "memory/IndexPool.h"
#include "support/BitPack.h"

#include <cassert>
#include <cstdint>
#include <memory>

namespace csobj {

/// Bounded Michael-Scott queue over a preallocated node pool.
///
/// \tparam Policy register policy (Instrumented / Fast).
template <typename Policy = DefaultRegisterPolicy>
class MichaelScottQueueT {
public:
  using Value = std::uint32_t;
  using RegisterPolicy = Policy;

  /// \p NumThreads bounds the threads operating concurrently (the
  /// pool's headroom); \p Capacity is the element bound.
  MichaelScottQueueT(std::uint32_t NumThreads, std::uint32_t Capacity)
      : Pool(Capacity + 1 + NumThreads),
        Nodes(new Node[Capacity + 1 + NumThreads]), CapacityK(Capacity) {
    assert(NumThreads >= 1 && "need at least one process");
    const auto Dummy = Pool.tryAcquire();
    assert(Dummy && "fresh pool must yield the dummy node");
    Nodes[*Dummy].Next.write(LinkCodec::pack(0, 0));
    Head.write(PtrCodec::pack(*Dummy, 0));
    Tail.write(PtrCodec::pack(*Dummy, 0));
  }

  /// Enqueues \p V at the tail; Full when the queue holds Capacity
  /// values.
  PushResult enqueue(Value V) {
    const std::optional<std::uint32_t> NewIdx = Pool.tryAcquire();
    assert(NewIdx && "in-transit headroom guarantees a free node");
    Nodes[*NewIdx].Payload.write(V);
    // Reset our link to null, bumping its tag past the previous life.
    const std::uint64_t OldLink = Nodes[*NewIdx].Next.read();
    Nodes[*NewIdx].Next.write(LinkCodec::pack(0, tagOf(OldLink) + 1));

    while (true) {
      const std::uint64_t T = Tail.read();
      const std::uint64_t Next = Nodes[idxOf(T)].Next.read();
      const std::uint64_t H = Head.read();
      if (T != Tail.read())
        continue; // Tail moved under us; re-snapshot.
      if (linkOf(Next) == 0) {
        // Tail really is last. When Next was read the length was
        // tag(T) - (dequeues so far) >= tag(T) - tag(H), since H was
        // read later: a full answer linearizes at the Next read.
        if (tagOf(T) - tagOf(H) >= CapacityK) {
          Pool.release(*NewIdx);
          return PushResult::Full;
        }
        // Try to link the new node after it.
        if (Nodes[idxOf(T)].Next.compareAndSwap(
                Next, LinkCodec::pack(*NewIdx + 1, tagOf(Next) + 1))) {
          // Swing the tail; failure means someone helped already.
          Tail.compareAndSwap(T, PtrCodec::pack(*NewIdx, tagOf(T) + 1));
          return PushResult::Done;
        }
      } else {
        // Tail lagging: help swing it before retrying.
        Tail.compareAndSwap(T,
                            PtrCodec::pack(linkOf(Next) - 1, tagOf(T) + 1));
      }
    }
  }

  /// Dequeues the oldest value; Empty when the queue is empty.
  PopResult<Value> dequeue() {
    while (true) {
      const std::uint64_t H = Head.read();
      const std::uint64_t T = Tail.read();
      const std::uint64_t Next = Nodes[idxOf(H)].Next.read();
      if (H != Head.read())
        continue;
      if (idxOf(H) == idxOf(T)) {
        if (linkOf(Next) == 0)
          return PopResult<Value>::empty();
        // Tail lagging behind a half-finished enqueue: help.
        Tail.compareAndSwap(T,
                            PtrCodec::pack(linkOf(Next) - 1, tagOf(T) + 1));
        continue;
      }
      const Value V = Nodes[linkOf(Next) - 1].Payload.read();
      if (Head.compareAndSwap(
              H, PtrCodec::pack(linkOf(Next) - 1, tagOf(H) + 1))) {
        Pool.release(idxOf(H)); // Old dummy retires; next node is dummy.
        return PopResult<Value>::value(V);
      }
    }
  }

  std::uint32_t capacity() const { return CapacityK; }

  /// Quiescent-only element count (test/debug aid).
  std::uint32_t sizeForTesting() const {
    std::uint32_t Count = 0;
    std::uint32_t Link =
        linkOf(Nodes[idxOf(Head.peekForTesting())].Next.peekForTesting());
    while (Link != 0) {
      ++Count;
      Link = linkOf(Nodes[Link - 1].Next.peekForTesting());
    }
    return Count;
  }

private:
  // Head/Tail pack <node-index:32, tag:32> (the dummy makes them always
  // valid); next links pack <index+1:32, tag:32> with 0 = null.
  using PtrCodec = PackedPair<std::uint64_t, 32, 32>;
  using LinkCodec = PackedPair<std::uint64_t, 32, 32>;

  static std::uint32_t idxOf(std::uint64_t Word) {
    return static_cast<std::uint32_t>(PtrCodec::a(Word));
  }
  static std::uint32_t linkOf(std::uint64_t Word) {
    return static_cast<std::uint32_t>(LinkCodec::a(Word));
  }
  static std::uint32_t tagOf(std::uint64_t Word) {
    return static_cast<std::uint32_t>(PtrCodec::b(Word));
  }

  struct Node {
    AtomicRegister<Value, Policy> Payload{0};
    AtomicRegister<std::uint64_t, Policy> Next{0};
  };

  IndexPool Pool;
  AtomicRegister<std::uint64_t, Policy> Head{0};
  AtomicRegister<std::uint64_t, Policy> Tail{0};
  std::unique_ptr<Node[]> Nodes;
  const std::uint32_t CapacityK;
};

/// The library-default MS queue (instrumented unless CSOBJ_FAST_REGISTERS).
using MichaelScottQueue = MichaelScottQueueT<>;

} // namespace csobj

#endif // CSOBJ_BASELINES_MICHAELSCOTTQUEUE_H
