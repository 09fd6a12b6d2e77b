//===- core/NonBlockingQueue.h - Figure 2 applied to the queue --*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Figure 2 retry construction over the abortable queue: enqueue and
/// dequeue never surface bottom, they retry instead. Non-blocking by the
/// same argument as the stack (an attempt only aborts because another
/// operation's C&S on the same register succeeded). The retry loop is
/// managed by a ContentionManager exactly as in NonBlockingStack.h.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_NONBLOCKINGQUEUE_H
#define CSOBJ_CORE_NONBLOCKINGQUEUE_H

#include "core/AbortableQueue.h"
#include "core/NonBlockingStack.h"
#include "support/ContentionManager.h"

#include <cstdint>

namespace csobj {

/// Non-blocking bounded FIFO queue (Figure 2 over AbortableQueue).
///
/// \tparam Manager ContentionManager for the retry loop.
/// \tparam Policy  register policy (Instrumented / Fast).
template <typename Config = Compact64,
          ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
class NonBlockingQueue {
public:
  using Value = typename Config::Value;
  using RegisterPolicy = Policy;

  explicit NonBlockingQueue(std::uint32_t Capacity) : Inner(Capacity) {}

  /// Retries weak_enqueue until it does not abort: Done or Full.
  PushResult enqueue(Value V) { return enqueueCounting(V).Result; }

  /// Retries weak_dequeue until it does not abort: a value or Empty.
  PopResult<Value> dequeue() { return dequeueCounting().Result; }

  Attempted<PushResult> enqueueCounting(Value V) {
    return retryWhileAbort<Manager>([&] { return Inner.weakEnqueue(V); });
  }

  Attempted<PopResult<Value>> dequeueCounting() {
    return retryWhileAbort<Manager>([&] { return Inner.weakDequeue(); });
  }

  std::uint32_t capacity() const { return Inner.capacity(); }
  std::uint32_t sizeForTesting() const { return Inner.sizeForTesting(); }

  /// The underlying abortable queue.
  AbortableQueue<Config, Policy> &abortable() { return Inner; }

private:
  AbortableQueue<Config, Policy> Inner;
};

} // namespace csobj

#endif // CSOBJ_CORE_NONBLOCKINGQUEUE_H
