//===- core/NonBlockingStack.h - The paper's Figure 2 -----------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 2: a linearizable *non-blocking* stack built on top of the
/// abortable stack of Figure 1 by retrying aborted operations:
///
///     repeat res <- weak_push(v) until res != bottom; return res.
///
/// No operation ever aborts; instead it may loop. The construction is
/// obstruction-free (a solo operation succeeds on its first attempt) and
/// non-blocking: whatever the contention pattern, at least one concurrent
/// operation terminates, because an attempt only aborts when some other
/// operation's TOP C&S succeeded.
///
/// The retry loop is managed by a ContentionManager
/// (support/ContentionManager.h): NoBackoff is the literal Figure 2;
/// ExponentialBackoff, YieldBackoff and AdaptiveBackoff are the
/// contention-managed variants (ablation experiments E8/E11). The manager
/// is told about every abort (onAbort) and the final completion
/// (onSuccess); on the solo path it is never consulted, so it adds
/// nothing to the contention-free access count.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_NONBLOCKINGSTACK_H
#define CSOBJ_CORE_NONBLOCKINGSTACK_H

#include "core/AbortableStack.h"
#include "support/ContentionManager.h"

#include <cstdint>
#include <type_traits>

namespace csobj {

/// Outcome of a non-blocking operation together with the number of
/// aborted attempts that preceded it (0 = first try succeeded). Retry
/// counts feed experiment E3.
template <typename ResultT>
struct Attempted {
  ResultT Result;
  std::uint64_t Retries = 0;
};

/// Figure 2's loop: repeats \p Attempt until it answers something other
/// than bottom, telling a fresh \p Manager of each abort and the end.
template <ContentionManager Manager, typename AttemptFn>
auto retryWhileAbort(AttemptFn Attempt)
    -> Attempted<std::invoke_result_t<AttemptFn &>> {
  Manager Mgr;
  Attempted<std::invoke_result_t<AttemptFn &>> Out{Attempt(), 0};
  while (isAbort(Out.Result)) {
    ++Out.Retries;
    Mgr.onAbort();
    Out.Result = Attempt();
  }
  Mgr.onSuccess();
  return Out;
}

/// Figure 2: non-blocking bounded stack.
///
/// \tparam Config  codec family (Compact64 / Wide128), see Figure 1.
/// \tparam Manager ContentionManager for the retry loop (NoBackoff is
///                 paper-literal).
/// \tparam Policy  register policy (Instrumented / Fast).
template <typename Config = Compact64,
          ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
class NonBlockingStack {
public:
  using Value = typename Config::Value;
  using RegisterPolicy = Policy;
  static constexpr Value Bottom = AbortableStack<Config, Policy>::Bottom;

  explicit NonBlockingStack(std::uint32_t Capacity) : Inner(Capacity) {}

  /// non_blocking_push(v): retries weak_push until it does not abort.
  /// Returns Done or Full (never Abort).
  PushResult push(Value V) { return pushCounting(V).Result; }

  /// non_blocking_pop(): retries weak_pop until it does not abort.
  /// Returns a value or Empty (never Abort).
  PopResult<Value> pop() { return popCounting().Result; }

  /// push plus the number of aborted attempts.
  Attempted<PushResult> pushCounting(Value V) {
    return retryWhileAbort<Manager>([&] { return Inner.weakPush(V); });
  }

  /// pop plus the number of aborted attempts.
  Attempted<PopResult<Value>> popCounting() {
    return retryWhileAbort<Manager>([&] { return Inner.weakPop(); });
  }

  std::uint32_t capacity() const { return Inner.capacity(); }
  std::uint32_t sizeForTesting() const { return Inner.sizeForTesting(); }

  /// The underlying Figure 1 object (shared with Figure 3 constructions).
  AbortableStack<Config, Policy> &abortable() { return Inner; }

private:
  AbortableStack<Config, Policy> Inner;
};

} // namespace csobj

#endif // CSOBJ_CORE_NONBLOCKINGSTACK_H
