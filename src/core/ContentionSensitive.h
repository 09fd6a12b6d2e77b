//===- core/ContentionSensitive.h - The paper's Figure 3 --------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 3: the generic contention-sensitive, starvation-free
/// construction. Given *any* abortable object operation (a callable that
/// either returns a non-bottom result or reports abort), strongApply runs
/// the paper's strong_push_or_pop(par):
///
///   lines 01-03 (the lock-free "shortcut"): if CONTENTION is false, try
///     the weak operation once; a non-bottom result returns immediately.
///     In a contention-free context this is the whole execution — one
///     read of CONTENTION plus the weak operation's accesses (six total
///     for the stack), and no lock.
///   lines 04-06 (the doorway): FLAG[i] <- true, wait for priority
///     (TURN = i or FLAG[TURN] = false), then take the deadlock-free lock.
///   lines 07-13 (the protected retry): raise CONTENTION, repeat the weak
///     operation until it succeeds, lower CONTENTION, release the doorway
///     and the lock, return the result.
///
/// The template is the paper's remark made code: contention-sensitiveness
/// is independent of which operation (push or pop — or enqueue, dequeue,
/// increment ...) is being strengthened, so the adapter works for any
/// abortable object. Starvation-freedom follows from Lemmas 1-3.
///
/// Figure 3 = Remark skeleton ∘ Section 4.4 lock: RemarkSkeleton runs the
/// unstarred lines over StarvationFreeLock<L>, whose lock/unlock are the
/// starred lines 04-06/10-12 in the paper's order. Its helpers (shortcut,
/// protected retry, group phase) also serve the other skeletons.
///
/// Two perf-relevant refinements over the paper-literal transcription:
///  * CONTENTION sits on its own cache line, as do TURN (inside the
///    arbiter) and the lock word. The fast path reads CONTENTION on
///    every operation; without the padding, slow-path C&S traffic on
///    the lock word invalidated that line and the "zero overhead in the
///    common case" claim silently paid a coherence miss per operation.
///  * The protected retry (line 08's repeat-until) is driven by a
///    ContentionManager (support/ContentionManager.h) instead of a bare
///    escalating spin, so the lock holder can stand back in proportion
///    to the interference it actually observes.
///
/// Memory orderings (audited): the line-01 CONTENTION read is acquire
/// and the line-07/09 writes are release. Correctness does not hinge on
/// them — CONTENTION is a heuristic gate; every linearization point is a
/// C&S inside the weak operation — but release keeps the line-09 store
/// from being reordered after the doorway/lock release stores that
/// follow it, preserving the invariant that CONTENTION is only raised
/// while the lock is held.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_CONTENTIONSENSITIVE_H
#define CSOBJ_CORE_CONTENTIONSENSITIVE_H

#include "core/Results.h"
#include "locks/StarvationFreeLock.h"
#include "locks/TasLock.h"
#include "memory/AtomicRegister.h"
#include "obs/PathCounters.h"
#include "support/CacheLine.h"
#include "support/ContentionManager.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

namespace csobj {

/// Batches up to this size keep their per-element result scratch on the
/// caller's stack; larger groups fall back to one heap allocation, so
/// common batch sizes add zero allocator traffic to the operation path.
inline constexpr std::size_t BatchInlineCapacity = 64;

/// Per-element result scratch of a group op (see BatchInlineCapacity).
template <typename R> class BatchScratch {
public:
  explicit BatchScratch(std::size_t Count)
      : Heap(Count > BatchInlineCapacity ? Count : 0) {}
  R *data() { return Heap.empty() ? Inline : Heap.data(); }

private:
  R Inline[BatchInlineCapacity];
  std::vector<R> Heap;
};

/// Resident bytes of a Figure 3 object: its header plus the weak object's
/// slot array and the skeleton's heap (doorway FLAG array, combiner
/// records, metric blocks). Feeds the bytes_per_element bench column
/// (obs/MetricsJson.h).
template <typename ObjectT, typename WeakT, typename SkeletonT>
std::size_t footprintBytesOf(const ObjectT &, const WeakT &Weak,
                             const SkeletonT &Strong) {
  std::size_t Bytes = sizeof(ObjectT) + Strong.heapBytes();
  if constexpr (requires { Weak.heapBytes(); })
    Bytes += Weak.heapBytes();
  return Bytes;
}

/// Adapts a weak attempt to the skeleton contract: the returned callable
/// forwards its arguments to \p Attempt (none for strongApply, the index
/// for strongApplyBatch's WeakAt) and maps an Abort answer to nullopt
/// (res = bottom); every other answer is final.
template <typename AttemptFn> auto bottomIfAbort(AttemptFn Attempt) {
  return [Attempt](auto... Args)
             -> std::optional<
                 std::invoke_result_t<const AttemptFn &, decltype(Args)...>> {
    auto Res = Attempt(Args...);
    if (isAbort(Res))
      return std::nullopt; // res = bottom
    return Res;
  };
}

/// Group push through \p Strong's batch seam: applies AttemptAt(0..Count)
/// in index order (one doorway/lock or combiner-record acquisition for
/// the whole contended remainder) and stops at the first Full answer, so
/// the object receives a prefix of the batch. Returns the number of
/// elements actually added.
template <typename SkeletonT, typename AttemptAtFn>
std::size_t strongPushAll(SkeletonT &Strong, std::uint32_t Tid,
                          std::size_t Count, AttemptAtFn AttemptAt) {
  BatchScratch<PushResult> Scratch(Count);
  PushResult *Results = Scratch.data();
  const std::size_t Applied = Strong.strongApplyBatch(
      Tid, Count, bottomIfAbort(AttemptAt),
      [](PushResult R) { return R == PushResult::Full; }, Results);
  return Applied != 0 && Results[Applied - 1] == PushResult::Full
             ? Applied - 1
             : Applied;
}

/// Group pop through \p Strong's batch seam: repeats \p Attempt up to
/// \p MaxCount times, storing the values into Out[0..] in removal order
/// and stopping at the first Empty answer. Returns the number of values
/// removed.
template <typename SkeletonT, typename Value, typename AttemptFn>
std::size_t strongPopAll(SkeletonT &Strong, std::uint32_t Tid, Value *Out,
                         std::size_t MaxCount, AttemptFn Attempt) {
  BatchScratch<PopResult<Value>> Scratch(MaxCount);
  PopResult<Value> *Results = Scratch.data();
  const std::size_t Applied = Strong.strongApplyBatch(
      Tid, MaxCount,
      bottomIfAbort([&Attempt](std::size_t) { return Attempt(); }),
      [](const PopResult<Value> &R) { return R.isEmpty(); }, Results);
  std::size_t Got = 0;
  for (std::size_t I = 0; I < Applied; ++I)
    if (Results[I].isValue())
      Out[Got++] = Results[I].value();
  return Got;
}

/// The CONTENTION register of a Figure 3 skeleton, on its own cache line.
template <typename Policy>
using ContentionRegister = CacheLinePadded<AtomicRegister<std::uint8_t, Policy>>;

/// Lines 01-03: if CONTENTION is down, one weak attempt. Returns its
/// non-bottom result, or nullopt when the caller must take its slow path.
template <typename Policy, typename WeakOpFn>
std::invoke_result_t<WeakOpFn &>
shortcut(ContentionRegister<Policy> &Contention, obs::MetricSink &Sink,
         std::uint32_t Tid, WeakOpFn &WeakOp) {
  Sink.onOp(Tid);
  if (Contention.value().read(std::memory_order_acquire) == 0) { // line 01
    if (auto Res = WeakOp()) {                                    // line 02
      Sink.onPath(Tid, obs::Path::Shortcut);
      return Res;                                                 // line 03
    }
    Sink.onEvent(Tid, obs::Event::ShortcutAbort);
  }
  return std::nullopt;
}

/// The shortcut over ops 0.. of a batch in index order, storing results in
/// Out and returning early after a Stop answer. The first op it cannot
/// complete hands the remainder to \p Remainder(I), whose result is
/// returned (op I is already booked).
template <typename Policy, typename WeakAtFn, typename StopFn, typename R,
          typename RemainderFn>
std::size_t shortcutPrefix(ContentionRegister<Policy> &Contention,
                           obs::MetricSink &Sink, std::uint32_t Tid,
                           std::size_t Count, WeakAtFn &WeakAt, StopFn &Stop,
                           R *Out, RemainderFn Remainder) {
  for (std::size_t I = 0; I < Count; ++I) {
    auto Attempt = [&WeakAt, I] { return WeakAt(I); };
    auto Res = shortcut(Contention, Sink, Tid, Attempt);
    if (!Res)
      return Remainder(I); // adaptive cutover
    Out[I] = *Res;
    if (Stop(Out[I]))
      return I + 1;
  }
  return Count;
}

/// Line 08: repeats \p WeakOp under the lock until it answers non-bottom,
/// paced by \p Mgr.
template <typename ManagerT, typename WeakOpFn>
auto protectedRetry(ManagerT &Mgr, obs::MetricSink &Sink, std::uint32_t Tid,
                    WeakOpFn &&WeakOp) ->
    typename std::invoke_result_t<WeakOpFn &>::value_type {
  auto Res = WeakOp();
  while (!Res) {
    Sink.onEvent(Tid, obs::Event::ProtectedRetry);
    Mgr.onAbort();
    Res = WeakOp();
  }
  Mgr.onSuccess();
  return *Res;
}

/// Lines 07-09 for a batch remainder under the lock: ops Begin.. back to
/// back, each with the line-08 retry, until one answers Stop. Returns the
/// index after the last op applied (op Begin is already booked).
template <ContentionManager Manager, typename Policy, typename WeakAtFn,
          typename StopFn, typename R>
std::size_t protectedGroup(ContentionRegister<Policy> &Contention,
                           obs::MetricSink &Sink, std::uint32_t Tid,
                           std::size_t Begin, std::size_t Count,
                           WeakAtFn &WeakAt, StopFn &Stop, R *Out) {
  Contention.value().write(1, std::memory_order_release); // line 07
  Manager Mgr;
  std::size_t I = Begin;
  for (bool Stopped = false; I < Count && !Stopped; ++I) {
    if (I != Begin)
      Sink.onOp(Tid);
    Out[I] = protectedRetry(Mgr, Sink, Tid, [&WeakAt, I] { return WeakAt(I); });
    Stopped = Stop(Out[I]);
  }
  Contention.value().write(0, std::memory_order_release); // line 09
  return I;
}

/// The Figure 3 execution skeleton: the Section 4.1 Remark's lines over a
/// starvation-free lock. One instance guards one abortable object; all
/// strong operations on that object must go through the same instance
/// (they share CONTENTION and the lock).
///
/// \tparam StarvationFreeLockT a starvation-free lock (LockConcept).
/// \tparam Manager ContentionManager pacing the protected retry of
///         line 08. NoBackoff reproduces the seed behaviour (the retry
///         is already lock-protected, so immediate retry is sound).
/// \tparam Policy register policy (Instrumented / Fast) of CONTENTION.
template <typename StarvationFreeLockT, ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
class RemarkSkeleton {
public:
  using RegisterPolicy = Policy;

  /// \p NumThreads is the paper's n; thread ids are 0..n-1.
  explicit RemarkSkeleton(std::uint32_t NumThreads)
      : N(NumThreads), Guard(NumThreads) {
    assert(NumThreads >= 1 && "need at least one process");
  }

  /// strong_push_or_pop(par) for a generic operation. \p WeakOp is
  /// invoked with no arguments and returns std::optional<R>: nullopt
  /// encodes the paper's bottom (the attempt aborted; it had no effect),
  /// any value is a final non-bottom result (including full/empty style
  /// answers). Never returns bottom; always terminates (starvation-free,
  /// Theorem 1).
  template <typename WeakOpFn>
  auto strongApply(std::uint32_t Tid, WeakOpFn WeakOp)
      -> typename std::invoke_result_t<WeakOpFn>::value_type {
    assert(Tid < N && "thread id out of range");
    if (auto Res = shortcut(Contention, Sink, Tid, WeakOp)) // lines 01-03
      return *Res;
    return slowApply(Tid, WeakOp);             // lines 04-13
  }

  /// strongApply with an acceleration window between the paper's
  /// shortcut and the lock: when the fast path fails (CONTENTION was
  /// raised, or the weak attempt aborted), \p Rescue gets one chance to
  /// finish the operation without competing for the lock — e.g. by
  /// pairing with an inverse operation in an elimination array. Rescue
  /// returns the same optional as WeakOp; nullopt falls through to the
  /// unchanged lines 04-13. The contention-free execution is untouched
  /// (one CONTENTION read plus one weak attempt, Rescue never invoked),
  /// so the 6-shared-access solo bound of the stack is preserved.
  /// Starvation-freedom is preserved too: Rescue is attempted exactly
  /// once, so every operation still reaches the lock after a bounded
  /// number of its own steps (Lemmas 1-3 apply verbatim).
  template <typename WeakOpFn, typename RescueFn>
  auto strongApplyWithRescue(std::uint32_t Tid, WeakOpFn WeakOp,
                             RescueFn Rescue)
      -> typename std::invoke_result_t<WeakOpFn>::value_type {
    assert(Tid < N && "thread id out of range");
    if (auto Res = shortcut(Contention, Sink, Tid, WeakOp)) // lines 01-03
      return *Res;
    if (auto Res = Rescue()) {                 // acceleration window
      Sink.onPath(Tid, obs::Path::Eliminated);
      return *Res;
    }
    return slowApply(Tid, WeakOp);             // lines 04-13
  }

  /// Group form of strongApply: applies ops 0..Count-1 as one batch.
  /// \p WeakAt(I) attempts the I-th operation (same optional contract as
  /// strongApply's WeakOp); every applied result lands in Out[I].
  /// \p Stop(R) marks a terminal answer (Full/Empty) that rejects the
  /// batch's remainder — the stopping op's result is stored and counted,
  /// later ops are never attempted, so the object always holds a prefix
  /// of the batch. Returns the number of ops applied.
  ///
  /// Cost shape: while CONTENTION stays down each element runs the
  /// line-01-03 shortcut individually (the paper's six-access bound per
  /// element, no lock). At the first shortcut failure the *entire
  /// remainder* cuts over to one doorway entry + one lock acquisition,
  /// under which the remaining elements are applied back to back with
  /// the line-08 protected retry, then one release. That is the k-ops/
  /// one-lock amortization flat combining promises, available even on
  /// the plain Fig-3 skeleton. Starvation-freedom is unchanged: the
  /// batch holds the lock for a bounded number of its own steps (Count
  /// is finite, each retry is Manager-paced exactly like strongApply).
  template <typename WeakAtFn, typename StopFn, typename R>
  std::size_t strongApplyBatch(std::uint32_t Tid, std::size_t Count,
                               WeakAtFn WeakAt, StopFn Stop, R *Out) {
    assert(Tid < N && "thread id out of range");
    return shortcutPrefix(
        Contention, Sink, Tid, Count, WeakAt, Stop, Out, [&](std::size_t I) {
          Guard.lock(Tid);                     // lines 04-06
          const std::size_t End = protectedGroup<Manager>(
              Contention, Sink, Tid, I, Count, WeakAt, Stop, Out);
          Guard.unlock(Tid);                   // lines 10-12
          Sink.onPath(Tid, obs::Path::Batched, End - I);
          Sink.onBatch(Tid, End - I);
          return End;
        });
  }

  std::uint32_t numThreads() const { return N; }

  /// Path-attributed metrics for this object (obs/PathCounters.h); an
  /// empty no-op under CSOBJ_NO_METRICS.
  obs::MetricSink &metrics() const { return Sink; }
  obs::PathSnapshot pathSnapshot() const { return Sink.snapshot(); }

  /// Whether the slow path currently holds the object (test/debug aid).
  bool contentionForTesting() const {
    return Contention.value().peekForTesting() != 0;
  }

  /// The doorway (exposed for fairness tests).
  auto &arbiter()
    requires requires(StarvationFreeLockT &L) { L.arbiter(); }
  {
    return Guard.arbiter();
  }

  /// Heap owned by the skeleton: the lock's (the doorway's FLAG array)
  /// plus the metric sink's per-thread blocks (zero under CSOBJ_NO_METRICS).
  std::size_t heapBytes() const {
    std::size_t Bytes = Sink.heapBytes();
    if constexpr (requires { Guard.heapBytes(); })
      Bytes += Guard.heapBytes();
    return Bytes;
  }

private:
  /// Lines 04-13: the lock, and the protected retry under it.
  template <typename WeakOpFn>
  auto slowApply(std::uint32_t Tid, WeakOpFn &WeakOp)
      -> typename std::invoke_result_t<WeakOpFn>::value_type {
    Guard.lock(Tid);                           // lines 04-06
    Contention.value().write(1, std::memory_order_release); // line 07
    Manager Mgr;
    const auto Res = protectedRetry(Mgr, Sink, Tid, WeakOp); // line 08
    Contention.value().write(0, std::memory_order_release); // line 09
    Guard.unlock(Tid);                         // lines 10-12
    Sink.onPath(Tid, obs::Path::Lock);
    return Res;                                // line 13
  }

  const std::uint32_t N;
  ContentionRegister<Policy> Contention;
  /// Overlappable, so the sink may use the lock's tail padding as it did
  /// when the doorway and the inner lock were two members here.
  [[no_unique_address]] StarvationFreeLockT Guard;
  [[no_unique_address]] mutable obs::MetricSink Sink{N};
};

/// The paper's Figure 3: the Remark skeleton over the Section 4.4 lock,
/// i.e. the FLAG/TURN doorway bracketing \p Lock.
///
/// \tparam Lock a deadlock-free lock (LockConcept). Starvation-freedom of
///         the whole construction does NOT require the lock itself to be
///         starvation-free — that is the point of the doorway. TasLock is
///         the default to exercise exactly the paper's assumption.
/// \tparam Policy register policy of CONTENTION and of the doorway.
template <typename Lock = TasLock, ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
using ContentionSensitive =
    RemarkSkeleton<StarvationFreeLock<Lock, Policy>, Manager, Policy>;

/// The paper's Section 4.1 Remark, as code: "If the lock is
/// starvation-free (...) the array FLAG[1..n] and the register TURN
/// become useless and consequently the lines 04-05 and 10-11 can be
/// suppressed from the algorithm." Instantiate with a lock that is itself
/// starvation-free (ticket, MCS, CLH, Anderson, tournament, or any
/// StarvationFreeLock<...>). Tested equivalent to the full construction.
template <typename StarvationFreeLockT, ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
using SimplifiedContentionSensitive =
    RemarkSkeleton<StarvationFreeLockT, Manager, Policy>;

} // namespace csobj

#endif // CSOBJ_CORE_CONTENTIONSENSITIVE_H
