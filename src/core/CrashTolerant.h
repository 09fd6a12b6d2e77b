//===- core/CrashTolerant.h - Figure 3 with graceful degradation *- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-tolerant variant of the Figure 3 skeleton
/// (core/ContentionSensitive.h). The paper's Section 5 concedes that the
/// construction "still works despite process crashes *if no process
/// crashes while holding the lock*"; this skeleton closes that boundary
/// by bounding every blocking step with a patience budget and downgrading
/// the progress guarantee instead of hanging. It is Figure 3's split,
/// Remark skeleton ∘ Section 4.4 lock, over StarvationFreeLock<Leasable>:
/// the Remark skeleton's helpers run lines 01-03 and 07-09, and only the
/// acquisition differs — bounded, and allowed to fail:
///
///   fast path (lines 01-03)  — unchanged: lock-free, six accesses for
///                              the stack, crash-tolerated as before.
///   doorway (lines 04-05)    — RecoverableArbiter::enterBounded: TURN
///                              skips suspected-dead processes; patience
///                              exhaustion withdraws and degrades.
///   lock (line 06)           — LeasedLock::lockBounded: a lease stuck
///                              past patience marks the holder suspect,
///                              revokes the lease (so the *next* slow
///                              operation finds the lock free and the
///                              system heals), and degrades this one.
///   degraded mode            — the Figure 2 non-blocking retry loop:
///                              repeat the weak operation until non-
///                              bottom. Lock-free (some operation always
///                              completes; a weak op only aborts because
///                              a rival's C&S won) but no longer
///                              starvation-free. Counted per object.
///
/// The progress-guarantee downgrade lattice (DESIGN.md):
///
///     no faults            -> starvation-free  (Theorem 1, unchanged)
///     crash w/o lock       -> starvation-free  (Section 5, unchanged)
///     crash waiting/holding-> lock-free        (degraded mode, new)
///
/// Safety never degrades: every linearization point lies in a weak-object
/// C&S, so fast-path, protected and degraded completions interleave into
/// linearizable histories (checked in tests/faults_test.cpp).
///
/// CONTENTION left raised by a corpse heals in one round: the first
/// degraded survivor revokes the lease; the next slow-path operation
/// acquires the freed lock, completes its protected retry and lowers
/// CONTENTION on line 09 as usual.
///
/// The crash-tolerant objects at the end of this file are the Figure 3
/// wrappers instantiated over this skeleton, as perf/CombiningObjects.h
/// does for flat combining: the wrapper code and therefore the solo
/// access counts (six for the stack, seven for the queue) are the same,
/// and the patience reaches the skeleton through the wrapper's trailing
/// constructor argument. Degraded mode is lock-free for all three. The
/// deque is the hardest stress case for it: two symmetric HLM operations
/// can abort each other indefinitely under an adversarial schedule, so
/// lock-freedom there really does lean on a rival completing.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_CRASHTOLERANT_H
#define CSOBJ_CORE_CRASHTOLERANT_H

#include "core/ContentionSensitiveDeque.h"
#include "core/ContentionSensitiveQueue.h"
#include "core/ContentionSensitiveStack.h"
#include "locks/StarvationFreeLock.h"
#include "obs/PathCounters.h"
#include "support/ContentionManager.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace csobj {

/// Per-object tallies of the degradation machinery. Plain uninstrumented
/// atomics: harness accounting, not algorithm state — reading them is not
/// a shared access in the paper's counting convention and must not
/// perturb the six-access bound or the explorer's schedules.
struct DegradationCounters {
  std::atomic<std::uint64_t> Degradations{0};    ///< Ops completed via fallback.
  std::atomic<std::uint64_t> DoorwayTimeouts{0}; ///< The doorway gave up.
  std::atomic<std::uint64_t> LeaseTimeouts{0};   ///< The lease gave up.
  std::atomic<std::uint64_t> ProtectedOps{0};    ///< Normal slow-path completions.
};

/// Value snapshot of DegradationCounters plus the lock's own counters.
struct DegradationStats {
  std::uint64_t Degradations = 0;
  std::uint64_t DoorwayTimeouts = 0;
  std::uint64_t LeaseTimeouts = 0;
  std::uint64_t ProtectedOps = 0;
  std::uint64_t Revocations = 0; ///< Leases revoked from suspected holders.
  std::uint64_t LostLeases = 0;  ///< Holder-side C&S releases that failed.
};

/// Figure 3 skeleton with bounded patience and lock-free degraded mode.
/// Drop-in for ContentionSensitive where crash tolerance matters; the
/// fast path is access-for-access identical (one CONTENTION read plus
/// the weak attempt).
///
/// \tparam Manager ContentionManager pacing both the protected retry and
///         the degraded retry loop.
/// \tparam Policy register policy (Instrumented / Fast).
template <ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
class CrashTolerantContentionSensitive {
public:
  using RegisterPolicy = Policy;

  /// Patience used when none is given: generous enough that wall-clock
  /// false suspicions are rare, small enough that a corpse is detected
  /// in bounded logical time.
  static constexpr std::uint32_t DefaultPatience = 1u << 12;

  /// \p NumThreads is the paper's n; \p Patience bounds, in consecutive
  /// observations of an unchanged doorway turn or lock lease, how long a
  /// slow-path operation waits before suspecting and degrading.
  explicit CrashTolerantContentionSensitive(
      std::uint32_t NumThreads, std::uint32_t Patience = DefaultPatience)
      : N(NumThreads), Patience(Patience), Guard(NumThreads) {
    assert(NumThreads >= 1 && "need at least one process");
  }

  /// strong_push_or_pop(par) with graceful degradation. Same contract as
  /// ContentionSensitive::strongApply — never returns bottom, always
  /// terminates — but termination now survives crashes of competing and
  /// lock-holding processes (lock-freely, Theorem 1's starvation bound
  /// applies only to fault-free executions).
  template <typename WeakOpFn>
  auto strongApply(std::uint32_t Tid, WeakOpFn WeakOp)
      -> typename std::invoke_result_t<WeakOpFn>::value_type {
    assert(Tid < N && "thread id out of range");
    if (auto Res = shortcut(Contention, Sink, Tid, WeakOp)) // lines 01-03
      return *Res;
    if (!acquire(Tid))                         // lines 04-06, bounded
      return degradedApply(Tid, WeakOp);
    Contention.value().write(1, std::memory_order_release); // line 07
    Manager Mgr;
    const auto Res = protectedRetry(Mgr, Sink, Tid, WeakOp); // line 08
    Contention.value().write(0, std::memory_order_release); // line 09
    Guard.unlock(Tid);                         // lines 10-12
    Counters.ProtectedOps.fetch_add(1, std::memory_order_relaxed);
    Sink.onPath(Tid, obs::Path::Lock);
    return Res;                                // line 13
  }

  /// Group form (see RemarkSkeleton::strongApplyBatch): the shortcut
  /// prefix, then one bounded acquisition for the remainder. On timeout
  /// the remainder degrades element by element, stopping at \p Stop.
  template <typename WeakAtFn, typename StopFn, typename R>
  std::size_t strongApplyBatch(std::uint32_t Tid, std::size_t Count,
                               WeakAtFn WeakAt, StopFn Stop, R *Out) {
    assert(Tid < N && "thread id out of range");
    return shortcutPrefix(
        Contention, Sink, Tid, Count, WeakAt, Stop, Out, [&](std::size_t I) {
          if (acquire(Tid)) {                  // lines 04-06, bounded
            const std::size_t End = protectedGroup<Manager>(
                Contention, Sink, Tid, I, Count, WeakAt, Stop, Out);
            Guard.unlock(Tid);                 // lines 10-12
            Counters.ProtectedOps.fetch_add(End - I,
                                            std::memory_order_relaxed);
            Sink.onPath(Tid, obs::Path::Batched, End - I);
            Sink.onBatch(Tid, End - I);
            return End;
          }
          for (std::size_t J = I; J < Count; ++J) {
            if (J != I)
              Sink.onOp(Tid);
            Out[J] = degradedApply(Tid, [&WeakAt, J] { return WeakAt(J); });
            if (Stop(Out[J]))
              return J + 1;
          }
          return Count;
        });
  }

  std::uint32_t numThreads() const { return N; }
  std::uint32_t patience() const { return Patience; }

  /// Path-attributed metrics (obs/PathCounters.h). Subsumes the legacy
  /// DegradationCounters view: Degraded path = Degradations, Lock path =
  /// ProtectedOps; statsForTesting() is kept for the lock's own tallies.
  obs::MetricSink &metrics() const { return Sink; }
  obs::PathSnapshot pathSnapshot() const { return Sink.snapshot(); }

  bool contentionForTesting() const {
    return Contention.value().peekForTesting() != 0;
  }

  /// Aggregated degradation statistics (test/bench aid; approximate
  /// under concurrency, exact once quiescent).
  DegradationStats statsForTesting() const {
    auto Load = [](const std::atomic<std::uint64_t> &C) {
      return C.load(std::memory_order_relaxed);
    };
    return {Load(Counters.Degradations), Load(Counters.DoorwayTimeouts),
            Load(Counters.LeaseTimeouts), Load(Counters.ProtectedOps),
            Guard.inner().revocations(),  Guard.inner().lostLeases()};
  }

  /// The failure detector shared by doorway and lock (test/debug aid).
  SuspectSetT<Policy> &suspects() { return Guard.suspects(); }

  /// The recoverable doorway (test/debug aid).
  RecoverableArbiterT<Policy> &arbiter() { return Guard.arbiter(); }

  /// The leased lock (test/debug aid).
  LeasedLockT<Policy> &guard() { return Guard.inner(); }

  /// Heap owned by the skeleton: the suspect registers and the doorway's
  /// FLAG array (both inside the lock) plus the metric sink's blocks.
  std::size_t heapBytes() const { return Guard.heapBytes() + Sink.heapBytes(); }

private:
  /// One bounded round of the leased lock (lines 04-06); on a timeout,
  /// counted by where it happened, the caller must degrade.
  bool acquire(std::uint32_t Tid) {
    const LeaseAcquire Got = Guard.lockBounded(Tid, Patience);
    if (Got == LeaseAcquire::Acquired)
      return true;
    const bool Doorway = Got == LeaseAcquire::DoorwayTimedOut;
    (Doorway ? Counters.DoorwayTimeouts : Counters.LeaseTimeouts)
        .fetch_add(1, std::memory_order_relaxed);
    Sink.onEvent(Tid, Doorway ? obs::Event::DoorwayTimeout
                              : obs::Event::LeaseTimeout);
    return false;
  }

  /// Degraded mode: the Figure 2 non-blocking retry loop. Lock-free —
  /// a weak attempt only aborts because a rival operation's C&S
  /// succeeded, so system-wide progress is preserved even with the lock
  /// dead and the doorway stuck.
  template <typename WeakOpFn>
  auto degradedApply(std::uint32_t Tid, WeakOpFn &&WeakOp) ->
      typename std::invoke_result_t<WeakOpFn &>::value_type {
    Counters.Degradations.fetch_add(1, std::memory_order_relaxed);
    Manager Mgr;
    while (true) {
      if (auto Res = WeakOp()) {
        Mgr.onSuccess();
        Sink.onPath(Tid, obs::Path::Degraded);
        return *Res;
      }
      Sink.onEvent(Tid, obs::Event::DegradedRetry);
      Mgr.onAbort();
    }
  }

  const std::uint32_t N;
  const std::uint32_t Patience;
  ContentionRegister<Policy> Contention;
  StarvationFreeLock<Leasable, Policy> Guard;
  mutable DegradationCounters Counters;
  [[no_unique_address]] mutable obs::MetricSink Sink{N};
};

/// Crash-tolerant contention-sensitive bounded stack: construct as
/// (NumThreads, Capacity[, Patience]). The Lock argument is vestigial
/// (the skeleton owns its leased lock).
template <typename Config = Compact64, ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
using CrashTolerantStack =
    ContentionSensitiveStack<Config, TasLock, Manager, Policy,
                             CrashTolerantContentionSensitive<Manager, Policy>>;

/// Crash-tolerant contention-sensitive bounded FIFO queue: construct as
/// (NumThreads, Capacity[, Patience]).
template <typename Config = Compact64, ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
using CrashTolerantQueue =
    ContentionSensitiveQueue<Config, TasLock, Manager, Policy,
                             CrashTolerantContentionSensitive<Manager, Policy>>;

/// Crash-tolerant contention-sensitive deque: construct as (NumThreads,
/// Capacity[, InitialLeftSlots[, Patience]]). \p Policy covers the
/// skeleton registers only; the HLM array is non-template like the rest
/// of the deque family.
template <ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
using CrashTolerantDeque =
    ContentionSensitiveDeque<TasLock,
                             CrashTolerantContentionSensitive<Manager, Policy>>;

} // namespace csobj

#endif // CSOBJ_CORE_CRASHTOLERANT_H
