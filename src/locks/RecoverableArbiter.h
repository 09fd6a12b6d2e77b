//===- locks/RecoverableArbiter.h - Crash-tolerant doorway ------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FLAG/TURN doorway of Figure 3 (locks/RoundRobinArbiter.h) hardened
/// against process crashes. The paper's Lemma 3 liveness argument assumes
/// every flagged process eventually passes through; a process that
/// crashes with its flag raised while holding TURN breaks that — TURN
/// sticks on the corpse and every later entrant waits forever. This
/// variant restores liveness with two changes:
///
///  * Suspicion + skipping: a waiter that observes TURN parked on the
///    same flagged process for longer than its patience budget marks that
///    process suspect (in the shared SuspectSet, the same failure
///    detector the leased lock feeds) and C&S-advances TURN past it.
///    All TURN advances become C&S in this variant — concurrent
///    recoverers and the normal exit path may race on it, and a blind
///    write could resurrect a corpse's turn.
///  * Bounded entry: enterBounded() gives up after a second patience
///    round (live contention, not a corpse), withdraws its flag and
///    reports false so the caller can degrade to a lock-free fallback.
///    Entry is therefore always bounded — the progress downgrade happens
///    in the caller, never a hang here.
///
/// Resurrection: a live process that was falsely suspected clears its own
/// suspect bit at its next entry, regaining round-robin priority. The
/// fairness argument then holds again among unsuspected processes;
/// crashes of *waiting* processes (flag raised, lock never taken) cost
/// the survivors at most one patience round each before the corpse is
/// skipped.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_LOCKS_RECOVERABLEARBITER_H
#define CSOBJ_LOCKS_RECOVERABLEARBITER_H

#include "locks/LeasedLock.h"
#include "memory/AtomicRegister.h"
#include "support/CacheLine.h"
#include "support/SpinWait.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace csobj {

/// Crash-tolerant FLAG/TURN doorway. Shares a SuspectSet with the leased
/// lock so lease expiry and doorway recovery feed one failure detector.
template <typename Policy = DefaultRegisterPolicy>
class RecoverableArbiterT {
public:
  using RegisterPolicy = Policy;

  RecoverableArbiterT(std::uint32_t NumThreads, SuspectSetT<Policy> &Set)
      : N(NumThreads), Suspects(Set),
        Flag(new CacheLinePadded<
             AtomicRegister<std::uint8_t, Policy>>[NumThreads]) {
    assert(NumThreads >= 1 && "arbiter needs at least one process");
  }

  /// Bounded doorway entry (lines 04-05 with recovery). Returns true
  /// when the caller has priority and must later call exitAndAdvance();
  /// false when patience ran out — the flag has been withdrawn and the
  /// caller must not enter the critical path.
  bool enterBounded(std::uint32_t I, std::uint32_t Patience) {
    assert(I < N && "thread id out of range");
    if (Suspects.isSuspect(I))
      Suspects.clearSelf(I); // Resurrection: evidently alive.
    Flag[I].value().write(1);                        // line 04
    std::uint32_t LastTurn = ~std::uint32_t{0};
    std::uint64_t Stable = 0;
    std::uint32_t SuspicionsSpent = 0;
    SpinWait Waiter;
    while (true) {                                   // line 05
      const std::uint32_t T = Turn.value().read();
      if (T == I)
        return true;
      if (Flag[T].value().read() == 0)
        return true;
      if (Suspects.isSuspect(T)) {
        // TURN is parked on a suspect: skip it. C&S — a concurrent
        // recoverer or exiting holder may advance first, which is fine.
        Turn.value().compareAndSwap(T, (T + 1) % N);
        Stable = 0;
        continue;
      }
      if (T != LastTurn) {
        LastTurn = T;
        Stable = 0;
      }
      if (++Stable > Patience) {
        if (++SuspicionsSpent >= 2) {
          // Two suspicions deep and still no priority: treat as live
          // contention and let the caller degrade.
          Flag[I].value().write(0);
          return false;
        }
        Suspects.markSuspect(T);
        Stable = 0;
        continue;
      }
      Waiter.once();
    }
  }

  /// Lines 10-11 with C&S advance, skipping nothing here — skipping is
  /// the entry side's job; the exit side only passes priority onward
  /// when the prioritized process is not competing or is suspect.
  void exitAndAdvance(std::uint32_t I) {
    assert(I < N && "thread id out of range");
    Flag[I].value().write(0);                        // line 10
    const std::uint32_t T = Turn.value().read();     // line 11
    if (Flag[T].value().read() == 0 || Suspects.isSuspect(T))
      Turn.value().compareAndSwap(T, (T + 1) % N);
  }

  /// Withdraws a raised flag without advancing TURN — used when the
  /// caller entered the doorway but timed out on the lock behind it.
  void withdraw(std::uint32_t I) {
    assert(I < N && "thread id out of range");
    Flag[I].value().write(0);
  }

  std::uint32_t numThreads() const { return N; }

  /// Heap owned by the arbiter: the padded per-thread FLAG array.
  std::size_t heapBytes() const {
    return std::size_t{N} *
           sizeof(CacheLinePadded<AtomicRegister<std::uint8_t, Policy>>);
  }

  std::uint32_t turnForTesting() const {
    return Turn.value().peekForTesting();
  }

  bool flagForTesting(std::uint32_t I) const {
    assert(I < N && "thread id out of range");
    return Flag[I].value().peekForTesting() != 0;
  }

private:
  const std::uint32_t N;
  SuspectSetT<Policy> &Suspects;
  CacheLinePadded<AtomicRegister<std::uint32_t, Policy>> Turn;
  std::unique_ptr<CacheLinePadded<AtomicRegister<std::uint8_t, Policy>>[]>
      Flag;
};

using RecoverableArbiter = RecoverableArbiterT<>;

} // namespace csobj

#endif // CSOBJ_LOCKS_RECOVERABLEARBITER_H
