//===- locks/LeasedLock.h - Crash-recoverable leased lock -------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Section 5 caveat is that Figure 3 does not tolerate a
/// process crashing while holding the lock: the slow path blocks forever.
/// This header supplies the lock half of the repair: a deadlock-free
/// C&S lock whose acquisition carries an identified *lease* (holder id +
/// acquisition epoch in one word) that waiters can observe and, after
/// their patience budget expires, revoke.
///
/// Failure detection is necessarily heuristic — in an asynchronous system
/// a dead process is indistinguishable from a slow one (the paper's own
/// model). Revocation is nevertheless SAFE here because in the Figure 3
/// construction the lock is a contention-reduction device, not a safety
/// device: every linearization point is a C&S inside the weak (abortable)
/// operation, so two processes running the "protected" retry loop
/// concurrently still produce linearizable histories. What a false
/// suspicion costs is fairness (the falsely suspected holder loses its
/// lease and its doorway priority until it resurrects itself), never
/// correctness. tests/faults_test.cpp checks both directions.
///
/// Pieces:
///
///  * SuspectSetT — shared per-thread suspicion registers. A thread that
///    observes a lease (or doorway turn, see locks/RecoverableArbiter.h)
///    stuck past its patience marks the owner suspect; a suspect that is
///    in fact alive clears its own bit on its next slow-path entry
///    ("resurrection"), restoring its fairness.
///  * LeasedLockT — the lock. lockBounded() spins with a bounded patience
///    measured in *observations* of an unchanged lease (logical time, so
///    the explorer can exercise expiry deterministically); on expiry it
///    marks the holder suspect, revokes the lease by C&S-ing the word
///    free, and reports TimedOut so the caller can degrade to its
///    lock-free fallback while the *next* acquirer finds the lock free.
///    unlock() releases by C&S on the exact lease taken, so a holder that
///    lost its lease to revocation cannot stomp the new holder's lease —
///    the lost lease is only counted.
///
/// The lock word and each suspect register sit on their own cache line,
/// like every other slow-path register in the library.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_LOCKS_LEASEDLOCK_H
#define CSOBJ_LOCKS_LEASEDLOCK_H

#include "memory/AtomicRegister.h"
#include "support/CacheLine.h"
#include "support/SpinWait.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace csobj {

/// Shared failure-detector output: one register per thread, nonzero when
/// that thread is currently suspected dead. Writes are heuristic and
/// races are benign (see file comment); all accesses are instrumented so
/// the explorer can interleave them.
template <typename Policy = DefaultRegisterPolicy>
class SuspectSetT {
public:
  using RegisterPolicy = Policy;

  explicit SuspectSetT(std::uint32_t NumThreads)
      : N(NumThreads),
        Suspected(new CacheLinePadded<
                  AtomicRegister<std::uint8_t, Policy>>[NumThreads]) {
    assert(NumThreads >= 1 && "need at least one process");
  }

  bool isSuspect(std::uint32_t I) const {
    assert(I < N && "thread id out of range");
    return Suspected[I].value().read(std::memory_order_acquire) != 0;
  }

  /// Declare \p I suspect (failure-detector output, not ground truth).
  void markSuspect(std::uint32_t I) {
    assert(I < N && "thread id out of range");
    Suspected[I].value().write(1, std::memory_order_release);
  }

  /// Resurrection: a live thread observed to be suspected clears its own
  /// bit, restoring its doorway fairness.
  void clearSelf(std::uint32_t I) {
    assert(I < N && "thread id out of range");
    Suspected[I].value().write(0, std::memory_order_release);
  }

  std::uint32_t numThreads() const { return N; }

  /// Heap owned by the set: the padded per-thread suspect registers.
  std::size_t heapBytes() const {
    return std::size_t{N} *
           sizeof(CacheLinePadded<AtomicRegister<std::uint8_t, Policy>>);
  }

  bool isSuspectForTesting(std::uint32_t I) const {
    assert(I < N && "thread id out of range");
    return Suspected[I].value().peekForTesting() != 0;
  }

private:
  const std::uint32_t N;
  std::unique_ptr<CacheLinePadded<AtomicRegister<std::uint8_t, Policy>>[]>
      Suspected;
};

using SuspectSet = SuspectSetT<>;

/// Outcome of a bounded lock acquisition attempt.
enum class LeaseAcquire : std::uint8_t {
  Acquired,       ///< The caller holds the lock.
  TimedOut,       ///< Lease patience exhausted; the caller must not enter.
  DoorwayTimedOut ///< A doorway in front of the lease gave up first
                  ///< (StarvationFreeLock<Leasable>); same contract.
};

/// Deadlock-free lock with revocable leases (see file comment).
///
/// Lease word layout: low 32 bits hold holder+1 (0 = free), high 32 bits
/// the acquisition epoch, bumped on every acquisition so a revoked-then-
/// reacquired lease can never be confused with the original (no ABA on
/// unlock's release C&S).
template <typename Policy = DefaultRegisterPolicy>
class LeasedLockT {
public:
  static constexpr const char *Name = "leased";
  using RegisterPolicy = Policy;

  /// Patience used by the LockConcept-shaped lock() entry point.
  static constexpr std::uint32_t DefaultPatience = 1u << 14;

  explicit LeasedLockT(std::uint32_t NumThreads, SuspectSetT<Policy> *Set =
                                                     nullptr)
      : N(NumThreads), Suspects(Set) {
    assert(NumThreads >= 1 && NumThreads <= MaxThreads &&
           "leased lock supports 1..64 processes");
  }

  /// Bounded acquisition: spins until the lock is taken or the patience
  /// budget is exhausted. Patience is measured in consecutive
  /// observations of the *same* lease; a lease that changes hands resets
  /// the count (the lock is live), but total observations are capped at
  /// a small multiple of \p Patience so the call is bounded even under
  /// permanent live contention. On lease expiry the holder is marked
  /// suspect (when a SuspectSet is attached) and the lease revoked so
  /// subsequent acquirers find the lock free; the expired waiter itself
  /// reports TimedOut and is expected to degrade.
  LeaseAcquire lockBounded(std::uint32_t Tid, std::uint32_t Patience) {
    assert(Tid < N && "thread id out of range");
    std::uint64_t Seen = Word.value().read(std::memory_order_acquire);
    std::uint64_t Stable = 0;
    std::uint64_t Budget =
        static_cast<std::uint64_t>(Patience) * 4 + 16;
    SpinWait Waiter;
    while (Budget-- > 0) {
      if (holderOf(Seen) == 0) {
        const std::uint64_t Fresh = pack(Tid + 1, epochOf(Seen) + 1);
        if (Word.value().compareAndSwapValue(Seen, Fresh,
                                             std::memory_order_acq_rel)) {
          MyLease[Tid].value().store(Fresh, std::memory_order_relaxed);
          return LeaseAcquire::Acquired;
        }
        Stable = 0; // CAS refreshed Seen; the lock is live.
        continue;
      }
      const std::uint64_t Now =
          Word.value().read(std::memory_order_acquire);
      if (Now != Seen) {
        Seen = Now;
        Stable = 0;
        continue;
      }
      if (++Stable > Patience) {
        // Lease expired: suspect the holder and revoke. The freed word
        // keeps the epoch (only the holder field clears), so epochs are
        // monotone and no lease word ever repeats — the ABA guard for
        // unlock's release C&S. If the revoke C&S fails the word moved,
        // i.e. the holder was alive after all; either way this waiter's
        // patience is spent.
        if (Suspects)
          Suspects->markSuspect(holderOf(Seen) - 1);
        if (Word.value().compareAndSwap(Seen, pack(0, epochOf(Seen)),
                                        std::memory_order_acq_rel))
          Revoked.fetch_add(1, std::memory_order_relaxed);
        return LeaseAcquire::TimedOut;
      }
      Waiter.once();
    }
    return LeaseAcquire::TimedOut;
  }

  /// LockConcept-shaped acquisition: retry bounded acquisition forever.
  /// Against a live system this behaves like a TAS lock; against a dead
  /// holder it revokes and then acquires.
  void lock(std::uint32_t Tid) {
    while (lockBounded(Tid, DefaultPatience) != LeaseAcquire::Acquired) {
    }
  }

  /// Releases by C&S on the exact lease this thread took, preserving
  /// the epoch in the freed word. If the lease was revoked in the
  /// meantime (false suspicion) the C&S fails harmlessly and the loss is
  /// counted.
  void unlock(std::uint32_t Tid) {
    assert(Tid < N && "thread id out of range");
    const std::uint64_t Lease =
        MyLease[Tid].value().load(std::memory_order_relaxed);
    if (Lease == 0 ||
        !Word.value().compareAndSwap(Lease, pack(0, epochOf(Lease)),
                                     std::memory_order_release))
      LostLeases.fetch_add(1, std::memory_order_relaxed);
    MyLease[Tid].value().store(0, std::memory_order_relaxed);
  }

  std::uint32_t numThreads() const { return N; }

  /// Current holder id + 1, or 0 when free (test/debug aid).
  std::uint32_t holderForTesting() const {
    return holderOf(Word.value().peekForTesting());
  }

  /// Acquisition epoch of the current/last lease (test/debug aid).
  std::uint32_t epochForTesting() const {
    return epochOf(Word.value().peekForTesting());
  }

  /// Leases this lock revoked from suspected-dead holders.
  std::uint64_t revocations() const {
    return Revoked.load(std::memory_order_relaxed);
  }

  /// Unlocks that found their lease already revoked (false suspicions of
  /// live holders — fairness cost, never a safety cost).
  std::uint64_t lostLeases() const {
    return LostLeases.load(std::memory_order_relaxed);
  }

private:
  static constexpr std::uint32_t holderOf(std::uint64_t W) {
    return static_cast<std::uint32_t>(W & 0xffffffffu);
  }
  static constexpr std::uint32_t epochOf(std::uint64_t W) {
    return static_cast<std::uint32_t>(W >> 32);
  }
  static constexpr std::uint64_t pack(std::uint32_t Holder,
                                      std::uint32_t Epoch) {
    return (static_cast<std::uint64_t>(Epoch) << 32) | Holder;
  }

  static constexpr std::uint32_t MaxThreads = 64;

  const std::uint32_t N;
  SuspectSetT<Policy> *Suspects;
  CacheLinePadded<AtomicRegister<std::uint64_t, Policy>> Word;
  /// Lease each thread last took; local bookkeeping (plain atomics, not
  /// shared-access-counted — reading your own note is not a shared
  /// access in the paper's counting convention).
  CacheLinePadded<std::atomic<std::uint64_t>> MyLease[MaxThreads] = {};
  /// Harness-side accounting, deliberately uninstrumented.
  std::atomic<std::uint64_t> Revoked{0};
  std::atomic<std::uint64_t> LostLeases{0};
};

using LeasedLock = LeasedLockT<>;

} // namespace csobj

#endif // CSOBJ_LOCKS_LEASEDLOCK_H
