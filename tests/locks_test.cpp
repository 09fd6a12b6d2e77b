//===- tests/locks_test.cpp - Lock substrate tests -----------------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every lock is driven through the same mutual-exclusion and increment
/// torture tests via typed test suites; the Section 4.4 transformation
/// and the Figure 3 doorway get dedicated fairness tests.
///
//===----------------------------------------------------------------------===//

#include "locks/AbortableLock.h"
#include "locks/AndersonLock.h"
#include "locks/ClhLock.h"
#include "locks/LamportFastLock.h"
#include "locks/LockTraits.h"
#include "locks/McsLock.h"
#include "locks/PetersonLock.h"
#include "locks/RoundRobinArbiter.h"
#include "locks/StarvationFreeLock.h"
#include "locks/TasLock.h"
#include "locks/TicketLock.h"
#include "locks/TournamentLock.h"
#include "memory/AccessCounter.h"
#include "runtime/SpinBarrier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace csobj {
namespace {

// The lock contract is compile-time checked for every implementation.
static_assert(LockConcept<TasLock>);
static_assert(LockConcept<TtasLock>);
static_assert(LockConcept<TicketLock>);
static_assert(LockConcept<McsLock>);
static_assert(LockConcept<ClhLock>);
static_assert(LockConcept<TournamentLock>);
static_assert(LockConcept<AndersonLock>);
static_assert(LockConcept<AbortableTtasLock>);
static_assert(LockConcept<LamportFastLock>);
static_assert(LockConcept<StdMutexLock>);
static_assert(LockConcept<StarvationFreeLock<TasLock>>);
static_assert(LockConcept<StarvationFreeLock<LamportFastLock>>);
static_assert(LockConcept<StarvationFreeLock<Leasable>>);

template <typename L>
class LockTest : public ::testing::Test {};

using LockTypes =
    ::testing::Types<TasLock, TtasLock, BackoffTasLock, TicketLock, McsLock,
                     ClhLock, TournamentLock, AndersonLock,
                     AbortableTtasLock, LamportFastLock, StdMutexLock,
                     StarvationFreeLock<TasLock>,
                     StarvationFreeLock<TtasLock>,
                     StarvationFreeLock<LamportFastLock>,
                     StarvationFreeLock<AbortableTtasLock>,
                     StarvationFreeLock<Leasable>>;
TYPED_TEST_SUITE(LockTest, LockTypes);

TYPED_TEST(LockTest, SingleThreadLockUnlock) {
  TypeParam Lock(1);
  Lock.lock(0);
  Lock.unlock(0);
  Lock.lock(0);
  Lock.unlock(0);
}

TYPED_TEST(LockTest, MutualExclusionUnderContention) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t PerThread = 3000;
  TypeParam Lock(Threads);
  // Non-atomic counter: any mutual-exclusion violation loses increments.
  std::uint64_t Counter = 0;
  std::uint32_t InCritical = 0;
  bool Violation = false;
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < PerThread; ++I) {
        Lock.lock(T);
        if (++InCritical != 1)
          Violation = true;
        ++Counter;
        --InCritical;
        Lock.unlock(T);
      }
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_FALSE(Violation) << "two threads were in the critical section";
  EXPECT_EQ(Counter, static_cast<std::uint64_t>(Threads) * PerThread);
}

TYPED_TEST(LockTest, HandoffBetweenTwoThreads) {
  TypeParam Lock(2);
  std::uint64_t Shared = 0;
  std::thread A([&] {
    for (int I = 0; I < 1000; ++I) {
      Lock.lock(0);
      ++Shared;
      Lock.unlock(0);
    }
  });
  std::thread B([&] {
    for (int I = 0; I < 1000; ++I) {
      Lock.lock(1);
      ++Shared;
      Lock.unlock(1);
    }
  });
  A.join();
  B.join();
  EXPECT_EQ(Shared, 2000u);
}

//===----------------------------------------------------------------------===
// Peterson two-process lock
//===----------------------------------------------------------------------===

TEST(PetersonLockTest, MutualExclusionTwoThreads) {
  PetersonLock Lock;
  std::uint64_t Counter = 0;
  std::thread A([&] {
    for (int I = 0; I < 20000; ++I) {
      Lock.lock(0);
      ++Counter;
      Lock.unlock(0);
    }
  });
  std::thread B([&] {
    for (int I = 0; I < 20000; ++I) {
      Lock.lock(1);
      ++Counter;
      Lock.unlock(1);
    }
  });
  A.join();
  B.join();
  EXPECT_EQ(Counter, 40000u);
}

//===----------------------------------------------------------------------===
// Lamport's fast lock: the contention-free access-count claim from [16]
//===----------------------------------------------------------------------===

TEST(LamportFastLockTest, ContentionFreeAcquireIsFiveAccesses) {
  LamportFastLock Lock(8);
  const AccessCounts Counts = countAccesses([&] { Lock.lock(0); });
  // write b[i], write x, read y, write y, read x.
  EXPECT_EQ(Counts.total(), 5u);
  Lock.unlock(0);
}

TEST(LamportFastLockTest, ContentionFreeRoundTripIsSevenAccesses) {
  // The paper (Section 1.1) credits [16] with seven accesses in the
  // contention-free case: five to enter plus two to exit.
  LamportFastLock Lock(8);
  const AccessCounts Counts = countAccesses([&] {
    Lock.lock(3);
    Lock.unlock(3);
  });
  EXPECT_EQ(Counts.total(), 7u);
}

//===----------------------------------------------------------------------===
// Tournament lock structure
//===----------------------------------------------------------------------===

TEST(TournamentLockTest, LevelCountMatchesThreads) {
  EXPECT_EQ(TournamentLock(1).levels(), 1u);
  EXPECT_EQ(TournamentLock(2).levels(), 1u);
  EXPECT_EQ(TournamentLock(3).levels(), 2u);
  EXPECT_EQ(TournamentLock(4).levels(), 2u);
  EXPECT_EQ(TournamentLock(5).levels(), 3u);
  EXPECT_EQ(TournamentLock(8).levels(), 3u);
}

TEST(TournamentLockTest, ManyThreads) {
  constexpr std::uint32_t Threads = 7;
  TournamentLock Lock(Threads);
  std::uint64_t Counter = 0;
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (int I = 0; I < 2000; ++I) {
        Lock.lock(T);
        ++Counter;
        Lock.unlock(T);
      }
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Counter, static_cast<std::uint64_t>(Threads) * 2000);
}

//===----------------------------------------------------------------------===
// Abortable mutual exclusion ([13]'s contract on a TTAS base)
//===----------------------------------------------------------------------===

TEST(AbortableLockTest, TryLockSucceedsWhenFree) {
  AbortableTtasLock Lock;
  EXPECT_TRUE(Lock.tryLock(0, 1));
  EXPECT_TRUE(Lock.heldForTesting());
  Lock.unlock(0);
  EXPECT_FALSE(Lock.heldForTesting());
}

TEST(AbortableLockTest, TryLockAbortsWhenHeld) {
  AbortableTtasLock Lock;
  Lock.lock(0);
  // Entry code abandoned: returns false, leaves no trace.
  EXPECT_FALSE(Lock.tryLock(1, 4));
  Lock.unlock(0);
  // The aborted attempt did not damage liveness: acquisition works.
  EXPECT_TRUE(Lock.tryLock(1, 1));
  Lock.unlock(1);
}

TEST(AbortableLockTest, AbortedWaitersDoNotBlockOthers) {
  AbortableTtasLock Lock;
  Lock.lock(0);
  // Several processes try and give up while the lock is held.
  std::vector<std::thread> Quitters;
  for (std::uint32_t T = 1; T <= 3; ++T)
    Quitters.emplace_back([&Lock, T] {
      EXPECT_FALSE(Lock.tryLock(T, 8));
    });
  for (auto &Q : Quitters)
    Q.join();
  Lock.unlock(0);
  // Liveness unaffected by the three aborted entries.
  EXPECT_TRUE(Lock.tryLock(2, 1));
  Lock.unlock(2);
}

//===----------------------------------------------------------------------===
// RoundRobinArbiter: the Figure 3 doorway
//===----------------------------------------------------------------------===

TEST(RoundRobinArbiterTest, SoloEnterExitsImmediately) {
  RoundRobinArbiter Arbiter(4);
  Arbiter.enter(2); // TURN=0, FLAG[0]=false: passes without waiting.
  EXPECT_TRUE(Arbiter.flagForTesting(2));
  Arbiter.exitAndAdvance(2);
  EXPECT_FALSE(Arbiter.flagForTesting(2));
}

TEST(RoundRobinArbiterTest, TurnAdvancesRoundRobin) {
  RoundRobinArbiter Arbiter(3);
  EXPECT_EQ(Arbiter.turnForTesting(), 0u);
  Arbiter.enter(1);
  Arbiter.exitAndAdvance(1); // FLAG[0] false -> TURN advances to 1.
  EXPECT_EQ(Arbiter.turnForTesting(), 1u);
  Arbiter.enter(0);
  Arbiter.exitAndAdvance(0); // FLAG[1] false -> TURN advances to 2.
  EXPECT_EQ(Arbiter.turnForTesting(), 2u);
  Arbiter.enter(2);
  Arbiter.exitAndAdvance(2); // Wraps around the ring.
  EXPECT_EQ(Arbiter.turnForTesting(), 0u);
}

TEST(RoundRobinArbiterTest, TurnHeldForFlaggedProcess) {
  RoundRobinArbiter Arbiter(3);
  // Thread 0 announces interest but has not exited; TURN stays 0 when
  // another thread leaves (line 11's FLAG[TURN] check).
  Arbiter.enter(0);
  std::thread Other([&] {
    Arbiter.enter(1); // TURN=0 but FLAG[0]=true... wait: passes only
                      // when TURN==1 or !FLAG[TURN]. FLAG[0] is true, so
                      // this blocks until 0 leaves -- run 0's exit below.
  });
  // Give the waiter a moment to park, then let 0 exit: TURN must still
  // point at 0 during the wait (0 holds priority).
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(Arbiter.turnForTesting(), 0u);
  Arbiter.exitAndAdvance(0);
  Other.join();
  Arbiter.exitAndAdvance(1);
}

//===----------------------------------------------------------------------===
// Section 4.4: starvation-freedom of the transformed lock
//===----------------------------------------------------------------------===

TEST(StarvationFreeLockTest, BypassPerAcquisitionIsBounded) {
  // Starvation-freedom promises bounded bypass, not balanced counts: a
  // waiter is overtaken a bounded number of times between its FLAG write
  // (line 04) and its own entry, however the scheduler treats it. The
  // bound follows from the TURN ring argument of Lemma 3. Let waiter i
  // raise FLAG[i] at t0 and enter at e. Exits are serialized (lines
  // 10-11 run before the inner unlock), and TURN moves only there, by
  // one ring position, and only when FLAG[TURN] = 0:
  //  (a) TURN cannot move past i while FLAG[i] = 1, so during [t0, e]
  //      it advances at most n-1 times (from wherever it was to i).
  //  (b) Between two consecutive entries of another process j in
  //      [t0, e], TURN advances at least once. At j's exit either
  //      FLAG[TURN] = 0 and j advances TURN itself, or TURN = k with
  //      FLAG[k] = 1. Then j's next doorway pass reads TURN = k and can
  //      only proceed after FLAG[k] drops. That happens at k's own exit,
  //      which finds TURN = k and advances it.
  // So each of the n-1 other processes enters at most 1 + (n-1) = n
  // times in [t0, e]: bypass <= n(n-1). The measurement below counts,
  // inside every critical section, the processes whose FLAG is raised.
  // That may also charge them for the section already running at their
  // FLAG write, hence the +1.
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint64_t Bound = Threads * (Threads - 1) + 1;
  StarvationFreeLock<TasLock> Lock(Threads);
  // Guarded by Lock: overtakes charged to each current waiter, and the
  // worst charge any acquisition carried into its critical section.
  std::vector<std::uint64_t> Overtaken(Threads, 0);
  std::vector<std::uint64_t> WorstBypass(Threads, 0);
  std::vector<std::uint64_t> Acquisitions(Threads, 0);
  std::atomic<bool> Stop{false};
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      while (!Stop.load(std::memory_order_relaxed)) {
        Lock.lock(T);
        WorstBypass[T] = std::max(WorstBypass[T], Overtaken[T]);
        Overtaken[T] = 0;
        for (std::uint32_t W = 0; W < Threads; ++W)
          if (W != T && Lock.arbiter().flagForTesting(W))
            ++Overtaken[W];
        ++Acquisitions[T];
        Lock.unlock(T);
      }
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  Stop.store(true);
  for (auto &W : Workers)
    W.join();
  for (std::uint32_t T = 0; T < Threads; ++T) {
    EXPECT_GT(Acquisitions[T], 0u) << "thread " << T << " never entered";
    EXPECT_LE(WorstBypass[T], Bound) << "thread " << T << " overtaken";
  }
}

TEST(StarvationFreeLockTest, EveryThreadCompletesFixedWorkload) {
  constexpr std::uint32_t Threads = 6;
  constexpr std::uint32_t PerThread = 500;
  StarvationFreeLock<TtasLock> Lock(Threads);
  std::uint64_t Counter = 0;
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < PerThread; ++I) {
        Lock.lock(T);
        ++Counter;
        Lock.unlock(T);
      }
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Counter, static_cast<std::uint64_t>(Threads) * PerThread);
}

//===----------------------------------------------------------------------===
// Leasable variant: the Section 4.4 transform over LeasedLock +
// RecoverableArbiter (crash recovery folded into the lock adapter)
//===----------------------------------------------------------------------===

TEST(LeasableStarvationFreeLockTest, RevokesCorpseLeaseAndRecovers) {
  // Small logical patience so the corpse is detected in a few dozen
  // observations rather than the wall-clock-safe default.
  using LeasableLock = StarvationFreeLock<LeasableTag<16>>;
  LeasableLock Lock(3);
  // Thread 0 "crashes" holding the lock: acquires and never unlocks.
  Lock.lock(0);
  EXPECT_EQ(Lock.inner().holderForTesting(), 1u);
  // A survivor's first bounded round spends its doorway patience on the
  // corpse's flag (skipping it once suspected), then its lease patience
  // on the stale lease: the round times out but revokes the lease.
  EXPECT_EQ(Lock.lockBounded(1), LeaseAcquire::TimedOut);
  EXPECT_TRUE(Lock.suspects().isSuspectForTesting(0));
  EXPECT_EQ(Lock.inner().revocations(), 1u);
  EXPECT_EQ(Lock.inner().holderForTesting(), 0u) << "lease not revoked";
  // The next round finds the lock healed and acquires.
  EXPECT_EQ(Lock.lockBounded(1), LeaseAcquire::Acquired);
  Lock.unlock(1);
  // The unbounded LockConcept entry point also terminates post-crash.
  Lock.lock(2);
  Lock.unlock(2);
}

TEST(LeasableStarvationFreeLockTest, DoorwayTimeoutIsReportedApart) {
  StarvationFreeLock<LeasableTag<4>> Lock(3);
  // Two corpses with raised flags wedge the doorway (see
  // RecoverableArbiterTest.EntryIsBoundedAfterTwoSuspicionRounds): the
  // round ends in the doorway, the lease is never tried.
  ASSERT_TRUE(Lock.arbiter().enterBounded(1, 4));
  ASSERT_TRUE(Lock.arbiter().enterBounded(0, 4));
  EXPECT_EQ(Lock.lockBounded(2), LeaseAcquire::DoorwayTimedOut);
  EXPECT_EQ(Lock.inner().holderForTesting(), 0u);
  EXPECT_FALSE(Lock.arbiter().flagForTesting(2));
}

TEST(LeasableStarvationFreeLockTest, FalseSuspicionCostsOnlyTheLease) {
  using LeasableLock = StarvationFreeLock<LeasableTag<16>>;
  LeasableLock Lock(2);
  Lock.lock(0);
  // Thread 1 loses patience with the (actually alive) holder and
  // revokes. Thread 0 then "resurrects": its unlock finds the lease
  // gone, which is counted, never trapped.
  EXPECT_EQ(Lock.lockBounded(1), LeaseAcquire::TimedOut);
  EXPECT_EQ(Lock.inner().revocations(), 1u);
  Lock.unlock(0);
  EXPECT_EQ(Lock.inner().lostLeases(), 1u);
  // Both threads keep working; thread 0's next entry resurrects it.
  Lock.lock(0);
  EXPECT_FALSE(Lock.suspects().isSuspectForTesting(0));
  Lock.unlock(0);
  Lock.lock(1);
  Lock.unlock(1);
}

} // namespace
} // namespace csobj
