//===- tests/batch_test.cpp - Group-operation (batch) seam tests ---------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
//
// The batch APIs (push_all / pop_all / drain / enqueue_all / add_all)
// promise three things, each checked here:
//
//  * spec equivalence — a batch of k linearizes as k contiguous ops in
//    index order, so any single-threaded mix of solo and batch calls
//    must replay exactly against the sequential model;
//  * prefix semantics — a bounded object stops a batch at its first
//    Full/Empty answer (partial fill), and a crash mid-batch leaves a
//    *prefix* of the batch in shared memory, never a gap;
//  * seam accounting — the contended remainder retires through ONE seam
//    acquisition booked as the Batched path with a group-size histogram
//    entry, and the conservation laws (ops == Σ paths, Batched ==
//    histogram element sum) survive arbitrary batch/solo interleaving.
//
// Solo batches must stay on the six-access fast path per element — the
// access-count cells at the bottom pin that down.
//
//===----------------------------------------------------------------------===//

#include "core/ContentionSensitiveCounter.h"
#include "core/ContentionSensitiveDeque.h"
#include "core/ContentionSensitiveQueue.h"
#include "core/ContentionSensitiveStack.h"
#include "faults/FaultInjector.h"
#include "memory/AccessCounter.h"
#include "memory/ChaosHook.h"
#include "perf/AdaptiveShardedStack.h"
#include "perf/CombiningObjects.h"
#include "runtime/SpinBarrier.h"
#include "sched/InterleaveScheduler.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <thread>
#include <vector>

namespace csobj {
namespace {

//===----------------------------------------------------------------------===
// Spec equivalence: solo + batch mixes replay against the sequential model
//===----------------------------------------------------------------------===

TEST(BatchSpec, StackMixedSoloAndBatchMatchesModel) {
  ContentionSensitiveStack<> S(2, 32);
  std::vector<std::uint32_t> Model;
  SplitMix64 Rng(0xBA7C4ull);
  std::uint32_t NextV = 1;
  for (std::uint32_t Round = 0; Round < 400; ++Round) {
    switch (Rng.below(4)) {
    case 0: { // solo push
      const std::uint32_t V = NextV++;
      const PushResult Res = S.push(0, V);
      if (Model.size() < 32) {
        ASSERT_EQ(Res, PushResult::Done);
        Model.push_back(V);
      } else {
        ASSERT_EQ(Res, PushResult::Full);
      }
      break;
    }
    case 1: { // solo pop
      const PopResult<std::uint32_t> Res = S.pop(0);
      if (Model.empty()) {
        ASSERT_TRUE(Res.isEmpty());
      } else {
        ASSERT_TRUE(Res.isValue());
        ASSERT_EQ(Res.value(), Model.back());
        Model.pop_back();
      }
      break;
    }
    case 2: { // batch push
      const std::size_t K = Rng.below(9) + 1;
      std::vector<std::uint32_t> Vs(K);
      for (auto &V : Vs)
        V = NextV++;
      const std::size_t Pushed = S.push_all(0, Vs.data(), K);
      const std::size_t Room = 32 - Model.size();
      ASSERT_EQ(Pushed, std::min(K, Room));
      Model.insert(Model.end(), Vs.begin(), Vs.begin() + Pushed);
      break;
    }
    default: { // batch pop
      const std::size_t K = Rng.below(9) + 1;
      std::vector<std::uint32_t> Out(K);
      const std::size_t Got = S.pop_all(0, Out.data(), K);
      ASSERT_EQ(Got, std::min(K, Model.size()));
      for (std::size_t I = 0; I < Got; ++I) {
        ASSERT_EQ(Out[I], Model.back()) << "LIFO order within the batch";
        Model.pop_back();
      }
      break;
    }
    }
  }
  ASSERT_EQ(S.sizeForTesting(), Model.size());
  EXPECT_TRUE(S.pathSnapshot().conserves());
}

TEST(BatchSpec, QueueMixedSoloAndBatchMatchesModel) {
  ContentionSensitiveQueue<> Q(2, 16);
  std::deque<std::uint32_t> Model;
  SplitMix64 Rng(0xBA7C5ull);
  std::uint32_t NextV = 1;
  for (std::uint32_t Round = 0; Round < 400; ++Round) {
    switch (Rng.below(4)) {
    case 0: {
      const std::uint32_t V = NextV++;
      const PushResult Res = Q.enqueue(0, V);
      if (Model.size() < 16) {
        ASSERT_EQ(Res, PushResult::Done);
        Model.push_back(V);
      } else {
        ASSERT_EQ(Res, PushResult::Full);
      }
      break;
    }
    case 1: {
      const PopResult<std::uint32_t> Res = Q.dequeue(0);
      if (Model.empty()) {
        ASSERT_TRUE(Res.isEmpty());
      } else {
        ASSERT_TRUE(Res.isValue());
        ASSERT_EQ(Res.value(), Model.front());
        Model.pop_front();
      }
      break;
    }
    case 2: {
      const std::size_t K = Rng.below(7) + 1;
      std::vector<std::uint32_t> Vs(K);
      for (auto &V : Vs)
        V = NextV++;
      const std::size_t Added = Q.enqueue_all(0, Vs.data(), K);
      ASSERT_EQ(Added, std::min(K, 16 - Model.size()));
      Model.insert(Model.end(), Vs.begin(), Vs.begin() + Added);
      break;
    }
    default: {
      const std::size_t K = Rng.below(7) + 1;
      std::vector<std::uint32_t> Out(K);
      const std::size_t Got = Q.dequeue_all(0, Out.data(), K);
      ASSERT_EQ(Got, std::min(K, Model.size()));
      for (std::size_t I = 0; I < Got; ++I) {
        ASSERT_EQ(Out[I], Model.front()) << "FIFO order within the batch";
        Model.pop_front();
      }
      break;
    }
    }
  }
  ASSERT_EQ(Q.sizeForTesting(), Model.size());
  EXPECT_TRUE(Q.pathSnapshot().conserves());
}

TEST(BatchSpec, DequeRightEndMixedSoloAndBatchMatchesModel) {
  // All capacity on the right end: push_all/pop_all work that end.
  ContentionSensitiveDeque<> D(2, 32, /*InitialLeftSlots=*/0);
  std::vector<std::uint32_t> Model;
  SplitMix64 Rng(0xBA7C6ull);
  std::uint32_t NextV = 1;
  for (std::uint32_t Round = 0; Round < 300; ++Round) {
    switch (Rng.below(4)) {
    case 0: {
      const std::uint32_t V = NextV++;
      const PushResult Res = D.pushRight(0, V);
      if (Model.size() < 32) {
        ASSERT_EQ(Res, PushResult::Done);
        Model.push_back(V);
      } else {
        ASSERT_EQ(Res, PushResult::Full);
      }
      break;
    }
    case 1: {
      const PopResult<std::uint32_t> Res = D.popRight(0);
      if (Model.empty()) {
        ASSERT_TRUE(Res.isEmpty());
      } else {
        ASSERT_TRUE(Res.isValue());
        ASSERT_EQ(Res.value(), Model.back());
        Model.pop_back();
      }
      break;
    }
    case 2: {
      const std::size_t K = Rng.below(7) + 1;
      std::vector<std::uint32_t> Vs(K);
      for (auto &V : Vs)
        V = NextV++;
      const std::size_t Pushed = D.push_all(0, Vs.data(), K);
      ASSERT_EQ(Pushed, std::min(K, 32 - Model.size()));
      Model.insert(Model.end(), Vs.begin(), Vs.begin() + Pushed);
      break;
    }
    default: {
      const std::size_t K = Rng.below(7) + 1;
      std::vector<std::uint32_t> Out(K);
      const std::size_t Got = D.pop_all(0, Out.data(), K);
      ASSERT_EQ(Got, std::min(K, Model.size()));
      for (std::size_t I = 0; I < Got; ++I) {
        ASSERT_EQ(Out[I], Model.back());
        Model.pop_back();
      }
      break;
    }
    }
  }
  ASSERT_EQ(D.sizeForTesting(), Model.size());
  EXPECT_TRUE(D.pathSnapshot().conserves());
}

TEST(BatchSpec, CounterBatchReturnsRunningPostAddValues) {
  ContentionSensitiveCounter<> C(2);
  std::uint64_t Model = 0;
  SplitMix64 Rng(0xBA7C7ull);
  for (std::uint32_t Round = 0; Round < 200; ++Round) {
    if (Rng.chance(1, 2)) {
      const std::uint64_t Delta = Rng.below(100) + 1;
      Model += Delta;
      ASSERT_EQ(C.add(0, Delta), Model);
    } else {
      const std::size_t K = Rng.below(8) + 1;
      std::vector<std::uint64_t> Deltas(K), NewValues(K);
      for (auto &Delta : Deltas)
        Delta = Rng.below(100) + 1;
      ASSERT_EQ(C.add_all(0, Deltas.data(), K, NewValues.data()), K);
      for (std::size_t I = 0; I < K; ++I) {
        Model += Deltas[I];
        ASSERT_EQ(NewValues[I], Model)
            << "post-add values must run in index order";
      }
    }
  }
  ASSERT_EQ(C.valueForTesting(), Model);
  EXPECT_TRUE(C.pathSnapshot().conserves());
}

//===----------------------------------------------------------------------===
// Prefix semantics at the boundary: partial fill, never a gap
//===----------------------------------------------------------------------===

TEST(BatchBoundary, BoundedStackAcceptsExactlyThePrefix) {
  ContentionSensitiveStack<> S(2, 4);
  const std::uint32_t Vs[6] = {10, 20, 30, 40, 50, 60};
  EXPECT_EQ(S.push_all(0, Vs, 6), 4u) << "capacity 4: the suffix is rejected";
  EXPECT_EQ(S.sizeForTesting(), 4u);
  std::uint32_t Out[6] = {};
  EXPECT_EQ(S.pop_all(0, Out, 6), 4u);
  EXPECT_EQ(Out[0], 40u);
  EXPECT_EQ(Out[1], 30u);
  EXPECT_EQ(Out[2], 20u);
  EXPECT_EQ(Out[3], 10u);
  EXPECT_TRUE(S.pathSnapshot().conserves());
}

TEST(BatchBoundary, BoundedQueueAcceptsExactlyThePrefix) {
  ContentionSensitiveQueue<> Q(2, 4);
  const std::uint32_t Vs[6] = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(Q.enqueue_all(0, Vs, 6), 4u);
  std::uint32_t Out[6] = {};
  EXPECT_EQ(Q.drain(0, Out, 6), 4u);
  for (std::uint32_t I = 0; I < 4; ++I)
    EXPECT_EQ(Out[I], Vs[I]) << "FIFO prefix";
  EXPECT_TRUE(Q.pathSnapshot().conserves());
}

TEST(BatchBoundary, DrainOnEmptyReturnsZero) {
  ContentionSensitiveStack<> S(2, 4);
  std::uint32_t Out[4] = {};
  EXPECT_EQ(S.drain(0, Out, 4), 0u);
  CombiningStack<> C(2, 4);
  EXPECT_EQ(C.drain(0, Out, 4), 0u);
}

//===----------------------------------------------------------------------===
// Crash mid-batch: shared memory holds a prefix of the batch
//===----------------------------------------------------------------------===

/// Sweep a crash point over every shared access of a solo push_all(4):
/// whatever lands in the stack must be Vs[0..m) for some m — elements
/// are applied in index order, so no gap and no reordering survives.
TEST(BatchCrash, SoloCrashSweepLeavesIndexOrderPrefix) {
  const std::uint32_t Vs[4] = {11, 22, 33, 44};
  for (std::uint64_t K = 0; K < 30; ++K) {
    ContentionSensitiveStack<> S(2, 8);
    FaultClock Clock;
    FaultInjector Injector(FaultPlan::crashAt(0, K), 0, Clock);
    bool Crashed = false;
    std::size_t Pushed = 0;
    {
      SchedHookScope Scope(Injector);
      try {
        Pushed = S.push_all(0, Vs, 4);
      } catch (const ProcessCrash &) {
        Crashed = true;
      }
    }
    // Drain directly through the weak object (the crashed "process" may
    // still hold the lock; the weak ops do not need it).
    std::vector<std::uint32_t> Drained;
    while (true) {
      const PopResult<std::uint32_t> Res = S.abortable().weakPop();
      ASSERT_FALSE(Res.isAbort()) << "solo weak pop cannot abort";
      if (Res.isEmpty())
        break;
      Drained.push_back(Res.value());
    }
    // LIFO drain of a prefix push: reversed Vs[0..m).
    const std::size_t M = Drained.size();
    ASSERT_LE(M, 4u);
    for (std::size_t I = 0; I < M; ++I)
      ASSERT_EQ(Drained[I], Vs[M - 1 - I])
          << "crash at access " << K << " left a non-prefix state";
    if (!Crashed) {
      EXPECT_EQ(Pushed, 4u);
      EXPECT_EQ(M, 4u);
    }
  }
}

/// Crash the batcher *inside the lock-protected group phase*: T0's
/// element-0 shortcut is invalidated by T1's push, so T0 enters the
/// doorway/lock seam with the whole batch; a KillFlag crash at every
/// offset inside that tenure must leave T1's element at the bottom and
/// an index-order prefix of the batch above it.
TEST(BatchCrash, LockSeamCrashSweepLeavesPrefixOverForeignPush) {
  const std::uint32_t Vs[4] = {10, 20, 30, 40};
  for (std::uint32_t J = 1; J <= 40; ++J) {
    ContentionSensitiveStack<> S(2, 8);
    std::uint32_t Grants0 = 0;
    InterleaveScheduler Scheduler(2);
    Scheduler.run(
        {[&] { (void)S.push_all(0, Vs, 4); },
         [&] { (void)S.push(1, 99); }},
        [&](std::size_t, const std::vector<std::uint32_t> &Parked)
            -> std::uint32_t {
          const bool Has0 =
              std::find(Parked.begin(), Parked.end(), 0u) != Parked.end();
          const bool Has1 =
              std::find(Parked.begin(), Parked.end(), 1u) != Parked.end();
          // T0: CONTENTION read + 4 weak-push accesses of element 0,
          // parking just before its TOP C&S...
          if (Grants0 < 5 && Has0) {
            ++Grants0;
            return 0;
          }
          // ...then T1 pushes 99 to completion...
          if (Has1)
            return 1;
          // ...then T0 aborts into the group seam; kill it J accesses in.
          if (Has0) {
            if (++Grants0 == 5 + J)
              return 0 | InterleaveScheduler::KillFlag;
            return 0;
          }
          return Parked.front();
        });
    std::vector<std::uint32_t> Drained;
    while (true) {
      const PopResult<std::uint32_t> Res = S.abortable().weakPop();
      ASSERT_FALSE(Res.isAbort());
      if (Res.isEmpty())
        break;
      Drained.push_back(Res.value());
    }
    ASSERT_GE(Drained.size(), 1u) << "T1's completed push must survive";
    ASSERT_EQ(Drained.back(), 99u)
        << "foreign element must sit below the batch prefix";
    const std::size_t M = Drained.size() - 1;
    ASSERT_LE(M, 4u);
    for (std::size_t I = 0; I < M; ++I)
      ASSERT_EQ(Drained[I], Vs[M - 1 - I])
          << "kill offset " << J << " left a non-prefix state";
  }
}

//===----------------------------------------------------------------------===
// Seam accounting: one Batched group per contended remainder
//===----------------------------------------------------------------------===

/// Figure 3 seam: T1 invalidates T0's element-0 shortcut, so the whole
/// 4-op batch retires under ONE doorway/lock tenure booked as one
/// Batched group of 4 (not four Lock retirements).
TEST(BatchAccounting, LockSeamBooksOneGroupOfFour) {
  ContentionSensitiveStack<> S(2, 8);
  const std::uint32_t Vs[4] = {10, 20, 30, 40};
  std::size_t Pushed = 0;
  std::uint32_t Grants0 = 0;
  InterleaveScheduler Scheduler(2);
  Scheduler.run(
      {[&] { Pushed = S.push_all(0, Vs, 4); },
       [&] { (void)S.push(1, 99); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        const bool Has0 =
            std::find(Parked.begin(), Parked.end(), 0u) != Parked.end();
        const bool Has1 =
            std::find(Parked.begin(), Parked.end(), 1u) != Parked.end();
        if (Grants0 < 5 && Has0) {
          ++Grants0;
          return 0;
        }
        if (Has1)
          return 1;
        return Parked.front();
      });
  EXPECT_EQ(Pushed, 4u);
  EXPECT_EQ(S.sizeForTesting(), 5u);
  if constexpr (obs::MetricsEnabled) {
    const obs::PathSnapshot Snap = S.pathSnapshot();
    EXPECT_EQ(Snap.Ops, 5u) << "one solo op + four batch elements";
    EXPECT_EQ(Snap.path(obs::Path::Shortcut), 1u) << "T1's solo push";
    EXPECT_EQ(Snap.path(obs::Path::Batched), 4u);
    EXPECT_EQ(Snap.path(obs::Path::Lock), 0u)
        << "the group retires as Batched, not as four Lock ops";
    EXPECT_EQ(Snap.batchCount(), 1u) << "exactly one group booked";
    EXPECT_EQ(Snap.BatchOps, 4u);
    EXPECT_EQ(Snap.BatchMax, 4u);
    EXPECT_DOUBLE_EQ(Snap.batchMean(), 4.0);
    EXPECT_TRUE(Snap.conserves());
  }
  // The batch linearized after T1's push, contiguously: LIFO drain is
  // reversed batch order then 99.
  std::uint32_t Out[8] = {};
  ASSERT_EQ(S.drain(0, Out, 8), 5u);
  EXPECT_EQ(Out[0], 40u);
  EXPECT_EQ(Out[1], 30u);
  EXPECT_EQ(Out[2], 20u);
  EXPECT_EQ(Out[3], 10u);
  EXPECT_EQ(Out[4], 99u);
}

/// Flat-combining seam: the aborted batcher publishes ONE record carrying
/// all 4 remaining ops and (nobody else publishing) combines itself —
/// one combiner tenure, one batch record, four combined ops.
TEST(BatchAccounting, CombiningSeamPublishesOneRecordForTheGroup) {
  CombiningStack<> S(2, 8);
  const std::uint32_t Vs[4] = {10, 20, 30, 40};
  std::size_t Pushed = 0;
  std::uint32_t Grants0 = 0;
  InterleaveScheduler Scheduler(2);
  Scheduler.run(
      {[&] { Pushed = S.push_all(0, Vs, 4); },
       [&] { (void)S.push(1, 99); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        const bool Has0 =
            std::find(Parked.begin(), Parked.end(), 0u) != Parked.end();
        const bool Has1 =
            std::find(Parked.begin(), Parked.end(), 1u) != Parked.end();
        if (Grants0 < 5 && Has0) {
          ++Grants0;
          return 0;
        }
        if (Has1)
          return 1;
        return Parked.front();
      });
  EXPECT_EQ(Pushed, 4u);
  EXPECT_EQ(S.sizeForTesting(), 5u);
  EXPECT_EQ(S.skeleton().batchesForTesting(), 1u)
      << "one combiner tenure served the whole group";
  EXPECT_EQ(S.skeleton().combinedOpsForTesting(), 4u)
      << "all four group elements count as combined ops";
  EXPECT_FALSE(S.skeleton().contentionForTesting());
  if constexpr (obs::MetricsEnabled) {
    const obs::PathSnapshot Snap = S.pathSnapshot();
    EXPECT_EQ(Snap.Ops, 5u);
    EXPECT_EQ(Snap.path(obs::Path::Shortcut), 1u);
    EXPECT_EQ(Snap.path(obs::Path::Batched), 4u);
    EXPECT_EQ(Snap.path(obs::Path::Combined), 0u)
        << "a batched group books Batched, not per-op Combined";
    EXPECT_EQ(Snap.batchCount(), 1u);
    EXPECT_EQ(Snap.BatchOps, 4u);
    EXPECT_TRUE(Snap.conserves());
  }
}

/// Conservation stress: real threads mixing solo ops and batches under
/// chaos-injected preemption. The conservation laws — including the new
/// Batched == Σ histogram one — must hold at quiesce, and at least one
/// batch must have retired through the contended (Batched) seam.
template <typename StackT>
void runBatchSoloConservationStress(StackT &S, std::uint32_t Threads,
                                    std::uint32_t Rounds) {
  std::vector<std::int64_t> Balance(Threads, 0);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      ChaosHook Chaos(/*Seed=*/0xC0FFEEull + T, /*YieldPermille=*/300);
      SchedHookScope Scope(Chaos);
      Barrier.arriveAndWait();
      SplitMix64 Rng(0xD1CEull + T);
      std::uint32_t Buf[8];
      for (std::uint32_t I = 0; I < Rounds; ++I) {
        switch (Rng.below(4)) {
        case 0: {
          if (S.push(T, static_cast<std::uint32_t>(Rng.below(1u << 16)) + 1) ==
              PushResult::Done)
            ++Balance[T];
          break;
        }
        case 1: {
          if (S.pop(T).isValue())
            --Balance[T];
          break;
        }
        case 2: {
          const std::size_t K = Rng.below(8) + 1;
          for (std::size_t V = 0; V < K; ++V)
            Buf[V] = static_cast<std::uint32_t>(Rng.below(1u << 16)) + 1;
          Balance[T] +=
              static_cast<std::int64_t>(S.push_all(T, Buf, K));
          break;
        }
        default: {
          const std::size_t K = Rng.below(8) + 1;
          Balance[T] -=
              static_cast<std::int64_t>(S.pop_all(T, Buf, K));
          break;
        }
        }
      }
    });
  for (auto &W : Workers)
    W.join();
  std::int64_t Net = 0;
  for (const std::int64_t B : Balance)
    Net += B;
  ASSERT_GE(Net, 0);
  EXPECT_EQ(S.sizeForTesting(), static_cast<std::uint32_t>(Net));
  const obs::PathSnapshot Snap = S.pathSnapshot();
  EXPECT_TRUE(Snap.conserves())
      << "ops=" << Snap.Ops << " pathTotal=" << Snap.pathTotal()
      << " batched=" << Snap.path(obs::Path::Batched)
      << " batchOps=" << Snap.BatchOps;
  EXPECT_EQ(Snap.path(obs::Path::Batched), Snap.BatchOps);
}

TEST(BatchAccounting, ConservationHoldsUnderMixedChaosFigureThree) {
  ContentionSensitiveStack<> S(4, 64);
  runBatchSoloConservationStress(S, 4, 400);
}

TEST(BatchAccounting, ConservationHoldsUnderMixedChaosCombining) {
  CombiningStack<> S(4, 64);
  runBatchSoloConservationStress(S, 4, 400);
}

//===----------------------------------------------------------------------===
// Sharded facade: batches fan out across shards, leftovers stay correct
//===----------------------------------------------------------------------===

TEST(BatchSharded, BatchFansOutAcrossShardsAndConserves) {
  AdaptiveShardedStack<2> S(2, 8, /*InitialShards=*/2, /*SlotCount=*/1,
                            /*SpinBudget=*/4);
  std::uint32_t Vs[10];
  for (std::uint32_t I = 0; I < 10; ++I)
    Vs[I] = I + 1;
  // Exactly-capacity batch fills both shards through their group seams.
  EXPECT_EQ(S.push_all(0, Vs, 8), 8u);
  EXPECT_EQ(S.shard(0).sizeForTesting(), 4u);
  EXPECT_EQ(S.shard(1).sizeForTesting(), 4u);
  std::uint32_t Out[10] = {};
  EXPECT_EQ(S.pop_all(0, Out, 10), 8u);
  std::vector<std::uint32_t> Got(Out, Out + 8);
  std::sort(Got.begin(), Got.end());
  EXPECT_EQ(Got, (std::vector<std::uint32_t>{1, 2, 3, 4, 5, 6, 7, 8}))
      << "bag conservation across the fan-out";
  EXPECT_EQ(S.sizeForTesting(), 0u);

  // Overflow batch: the first 8 land, the suffix is rejected via the
  // facade's certified all-full answer.
  EXPECT_EQ(S.push_all(0, Vs, 10), 8u);
  EXPECT_EQ(S.sizeForTesting(), 8u);
  EXPECT_EQ(S.drain(1, Out, 10), 8u);
  EXPECT_TRUE(S.pathSnapshot().conserves());
}

/// Regression for the dropped fallback accounting: a batch element that
/// lands through the facade's per-element boundary loop (here: an empty
/// bag, where pop_all's seam finds nothing but the fallback pop is fed
/// by a parked push through the balancer) must still be booked as group
/// work. Before the fix, the fallback suffix vanished from path_batched
/// and the group histogram while conservation still held — so this test
/// pins the group-accounting claim itself, not just conserves().
TEST(BatchSharded, FallbackSuffixIsBookedAsGroupWork) {
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/2, /*SlotCount=*/1,
                            /*SpinBudget=*/8);
  S.forceBalancerForTesting(true);
  std::optional<PushResult> Pushed;
  std::uint32_t Out[2] = {};
  std::size_t Got = 0;
  std::uint32_t GiverGrants = 0;
  InterleaveScheduler Scheduler(2);
  Scheduler.run(
      {[&] { Pushed = S.push(0, 42); }, [&] { Got = S.pop_all(1, Out, 1); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        const bool HasGiver =
            std::find(Parked.begin(), Parked.end(), 0u) != Parked.end();
        const bool HasTaker =
            std::find(Parked.begin(), Parked.end(), 1u) != Parked.end();
        // The giver parks 42 in the slot, then the batch's fallback pop
        // matches it — the element retires through the facade loop, not
        // a shard group seam.
        if (GiverGrants < 2 && HasGiver) {
          ++GiverGrants;
          return 0;
        }
        if (HasTaker)
          return 1;
        return Parked.front();
      });
  ASSERT_TRUE(Pushed.has_value());
  EXPECT_EQ(*Pushed, PushResult::Done);
  ASSERT_EQ(Got, 1u);
  EXPECT_EQ(Out[0], 42u);
  if constexpr (obs::MetricsEnabled) {
    const obs::PathSnapshot Snap = S.pathSnapshot();
    EXPECT_EQ(Snap.path(obs::Path::Batched), 1u)
        << "the fallback element must count as group work";
    EXPECT_EQ(Snap.batchCount(), 1u) << "one group histogram entry";
    EXPECT_EQ(Snap.BatchMax, 1u);
    EXPECT_TRUE(Snap.conserves());
  }
}

/// The same facade unpinned: the batch must grow the mask mid-batch, not
/// stop at the one-shard mask.
TEST(BatchSharded, AdaptiveFacadeBatchesFanOutAndConserve) {
  AdaptiveShardedStack<2> S(2, 8, /*InitialShards=*/1, /*SlotCount=*/1,
                            /*SpinBudget=*/4);
  std::uint32_t Vs[10];
  for (std::uint32_t I = 0; I < 10; ++I)
    Vs[I] = I + 1;
  // The batch overflows the one-shard mask: the seam fills shard 0, the
  // fallback pushes grow the mask and land the rest, and the suffix is
  // rejected only at the full mask.
  EXPECT_EQ(S.push_all(0, Vs, 10), 8u);
  EXPECT_EQ(S.activeShards(), 2u) << "a full batch must grow, not stop";
  EXPECT_EQ(S.sizeForTesting(), 8u);
  std::uint32_t Out[10] = {};
  EXPECT_EQ(S.pop_all(0, Out, 10), 8u);
  std::vector<std::uint32_t> Drained(Out, Out + 8);
  std::sort(Drained.begin(), Drained.end());
  EXPECT_EQ(Drained,
            (std::vector<std::uint32_t>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(S.sizeForTesting(), 0u);
  if constexpr (obs::MetricsEnabled) {
    const obs::PathSnapshot Snap = S.pathSnapshot();
    EXPECT_TRUE(Snap.conserves());
    EXPECT_GT(Snap.path(obs::Path::Batched), 0u);
  }
}

//===----------------------------------------------------------------------===
// Solo access counts: a solo batch is k fast paths, not one slow path
//===----------------------------------------------------------------------===

TEST(BatchAccessCounts, SoloStackBatchCostsSixPerElement) {
  ContentionSensitiveStack<> S(2, 8);
  const std::uint32_t Vs[4] = {1, 2, 3, 4};
  std::uint32_t Out[4] = {};
  EXPECT_EQ(countAccesses([&] { (void)S.push_all(0, Vs, 4); }).total(), 24u);
  EXPECT_EQ(countAccesses([&] { (void)S.pop_all(0, Out, 4); }).total(), 24u);
  // Empty pop_all stops at the first Empty answer: 1 CONTENTION read +
  // the 3-access empty weak pop.
  EXPECT_EQ(countAccesses([&] { (void)S.pop_all(0, Out, 4); }).total(), 4u);
}

TEST(BatchAccessCounts, SoloCombiningBatchCostsSixPerElement) {
  CombiningStack<> S(2, 8);
  const std::uint32_t Vs[4] = {1, 2, 3, 4};
  std::uint32_t Out[4] = {};
  EXPECT_EQ(countAccesses([&] { (void)S.push_all(0, Vs, 4); }).total(), 24u);
  EXPECT_EQ(countAccesses([&] { (void)S.pop_all(0, Out, 4); }).total(), 24u);
}

TEST(BatchAccessCounts, SoloQueueCounterShardedBatchesMatchSoloRates) {
  ContentionSensitiveQueue<> Q(2, 8);
  const std::uint32_t Vs[4] = {1, 2, 3, 4};
  std::uint32_t Out[4] = {};
  // Queue solo ops cost 7 accesses; a solo batch is 7 per element.
  EXPECT_EQ(countAccesses([&] { (void)Q.enqueue_all(0, Vs, 4); }).total(),
            28u);
  EXPECT_EQ(countAccesses([&] { (void)Q.dequeue_all(0, Out, 4); }).total(),
            28u);
  ContentionSensitiveCounter<> C(2);
  const std::uint64_t Deltas[4] = {1, 2, 3, 4};
  EXPECT_EQ(countAccesses([&] { (void)C.add_all(0, Deltas, 4); }).total(),
            12u)
      << "counter solo ops cost 3 accesses each";
  AdaptiveShardedStack<2> Sh(2, 8, /*InitialShards=*/2, /*SlotCount=*/4,
                             /*SpinBudget=*/64);
  // The whole batch fits the home shard: six accesses per element.
  EXPECT_EQ(countAccesses([&] { (void)Sh.push_all(0, Vs, 4); }).total(),
            24u);
}

} // namespace
} // namespace csobj
