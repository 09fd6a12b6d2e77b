//===- tests/perf_test.cpp - Acceleration layer unit tests ---------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
//
// Unit tests for src/perf/ beyond what the conformance battery covers:
// the elimination slot machine driven through directed schedules, the
// flat-combining publication protocol, the sharded facade's boundary
// answers, the solo access-count regressions for every accelerated
// object (the 6-access claim must survive acceleration), and the
// static false-sharing audit of every new hot word.
//
//===----------------------------------------------------------------------===//

#include "baselines/EliminationBackoffStack.h"
#include "baselines/LockedMap.h"
#include "core/SkipListCore.h"
#include "memory/AccessCounter.h"
#include "memory/ChaosHook.h"
#include "perf/AdaptiveShardedStack.h"
#include "perf/CombiningObjects.h"
#include "perf/EliminationArray.h"
#include "runtime/SpinBarrier.h"
#include "sched/InterleaveScheduler.h"
#include "support/CacheLine.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

namespace csobj {
namespace {

//===----------------------------------------------------------------------===
// False-sharing audit (satellite of the CacheLinePadded sweep): every hot
// word the acceleration layer adds must own its cache line(s).
//===----------------------------------------------------------------------===

static_assert(occupiesWholeCacheLines<EliminationArray::PaddedSlot>,
              "elimination slots must not share cache lines");
static_assert(
    occupiesWholeCacheLines<CombiningContentionSensitive<>::Record>,
    "combiner publication records must not share cache lines");
// The skeleton-shared words (CONTENTION, CombinerBusy, the arbiter's TURN
// and FLAG[] elements) all use CacheLinePadded; pin the predicate on the
// element type they share.
static_assert(occupiesWholeCacheLines<CacheLinePadded<
                  AtomicRegister<std::uint8_t, DefaultRegisterPolicy>>>,
              "padded register elements must round up to full lines");

TEST(FalseSharing, AdjacentEliminationSlotsAreLineDisjoint) {
  EliminationArray A(/*SlotCount=*/4, /*SpinBudget=*/4);
  // The static_asserts above make adjacent array elements line-disjoint;
  // double-check the runtime layout of the slot type.
  EXPECT_EQ(sizeof(EliminationArray::PaddedSlot) % CacheLineSize, 0u);
  EXPECT_GE(alignof(EliminationArray::PaddedSlot), CacheLineSize);
}

//===----------------------------------------------------------------------===
// EliminationArray: the slot machine under directed schedules
//===----------------------------------------------------------------------===

TEST(EliminationArray, SoloGiveWithdraws) {
  EliminationArray A(1, /*SpinBudget=*/4);
  const bool Matched = A.tryGive(7, 0, [] { return true; });
  EXPECT_FALSE(Matched) << "no partner: the giver must withdraw";
  EXPECT_EQ(A.exchangesForTesting(), 0u);
  // The slot is usable again after the withdrawal.
  EXPECT_FALSE(A.tryTake(0, [] { return true; }).has_value());
}

TEST(EliminationArray, SoloTakeWithdraws) {
  EliminationArray A(1, /*SpinBudget=*/4);
  EXPECT_FALSE(A.tryTake(0, [] { return true; }).has_value());
  EXPECT_EQ(A.exchangesForTesting(), 0u);
}

/// Directed rendezvous: the taker parks (slot read + park C&S), then the
/// giver runs to completion (slot read, gate, match C&S), then the taker
/// drains the Done slot.
TEST(EliminationArray, DirectedPairExchanges) {
  EliminationArray A(1, /*SpinBudget=*/8);
  bool Gave = false;
  std::optional<std::uint32_t> Took;
  std::uint32_t TakerGrants = 0;
  InterleaveScheduler Scheduler(2);
  Scheduler.run(
      {[&] { Gave = A.tryGive(42, 0, [] { return true; }); },
       [&] { Took = A.tryTake(0, [] { return true; }); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        const bool HasGiver =
            std::find(Parked.begin(), Parked.end(), 0u) != Parked.end();
        const bool HasTaker =
            std::find(Parked.begin(), Parked.end(), 1u) != Parked.end();
        if (TakerGrants < 2 && HasTaker) {
          ++TakerGrants;
          return 1;
        }
        if (HasGiver)
          return 0;
        return Parked.front();
      });
  EXPECT_TRUE(Gave);
  ASSERT_TRUE(Took.has_value());
  EXPECT_EQ(*Took, 42u);
  EXPECT_EQ(A.exchangesForTesting(), 2u); // one per matched operation
}

/// Same schedule, but the matcher's gate declines: no match may happen,
/// both sides fail, and the slot returns to Empty.
TEST(EliminationArray, GateDeclineBlocksMatch) {
  EliminationArray A(1, /*SpinBudget=*/8);
  bool Gave = true;
  std::optional<std::uint32_t> Took;
  std::uint32_t TakerGrants = 0;
  InterleaveScheduler Scheduler(2);
  Scheduler.run(
      {[&] { Gave = A.tryGive(42, 0, [] { return false; }); },
       [&] { Took = A.tryTake(0, [] { return true; }); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        const bool HasGiver =
            std::find(Parked.begin(), Parked.end(), 0u) != Parked.end();
        const bool HasTaker =
            std::find(Parked.begin(), Parked.end(), 1u) != Parked.end();
        if (TakerGrants < 2 && HasTaker) {
          ++TakerGrants;
          return 1;
        }
        if (HasGiver)
          return 0;
        return Parked.front();
      });
  EXPECT_FALSE(Gave) << "gate declined: the give must not match";
  EXPECT_FALSE(Took.has_value());
  EXPECT_EQ(A.exchangesForTesting(), 0u);
  // Slot healthy afterwards.
  EXPECT_FALSE(A.tryGive(1, 0, [] { return true; }));
}

//===----------------------------------------------------------------------===
// Flat combining: publication protocol and batch accounting
//===----------------------------------------------------------------------===

/// Directed abort-into-combine: T0 is interrupted mid weak push so its
/// TOP C&S fails, diverting it into the publication list; with nobody
/// else publishing, T0 wins CombinerBusy and serves itself.
TEST(Combining, AbortedFastPathBecomesCombiner) {
  CombiningStack<> S(2, 4);
  std::optional<PushResult> Res0;
  std::optional<PushResult> Res1;
  std::uint32_t Grants0 = 0;
  InterleaveScheduler Scheduler(2);
  Scheduler.run(
      {[&] { Res0 = S.push(0, 1); }, [&] { Res1 = S.push(1, 2); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        const bool Has0 =
            std::find(Parked.begin(), Parked.end(), 0u) != Parked.end();
        const bool Has1 =
            std::find(Parked.begin(), Parked.end(), 1u) != Parked.end();
        // T0: CONTENTION read + the first 4 weak-push accesses, stopping
        // just before its TOP C&S...
        if (Grants0 < 5 && Has0) {
          ++Grants0;
          return 0;
        }
        // ...then T1 pushes to completion, invalidating T0's snapshot...
        if (Has1)
          return 1;
        // ...then T0: failed C&S -> publish -> combine -> done.
        return Parked.front();
      });
  ASSERT_TRUE(Res0.has_value());
  ASSERT_TRUE(Res1.has_value());
  EXPECT_EQ(*Res0, PushResult::Done);
  EXPECT_EQ(*Res1, PushResult::Done);
  EXPECT_EQ(S.sizeForTesting(), 2u);
  EXPECT_EQ(S.skeleton().batchesForTesting(), 1u);
  EXPECT_EQ(S.skeleton().combinedOpsForTesting(), 1u);
  EXPECT_FALSE(S.skeleton().contentionForTesting())
      << "combiner must lower CONTENTION before retiring";
}

/// Counter exact-sum under real threads: unit adds return each value in
/// {1..total} exactly once regardless of how often combining kicks in.
TEST(Combining, CounterExactSumUnderThreads) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t OpsPerThread = 256;
  CombiningCounter C(Threads);
  std::vector<std::vector<std::uint64_t>> Returns(Threads);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < OpsPerThread; ++I)
        Returns[T].push_back(C.add(T, 1));
    });
  for (auto &W : Workers)
    W.join();

  std::vector<std::uint64_t> All;
  for (const auto &Per : Returns)
    All.insert(All.end(), Per.begin(), Per.end());
  std::sort(All.begin(), All.end());
  ASSERT_EQ(All.size(), static_cast<std::size_t>(Threads) * OpsPerThread);
  for (std::size_t I = 0; I < All.size(); ++I)
    ASSERT_EQ(All[I], I + 1);
  EXPECT_EQ(C.valueForTesting(), All.size());
}

//===----------------------------------------------------------------------===
// Pinned sharded stack: bag semantics at the boundaries
//===----------------------------------------------------------------------===

TEST(PinnedShardedStack, SoloFillDrainCrossesBothEdges) {
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/2, /*SlotCount=*/1,
                            /*SpinBudget=*/4);
  EXPECT_EQ(S.capacity(), 4u);
  EXPECT_EQ(S.shardCapacity(), 2u);
  for (std::uint32_t V = 1; V <= 4; ++V)
    EXPECT_EQ(S.push(0, V), PushResult::Done) << "value " << V;
  EXPECT_EQ(S.sizeForTesting(), 4u);
  // All shards full: the all-full double collect certifies Full.
  EXPECT_EQ(S.push(0, 5), PushResult::Full);
  EXPECT_EQ(S.push(1, 6), PushResult::Full);

  std::vector<std::uint32_t> Popped;
  for (std::uint32_t I = 0; I < 4; ++I) {
    const PopResult<std::uint32_t> R = S.pop(0);
    ASSERT_TRUE(R.isValue());
    Popped.push_back(R.value());
  }
  std::sort(Popped.begin(), Popped.end());
  EXPECT_EQ(Popped, (std::vector<std::uint32_t>{1, 2, 3, 4}))
      << "bag conservation: every pushed value popped exactly once";
  // All shards empty: the all-empty double collect certifies Empty.
  EXPECT_TRUE(S.pop(0).isEmpty());
  EXPECT_TRUE(S.pop(1).isEmpty());
  EXPECT_EQ(S.activeShards(), 2u) << "a pinned mask never moves";
  EXPECT_EQ(S.reconfigEpoch(), 0u);
}

TEST(PinnedShardedStack, OverflowSpillsToNeighbourShard) {
  AdaptiveShardedStack<2> S(2, 4, 2, 1, 4);
  // All pushes from thread 0 (home shard 0): the third and fourth must
  // spill into shard 1.
  for (std::uint32_t V = 1; V <= 4; ++V)
    ASSERT_EQ(S.push(0, V), PushResult::Done);
  EXPECT_EQ(S.shard(0).sizeForTesting(), 2u);
  EXPECT_EQ(S.shard(1).sizeForTesting(), 2u);
}

TEST(PinnedShardedStack, StressConservesElements) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t OpsPerThread = 512;
  AdaptiveShardedStack<2> S(Threads, 8, /*InitialShards=*/2, /*SlotCount=*/2,
                            /*SpinBudget=*/16);
  std::vector<std::int64_t> Balance(Threads, 0);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      SplitMix64 Rng(0x5AA5ull + T);
      for (std::uint32_t I = 0; I < OpsPerThread; ++I) {
        if (Rng.chance(1, 2)) {
          const std::uint32_t V =
              static_cast<std::uint32_t>(Rng.below(1u << 16)) + 1;
          if (S.push(T, V) == PushResult::Done)
            ++Balance[T];
        } else {
          if (S.pop(T).isValue())
            --Balance[T];
        }
      }
    });
  for (auto &W : Workers)
    W.join();
  std::int64_t Net = 0;
  for (const std::int64_t B : Balance)
    Net += B;
  ASSERT_GE(Net, 0);
  EXPECT_EQ(S.sizeForTesting(), static_cast<std::uint32_t>(Net))
      << "pushes minus pops must equal the residual size";
  EXPECT_EQ(S.reconfigEpoch(), 0u) << "a pinned mask never moves";
}

//===----------------------------------------------------------------------===
// Pinned sharded stack: the inter-shard balancer actually exchanges
//===----------------------------------------------------------------------===

/// Directed exchange through the forced balancer: the push parks its
/// value in the elimination slot, then the pop matches it — the pair
/// never touches any shard. This is the facade seam in isolation.
TEST(ShardedBalancer, ForcedDirectedPairExchanges) {
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/2, /*SlotCount=*/1,
                            /*SpinBudget=*/8);
  S.forceBalancerForTesting(true);
  std::optional<PushResult> Pushed;
  PopResult<std::uint32_t> Popped = PopResult<std::uint32_t>::empty();
  std::uint32_t GiverGrants = 0;
  InterleaveScheduler Scheduler(2);
  Scheduler.run(
      {[&] { Pushed = S.push(0, 42); }, [&] { Popped = S.pop(1); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        const bool HasGiver =
            std::find(Parked.begin(), Parked.end(), 0u) != Parked.end();
        const bool HasTaker =
            std::find(Parked.begin(), Parked.end(), 1u) != Parked.end();
        // Giver: slot read + park C&S, leaving 42 waiting in the slot...
        if (GiverGrants < 2 && HasGiver) {
          ++GiverGrants;
          return 0;
        }
        // ...then the taker matches it (slot read, gate read, pair C&S).
        if (HasTaker)
          return 1;
        return Parked.front();
      });
  ASSERT_TRUE(Pushed.has_value());
  EXPECT_EQ(*Pushed, PushResult::Done);
  ASSERT_TRUE(Popped.isValue());
  EXPECT_EQ(Popped.value(), 42u);
  EXPECT_EQ(S.eliminationExchangesForTesting(), 2u)
      << "one exchange per matched operation";
  EXPECT_EQ(S.sizeForTesting(), 0u) << "the pair bypassed every shard";
  if constexpr (obs::MetricsEnabled) {
    const obs::PathSnapshot Snap = S.pathSnapshot();
    EXPECT_EQ(Snap.Ops, 2u);
    EXPECT_EQ(Snap.path(obs::Path::Eliminated), 2u);
    EXPECT_TRUE(Snap.conserves());
  }
}

/// Directed exchange through the *rescue-window* seam — the production
/// balancer path, no test knob: T2's completed pop invalidates both
/// T0's pop snapshot and T1's push snapshot; T1's failed shortcut parks
/// its value in the slot via the rescue window, and T0's failed
/// shortcut takes it via its own rescue window. Mid-bag load (neither
/// full nor empty), so the old boundary-only seam would never fire —
/// this is the regression test for the E12 "0 exchanges" finding.
TEST(ShardedBalancer, RescueWindowDirectedPairExchanges) {
  AdaptiveShardedStack<1> S(3, 4, /*InitialShards=*/1, /*SlotCount=*/1,
                            /*SpinBudget=*/8);
  ASSERT_EQ(S.push(0, 5), PushResult::Done);
  ASSERT_EQ(S.push(0, 6), PushResult::Done);
  PopResult<std::uint32_t> Pop0 = PopResult<std::uint32_t>::empty();
  std::optional<PushResult> Push1;
  PopResult<std::uint32_t> Pop2 = PopResult<std::uint32_t>::empty();
  std::uint32_t Grants0 = 0;
  std::uint32_t Grants1 = 0;
  InterleaveScheduler Scheduler(3);
  Scheduler.run(
      {[&] { Pop0 = S.pop(0); }, [&] { Push1 = S.push(1, 9); },
       [&] { Pop2 = S.pop(2); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        auto Has = [&](std::uint32_t Tid) {
          return std::find(Parked.begin(), Parked.end(), Tid) !=
                 Parked.end();
        };
        // T0 (pop) and T1 (push) park just before their TOP C&S...
        if (Grants0 < 5 && Has(0)) {
          ++Grants0;
          return 0;
        }
        if (Grants1 < 5 && Has(1)) {
          ++Grants1;
          return 1;
        }
        // ...T2's pop completes, invalidating both snapshots...
        if (Has(2))
          return 2;
        // ...T1's C&S fails; its rescue window parks 9 in the slot
        // (failed C&S + slot read + park C&S)...
        if (Grants1 < 8 && Has(1)) {
          ++Grants1;
          return 1;
        }
        // ...T0's C&S fails; its rescue window matches (failed C&S +
        // slot read + gate read + pair C&S) and T0 runs to completion...
        if (Has(0))
          return 0;
        // ...then T1 notices Done and completes its give.
        return Parked.front();
      });
  ASSERT_TRUE(Push1.has_value());
  EXPECT_EQ(*Push1, PushResult::Done) << "push eliminated via rescue";
  ASSERT_TRUE(Pop0.isValue());
  EXPECT_EQ(Pop0.value(), 9u) << "pop received the eliminated value";
  ASSERT_TRUE(Pop2.isValue());
  EXPECT_EQ(Pop2.value(), 6u);
  EXPECT_EQ(S.eliminationExchangesForTesting(), 2u);
  EXPECT_EQ(S.sizeForTesting(), 1u)
      << "the eliminated pair must not disturb the shard";
  if constexpr (obs::MetricsEnabled) {
    const obs::PathSnapshot Snap = S.pathSnapshot();
    EXPECT_EQ(Snap.path(obs::Path::Eliminated), 2u);
    EXPECT_TRUE(Snap.conserves());
  }
}

/// Wall-clock sanity for the same seam: chaos-injected preemption makes
/// shortcut aborts (hence rescue windows) frequent; paired push/pop
/// traffic through them must produce nonzero exchanges within a few
/// rounds — the balancer works under load, not only under direction.
TEST(ShardedBalancer, RescueWindowExchangesUnderChaosLoad) {
  for (std::uint32_t Round = 0; Round < 20; ++Round) {
    constexpr std::uint32_t Threads = 4;
    AdaptiveShardedStack<2> S(Threads, 8, /*InitialShards=*/2,
                              /*SlotCount=*/2, /*SpinBudget=*/64);
    SpinBarrier Barrier(Threads);
    std::vector<std::thread> Workers;
    for (std::uint32_t T = 0; T < Threads; ++T)
      Workers.emplace_back([&, T] {
        ChaosHook Chaos(/*Seed=*/0xE11Full + Round * 31 + T,
                        /*YieldPermille=*/350);
        SchedHookScope Scope(Chaos);
        Barrier.arriveAndWait();
        for (std::uint32_t I = 0; I < 400; ++I) {
          if ((T + I) % 2 == 0)
            (void)S.push(T, (I % 1000) + 1);
          else
            (void)S.pop(T);
        }
      });
    for (auto &W : Workers)
      W.join();
    EXPECT_TRUE(S.pathSnapshot().conserves());
    if (S.eliminationExchangesForTesting() > 0)
      return; // seam exercised under real threads
  }
  FAIL() << "no elimination exchange in 20 chaos rounds";
}

//===----------------------------------------------------------------------===
// Solo access-count regressions: acceleration must not tax the fast path
//===----------------------------------------------------------------------===

TEST(SoloAccessCounts, EliminatingStackStaysAtSix) {
  // The eliminating Figure 3 stack is the one-shard facade, pinned.
  AdaptiveShardedStack<1> S(2, 4, /*InitialShards=*/1, /*SlotCount=*/4,
                            /*SpinBudget=*/64);
  EXPECT_EQ(countAccesses([&] { (void)S.push(0, 7); }).total(), 6u);
  EXPECT_EQ(countAccesses([&] { (void)S.pop(0); }).total(), 6u);
  // Empty-pop short-circuit: 1 CONTENTION read + 3 weak accesses. One
  // shard answers Empty itself: no facade-seam rendezvous, no certificate.
  EXPECT_EQ(countAccesses([&] { (void)S.pop(0); }).total(), 4u);
}

TEST(SoloAccessCounts, CombiningObjectsMatchFigureThree) {
  CombiningStack<> S(2, 4);
  EXPECT_EQ(countAccesses([&] { (void)S.push(0, 7); }).total(), 6u);
  EXPECT_EQ(countAccesses([&] { (void)S.pop(0); }).total(), 6u);
  CombiningQueue<> Q(2, 4);
  EXPECT_EQ(countAccesses([&] { (void)Q.enqueue(0, 7); }).total(), 7u);
  EXPECT_EQ(countAccesses([&] { (void)Q.dequeue(0); }).total(), 7u);
  CombiningCounter C(2);
  EXPECT_EQ(countAccesses([&] { (void)C.add(0, 1); }).total(), 3u);
}

TEST(SoloAccessCounts, ShardedStackStaysAtSix) {
  // Pinned at mask 2 and at mask 8: the home-shard probe is the whole
  // solo story, however wide the mask.
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/2, /*SlotCount=*/4,
                            /*SpinBudget=*/64);
  EXPECT_EQ(countAccesses([&] { (void)S.push(0, 7); }).total(), 6u);
  EXPECT_EQ(countAccesses([&] { (void)S.pop(0); }).total(), 6u);
  AdaptiveShardedStack<8> W(2, 8, /*InitialShards=*/8, /*SlotCount=*/4,
                            /*SpinBudget=*/64);
  EXPECT_EQ(countAccesses([&] { (void)W.push(0, 7); }).total(), 6u);
  EXPECT_EQ(countAccesses([&] { (void)W.pop(0); }).total(), 6u);
}

/// The price of a solo boundary answer at mask 2, pinned as exact counts
/// so a change to the boundary path shows up as a number: the probe of
/// both shards (the home shard through its rescue window, which a solo
/// Full/Empty never opens), the facade-seam rendezvous (slot read, park
/// C&S, SpinBudget re-reads, withdraw C&S) and the double collect of
/// both TOP words.
TEST(SoloAccessCounts, ShardedBoundaryAnswersAtMaskTwo) {
  constexpr std::uint32_t Spin = 4;
  constexpr std::uint64_t Rendezvous = 1 + 1 + Spin + 1;
  constexpr std::uint64_t Certificate = 2 * 2;
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/2, /*SlotCount=*/1,
                            /*SpinBudget=*/Spin);
  // Empty: each shard's pop is 1 CONTENTION read + 3 weak accesses.
  EXPECT_EQ(countAccesses([&] { EXPECT_TRUE(S.pop(0).isEmpty()); }).total(),
            4 + 4 + Rendezvous + Certificate);
  for (std::uint32_t V = 1; V <= 4; ++V)
    ASSERT_EQ(S.push(0, V), PushResult::Done);
  // Full: each shard's push is 1 CONTENTION read + 3 weak accesses.
  EXPECT_EQ(countAccesses([&] {
              EXPECT_EQ(S.push(0, 5), PushResult::Full);
            }).total(),
            4 + 4 + Rendezvous + Certificate);
}

//===----------------------------------------------------------------------===
// Constructor hard checks: bad geometry must throw, not assert (satellite
// audit — an NDEBUG build used to strip these checks entirely)
//===----------------------------------------------------------------------===

TEST(CtorChecks, ShardedFacadesRejectBadGeometry) {
  // Capacity not divisible across shards.
  EXPECT_THROW(AdaptiveShardedStack<2>(2, 5), std::invalid_argument);
  // Zero capacity per shard.
  EXPECT_THROW(AdaptiveShardedStack<4>(2, 0), std::invalid_argument);
  // Initial mask outside [1, MaxShards].
  EXPECT_THROW(AdaptiveShardedStack<2>(2, 4, /*InitialShards=*/0),
               std::invalid_argument);
  EXPECT_THROW(AdaptiveShardedStack<2>(2, 4, /*InitialShards=*/3),
               std::invalid_argument);
}

TEST(CtorChecks, CoreAndBaselineCtorsRejectBadGeometry) {
  // The same audit applied to the other validating constructors: the
  // skip list must reject before sizing its directory (a capacity at the
  // index-space limit would otherwise allocate gigabytes then corrupt
  // links), and the locked baseline must reject a zero-process guard.
  EXPECT_THROW(SkipListCore<>(0, 8), std::invalid_argument);
  EXPECT_THROW(SkipListCore<>(2, SkipListCore<>::NilIdx),
               std::invalid_argument);
  EXPECT_THROW(LockedMap<>(0, 8), std::invalid_argument);
}

//===----------------------------------------------------------------------===
// Slot-hint decorrelation: unrelated facades must not probe in lockstep
//===----------------------------------------------------------------------===

/// Each stream is observed from a FRESH thread, so the thread_local probe
/// counter restarts at zero for both instances — exactly the state in
/// which the pre-nonce implementation (one counter shared by every
/// object) emitted identical hint streams for unrelated objects, making
/// their slot probes collide in lockstep. Every elimination user (the
/// sharded bag, the one-shard eliminating stack, the HSY baseline) draws
/// its hints from its own elimination array.
TEST(SlotHints, StreamsDivergeAcrossInstances) {
  auto Collect = [](auto &S) {
    std::vector<std::uint64_t> Hints;
    std::thread Observer([&] {
      for (std::uint32_t I = 0; I < 8; ++I)
        Hints.push_back(S.eliminationArray().slotHint(0));
    });
    Observer.join();
    return Hints;
  };
  AdaptiveShardedStack<2> A(2, 4), B(2, 4);
  EXPECT_NE(Collect(A), Collect(B))
      << "two facades probed the same slot sequence";
  AdaptiveShardedStack<1> C(2, 4), D(2, 4);
  EXPECT_NE(Collect(C), Collect(D));
  EliminationBackoffStack E(2, 4), F(2, 4);
  EXPECT_NE(Collect(E), Collect(F))
      << "two HSY stacks probed the same slot sequence";
}

//===----------------------------------------------------------------------===
// AdaptiveShardedStack: grow-on-full mask and the boundary certificate
//===----------------------------------------------------------------------===

TEST(AdaptiveStack, GrowOnFullKeepsObservableCapacityTotal) {
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/1, /*SlotCount=*/1,
                            /*SpinBudget=*/4);
  EXPECT_EQ(S.capacity(), 4u);
  EXPECT_EQ(S.activeShards(), 1u);
  // Four pushes all land even though the initial mask holds two slots:
  // the third finds every active shard full and grows instead of
  // certifying.
  for (std::uint32_t V = 1; V <= 4; ++V)
    ASSERT_EQ(S.push(0, V), PushResult::Done) << "value " << V;
  EXPECT_EQ(S.activeShards(), 2u);
  EXPECT_EQ(S.reconfigEpoch(), 1u) << "one grow, counted from the mask";
  // Full only at the full mask, via the all-full witness.
  EXPECT_EQ(S.push(0, 5), PushResult::Full);
  if constexpr (obs::MetricsEnabled) {
    EXPECT_EQ(S.pathSnapshot().event(obs::Event::ShardGrow), 1u);
  }

  std::vector<std::uint32_t> Popped;
  for (std::uint32_t I = 0; I < 4; ++I) {
    const PopResult<std::uint32_t> R = S.pop(0);
    ASSERT_TRUE(R.isValue());
    Popped.push_back(R.value());
  }
  std::sort(Popped.begin(), Popped.end());
  EXPECT_EQ(Popped, (std::vector<std::uint32_t>{1, 2, 3, 4}));
  EXPECT_TRUE(S.pop(0).isEmpty());
  if constexpr (obs::MetricsEnabled) {
    EXPECT_TRUE(S.pathSnapshot().conserves());
  }
}

/// The certificate spans every shard, not the mask the probe ran
/// against. A popper (Tid 1) probes the one-shard mask and finds it
/// empty, then parks before its facade-seam rendezvous. Meanwhile Tid 0
/// fills shard 0, grows the mask, lands one element in shard 1 and pops
/// shard 0 empty again. Shard 0 then looks empty and unchanged to the
/// popper's double collect, so a witness over the probed mask alone
/// would certify Empty while the bag holds an element.
TEST(AdaptiveStack, EmptyCertificateSeesShardGrownDuringProbe) {
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/1, /*SlotCount=*/1,
                            /*SpinBudget=*/4);
  PopResult<std::uint32_t> Popped = PopResult<std::uint32_t>::empty();
  std::uint32_t PopperGrants = 0;
  InterleaveScheduler Scheduler(2);
  Scheduler.run(
      {[&] {
         for (std::uint32_t V = 1; V <= 3; ++V)
           ASSERT_EQ(S.push(0, V), PushResult::Done);
         for (std::uint32_t I = 0; I < 2; ++I)
           ASSERT_TRUE(S.pop(0).isValue());
       },
       [&] { Popped = S.pop(1); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        const auto Has = [&](std::uint32_t Tid) {
          return std::find(Parked.begin(), Parked.end(), Tid) !=
                 Parked.end();
        };
        // The popper's probe of shard 0: 1 CONTENTION read + 3 weak
        // accesses, answering empty...
        if (PopperGrants < 4 && Has(1)) {
          ++PopperGrants;
          return 1;
        }
        // ...then Tid 0 runs to completion...
        if (Has(0))
          return 0;
        // ...and the popper rendezvous, certifies and re-probes.
        return 1;
      });
  EXPECT_EQ(S.activeShards(), 2u);
  EXPECT_EQ(S.shard(0).sizeForTesting(), 0u);
  ASSERT_TRUE(Popped.isValue())
      << "Empty certified while shard 1 held an element";
  EXPECT_EQ(Popped.value(), 3u);
  EXPECT_EQ(S.sizeForTesting(), 0u);
}

} // namespace
} // namespace csobj
