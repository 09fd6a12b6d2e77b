//===- tests/crash_test.cpp - Process-crash fault injection --------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Section 5: "these algorithms still work despite process
/// crashes if no process crashes while holding the lock". The scheduler
/// can crash a controlled thread at *any* shared-access point (the
/// access does not execute; the prefix that ran stays in shared memory),
/// so the claim is tested at every crash point of every operation:
///
///  * Figures 1/2 and the companion queue/deque are lock-free: a process
///    crashing anywhere leaves the object fully usable — the next
///    operation's help completes any published-but-lazy write.
///  * Figure 3's fast path (lines 01-03) holds no lock: crashing there
///    is tolerated.
///  * For the *plain* Figure 3, crashing while competing (FLAG raised)
///    or holding the lock is NOT tolerated — TURN can stick on the
///    crashed process. That is the paper's own caveat.
///  * The crash-tolerant variant (core/CrashTolerant.h) closes that
///    boundary: the sweeps at the bottom of this file crash a slow-path
///    operation at EVERY one of its shared-access points — including
///    flag-raised and lock-holding prefixes — and assert that a survivor
///    always completes, degrading to the lock-free fallback exactly when
///    the corpse held the lease and staying on the starvation-free path
///    otherwise.
///
//===----------------------------------------------------------------------===//

#include "sched/InterleaveScheduler.h"

#include "baselines/MichaelScottQueue.h"
#include "baselines/TreiberStack.h"
#include "core/AbortableQueue.h"
#include "core/AbortableStack.h"
#include "core/ContentionSensitiveStack.h"
#include "core/CrashTolerant.h"
#include "core/ObstructionFreeDeque.h"
#include "memory/AccessCounter.h"
#include "memory/AtomicRegister.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

namespace csobj {
namespace {

/// Runs \p Body under the scheduler, crashing it at its (K+1)-th shared
/// access (K = number of accesses that complete first). Returns the
/// number of decision points taken, so callers can discover the access
/// count by passing a huge K.
std::size_t runAndCrashAt(std::function<void()> Body, std::uint32_t K) {
  InterleaveScheduler Scheduler(1);
  const auto Trace = Scheduler.run(
      {std::move(Body)},
      [K](std::size_t Step, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        if (Step == K)
          return Parked.front() | InterleaveScheduler::KillFlag;
        return Parked.front();
      });
  return Trace.Decisions.size();
}

//===----------------------------------------------------------------------===
// Figure 1: crash at every prefix of weak_push / weak_pop
//===----------------------------------------------------------------------===

TEST(CrashTest, AbortableStackSurvivesPushCrashAtEveryPoint) {
  // weak_push performs 5 accesses; crash before each and after all.
  for (std::uint32_t K = 0; K <= 5; ++K) {
    AbortableStack<> Stack(8);
    ASSERT_EQ(Stack.weakPush(1), PushResult::Done); // Pre-existing state.
    runAndCrashAt([&Stack] { (void)Stack.weakPush(7); }, K);

    // The survivor must be able to operate normally (solo: no aborts).
    ASSERT_EQ(Stack.weakPush(99), PushResult::Done);
    const auto Top = Stack.weakPop();
    ASSERT_TRUE(Top.isValue());
    ASSERT_EQ(Top.value(), 99u);
    // Next value is 7 iff the crashed push reached its TOP C&S (the
    // 5th access) — all-or-nothing, never a corrupted in-between.
    const auto Second = Stack.weakPop();
    ASSERT_TRUE(Second.isValue());
    if (K >= 5) {
      ASSERT_EQ(Second.value(), 7u);
      const auto Third = Stack.weakPop();
      ASSERT_TRUE(Third.isValue());
      ASSERT_EQ(Third.value(), 1u);
    } else {
      ASSERT_EQ(Second.value(), 1u);
    }
    ASSERT_TRUE(Stack.weakPop().isEmpty());
  }
}

TEST(CrashTest, AbortableStackSurvivesPopCrashAtEveryPoint) {
  for (std::uint32_t K = 0; K <= 5; ++K) {
    AbortableStack<> Stack(8);
    ASSERT_EQ(Stack.weakPush(1), PushResult::Done);
    ASSERT_EQ(Stack.weakPush(2), PushResult::Done);
    runAndCrashAt([&Stack] { (void)Stack.weakPop(); }, K);

    // Either the pop took effect (2 gone) or it did not — drain checks.
    std::vector<std::uint32_t> Drained;
    while (true) {
      const auto R = Stack.weakPop();
      if (!R.isValue())
        break;
      Drained.push_back(R.value());
    }
    if (K >= 5)
      ASSERT_EQ(Drained, (std::vector<std::uint32_t>{1}));
    else
      ASSERT_EQ(Drained, (std::vector<std::uint32_t>{2, 1}));
  }
}

//===----------------------------------------------------------------------===
// Queue and deque: crash at every prefix
//===----------------------------------------------------------------------===

TEST(CrashTest, AbortableQueueSurvivesEnqueueCrashAtEveryPoint) {
  for (std::uint32_t K = 0; K <= 6; ++K) {
    AbortableQueue<> Queue(8);
    ASSERT_EQ(Queue.weakEnqueue(1), PushResult::Done);
    runAndCrashAt([&Queue] { (void)Queue.weakEnqueue(7); }, K);

    ASSERT_EQ(Queue.weakEnqueue(99), PushResult::Done);
    std::vector<std::uint32_t> Drained;
    while (true) {
      const auto R = Queue.weakDequeue();
      if (!R.isValue())
        break;
      Drained.push_back(R.value());
    }
    if (K >= 6)
      ASSERT_EQ(Drained, (std::vector<std::uint32_t>{1, 7, 99}));
    else
      ASSERT_EQ(Drained, (std::vector<std::uint32_t>{1, 99}));
  }
}

TEST(CrashTest, AbortableQueueSurvivesDequeueCrashAtEveryPoint) {
  for (std::uint32_t K = 0; K <= 6; ++K) {
    AbortableQueue<> Queue(8);
    ASSERT_EQ(Queue.weakEnqueue(1), PushResult::Done);
    ASSERT_EQ(Queue.weakEnqueue(2), PushResult::Done);
    runAndCrashAt([&Queue] { (void)Queue.weakDequeue(); }, K);

    std::vector<std::uint32_t> Drained;
    while (true) {
      const auto R = Queue.weakDequeue();
      if (!R.isValue())
        break;
      Drained.push_back(R.value());
    }
    if (K >= 6)
      ASSERT_EQ(Drained, (std::vector<std::uint32_t>{2}));
    else
      ASSERT_EQ(Drained, (std::vector<std::uint32_t>{1, 2}));
  }
}

TEST(CrashTest, HlmDequeSurvivesPushCrashBetweenItsTwoCas) {
  // The HLM push fences a neighbour (CAS 1) before installing the value
  // (CAS 2); crashing between the two must leave only a harmless
  // counter bump. Sweep every prefix; the op's access count depends on
  // the oracle scan, so discover it first.
  ObstructionFreeDeque Probe(4, 2);
  const std::size_t Accesses =
      runAndCrashAt([&Probe] { (void)Probe.tryPushRight(7); }, 1000);
  ASSERT_GT(Accesses, 2u);

  for (std::uint32_t K = 0; K <= Accesses; ++K) {
    ObstructionFreeDeque Deque(4, 2);
    runAndCrashAt([&Deque] { (void)Deque.tryPushRight(7); }, K);
    // Survivor: solo ops never abort, state is all-or-nothing.
    const std::uint32_t Size = Deque.sizeForTesting();
    ASSERT_LE(Size, 1u);
    ASSERT_EQ(Deque.tryPushLeft(5), PushResult::Done);
    ASSERT_EQ(Deque.tryPushRight(6), PushResult::Done);
    const auto R = Deque.tryPopRight();
    ASSERT_TRUE(R.isValue());
    ASSERT_EQ(R.value(), 6u);
  }
}

//===----------------------------------------------------------------------===
// Lock-free baselines
//===----------------------------------------------------------------------===

TEST(CrashTest, TreiberSurvivesPushCrashAtEveryPoint) {
  // A crash can strand the node the crashed push had acquired (bounded
  // leak of one slot — inherent to crashes with a free list) but the
  // structure itself must stay consistent.
  for (std::uint32_t K = 0; K <= 8; ++K) {
    TreiberStack Stack(/*NumThreads=*/2, 4);
    ASSERT_EQ(Stack.push(1), PushResult::Done);
    runAndCrashAt([&Stack] { (void)Stack.push(7); }, K);

    ASSERT_EQ(Stack.push(99), PushResult::Done);
    std::vector<std::uint32_t> Drained;
    while (true) {
      const auto R = Stack.pop();
      if (!R.isValue())
        break;
      Drained.push_back(R.value());
    }
    ASSERT_GE(Drained.size(), 2u);
    ASSERT_EQ(Drained.front(), 99u);
    ASSERT_EQ(Drained.back(), 1u);
  }
}

TEST(CrashTest, MichaelScottSurvivesEnqueueCrashAtEveryPoint) {
  // Includes the classic window: crash after linking the node but
  // before swinging the tail (K = 11) — the next operation must help.
  for (std::uint32_t K = 0; K <= 11; ++K) {
    MichaelScottQueue Queue(/*NumThreads=*/2, 4);
    ASSERT_EQ(Queue.enqueue(1), PushResult::Done);
    runAndCrashAt([&Queue] { (void)Queue.enqueue(7); }, K);

    ASSERT_EQ(Queue.enqueue(99), PushResult::Done);
    std::vector<std::uint32_t> Drained;
    while (true) {
      const auto R = Queue.dequeue();
      if (!R.isValue())
        break;
      Drained.push_back(R.value());
    }
    ASSERT_GE(Drained.size(), 2u);
    ASSERT_EQ(Drained.front(), 1u);
    ASSERT_EQ(Drained.back(), 99u);
  }
}

// A removal crashing between its unlinking C&S and the node's release
// strands that node outside both the object and the pool. Full must
// still come from the object's own size: both baselines accept values
// up to their capacity after every such crash, because the pool carries
// one node of headroom per thread.

TEST(CrashTest, TreiberStrandedPopNodeIsNotFull) {
  for (std::uint32_t K = 0; K <= 8; ++K) {
    TreiberStack Stack(/*NumThreads=*/2, 4);
    for (std::uint32_t V = 1; V <= 4; ++V)
      ASSERT_EQ(Stack.push(V), PushResult::Done);
    runAndCrashAt([&Stack] { (void)Stack.pop(); }, K);

    for (std::uint32_t Size = Stack.sizeForTesting(); Size < 4; ++Size)
      ASSERT_EQ(Stack.push(10 + Size), PushResult::Done)
          << "crash point " << K << ", size " << Size;
    EXPECT_EQ(Stack.push(99), PushResult::Full) << "crash point " << K;
    EXPECT_EQ(Stack.sizeForTesting(), 4u) << "crash point " << K;
  }
}

TEST(CrashTest, MichaelScottStrandedDummyIsNotFull) {
  for (std::uint32_t K = 0; K <= 10; ++K) {
    MichaelScottQueue Queue(/*NumThreads=*/2, 4);
    for (std::uint32_t V = 1; V <= 4; ++V)
      ASSERT_EQ(Queue.enqueue(V), PushResult::Done);
    runAndCrashAt([&Queue] { (void)Queue.dequeue(); }, K);

    for (std::uint32_t Size = Queue.sizeForTesting(); Size < 4; ++Size)
      ASSERT_EQ(Queue.enqueue(10 + Size), PushResult::Done)
          << "crash point " << K << ", size " << Size;
    EXPECT_EQ(Queue.enqueue(99), PushResult::Full) << "crash point " << K;
    EXPECT_EQ(Queue.sizeForTesting(), 4u) << "crash point " << K;
  }
}

//===----------------------------------------------------------------------===
// Figure 3: crash on the lock-free fast path is tolerated
//===----------------------------------------------------------------------===

TEST(CrashTest, Figure3SurvivesFastPathCrash) {
  // The fast path is lines 01-03: one CONTENTION read + one weak
  // attempt (6 accesses total when it succeeds). Crashing anywhere in
  // it leaves no lock held and no flag raised.
  for (std::uint32_t K = 0; K <= 6; ++K) {
    ContentionSensitiveStack<> Stack(2, 8);
    runAndCrashAt([&Stack] { (void)Stack.push(0, 7); }, K);

    // The survivor (different process id) proceeds unhindered.
    ASSERT_EQ(Stack.push(1, 99), PushResult::Done);
    const auto R = Stack.pop(1);
    ASSERT_TRUE(R.isValue());
    ASSERT_EQ(R.value(), 99u);
    ASSERT_FALSE(Stack.skeleton().contentionForTesting());
  }
}

//===----------------------------------------------------------------------===
// Crash-tolerant Figure 3: crash the slow path at EVERY access point
//===----------------------------------------------------------------------===

/// Weak push whose first attempt reports bottom without touching shared
/// memory — a zero-cost deterministic detour onto the slow path, so the
/// sweep covers every doorway / lock / protected-retry access.
auto forcedSlowPush(AbortableStack<> &Stack, std::uint32_t V) {
  return [&Stack, V, Attempts = 0]() mutable -> std::optional<PushResult> {
    if (Attempts++ == 0)
      return std::nullopt;
    const PushResult R = Stack.weakPush(V);
    if (R == PushResult::Abort)
      return std::nullopt;
    return R;
  };
}

TEST(CrashTest, CrashTolerantSlowPathSurvivesCrashAtEveryPoint) {
  // Discover the slow-path access count: a full forced-slow strongApply
  // covers line 01, the doorway (04-05), the leased lock (06), the
  // protected retry (07-09), the doorway exit (10-11) and unlock (12).
  std::size_t Accesses = 0;
  {
    CrashTolerantContentionSensitive<> Probe(2, /*Patience=*/8);
    AbortableStack<> Stack(8);
    Accesses = runAndCrashAt(
        [&] { (void)Probe.strongApply(0, forcedSlowPush(Stack, 7)); },
        100000);
  }
  ASSERT_GT(Accesses, 10u); // Sanity: the slow path is well past 6.

  for (std::uint32_t K = 0; K < Accesses; ++K) {
    CrashTolerantContentionSensitive<> Skeleton(2, /*Patience=*/8);
    AbortableStack<> Stack(8);
    // Victim (process 0) runs a forced-slow push and crashes at its
    // (K+1)-th shared access. Whatever prefix ran stays behind: a raised
    // flag, a parked TURN, a held lease, a raised CONTENTION bit.
    runAndCrashAt(
        [&] { (void)Skeleton.strongApply(0, forcedSlowPush(Stack, 7)); }, K);
    const bool CorpseHeldLock = Skeleton.guard().holderForTesting() == 1;

    // Liveness oracle: the survivor (process 1), also forced onto the
    // slow path, must complete regardless of where the victim died...
    const PushResult R = Skeleton.strongApply(1, forcedSlowPush(Stack, 99));
    ASSERT_EQ(R, PushResult::Done) << "crash point " << K;

    // ...degrading to the lock-free fallback exactly when the corpse
    // held the lease, and staying on the starvation-free protected path
    // otherwise (the acceptance criterion's "nonzero exactly in those
    // runs").
    const DegradationStats Stats = Skeleton.statsForTesting();
    if (CorpseHeldLock) {
      EXPECT_EQ(Stats.Degradations, 1u) << "crash point " << K;
      EXPECT_EQ(Stats.Revocations, 1u) << "crash point " << K;
      EXPECT_TRUE(Skeleton.suspects().isSuspectForTesting(0));
    } else {
      EXPECT_EQ(Stats.Degradations, 0u) << "crash point " << K;
      EXPECT_EQ(Stats.ProtectedOps, 1u) << "crash point " << K;
    }

    // Healing: the revocation (or clean state) leaves the lock free, so
    // one more slow operation completes protected and lowers CONTENTION;
    // the whole slow path is back to starvation-free service.
    const PushResult R2 = Skeleton.strongApply(1, forcedSlowPush(Stack, 100));
    ASSERT_EQ(R2, PushResult::Done) << "crash point " << K;
    EXPECT_GE(Skeleton.statsForTesting().ProtectedOps, 1u)
        << "crash point " << K;
    EXPECT_FALSE(Skeleton.contentionForTesting()) << "crash point " << K;
    EXPECT_EQ(Skeleton.guard().holderForTesting(), 0u)
        << "crash point " << K;

    // The values of completed pushes are all present (the victim's push
    // may or may not have landed depending on the crash point).
    std::uint32_t Seen = 0;
    while (Stack.weakPop().isValue())
      ++Seen;
    EXPECT_GE(Seen, 2u) << "crash point " << K;
  }
}

TEST(CrashTest, CrashTolerantStackSurvivesFastPathCrash) {
  // The six-access fast path of the crash-tolerant stack tolerates a
  // crash at every prefix, exactly like the plain Figure 3 stack.
  for (std::uint32_t K = 0; K <= 6; ++K) {
    CrashTolerantStack<> Stack(2, 8);
    runAndCrashAt([&Stack] { (void)Stack.push(0, 7); }, K);

    ASSERT_EQ(Stack.push(1, 99), PushResult::Done);
    const auto R = Stack.pop(1);
    ASSERT_TRUE(R.isValue());
    ASSERT_EQ(R.value(), 99u);
    ASSERT_FALSE(Stack.skeleton().contentionForTesting());
    EXPECT_EQ(Stack.skeleton().statsForTesting().Degradations, 0u);
  }
}

TEST(CrashTest, CrashTolerantWrappersForwardPatience) {
  // The default patience passes every crash cell too, so a wrapper that
  // dropped its trailing constructor argument would go unnoticed there:
  // pin the value each skeleton actually received.
  using Skeleton = CrashTolerantContentionSensitive<>;
  EXPECT_EQ(CrashTolerantStack<>(3, 4, /*Patience=*/2).skeleton().patience(),
            2u);
  EXPECT_EQ(CrashTolerantQueue<>(3, 4, /*Patience=*/2).skeleton().patience(),
            2u);
  const CrashTolerantDeque<> Deque(3, 4, /*InitialLeftSlots=*/1,
                                   /*Patience=*/2);
  EXPECT_EQ(Deque.skeleton().patience(), 2u);
  EXPECT_EQ(Deque.numThreads(), 3u);

  EXPECT_EQ(CrashTolerantStack<>(3, 4).skeleton().patience(),
            Skeleton::DefaultPatience);
  EXPECT_EQ(CrashTolerantQueue<>(3, 4).skeleton().patience(),
            Skeleton::DefaultPatience);
  EXPECT_EQ(CrashTolerantDeque<>(3, 4).skeleton().patience(),
            Skeleton::DefaultPatience);
}

//===----------------------------------------------------------------------===
// Crash-tolerant group ops: the skeleton's batch seam, on every alias
//===----------------------------------------------------------------------===

/// Drives the group ops of one crash-tolerant alias. \p Make(Threads)
/// builds an object (capacity 64, patience 8); \p PushAll and \p PopAll
/// call its group push/pop; \p PushOne and \p PopOne its single ops.
/// \p SoloBound is the paper's per-element solo cost (0: none stated).
template <typename MakeFn, typename PushAllFn, typename PopAllFn,
          typename PushOneFn, typename PopOneFn>
void checkCrashTolerantGroupOps(MakeFn Make, PushAllFn PushAll,
                                PopAllFn PopAll, PushOneFn PushOne,
                                PopOneFn PopOne, std::uint64_t SoloBound) {
  using Value = typename decltype(Make(1))::element_type::Value;
  constexpr std::size_t K = 5;
  const Value Vs[K] = {11, 12, 13, 14, 15};
  Value Out[K] = {};

  // Solo, a k-batch is k shortcuts: exactly the accesses of k single ops
  // on a twin object (k times the paper's bound where it states one).
  {
    auto O = Make(2);
    auto Twin = Make(2);
    std::size_t Pushed = 0;
    const AccessCounts Batch =
        countAccesses([&] { Pushed = PushAll(*O, 0, Vs, K); });
    const AccessCounts Singles = countAccesses([&] {
      for (const Value V : Vs)
        PushOne(*Twin, 0, V);
    });
    EXPECT_EQ(Pushed, K);
    EXPECT_EQ(Batch.total(), Singles.total());
    if (SoloBound != 0)
      EXPECT_EQ(Batch.total(), SoloBound * K);

    std::size_t Popped = 0;
    const AccessCounts PopBatch =
        countAccesses([&] { Popped = PopAll(*O, 0, Out, K); });
    std::vector<Value> TwinOut;
    const AccessCounts PopSingles = countAccesses([&] {
      for (std::size_t I = 0; I < K; ++I)
        TwinOut.push_back(PopOne(*Twin, 0));
    });
    EXPECT_EQ(Popped, K);
    EXPECT_EQ(PopBatch.total(), PopSingles.total());
    if (SoloBound != 0)
      EXPECT_EQ(PopBatch.total(), SoloBound * K);
    EXPECT_EQ(std::vector<Value>(Out, Out + K), TwinOut);
    EXPECT_EQ(O->drain(0, Out, K), 0u);
    EXPECT_EQ(O->skeleton().statsForTesting().Degradations, 0u);
    EXPECT_GT(O->skeleton().heapBytes(), 0u);
    EXPECT_GE(O->footprintBytes(), sizeof(*O) + O->skeleton().heapBytes());
  }

  // A corpse (process 2) dies spinning in its protected retry: it holds
  // the lease and left CONTENTION raised. Its weak operation always
  // aborts after one instrumented read, so the kill lands in that loop.
  auto CrashHoldingTheLease = [](auto &Skeleton) {
    AtomicRegister<std::uint8_t> Probe;
    runAndCrashAt(
        [&] {
          (void)Skeleton.strongApply(2, [&]() -> std::optional<PushResult> {
            (void)Probe.read();
            return std::nullopt;
          });
        },
        /*K=*/16);
    ASSERT_EQ(Skeleton.guard().holderForTesting(), 3u);
    ASSERT_TRUE(Skeleton.contentionForTesting());
  };

  // Deterministic: the next batch cannot take the shortcut, its one
  // bounded acquisition times out on the corpse's lease (revoking it),
  // and every element degrades. The batch after that finds the lock
  // healed, runs protected and lowers CONTENTION.
  {
    auto O = Make(3);
    CrashHoldingTheLease(O->skeleton());
    EXPECT_EQ(PushAll(*O, 0, Vs, K), K);
    DegradationStats Stats = O->skeleton().statsForTesting();
    EXPECT_EQ(Stats.Degradations, K);
    EXPECT_EQ(Stats.LeaseTimeouts, 1u);
    EXPECT_EQ(Stats.Revocations, 1u);
    EXPECT_EQ(Stats.ProtectedOps, 0u);
    EXPECT_EQ(PopAll(*O, 1, Out, K), K);
    Stats = O->skeleton().statsForTesting();
    EXPECT_EQ(Stats.ProtectedOps, K);
    EXPECT_EQ(Stats.Degradations, K);
    EXPECT_FALSE(O->skeleton().contentionForTesting());
    std::vector<Value> Got(Out, Out + K);
    std::sort(Got.begin(), Got.end());
    EXPECT_EQ(Got, std::vector<Value>(Vs, Vs + K));
    if constexpr (obs::MetricsEnabled) {
      const obs::PathSnapshot Snap = O->pathSnapshot();
      EXPECT_EQ(Snap.path(obs::Path::Degraded), K);
      EXPECT_EQ(Snap.path(obs::Path::Batched), K);
      EXPECT_EQ(Snap.Ops, Snap.pathTotal() + 1) << "only the corpse's op "
                                                   "is left unfinished";
    }
  }

  // Concurrent: two survivors batch against each other around the
  // corpse; every pushed value is popped exactly once.
  {
    auto O = Make(3);
    CrashHoldingTheLease(O->skeleton());
    constexpr std::uint32_t Rounds = 200;
    std::vector<Value> Pushed[2], Popped[2];
    std::vector<std::thread> Survivors;
    for (std::uint32_t T = 0; T < 2; ++T)
      Survivors.emplace_back([&, T] {
        Value Batch[4], Got[4];
        for (std::uint32_t R = 0; R < Rounds; ++R) {
          for (std::uint32_t I = 0; I < 4; ++I)
            Batch[I] = static_cast<Value>(1 + T * 4 * Rounds + R * 4 + I);
          const std::size_t In = PushAll(*O, T, Batch, 4);
          Pushed[T].insert(Pushed[T].end(), Batch, Batch + In);
          const std::size_t Taken = PopAll(*O, T, Got, 3);
          Popped[T].insert(Popped[T].end(), Got, Got + Taken);
        }
      });
    for (std::thread &S : Survivors)
      S.join();
    std::vector<Value> In(Pushed[0]), Gone(Popped[0]);
    In.insert(In.end(), Pushed[1].begin(), Pushed[1].end());
    Gone.insert(Gone.end(), Popped[1].begin(), Popped[1].end());
    Value Rest[64];
    const std::size_t Left = O->drain(0, Rest, 64);
    Gone.insert(Gone.end(), Rest, Rest + Left);
    std::sort(In.begin(), In.end());
    std::sort(Gone.begin(), Gone.end());
    EXPECT_EQ(In, Gone);
    EXPECT_EQ(O->skeleton().guard().holderForTesting(), 0u);
  }
}

TEST(CrashTest, CrashTolerantGroupOpsDegradeAroundACrashedLeaseHolder) {
  checkCrashTolerantGroupOps(
      [](std::uint32_t N) {
        return std::make_unique<CrashTolerantStack<>>(N, 64, 8u);
      },
      [](auto &S, std::uint32_t T, const auto *Vs, std::size_t K) {
        return S.push_all(T, Vs, K);
      },
      [](auto &S, std::uint32_t T, auto *Out, std::size_t K) {
        return S.pop_all(T, Out, K);
      },
      [](auto &S, std::uint32_t T, auto V) {
        EXPECT_EQ(S.push(T, V), PushResult::Done);
      },
      [](auto &S, std::uint32_t T) { return S.pop(T).value(); },
      /*SoloBound=*/6);
  checkCrashTolerantGroupOps(
      [](std::uint32_t N) {
        return std::make_unique<CrashTolerantQueue<>>(N, 64, 8u);
      },
      [](auto &Q, std::uint32_t T, const auto *Vs, std::size_t K) {
        return Q.enqueue_all(T, Vs, K);
      },
      [](auto &Q, std::uint32_t T, auto *Out, std::size_t K) {
        return Q.dequeue_all(T, Out, K);
      },
      [](auto &Q, std::uint32_t T, auto V) {
        EXPECT_EQ(Q.enqueue(T, V), PushResult::Done);
      },
      [](auto &Q, std::uint32_t T) { return Q.dequeue(T).value(); },
      /*SoloBound=*/7);
  checkCrashTolerantGroupOps(
      [](std::uint32_t N) {
        return std::make_unique<CrashTolerantDeque<>>(
            N, 64, /*InitialLeftSlots=*/~std::uint32_t{0}, 8u);
      },
      [](auto &D, std::uint32_t T, const auto *Vs, std::size_t K) {
        return D.push_all(T, Vs, K);
      },
      [](auto &D, std::uint32_t T, auto *Out, std::size_t K) {
        return D.pop_all(T, Out, K);
      },
      [](auto &D, std::uint32_t T, auto V) {
        EXPECT_EQ(D.pushRight(T, V), PushResult::Done);
      },
      [](auto &D, std::uint32_t T) { return D.popRight(T).value(); },
      /*SoloBound=*/0);
}

} // namespace
} // namespace csobj
