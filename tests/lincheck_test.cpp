//===- tests/lincheck_test.cpp - Linearizability checker tests -----------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// First validates the checker itself on hand-built histories with known
/// verdicts, then uses it as the oracle over real concurrent runs of
/// every stack and queue implementation in the library (the paper's
/// safety property — linearizability — checked mechanically).
///
//===----------------------------------------------------------------------===//

#include "lincheck/Checker.h"
#include "lincheck/History.h"
#include "lincheck/Spec.h"

#include "baselines/EliminationBackoffStack.h"
#include "baselines/LockedStack.h"
#include "baselines/MichaelScottQueue.h"
#include "baselines/TreiberStack.h"
#include "core/AbortableQueue.h"
#include "core/AbortableStack.h"
#include "core/ContentionSensitiveQueue.h"
#include "core/ContentionSensitiveStack.h"
#include "core/NonBlockingQueue.h"
#include "core/NonBlockingStack.h"
#include "runtime/SpinBarrier.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

namespace csobj {
namespace {

Operation makeOp(std::uint32_t Tid, OpCode Code, std::uint32_t Arg,
                 ResCode Result, std::uint32_t Ret, std::uint64_t Invoke,
                 std::uint64_t Response) {
  Operation Op;
  Op.Tid = Tid;
  Op.Code = Code;
  Op.Arg = Arg;
  Op.Result = Result;
  Op.RetValue = Ret;
  Op.InvokeNs = Invoke;
  Op.ResponseNs = Response;
  return Op;
}

//===----------------------------------------------------------------------===
// Checker on known histories
//===----------------------------------------------------------------------===

TEST(CheckerTest, EmptyHistoryIsLinearizable) {
  History H;
  EXPECT_TRUE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

TEST(CheckerTest, SequentialHistoryIsLinearizable) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1));
  H.Ops.push_back(makeOp(0, OpCode::Push, 2, ResCode::Done, 0, 2, 3));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 2, 4, 5));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 1, 6, 7));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Empty, 0, 8, 9));
  EXPECT_TRUE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

TEST(CheckerTest, WrongPopOrderIsNotLinearizable) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1));
  H.Ops.push_back(makeOp(0, OpCode::Push, 2, ResCode::Done, 0, 2, 3));
  // FIFO answer from a stack: impossible.
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 1, 4, 5));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 2, 6, 7));
  EXPECT_FALSE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

TEST(CheckerTest, SameHistoryLinearizableAsQueue) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1));
  H.Ops.push_back(makeOp(0, OpCode::Push, 2, ResCode::Done, 0, 2, 3));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 1, 4, 5));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 2, 6, 7));
  EXPECT_TRUE(checkLinearizable(H, BoundedQueueSpec(4)).Linearizable);
}

TEST(CheckerTest, OverlappingOpsMayReorder) {
  History H;
  // Two overlapping pushes, then pops that only fit one push order.
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 10));
  H.Ops.push_back(makeOp(1, OpCode::Push, 2, ResCode::Done, 0, 0, 10));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 1, 11, 12));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 2, 13, 14));
  EXPECT_TRUE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

TEST(CheckerTest, RealTimeOrderIsRespected) {
  History H;
  // push(1) finishes before push(2) starts; pops claim 1 on top: illegal.
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1));
  H.Ops.push_back(makeOp(1, OpCode::Push, 2, ResCode::Done, 0, 2, 3));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 1, 4, 5));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 2, 6, 7));
  EXPECT_FALSE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

TEST(CheckerTest, PopEmptyOnNonEmptyStackIsIllegal) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Empty, 0, 2, 3));
  EXPECT_FALSE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

TEST(CheckerTest, PopEmptyLegalWhenOverlappingThePush) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 10));
  H.Ops.push_back(makeOp(1, OpCode::Pop, 0, ResCode::Empty, 0, 1, 2));
  EXPECT_TRUE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

TEST(CheckerTest, FullAnswerRequiresFullStack) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1));
  H.Ops.push_back(makeOp(0, OpCode::Push, 2, ResCode::Full, 0, 2, 3));
  EXPECT_FALSE(checkLinearizable(H, BoundedStackSpec(2)).Linearizable);
  // With capacity 1 the same history is fine.
  EXPECT_TRUE(checkLinearizable(H, BoundedStackSpec(1)).Linearizable);
}

TEST(CheckerTest, DuplicatedPopIsCaught) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 7, ResCode::Done, 0, 0, 1));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 7, 2, 3));
  H.Ops.push_back(makeOp(1, OpCode::Pop, 0, ResCode::Value, 7, 2, 3));
  EXPECT_FALSE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

TEST(CheckerTest, LostPushIsCaught) {
  History H;
  // Push completes, later lone pop says empty: the push was lost.
  H.Ops.push_back(makeOp(0, OpCode::Push, 7, ResCode::Done, 0, 0, 1));
  H.Ops.push_back(makeOp(1, OpCode::Pop, 0, ResCode::Empty, 0, 5, 6));
  EXPECT_FALSE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

//===----------------------------------------------------------------------===
// Checker against a brute-force reference on random small histories
//===----------------------------------------------------------------------===

/// Reference oracle: tries every total order of the ops, keeps those that
/// respect real time, and accepts iff one of them replays legally on the
/// spec. Exponential, with no pruning or memoization, so it shares no
/// search logic with checkLinearizable.
template <typename Spec>
bool bruteForceLinearizable(const History &H, const Spec &Initial) {
  std::vector<std::size_t> Order(H.Ops.size());
  std::iota(Order.begin(), Order.end(), std::size_t{0});
  do {
    bool RealTime = true;
    for (std::size_t I = 0; I < Order.size() && RealTime; ++I)
      for (std::size_t J = I + 1; J < Order.size() && RealTime; ++J)
        RealTime = H.Ops[Order[J]].ResponseNs >= H.Ops[Order[I]].InvokeNs;
    if (!RealTime)
      continue;
    Spec State = Initial;
    bool Legal = true;
    for (std::size_t I = 0; I < Order.size() && Legal; ++I)
      Legal = State.apply(H.Ops[Order[I]]);
    if (Legal)
      return true;
  } while (std::next_permutation(Order.begin(), Order.end()));
  return false;
}

/// A random history of 1..8 push/pop ops on a stack (or, with \p Fifo, a
/// queue) of capacity \p Capacity. The answers come from a sequential
/// run, each op's interval is stretched at random around its point in
/// that run so neighbours overlap, and half the histories then get one
/// answer corrupted — so both verdicts occur.
History randomSmallHistory(SplitMix64 &Rng, bool Fifo,
                           std::uint32_t Capacity) {
  History H;
  std::deque<std::uint32_t> Model;
  const std::size_t N = 1 + Rng.below(8);
  for (std::size_t I = 0; I < N; ++I) {
    const std::uint64_t Point = 30 + 10 * I;
    Operation Op;
    Op.Tid = static_cast<std::uint32_t>(I);
    Op.InvokeNs = Point - Rng.below(25);
    Op.ResponseNs = Point + Rng.below(25);
    if (Rng.chance(1, 2)) {
      Op.Code = OpCode::Push;
      Op.Arg = static_cast<std::uint32_t>(I + 1);
      Op.Result = Model.size() == Capacity ? ResCode::Full : ResCode::Done;
      if (Op.Result == ResCode::Done)
        Model.push_back(Op.Arg);
    } else {
      Op.Code = OpCode::Pop;
      Op.Result = Model.empty() ? ResCode::Empty : ResCode::Value;
      if (!Model.empty()) {
        Op.RetValue = Fifo ? Model.front() : Model.back();
        if (Fifo)
          Model.pop_front();
        else
          Model.pop_back();
      }
    }
    H.Ops.push_back(Op);
  }
  if (Rng.chance(1, 2)) {
    Operation &Op = H.Ops[Rng.below(N)];
    if (Op.Code == OpCode::Push)
      Op.Result = Op.Result == ResCode::Done ? ResCode::Full : ResCode::Done;
    else if (Op.Result == ResCode::Empty || Rng.chance(1, 3))
      Op.Result = Op.Result == ResCode::Empty ? ResCode::Value : ResCode::Empty;
    if (Op.Result == ResCode::Value)
      Op.RetValue = static_cast<std::uint32_t>(1 + Rng.below(N));
  }
  return H;
}

/// Runs \p Histories random histories through both oracles and requires
/// the same verdict on each, and that both verdicts occur.
template <typename Spec>
void crossCheckAgainstBruteForce(bool Fifo, std::uint64_t Seed,
                                 const char *Name) {
  constexpr int Histories = 3000;
  constexpr std::uint32_t Capacity = 2;
  SplitMix64 Rng(Seed);
  int Linearizable = 0;
  for (int I = 0; I < Histories; ++I) {
    const History H = randomSmallHistory(Rng, Fifo, Capacity);
    const CheckResult Fast = checkLinearizable(H, Spec(Capacity));
    ASSERT_FALSE(Fast.HitSearchCap);
    const bool Reference = bruteForceLinearizable(H, Spec(Capacity));
    ASSERT_EQ(Fast.Linearizable, Reference)
        << "history " << I << ":\n"
        << H.describe();
    Linearizable += Reference;
  }
  std::printf("[ oracle   ] %s: %d linearizable, %d not, of %d\n", Name,
              Linearizable, Histories - Linearizable, Histories);
  EXPECT_GT(Linearizable, Histories / 10);
  EXPECT_GT(Histories - Linearizable, Histories / 10);
}

TEST(CheckerTest, AgreesWithBruteForceOnRandomStackHistories) {
  crossCheckAgainstBruteForce<BoundedStackSpec>(/*Fifo=*/false, 11, "stack");
}

TEST(CheckerTest, AgreesWithBruteForceOnRandomQueueHistories) {
  crossCheckAgainstBruteForce<BoundedQueueSpec>(/*Fifo=*/true, 12, "queue");
}

//===----------------------------------------------------------------------===
// BoundedDequeSpec end-discipline
//===----------------------------------------------------------------------===

TEST(DequeSpecTest, PlainPushAndPopAreRejected) {
  // The deque spec only speaks the four end-qualified codes; an adapter
  // that records a plain Push/Pop against it is a harness bug and must be
  // rejected outright, not silently folded onto one end.
  BoundedDequeSpec Spec(4);
  EXPECT_FALSE(
      Spec.apply(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1)));
  EXPECT_FALSE(
      Spec.apply(makeOp(0, OpCode::Pop, 0, ResCode::Empty, 0, 2, 3)));
}

TEST(DequeSpecTest, EndQualifiedSequenceIsAccepted) {
  BoundedDequeSpec Spec(4);
  EXPECT_TRUE(
      Spec.apply(makeOp(0, OpCode::PushLeft, 1, ResCode::Done, 0, 0, 1)));
  EXPECT_TRUE(
      Spec.apply(makeOp(0, OpCode::PushRight, 2, ResCode::Done, 0, 2, 3)));
  // [1, 2]: left pop sees 1, right pop sees 2, then the deque is empty.
  EXPECT_TRUE(
      Spec.apply(makeOp(0, OpCode::PopLeft, 0, ResCode::Value, 1, 4, 5)));
  EXPECT_TRUE(
      Spec.apply(makeOp(0, OpCode::PopRight, 0, ResCode::Value, 2, 6, 7)));
  EXPECT_TRUE(
      Spec.apply(makeOp(0, OpCode::PopLeft, 0, ResCode::Empty, 0, 8, 9)));
}

TEST(DequeSpecTest, FullEdgeAtCapacity) {
  BoundedDequeSpec Spec(2);
  EXPECT_TRUE(
      Spec.apply(makeOp(0, OpCode::PushLeft, 1, ResCode::Done, 0, 0, 1)));
  EXPECT_TRUE(
      Spec.apply(makeOp(0, OpCode::PushRight, 2, ResCode::Done, 0, 2, 3)));
  // At capacity: Done is illegal, Full is the only legal answer.
  EXPECT_FALSE(
      Spec.apply(makeOp(0, OpCode::PushLeft, 3, ResCode::Done, 0, 4, 5)));
  EXPECT_TRUE(
      Spec.apply(makeOp(0, OpCode::PushRight, 3, ResCode::Full, 0, 4, 5)));
}

TEST(DequeSpecTest, CheckerRejectsPlainPushHistoryAgainstDequeSpec) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1));
  EXPECT_FALSE(checkLinearizable(H, BoundedDequeSpec(2)).Linearizable);
}

//===----------------------------------------------------------------------===
// Oracle over real concurrent executions
//===----------------------------------------------------------------------===

/// Runs Rounds independent rounds. Each round constructs a fresh object
/// via MakeObject, runs Threads x OpsPerThread random operations through
/// Apply(Object, Tid, IsPush, Value, Recorder) — which records every
/// non-bottom completion — and checks the merged history against a fresh
/// spec (the object and the spec both start empty each round).
template <typename MakeObjFn, typename ApplyFn, typename SpecT>
void runAndCheck(std::uint32_t Threads, std::uint32_t OpsPerThread,
                 std::uint32_t Rounds, MakeObjFn MakeObject, ApplyFn Apply,
                 SpecT MakeSpec) {
  for (std::uint32_t Round = 0; Round < Rounds; ++Round) {
    auto Object = MakeObject();
    std::vector<HistoryRecorder> Recorders;
    for (std::uint32_t T = 0; T < Threads; ++T)
      Recorders.emplace_back(T);
    SpinBarrier Barrier(Threads);
    std::vector<std::thread> Workers;
    for (std::uint32_t T = 0; T < Threads; ++T)
      Workers.emplace_back([&, T] {
        SplitMix64 Rng(Round * 1000 + T);
        Barrier.arriveAndWait();
        for (std::uint32_t I = 0; I < OpsPerThread; ++I) {
          const bool IsPush = Rng.chance(1, 2);
          const auto V =
              static_cast<std::uint32_t>(Rng.below(1u << 16)) + 1;
          Apply(*Object, T, IsPush, V, Recorders[T]);
        }
      });
    for (auto &W : Workers)
      W.join();
    const History H = mergeHistories(Recorders);
    ASSERT_TRUE(H.wellFormed());
    const CheckResult Result = checkLinearizable(H, MakeSpec());
    ASSERT_FALSE(Result.HitSearchCap) << "inconclusive check";
    ASSERT_TRUE(Result.Linearizable) << Result.FailureNote;
  }
}

TEST(LincheckStress, AbortableStackLinearizesAndAbortsHaveNoEffect) {
  runAndCheck(
      3, 6, 40, [] { return std::make_unique<AbortableStack<>>(4); },
      [](AbortableStack<> &Stack, std::uint32_t, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        if (IsPush)
          Rec.recordCall([&] { return Stack.weakPush(V); }, V);
        else
          Rec.recordCall([&] { return Stack.weakPop(); });
      },
      [] { return BoundedStackSpec(4); });
}

TEST(LincheckStress, NonBlockingStackLinearizes) {
  runAndCheck(
      3, 6, 40, [] { return std::make_unique<NonBlockingStack<>>(4); },
      [](NonBlockingStack<> &Stack, std::uint32_t, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        if (IsPush)
          Rec.recordCall([&] { return Stack.push(V); }, V);
        else
          Rec.recordCall([&] { return Stack.pop(); });
      },
      [] { return BoundedStackSpec(4); });
}

TEST(LincheckStress, ContentionSensitiveStackLinearizes) {
  runAndCheck(
      3, 6, 40,
      [] { return std::make_unique<ContentionSensitiveStack<>>(3, 4); },
      [](ContentionSensitiveStack<> &Stack, std::uint32_t Tid, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        if (IsPush)
          Rec.recordCall([&] { return Stack.push(Tid, V); }, V);
        else
          Rec.recordCall([&] { return Stack.pop(Tid); });
      },
      [] { return BoundedStackSpec(4); });
}

TEST(LincheckStress, AbortableQueueLinearizes) {
  runAndCheck(
      3, 6, 40, [] { return std::make_unique<AbortableQueue<>>(4); },
      [](AbortableQueue<> &Queue, std::uint32_t, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        if (IsPush)
          Rec.recordCall([&] { return Queue.weakEnqueue(V); }, V);
        else
          Rec.recordCall([&] { return Queue.weakDequeue(); });
      },
      [] { return BoundedQueueSpec(4); });
}

TEST(LincheckStress, NonBlockingQueueLinearizes) {
  runAndCheck(
      3, 6, 40, [] { return std::make_unique<NonBlockingQueue<>>(4); },
      [](NonBlockingQueue<> &Queue, std::uint32_t, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        if (IsPush)
          Rec.recordCall([&] { return Queue.enqueue(V); }, V);
        else
          Rec.recordCall([&] { return Queue.dequeue(); });
      },
      [] { return BoundedQueueSpec(4); });
}

TEST(LincheckStress, ContentionSensitiveQueueLinearizes) {
  runAndCheck(
      3, 6, 40,
      [] { return std::make_unique<ContentionSensitiveQueue<>>(3, 4); },
      [](ContentionSensitiveQueue<> &Queue, std::uint32_t Tid, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        if (IsPush)
          Rec.recordCall([&] { return Queue.enqueue(Tid, V); }, V);
        else
          Rec.recordCall([&] { return Queue.dequeue(Tid); });
      },
      [] { return BoundedQueueSpec(4); });
}

TEST(LincheckStress, TreiberStackLinearizes) {
  runAndCheck(
      3, 6, 40, [] { return std::make_unique<TreiberStack>(3, 4); },
      [](TreiberStack &Stack, std::uint32_t, bool IsPush, std::uint32_t V,
         HistoryRecorder &Rec) {
        if (IsPush)
          Rec.recordCall([&] { return Stack.push(V); }, V);
        else
          Rec.recordCall([&] { return Stack.pop(); });
      },
      [] { return BoundedStackSpec(4); });
}

TEST(LincheckStress, EliminationStackLinearizes) {
  runAndCheck(
      3, 6, 40,
      [] {
        return std::make_unique<EliminationBackoffStack>(
            3, 4, /*SlotCount=*/2, /*SpinBudget=*/16);
      },
      [](EliminationBackoffStack &Stack, std::uint32_t Tid, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        if (IsPush)
          Rec.recordCall([&] { return Stack.push(Tid, V); }, V);
        else
          Rec.recordCall([&] { return Stack.pop(Tid); });
      },
      [] { return BoundedStackSpec(4); });
}

TEST(LincheckStress, MichaelScottQueueLinearizes) {
  runAndCheck(
      3, 6, 40, [] { return std::make_unique<MichaelScottQueue>(3, 4); },
      [](MichaelScottQueue &Queue, std::uint32_t, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        if (IsPush)
          Rec.recordCall([&] { return Queue.enqueue(V); }, V);
        else
          Rec.recordCall([&] { return Queue.dequeue(); });
      },
      [] { return BoundedQueueSpec(4); });
}

TEST(LincheckStress, LockedStackLinearizes) {
  runAndCheck(
      3, 6, 40, [] { return std::make_unique<LockedStack<>>(3, 4); },
      [](LockedStack<> &Stack, std::uint32_t Tid, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        if (IsPush)
          Rec.recordCall([&] { return Stack.push(Tid, V); }, V);
        else
          Rec.recordCall([&] { return Stack.pop(Tid); });
      },
      [] { return BoundedStackSpec(4); });
}

/// Negative control for the oracle: a mutex stack that answers Done to
/// every 7th push but drops the value. Every history it produces must be
/// rejected; a harness that accepts one has stopped checking anything.
class DropEverySeventhPush {
public:
  DropEverySeventhPush(std::uint32_t Threads, std::uint32_t Capacity)
      : Inner(Threads, Capacity) {}
  PushResult push(std::uint32_t Tid, std::uint32_t V) {
    if (Pushes.fetch_add(1, std::memory_order_relaxed) % 7 == 6)
      return PushResult::Done;
    return Inner.push(Tid, V);
  }
  PopResult<std::uint32_t> pop(std::uint32_t Tid) { return Inner.pop(Tid); }

private:
  LockedStack<> Inner;
  std::atomic<std::uint32_t> Pushes{0};
};

TEST(LincheckStress, DroppedPushStackIsRejected) {
  constexpr std::uint32_t Threads = 3;
  constexpr std::uint32_t OpsPerThread = 8;
  constexpr std::uint32_t Capacity = 4;
  for (std::uint32_t Round = 0; Round < 40; ++Round) {
    DropEverySeventhPush Stack(Threads, Capacity);
    std::vector<HistoryRecorder> Recorders;
    for (std::uint32_t T = 0; T < Threads; ++T)
      Recorders.emplace_back(T);
    SpinBarrier Barrier(Threads);
    std::vector<std::thread> Workers;
    for (std::uint32_t T = 0; T < Threads; ++T)
      Workers.emplace_back([&, T] {
        Barrier.arriveAndWait();
        // Alternating push/pop: 12 pushes per round, so one is dropped.
        for (std::uint32_t I = 0; I < OpsPerThread; ++I) {
          const std::uint32_t V = T * OpsPerThread + I + 1;
          if (I % 2 == 0)
            Recorders[T].recordCall([&] { return Stack.push(T, V); }, V);
          else
            Recorders[T].recordCall([&] { return Stack.pop(T); });
        }
      });
    for (auto &W : Workers)
      W.join();
    // Quiescent drain past Empty: the spec still owes the dropped value,
    // so the closing Empty answer has no legal linearization.
    for (std::uint32_t I = 0; I <= Capacity; ++I)
      Recorders[0].recordCall([&] { return Stack.pop(0); });
    const History H = mergeHistories(Recorders);
    ASSERT_TRUE(H.wellFormed());
    const CheckResult Result = checkLinearizable(H, BoundedStackSpec(Capacity));
    ASSERT_FALSE(Result.HitSearchCap) << "inconclusive check";
    ASSERT_FALSE(Result.Linearizable)
        << "round " << Round << " accepted a dropped push:\n"
        << H.describe();
  }
}

} // namespace
} // namespace csobj
