//===- tests/conformance/conformance_test.cpp - Battery driver -----------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the conformance battery (Battery.h): every registered object
/// runs the same six cells, parameterized over the registry. Two
/// registry-level tests make the battery self-enforcing: the matrix may
/// not have empty cells, and every header under src/core must be claimed
/// by some entry — adding a new core object without registering it here
/// fails the CI conformance job.
///
/// Also hosts the StarvationFreeLock<Leasable> fault-plan coverage that
/// the battery's lock-level crash sweep builds on: an explorer-driven
/// FaultPlan crash (faultPlanPick) and a wall-clock stall plan that must
/// never falsely revoke a live default-patience holder.
///
//===----------------------------------------------------------------------===//

#include "conformance/Battery.h"

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace csobj {
namespace conformance {
namespace {

//===----------------------------------------------------------------------===
// The matrix: object x cell
//===----------------------------------------------------------------------===

class BatteryTest : public ::testing::TestWithParam<const BatteryEntry *> {};

TEST_P(BatteryTest, SpecReplay) {
  ASSERT_TRUE(GetParam()->SpecReplay);
  GetParam()->SpecReplay();
}

TEST_P(BatteryTest, LincheckStress) {
  ASSERT_TRUE(GetParam()->LincheckStress);
  GetParam()->LincheckStress();
}

TEST_P(BatteryTest, Explore) {
  ASSERT_TRUE(GetParam()->Explore);
  GetParam()->Explore();
}

TEST_P(BatteryTest, Chaos) {
  ASSERT_TRUE(GetParam()->Chaos);
  GetParam()->Chaos();
}

TEST_P(BatteryTest, CrashOrStall) {
  ASSERT_TRUE(GetParam()->CrashOrStall);
  GetParam()->CrashOrStall();
}

TEST_P(BatteryTest, AccessBound) {
  ASSERT_TRUE(GetParam()->AccessBound);
  GetParam()->AccessBound();
}

std::vector<const BatteryEntry *> batteryPointers() {
  std::vector<const BatteryEntry *> Out;
  for (const BatteryEntry &E : batteryRegistry())
    Out.push_back(&E);
  return Out;
}

std::string batteryName(
    const ::testing::TestParamInfo<const BatteryEntry *> &Info) {
  std::string Name = Info.param->Name;
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(Conformance, BatteryTest,
                         ::testing::ValuesIn(batteryPointers()), batteryName);

//===----------------------------------------------------------------------===
// Registry self-enforcement
//===----------------------------------------------------------------------===

TEST(ConformanceRegistryTest, MatrixHasNoEmptyCells) {
  std::set<std::string> Names;
  for (const BatteryEntry &E : batteryRegistry()) {
    EXPECT_FALSE(E.Name.empty());
    EXPECT_TRUE(Names.insert(E.Name).second)
        << "duplicate battery entry: " << E.Name;
    EXPECT_TRUE(E.SpecReplay) << E.Name;
    EXPECT_TRUE(E.LincheckStress) << E.Name;
    EXPECT_TRUE(E.Explore) << E.Name;
    EXPECT_TRUE(E.Chaos) << E.Name;
    EXPECT_TRUE(E.CrashOrStall) << E.Name;
    EXPECT_TRUE(E.AccessBound) << E.Name;
  }
  EXPECT_GE(Names.size(), 31u);
}

/// The adaptive-stack entry exists to check a moving mask: with the
/// battery's geometry, filling the bag (as SpecReplay does before it
/// crosses the Full edge) must grow the mask from one shard to all.
TEST(ConformanceRegistryTest, AdaptiveStackEntryGrowsOnFull) {
  auto Obj = AdaptiveStackAdapter::make(StressThreads, SmallCapacity);
  ASSERT_EQ(Obj->activeShards(), 1u);
  for (std::uint32_t V = 1; V <= SmallCapacity; ++V)
    ASSERT_EQ(AdaptiveStackAdapter::push(*Obj, 0, V), PushResult::Done);
  EXPECT_EQ(Obj->activeShards(), Obj->maxShards());
  EXPECT_EQ(AdaptiveStackAdapter::push(*Obj, 0, 0), PushResult::Full);
}

TEST(ConformanceRegistryTest, EveryCoreHeaderHasABatteryEntry) {
  namespace fs = std::filesystem;
  std::set<std::string> Covered;
  for (const BatteryEntry &E : batteryRegistry())
    Covered.insert(E.CoveredHeaders.begin(), E.CoveredHeaders.end());

  const fs::path CoreDir = fs::path(CSOBJ_SOURCE_DIR) / "src" / "core";
  ASSERT_TRUE(fs::exists(CoreDir)) << CoreDir;
  std::vector<std::string> Missing;
  std::uint32_t HeadersSeen = 0;
  for (const auto &Entry : fs::directory_iterator(CoreDir)) {
    if (Entry.path().extension() != ".h")
      continue;
    ++HeadersSeen;
    const std::string Name = Entry.path().filename().string();
    if (!Covered.count(Name))
      Missing.push_back(Name);
  }
  EXPECT_GT(HeadersSeen, 0u);
  std::string Joined;
  for (const std::string &M : Missing)
    Joined += M + " ";
  EXPECT_TRUE(Missing.empty())
      << "src/core headers with no battery entry (register an adapter in "
         "tests/conformance/Battery.h): "
      << Joined;

  // Reverse direction: a covered-header claim must name a file that still
  // exists, so renames cannot leave the registry silently stale.
  for (const std::string &Name : Covered)
    EXPECT_TRUE(fs::exists(CoreDir / Name))
        << "battery entry claims nonexistent core header " << Name;
}

//===----------------------------------------------------------------------===
// Negative control for the AccessBound oracle
//===----------------------------------------------------------------------===

/// The Figure 3 stack with one extra counted read on push: a solo push
/// costs 7 accesses against the battery's {6, 6} bound. The unmutated
/// stack is the battery's cs-stack entry, the positive control.
struct ExtraReadStackAdapter {
  struct Object {
    Object(std::uint32_t Threads, std::uint32_t Capacity)
        : Stack(Threads, Capacity) {}
    ContentionSensitiveStack<> Stack;
    AtomicRegister<std::uint32_t> Extra{0};
  };
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Threads, Capacity);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    (void)O.Extra.read();
    return O.Stack.push(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.Stack.pop(Tid);
  }
};

TEST(AccessBoundOracleTest, ExtraCountedReadFailsBothModes) {
  EXPECT_NONFATAL_FAILURE(
      accessBoundCell<ExtraReadStackAdapter>(AccessBounds{6, 6, true}),
      "PushCounts.total()");
  EXPECT_NONFATAL_FAILURE(
      accessBoundCell<ExtraReadStackAdapter>(AccessBounds{6, 6, false}),
      "PushCounts.total()");
}

//===----------------------------------------------------------------------===
// StarvationFreeLock<Leasable> under FaultPlan
//===----------------------------------------------------------------------===

TEST(LeasableLockFaultPlanTest, ExplorerCrashPlanIsSurvivedAndHealed) {
  // A FaultPlan crash delivered through faultPlanPick: the victim dies at
  // its 5th shared access — mid-acquisition, with its doorway flag
  // already raised — and the survivor's unbounded lock() must still
  // terminate and leave the lock healed.
  StarvationFreeLock<LeasableTag<16>> Lock(3);
  AtomicRegister<std::uint32_t> Reg;
  InterleaveScheduler Scheduler(2);
  Scheduler.run({[&] {
                   Lock.lock(0);
                   Reg.write(1);
                   Lock.unlock(0);
                 },
                 [&] {
                   Lock.lock(1);
                   Reg.write(2);
                   Lock.unlock(1);
                 }},
                faultPlanPick(FaultPlan::crashAt(0, 4)));
  EXPECT_EQ(Reg.peekForTesting(), 2u);
  EXPECT_EQ(Lock.inner().holderForTesting(), 0u);
  EXPECT_TRUE(Lock.suspects().isSuspectForTesting(0));

  // Healed: a third process acquires on the main thread.
  Lock.lock(2);
  Lock.unlock(2);
  EXPECT_EQ(Lock.inner().holderForTesting(), 0u);
}

TEST(LeasableLockFaultPlanTest, StallPlanNeverRevokesALiveDefaultHolder) {
  // Wall-clock stall plan: the victim is held at an access for
  // StallPlanGrants foreign accesses — far below the default patience —
  // so mutual exclusion over plain memory must survive with no
  // revocations and no lost leases.
  constexpr std::uint32_t Iterations = 50;
  StarvationFreeLock<Leasable> Lock(2);
  std::uint64_t Counter = 0;
  FaultClock Clock;
  const FaultPlan Plan =
      FaultPlan::stallAt(0, StallPlanAtAccess, StallPlanGrants);
  SpinBarrier Barrier(2);
  std::vector<std::thread> Threads;
  for (std::uint32_t T = 0; T < 2; ++T) {
    Threads.emplace_back([&, T] {
      FaultInjector Hook(Plan, T, Clock);
      SchedHookScope Scope(Hook);
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < Iterations; ++I) {
        Lock.lock(T);
        ++Counter;
        Lock.unlock(T);
      }
    });
  }
  for (auto &Th : Threads)
    Th.join();
  EXPECT_EQ(Counter, 2u * Iterations);
  EXPECT_EQ(Lock.inner().revocations(), 0u);
  EXPECT_EQ(Lock.inner().lostLeases(), 0u);
  EXPECT_EQ(Lock.inner().holderForTesting(), 0u);
}

} // namespace
} // namespace conformance
} // namespace csobj
