//===- perfbench/src/Workloads.h - The benchmark's named workloads -------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workload bodies for the closed loop (Loop.h) and their end-of-run
/// checks. Stack and bag workloads strictly alternate push and pop per
/// thread, starting with push, so the depth stays within
/// [prefill, prefill + threads]: Full and Empty are impossible and any
/// such answer is a failed op. The map workload draws uniform keys over
/// 1024 with value = key, so any get or erase returning another value,
/// and any insert answering Full below capacity, is a failed op.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "core/ContentionSensitiveMap.h"
#include "core/ContentionSensitiveStack.h"
#include "perf/AdaptiveShardedStack.h"
#include "support/SplitMix64.h"

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

namespace perfbench {

using csobj::PopResult;
using csobj::PushResult;

/// Op kinds. Stacks: push is the update, pop the get.
enum StackKind : unsigned { Push = 0, Pop = 1 };
enum MapKind : unsigned { Get = 0, Insert = 1, Erase = 2 };

inline std::uint64_t mix(std::uint64_t Seed, std::uint64_t Salt) {
  return csobj::SplitMix64(Seed ^ (0x9E3779B97F4A7C15ull * (Salt + 1)))();
}

/// Observed path counters of an object, or none for one without a sink.
template <typename T>
bool snapshotOf(const T &Obj, csobj::obs::PathSnapshot &Out) {
  if constexpr (requires { Obj.pathSnapshot(); }) {
    Out = Obj.pathSnapshot();
    return true;
  } else {
    return false;
  }
}

/// Alternating push/pop over any stack or bag with the
/// `push(Tid, V)` / `pop(Tid)` shape. Pushed values are distinct per
/// thread (a seeded base plus a counter), and the checksum compares
/// prefill + pushed - popped with what a final drain returns.
template <typename StackT>
class StackWork {
public:
  static constexpr unsigned GetKind = Pop;
  static constexpr const char *KindNames[] = {"op.push", "op.pop"};
  static constexpr bool IsMap = false;
  static constexpr bool IsBag = requires(StackT &X) { X.activeShards(); };

  struct Thread {
    std::uint32_t Next = 0;
    std::uint64_t PushSum = 0, PopSum = 0, Pushed = 0, Popped = 0;
  };

  template <typename... Args>
  StackWork(unsigned Threads, std::uint32_t Prefill, std::uint64_t Seed,
            Args &&...CtorArgs)
      : S(std::make_unique<StackT>(std::forward<Args>(CtorArgs)...)),
        Seed(Seed), Tallies(Threads) {
    std::uint32_t V = static_cast<std::uint32_t>(mix(Seed, 1000));
    for (std::uint32_t I = 0; I < Prefill; ++I, ++V) {
      const std::uint32_t Val = V & 0x7FFFFFFFu;
      if (S->push(0, Val) != PushResult::Done)
        ++PrefillFailed;
      PrefillSum += Val;
    }
    PrefillCount = Prefill;
    OpsIssued = Prefill;
  }

  Thread thread(unsigned Tid) {
    Thread T;
    T.Next = static_cast<std::uint32_t>(mix(Seed, Tid));
    return T;
  }

  unsigned op(Thread &T, unsigned Tid, std::uint64_t I, bool &Failed) {
    if ((I & 1) == 0) {
      const std::uint32_t V = T.Next++ & 0x7FFFFFFFu;
      if (S->push(Tid, V) == PushResult::Done) {
        T.PushSum += V;
        ++T.Pushed;
      } else {
        Failed = true;
      }
      return Push;
    }
    const PopResult<std::uint32_t> R = S->pop(Tid);
    if (R.isValue()) {
      T.PopSum += R.value();
      ++T.Popped;
    } else {
      Failed = true;
    }
    return Pop;
  }

  /// Workers hand their tallies back before they exit.
  void retire(unsigned Tid, const Thread &T) { Tallies[Tid] = T; }

  double activeShards() const {
    if constexpr (requires { S->activeShards(); })
      return S->activeShards();
    return 1.0;
  }
  std::uint64_t reconfigs() const {
    if constexpr (requires { S->reconfigEpoch(); })
      return S->reconfigEpoch();
    return 0;
  }

  std::size_t objectBytes() const {
    if constexpr (requires { S->footprintBytes(); })
      return S->footprintBytes();
    return sizeof(StackT);
  }

  /// Quiescent end-of-run checks: drains the object and compares the
  /// element checksum, then checks path conservation. Appends a message
  /// per failed check.
  void check(std::uint64_t Attempted, std::vector<std::string> &Errors) {
    std::uint64_t Expect = PrefillSum, Count = PrefillCount;
    for (const Thread &T : Tallies) {
      Expect += T.PushSum - T.PopSum;
      Count += T.Pushed - T.Popped;
    }
    OpsIssued += Attempted;
    std::uint64_t Sum = 0, Drained = 0;
    while (true) {
      ++OpsIssued;
      const PopResult<std::uint32_t> R = S->pop(0);
      if (!R.isValue())
        break;
      Sum += R.value();
      ++Drained;
    }
    if (PrefillFailed)
      Errors.push_back("prefill push failed");
    if (Sum != Expect || Drained != Count)
      Errors.push_back("checksum: drained " + std::to_string(Drained) +
                       " elements, expected " + std::to_string(Count));
    csobj::obs::PathSnapshot Snap;
    if (snapshotOf(*S, Snap)) {
      if (!Snap.conserves())
        Errors.push_back("PathSnapshot::conserves() failed");
      // One facade op may enter several shard skeletons (bag), never
      // fewer than one.
      if (Snap.Ops < OpsIssued ||
          (!IsBag && Snap.Ops != OpsIssued))
        Errors.push_back("path counters saw " + std::to_string(Snap.Ops) +
                         " ops, benchmark issued " +
                         std::to_string(OpsIssued));
    }
  }

  StackT &object() { return *S; }
  std::uint64_t opsIssued() const { return OpsIssued; }

private:
  std::unique_ptr<StackT> S;
  std::uint64_t Seed;
  std::vector<Thread> Tallies;
  std::uint64_t PrefillSum = 0, PrefillCount = 0, PrefillFailed = 0;
  std::uint64_t OpsIssued = 0;
};

/// E16 shape: uniform keys over KeyRange, half prefilled (a seeded
/// choice of keys), value = key, 90% get / 5% insert / 5% erase.
template <typename MapT>
class MapWork {
public:
  static constexpr unsigned GetKind = Get;
  static constexpr const char *KindNames[] = {"op.get", "op.insert",
                                              "op.erase"};
  static constexpr bool IsMap = true;
  static constexpr bool IsBag = false;
  static constexpr std::uint32_t KeyRange = 1024;

  struct Thread {
    csobj::SplitMix64 Rng;
    std::uint64_t Gets = 0;
  };

  MapWork(unsigned Threads, std::uint64_t Seed)
      : M(std::make_unique<MapT>(Threads, KeyRange)), Seed(Seed),
        Gets(Threads, 0) {
    std::vector<std::uint32_t> Keys(KeyRange);
    std::iota(Keys.begin(), Keys.end(), 0u);
    csobj::SplitMix64 Rng(mix(Seed, 2000));
    for (std::uint32_t I = KeyRange - 1; I > 0; --I)
      std::swap(Keys[I], Keys[Rng.below(I + 1)]);
    for (std::uint32_t I = 0; I < KeyRange / 2; ++I)
      if (M->insert(0, Keys[I], Keys[I]) != PushResult::Done)
        ++PrefillFailed;
    OpsIssued = KeyRange / 2;
  }

  Thread thread(unsigned Tid) { return {csobj::SplitMix64(mix(Seed, Tid)), 0}; }

  unsigned op(Thread &T, unsigned Tid, std::uint64_t, bool &Failed) {
    const std::uint64_t R = T.Rng();
    const std::uint32_t K = static_cast<std::uint32_t>(R) & (KeyRange - 1);
    const std::uint32_t Roll = static_cast<std::uint32_t>(R >> 32) % 100;
    if (Roll < 90) {
      ++T.Gets;
      const PopResult<std::uint32_t> Res = M->get(Tid, K);
      Failed = Res.isAbort() || (Res.isValue() && Res.value() != K);
      return Get;
    }
    if (Roll < 95) {
      Failed = M->insert(Tid, K, K) != PushResult::Done;
      return Insert;
    }
    const PopResult<std::uint32_t> Res = M->erase(Tid, K);
    Failed = Res.isAbort() || (Res.isValue() && Res.value() != K);
    return Erase;
  }

  void retire(unsigned Tid, const Thread &T) { Gets[Tid] = T.Gets; }

  double activeShards() const { return 1.0; }
  std::uint64_t reconfigs() const { return 0; }
  std::size_t objectBytes() const { return M->footprintBytes(); }

  /// Reads issued so far (the workers' and the check's): they book a
  /// Shortcut path without entering a skeleton.
  std::uint64_t gets() const {
    return std::accumulate(Gets.begin(), Gets.end(), CheckGets);
  }

  void check(std::uint64_t Attempted, std::vector<std::string> &Errors) {
    OpsIssued += Attempted;
    std::uint32_t Live = 0;
    for (std::uint32_t K = 0; K < KeyRange; ++K) {
      ++OpsIssued;
      ++CheckGets;
      const PopResult<std::uint32_t> R = M->get(0, K);
      if (R.isValue()) {
        ++Live;
        if (R.value() != K)
          Errors.push_back("key " + std::to_string(K) + " maps to " +
                           std::to_string(R.value()));
      } else if (!R.isEmpty()) {
        Errors.push_back("get aborted on key " + std::to_string(K));
      }
    }
    if (PrefillFailed)
      Errors.push_back("prefill insert failed");
    if (Live != M->sizeForTesting())
      Errors.push_back("live keys by get disagree with the level-0 walk");
    const csobj::obs::PathSnapshot Snap = M->pathSnapshot();
    if (!Snap.conserves())
      Errors.push_back("PathSnapshot::conserves() failed");
    if (Snap.Ops != OpsIssued)
      Errors.push_back("path counters saw " + std::to_string(Snap.Ops) +
                       " ops, benchmark issued " + std::to_string(OpsIssued));
  }

  MapT &object() { return *M; }
  std::uint64_t opsIssued() const { return OpsIssued; }

private:
  std::unique_ptr<MapT> M;
  std::uint64_t Seed;
  std::vector<std::uint64_t> Gets;
  std::uint64_t CheckGets = 0;
  std::uint64_t PrefillFailed = 0;
  std::uint64_t OpsIssued = 0;
};

/// Negative control: a stack adapter that silently drops every 7th push
/// of each thread while answering Done. The checksum (and, once the
/// depth runs out, failed pops) must reject it.
template <typename StackT>
class DropEverySeventhPush {
public:
  template <typename... Args>
  explicit DropEverySeventhPush(std::uint32_t Threads, Args &&...CtorArgs)
      : S(Threads, std::forward<Args>(CtorArgs)...), Count(Threads) {}

  PushResult push(std::uint32_t Tid, std::uint32_t V) {
    if (++Count[Tid].N % 7 == 0)
      return PushResult::Done;
    return S.push(Tid, V);
  }
  PopResult<std::uint32_t> pop(std::uint32_t Tid) { return S.pop(Tid); }

private:
  struct alignas(64) Counter {
    std::uint64_t N = 0;
  };
  StackT S;
  std::vector<Counter> Count;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
