//===- perfbench/src/Ladder.h - Solo layer timings and access audits ----===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solo ladder: each rung calls one layer's public API directly on
/// one thread, so the cost of an operation splits into rungs (raw CAS,
/// Fig 1's abortable op, Fig 2's retry loop, Fig 3's shortcut, Fig 3 on
/// Instrumented registers, hazard publication, skip-list search, map
/// updates). Also the exact solo access-count audit on Instrumented
/// twins of the benchmarked objects.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LADDER_H
#define PERFBENCH_LADDER_H

#include "Stats.h"
#include "Trace.h"

#include "core/AbortableStack.h"
#include "core/ContentionSensitiveMap.h"
#include "core/ContentionSensitiveStack.h"
#include "core/NonBlockingStack.h"
#include "memory/AccessCounter.h"
#include "memory/HazardDomain.h"
#include "support/SplitMix64.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using csobj::Compact64;
using csobj::Fast;
using csobj::Instrumented;
using csobj::NoBackoff;

template <typename Policy>
using CsStack = csobj::ContentionSensitiveStack<
    Compact64, csobj::TasLockT<Policy>, NoBackoff, Policy>;
template <typename Policy>
using CsMap =
    csobj::ContentionSensitiveMap<csobj::TasLockT<Policy>, NoBackoff, Policy>;

inline volatile std::uint64_t LadderSink = 0;

/// Median over 5 rounds of the per-iteration cost of \p Body(I).
template <typename BodyFn>
double nsPerCall(std::uint64_t Iters, BodyFn Body) {
  std::vector<double> Rounds;
  for (int R = 0; R < 5; ++R) {
    std::uint64_t Acc = 0;
    const std::uint64_t T0 = nowNs();
    for (std::uint64_t I = 0; I < Iters; ++I)
      Acc += Body(I);
    const std::uint64_t T1 = nowNs();
    LadderSink = LadderSink + Acc;
    Rounds.push_back(static_cast<double>(T1 - T0) / Iters);
  }
  return median(Rounds);
}

/// Cost of one steady_clock::now().
inline double clockFloorNs() {
  return nsPerCall(200000, [](std::uint64_t) { return nowNs(); });
}

/// Alternating push/pop cost of a stack prefilled to half of 4096.
template <typename PushFn, typename PopFn>
double stackRung(PushFn Push, PopFn Pop) {
  for (std::uint32_t V = 1; V <= 2048; ++V)
    Push(V);
  return nsPerCall(400000, [&](std::uint64_t I) -> std::uint64_t {
    if ((I & 1) == 0)
      return Push(static_cast<std::uint32_t>(I) & 0x7FFFFFFFu);
    return Pop();
  });
}

/// Solo skip-list search and map updates on the map-mixed shape (1024
/// keys, a seeded half live). Each call is timed on its own, so every
/// figure includes one clock floor.
inline void mapLadder(std::uint64_t Seed, Metrics &Out) {
  constexpr std::uint32_t Range = 1024;
  CsMap<Fast> M(1, Range);
  csobj::SplitMix64 Rng(Seed ^ 0x3C6EF372FE94F82Bull);
  std::vector<bool> Live(Range, false);
  for (std::uint32_t Filled = 0; Filled < Range / 2;) {
    const std::uint32_t K = static_cast<std::uint32_t>(Rng.below(Range));
    if (Live[K])
      continue;
    (void)M.insert(0, K, K);
    Live[K] = true;
    ++Filled;
  }
  std::vector<std::uint64_t> Find, Ins, Ers;
  for (int I = 0; I < 20000; ++I) {
    const std::uint32_t K = static_cast<std::uint32_t>(Rng.below(Range));
    const std::uint64_t T0 = nowNs();
    const auto F = M.core().find(0, K);
    const std::uint64_t T1 = nowNs();
    M.core().domain().clearAll(0);
    LadderSink = LadderSink + F.Found;
    Find.push_back(T1 - T0);
  }
  for (int I = 0; I < 20000; ++I) {
    const std::uint32_t K = static_cast<std::uint32_t>(Rng.below(Range));
    const std::uint64_t T0 = nowNs();
    if (Live[K])
      LadderSink = LadderSink + M.erase(0, K).value();
    else
      LadderSink = LadderSink + std::uint64_t(M.insert(0, K, K));
    (Live[K] ? Ers : Ins).push_back(nowNs() - T0);
    Live[K] = !Live[K];
  }
  Out.add("map.find_ns.p50", percentile(Find, 0.50), "ns");
  Out.add("map.insert_ns.p50", percentile(Ins, 0.50), "ns");
  Out.add("map.insert_ns.p99", percentile(Ins, 0.99), "ns");
  Out.add("map.erase_ns.p50", percentile(Ers, 0.50), "ns");
  Out.add("map.erase_ns.p99", percentile(Ers, 0.99), "ns");
}

inline void soloLadder(std::uint64_t Seed, Metrics &Out) {
  {
    csobj::AtomicRegister<std::uint64_t, Fast> R(0);
    std::uint64_t Cur = 0;
    Out.add("memory.cas_ns", nsPerCall(1000000, [&](std::uint64_t) {
              const bool Swapped = R.compareAndSwap(Cur, Cur + 1);
              Cur += Swapped;
              return std::uint64_t{Swapped};
            }), "ns");
  }
  {
    csobj::AbortableStack<Compact64, Fast> S(4096);
    Out.add("core.fig1_op_ns",
            stackRung([&](std::uint32_t V) {
                        return std::uint64_t(S.weakPush(V));
                      },
                      [&] { return std::uint64_t(S.weakPop().value()); }),
            "ns");
  }
  {
    csobj::NonBlockingStack<Compact64, NoBackoff, Fast> S(4096);
    Out.add("core.fig2_op_ns",
            stackRung([&](std::uint32_t V) { return std::uint64_t(S.push(V)); },
                      [&] { return std::uint64_t(S.pop().value()); }),
            "ns");
  }
  {
    CsStack<Fast> S(1, 4096);
    Out.add("core.fig3_op_ns",
            stackRung(
                [&](std::uint32_t V) { return std::uint64_t(S.push(0, V)); },
                [&] { return std::uint64_t(S.pop(0).value()); }),
            "ns");
  }
  {
    CsStack<Instrumented> S(1, 4096);
    Out.add("core.fig3_instrumented_op_ns",
            stackRung(
                [&](std::uint32_t V) { return std::uint64_t(S.push(0, V)); },
                [&] { return std::uint64_t(S.pop(0).value()); }),
            "ns");
  }
  {
    csobj::HazardDomain D(1, 16);
    std::uint64_t Targets[16] = {};
    Out.add("memory.hazard_protect_ns",
            nsPerCall(1000000,
                      [&](std::uint64_t I) {
                        D.protect(0, I & 15, &Targets[I & 15]);
                        return I;
                      }),
            "ns");
  }
  mapLadder(Seed, Out);
}

/// Exact solo access counts on Instrumented twins: the stack's six, and
/// the map's get hit 9 / miss 8 / fresh insert 11 (a height-one key on
/// an empty map, so the search makes one read per level).
inline void auditAccessCounts(std::vector<std::string> &Errors) {
  auto Expect = [&](const char *What, std::uint64_t Got, std::uint64_t Want) {
    if (Got != Want)
      Errors.push_back(std::string("solo access count of ") + What + ": " +
                       std::to_string(Got) + ", expected " +
                       std::to_string(Want));
  };
  CsStack<Instrumented> S(1, 16);
  Expect("stack push",
         csobj::countAccesses([&] { (void)S.push(0, 7); }).total(), 6);
  Expect("stack pop", csobj::countAccesses([&] { (void)S.pop(0); }).total(),
         6);
  CsMap<Instrumented> M(1, 64);
  std::uint32_t K = 0;
  while (CsMap<Instrumented>::Core::heightOf(K) != 1)
    ++K;
  Expect("map get miss",
         csobj::countAccesses([&] { (void)M.get(0, K); }).total(), 8);
  Expect("map fresh insert",
         csobj::countAccesses([&] { (void)M.insert(0, K, K); }).total(), 11);
  Expect("map get hit",
         csobj::countAccesses([&] { (void)M.get(0, K); }).total(), 9);
}

} // namespace perfbench

#endif // PERFBENCH_LADDER_H
