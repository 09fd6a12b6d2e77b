//===- perfbench/src/Loop.h - Lean pinned closed loop --------------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own load generator: one process, at most nproc pinned
/// workers behind a spin start line, a warm-up phase, then a timed
/// window. Every operation is counted; only every SampleStride-th one
/// reads the timer (three times: around the op, then once more to time
/// the timer itself), so the loop costs one relaxed load of the phase
/// word per op plus the workload's input generation. Each worker
/// issues its next op when the previous one returns (closed loop, zero
/// think time).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LOOP_H
#define PERFBENCH_LOOP_H

#include "Trace.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

namespace perfbench {

/// Odd, so strictly alternating push/pop workloads sample both kinds.
/// A 30 s run still samples a few hundred thousand ops on every
/// workload, so each p99 has thousands of samples beyond it.
inline constexpr std::uint64_t SampleStride = 511;
inline constexpr std::size_t SampleCap = std::size_t{1} << 18;
inline constexpr std::size_t SpanCap = std::size_t{1} << 17;
inline constexpr std::uint64_t StuckAfterNs = 10'000'000'000ull;

/// CPUs this process may run on, ascending.
inline std::vector<int> allowedCpus() {
  std::vector<int> Cpus;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  return Cpus;
}

inline bool pin(std::thread &T, int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  return pthread_setaffinity_np(T.native_handle(), sizeof(Set), &Set) == 0;
}

/// Sample kind of an empty interval: the cost of one timer read, taken
/// right after each sampled op so that it sees the same conditions.
inline constexpr unsigned FloorKind = 0xFF;

/// A sample packs (ticks << 8) | kind; longer ops saturate at MaxTicks.
inline constexpr std::uint32_t MaxTicks = (1u << 24) - 1;
inline std::uint32_t packSample(std::uint64_t Ticks, unsigned Kind) {
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(Ticks, MaxTicks)
                                    << 8) |
         Kind;
}

/// One worker's tallies for one repetition.
struct alignas(64) WorkerStats {
  std::uint64_t Attempted = 0; ///< All phases.
  std::uint64_t Failed = 0;    ///< All phases.
  std::uint64_t TimedOps = 0;
  std::uint64_t TimedStart = 0, TimedEnd = 0;
  bool Pinned = false;
  std::atomic<bool> Finished{false};
  std::vector<std::uint32_t> Samples;
  SpanBuffer Spans;
};

/// What one repetition measured, before any workload-specific checks.
struct RepTiming {
  double SetupS = 0;
  double WindowS = 0;
  double Overlap = 0; ///< |∩ worker windows| / |∪ worker windows|.
  double NsPerTick = 1;
  double ActiveShardsMean = 1;
  std::uint64_t Reconfigs = 0;
  std::uint64_t TimedOps = 0;
};

enum Phase : int { Spawning = 0, Warming = 1, Timing = 2, Stopping = 3 };

/// Runs one repetition: constructs the workload (object + prefill) with
/// \p Make, spawns and pins Threads workers, warms up, times a window
/// of \p Seconds, stops and joins. Set-up time runs from the call to
/// \p Make until every worker waits at the start line. The workload
/// stays alive in \p Out for the caller's end-of-run checks.
///
/// Work provides: `struct Thread`, `Thread thread(unsigned Tid)`,
/// `unsigned op(Thread &, unsigned Tid, std::uint64_t I, bool &Failed)`
/// returning the op kind, `void retire(unsigned Tid, const Thread &)`
/// (called once the worker stops), `double activeShards()` and
/// `std::uint64_t reconfigs()`.
template <bool Traced, typename Work, typename MakeFn>
RepTiming runRep(MakeFn Make, std::unique_ptr<Work> &Out, unsigned Threads,
                 double Seconds, double WarmSeconds,
                 std::vector<WorkerStats> &Stats) {
  static const std::vector<int> Cpus = allowedCpus();
  RepTiming T;
  alignas(64) std::atomic<int> PhaseWord{Spawning};
  std::atomic<unsigned> Ready{0};
  for (WorkerStats &S : Stats) {
    S.Attempted = S.Failed = S.TimedOps = 0;
    S.Finished.store(false, std::memory_order_relaxed);
    S.Samples.clear();
    S.Spans.Spans.clear();
    S.Spans.Dropped = 0;
  }

  const std::uint64_t SetupBegin = nowNs();
  Out = Make();
  Work &W = *Out;
  std::vector<std::thread> Workers;
  Workers.reserve(Threads);
  for (unsigned Tid = 0; Tid < Threads; ++Tid) {
    Workers.emplace_back([&, Tid] {
      WorkerStats &S = Stats[Tid];
      typename Work::Thread Th = W.thread(Tid);
      CurrentBuffer = &S.Spans;
      Ready.fetch_add(1, std::memory_order_release);
      // Yield while others start: with every CPU taken by a worker, a
      // pause-only spin would keep this thread's creator off the CPU for
      // a whole scheduler slice.
      while (PhaseWord.load(std::memory_order_acquire) == Spawning)
        std::this_thread::yield();
      std::uint64_t I = 0, Failed = 0;
      bool Fail = false;
      auto Run = [&](std::uint64_t Idx) {
        W.op(Th, Tid, Idx, Fail);
        Failed += Fail;
        Fail = false;
      };
      while (PhaseWord.load(std::memory_order_relaxed) == Warming)
        Run(I++);
      S.TimedStart = nowNs();
      const std::uint64_t First = I;
      std::uint64_t NextSample = I + 1 + 17 * Tid % SampleStride;
      std::uint64_t RootSeq = 0;
      while (PhaseWord.load(std::memory_order_relaxed) == Timing) {
        if (I != NextSample) {
          Run(I++);
          continue;
        }
        NextSample += SampleStride;
        if constexpr (Traced)
          CurrentRoot = (std::uint64_t{Tid} << 48) | ++RootSeq;
        const std::uint64_t T0 = ticks();
        const unsigned Kind = W.op(Th, Tid, I++, Fail);
        const std::uint64_t T1 = ticks();
        const std::uint64_t T2 = ticks();
        if constexpr (Traced) {
          S.Spans.record(static_cast<std::uint8_t>(Kind), CurrentRoot, T0,
                         T1);
          CurrentRoot = 0;
        }
        Failed += Fail;
        Fail = false;
        if (S.Samples.size() + 2 <= S.Samples.capacity()) {
          S.Samples.push_back(packSample(T1 - T0, Kind));
          S.Samples.push_back(packSample(T2 - T1, FloorKind));
        }
      }
      S.TimedEnd = nowNs();
      S.TimedOps = I - First;
      S.Attempted = I;
      S.Failed = Failed;
      W.retire(Tid, Th);
      S.Finished.store(true, std::memory_order_release);
    });
    // Pinned by the creator, before the thread first runs, so it starts
    // on its own CPU instead of queueing behind its siblings.
    Stats[Tid].Pinned =
        !Cpus.empty() && pin(Workers.back(), Cpus[Tid % Cpus.size()]);
  }
  while (Ready.load(std::memory_order_acquire) != Threads)
    std::this_thread::yield();
  T.SetupS = static_cast<double>(nowNs() - SetupBegin) * 1e-9;

  PhaseWord.store(Warming, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(WarmSeconds));
  const std::uint64_t Reconfigs0 = W.reconfigs();
  const std::uint64_t Begin = nowNs();
  const std::uint64_t Tick0 = ticks();
  PhaseWord.store(Timing, std::memory_order_release);
  // The otherwise idle main thread samples a bag's shard mask; for the
  // other objects it sleeps through the window, so it never preempts a
  // worker (every CPU runs one).
  const std::uint64_t End =
      Begin + static_cast<std::uint64_t>(Seconds * 1e9);
  double ShardSum = 0;
  std::uint64_t ShardSamples = 0;
  for (std::uint64_t Now = Begin; Now < End; Now = nowNs()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        Work::IsBag ? std::min<std::uint64_t>(End - Now, 5'000'000)
                    : End - Now));
    ShardSum += W.activeShards();
    ++ShardSamples;
  }
  PhaseWord.store(Stopping, std::memory_order_release);
  const std::uint64_t Stop = nowNs();
  const std::uint64_t Tick1 = ticks();
  // An op that has not returned long after the stop signal is a hang in
  // the object: report it and end the process, whose exit also ends the
  // stuck workers (they cannot be joined).
  const std::uint64_t Deadline = nowNs() + StuckAfterNs;
  for (unsigned Tid = 0; Tid < Threads; ++Tid)
    while (!Stats[Tid].Finished.load(std::memory_order_acquire)) {
      if (nowNs() > Deadline) {
        std::fprintf(stderr,
                     "worker %u did not return from its op within %g s of "
                     "the stop signal\n",
                     Tid, StuckAfterNs * 1e-9);
        std::fflush(stderr);
        std::_Exit(3);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  for (std::thread &Th : Workers)
    Th.join();
  T.Reconfigs = W.reconfigs() - Reconfigs0;
  T.WindowS = static_cast<double>(Stop - Begin) * 1e-9;
  if (Tick1 > Tick0)
    T.NsPerTick = static_cast<double>(Stop - Begin) /
                  static_cast<double>(Tick1 - Tick0);
  T.ActiveShardsMean = ShardSamples ? ShardSum / ShardSamples : 1.0;

  std::uint64_t MaxStart = 0, MinEnd = ~std::uint64_t{0};
  std::uint64_t MinStart = ~std::uint64_t{0}, MaxEnd = 0;
  for (unsigned Tid = 0; Tid < Threads; ++Tid) {
    const WorkerStats &S = Stats[Tid];
    T.TimedOps += S.TimedOps;
    MaxStart = std::max(MaxStart, S.TimedStart);
    MinStart = std::min(MinStart, S.TimedStart);
    MinEnd = std::min(MinEnd, S.TimedEnd);
    MaxEnd = std::max(MaxEnd, S.TimedEnd);
  }
  T.Overlap = MinEnd > MaxStart ? static_cast<double>(MinEnd - MaxStart) /
                                      static_cast<double>(MaxEnd - MinStart)
                                : 0.0;
  return T;
}

} // namespace perfbench

#endif // PERFBENCH_LOOP_H
