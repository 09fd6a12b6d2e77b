//===- perfbench/src/main.cpp - csobj benchmark entry point --------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one named workload on Fast-register objects (metric sinks on, as
/// the library ships them) and prints two JSON lines: a record with the
/// run's provenance and details, then the result line
/// `{"correct", "attempted", "failed", "metrics"}`.
///
///   csbench --workload <stack-solo|stack-contended|map-mixed|bag-contended>
///           --seed <n> --seconds <s> --trace <0|1>
///           [--object default|broken-drop7|locked] [--trace-out <csv>]
///
/// --trace 0 reports the end-to-end metrics from untraced repetitions.
/// --trace 1 splits the time between untraced and traced repetitions (the
/// objects' lock is TracedLock<TasLock>) and reports per-layer metrics,
/// including the solo ladder and the trace overhead. --object swaps the
/// stack workloads' object for a control: a stack that drops every 7th
/// push (must fail) or a mutex-backed stack (must pass). Exits 1 when a
/// check fails, 2 on bad arguments.
///
//===----------------------------------------------------------------------===//

#include "Ladder.h"
#include "Loop.h"
#include "Stats.h"
#include "Trace.h"
#include "Workloads.h"

#include "baselines/LockedStack.h"
#include "locks/LockTraits.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace perfbench;
using csobj::Fast;

namespace {

template <typename L>
using Stack = csobj::ContentionSensitiveStack<csobj::Compact64, L,
                                              csobj::NoBackoff, Fast>;
template <typename L>
using Bag = csobj::AdaptiveShardedStack<8, csobj::Compact64, L,
                                        csobj::NoBackoff, Fast>;
template <typename L>
using Map = csobj::ContentionSensitiveMap<L, csobj::NoBackoff, Fast>;
using PlainLock = csobj::TasLockT<Fast>;
using SpanLock = TracedLock<csobj::TasLockT<Fast>>;

constexpr std::uint32_t StackCapacity = 4096;
constexpr std::uint32_t StackPrefill = StackCapacity / 2;
/// A run is many short repetitions, each with its own set-up, so that
/// set-up time is a median of many and a throughput or latency figure
/// pools windows spread over the whole run.
constexpr double RepTargetSeconds = 0.5;
constexpr double WarmSeconds = 0.05;
constexpr double MinOverlap = 0.9;

struct Options {
  std::string Workload;
  std::string Object = "default";
  std::string TraceOut;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

/// What the repetitions of one mode (untraced or traced) measured.
/// Throughput and latency percentiles pool every repetition: the host's
/// speed shifts between regimes lasting seconds, and a pooled figure
/// moves with the share of time spent in each, where a median of
/// repetitions would jump from one regime's value to the other's.
struct Summary {
  std::vector<double> SetupS, OpsPerS, ObjectBytes, NsPerTick, ThreadShare,
      ActiveShards;
  std::vector<std::uint32_t> Samples; ///< packSample()s of all reps.
  std::uint64_t TimedOps = 0, Reconfigs = 0;
  double WindowS = 0;
  std::uint64_t Attempted = 0, Failed = 0;
  double OverlapMin = 1;
  bool AllPinned = true;
  csobj::obs::PathSnapshot Snap;
  std::uint64_t Issued = 0, Gets = 0, ShardOps = 0, RetireHighWater = 0;
  SpanDigest Spans;

  double opsPerS() const { return WindowS > 0 ? TimedOps / WindowS : 0.0; }
};

/// Sampled latency percentiles in ns; each includes one timer read.
struct Latency {
  double OpP50 = 0, OpP99 = 0, GetP50 = 0, GetP99 = 0, UpdP50 = 0,
         UpdP99 = 0, FloorNs = 0;
  std::size_t Ops = 0, Gets = 0, Updates = 0;
};

Latency latency(const Summary &S, unsigned GetKind) {
  std::vector<std::uint32_t> Op, Get, Upd, Floor;
  for (std::uint32_t P : S.Samples) {
    const std::uint32_t Ticks = P >> 8;
    if ((P & 0xFF) == FloorKind) {
      Floor.push_back(Ticks);
      continue;
    }
    Op.push_back(Ticks);
    ((P & 0xFF) == GetKind ? Get : Upd).push_back(Ticks);
  }
  const double K = median(S.NsPerTick);
  Latency L;
  L.Ops = Op.size();
  L.Gets = Get.size();
  L.Updates = Upd.size();
  L.OpP50 = percentile(Op, 0.50) * K;
  L.OpP99 = percentile(Op, 0.99) * K;
  L.GetP50 = percentile(Get, 0.50) * K;
  L.GetP99 = percentile(Get, 0.99) * K;
  L.UpdP50 = percentile(Upd, 0.50) * K;
  L.UpdP99 = percentile(Upd, 0.99) * K;
  L.FloorNs = percentile(Floor, 0.50) * K;
  return L;
}

template <typename Work>
std::uint64_t shardOps(Work &W, const csobj::obs::PathSnapshot &Snap) {
  if constexpr (Work::IsBag) {
    std::uint64_t Ops = 0;
    for (std::uint32_t S = 0; S < W.object().maxShards(); ++S)
      Ops += W.object().shard(S).pathSnapshot().Ops;
    return Ops;
  }
  return Snap.Ops;
}

void writeSpans(const std::string &Path, const std::vector<WorkerStats> &Stats,
                const char *const *KindNames) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return;
  std::fprintf(F, "thread,root,kind,start_ns,end_ns\n");
  for (std::size_t T = 0; T < Stats.size(); ++T)
    for (const Span &S : Stats[T].Spans.Spans)
      std::fprintf(F, "%zu,%llu,%s,%llu,%llu\n", T,
                   static_cast<unsigned long long>(S.Root),
                   S.Kind == LockAcquire ? "lock.acquire"
                   : S.Kind == LockHold  ? "lock.hold"
                                         : KindNames[S.Kind],
                   static_cast<unsigned long long>(S.Start),
                   static_cast<unsigned long long>(S.End));
  std::fclose(F);
}

/// Runs \p Reps repetitions of \p RepSeconds each and folds them into
/// \p Sum; end-of-run checks append to \p Errors.
template <bool Traced, typename Work, typename MakeFn>
void measure(MakeFn Make, unsigned Threads, unsigned Reps, double RepSeconds,
             const Options &Opt, Summary &Sum,
             std::vector<std::string> &Errors) {
  // Buffers are touched once here so no page fault lands in a window.
  std::vector<WorkerStats> Stats(Threads);
  for (WorkerStats &S : Stats) {
    S.Samples.resize(SampleCap);
    if (Traced)
      S.Spans.Spans.resize(SpanCap);
  }
  for (unsigned R = 0; R < Reps; ++R) {
    std::unique_ptr<Work> W;
    const RepTiming T =
        runRep<Traced, Work>(Make, W, Threads, RepSeconds, WarmSeconds, Stats);
    std::uint64_t Attempted = 0;
    std::uint64_t MinOps = ~std::uint64_t{0};
    for (const WorkerStats &S : Stats) {
      Attempted += S.Attempted;
      Sum.Failed += S.Failed;
      Sum.AllPinned = Sum.AllPinned && S.Pinned;
      MinOps = std::min(MinOps, S.TimedOps);
      Sum.Samples.insert(Sum.Samples.end(), S.Samples.begin(),
                         S.Samples.end());
      if constexpr (Traced)
        digestSpans(S.Spans, T.NsPerTick, Sum.Spans);
    }
    Sum.Attempted += Attempted;
    W->check(Attempted, Errors);
    if (T.Overlap < MinOverlap)
      Errors.push_back("workers overlapped for only " +
                       std::to_string(T.Overlap) + " of the window");
    if (Traced && R + 1 == Reps && !Opt.TraceOut.empty())
      writeSpans(Opt.TraceOut, Stats, Work::KindNames);

    Sum.SetupS.push_back(T.SetupS);
    Sum.OpsPerS.push_back(static_cast<double>(T.TimedOps) / T.WindowS);
    Sum.TimedOps += T.TimedOps;
    Sum.WindowS += T.WindowS;
    Sum.Reconfigs += T.Reconfigs;
    Sum.NsPerTick.push_back(T.NsPerTick);
    Sum.ObjectBytes.push_back(static_cast<double>(W->objectBytes()));
    Sum.ThreadShare.push_back(static_cast<double>(MinOps) * Threads /
                              static_cast<double>(T.TimedOps));
    Sum.ActiveShards.push_back(T.ActiveShardsMean);
    Sum.OverlapMin = std::min(Sum.OverlapMin, T.Overlap);

    csobj::obs::PathSnapshot Snap;
    if (snapshotOf(W->object(), Snap)) {
      Sum.Snap += Snap;
      Sum.ShardOps += shardOps(*W, Snap);
    }
    Sum.Issued += W->opsIssued();
    if constexpr (Work::IsMap) {
      Sum.Gets += W->gets();
      Sum.RetireHighWater =
          std::max(Sum.RetireHighWater,
                   W->object().core().domain().retireHighWater());
    }
  }
}

double ratio(double Num, double Den, double IfNone = 0.0) {
  return Den > 0 ? Num / Den : IfNone;
}

void endToEnd(const Summary &S, const Latency &L, Metrics &M) {
  M.add("setup_s", median(S.SetupS), "s");
  M.add("ops_per_s", S.opsPerS(), "1/s");
  M.add("op_p50_ns", L.OpP50, "ns");
  M.add("op_p99_ns", L.OpP99, "ns");
  M.add("get_p50_ns", L.GetP50, "ns");
  M.add("get_p99_ns", L.GetP99, "ns");
  M.add("update_p50_ns", L.UpdP50, "ns");
  M.add("update_p99_ns", L.UpdP99, "ns");
  M.add("object_bytes", median(S.ObjectBytes), "B");
}

/// \p IsMap adds the two map-only metrics.
void perLayer(const Summary &Plain, Summary &T, bool IsMap,
              std::uint64_t Seed, Metrics &M) {
  using csobj::obs::Event;
  using csobj::obs::Path;
  const csobj::obs::PathSnapshot &P = T.Snap;
  const double Ops = static_cast<double>(P.Ops);
  const double Lock = static_cast<double>(P.path(Path::Lock));
  const double Issued = static_cast<double>(T.Issued);
  M.add("core.shortcut_frac",
        ratio(static_cast<double>(P.path(Path::Shortcut)), Ops), "ratio");
  M.add("core.weak_success_frac",
        ratio(Ops, Ops + static_cast<double>(P.event(Event::ShortcutAbort) +
                                             P.event(Event::ProtectedRetry))),
        "ratio");
  M.add("core.lock_frac", ratio(Lock, Ops), "ratio");
  M.add("core.protected_retries_per_lock_op",
        ratio(static_cast<double>(P.event(Event::ProtectedRetry)), Lock),
        "count");

  SpanDigest &D = T.Spans;
  M.add("locks.acquire_ns.p50", percentile(D.AcquireNs, 0.50), "ns");
  M.add("locks.acquire_ns.p99", percentile(D.AcquireNs, 0.99), "ns");
  M.add("locks.hold_ns.p50", percentile(D.HoldNs, 0.50), "ns");
  M.add("locks.hold_ns.p99", percentile(D.HoldNs, 0.99), "ns");
  M.add("locks.doorway_ns.p50", percentile(D.DoorwayNs, 0.50), "ns");
  M.add("locks.doorway_ns.p99", percentile(D.DoorwayNs, 0.99), "ns");
  M.add("locks.op_self_ns.p50", percentile(D.SelfNs, 0.50), "ns");
  M.add("locks.lock_op_ns.p50", percentile(D.LockOpNs, 0.50), "ns");
  M.add("locks.span_accounted_frac",
        ratio(static_cast<double>(D.Accounted),
              static_cast<double>(D.LockOps), 1.0),
        "ratio");
  M.add("locks.thread_share_min", median(T.ThreadShare), "ratio");

  soloLadder(Seed, M);
  if (IsMap) {
    M.add("map.region_lock_frac",
          ratio(Lock, Ops - static_cast<double>(T.Gets)), "ratio");
    M.add("memory.retire_high_water",
          static_cast<double>(T.RetireHighWater), "count");
  }

  M.add("perf.eliminated_frac",
        ratio(static_cast<double>(P.path(Path::Eliminated)), Issued),
        "ratio");
  M.add("perf.shard_ops_per_op",
        ratio(static_cast<double>(T.ShardOps), Issued), "ratio");
  M.add("perf.active_shards_mean", median(T.ActiveShards), "shards");
  M.add("perf.reconfigs_per_s",
        ratio(static_cast<double>(T.Reconfigs), T.WindowS), "1/s");
  M.add("bench.trace_overhead_frac",
        1.0 - ratio(T.opsPerS(), Plain.opsPerS()), "ratio");
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S)
    Out += C == '"' || C == '\\' ? std::string("\\") + C : std::string(1, C);
  return Out + "\"";
}

std::string jsonArray(const std::vector<double> &V) {
  std::string Out = "[";
  for (std::size_t I = 0; I < V.size(); ++I) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.6g", V[I]);
    Out += (I ? ", " : "") + std::string(Buf);
  }
  return Out + "]";
}

template <typename Work, typename PlainMake, typename TracedMake>
int run(const Options &Opt, unsigned Threads, PlainMake MakePlain,
        TracedMake MakeTraced) {
  using TracedWork = typename decltype(MakeTraced())::element_type;
  std::vector<std::string> Errors;
  auditAccessCounts(Errors);
  const double ClockFloor = clockFloorNs();

  Summary Plain, Traced;
  Metrics M;
  const double ModeSeconds = Opt.Trace ? Opt.Seconds / 2 : Opt.Seconds;
  const unsigned Reps = std::max(
      3u, static_cast<unsigned>(std::lround(ModeSeconds / RepTargetSeconds)));
  const double RepSeconds = ModeSeconds / Reps;
  measure<false, Work>(MakePlain, Threads, Reps, RepSeconds, Opt, Plain,
                       Errors);
  if (Opt.Trace) {
    measure<true, TracedWork>(MakeTraced, Threads, Reps, RepSeconds, Opt,
                              Traced, Errors);
    if (Traced.Spans.Accounted != Traced.Spans.LockOps)
      Errors.push_back("lock-path op spans whose children do not nest: " +
                       std::to_string(Traced.Spans.LockOps -
                                      Traced.Spans.Accounted));
    perLayer(Plain, Traced, Work::IsMap, Opt.Seed, M);
  }
  const Latency L = latency(Plain, Work::GetKind);
  if (!Opt.Trace)
    endToEnd(Plain, L, M);

  const std::uint64_t Attempted = Plain.Attempted + Traced.Attempted;
  const std::uint64_t Failed = Plain.Failed + Traced.Failed;
  const bool Correct = Errors.empty() && Failed == 0;
  const bool Pinned = Plain.AllPinned && (!Opt.Trace || Traced.AllPinned);

  std::string Errs = "[";
  for (std::size_t I = 0; I < Errors.size() && I < 20; ++I)
    Errs += (I ? ", " : "") + jsonString(Errors[I]);
  Errs += "]";
  std::printf(
      "{\"record\": {\"workload\": %s, \"object\": %s, \"seed\": %llu, "
      "\"trace\": %d, \"seconds\": %g, \"threads\": %u, \"reps\": %u, "
      "\"rep_seconds\": %g, \"warmup_seconds\": %g, \"register_policy\": "
      "\"%s\", \"metrics_sink\": %s, \"pinned\": %s, \"build_type\": \"%s\", "
      "\"compiler\": %s, \"clock_floor_ns\": %.4g, \"timer_floor_ns\": %.4g, "
      "\"overlap_min\": %.6g, "
      "\"failed_frac\": %.6g, \"samples\": {\"op\": %llu, \"get\": %llu, "
      "\"update\": %llu}, \"per_rep\": {\"setup_s\": %s, \"ops_per_s\": %s}, "
      "\"spans_dropped\": %llu, \"errors\": %s}}\n",
      jsonString(Opt.Workload).c_str(), jsonString(Opt.Object).c_str(),
      static_cast<unsigned long long>(Opt.Seed), Opt.Trace ? 1 : 0,
      Opt.Seconds, Threads, Reps, RepSeconds, WarmSeconds, Fast::Name,
      csobj::obs::MetricsEnabled ? "true" : "false",
      Pinned ? "true" : "false", PERFBENCH_BUILD_TYPE,
      jsonString(__VERSION__).c_str(), ClockFloor, L.FloorNs,
      Plain.OverlapMin,
      ratio(static_cast<double>(Failed), static_cast<double>(Attempted)),
      static_cast<unsigned long long>(L.Ops),
      static_cast<unsigned long long>(L.Gets),
      static_cast<unsigned long long>(L.Updates),
      jsonArray(Plain.SetupS).c_str(), jsonArray(Plain.OpsPerS).c_str(),
      static_cast<unsigned long long>(Traced.Spans.Dropped), Errs.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), M.json().c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

template <typename L> using StackW = StackWork<Stack<L>>;
template <typename L> using BagW = StackWork<Bag<L>>;
template <typename L> using MapW = MapWork<Map<L>>;
template <typename L>
using BrokenW = StackWork<DropEverySeventhPush<Stack<L>>>;
template <typename L>
using LockedW = StackWork<csobj::LockedStack<csobj::StdMutexLock>>;

/// Runs WorkOf<TasLock> untraced and, with --trace 1, WorkOf<TracedLock>
/// traced; \p Args construct the workload.
template <template <typename> class WorkOf, typename... ArgTs>
int runWith(const Options &Opt, unsigned Threads, ArgTs... Args) {
  return run<WorkOf<PlainLock>>(
      Opt, Threads,
      [=] { return std::make_unique<WorkOf<PlainLock>>(Args...); },
      [=] { return std::make_unique<WorkOf<SpanLock>>(Args...); });
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      Opt.Workload = Val;
    else if (Key == "--seed")
      Opt.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      Opt.Seconds = std::strtod(Val.c_str(), nullptr);
    else if (Key == "--trace")
      Opt.Trace = Val == "1";
    else if (Key == "--object")
      Opt.Object = Val;
    else if (Key == "--trace-out")
      Opt.TraceOut = Val;
    else {
      std::fprintf(stderr, "unknown option %s\n", Key.c_str());
      return 2;
    }
  }
  const unsigned Cpus = static_cast<unsigned>(allowedCpus().size());
  const unsigned T = std::max(1u, std::min(4u, Cpus));
  const bool IsStack =
      Opt.Workload == "stack-solo" || Opt.Workload == "stack-contended";
  if (Argc % 2 == 0 || !(Opt.Seconds > 0) ||
      (Opt.Object != "default" && !IsStack)) {
    std::fprintf(stderr, "usage: csbench --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  if (IsStack) {
    const unsigned N = Opt.Workload == "stack-solo" ? 1 : T;
    if (Opt.Object == "default")
      return runWith<StackW>(Opt, N, N, StackPrefill, Opt.Seed, N,
                             StackCapacity);
    if (Opt.Object == "broken-drop7")
      return runWith<BrokenW>(Opt, N, N, StackPrefill, Opt.Seed, N,
                              StackCapacity);
    if (Opt.Object == "locked")
      return runWith<LockedW>(Opt, N, N, StackPrefill, Opt.Seed, N,
                              StackCapacity);
  } else if (Opt.Workload == "bag-contended") {
    // bench/BenchCommon.h's AdaptiveStackAdapter geometry: one initial
    // shard, threads/2 elimination slots, spin budget 64.
    return runWith<BagW>(Opt, T, T, StackPrefill, Opt.Seed, T, StackCapacity,
                         1u, T > 2 ? T / 2 : 1u, 64u);
  } else if (Opt.Workload == "map-mixed") {
    return runWith<MapW>(Opt, T, T, Opt.Seed);
  }
  std::fprintf(stderr, "unknown workload or object\n");
  return 2;
}
