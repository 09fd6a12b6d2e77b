//===- bench/bench_batch.cpp - Experiment E14 (batched group ops) --------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E14 — throughput of the batched group operations (push_all/pop_all)
/// against the per-element strong operations they amortize. A batch of k
/// ops crosses the strong seam once: one CONTENTION doorway, one lock (or
/// one combiner record carrying all k requests), k weak applies, one
/// release. The per-element loop pays the full seam crossing k times.
///
/// Sweep: object x threads x batch size x producer/consumer mix, under
/// the default chaos level (or CSOBJ_CHAOS). Objects:
///
///  * fig3 per-element            push/pop loop, the amortization baseline
///  * fig3 batch                  push_all/pop_all through the lock seam
///  * combining batch             push_all/pop_all via one combiner record
///  * sharded batch               per-shard batch fan-out (bag facade)
///
/// Mixes: "paired" (even tids produce, odd tids consume) and
/// "alternating" (every thread pushes a batch then pops a batch).
/// Throughput counts *elements* applied, not group calls. Results go to
/// stdout and BENCH_batch.json (schema in EXPERIMENTS.md); every record
/// carries the path breakdown (path_batched, combiner_batch_size_*), the
/// memory footprint (object_bytes, bytes_per_element) and the per-record
/// conservation verdict.
///
/// Acceptance (full mode, in-binary): at the sweep's top thread count the
/// combining stack's batched throughput at batch >= 8 must beat the plain
/// Figure 3 per-element loop, and its observed mean combiner group size
/// must exceed 1. Quick mode (CSOBJ_BENCH_QUICK=1) only smoke-checks
/// structure and conservation.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "memory/ChaosHook.h"
#include "obs/JsonReporter.h"
#include "obs/MetricsJson.h"
#include "runtime/SpinBarrier.h"
#include "runtime/TablePrinter.h"

#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace csobj;
using namespace csobj::bench;

/// Batch-capable adapters: group entry points over the driver adapters'
/// objects. pushBatch/popBatch return the number of *elements* applied.
struct Fig3PerElementAdapter {
  static constexpr const char *Name = "fig3 per-element";
  Fig3PerElementAdapter(std::uint32_t Threads, std::uint32_t Capacity)
      : Stack(Threads, Capacity) {}
  std::size_t pushBatch(std::uint32_t Tid, const std::uint32_t *Vs,
                        std::size_t N) {
    std::size_t Done = 0;
    for (std::size_t I = 0; I < N; ++I)
      if (Stack.push(Tid, Vs[I]) == PushResult::Done)
        ++Done;
    return Done;
  }
  std::size_t popBatch(std::uint32_t Tid, std::uint32_t *Out, std::size_t N) {
    std::size_t Got = 0;
    for (std::size_t I = 0; I < N; ++I) {
      const PopResult<std::uint32_t> R = Stack.pop(Tid);
      if (!R.isValue())
        break;
      Out[Got++] = R.value();
    }
    return Got;
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(0, V); }
  obs::PathSnapshot pathSnapshot() const { return Stack.pathSnapshot(); }
  std::size_t footprintBytes() const { return Stack.footprintBytes(); }
  ContentionSensitiveStack<> Stack;
};

struct Fig3BatchAdapter {
  static constexpr const char *Name = "fig3 batch";
  Fig3BatchAdapter(std::uint32_t Threads, std::uint32_t Capacity)
      : Stack(Threads, Capacity) {}
  std::size_t pushBatch(std::uint32_t Tid, const std::uint32_t *Vs,
                        std::size_t N) {
    return Stack.push_all(Tid, Vs, N);
  }
  std::size_t popBatch(std::uint32_t Tid, std::uint32_t *Out, std::size_t N) {
    return Stack.pop_all(Tid, Out, N);
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(0, V); }
  obs::PathSnapshot pathSnapshot() const { return Stack.pathSnapshot(); }
  std::size_t footprintBytes() const { return Stack.footprintBytes(); }
  ContentionSensitiveStack<> Stack;
};

struct CombiningBatchAdapter {
  static constexpr const char *Name = "combining batch";
  CombiningBatchAdapter(std::uint32_t Threads, std::uint32_t Capacity)
      : Stack(Threads, Capacity) {}
  std::size_t pushBatch(std::uint32_t Tid, const std::uint32_t *Vs,
                        std::size_t N) {
    return Stack.push_all(Tid, Vs, N);
  }
  std::size_t popBatch(std::uint32_t Tid, std::uint32_t *Out, std::size_t N) {
    return Stack.pop_all(Tid, Out, N);
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(0, V); }
  obs::PathSnapshot pathSnapshot() const { return Stack.pathSnapshot(); }
  std::size_t footprintBytes() const { return Stack.footprintBytes(); }
  std::uint64_t batches() { return Stack.skeleton().batchesForTesting(); }
  CombiningStack<> Stack;
};

struct ShardedBatchAdapter {
  static constexpr const char *Name = "sharded batch";
  ShardedBatchAdapter(std::uint32_t Threads, std::uint32_t Capacity)
      : Stack(Threads, Capacity - Capacity % 4, /*InitialShards=*/4,
              /*SlotCount=*/Threads > 2 ? Threads / 2 : 1,
              /*SpinBudget=*/64) {}
  std::size_t pushBatch(std::uint32_t Tid, const std::uint32_t *Vs,
                        std::size_t N) {
    return Stack.push_all(Tid, Vs, N);
  }
  std::size_t popBatch(std::uint32_t Tid, std::uint32_t *Out, std::size_t N) {
    return Stack.pop_all(Tid, Out, N);
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(0, V); }
  obs::PathSnapshot pathSnapshot() const { return Stack.pathSnapshot(); }
  std::size_t footprintBytes() const { return Stack.footprintBytes(); }
  std::uint64_t exchanges() const {
    return Stack.eliminationExchangesForTesting();
  }
  AdaptiveShardedStack<4> Stack; ///< Mask pinned at four shards.
};

constexpr std::uint32_t Capacity = 4096;

struct CellResult {
  std::uint64_t Elements = 0; ///< Elements applied (pushes + pops).
  double DurationSec = 0.0;
  obs::PathSnapshot Snapshot;
  std::uint64_t ObjectBytes = 0;
  double elementsPerSec() const {
    return DurationSec > 0.0 ? static_cast<double>(Elements) / DurationSec
                             : 0.0;
  }
};

/// One sweep cell: fresh object, Threads workers, each performing
/// opsPerThread() element-slots grouped into BatchSize-sized calls.
template <typename AdapterT>
CellResult runBatchCell(std::uint32_t Threads, std::uint32_t BatchSize,
                        bool Paired, const ChaosSettings &Chaos) {
  AdapterT Adapter(Threads, Capacity);
  for (std::uint32_t V = 0; V < Capacity / 2; ++V)
    Adapter.prefillOne(V + 1);

  const std::uint64_t Rounds = opsPerThread() / BatchSize;
  SpinBarrier StartLine(Threads + 1);
  std::vector<std::uint64_t> Done(Threads, 0);
  std::vector<double> Span(Threads, 0.0);
  std::vector<std::thread> Workers;
  Workers.reserve(Threads);
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      ChaosHook Hook(/*Seed=*/0xBA7C4ull * (T + 1),
                     Threads > 1 ? Chaos.YieldPermille : 0,
                     Threads > 1 ? Chaos.StallPermille : 0,
                     Chaos.StallGrants);
      SchedHookScope Scope(Hook);
      std::vector<std::uint32_t> Buf(BatchSize);
      StartLine.arriveAndWait();
      const auto Begin = std::chrono::steady_clock::now();
      // Paired: even tids produce, odd tids consume (solo runs
      // alternate regardless, or nothing would ever drain).
      const bool Produces = Paired && Threads > 1 ? T % 2 == 0 : true;
      const bool Consumes = Paired && Threads > 1 ? T % 2 == 1 : true;
      std::uint64_t Count = 0;
      for (std::uint64_t R = 0; R < Rounds; ++R) {
        if (Produces) {
          for (std::uint32_t I = 0; I < BatchSize; ++I)
            Buf[I] = static_cast<std::uint32_t>(R * BatchSize + I + 1);
          Count += Adapter.pushBatch(T, Buf.data(), BatchSize);
        }
        if (Consumes)
          Count += Adapter.popBatch(T, Buf.data(), BatchSize);
      }
      const auto End = std::chrono::steady_clock::now();
      Done[T] = Count;
      Span[T] = std::chrono::duration<double>(End - Begin).count();
    });

  StartLine.arriveAndWait();
  for (std::thread &W : Workers)
    W.join();

  CellResult R;
  for (const std::uint64_t D : Done)
    R.Elements += D;
  // The cell's window is the slowest worker's span, measured worker-side
  // from the barrier release: join-scheduling noise on an oversubscribed
  // host cannot shrink or stretch it.
  for (const double S : Span)
    R.DurationSec = std::max(R.DurationSec, S);
  R.Snapshot = Adapter.pathSnapshot();
  R.ObjectBytes = Adapter.footprintBytes();
  return R;
}

struct SweepOutput {
  TablePrinter &Table;
  JsonReporter &Json;
  /// Best elements/sec per (object, threads, batched-mode) across mixes.
  std::map<std::string, std::map<std::uint32_t, double>> BestPerElement;
  std::map<std::string, std::map<std::uint32_t, double>> BestBatched;
  double CombiningBatchMean = 0.0;
  bool AllConserved = true;
};

template <typename AdapterT>
void runRows(SweepOutput &Out, const std::vector<std::uint32_t> &BatchSizes) {
  for (const std::uint32_t Threads : threadSweep()) {
    for (const std::uint32_t BatchSize : BatchSizes) {
      for (const bool Paired : {false, true}) {
        if (Paired && Threads < 2)
          continue; // Paired roles need a producer and a consumer.
        ChaosSettings Chaos;
        Chaos.YieldPermille = DefaultChaosPermille;
        if (const std::optional<ChaosSettings> Env = chaosFromEnv())
          Chaos = *Env;
        const CellResult R =
            runBatchCell<AdapterT>(Threads, BatchSize, Paired, Chaos);
        const char *Mix = Paired ? "paired" : "alternating";
        const double Rate = R.elementsPerSec();
        const bool Conserved = R.Snapshot.conserves();
        Out.AllConserved = Out.AllConserved && Conserved;
        if (BatchSize >= 8) {
          Out.BestBatched[AdapterT::Name][Threads] =
              std::max(Out.BestBatched[AdapterT::Name][Threads], Rate);
          if (std::string(AdapterT::Name) == "combining batch")
            Out.CombiningBatchMean =
                std::max(Out.CombiningBatchMean, R.Snapshot.batchMean());
        }
        Out.BestPerElement[AdapterT::Name][Threads] =
            std::max(Out.BestPerElement[AdapterT::Name][Threads], Rate);
        Out.Table.addRow({AdapterT::Name, std::to_string(Threads),
                          std::to_string(BatchSize), Mix,
                          formatRate(Rate),
                          formatDouble(R.Snapshot.batchMean(), 2),
                          Conserved ? "yes" : "NO"});
        Out.Json.beginRecord();
        Out.Json.field("object", AdapterT::Name);
        Out.Json.field("threads", Threads);
        Out.Json.field("batch_size", BatchSize);
        Out.Json.field("mix", Mix);
        Out.Json.field("ops", R.Elements);
        Out.Json.field("duration_sec", R.DurationSec);
        Out.Json.field("elements_per_sec", Rate);
        Out.Json.field("conserves", Conserved);
        obs::emitPathBreakdown(Out.Json, R.Snapshot);
        obs::emitMemoryFootprint(Out.Json, R.ObjectBytes, Capacity);
        Out.Json.endRecord();
      }
    }
  }
}

} // namespace

int main() {
  printRegisterPolicy(std::cout);

  const std::vector<std::uint32_t> BatchSizes =
      quickMode() ? std::vector<std::uint32_t>{8}
                  : std::vector<std::uint32_t>{1, 8, 32};

  TablePrinter Table({"object", "threads", "batch", "mix", "elems/s",
                      "batch-mean", "conserves"});
  Table.setTitle("E14: batched group ops vs per-element seam crossings");
  JsonReporter Json;
  SweepOutput Out{Table, Json, {}, {}, 0.0, true};

  runRows<Fig3PerElementAdapter>(Out, BatchSizes);
  runRows<Fig3BatchAdapter>(Out, BatchSizes);
  runRows<CombiningBatchAdapter>(Out, BatchSizes);
  runRows<ShardedBatchAdapter>(Out, BatchSizes);

  Table.print(std::cout);

  const std::string JsonPath = "BENCH_batch.json";
  if (!Json.writeFile(JsonPath)) {
    std::cerr << "error: could not write " << JsonPath << "\n";
    return 1;
  }
  std::cout << "\nwrote " << JsonPath << "\n";

  if (!Out.AllConserved) {
    std::cerr << "FAIL: a cell's path counters do not conserve\n";
    return 1;
  }

  if (quickMode()) {
    std::cout << "SKIP: acceptance comparison is full-mode only "
                 "(CSOBJ_BENCH_QUICK=1)\n";
    return 0;
  }

  // Acceptance: at the top sweep point, one batched combining call
  // stream (batch >= 8) must beat the per-element Figure 3 loop, and
  // the combiner must actually have seen multi-op groups.
  const std::uint32_t Top = threadSweep().back();
  const double PerElement = Out.BestPerElement["fig3 per-element"][Top];
  const double Combining = Out.BestBatched["combining batch"][Top];
  const double Fig3Batch = Out.BestBatched["fig3 batch"][Top];
  const double Sharded = Out.BestBatched["sharded batch"][Top];
  std::cout << "at " << Top << " threads (best mix, batch >= 8): "
            << "fig3 per-element " << formatRate(PerElement)
            << "  fig3 batch " << formatRate(Fig3Batch)
            << "  combining batch " << formatRate(Combining)
            << "  sharded batch " << formatRate(Sharded)
            << "  (combiner mean group " << formatDouble(Out.CombiningBatchMean, 2)
            << ")\n";
  if (Combining > PerElement && Out.CombiningBatchMean > 1.0) {
    std::cout << "PASS: batched combining beats the per-element fig3 loop at "
              << Top << " threads\n";
    return 0;
  }
  std::cerr << "FAIL: batched combining does not beat the per-element loop "
               "(or the combiner never grouped)\n";
  return 1;
}
