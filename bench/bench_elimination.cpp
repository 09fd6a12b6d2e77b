//===- bench/bench_elimination.cpp - Experiment E8 (ablation) ------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E8 — contention-management ablation (Section 5 points to contention
/// managers as the wider context of the paper's mechanism). Strategies
/// under a high-contention 50/50 push-pop storm:
///
///  * plain CAS retry                     (Figure 2, immediate)
///  * CAS retry + exponential backoff     (time-based manager)
///  * elimination-backoff                 (collision-based manager)
///  * shortcut + lock + round-robin TURN  (the paper's Figure 3)
///  * fig3 + gated elimination window     (pinned AdaptiveShardedStack<1>)
///  * fig3 + flat-combining slow path     (perf/CombiningSlowPath.h)
///  * 4x fig3 shards + elimination        (pinned AdaptiveShardedStack<4>)
///
/// Also reports what fraction of elimination-stack operations completed
/// by pairing off without touching the central stack, and the same hit
/// rate for the gated elimination window sitting in front of Figure 3.
/// Rows additionally land in BENCH_elimination.json for plotting.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "obs/JsonReporter.h"

#include "runtime/TablePrinter.h"

#include <iostream>

namespace {

using namespace csobj;
using namespace csobj::bench;

template <typename AdapterT>
void addRows(TablePrinter &Table, JsonReporter &Json, const char *Name) {
  for (const std::uint32_t Threads : threadSweep()) {
    const WorkloadReport R = runCell<AdapterT>(Threads);
    const LatencySummary S = summarize(R.mergedLatency());
    Table.addRow({Name, std::to_string(Threads),
                  formatRate(R.throughputOpsPerSec()),
                  formatDouble(R.meanRetries(), 4),
                  formatNs(static_cast<double>(S.P99Ns)),
                  formatDouble(R.fairness(), 4)});
    Json.beginRecord();
    Json.field("strategy", Name);
    Json.field("threads", Threads);
    Json.field("ops", R.totalOps());
    Json.field("throughput_ops_per_sec", R.throughputOpsPerSec());
    Json.field("mean_retries", R.meanRetries());
    Json.field("p99_ns", static_cast<std::uint64_t>(S.P99Ns));
    Json.field("jain_fairness", R.fairness());
    Json.endRecord();
  }
}

} // namespace

int main() {
  csobj::bench::printRegisterPolicy(std::cout);
  TablePrinter Table({"strategy", "threads", "throughput", "retries/op",
                      "p99", "jain"});
  Table.setTitle("E8: contention-management ablation (high contention, "
                 "50/50)");
  JsonReporter Json;
  addRows<NonBlockingStackAdapter>(Table, Json, "cas-retry (fig2)");
  addRows<BackoffStackAdapter>(Table, Json, "cas-retry+backoff");
  addRows<EliminationStackAdapter>(Table, Json, "elimination");
  addRows<CsStackAdapter>(Table, Json, "shortcut+lock (fig3)");
  addRows<PinnedShardAdapter<1>>(Table, Json, "eliminating(fig3+elim)");
  addRows<CombiningStackAdapter>(Table, Json, "combining(fig3+fc)");
  addRows<PinnedShardAdapter<4>>(Table, Json, "sharded(4xfig3)");
  Table.print(std::cout);

  const std::string JsonPath = "BENCH_elimination.json";
  if (!Json.writeFile(JsonPath)) {
    std::cerr << "error: could not write " << JsonPath << "\n";
    return 1;
  }
  std::cout << "\nwrote " << JsonPath << "\n";

  // Elimination hit rates at the top of the sweep: the HSY reference
  // stack, then the gated window in front of Figure 3 (whose exchange
  // counter counts operations, so a matched pair contributes 2).
  const std::uint32_t Threads = threadSweep().back();
  {
    EliminationStackAdapter Adapter(Threads, 4096);
    WorkloadConfig Config;
    Config.Threads = Threads;
    Config.OpsPerThread = opsPerThread();
    Config.Capacity = 4096;
    Config.ChaosYieldPermille = DefaultChaosPermille;
    const WorkloadReport R = runClosedLoop(Adapter, Config);
    const std::uint64_t Eliminated =
        Adapter.Stack.eliminationCountForTesting();
    std::cout << "\nelimination hit rate at " << Threads
              << " threads: " << Eliminated << " of " << R.totalOps()
              << " ops ("
              << formatDouble(100.0 * static_cast<double>(Eliminated) /
                                  static_cast<double>(R.totalOps()),
                              2)
              << "%)\n";
  }
  {
    PinnedShardAdapter<1> Adapter(Threads, 4096);
    WorkloadConfig Config;
    Config.Threads = Threads;
    Config.OpsPerThread = opsPerThread();
    Config.Capacity = 4096;
    Config.ChaosYieldPermille = DefaultChaosPermille;
    const WorkloadReport R = runClosedLoop(Adapter, Config);
    const std::uint64_t Exchanged = Adapter.exchanges();
    std::cout << "gated-window hit rate at " << Threads
              << " threads: " << Exchanged << " of " << R.totalOps()
              << " ops ("
              << formatDouble(100.0 * static_cast<double>(Exchanged) /
                                  static_cast<double>(R.totalOps()),
                              2)
              << "%)\n";
  }
  std::cout << "\ntakeaway: the paper's shortcut+lock keeps the solo cost "
               "at 6 accesses AND bounds the tail, where pure retry "
               "strategies trade one for the other; the acceleration "
               "layer attacks the contended case without touching the "
               "solo bound\n";
  return 0;
}
