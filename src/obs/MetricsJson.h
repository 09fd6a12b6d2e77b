//===- obs/MetricsJson.h - Path-breakdown JSON fields -----------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place that names the path-breakdown JSON schema. Every bench
/// binary that sweeps a contention-sensitive object appends these fields
/// to its per-cell record via emitPathBreakdown(), so BENCH_*.json files
/// agree field-for-field and the CI bench-smoke validator can assert the
/// conservation law (metric_ops == Σ path_*) on any of them:
///
///   metric_ops        strongApply entries seen by the object's sink(s)
///   path_shortcut     ops retired on the six-access fast path
///   path_eliminated   ops retired by rescue-window pairing
///   path_combined     ops retired by a flat-combining batch
///   path_lock         ops retired by the doorway+lock protected retry
///   path_degraded     ops retired by the crash-tolerant Fig-2 fallback
///   path_batched      ops retired inside a group API's single seam entry
///   shortcut_aborts, protected_retries, degraded_retries,
///   eliminated_pushes, eliminated_pops, combiner_batches, combined_ops,
///   doorway_timeouts, lease_timeouts, shard_grows — event tallies
///   combiner_batch_size_count/_mean/_max — the group-size histogram fed
///   by onBatch(); at quiesce size sums equal path_batched
///
/// emitMemoryFootprint() names the memory-overhead columns
/// (object_bytes, bytes_per_element) so E12/E14 report space alongside
/// throughput.
///
/// Note metric_ops counts skeleton entries, not harness operations: a
/// sharded facade op may probe several shards (several skeleton entries),
/// so metric_ops >= the driver's op count there. The conservation law is
/// per-sink and survives that fan-out.
///
/// With CSOBJ_NO_METRICS the snapshot is all zeros and the fields are
/// still emitted, so downstream schemas never lose columns.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_OBS_METRICSJSON_H
#define CSOBJ_OBS_METRICSJSON_H

#include "obs/PathCounters.h"

#include <string>

namespace csobj {
namespace obs {

/// Appends the path-breakdown fields to the reporter's current record.
/// \p Reporter needs only field(name, uint64) — obs::JsonReporter or any
/// compatible emitter.
template <typename Reporter>
void emitPathBreakdown(Reporter &Json, const PathSnapshot &S) {
  Json.field("metric_ops", S.Ops);
  for (unsigned I = 0; I < NumPaths; ++I)
    Json.field(std::string("path_") + pathName(static_cast<Path>(I)),
               S.Paths[I]);
  Json.field("shortcut_aborts", S.event(Event::ShortcutAbort));
  Json.field("protected_retries", S.event(Event::ProtectedRetry));
  Json.field("degraded_retries", S.event(Event::DegradedRetry));
  Json.field("eliminated_pushes", S.event(Event::EliminatedPush));
  Json.field("eliminated_pops", S.event(Event::EliminatedPop));
  Json.field("combiner_batches", S.event(Event::CombinerBatch));
  Json.field("combined_ops", S.event(Event::CombinedOp));
  Json.field("doorway_timeouts", S.event(Event::DoorwayTimeout));
  Json.field("lease_timeouts", S.event(Event::LeaseTimeout));
  Json.field("shard_grows", S.event(Event::ShardGrow));
  Json.field("combiner_batch_size_count", S.batchCount());
  Json.field("combiner_batch_size_mean", S.batchMean());
  Json.field("combiner_batch_size_max", S.BatchMax);
}

/// Appends the memory-overhead fields: the object's resident footprint
/// and its per-slot amortization. \p Bytes is the adapter's estimate of
/// the full allocation (object + dynamic arrays); \p Capacity the number
/// of element slots it buys.
template <typename Reporter>
void emitMemoryFootprint(Reporter &Json, std::uint64_t Bytes,
                         std::uint64_t Capacity) {
  Json.field("object_bytes", Bytes);
  Json.field("bytes_per_element",
             Capacity ? static_cast<double>(Bytes) /
                            static_cast<double>(Capacity)
                      : 0.0);
}

} // namespace obs
} // namespace csobj

#endif // CSOBJ_OBS_METRICSJSON_H
