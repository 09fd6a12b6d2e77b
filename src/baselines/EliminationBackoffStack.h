//===- baselines/EliminationBackoffStack.h - HSY stack ----------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hendler, Shavit & Yerushalmi's elimination-backoff stack (SPAA'04):
/// a Treiber stack whose contended operations retreat to an elimination
/// array where a concurrent push/pop pair cancels out without touching
/// the central stack at all. The paper's Section 5 points at contention
/// managers as the wider context; this structure is the classic
/// *collision-based* contention manager and serves as the ablation
/// contrast to the paper's shortcut-plus-lock strategy (experiment E8).
///
/// The rendezvous is the library's one elimination array
/// (perf/EliminationArray.h) with an always-true gate: the textbook
/// semantics, where any waiting inverse operation is matched. The central
/// stack is driven through TreiberStack's single-attempt (abortable)
/// operations, so every lost CAS race is a chance to eliminate. Slot
/// probes are drawn per thread from the array's per-instance hint
/// stream, so poppers of one instance never walk the same slot sequence.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_BASELINES_ELIMINATIONBACKOFFSTACK_H
#define CSOBJ_BASELINES_ELIMINATIONBACKOFFSTACK_H

#include "baselines/TreiberStack.h"
#include "perf/EliminationArray.h"

#include <cstdint>
#include <optional>

namespace csobj {

/// Treiber stack with an elimination-backoff layer.
class EliminationBackoffStack {
public:
  using Value = std::uint32_t;

  /// \p NumThreads and \p Capacity as in TreiberStackT; \p SlotCount
  /// elimination slots; \p SpinBudget bounded wait (in slot re-reads) for
  /// a partner before withdrawing.
  EliminationBackoffStack(std::uint32_t NumThreads, std::uint32_t Capacity,
                          std::uint32_t SlotCount = 4,
                          std::uint32_t SpinBudget = 64)
      : Central(NumThreads, Capacity), Elim(SlotCount, SpinBudget) {}

  /// Pushes \p V as thread \p Tid, eliminating against a concurrent pop
  /// when the central CAS is contended. Returns Done or Full.
  PushResult push(std::uint32_t Tid, Value V) {
    while (true) {
      const PushResult Direct = Central.tryPushOnce(V);
      if (Direct != PushResult::Abort)
        return Direct;
      if (Elim.tryGive(V, Tid, AlwaysMatch))
        return PushResult::Done;
    }
  }

  /// Pops a value as thread \p Tid, eliminating against a concurrent push
  /// when the central CAS is contended. Returns a value or Empty.
  PopResult<Value> pop(std::uint32_t Tid) {
    while (true) {
      const PopResult<Value> Direct = Central.tryPopOnce();
      if (!Direct.isAbort())
        return Direct;
      if (const std::optional<Value> V = Elim.tryTake(Tid, AlwaysMatch))
        return PopResult<Value>::value(*V);
    }
  }

  std::uint32_t capacity() const { return Central.capacity(); }
  std::uint32_t sizeForTesting() const { return Central.sizeForTesting(); }
  EliminationArray &eliminationArray() { return Elim; }

  /// Number of operations that completed via elimination (benchmarking
  /// aid for E8).
  std::uint64_t eliminationCountForTesting() const {
    return Elim.exchangesForTesting();
  }

private:
  static bool AlwaysMatch() { return true; }

  TreiberStack Central;
  EliminationArray Elim;
};

} // namespace csobj

#endif // CSOBJ_BASELINES_ELIMINATIONBACKOFFSTACK_H
