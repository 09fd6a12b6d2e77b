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
/// Each elimination slot is one CASable word running a small state
/// machine, Empty -> WaitingPush/WaitingPop -> Done -> Empty, with an ABA
/// tag. A waiting operation spins a bounded budget, then withdraws. The
/// central stack is driven through TreiberStack's single-attempt
/// (abortable) operations, so every lost CAS race is a chance to
/// eliminate.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_BASELINES_ELIMINATIONBACKOFFSTACK_H
#define CSOBJ_BASELINES_ELIMINATIONBACKOFFSTACK_H

#include "baselines/TreiberStack.h"
#include "support/SplitMix64.h"
#include "support/SpinWait.h"

#include <cstdint>
#include <memory>
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
      : Central(NumThreads, Capacity), SlotCount(SlotCount),
        SpinBudget(SpinBudget),
        Slots(new AtomicRegister<std::uint64_t>[SlotCount]) {}

  /// Pushes \p V, eliminating against a concurrent pop when the central
  /// CAS is contended. Returns Done or Full.
  PushResult push(Value V) {
    SplitMix64 Rng(seedFrom(V));
    while (true) {
      const PushResult Direct = Central.tryPushOnce(V);
      if (Direct != PushResult::Abort)
        return Direct;
      if (tryEliminatePush(V, Rng))
        return PushResult::Done;
    }
  }

  /// Pops a value, eliminating against a concurrent push when the
  /// central CAS is contended. Returns a value or Empty.
  PopResult<Value> pop() {
    SplitMix64 Rng(seedFrom(0x504f50u));
    while (true) {
      const PopResult<Value> Direct = Central.tryPopOnce();
      if (!Direct.isAbort())
        return Direct;
      if (const std::optional<Value> V = tryEliminatePop(Rng))
        return PopResult<Value>::value(*V);
    }
  }

  std::uint32_t capacity() const { return Central.capacity(); }
  std::uint32_t sizeForTesting() const { return Central.sizeForTesting(); }

  /// Number of operations that completed via elimination (relaxed
  /// counter; benchmarking aid for E8).
  std::uint64_t eliminationCountForTesting() const {
    return Eliminations.peekForTesting();
  }

private:
  enum SlotState : std::uint64_t {
    Empty = 0,
    WaitingPush = 1,
    WaitingPop = 2,
    Done = 3
  };

  // Slot word: state:2 | value:32 | tag:30.
  using StateField = BitField<std::uint64_t, 0, 2>;
  using ValueField = BitField<std::uint64_t, 2, 32>;
  using TagField = BitField<std::uint64_t, 34, 30>;

  static std::uint64_t makeSlot(SlotState S, Value V, std::uint64_t Tag) {
    return StateField::encode(S) | ValueField::encode(V) |
           TagField::encode(Tag & TagField::maxValue());
  }
  static SlotState stateOf(std::uint64_t W) {
    return static_cast<SlotState>(StateField::get(W));
  }
  static Value valueOf(std::uint64_t W) {
    return static_cast<Value>(ValueField::get(W));
  }
  static std::uint64_t bumpTag(std::uint64_t W) {
    return (TagField::get(W) + 1) & TagField::maxValue();
  }

  static std::uint64_t seedFrom(std::uint32_t Salt) {
    // Thread-distinct, cheap seed; elimination only needs decorrelation.
    static thread_local std::uint64_t Counter = 0;
    return (++Counter * 0x9e3779b97f4a7c15ull) ^ Salt;
  }

  /// Parks as a pusher in a random slot; true if a popper took the value.
  bool tryEliminatePush(Value V, SplitMix64 &Rng) {
    AtomicRegister<std::uint64_t> &Slot = Slots[Rng.below(SlotCount)];
    const std::uint64_t W = Slot.read();
    switch (stateOf(W)) {
    case Empty: {
      const std::uint64_t Waiting = makeSlot(WaitingPush, V, bumpTag(W));
      if (!Slot.compareAndSwap(W, Waiting))
        return false;
      for (std::uint32_t Spin = 0; Spin < SpinBudget; ++Spin) {
        if (Slot.read() != Waiting) {
          // Only a matching popper can move us (Waiting -> Done).
          Slot.write(makeSlot(Empty, 0, bumpTag(Waiting) + 1));
          Eliminations.fetchAdd(1);
          return true;
        }
        cpuRelax();
      }
      // Withdraw; a failed withdrawal means a popper matched meanwhile.
      if (Slot.compareAndSwap(Waiting,
                              makeSlot(Empty, 0, bumpTag(Waiting))))
        return false;
      Slot.write(makeSlot(Empty, 0, bumpTag(Waiting) + 1));
      Eliminations.fetchAdd(1);
      return true;
    }
    case WaitingPop:
      // Hand our value straight to the waiting popper.
      if (Slot.compareAndSwap(W, makeSlot(Done, V, bumpTag(W)))) {
        Eliminations.fetchAdd(1);
        return true;
      }
      return false;
    case WaitingPush:
    case Done:
      return false;
    }
    return false;
  }

  /// Parks as a popper in a random slot; returns the pushed value on a
  /// match.
  std::optional<Value> tryEliminatePop(SplitMix64 &Rng) {
    AtomicRegister<std::uint64_t> &Slot = Slots[Rng.below(SlotCount)];
    const std::uint64_t W = Slot.read();
    switch (stateOf(W)) {
    case Empty: {
      const std::uint64_t Waiting = makeSlot(WaitingPop, 0, bumpTag(W));
      if (!Slot.compareAndSwap(W, Waiting))
        return std::nullopt;
      for (std::uint32_t Spin = 0; Spin < SpinBudget; ++Spin) {
        const std::uint64_t Now = Slot.read();
        if (Now != Waiting) {
          // A pusher moved us to Done carrying its value.
          const Value V = valueOf(Now);
          Slot.write(makeSlot(Empty, 0, bumpTag(Now)));
          Eliminations.fetchAdd(1);
          return V;
        }
        cpuRelax();
      }
      if (Slot.compareAndSwap(Waiting,
                              makeSlot(Empty, 0, bumpTag(Waiting))))
        return std::nullopt;
      const std::uint64_t Now = Slot.read();
      const Value V = valueOf(Now);
      Slot.write(makeSlot(Empty, 0, bumpTag(Now)));
      Eliminations.fetchAdd(1);
      return V;
    }
    case WaitingPush: {
      const Value V = valueOf(W);
      if (Slot.compareAndSwap(W, makeSlot(Done, V, bumpTag(W)))) {
        Eliminations.fetchAdd(1);
        return V;
      }
      return std::nullopt;
    }
    case WaitingPop:
    case Done:
      return std::nullopt;
    }
    return std::nullopt;
  }

  TreiberStack Central;
  const std::uint32_t SlotCount;
  const std::uint32_t SpinBudget;
  std::unique_ptr<AtomicRegister<std::uint64_t>[]> Slots;
  AtomicRegister<std::uint64_t> Eliminations{0};
};

} // namespace csobj

#endif // CSOBJ_BASELINES_ELIMINATIONBACKOFFSTACK_H
