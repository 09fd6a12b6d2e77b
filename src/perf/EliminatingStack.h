//===- perf/EliminatingStack.h - Elimination-accelerated Fig. 3 -*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Figure 3 stack with an elimination window wedged between the
/// paper's shortcut (lines 01-03) and the doorway (line 04): when the
/// fast path fails — CONTENTION was raised, or the weak attempt lost its
/// C&S — the operation gets one rendezvous attempt to pair with an
/// inverse operation before competing for the lock. A matched push/pop
/// pair completes without ever touching TOP, turning the stack's central
/// hot spot into parallel slot traffic exactly when contention is
/// highest.
///
/// Correctness (the bounded-stack subtlety): an eliminated pair
/// linearizes push immediately followed by pop at the instant of the
/// matcher's *gate read* — one instrumented read of TOP showing
/// index < k. The partner is parked in the slot across that read (its
/// withdraw C&S would otherwise have emptied the slot and failed the
/// match), so the instant lies inside both operations' intervals, and it
/// witnesses not-full, which is the only precondition the pair needs:
/// the push is legal because the stack is not full, and the pop then
/// returns exactly the pushed value. See perf/EliminationArray.h for the
/// slot protocol and DESIGN.md ("Acceleration layer") for the full
/// argument.
///
/// Preserved guarantees:
///  * Solo cost: the contention-free execution is byte-identical to the
///    plain Figure 3 stack — one CONTENTION read plus the five weak-op
///    accesses, six total; the rescue window is never entered. The
///    conformance battery's access bounds enforce this.
///  * Starvation-freedom: the rescue is attempted exactly once per
///    operation, so every operation still reaches the doorway after a
///    bounded number of its own steps; Lemmas 1-3 and Theorem 1 apply
///    verbatim to the fall-through.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_PERF_ELIMINATINGSTACK_H
#define CSOBJ_PERF_ELIMINATINGSTACK_H

#include "core/AbortableStack.h"
#include "core/ContentionSensitive.h"
#include "locks/TasLock.h"
#include "perf/EliminationArray.h"

#include <cstddef>
#include <cstdint>
#include <optional>

namespace csobj {

/// Figure 3 over Figure 1, accelerated by a gated elimination array.
/// Template parameters match ContentionSensitiveStack (minus SkeletonT:
/// the rescue window needs the Figure 3 skeleton's
/// strongApplyWithRescue).
template <typename Config = Compact64, typename Lock = TasLock,
          ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
class EliminatingContentionSensitiveStack {
public:
  using Value = typename Config::Value;
  using RegisterPolicy = Policy;
  static constexpr Value Bottom = AbortableStack<Config, Policy>::Bottom;

  // The rendezvous slots carry 32-bit payloads (the Compact64 family's
  // value field); wider codecs would need a wider slot word.
  static_assert(sizeof(Value) <= sizeof(std::uint32_t),
                "elimination slots carry 32-bit payloads");

  /// \p NumThreads is the paper's n; \p Capacity is k. \p SlotCount and
  /// \p SpinBudget size the elimination array (see EliminationArray.h;
  /// deterministic tests want {1, small}, benches want {~threads/2,
  /// larger}).
  EliminatingContentionSensitiveStack(std::uint32_t NumThreads,
                                      std::uint32_t Capacity,
                                      std::uint32_t SlotCount = 4,
                                      std::uint32_t SpinBudget = 64)
      : Weak(Capacity), Strong(NumThreads), Elim(SlotCount, SpinBudget) {}

  /// strong_push(v): Done or Full, never Abort; always terminates.
  PushResult push(std::uint32_t Tid, Value V) {
    auto WeakOp = bottomIfAbort([this, V] { return Weak.weakPush(V); });
    auto Rescue = [this, Tid, V]() -> std::optional<PushResult> {
      if (Elim.tryGive(static_cast<std::uint32_t>(V), Tid, notFullGate())) {
        Strong.metrics().onEvent(Tid, obs::Event::EliminatedPush);
        return PushResult::Done;
      }
      return std::nullopt;
    };
    if (ForceRescue) {
      if (auto Res = Rescue()) {
        // Outside the skeleton, so book the op and its path here to keep
        // the conservation law exact under the testing knob.
        Strong.metrics().onOp(Tid);
        Strong.metrics().onPath(Tid, obs::Path::Eliminated);
        return *Res;
      }
      return Strong.strongApply(Tid, WeakOp);
    }
    return Strong.strongApplyWithRescue(Tid, WeakOp, Rescue);
  }

  /// strong_pop(): a value or Empty, never Abort; always terminates.
  PopResult<Value> pop(std::uint32_t Tid) {
    auto WeakOp = bottomIfAbort([this] { return Weak.weakPop(); });
    auto Rescue = [this, Tid]() -> std::optional<PopResult<Value>> {
      if (auto V = Elim.tryTake(Tid, notFullGate())) {
        Strong.metrics().onEvent(Tid, obs::Event::EliminatedPop);
        return PopResult<Value>::value(static_cast<Value>(*V));
      }
      return std::nullopt;
    };
    if (ForceRescue) {
      if (auto Res = Rescue()) {
        Strong.metrics().onOp(Tid);
        Strong.metrics().onPath(Tid, obs::Path::Eliminated);
        return *Res;
      }
      return Strong.strongApply(Tid, WeakOp);
    }
    return Strong.strongApplyWithRescue(Tid, WeakOp, Rescue);
  }

  std::uint32_t capacity() const { return Weak.capacity(); }
  std::uint32_t numThreads() const { return Strong.numThreads(); }
  std::uint32_t sizeForTesting() const { return Weak.sizeForTesting(); }

  AbortableStack<Config, Policy> &abortable() { return Weak; }
  ContentionSensitive<Lock, Manager, Policy> &skeleton() { return Strong; }
  EliminationArrayT<Policy> &eliminationArray() { return Elim; }

  /// Path-attributed metrics of the skeleton (obs/PathCounters.h); the
  /// Eliminated path and the pairing events are booked here too.
  obs::PathSnapshot pathSnapshot() const { return Strong.pathSnapshot(); }

  /// Resident bytes: header plus the stack slots, skeleton heap and
  /// elimination slots. Feeds the bytes_per_element bench column.
  std::size_t footprintBytes() const {
    return sizeof(*this) + Weak.heapBytes() + Strong.heapBytes() +
           Elim.heapBytes();
  }
  obs::Path lastPath(std::uint32_t Tid) const {
    return Strong.metrics().lastPath(Tid);
  }

  /// Operations finished via elimination (test/bench aid).
  std::uint64_t eliminationExchangesForTesting() const {
    return Elim.exchangesForTesting();
  }

  /// Testing knob: route every operation through the rescue window FIRST
  /// (before the fast path), falling back to the plain Figure 3 path if
  /// the rendezvous fails. Directed-schedule tests use this to build
  /// executions whose leading accesses are elimination-slot accesses
  /// only, making access indices predictable. Never enabled in
  /// production paths.
  void forceRescueForTesting(bool Force) { ForceRescue = Force; }

private:
  /// The matcher-side gate: one instrumented read of TOP witnessing
  /// index < k (see file comment).
  auto notFullGate() {
    return [this] { return Weak.readTop().Index < Weak.capacity(); };
  }

  AbortableStack<Config, Policy> Weak;
  ContentionSensitive<Lock, Manager, Policy> Strong;
  EliminationArrayT<Policy> Elim;
  bool ForceRescue = false;
};

} // namespace csobj

#endif // CSOBJ_PERF_ELIMINATINGSTACK_H
