//===- perf/AdaptiveShardedStack.h - Runtime-sharded Fig. 3 bag -*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MaxShards independent Figure 3 stacks (each with its own TOP,
/// CONTENTION, doorway and lock) behind one push/pop facade, with an
/// elimination array balancing load between them. Threads start probing
/// at their home shard (Tid mod Active), so a solo op is a plain Figure 3
/// shortcut — six shared accesses, no lock — while under load contention
/// splits Active ways. `Active` is the shard *mask*, and it has one move:
/// a push that finds every active shard full grows it by one, so the
/// observable capacity is TotalCapacity from the first operation. The
/// mask never shrinks. InitialShards == MaxShards is therefore a static
/// shard count: the mask has nowhere to grow and never moves.
///
/// Semantics: a *bag* (pool) with capacity TotalCapacity, not a LIFO
/// stack — pops return some pushed-but-unpopped element (per-shard LIFO
/// order only). The conformance battery checks it against BoundedBagSpec
/// and stress tests check element conservation. Full/Empty answers stay
/// total and linearizable:
///
///  * push returns Full only at the full mask, on an all-full
///    simultaneous witness: the packed TOP words of all shards (each
///    carrying a sequence number bumped by every successful operation)
///    are collected twice; if the collects agree word for word and every
///    word shows index == TotalCapacity / MaxShards, then no successful
///    operation ran anywhere in the window, so at some instant every
///    shard — hence the bag — was full. Pop's Empty answer is the same
///    double collect with every word at index 0. Eliminated pairs do not
///    bump TOP but are net-zero, so they cannot invalidate the witness.
///  * a matched elimination pair linearizes push;pop at the matcher's
///    gate read of the home shard's TOP showing room. The partner is
///    parked in the slot across that read (its withdraw C&S would
///    otherwise have emptied the slot and failed the match), so the read
///    is an instant inside both operations' intervals, and it witnesses
///    not-full — the only precondition the pair needs: the push is legal
///    there and the pop returns exactly the pushed value, all without
///    touching any TOP (perf/EliminationArray.h has the slot protocol).
///
/// The certificate needs no reconfiguration epoch. Both collects span
/// every shard, not the mask the probe ran against, so the witness is
/// about the whole bag whatever the mask did meanwhile: a push that grew
/// the mask and landed in a shard the probe never visited shows up as a
/// non-zero index and voids an Empty answer. Full is only certified once
/// the mask is full, and a full mask stays full.
///
/// One shard is the eliminating Figure 3 stack: MaxShards == 1 is Figure
/// 3 with the elimination array armed as its rescue window, a LIFO stack
/// rather than a bag. For it push/pop return the shard's own Full/Empty
/// answer (an `if constexpr` rule): one Figure 3 stack's answer is
/// already linearizable, so there is neither a facade-seam rendezvous nor
/// a certificate, and a solo empty pop costs the shard's four accesses.
///
/// The elimination array is armed at TWO seams. The home-shard probe
/// runs through the shard skeleton's rescue window
/// (strongApplyWithRescue): when the shortcut fails the op tries to pair
/// with an inverse op *before* competing for the shard's lock — the
/// inter-shard balancer, firing under ordinary mixed load. The facade
/// seam additionally tries elimination after every active shard
/// answered Full/Empty, before growing or certifying (MaxShards > 1
/// only). With the facade seam alone E12 measured zero exchanges: a
/// half-full bag never reaches the boundary.
///
/// `Active` is a plain std::atomic — control state, invisible to the
/// access-count oracle, the explorer and the fault injectors. A grow
/// moves no elements, so a crash cannot strand any.
///
/// Progress: each shard operation is starvation-free (Theorem 1 applies
/// per shard; the rescue runs at most once per operation, so every
/// operation still reaches the doorway after a bounded number of its own
/// steps). With one shard that is the whole story, Full/Empty included.
/// With more, the probe loop restarts when the double collect sees
/// movement, so Full/Empty answers are only obstruction-free — a storm of
/// successful operations elsewhere can defer them indefinitely. A grow
/// restarts the loop too, but the mask grows at most MaxShards - 1 times
/// in the object's life. Non-boundary operations never help or wait on
/// other shards. Failed boundary rounds back off (randomized exponential,
/// yielding past the cap): on an oversubscribed host a hot spinning
/// chaser starves exactly the operations that would quiesce the bag; the
/// soak watchdog caught the unthrottled loop overstaying its deadline.
/// DESIGN.md "Grow-on-full mask".
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_PERF_ADAPTIVESHARDEDSTACK_H
#define CSOBJ_PERF_ADAPTIVESHARDEDSTACK_H

#include "core/ContentionSensitiveStack.h"
#include "obs/PathCounters.h"
#include "perf/EliminationArray.h"
#include "support/Backoff.h"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>

namespace csobj {

/// \tparam MaxShards upper bound of the active-shard mask; all shards
/// are constructed up front (capacity TotalCapacity / MaxShards each)
/// and activation is a mask move, never an allocation.
/// Remaining parameters as ContentionSensitiveStack.
template <std::uint32_t MaxShards = 8, typename Config = Compact64,
          typename Lock = TasLock, ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
class AdaptiveShardedStack {
public:
  using Shard = ContentionSensitiveStack<Config, Lock, Manager, Policy>;
  using Value = typename Config::Value;
  using RegisterPolicy = Policy;

  static_assert(MaxShards >= 1, "need at least one shard");
  static_assert(sizeof(Value) <= sizeof(std::uint32_t),
                "elimination slots carry 32-bit payloads");

  /// \p TotalCapacity must divide evenly across MaxShards and give each
  /// shard at least one slot; \p InitialShards must lie in
  /// [1, MaxShards]. Violations throw std::invalid_argument — hard
  /// checks, not asserts, because an NDEBUG build would otherwise
  /// silently construct a zero-capacity or capacity-losing bag.
  AdaptiveShardedStack(std::uint32_t NumThreads, std::uint32_t TotalCapacity,
                       std::uint32_t InitialShards = 1,
                       std::uint32_t SlotCount = 4,
                       std::uint32_t SpinBudget = 64)
      : N(NumThreads), PerShard(checkedPerShard(TotalCapacity)),
        InitialShards(checkedInitial(InitialShards)),
        Elim(SlotCount, SpinBudget), Active(this->InitialShards) {
    for (std::uint32_t S = 0; S < MaxShards; ++S)
      Shards[S].emplace(NumThreads, PerShard);
  }

  /// Bag push: Done, or Full only at the full mask on an all-full
  /// simultaneous witness. An all-active-full probe below the full mask
  /// grows instead of certifying, so observable capacity is always
  /// TotalCapacity.
  PushResult push(std::uint32_t Tid, Value V) {
    if (ForceBalance) {
      if (Elim.tryGive(static_cast<std::uint32_t>(V), Tid, notFullGate(Tid))) {
        bookEliminated(Tid, obs::Event::EliminatedPush);
        return PushResult::Done;
      }
    }
    if constexpr (MaxShards == 1)
      return balancedPush(Tid, 0, V);
    std::optional<ExponentialBackoff> Boundary;
    while (true) {
      const std::uint32_t A = activeShards();
      const std::uint32_t Home = Tid % A;
      for (std::uint32_t I = 0; I < A; ++I) {
        const std::uint32_t S = (Home + I) % A;
        const PushResult Res = I == 0 ? balancedPush(Tid, S, V)
                                      : shard(S).push(Tid, V);
        if (Res == PushResult::Done)
          return PushResult::Done;
      }
      // Every active shard answered Full. Pair with a concurrent pop if
      // one is parked, else grow the mask (never certify Full while
      // growth is possible — observable capacity is TotalCapacity).
      if (Elim.tryGive(static_cast<std::uint32_t>(V), Tid, notFullGate(Tid))) {
        bookEliminated(Tid, obs::Event::EliminatedPush);
        return PushResult::Done;
      }
      if (A < MaxShards) {
        grow(Tid, A);
        continue;
      }
      if (certify(/*WantFull=*/true))
        return PushResult::Full;
      // Movement raced the witness: re-probe after a randomized backoff
      // (lazily built: the solo path never gets here, and construction
      // draws a per-thread RNG seed).
      if (!Boundary)
        Boundary.emplace();
      Boundary->onFailure();
    }
  }

  /// Bag pop: some element, or Empty on an all-empty simultaneous
  /// witness spanning every shard.
  PopResult<Value> pop(std::uint32_t Tid) {
    if (ForceBalance) {
      if (auto V = Elim.tryTake(Tid, notFullGate(Tid))) {
        bookEliminated(Tid, obs::Event::EliminatedPop);
        return PopResult<Value>::value(static_cast<Value>(*V));
      }
    }
    if constexpr (MaxShards == 1)
      return balancedPop(Tid, 0);
    std::optional<ExponentialBackoff> Boundary;
    while (true) {
      const std::uint32_t A = activeShards();
      const std::uint32_t Home = Tid % A;
      for (std::uint32_t I = 0; I < A; ++I) {
        const std::uint32_t S = (Home + I) % A;
        const PopResult<Value> Res =
            I == 0 ? balancedPop(Tid, S) : shard(S).pop(Tid);
        if (Res.isValue())
          return Res;
      }
      if (auto V = Elim.tryTake(Tid, notFullGate(Tid))) {
        bookEliminated(Tid, obs::Event::EliminatedPop);
        return PopResult<Value>::value(static_cast<Value>(*V));
      }
      if (certify(/*WantFull=*/false))
        return PopResult<Value>::empty();
      if (!Boundary)
        Boundary.emplace();
      Boundary->onFailure();
    }
  }

  /// Group push over the active mask: each active shard applies a chunk
  /// through its own group seam (one lock tenure per shard touched);
  /// leftovers fall back to the facade's per-element push so elimination,
  /// grow-on-full and the all-full certificate still apply. Returns the
  /// number pushed (a prefix of Vs lands in the bag).
  std::size_t push_all(std::uint32_t Tid, const Value *Vs,
                       std::size_t Count) {
    const std::uint32_t A = activeShards();
    const std::uint32_t Home = Tid % A;
    std::size_t Pushed = 0;
    for (std::uint32_t I = 0; I < A && Pushed < Count; ++I)
      Pushed += shard((Home + I) % A)
                    .push_all(Tid, Vs + Pushed, Count - Pushed);
    const std::size_t SeamPushed = Pushed;
    while (Pushed < Count && push(Tid, Vs[Pushed]) == PushResult::Done)
      ++Pushed;
    bookBatchFallback(Tid, Pushed - SeamPushed);
    return Pushed;
  }

  /// Group pop over the active mask with the facade's per-element
  /// fallback (which answers the Empty boundary). Returns the number of
  /// values written to Out.
  std::size_t pop_all(std::uint32_t Tid, Value *Out, std::size_t MaxCount) {
    const std::uint32_t A = activeShards();
    const std::uint32_t Home = Tid % A;
    std::size_t Got = 0;
    for (std::uint32_t I = 0; I < A && Got < MaxCount; ++I)
      Got += shard((Home + I) % A).pop_all(Tid, Out + Got, MaxCount - Got);
    const std::size_t SeamGot = Got;
    while (Got < MaxCount) {
      const PopResult<Value> Res = pop(Tid);
      if (!Res.isValue())
        break;
      Out[Got++] = Res.value();
    }
    bookBatchFallback(Tid, Got - SeamGot);
    return Got;
  }

  /// Drains the bag: pop_all bounded by the caller's buffer.
  std::size_t drain(std::uint32_t Tid, Value *Out, std::size_t MaxOut) {
    return pop_all(Tid, Out, MaxOut);
  }

  //===--------------------------------------------------------------===//
  // Mask
  //===--------------------------------------------------------------===//

  std::uint32_t activeShards() const {
    return Active.load(std::memory_order_relaxed);
  }
  static constexpr std::uint32_t maxShards() { return MaxShards; }

  /// Number of grows so far: the mask only grows, one shard at a time,
  /// so this is its distance from the initial mask.
  std::uint64_t reconfigEpoch() const {
    return activeShards() - InitialShards;
  }

  /// Test knob: route every facade op through the elimination array
  /// first, so a directed schedule can force an exchange without racing
  /// the shards.
  void forceBalancerForTesting(bool Force) { ForceBalance = Force; }

  //===--------------------------------------------------------------===//
  // Introspection
  //===--------------------------------------------------------------===//

  std::uint32_t capacity() const { return PerShard * MaxShards; }
  std::uint32_t shardCapacity() const { return PerShard; }
  std::uint32_t numThreads() const { return N; }

  /// Sum of all shard sizes; exact when quiescent.
  std::uint32_t sizeForTesting() const {
    std::uint32_t Total = 0;
    for (std::uint32_t S = 0; S < MaxShards; ++S)
      Total += shard(S).sizeForTesting();
    return Total;
  }

  Shard &shard(std::uint32_t S) { return *Shards[S]; }
  const Shard &shard(std::uint32_t S) const { return *Shards[S]; }
  EliminationArrayT<Policy> &eliminationArray() { return Elim; }
  std::uint64_t eliminationExchangesForTesting() const {
    return Elim.exchangesForTesting();
  }

  /// Facade sink + every shard skeleton. Ops >= the harness's op count
  /// (one facade op may enter several shard skeletons); conservation
  /// holds per sink.
  obs::PathSnapshot pathSnapshot() const {
    obs::PathSnapshot Total = Sink.snapshot();
    for (std::uint32_t S = 0; S < MaxShards; ++S)
      Total += shard(S).pathSnapshot();
    return Total;
  }

  /// Resident bytes: header (which embeds the shard objects), shard
  /// heaps, balancer slots, facade sink blocks.
  std::size_t footprintBytes() const {
    std::size_t Bytes = sizeof(*this) + Elim.heapBytes() + Sink.heapBytes();
    for (std::uint32_t S = 0; S < MaxShards; ++S)
      Bytes += shard(S).footprintBytes() - sizeof(Shard);
    return Bytes;
  }

private:
  static std::uint32_t checkedPerShard(std::uint32_t TotalCapacity) {
    if (TotalCapacity % MaxShards != 0)
      throw std::invalid_argument(
          "AdaptiveShardedStack: capacity must divide evenly across shards");
    if (TotalCapacity / MaxShards == 0)
      throw std::invalid_argument(
          "AdaptiveShardedStack: each shard needs capacity >= 1");
    return TotalCapacity / MaxShards;
  }

  static std::uint32_t checkedInitial(std::uint32_t InitialShards) {
    if (InitialShards < 1 || InitialShards > MaxShards)
      throw std::invalid_argument(
          "AdaptiveShardedStack: initial shard count outside [1, MaxShards]");
    return InitialShards;
  }

  /// Home-shard probe with the balancer armed as the skeleton's rescue
  /// window: a failed shortcut tries to hand the value to a concurrent
  /// pop before competing for the shard's lock. The solo fast path never
  /// invokes the rescue, preserving the six-access bound. The skeleton
  /// books the Eliminated path and the rescue books the matching event,
  /// so per-sink conservation stays exact.
  PushResult balancedPush(std::uint32_t Tid, std::uint32_t S, Value V) {
    Shard &Sh = shard(S);
    return Sh.skeleton().strongApplyWithRescue(
        Tid,
        bottomIfAbort([&Sh, V] { return Sh.abortable().weakPush(V); }),
        [this, &Sh, Tid, V]() -> std::optional<PushResult> {
          if (Elim.tryGive(static_cast<std::uint32_t>(V), Tid,
                           notFullGate(Tid))) {
            Sh.skeleton().metrics().onEvent(Tid,
                                            obs::Event::EliminatedPush);
            return PushResult::Done;
          }
          return std::nullopt;
        });
  }

  PopResult<Value> balancedPop(std::uint32_t Tid, std::uint32_t S) {
    Shard &Sh = shard(S);
    return Sh.skeleton().strongApplyWithRescue(
        Tid,
        bottomIfAbort([&Sh] { return Sh.abortable().weakPop(); }),
        [this, &Sh, Tid]() -> std::optional<PopResult<Value>> {
          if (auto V = Elim.tryTake(Tid, notFullGate(Tid))) {
            Sh.skeleton().metrics().onEvent(Tid, obs::Event::EliminatedPop);
            return PopResult<Value>::value(static_cast<Value>(*V));
          }
          return std::nullopt;
        });
  }

  /// Bag-not-full gate for the matcher: one instrumented read of the
  /// caller's current home shard's TOP showing room (conservative).
  auto notFullGate(std::uint32_t Tid) {
    return [this, Tid] {
      const std::uint32_t Home = Tid % activeShards();
      return shard(Home).abortable().readTop().Index < PerShard;
    };
  }

  void bookEliminated(std::uint32_t Tid, obs::Event E) {
    Sink.onOp(Tid);
    Sink.onPath(Tid, obs::Path::Eliminated);
    Sink.onEvent(Tid, E);
  }

  /// Books batch elements that landed through the per-element fallback
  /// as facade-level group work. The shard skeletons retired them on
  /// their own non-batched paths, so without this path_batched and the
  /// group histogram under-report exactly the fallback suffix; ops and
  /// paths are added in balance, keeping the sink's conservation law.
  void bookBatchFallback(std::uint32_t Tid, std::size_t Fallback) {
    if (Fallback == 0)
      return;
    Sink.onOp(Tid, Fallback);
    Sink.onPath(Tid, obs::Path::Batched, Fallback);
    Sink.onBatch(Tid, Fallback);
  }

  /// The double collect over every shard (not just the probed mask, see
  /// the file comment): true iff two collects of the seq-carrying TOP
  /// words agree word for word and every word shows PerShard (WantFull)
  /// or 0. Callers ask for Full only at the full mask.
  bool certify(bool WantFull) {
    const std::uint32_t Want = WantFull ? PerShard : 0;
    std::array<TopWord, MaxShards> First;
    for (std::uint32_t S = 0; S < MaxShards; ++S) {
      First[S] = shard(S).abortable().readTopWord();
      if (decodeIndex(First[S]) != Want)
        return false;
    }
    for (std::uint32_t S = 0; S < MaxShards; ++S)
      if (shard(S).abortable().readTopWord() != First[S])
        return false;
    return true;
  }

  /// Activates shard \p Seen after a probe of the \p Seen-shard mask
  /// found every shard full. A lost CAS means another push grew the
  /// mask first; the caller re-probes either way.
  void grow(std::uint32_t Tid, std::uint32_t Seen) {
    if (Active.compare_exchange_strong(Seen, Seen + 1))
      Sink.onEvent(Tid, obs::Event::ShardGrow);
  }

  using TopC = typename AbortableStack<Config, Policy>::TopC;
  using TopWord = typename TopC::Word;

  static std::uint32_t decodeIndex(TopWord W) {
    return static_cast<std::uint32_t>(TopC::unpack(W).Index);
  }

  const std::uint32_t N;
  const std::uint32_t PerShard;
  const std::uint32_t InitialShards;
  std::array<std::optional<Shard>, MaxShards> Shards;
  EliminationArrayT<Policy> Elim;
  std::atomic<std::uint32_t> Active;
  bool ForceBalance = false;
  [[no_unique_address]] mutable obs::MetricSink Sink{N};
};

} // namespace csobj

#endif // CSOBJ_PERF_ADAPTIVESHARDEDSTACK_H
