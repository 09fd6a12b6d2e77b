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
/// splits Active ways. `Active` is the shard *mask*: a ShardController
/// samples PathSnapshot deltas to grow it under lock-path pressure,
/// shrink it when the delta is shortcut-dominant, and retune the
/// elimination gate's spin budget from the pairing rate. At Active == 1
/// every operation runs on shard 0 alone (perf_test, E18).
///
/// A static shard count is this facade pinned: InitialShards ==
/// MaxShards == N with ShardControllerConfig::TickOps == 0. The mask
/// then never moves (grow-on-full has nowhere to go, no tick runs), the
/// epoch never changes and certify() never reports a straggler.
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
///    shard — hence the bag — was full. A push that finds every *active*
///    shard full below the full mask grows instead, so observable
///    capacity is always TotalCapacity. Eliminated pairs do not bump TOP
///    but are net-zero, so they cannot invalidate the witness. Pop's
///    Empty answer is symmetric and spans retired shards too (below).
///  * a matched elimination pair linearizes push;pop at the matcher's
///    gate read of the home shard's TOP showing room. The partner is
///    parked in the slot across that read (its withdraw C&S would
///    otherwise have emptied the slot and failed the match), so the read
///    is an instant inside both operations' intervals, and it witnesses
///    not-full — the only precondition the pair needs: the push is legal
///    there and the pop returns exactly the pushed value, all without
///    touching any TOP (perf/EliminationArray.h has the slot protocol).
///
/// One shard is the eliminating Figure 3 stack: MaxShards == 1 pinned
/// (TickOps == 0) is Figure 3 with the elimination array armed as its
/// rescue window, a LIFO stack rather than a bag. For it push/pop return
/// the shard's own Full/Empty answer (an `if constexpr` rule): one
/// Figure 3 stack's answer is already linearizable, so there is neither
/// a facade-seam rendezvous nor a certificate, and a solo empty pop
/// costs the shard's four accesses.
///
/// The elimination array is armed at TWO seams. The home-shard probe
/// runs through the shard skeleton's rescue window
/// (strongApplyWithRescue): when the shortcut fails the op tries to pair
/// with an inverse op *before* competing for the shard's lock — the
/// inter-shard balancer, firing under ordinary mixed load. The facade
/// seam additionally tries elimination after every active shard
/// answered Full/Empty, before certifying (MaxShards > 1 only). With the
/// facade seam alone E12 measured zero exchanges: a half-full bag never
/// reaches the boundary.
///
/// Reconfiguration (Active, Epoch and the tick counter are plain
/// std::atomics — control state, invisible to the access-count oracle,
/// the explorer and the fault injectors):
///
///  * grow: CAS Active up, bump Epoch, book Event::ShardGrow.
///  * shrink: CAS Active down, bump Epoch, book Event::ShardShrink.
///    Retirement is LAZY — it moves no elements, so a crash cannot
///    strand any. Elements left in (or straggler-pushed into) a retired
///    shard are recovered pull-based: the Empty certificate observes
///    them and pops the retired shard directly; a later grow simply
///    re-activates the shard, stragglers included.
///
/// The double collect is epoch-tagged — the witness reads Epoch before
/// the first collect and re-checks it after the second, so a concurrent
/// grow/shrink forces a re-probe instead of a stale certificate. It
/// spans the full shard array: Empty must prove even retired shards
/// hold no stragglers, which a mask-only collect cannot do while
/// retirement is lazy.
///
/// Progress: each shard operation is starvation-free (Theorem 1 applies
/// per shard; the rescue runs at most once per operation, so every
/// operation still reaches the doorway after a bounded number of its own
/// steps). With one shard that is the whole story, Full/Empty included.
/// With more, the probe loop restarts when the double collect sees
/// movement or reconfiguration, so Full/Empty answers are only
/// obstruction-free — a storm of successful operations elsewhere can
/// defer them indefinitely. Non-boundary operations never help or wait
/// on other shards. Failed boundary rounds back off (randomized
/// exponential, yielding past the cap): on an oversubscribed host a hot
/// spinning chaser starves exactly the operations that would quiesce
/// the bag; the soak watchdog caught the unthrottled loop overstaying
/// its deadline. DESIGN.md "Adaptive sharding control loop".
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_PERF_ADAPTIVESHARDEDSTACK_H
#define CSOBJ_PERF_ADAPTIVESHARDEDSTACK_H

#include "core/ContentionSensitiveStack.h"
#include "obs/PathCounters.h"
#include "perf/EliminationArray.h"
#include "perf/ShardController.h"
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
                       std::uint32_t SpinBudget = 64,
                       ShardControllerConfig Controller = {})
      : N(NumThreads), PerShard(checkedPerShard(TotalCapacity)),
        Elim(SlotCount, SpinBudget), Ctl(Controller),
        Active(checkedInitial(InitialShards)) {
    for (std::uint32_t S = 0; S < MaxShards; ++S)
      Shards[S].emplace(NumThreads, PerShard);
  }

  /// Bag push: Done, or Full only at the full mask on an epoch-stable
  /// all-full simultaneous witness. An all-active-full probe below the
  /// full mask grows instead of certifying, so observable capacity is
  /// always TotalCapacity.
  PushResult push(std::uint32_t Tid, Value V) {
    const PushResult Res = pushImpl(Tid, V);
    maybeTick(Tid);
    return Res;
  }

  /// Bag pop: some element, or Empty on an epoch-stable all-empty
  /// witness spanning active and retired shards alike.
  PopResult<Value> pop(std::uint32_t Tid) {
    const PopResult<Value> Res = popImpl(Tid);
    maybeTick(Tid);
    return Res;
  }

  /// Group push over the active mask: each active shard applies a chunk
  /// through its own group seam (one lock tenure per shard touched);
  /// leftovers fall back to the facade's per-element push so elimination
  /// and the all-full certificate still apply. Returns the number pushed
  /// (a prefix of Vs lands in the bag).
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
  /// fallback (which also recovers retired-shard stragglers at the Empty
  /// boundary). Returns the number of values written to Out.
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
  // Control plane
  //===--------------------------------------------------------------===//

  std::uint32_t activeShards() const {
    return Active.load(std::memory_order_relaxed);
  }
  static constexpr std::uint32_t maxShards() { return MaxShards; }

  /// Reconfiguration epoch: bumped by every grow/shrink. Test aid (the
  /// certificates read it internally).
  std::uint64_t reconfigEpoch() const {
    return Epoch.load(std::memory_order_relaxed);
  }

  /// Forces one control tick now, regardless of the op cadence.
  void tickForTesting(std::uint32_t Tid) { tick(Tid); }

  /// Direct mask moves for directed tests (same booking as the control
  /// loop's moves).
  bool growForTesting(std::uint32_t Tid) { return grow(Tid); }
  bool shrinkForTesting(std::uint32_t Tid) { return shrink(Tid); }

  const ShardController &controller() const { return Ctl; }

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

  /// Sum of ALL shard sizes, retired included (stragglers are still
  /// elements of the bag); exact when quiescent.
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

  /// Facade sink + every shard skeleton, retired shards included (their
  /// history must stay counted across reconfigurations). Ops >= the
  /// harness's op count (one facade op may enter several shard
  /// skeletons); conservation holds per sink.
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

  PushResult pushImpl(std::uint32_t Tid, Value V) {
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
        grow(Tid);
        continue;
      }
      std::uint32_t Straggler = 0;
      if (certify(/*WantFull=*/true, Straggler) == Witness::Certified)
        return PushResult::Full;
      // Movement or reconfiguration raced the witness: re-probe after a
      // randomized backoff (lazily built: the solo path never gets here,
      // and construction draws a per-thread RNG seed).
      if (!Boundary)
        Boundary.emplace();
      Boundary->onFailure();
    }
  }

  PopResult<Value> popImpl(std::uint32_t Tid) {
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
      std::uint32_t Straggler = 0;
      switch (certify(/*WantFull=*/false, Straggler)) {
      case Witness::Certified:
        return PopResult<Value>::empty();
      case Witness::Straggler: {
        // A retired shard holds elements (lazy retirement): recover
        // directly — this is the pull-based drain, so there is no
        // retirement window a crash could strand elements in.
        const PopResult<Value> Res = shard(Straggler).pop(Tid);
        if (Res.isValue())
          return Res;
        break;
      }
      case Witness::Moved:
        break;
      }
      if (!Boundary)
        Boundary.emplace();
      Boundary->onFailure();
    }
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

  enum class Witness : std::uint8_t { Certified, Moved, Straggler };

  /// The epoch-tagged double collect. WantFull certifies only at the
  /// full mask (callers grow below it), so Want == PerShard everywhere;
  /// !WantFull requires every shard — active or retired — to show 0.
  /// A retired shard showing elements reports Straggler (with the shard
  /// index in \p StragglerShard) so the caller can recover them. Two
  /// equal collects of the seq-carrying TOP words certify a single
  /// instant; an Epoch change across the witness voids it (the mask the
  /// probe ran against is stale) and forces a re-probe.
  Witness certify(bool WantFull, std::uint32_t &StragglerShard) {
    const std::uint64_t E1 = Epoch.load();
    const std::uint32_t A = Active.load();
    if (WantFull && A < MaxShards)
      return Witness::Moved;
    std::array<TopWord, MaxShards> First;
    for (std::uint32_t S = 0; S < MaxShards; ++S) {
      const TopWord W = shard(S).abortable().readTopWord();
      const std::uint32_t Idx = decodeIndex(W);
      const std::uint32_t Want = WantFull ? PerShard : 0;
      if (Idx != Want) {
        if (!WantFull && S >= A && Idx != 0) {
          StragglerShard = S;
          return Witness::Straggler;
        }
        return Witness::Moved;
      }
      First[S] = W;
    }
    for (std::uint32_t S = 0; S < MaxShards; ++S)
      if (shard(S).abortable().readTopWord() != First[S])
        return Witness::Moved;
    if (Epoch.load() != E1)
      return Witness::Moved;
    return Witness::Certified;
  }

  bool grow(std::uint32_t Tid) {
    std::uint32_t A = Active.load();
    while (A < MaxShards) {
      if (Active.compare_exchange_weak(A, A + 1)) {
        Epoch.fetch_add(1);
        Sink.onEvent(Tid, obs::Event::ShardGrow);
        return true;
      }
    }
    return false;
  }

  /// Lazy retirement: publishes the narrower mask and bumps the epoch.
  /// Deliberately moves NO elements — see file comment.
  bool shrink(std::uint32_t Tid) {
    std::uint32_t A = Active.load();
    while (A > 1) {
      if (Active.compare_exchange_weak(A, A - 1)) {
        Epoch.fetch_add(1);
        Sink.onEvent(Tid, obs::Event::ShardShrink);
        return true;
      }
    }
    return false;
  }

  /// Op-cadence auto-tick. The counter is a plain relaxed atomic — like
  /// every other configuration word here, it adds nothing to the solo
  /// access count.
  void maybeTick(std::uint32_t Tid) {
    const std::uint32_t Interval = Ctl.config().TickOps;
    if (Interval == 0)
      return;
    if ((TickCount.fetch_add(1, std::memory_order_relaxed) + 1) % Interval ==
        0)
      tick(Tid);
  }

  /// One control sample + application. Concurrent tickers skip (the
  /// controller's delta state wants a single writer); everything inside
  /// runs on plain atomics and metric reads, so a tick cannot raise a
  /// simulated crash or perturb a counted operation.
  void tick(std::uint32_t Tid) {
    bool Busy = false;
    if (!TickBusy.compare_exchange_strong(Busy, true,
                                          std::memory_order_acquire))
      return;
    const ShardActions Act =
        Ctl.sample(pathSnapshot(), activeShards(), MaxShards,
                   Elim.spinBudget());
    switch (Act.Mask) {
    case ShardActions::MaskMove::Grow:
      grow(Tid);
      break;
    case ShardActions::MaskMove::Shrink:
      shrink(Tid);
      break;
    case ShardActions::MaskMove::Hold:
      break;
    }
    switch (Act.Gate) {
    case ShardActions::GateMove::Widen:
      Elim.setSpinBudget(Elim.spinBudget() * 2);
      Sink.onEvent(Tid, obs::Event::GateWiden);
      break;
    case ShardActions::GateMove::Narrow:
      Elim.setSpinBudget(Elim.spinBudget() / 2);
      Sink.onEvent(Tid, obs::Event::GateNarrow);
      break;
    case ShardActions::GateMove::Hold:
      break;
    }
    TickBusy.store(false, std::memory_order_release);
  }

  using TopC = typename AbortableStack<Config, Policy>::TopC;
  using TopWord = typename TopC::Word;

  static std::uint32_t decodeIndex(TopWord W) {
    return static_cast<std::uint32_t>(TopC::unpack(W).Index);
  }

  const std::uint32_t N;
  const std::uint32_t PerShard;
  std::array<std::optional<Shard>, MaxShards> Shards;
  EliminationArrayT<Policy> Elim;
  ShardController Ctl;
  std::atomic<std::uint32_t> Active;
  std::atomic<std::uint64_t> Epoch{0};
  std::atomic<std::uint64_t> TickCount{0};
  std::atomic<bool> TickBusy{false};
  bool ForceBalance = false;
  [[no_unique_address]] mutable obs::MetricSink Sink{N};
};

} // namespace csobj

#endif // CSOBJ_PERF_ADAPTIVESHARDEDSTACK_H
