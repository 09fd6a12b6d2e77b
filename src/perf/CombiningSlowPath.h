//===- perf/CombiningSlowPath.h - Flat-combining slow path ------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A drop-in alternative to the Figure 3 skeleton that replaces the
/// doorway + lock slow path with flat combining (Hendler, Incze, Shavit
/// & Tzafrir, SPAA'10): contended operations publish a request record;
/// one thread — the combiner — wins a dedicated C&S word and executes
/// the whole batch serially, so a batch of b contended operations costs
/// one combiner handoff instead of b doorway/lock handoffs, and the
/// cache lines of the object stay resident in one core's cache while the
/// batch runs.
///
/// The fast path is byte-identical to Figure 3 lines 01-03: one acquire
/// read of CONTENTION, one weak attempt. A contention-free stack
/// operation therefore still performs exactly six shared-memory
/// accesses — the whole point of the paper's construction — and the
/// conformance battery's access bounds enforce it.
///
/// Publication protocol (per thread, one cache-line-aligned Record):
///  * publish: write Req (pointer to a stack-allocated request holding a
///    reference to the weak op and an out-slot) and Run (a type-erasing
///    trampoline), then State <- Pending with release. The publisher
///    blocks until State == Ready, so the stack-allocated request
///    outlives every combiner access.
///  * wait/combine: while Pending, try to win CombinerBusy with one C&S;
///    the winner raises CONTENTION (diverting fast-path newcomers into
///    publication, like Figure 3 line 07), sweeps all records for a
///    bounded number of rounds running each Pending request once per
///    round (requests can still abort against stragglers that read
///    CONTENTION == 0 before it was raised), finishes its OWN request to
///    completion with ContentionManager pacing (same unbounded-retry
///    argument as Figure 3 line 08: once CONTENTION is up, interfering
///    fast paths abort into the publication list, so interference is
///    transient), lowers CONTENTION, and releases CombinerBusy.
///  * complete: the combiner stores the result through the request and
///    State <- Ready with release; the publisher's acquire read of Ready
///    makes the result visible. The plain (non-atomic) Req/Run/Out
///    fields are always separated by this State acquire/release
///    handshake, so the protocol is TSan-clean.
///
/// Batch records (strongApplyBatch): a group API publishes its whole
/// contended remainder as ONE record whose trampoline applies k ops with
/// a resume cursor — one publication, one handoff and one Ready store
/// amortized over k elements. See the method comment for the contract.
///
/// Progress: deadlock-free, not starvation-free — a specific publisher
/// can in principle lose the CombinerBusy C&S forever while others are
/// served. This deliberately sits between Figure 3 (starvation-free) and
/// the bare weak object (obstruction-free) on the progress-downgrade
/// lattice; the battery runs it under stall plans but not crash sweeps
/// (a killed combiner strands its waiters — see DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_PERF_COMBININGSLOWPATH_H
#define CSOBJ_PERF_COMBININGSLOWPATH_H

#include "core/ContentionSensitive.h"
#include "memory/AtomicRegister.h"
#include "obs/PathCounters.h"
#include "support/CacheLine.h"
#include "support/ContentionManager.h"
#include "support/SpinWait.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace csobj {

/// Flat-combining strong-operation skeleton. Same constructor and
/// strongApply contract as ContentionSensitive, so every wrapper object
/// (stack, queue, deque, counter) accepts it as SkeletonT.
template <ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
class CombiningContentionSensitive {
public:
  using RegisterPolicy = Policy;

  /// \p NumThreads is the paper's n. \p CombineRounds is how many sweeps
  /// over the publication list a combiner performs before retiring.
  explicit CombiningContentionSensitive(std::uint32_t NumThreads,
                                        std::uint32_t CombineRounds = 2)
      : N(NumThreads), Rounds(CombineRounds), Records(new Record[NumThreads]) {
    assert(NumThreads >= 1 && "need at least one process");
    assert(CombineRounds >= 1 && "combiner must sweep at least once");
  }

  /// strong_push_or_pop(par), flat-combining flavour. Same contract as
  /// ContentionSensitive::strongApply: \p WeakOp returns std::optional,
  /// nullopt meaning the attempt aborted with no effect.
  template <typename WeakOpFn>
  auto strongApply(std::uint32_t Tid, WeakOpFn WeakOp)
      -> typename std::invoke_result_t<WeakOpFn>::value_type {
    using Result = typename std::invoke_result_t<WeakOpFn>::value_type;
    assert(Tid < N && "thread id out of range");
    if (auto Res = shortcut(Contention, Sink, Tid, WeakOp)) // lines 01-03
      return *Res;

    // Publish as a one-op record, then wait-or-combine.
    Result Out;
    auto At = [&WeakOp](std::size_t) { return WeakOp(); };
    auto Never = [](const Result &) { return false; };
    BatchRequest<decltype(At), decltype(Never), Result> Req{At, Never, &Out,
                                                            0, 1};
    publishAndWait(Tid, Req);
    Sink.onPath(Tid, obs::Path::Combined);
    return Out;
  }

  /// Group form of strongApply — the reason this skeleton exists. The
  /// per-element shortcut prefix is identical to the Fig-3 batch (six
  /// accesses per uncontended element), but on cutover the *entire
  /// remainder* is published as ONE combiner record carrying k ops: the
  /// combiner applies all k back to back under a single CombinerBusy
  /// tenure (one handoff amortized over k elements, object lines hot in
  /// one core's cache) and the publisher receives the batched results
  /// through the same State handshake as a single op. \p WeakAt(I)
  /// attempts op I; \p Stop(R) is the terminal answer that rejects the
  /// batch's remainder (partial-batch rejection for bounded objects);
  /// results land in Out[0..applied). Returns the number applied.
  ///
  /// A batch record can be applied across combiner visits: if op I
  /// aborts against a straggler, run() returns false with ops 0..I-1
  /// already applied and resumes from I at the next visit (same-record
  /// accesses are ordered by the CombinerBusy/State protocol, so the
  /// resume cursor needs no atomics). Progress is unchanged:
  /// deadlock-free, not starvation-free.
  template <typename WeakAtFn, typename StopFn, typename R>
  std::size_t strongApplyBatch(std::uint32_t Tid, std::size_t Count,
                               WeakAtFn WeakAt, StopFn Stop, R *Out) {
    assert(Tid < N && "thread id out of range");
    return shortcutPrefix(
        Contention, Sink, Tid, Count, WeakAt, Stop, Out, [&](std::size_t I) {
          // Publish the remainder as a single k-op record.
          BatchRequest<WeakAtFn, StopFn, R> Req{WeakAt, Stop, Out, I, Count};
          publishAndWait(Tid, Req);
          // Book the group: element I was op-counted by the shortcut
          // prefix; the combiner counted the whole record as one served
          // request, so credit the remaining k-1 ops to the combined-op
          // tallies here.
          const std::uint64_t Grouped = Req.Next - I;
          Sink.onOp(Tid, Grouped - 1);
          Sink.onPath(Tid, obs::Path::Batched, Grouped);
          Sink.onBatch(Tid, Grouped);
          Sink.onEvent(Tid, obs::Event::CombinedOp, Grouped - 1);
          CombinedOps.fetch_add(Grouped - 1, std::memory_order_relaxed);
          return Req.Next;
        });
  }

  std::uint32_t numThreads() const { return N; }

  /// Path-attributed metrics (obs/PathCounters.h).
  obs::MetricSink &metrics() const { return Sink; }
  obs::PathSnapshot pathSnapshot() const { return Sink.snapshot(); }

  bool contentionForTesting() const {
    return Contention.value().peekForTesting() != 0;
  }

  /// Completed combiner tenures / operations completed by combiners
  /// (self included). Plain relaxed atomics: stats must not perturb
  /// schedules or access counts.
  std::uint64_t batchesForTesting() const {
    return Batches.load(std::memory_order_relaxed);
  }
  std::uint64_t combinedOpsForTesting() const {
    return CombinedOps.load(std::memory_order_relaxed);
  }

  /// Heap owned by the skeleton: the per-thread publication records plus
  /// the metric sink's blocks.
  std::size_t heapBytes() const {
    return std::size_t{N} * sizeof(Record) + Sink.heapBytes();
  }

  /// One publication record. Cache-line-aligned so a publisher storing
  /// Pending never invalidates a neighbour's line; exposed for the
  /// false-sharing regression test.
  struct alignas(CacheLineSize) Record {
    AtomicRegister<std::uint8_t, Policy> State{};
    void *Req = nullptr;
    bool (*Run)(void *) = nullptr;
  };

private:
  enum : std::uint8_t { EmptyRec = 0, Pending = 1, Ready = 2 };

  /// Type-erased k-op request; a single strongApply publishes one with
  /// k = 1. It lives on the publisher's stack, and the publisher spins
  /// until Ready, so the combiner's accesses never dangle. Next is the
  /// resume cursor: ops [Begin, Next) are applied, run() continues from
  /// Next. Only the thread holding CombinerBusy (or, between visits,
  /// nobody) touches the plain fields — the State handshake separates
  /// them from the publisher's reads.
  template <typename WeakAtFn, typename StopFn, typename R>
  struct BatchRequest {
    WeakAtFn &At;
    StopFn &Stop;
    R *Out;
    std::size_t Next;
    std::size_t End;

    static bool run(void *P) {
      auto *B = static_cast<BatchRequest *>(P);
      while (B->Next < B->End) {
        auto Res = B->At(B->Next);
        if (!Res)
          return false; // straggler interference: resume here next visit
        B->Out[B->Next] = *Res;
        ++B->Next;
        if (B->Stop(B->Out[B->Next - 1]))
          break; // terminal answer: the batch's remainder is rejected
      }
      return true;
    }
  };

  /// Publishes \p Req in this thread's record, then waits — combining
  /// whenever CombinerBusy is free — until a combiner has served it.
  template <typename RequestT>
  void publishAndWait(std::uint32_t Tid, RequestT &Req) {
    Record &Mine = Records[Tid];
    Mine.Req = &Req;
    Mine.Run = &RequestT::run;
    Mine.State.write(Pending, std::memory_order_release);

    SpinWait Waiter;
    while (Mine.State.read(std::memory_order_acquire) == Pending) {
      if (CombinerBusy.value().compareAndSwap(0, 1,
                                              std::memory_order_acq_rel)) {
        combine(Tid);
        CombinerBusy.value().write(0, std::memory_order_release);
        continue; // re-check State: the combiner always finishes its own.
      }
      Waiter.once();
    }
    Mine.State.write(EmptyRec, std::memory_order_release);
  }

  /// The combiner's tenure. Caller holds CombinerBusy.
  void combine(std::uint32_t Tid) {
    Contention.value().write(1, std::memory_order_release);
    std::uint64_t Served = 0;
    for (std::uint32_t Round = 0; Round < Rounds; ++Round)
      for (std::uint32_t I = 0; I < N; ++I)
        if (Records[I].State.read(std::memory_order_acquire) == Pending)
          if (Records[I].Run(Records[I].Req)) {
            Records[I].State.write(Ready, std::memory_order_release);
            ++Served;
          }
    // The combiner must not retire with its own request unserved (its
    // publisher loop is this thread). Unbounded retry is sound for the
    // same reason as Figure 3 line 08: CONTENTION is up.
    Record &Mine = Records[Tid];
    if (Mine.State.read(std::memory_order_acquire) == Pending) {
      Manager Mgr;
      while (!Mine.Run(Mine.Req))
        Mgr.onAbort();
      Mgr.onSuccess();
      Mine.State.write(Ready, std::memory_order_release);
      ++Served;
    }
    Contention.value().write(0, std::memory_order_release);
    Batches.fetch_add(1, std::memory_order_relaxed);
    CombinedOps.fetch_add(Served, std::memory_order_relaxed);
    Sink.onEvent(Tid, obs::Event::CombinerBatch);
    Sink.onEvent(Tid, obs::Event::CombinedOp, Served);
  }

  const std::uint32_t N;
  const std::uint32_t Rounds;
  ContentionRegister<Policy> Contention;
  CacheLinePadded<AtomicRegister<std::uint8_t, Policy>> CombinerBusy;
  std::unique_ptr<Record[]> Records;
  std::atomic<std::uint64_t> Batches{0};
  std::atomic<std::uint64_t> CombinedOps{0};
  [[no_unique_address]] mutable obs::MetricSink Sink{N};
};

} // namespace csobj

#endif // CSOBJ_PERF_COMBININGSLOWPATH_H
