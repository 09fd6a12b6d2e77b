//===- core/UnboundedStack.h - Unbounded Figure 1 + Figure 3 ----*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figure 1 runs on an *infinite* array STACK[0..] — the
/// bounded implementation in core/AbortableStack.h trades that for a
/// preallocated k+1-slot array and a Full answer. This file materializes
/// the infinite array instead: the slot space is a directory of
/// fixed-size chunks, installed on demand as TOP climbs and physically
/// retired — through memory/HazardDomain.h — as TOP falls, so resident
/// memory tracks the live population rather than a pre-sized worst case.
///
/// The algorithm is Figure 1 *verbatim* (same line structure, same lazy
/// help, same ABA tags); only the addressing of STACK[x] changes. The
/// chunk machinery is the memory system behind the paper's assumed
/// infinite array, and it lives entirely on the reclamation channel:
/// directory loads, hazard publication, chunk installation and
/// retirement are plain/uncounted operations (AtomicRegister::
/// readReclaim / writeReclaim and raw std::atomic), so the AccessCounter
/// oracle and the interleaving explorer see exactly the accesses Figure 1
/// performs — a successful solo weak_push/weak_pop stays at 5, and the
/// Figure-3 wrapper at 6, the bound experiment E1 audits.
///
/// Chunk protocol (reader side): read Dir[pos], publish the pointer as a
/// hazard, re-read Dir[pos]; if unchanged the chunk cannot be recycled
/// until the hazard clears, so its registers are safe. If changed (or
/// null), the caller's TOP view is provably stale — the trim that
/// detached the chunk happened after a successful pop changed TOP — so
/// the operation answers the paper's bottom (Abort), which is exactly
/// the answer its own TOP C&S would have produced.
///
/// Chunk protocol (writer side): a push whose next slot crosses into an
/// absent chunk installs one (pool acquire, re-seed, publish); a pop
/// that crosses a chunk boundary downward trims every chunk above the
/// hysteresis line (chunkOf(TOP)+1) and retires it. Install and trim
/// serialize on one uncounted spinlock, which keeps the directory free
/// of pointer ABA (a detached chunk can only be re-installed under the
/// same lock that detached it). Each installation re-seeds the chunk's
/// slot sequence numbers from a per-position counter (odd stride), so a
/// recycled chunk never resumes the sequence run of its previous
/// incarnation — a sleeping thread is fooled only across ~2^16 reuses of
/// one slot, the same envelope as the bounded stack's 16-bit tags.
///
/// Capacity: the TOP codec's index field is the envelope (65535 for
/// Compact64). Full is answered only there; below it the stack grows and
/// shrinks physically.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_UNBOUNDEDSTACK_H
#define CSOBJ_CORE_UNBOUNDEDSTACK_H

#include "core/ContentionSensitive.h"
#include "core/Results.h"
#include "locks/TasLock.h"
#include "memory/AtomicRegister.h"
#include "memory/HazardDomain.h"
#include "memory/NodePool.h"
#include "memory/TaggedValue.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

namespace csobj {

/// Unbounded abortable stack: Figure 1 over a chunked, hazard-reclaimed
/// slot space.
///
/// \tparam Config codec family fixing TOP/slot layout and the payload.
/// \tparam Policy register policy (Instrumented / Fast).
template <typename Config = Compact64,
          typename Policy = DefaultRegisterPolicy>
class UnboundedStack {
public:
  using TopC = typename Config::Top;
  using SlotC = typename Config::Slot;
  using Value = typename Config::Value;
  using RegisterPolicy = Policy;

  static constexpr Value Bottom = TopC::Bottom;
  /// Slots per chunk; a boundary crossing (install or trim) happens once
  /// per ChunkSlots same-direction operations.
  static constexpr std::uint32_t ChunkSlots = 64;
  /// The index-field envelope: the only height at which Full is answered.
  static constexpr std::uint32_t EnvelopeIndex = TopC::MaxIndex;
  static constexpr std::uint32_t DirSize =
      EnvelopeIndex / ChunkSlots + 1;
  /// Hazard slots per thread: one for the help chunk, one for the
  /// neighbour-slot chunk.
  static constexpr std::uint32_t HazardSlots = 2;

  /// One directory leaf: ChunkSlots consecutive STACK[] registers.
  struct Chunk {
    AtomicRegister<typename SlotC::Word, Policy> Slots[ChunkSlots];
  };

  /// \p NumThreads is the paper's n — it sizes the hazard domain.
  /// Construct outside counting scopes: initialisation writes TOP.
  explicit UnboundedStack(std::uint32_t NumThreads)
      : Domain(NumThreads, HazardSlots) {
    assert(NumThreads >= 1 && "need at least one process");
    for (std::uint32_t P = 0; P < DirSize; ++P) {
      Dir[P].store(nullptr, std::memory_order_relaxed);
      SeqSeed[P] = 0;
    }
    // Chunk 0 (never trimmed: the hysteresis line is >= 1): Figure 1's
    // STACK[0] <- <bottom, -1>, STACK[x] <- <bottom, 0>.
    Chunk *C0 = Pool.acquire();
    for (std::uint32_t X = 0; X < ChunkSlots; ++X)
      C0->Slots[X].writeReclaim(SlotC::pack({Bottom, 0}));
    C0->Slots[0].writeReclaim(SlotC::pack({Bottom, TopC::seqAdd(0, -1)}));
    SeqSeed[0] = SeedStride;
    Dir[0].store(C0, std::memory_order_seq_cst);
    Top.write(TopC::pack({/*Index=*/0, /*Value=*/Bottom, /*Seq=*/0}));
  }

  /// weak_push(v), Figure 1 lines 01-07 on the chunked array. Abort
  /// additionally covers "my TOP view's chunk was already reclaimed" —
  /// a case only a stale (interfered-with) operation can hit.
  PushResult weakPush(std::uint32_t Tid, Value V) {
    assert(V != Bottom && "cannot push the reserved bottom value");
    assert((V & static_cast<Value>(TopC::Bottom)) == V &&
           "value exceeds the codec's value field");
    const TopWord Observed = Top.read(std::memory_order_acquire); // line 01
    const TopFields<Value> Cur = TopC::unpack(Observed);
    HazardGuard HelpGuard(Domain, Tid, 0);
    Chunk *HelpC = pin(chunkOf(Cur.Index), HelpGuard);
    if (!HelpC)
      return PushResult::Abort;
    help(*HelpC, Cur);                                          // line 02
    if (Cur.Index == EnvelopeIndex)                             // line 03
      return PushResult::Full;
    HazardGuard NextGuard(Domain, Tid, 1);
    Chunk *NextC = pinOrInstall(chunkOf(Cur.Index + 1), NextGuard);
    const SlotFields<Value> Next = SlotC::unpack(
        slotIn(*NextC, Cur.Index + 1).read(std::memory_order_acquire));
                                                                // line 04
    const TopWord NewTop = TopC::pack(
        {Cur.Index + 1, V, TopC::seqAdd(Next.Seq, +1)});        // line 05
    if (Top.compareAndSwap(Observed, NewTop,
                           std::memory_order_acq_rel))          // line 06
      return PushResult::Done;
    return PushResult::Abort;                                   // line 07
  }

  /// weak_pop(), Figure 1 lines 08-14 on the chunked array. A pop that
  /// crosses a chunk boundary downward trims the orphaned chunks above.
  PopResult<Value> weakPop(std::uint32_t Tid) {
    const TopWord Observed = Top.read(std::memory_order_acquire); // line 08
    const TopFields<Value> Cur = TopC::unpack(Observed);
    HazardGuard HelpGuard(Domain, Tid, 0);
    Chunk *HelpC = pin(chunkOf(Cur.Index), HelpGuard);
    if (!HelpC)
      return PopResult<Value>::abort();
    help(*HelpC, Cur);                                          // line 09
    if (Cur.Index == 0)                                         // line 10
      return PopResult<Value>::empty();
    HazardGuard BelowGuard(Domain, Tid, 1);
    Chunk *BelowC = pin(chunkOf(Cur.Index - 1), BelowGuard);
    if (!BelowC)
      return PopResult<Value>::abort();
    const SlotFields<Value> Below = SlotC::unpack(
        slotIn(*BelowC, Cur.Index - 1).read(std::memory_order_acquire));
                                                                // line 11
    const TopWord NewTop = TopC::pack(
        {Cur.Index - 1, Below.Value, TopC::seqAdd(Below.Seq, +1)});
                                                                // line 12
    if (Top.compareAndSwap(Observed, NewTop,
                           std::memory_order_acq_rel)) {        // line 13
      if (chunkOf(Cur.Index) != chunkOf(Cur.Index - 1))
        trim(Tid); // uncounted: reclamation channel
      return PopResult<Value>::value(Cur.Value);
    }
    return PopResult<Value>::abort();                           // line 14
  }

  /// The envelope (the largest population the TOP codec can express).
  std::uint32_t capacity() const { return EnvelopeIndex; }

  std::uint32_t numThreads() const { return Domain.numThreads(); }

  /// One instrumented acquire read of TOP, decoded (acceleration-layer
  /// witness, same contract as the bounded stack).
  TopFields<Value> readTop() const { return TopC::unpack(readTopWord()); }
  typename TopC::Word readTopWord() const {
    return Top.read(std::memory_order_acquire);
  }

  /// Quiescent-only population (test/debug aid, uninstrumented).
  std::uint32_t sizeForTesting() const {
    return TopC::unpack(Top.peekForTesting()).Index;
  }
  TopFields<Value> topForTesting() const {
    return TopC::unpack(Top.peekForTesting());
  }

  /// Chunks currently installed in the directory (test/bench oracle).
  std::uint32_t installedChunksForTesting() const {
    std::uint32_t Count = 0;
    for (std::uint32_t P = 0; P < DirSize; ++P)
      if (Dir[P].load(std::memory_order_seq_cst))
        ++Count;
    return Count;
  }

  /// The reclamation domain (bench/test oracle: backlog, high water).
  HazardDomain &domain() { return Domain; }
  const HazardDomain &domain() const { return Domain; }

  /// Chunks ever allocated by the backing pool (test/bench oracle).
  std::size_t allocatedChunksForTesting() const {
    return Pool.allocatedCount();
  }

  /// Heap owned by the stack: every chunk ever allocated, the hazard
  /// domain, and the retire bookkeeping. This is the honest resident
  /// footprint behind the bytes_per_element bench column.
  std::size_t heapBytes() const {
    return Pool.heapBytes() + Domain.heapBytes();
  }

private:
  using TopWord = typename TopC::Word;
  using SlotWord = typename SlotC::Word;

  /// Seed stride between incarnations of one directory position: odd
  /// (coprime to the 2^SeqBits sequence space), so successive
  /// incarnations start their sequence runs at distinct offsets.
  static constexpr std::uint32_t SeedStride = 257;

  static constexpr std::uint32_t chunkOf(std::uint32_t Index) {
    return Index / ChunkSlots;
  }
  static AtomicRegister<SlotWord, Policy> &slotIn(Chunk &C,
                                                  std::uint32_t Index) {
    return C.Slots[Index % ChunkSlots];
  }

  /// procedure help (Figure 1 lines 15-16), addressed through a pinned
  /// chunk.
  void help(Chunk &C, const TopFields<Value> &T) {
    AtomicRegister<SlotWord, Policy> &S = slotIn(C, T.Index);
    const SlotFields<Value> Cur =
        SlotC::unpack(S.read(std::memory_order_acquire));       // line 15
    S.compareAndSwap(SlotC::pack({Cur.Value, TopC::seqAdd(T.Seq, -1)}),
                     SlotC::pack({T.Value, T.Seq}),
                     std::memory_order_acq_rel);                // line 16
  }

  /// Hazard handshake: read Dir[Pos], publish, re-validate. Returns the
  /// pinned chunk, or nullptr when the position is (now) empty — proof
  /// the caller's TOP view is stale.
  Chunk *pin(std::uint32_t Pos, HazardGuard &Guard) {
    Chunk *C = Dir[Pos].load(std::memory_order_seq_cst);
    while (C) {
      Guard.protect(C);
      Chunk *Again = Dir[Pos].load(std::memory_order_seq_cst);
      if (Again == C)
        return C;
      C = Again;
    }
    return nullptr;
  }

  /// pin that installs an absent chunk first (the push growth path).
  Chunk *pinOrInstall(std::uint32_t Pos, HazardGuard &Guard) {
    while (true) {
      if (Chunk *C = pin(Pos, Guard))
        return C;
      installAt(Pos);
    }
  }

  /// Installs a freshly seeded chunk at \p Pos if none is present.
  /// Serialized with trim() so the directory never sees pointer ABA.
  void installAt(std::uint32_t Pos) {
    SpinGuard G(DirLock);
    if (Dir[Pos].load(std::memory_order_seq_cst))
      return;
    Chunk *C = Pool.acquire();
    const std::uint32_t Seed = SeqSeed[Pos] & TopC::SeqMask;
    SeqSeed[Pos] += SeedStride;
    for (std::uint32_t X = 0; X < ChunkSlots; ++X)
      C->Slots[X].writeReclaim(SlotC::pack({Bottom, Seed}));
    Dir[Pos].store(C, std::memory_order_seq_cst);
  }

  /// Detaches and retires every chunk above the hysteresis line
  /// (chunkOf(TOP)+1). Called after a boundary-crossing pop; reads TOP
  /// through the reclamation channel, so the whole trim is invisible to
  /// the oracles.
  void trim(std::uint32_t Tid) {
    SpinGuard G(DirLock);
    const std::uint32_t TopIdx =
        TopC::unpack(Top.readReclaim()).Index;
    for (std::uint32_t Pos = chunkOf(TopIdx) + 2; Pos < DirSize; ++Pos) {
      Chunk *C = Dir[Pos].load(std::memory_order_seq_cst);
      if (!C)
        continue;
      Dir[Pos].store(nullptr, std::memory_order_seq_cst);
      Domain.retire(Tid, C, NodePool<Chunk>::recycle, &Pool);
    }
  }

  struct SpinGuard {
    explicit SpinGuard(std::atomic_flag &F) : F(F) {
      while (F.test_and_set(std::memory_order_acquire))
        ;
    }
    ~SpinGuard() { F.clear(std::memory_order_release); }
    std::atomic_flag &F;
  };

  AtomicRegister<TopWord, Policy> Top;
  HazardDomain Domain;
  NodePool<Chunk> Pool;
  std::atomic<Chunk *> Dir[DirSize];
  /// Per-position incarnation seed; guarded by DirLock.
  std::uint32_t SeqSeed[DirSize];
  std::atomic_flag DirLock = ATOMIC_FLAG_INIT;
};

/// Figure 3 over the unbounded Figure 1: starvation-free contention-
/// sensitive stack whose resident memory tracks the live population. A
/// contention-free strong operation performs exactly six shared-memory
/// accesses (one CONTENTION read + the five of the weak op), the same
/// bound as the bounded ContentionSensitiveStack.
template <typename Config = Compact64, typename Lock = TasLock,
          ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy,
          typename SkeletonT = ContentionSensitive<Lock, Manager, Policy>>
class ContentionSensitiveUnboundedStack {
public:
  using Value = typename Config::Value;
  using RegisterPolicy = Policy;
  static constexpr Value Bottom = UnboundedStack<Config, Policy>::Bottom;

  explicit ContentionSensitiveUnboundedStack(std::uint32_t NumThreads)
      : Weak(NumThreads), Strong(NumThreads) {}

  /// strong_push(v): Done or Full (envelope only), never Abort.
  PushResult push(std::uint32_t Tid, Value V) {
    return Strong.strongApply(
        Tid, bottomIfAbort([this, Tid, V] { return Weak.weakPush(Tid, V); }));
  }

  /// strong_pop(): a value or Empty, never Abort.
  PopResult<Value> pop(std::uint32_t Tid) {
    return Strong.strongApply(
        Tid, bottomIfAbort([this, Tid] { return Weak.weakPop(Tid); }));
  }

  std::uint32_t capacity() const { return Weak.capacity(); }
  std::uint32_t numThreads() const { return Strong.numThreads(); }
  std::uint32_t sizeForTesting() const { return Weak.sizeForTesting(); }

  UnboundedStack<Config, Policy> &unbounded() { return Weak; }
  SkeletonT &skeleton() { return Strong; }

  obs::PathSnapshot pathSnapshot() const { return Strong.pathSnapshot(); }

  std::size_t footprintBytes() const {
    return sizeof(*this) + Strong.heapBytes() + Weak.heapBytes();
  }

  obs::Path lastPath(std::uint32_t Tid) const {
    return Strong.metrics().lastPath(Tid);
  }

private:
  UnboundedStack<Config, Policy> Weak;
  SkeletonT Strong;
};

} // namespace csobj

#endif // CSOBJ_CORE_UNBOUNDEDSTACK_H
