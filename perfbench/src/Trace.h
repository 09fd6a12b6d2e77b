//===- perfbench/src/Trace.h - Benchmark-side spans and TracedLock -------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded from outside the library. A sampled operation gets a
/// root span `op.<kind>`; TracedLock, plugged into an object's Lock
/// template parameter, records the child spans `lock.acquire` and
/// `lock.hold`, linked to the root through a thread-local current-span
/// id. Spans go into preallocated per-thread buffers and are analysed
/// (and optionally written out) after the run. Unsampled operations pay
/// one thread-local load per lock call and read no clock.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The timer of sampled ops and spans: the CPU's time-stamp counter where
/// there is one. In a virtual machine it costs about half a
/// steady_clock::now() and varies less from run to run; the loop converts
/// ticks to ns against steady_clock over each timed window. The fence
/// keeps the read behind the work it closes, so a thread's stamps are
/// ordered and spans nest.
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_lfence();
  return __rdtsc();
#else
  return nowNs();
#endif
}

/// Span kinds below LockAcquire are the workload's op kinds.
enum SpanKind : std::uint8_t { LockAcquire = 14, LockHold = 15 };

/// Start and End are in ticks().
struct Span {
  std::uint64_t Start = 0;
  std::uint64_t End = 0;
  std::uint64_t Root = 0; ///< Id of the root span (the op) it belongs to.
  std::uint8_t Kind = 0;
};

/// One worker's span buffer. Never grows during a run: a full buffer
/// counts the spans it could not keep.
struct SpanBuffer {
  std::vector<Span> Spans;
  std::uint64_t Dropped = 0;

  void record(std::uint8_t Kind, std::uint64_t Root, std::uint64_t Start,
              std::uint64_t End) {
    if (Spans.size() == Spans.capacity()) {
      ++Dropped;
      return;
    }
    Spans.push_back({Start, End, Root, Kind});
  }
};

/// The calling thread's open root span (0: the current op is not sampled)
/// and the buffer its children go to.
inline thread_local std::uint64_t CurrentRoot = 0;
inline thread_local SpanBuffer *CurrentBuffer = nullptr;
inline thread_local std::uint64_t HoldStart = 0;

/// Deadlock-free lock wrapper recording acquire and hold spans of sampled
/// operations. Each object in this benchmark holds at most one lock at a
/// time per thread, so one thread-local hold start suffices.
template <typename Inner>
class TracedLock {
public:
  static constexpr const char *Name = "traced";

  explicit TracedLock(std::uint32_t NumThreads = 0) : L(NumThreads) {}

  void lock(std::uint32_t Tid = 0) {
    if (CurrentRoot == 0) {
      L.lock(Tid);
      return;
    }
    const std::uint64_t T0 = ticks();
    L.lock(Tid);
    HoldStart = ticks();
    CurrentBuffer->record(LockAcquire, CurrentRoot, T0, HoldStart);
  }

  void unlock(std::uint32_t Tid = 0) {
    if (CurrentRoot != 0)
      CurrentBuffer->record(LockHold, CurrentRoot, HoldStart, ticks());
    L.unlock(Tid);
  }

private:
  Inner L;
};

/// Per-layer figures derived from the spans of one or more runs, in ns.
struct SpanDigest {
  std::vector<std::uint64_t> AcquireNs, HoldNs, DoorwayNs, SelfNs,
      LockOpNs;
  std::uint64_t LockOps = 0;      ///< Root spans with a lock.acquire child.
  std::uint64_t Accounted = 0;    ///< ... whose children nest inside them.
  std::uint64_t Dropped = 0;
};

/// Walks one buffer. Children are recorded before their root (the root
/// closes last), so each root consumes the children buffered since the
/// previous root. A lock-path root is accounted when its children lie
/// inside it in order without overlap; then doorway + acquire + hold +
/// remaining self time sum to the root's duration.
inline void digestSpans(const SpanBuffer &B, double NsPerTick,
                        SpanDigest &D) {
  auto Ns = [NsPerTick](std::uint64_t Ticks) {
    return static_cast<std::uint64_t>(static_cast<double>(Ticks) * NsPerTick +
                                      0.5);
  };
  D.Dropped += B.Dropped;
  std::size_t First = 0;
  for (std::size_t I = 0; I < B.Spans.size(); ++I) {
    const Span &S = B.Spans[I];
    if (S.Kind == LockAcquire) {
      D.AcquireNs.push_back(Ns(S.End - S.Start));
      continue;
    }
    if (S.Kind == LockHold) {
      D.HoldNs.push_back(Ns(S.End - S.Start));
      continue;
    }
    // A root: children are B.Spans[First, I) with Root == S.Root.
    bool HasLock = false, Nested = true;
    std::uint64_t Cursor = S.Start, Covered = 0, Doorway = 0;
    for (std::size_t C = First; C < I; ++C) {
      const Span &Ch = B.Spans[C];
      if (Ch.Root != S.Root) {
        Nested = false;
        continue;
      }
      if (!HasLock && Ch.Kind == LockAcquire) {
        HasLock = true;
        Doorway = Ch.Start - S.Start;
      }
      if (Ch.Start < Cursor || Ch.End > S.End || Ch.End < Ch.Start)
        Nested = false;
      else
        Covered += Ch.End - Ch.Start;
      Cursor = Ch.End > Cursor ? Ch.End : Cursor;
    }
    First = I + 1;
    if (!HasLock)
      continue;
    ++D.LockOps;
    const std::uint64_t Dur = S.End - S.Start;
    D.LockOpNs.push_back(Ns(Dur));
    if (!Nested)
      continue;
    ++D.Accounted;
    D.DoorwayNs.push_back(Ns(Doorway));
    D.SelfNs.push_back(Ns(Dur - Covered));
  }
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
