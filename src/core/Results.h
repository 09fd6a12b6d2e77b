//===- core/Results.h - Operation result types ------------------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Result types shared by all concurrent objects in the library. The
/// paper's operations are *total*: they never block the caller; instead
/// they return distinguished values (done / full / empty) and, for
/// abortable objects, the bottom value when aborting under contention.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_RESULTS_H
#define CSOBJ_CORE_RESULTS_H

#include <cassert>

namespace csobj {

/// Result of a push / enqueue style operation.
enum class PushResult {
  Done, ///< The value was added.
  Full, ///< The object is at capacity (a total, non-aborted answer).
  Abort ///< The paper's bottom: concurrency detected, no effect took place.
};

/// Result of a pop / dequeue style operation: either a value, or one of
/// the distinguished non-value answers.
template <typename ValueT>
class PopResult {
public:
  enum class Kind {
    Value, ///< A value was removed and is carried in the result.
    Empty, ///< The object was empty (a total, non-aborted answer).
    Abort  ///< The paper's bottom: concurrency detected, no effect.
  };

  static PopResult value(ValueT V) { return PopResult(Kind::Value, V); }
  static PopResult empty() { return PopResult(Kind::Empty, ValueT{}); }
  static PopResult abort() { return PopResult(Kind::Abort, ValueT{}); }

  /// Default-constructs as Empty, so result buffers (the batch wrappers'
  /// scratch arrays) need no explicit fill.
  PopResult() : PopResult(Kind::Empty, ValueT{}) {}

  Kind kind() const { return K; }
  bool isValue() const { return K == Kind::Value; }
  bool isEmpty() const { return K == Kind::Empty; }
  bool isAbort() const { return K == Kind::Abort; }

  /// The removed value. Only meaningful when isValue().
  ValueT value() const {
    assert(K == Kind::Value && "no value carried by this result");
    return V;
  }

  bool operator==(const PopResult &) const = default;

private:
  PopResult(Kind K, ValueT V) : K(K), V(V) {}

  Kind K;
  ValueT V;
};

/// Whether a weak attempt answered the paper's bottom.
inline bool isAbort(PushResult R) { return R == PushResult::Abort; }
template <typename V> bool isAbort(const PopResult<V> &R) {
  return R.isAbort();
}

} // namespace csobj

#endif // CSOBJ_CORE_RESULTS_H
