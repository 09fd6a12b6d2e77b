//===- perfbench/src/Stats.h - Order statistics and metric records -------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Percentile of whole-tick samples, read inside the tick:
/// the nearest-rank value x is taken to cover [x - 0.5, x + 0.5)
/// uniformly, and the result sits at the quantile's share of the samples
/// equal to x. Unlike the bare nearest rank, two runs agree exactly only
/// if their sample counts do. 0 for an empty set. Sorts \p V.
template <typename T> double percentile(std::vector<T> &V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const double Target = Q * static_cast<double>(V.size());
  std::size_t Rank = static_cast<std::size_t>(std::ceil(Target));
  Rank = std::clamp<std::size_t>(Rank, 1, V.size());
  const T X = V[Rank - 1];
  const auto Lo = std::lower_bound(V.begin(), V.end(), X) - V.begin();
  const auto Hi = std::upper_bound(V.begin(), V.end(), X) - V.begin();
  const double Frac = (Target - static_cast<double>(Lo)) /
                      static_cast<double>(Hi - Lo);
  return static_cast<double>(X) - 0.5 + std::clamp(Frac, 0.0, 1.0);
}

inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Named metrics with units, in insertion order, printed as the JSON
/// object `{"name": {"value": v, "unit": "u"}, ...}` with every digit.
class Metrics {
public:
  void add(std::string Name, double Value, std::string Unit) {
    Items.push_back({std::move(Name), Value, std::move(Unit)});
  }

  std::string json() const {
    std::string Out = "{";
    for (std::size_t I = 0; I < Items.size(); ++I) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.17g",
                    std::isfinite(Items[I].Value) ? Items[I].Value : 0.0);
      Out += (I ? ", \"" : "\"") + Items[I].Name + "\": {\"value\": " + Buf +
             ", \"unit\": \"" + Items[I].Unit + "\"}";
    }
    return Out + "}";
  }

private:
  struct Item {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Item> Items;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
