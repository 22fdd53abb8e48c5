// Descriptive statistics over vectors of model outputs.

#ifndef SMOKESCREEN_STATS_DESCRIPTIVE_H_
#define SMOKESCREEN_STATS_DESCRIPTIVE_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/status.h"

namespace smokescreen {
namespace stats {

/// Single-pass summary of a sample.
struct Summary {
  int64_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  // Sample (unbiased, n-1) variance; 0 when count < 2.
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double range = 0.0;  // max - min; this is Algorithm 1's sample range R.
  double sum = 0.0;
};

/// Computes a Summary: folds `values` into one WelfordAccumulator, then
/// snapshots it. Error when `values` is empty.
util::Result<Summary> Summarize(std::span<const double> values);
/// Convenience overload so call sites can keep passing braced lists
/// (`Summarize({1.0, 2.0})`), which cannot bind to a span directly.
inline util::Result<Summary> Summarize(std::initializer_list<double> values) {
  return Summarize(std::span<const double>(values.begin(), values.size()));
}

/// Streaming mean/variance accumulation (Welford). Used where outputs arrive
/// incrementally, e.g. the reuse strategy that grows a sample in place.
/// Folding a sample chunk by chunk gives the same doubles as folding it at
/// once: the same values meet the same operations in the same order, so
/// ToSummary() after any chunking is bit-identical to Summarize(sample).
class WelfordAccumulator {
 public:
  void Add(double value);
  /// Adds every value of `values`, in order.
  void Extend(std::span<const double> values);

  int64_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Unbiased sample variance; 0 when fewer than two values seen.
  double variance() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double range() const { return count_ > 0 ? max_ - min_ : 0.0; }
  /// Summary of every value added so far (all fields 0 when none were).
  Summary ToSummary() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace stats
}  // namespace smokescreen

#endif  // SMOKESCREEN_STATS_DESCRIPTIVE_H_
