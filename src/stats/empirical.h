// Empirical distribution over a finite set of model outputs.
//
// Provides the distinct-value view the paper's Algorithm 2 operates on:
// sorted distinct values s_1 < s_2 < ..., their multiplicities, frequencies
// F_i, cumulative frequencies, the r-th quantile
// Y = min{ s_i : sum_{j<=i} F_j >= r }, and the (cumulative-frequency) rank
// used by the paper's rank-relative error metric.

#ifndef SMOKESCREEN_STATS_EMPIRICAL_H_
#define SMOKESCREEN_STATS_EMPIRICAL_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/status.h"

namespace smokescreen {
namespace stats {

class EmpiricalDistribution {
 public:
  /// An empty distribution (total_count() == 0) to grow with Extend. Until
  /// then only total_count() and num_distinct() may be called.
  EmpiricalDistribution() = default;

  /// Builds the distribution from raw values: one Extend of an empty
  /// distribution. Error when empty.
  static util::Result<EmpiricalDistribution> Create(std::span<const double> values);
  static util::Result<EmpiricalDistribution> Create(std::initializer_list<double> values) {
    return Create(std::span<const double>(values.begin(), values.size()));
  }

  /// Adds `values` to the multiset: sorts them inside `scratch` and merges
  /// their runs into the distinct values, then recomputes the cumulative
  /// frequencies. The result depends only on the multiset (counts are
  /// integers; each cumulative frequency is an integer running count over
  /// the total), so a sample grown tail by tail gives exactly the
  /// distribution Create builds from the whole sample. `scratch` is
  /// overwritten; callers that extend in a loop reuse its capacity.
  void Extend(std::span<const double> values, std::vector<double>& scratch);

  int64_t total_count() const { return total_count_; }
  int64_t num_distinct() const { return static_cast<int64_t>(distinct_.size()); }

  /// The i-th distinct value, 0-based, ascending.
  double DistinctValue(int64_t i) const { return distinct_[static_cast<size_t>(i)]; }

  /// Multiplicity of the i-th distinct value.
  int64_t Count(int64_t i) const { return counts_[static_cast<size_t>(i)]; }

  /// Frequency F_i of the i-th distinct value (count / total).
  double Frequency(int64_t i) const;

  /// Cumulative frequency sum_{j<=i} F_j.
  double CumulativeFrequency(int64_t i) const;

  /// 0-based index of the r-th quantile's distinct value: the smallest i with
  /// CumulativeFrequency(i) >= r. r is clamped to (0, 1].
  int64_t QuantileIndex(double r) const;

  /// The r-th quantile value itself (the paper's Y definition).
  double Quantile(double r) const { return DistinctValue(QuantileIndex(r)); }

  /// 0-based index of the largest distinct value <= `value`, or -1 when
  /// `value` is below the minimum.
  int64_t IndexOfValueFloor(double value) const;

  /// Rank of `value` on the cumulative-frequency scale: sum of F_i over all
  /// distinct values <= `value`. Values below the minimum rank 0. This is the
  /// "rank(Y)/N" the paper compares in its MAX error metric.
  double RankFraction(double value) const;

  /// Frequency of exactly `value` (0 when absent).
  double FrequencyOfValue(double value) const;

  /// Minimum of F_i over i in [lo, hi] (inclusive, 0-based). Error when the
  /// range is empty or out of bounds.
  util::Result<double> MinFrequencyInRange(int64_t lo, int64_t hi) const;

  /// Maximum of F_i over i in [lo, hi] (inclusive, 0-based).
  util::Result<double> MaxFrequencyInRange(int64_t lo, int64_t hi) const;

  double min_value() const { return distinct_.front(); }
  double max_value() const { return distinct_.back(); }

 private:
  std::vector<double> distinct_;   // Sorted ascending.
  std::vector<int64_t> counts_;    // Parallel multiplicities.
  std::vector<double> cum_freq_;   // Parallel cumulative frequencies.
  int64_t total_count_ = 0;
};

}  // namespace stats
}  // namespace smokescreen

#endif  // SMOKESCREEN_STATS_EMPIRICAL_H_
