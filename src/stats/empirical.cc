#include "stats/empirical.h"

#include <algorithm>
#include <cmath>

namespace smokescreen {
namespace stats {

using util::Result;
using util::Status;

Result<EmpiricalDistribution> EmpiricalDistribution::Create(std::span<const double> values) {
  if (values.empty()) {
    return Status::InvalidArgument("cannot build empirical distribution from empty sample");
  }
  EmpiricalDistribution dist;
  std::vector<double> scratch;
  dist.Extend(values, scratch);
  return dist;
}

void EmpiricalDistribution::Extend(std::span<const double> values, std::vector<double>& scratch) {
  if (values.empty()) return;
  scratch.assign(values.begin(), values.end());
  std::sort(scratch.begin(), scratch.end());

  // Count the new runs first so the merged vectors are reserved exactly
  // once: distinct counts are usually far below the sample size
  // (integer-valued detector outputs).
  size_t new_runs = 0;
  for (size_t i = 0; i < scratch.size(); ++new_runs) {
    size_t j = i;
    while (j < scratch.size() && scratch[j] == scratch[i]) ++j;
    i = j;
  }
  std::vector<double> distinct;
  std::vector<int64_t> counts;
  distinct.reserve(distinct_.size() + new_runs);
  counts.reserve(distinct_.size() + new_runs);

  // Both sides are sorted, so one forward pass merges them; a run whose
  // value is already distinct adds to that value's count.
  size_t old = 0;
  for (size_t i = 0; i < scratch.size();) {
    size_t j = i;
    while (j < scratch.size() && scratch[j] == scratch[i]) ++j;
    for (; old < distinct_.size() && distinct_[old] < scratch[i]; ++old) {
      distinct.push_back(distinct_[old]);
      counts.push_back(counts_[old]);
    }
    int64_t count = static_cast<int64_t>(j - i);
    if (old < distinct_.size() && distinct_[old] == scratch[i]) count += counts_[old++];
    distinct.push_back(scratch[i]);
    counts.push_back(count);
    i = j;
  }
  distinct.insert(distinct.end(), distinct_.begin() + static_cast<std::ptrdiff_t>(old),
                  distinct_.end());
  counts.insert(counts.end(), counts_.begin() + static_cast<std::ptrdiff_t>(old),
                counts_.end());
  distinct_.swap(distinct);
  counts_.swap(counts);
  total_count_ += static_cast<int64_t>(values.size());

  cum_freq_.resize(distinct_.size());
  int64_t running = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    running += counts_[i];
    cum_freq_[i] = static_cast<double>(running) / static_cast<double>(total_count_);
  }
}

double EmpiricalDistribution::Frequency(int64_t i) const {
  return static_cast<double>(counts_[static_cast<size_t>(i)]) /
         static_cast<double>(total_count_);
}

double EmpiricalDistribution::CumulativeFrequency(int64_t i) const {
  return cum_freq_[static_cast<size_t>(i)];
}

int64_t EmpiricalDistribution::QuantileIndex(double r) const {
  r = std::min(std::max(r, 1.0 / static_cast<double>(2 * total_count_)), 1.0);
  // Smallest index with cumulative frequency >= r. Guard against floating
  // error by nudging r down a hair relative to exact multiples of 1/n.
  auto it = std::lower_bound(cum_freq_.begin(), cum_freq_.end(), r - 1e-12);
  if (it == cum_freq_.end()) return static_cast<int64_t>(cum_freq_.size()) - 1;
  return static_cast<int64_t>(it - cum_freq_.begin());
}

int64_t EmpiricalDistribution::IndexOfValueFloor(double value) const {
  auto it = std::upper_bound(distinct_.begin(), distinct_.end(), value);
  if (it == distinct_.begin()) return -1;
  return static_cast<int64_t>(it - distinct_.begin()) - 1;
}

double EmpiricalDistribution::RankFraction(double value) const {
  int64_t idx = IndexOfValueFloor(value);
  if (idx < 0) return 0.0;
  return CumulativeFrequency(idx);
}

double EmpiricalDistribution::FrequencyOfValue(double value) const {
  auto it = std::lower_bound(distinct_.begin(), distinct_.end(), value);
  if (it == distinct_.end() || *it != value) return 0.0;
  return Frequency(static_cast<int64_t>(it - distinct_.begin()));
}

Result<double> EmpiricalDistribution::MinFrequencyInRange(int64_t lo, int64_t hi) const {
  if (lo > hi) return Status::InvalidArgument("empty frequency range");
  if (lo < 0 || hi >= num_distinct()) return Status::OutOfRange("frequency range out of bounds");
  double best = Frequency(lo);
  for (int64_t i = lo + 1; i <= hi; ++i) best = std::min(best, Frequency(i));
  return best;
}

Result<double> EmpiricalDistribution::MaxFrequencyInRange(int64_t lo, int64_t hi) const {
  if (lo > hi) return Status::InvalidArgument("empty frequency range");
  if (lo < 0 || hi >= num_distinct()) return Status::OutOfRange("frequency range out of bounds");
  double best = Frequency(lo);
  for (int64_t i = lo + 1; i <= hi; ++i) best = std::max(best, Frequency(i));
  return best;
}

}  // namespace stats
}  // namespace smokescreen
