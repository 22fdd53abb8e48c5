#include "stats/descriptive.h"

#include <cmath>

namespace smokescreen {
namespace stats {

using util::Result;
using util::Status;

Result<Summary> Summarize(std::span<const double> values) {
  if (values.empty()) return Status::InvalidArgument("cannot summarize empty sample");
  WelfordAccumulator acc;
  acc.Extend(values);
  return acc.ToSummary();
}

void WelfordAccumulator::Add(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  ++count_;
  double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

void WelfordAccumulator::Extend(std::span<const double> values) {
  for (double v : values) Add(v);
}

Summary WelfordAccumulator::ToSummary() const {
  Summary s;
  s.count = count_;
  s.mean = mean_;
  s.variance = variance();
  s.stddev = std::sqrt(s.variance);
  s.min = min_;
  s.max = max_;
  s.range = range();
  s.sum = mean_ * static_cast<double>(count_);
  return s;
}

double WelfordAccumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

}  // namespace stats
}  // namespace smokescreen
