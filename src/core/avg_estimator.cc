#include "core/avg_estimator.h"

#include <cmath>

#include "stats/concentration.h"

namespace smokescreen {
namespace core {

using util::Result;
using util::Status;

Result<std::pair<double, double>> SmokescreenMeanEstimator::ConfidenceBounds(
    std::span<const double> sample, int64_t population, double delta) {
  SMK_ASSIGN_OR_RETURN(stats::Summary summary, stats::Summarize(sample));
  return ConfidenceBounds(summary, population, delta);
}

Result<std::pair<double, double>> SmokescreenMeanEstimator::ConfidenceBounds(
    const stats::Summary& summary, int64_t population, double delta) {
  if (summary.count == 0) return Status::InvalidArgument("empty sample");
  if (population < summary.count) {
    return Status::InvalidArgument("population smaller than sample");
  }
  if (delta <= 0.0 || delta >= 1.0) return Status::InvalidArgument("delta must be in (0,1)");

  double radius = stats::HoeffdingSerflingRadius(summary.range, summary.count, population, delta);
  double abs_mean = std::abs(summary.mean);
  double ub = abs_mean + radius;
  double lb = std::max(0.0, abs_mean - radius);
  return std::make_pair(lb, ub);
}

Estimate SmokescreenMeanEstimator::FromBounds(double lb, double ub, double sign) {
  Estimate est;
  if (ub <= 0.0) {
    // Degenerate all-zero sample with zero radius: the interval is {0}.
    est.y_approx = 0.0;
    est.err_b = 0.0;
    return est;
  }
  if (lb <= 0.0) {
    // Theorem 3.1's LB == 0 case: Y_approx = 0, err_b = 1.
    est.y_approx = 0.0;
    est.err_b = 1.0;
    return est;
  }
  est.y_approx = sign * 2.0 * ub * lb / (ub + lb);
  est.err_b = (ub - lb) / (ub + lb);
  return est;
}

Result<Estimate> SmokescreenMeanEstimator::EstimateMean(std::span<const double> sample,
                                                        int64_t population, double delta) const {
  SMK_ASSIGN_OR_RETURN(stats::Summary summary, stats::Summarize(sample));
  return EstimateFromSummary(summary, population, delta);
}

Result<Estimate> SmokescreenMeanEstimator::EstimateFromSummary(const stats::Summary& summary,
                                                               int64_t population,
                                                               double delta) {
  SMK_ASSIGN_OR_RETURN(auto bounds, ConfidenceBounds(summary, population, delta));
  double sign = summary.mean < 0.0 ? -1.0 : 1.0;
  return FromBounds(bounds.first, bounds.second, sign);
}

}  // namespace core
}  // namespace smokescreen
