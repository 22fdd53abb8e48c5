#include "core/var_estimator.h"

#include <algorithm>
#include <cmath>

#include "core/avg_estimator.h"
#include "stats/concentration.h"

namespace smokescreen {
namespace core {

using util::Result;
using util::Status;

std::pair<double, double> SmokescreenVarianceEstimator::VarianceBounds(double mean_lb,
                                                                       double mean_ub,
                                                                       double mean_sq_lb,
                                                                       double mean_sq_ub) {
  // Range of m^2 over m in [mean_lb, mean_ub].
  double sq_max = std::max(mean_lb * mean_lb, mean_ub * mean_ub);
  double sq_min;
  if (mean_lb <= 0.0 && mean_ub >= 0.0) {
    sq_min = 0.0;  // The interval straddles zero.
  } else {
    sq_min = std::min(mean_lb * mean_lb, mean_ub * mean_ub);
  }
  double var_lb = std::max(0.0, mean_sq_lb - sq_max);
  double var_ub = std::max(0.0, mean_sq_ub - sq_min);
  return {var_lb, var_ub};
}

Result<Estimate> SmokescreenVarianceEstimator::EstimateVariance(std::span<const double> sample,
                                                                int64_t population,
                                                                double delta) const {
  std::vector<double> squares;
  squares.reserve(sample.size());
  for (double v : sample) squares.push_back(v * v);

  SMK_ASSIGN_OR_RETURN(stats::Summary s_x, stats::Summarize(sample));
  SMK_ASSIGN_OR_RETURN(stats::Summary s_x2, stats::Summarize(squares));
  return EstimateFromSummaries(s_x, s_x2, population, delta);
}

Result<Estimate> SmokescreenVarianceEstimator::EstimateFromSummaries(const stats::Summary& values,
                                                                     const stats::Summary& squares,
                                                                     int64_t population,
                                                                     double delta) {
  if (values.count == 0) return Status::InvalidArgument("empty sample");
  if (squares.count != values.count) {
    return Status::InvalidArgument("summaries of the values and their squares differ in size");
  }
  if (population < values.count) return Status::InvalidArgument("population smaller than sample");
  if (delta <= 0.0 || delta >= 1.0) return Status::InvalidArgument("delta must be in (0,1)");

  // Split the failure budget across the two simultaneous intervals.
  double half_delta = delta / 2.0;
  double radius_x =
      stats::HoeffdingSerflingRadius(values.range, values.count, population, half_delta);
  double radius_x2 =
      stats::HoeffdingSerflingRadius(squares.range, squares.count, population, half_delta);

  auto [var_lb, var_ub] = VarianceBounds(values.mean - radius_x, values.mean + radius_x,
                                         squares.mean - radius_x2, squares.mean + radius_x2);
  return SmokescreenMeanEstimator::FromBounds(var_lb, var_ub, /*sign=*/1.0);
}

}  // namespace core
}  // namespace smokescreen
