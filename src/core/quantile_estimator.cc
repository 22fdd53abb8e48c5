#include "core/quantile_estimator.h"

#include <algorithm>
#include <cmath>

#include "stats/hypergeometric.h"
#include "stats/normal.h"

namespace smokescreen {
namespace core {

using util::Result;
using util::Status;

Result<Estimate> SmokescreenQuantileEstimator::EstimateQuantile(std::span<const double> sample,
                                                                int64_t population, double r,
                                                                bool is_max,
                                                                double delta) const {
  SMK_ASSIGN_OR_RETURN(stats::EmpiricalDistribution dist,
                       stats::EmpiricalDistribution::Create(sample));
  return EstimateFromDistribution(dist, population, r, is_max, delta);
}

Result<Estimate> SmokescreenQuantileEstimator::EstimateFromDistribution(
    const stats::EmpiricalDistribution& dist, int64_t population, double r, bool is_max,
    double delta) {
  if (dist.total_count() == 0) return Status::InvalidArgument("empty sample");
  if (population < dist.total_count()) {
    return Status::InvalidArgument("population smaller than sample");
  }
  if (r <= 0.0 || r >= 1.0) return Status::InvalidArgument("quantile r must be in (0,1)");
  if (delta <= 0.0 || delta >= 1.0) return Status::InvalidArgument("delta must be in (0,1)");

  int64_t k_hat = dist.QuantileIndex(r);
  Estimate est;
  est.y_approx = dist.DistinctValue(k_hat);
  double f_hat = dist.Frequency(k_hat);  // Estimates F_k and the min/max frequency terms.

  double z = stats::ZScoreUpperTail(delta / 2.0);
  double fpc = stats::FinitePopulationFactor(population, dist.total_count());

  double variance_freq = is_max ? r * (1.0 - r)
                                : std::max(0.0, (r + f_hat) * (1.0 - (r + f_hat)));
  double deviation = z * std::sqrt(variance_freq) * fpc;
  est.err_b = ((deviation + f_hat) / f_hat + 1.0) * f_hat / r;
  return est;
}

}  // namespace core
}  // namespace smokescreen
