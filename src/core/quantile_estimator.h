// Smokescreen's MAX/MIN estimator (paper Algorithm 2, Theorem 3.2).
//
// MAX/MIN are approximated by extreme r-quantiles (r = 0.99 / 0.01 in the
// paper's experiments). The approximate quantile is
//   Y_approx = min{ s_i : sum_{j<=i} F_hat_j >= r },
// and the rank-relative error bound leverages the normal approximation of
// the hypergeometric distribution of sampled cumulative frequencies, with
// the finite-population variance factor (N-n)/(n(N-1)):
//   MAX: err_b = ((z * sqrt(r(1-r)) * fpc + F) / F + 1) * F / r
//   MIN: err_b = ((z * sqrt((r+F)(1-(r+F))) * fpc + F) / F + 1) * F / r
// where F = F_hat_{k_hat} (the sampled frequency of Y_approx) estimates the
// unknown F_k, min and max frequency terms, and z = phi_{delta/2}.

#ifndef SMOKESCREEN_CORE_QUANTILE_ESTIMATOR_H_
#define SMOKESCREEN_CORE_QUANTILE_ESTIMATOR_H_

#include "core/estimate.h"
#include "stats/empirical.h"

namespace smokescreen {
namespace core {

class SmokescreenQuantileEstimator : public QuantileEstimator {
 public:
  SmokescreenQuantileEstimator() : name_("Smokescreen") {}

  const std::string& name() const override { return name_; }

  /// Builds the sample's distribution and estimates from it.
  util::Result<Estimate> EstimateQuantile(std::span<const double> sample, int64_t population,
                                          double r, bool is_max, double delta) const override;

  /// The estimate from the sample's distinct-value distribution: what
  /// EstimateQuantile computes, for callers that grow the distribution with
  /// their sample instead of re-sorting it.
  static util::Result<Estimate> EstimateFromDistribution(
      const stats::EmpiricalDistribution& distribution, int64_t population, double r,
      bool is_max, double delta);

 private:
  std::string name_;
};

}  // namespace core
}  // namespace smokescreen

#endif  // SMOKESCREEN_CORE_QUANTILE_ESTIMATOR_H_
