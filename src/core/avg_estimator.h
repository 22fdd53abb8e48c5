// Smokescreen's AVG estimator (paper Algorithm 1, Theorem 3.1).
//
// Improvements over the empirical Bernstein stopping algorithm it adapts:
//  * the confidence interval is built only for the actual sample size n (no
//    union bound over all stopping times), and
//  * the radius comes from the Hoeffding–Serfling inequality for sampling
//    without replacement, which is tighter than the empirical Bernstein
//    bound at small sample sizes.
//
// Given the interval (LB, UB) for |mu|:
//   Y_approx = sgn(x_bar) * 2*UB*LB / (UB + LB)   (harmonic midpoint)
//   err_b    = (UB - LB) / (UB + LB)
// which satisfies |Y_approx - mu| / |mu| <= err_b w.p. >= 1 - delta.

#ifndef SMOKESCREEN_CORE_AVG_ESTIMATOR_H_
#define SMOKESCREEN_CORE_AVG_ESTIMATOR_H_

#include "core/estimate.h"
#include "stats/descriptive.h"

namespace smokescreen {
namespace core {

class SmokescreenMeanEstimator : public MeanEstimator {
 public:
  SmokescreenMeanEstimator() : name_("Smokescreen") {}

  const std::string& name() const override { return name_; }

  /// Summarizes the sample once and estimates from the summary.
  util::Result<Estimate> EstimateMean(std::span<const double> sample, int64_t population,
                                      double delta) const override;

  /// The estimate from a summary of the sample (count, mean, range): what
  /// EstimateMean computes, for callers that keep the summary of a growing
  /// sample instead of re-reading it.
  static util::Result<Estimate> EstimateFromSummary(const stats::Summary& summary,
                                                    int64_t population, double delta);

  /// Exposed interval construction for tests and for the repair algebra:
  /// returns {LB, UB} for |mu| given the sample, or given its summary.
  static util::Result<std::pair<double, double>> ConfidenceBounds(
      std::span<const double> sample, int64_t population, double delta);
  static util::Result<std::pair<double, double>> ConfidenceBounds(
      const stats::Summary& summary, int64_t population, double delta);

  /// The harmonic-midpoint mapping from an interval to (Y_approx, err_b);
  /// shared with the EBGS baseline, which uses the same output construction
  /// with a different interval.
  static Estimate FromBounds(double lb, double ub, double sign);

 private:
  std::string name_;
};

}  // namespace core
}  // namespace smokescreen

#endif  // SMOKESCREEN_CORE_AVG_ESTIMATOR_H_
