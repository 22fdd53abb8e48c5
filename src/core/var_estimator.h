// VAR estimator — the paper's §7 names VAR as the natural next aggregate;
// this implements it as an extension using the same machinery as
// Algorithm 1.
//
// Var(X) = E[X^2] - E[X]^2. Two Hoeffding–Serfling intervals are built from
// the same without-replacement sample — one for the mean of X (budget
// delta/2) and one for the mean of X^2 (budget delta/2) — and combined by
// interval arithmetic into [VarLB, VarUB], which is then mapped through the
// harmonic-midpoint construction of Theorem 3.1:
//   Y_approx = 2*VarUB*VarLB / (VarUB + VarLB),
//   err_b    = (VarUB - VarLB) / (VarUB + VarLB).
// By the union bound both intervals hold simultaneously w.p. >= 1 - delta,
// so err_b bounds the relative error of the variance estimate.

#ifndef SMOKESCREEN_CORE_VAR_ESTIMATOR_H_
#define SMOKESCREEN_CORE_VAR_ESTIMATOR_H_

#include "core/estimate.h"
#include "stats/descriptive.h"

namespace smokescreen {
namespace core {

class SmokescreenVarianceEstimator {
 public:
  /// Estimates the population variance of the N frame outputs from a sample
  /// drawn without replacement. Same contract as MeanEstimator::EstimateMean.
  util::Result<Estimate> EstimateVariance(std::span<const double> sample, int64_t population,
                                          double delta) const;

  /// The estimate from summaries of the sample and of its squares: what
  /// EstimateVariance computes, for callers that keep both summaries of a
  /// growing sample instead of re-reading it.
  static util::Result<Estimate> EstimateFromSummaries(const stats::Summary& values,
                                                      const stats::Summary& squares,
                                                      int64_t population, double delta);

  /// The interval-arithmetic core, exposed for tests: given simultaneous
  /// intervals for E[X] and E[X^2], returns {VarLB, VarUB}.
  static std::pair<double, double> VarianceBounds(double mean_lb, double mean_ub,
                                                  double mean_sq_lb, double mean_sq_ub);
};

}  // namespace core
}  // namespace smokescreen

#endif  // SMOKESCREEN_CORE_VAR_ESTIMATOR_H_
