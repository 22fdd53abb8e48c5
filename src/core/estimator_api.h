// ResultErrorEst — the single entry point of the paper's Algorithm 3
// (lines 1–2): apply a set of destructive interventions to the video, run
// the detection UDF on the surviving sampled frames, and produce the
// approximate aggregate answer plus its error upper bound, dispatching to
// the AVG-family estimator (§3.2.1–3.2.3) or the quantile estimator
// (§3.2.4) as appropriate.

#ifndef SMOKESCREEN_CORE_ESTIMATOR_API_H_
#define SMOKESCREEN_CORE_ESTIMATOR_API_H_

#include <span>
#include <vector>

#include "core/estimate.h"
#include "degrade/degraded_view.h"
#include "degrade/intervention.h"
#include "detect/class_prior_index.h"
#include "query/output_source.h"
#include "query/query_spec.h"
#include "stats/descriptive.h"
#include "stats/empirical.h"
#include "stats/rng.h"
#include "util/status.h"

namespace smokescreen {
namespace core {

/// Outcome of one degraded estimation run.
struct EstimationResult {
  /// Aggregate-scale answer and relative-error bound (SUM/COUNT answers are
  /// scaled by the original population N, as in §3.2.2).
  Estimate estimate;
  int64_t sample_size = 0;
  /// Population the sample was drawn from (frames surviving image removal).
  int64_t eligible_population = 0;
  /// Original query-specified frame count N.
  int64_t original_population = 0;
  int resolution = 0;
};

/// Runs the query under `interventions` and estimates answer + error bound:
/// samples the degraded view, fetches its outputs with one batched request,
/// then delegates to EstimateFromOutputs. Randomness: frame sampling only,
/// driven by `rng` (detector outputs are deterministic).
util::Result<EstimationResult> ResultErrorEst(query::FrameOutputSource& source,
                                              const detect::ClassPriorIndex& prior,
                                              const query::QuerySpec& spec,
                                              const degrade::InterventionSet& interventions,
                                              double delta, stats::Rng& rng);

/// Reusable buffers for estimation loops. The quantile path sorts the
/// outputs it folds in inside `sort_buffer`; passing the same scratch to
/// every call of a loop lets the buffer reach its high-water capacity once
/// instead of reallocating per call.
struct EstimationScratch {
  std::vector<double> sort_buffer;
};

/// The estimators' sufficient statistics of a sample that only grows, as
/// the §3.3.2 reuse strategy grows it: nested prefixes of one permutation.
/// Each Extend folds in just the new tail, so a walk over a group's
/// candidates reads every output once instead of once per prefix:
///  * AVG/SUM/COUNT: a Welford accumulator over the outputs;
///  * VAR: Welford accumulators over the outputs and over their squares;
///  * MAX/MIN: the distinct-value distribution of the outputs.
/// Estimates after any sequence of extensions are bit-identical to
/// EstimateFromOutputs over the concatenated outputs: Welford folds the same
/// values in the same order, and the distribution depends only on the
/// multiset.
class SampleStatistics {
 public:
  explicit SampleStatistics(const query::QuerySpec& spec) : spec_(spec) {}

  /// Folds in `tail`, the outputs appended to the sample since the last
  /// call. `scratch` (optional) lends the quantile path its sort buffer.
  void Extend(std::span<const double> tail, EstimationScratch* scratch = nullptr);

  /// Outputs folded in so far.
  int64_t size() const;

 private:
  friend util::Result<EstimationResult> EstimateFromStatistics(
      const SampleStatistics& statistics, int64_t eligible_population,
      int64_t original_population, int resolution, double delta);

  query::QuerySpec spec_;
  stats::WelfordAccumulator values_;
  stats::WelfordAccumulator squares_;
  stats::EmpiricalDistribution distribution_;
};

/// Answer and error bound from a sample's statistics, dispatching to the
/// AVG-family estimator (§3.2.1–3.2.3), the VAR extension or the quantile
/// estimator (§3.2.4). This is the one estimator dispatch: every entry point
/// below and the correction set's own estimate (core/repair) go through it.
util::Result<EstimationResult> EstimateFromStatistics(const SampleStatistics& statistics,
                                                      int64_t eligible_population,
                                                      int64_t original_population,
                                                      int resolution, double delta);

/// Estimation from already-materialized frame outputs (a prefix view of a
/// batched OutputColumn): folds all of `outputs` into fresh statistics and
/// estimates from them. Loops over a growing sample keep one
/// SampleStatistics instead and extend it by each tail. `scratch` (optional)
/// reuses buffers across calls; results are identical with or without it.
util::Result<EstimationResult> EstimateFromOutputs(const query::QuerySpec& spec,
                                                   std::span<const double> outputs,
                                                   int64_t eligible_population,
                                                   int64_t original_population, int resolution,
                                                   double delta,
                                                   EstimationScratch* scratch = nullptr);

}  // namespace core
}  // namespace smokescreen

#endif  // SMOKESCREEN_CORE_ESTIMATOR_API_H_
