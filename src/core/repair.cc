#include "core/repair.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "stats/empirical.h"
#include "stats/sampling.h"

namespace smokescreen {
namespace core {

using util::Result;
using util::Status;

Result<CorrectionSet> BuildCorrectionSetFromFrames(query::FrameOutputSource& source,
                                                   const query::QuerySpec& spec,
                                                   const std::vector<int64_t>& frames,
                                                   double delta) {
  SMK_RETURN_IF_ERROR(spec.Validate());
  int64_t population = source.dataset().num_frames();
  if (frames.empty() || static_cast<int64_t>(frames.size()) > population) {
    return Status::InvalidArgument("correction set size must be in [1, N]");
  }
  CorrectionSet correction;
  correction.size = static_cast<int64_t>(frames.size());
  correction.population = population;
  const int resolution = source.detector().max_resolution();
  query::OutputColumn column;
  SMK_RETURN_IF_ERROR(source.AppendOutputs(spec, frames, resolution, 1.0, column));
  correction.outputs = std::move(column.outputs);
  // The correction set is a sample of the whole video (eligible population =
  // original population = N).
  SMK_ASSIGN_OR_RETURN(EstimationResult result,
                       EstimateFromOutputs(spec, correction.outputs, population, population,
                                           resolution, delta));
  correction.estimate = result.estimate;
  return correction;
}

Result<CorrectionSet> BuildCorrectionSet(query::FrameOutputSource& source,
                                         const query::QuerySpec& spec, int64_t m, double delta,
                                         stats::Rng& rng) {
  int64_t population = source.dataset().num_frames();
  if (m <= 0 || m > population) {
    return Status::InvalidArgument("correction set size must be in [1, N]");
  }
  SMK_ASSIGN_OR_RETURN(std::vector<int64_t> frames,
                       stats::SampleWithoutReplacement(population, m, rng));
  return BuildCorrectionSetFromFrames(source, spec, frames, delta);
}

Result<double> RepairErrorBound(const query::QuerySpec& spec, const EstimationResult& degraded,
                                const CorrectionSet& correction) {
  SMK_RETURN_IF_ERROR(spec.Validate());
  double err_v = correction.estimate.err_b;
  if (query::UsesRelativeErrorMetric(spec.aggregate)) {
    double y = degraded.estimate.y_approx;
    double y_v = correction.estimate.y_approx;
    if (y_v == 0.0) return std::numeric_limits<double>::infinity();
    return (1.0 + err_v) * std::abs(y - y_v) / std::abs(y_v) + err_v;
  }
  // MAX/MIN: compare ranks of both approximations inside the correction set
  // (Algorithm 3 lines 7–9).
  SMK_ASSIGN_OR_RETURN(stats::EmpiricalDistribution dist,
                       stats::EmpiricalDistribution::Create(correction.outputs));
  double r = spec.EffectiveQuantileR();
  double rank_degraded = dist.RankFraction(degraded.estimate.y_approx);
  double rank_correction = dist.RankFraction(correction.estimate.y_approx);
  return std::abs(rank_degraded - rank_correction) / r + err_v;
}

Result<CorrectionSizing> DetermineCorrectionSetSize(query::FrameOutputSource& source,
                                                    const query::QuerySpec& spec, double delta,
                                                    stats::Rng& rng, double max_fraction,
                                                    double plateau_tolerance) {
  SMK_RETURN_IF_ERROR(spec.Validate());
  if (max_fraction <= 0.0 || max_fraction > 1.0) {
    return Status::InvalidArgument("max_fraction must be in (0, 1]");
  }
  int64_t population = source.dataset().num_frames();
  if (population <= 0) {
    return Status::InvalidArgument("correction sizing needs at least one frame");
  }
  // Grow along a fixed random permutation so each step's outputs subsume the
  // previous step's (prefixes of a permutation are uniform without-
  // replacement samples, and the output cache turns growth into pure reuse).
  SMK_ASSIGN_OR_RETURN(std::vector<int64_t> permutation,
                       stats::SampleWithoutReplacement(population, population, rng));

  int64_t step = std::max<int64_t>(1, static_cast<int64_t>(std::llround(
                                          0.01 * static_cast<double>(population))));
  int64_t limit = std::max<int64_t>(
      step, static_cast<int64_t>(std::llround(max_fraction * static_cast<double>(population))));

  CorrectionSizing sizing;
  double prev_err = std::numeric_limits<double>::infinity();
  int resolution = source.detector().max_resolution();
  // Each step extends the previous prefix: request only the new tail as a
  // batch extension of the shared output column, and fold only that tail
  // into the estimators' statistics.
  query::OutputColumn column;
  SampleStatistics statistics(spec);
  EstimationScratch scratch;
  for (int64_t m = step; m <= limit; m += step) {
    const size_t folded = column.size();
    std::span<const int64_t> extension(permutation.data() + folded,
                                       static_cast<size_t>(m) - folded);
    SMK_RETURN_IF_ERROR(source.AppendOutputs(spec, extension, resolution, 1.0, column));
    statistics.Extend(column.output_span().subspan(folded), &scratch);
    SMK_ASSIGN_OR_RETURN(EstimationResult result,
                         EstimateFromStatistics(statistics, population, population, resolution,
                                                delta));
    const double err_v = result.estimate.err_b;
    double fraction = static_cast<double>(m) / static_cast<double>(population);
    sizing.curve.emplace_back(fraction, err_v);
    sizing.chosen_size = m;
    sizing.chosen_fraction = fraction;
    if (std::abs(prev_err - err_v) < plateau_tolerance) break;  // The elbow.
    prev_err = err_v;
  }
  return sizing;
}

}  // namespace core
}  // namespace smokescreen
