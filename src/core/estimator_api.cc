#include "core/estimator_api.h"

#include "core/avg_estimator.h"
#include "core/quantile_estimator.h"
#include "core/var_estimator.h"

namespace smokescreen {
namespace core {

using util::Result;
using util::Status;

void SampleStatistics::Extend(std::span<const double> tail, EstimationScratch* scratch) {
  if (query::UsesRelativeErrorMetric(spec_.aggregate)) {
    values_.Extend(tail);
    if (spec_.aggregate == query::AggregateFunction::kVar) {
      for (double v : tail) squares_.Add(v * v);
    }
    return;
  }
  std::vector<double> local;
  distribution_.Extend(tail, scratch != nullptr ? scratch->sort_buffer : local);
}

int64_t SampleStatistics::size() const {
  return query::UsesRelativeErrorMetric(spec_.aggregate) ? values_.count()
                                                         : distribution_.total_count();
}

Result<EstimationResult> EstimateFromStatistics(const SampleStatistics& statistics,
                                                int64_t eligible_population,
                                                int64_t original_population, int resolution,
                                                double delta) {
  const query::QuerySpec& spec = statistics.spec_;
  SMK_RETURN_IF_ERROR(spec.Validate());
  if (statistics.size() == 0) return Status::InvalidArgument("no outputs to estimate from");

  EstimationResult result;
  result.sample_size = statistics.size();
  result.eligible_population = eligible_population;
  result.original_population = original_population;
  result.resolution = resolution;

  if (spec.aggregate == query::AggregateFunction::kVar) {
    SMK_ASSIGN_OR_RETURN(result.estimate,
                         SmokescreenVarianceEstimator::EstimateFromSummaries(
                             statistics.values_.ToSummary(), statistics.squares_.ToSummary(),
                             eligible_population, delta));
  } else if (query::IsMeanFamily(spec.aggregate)) {
    SMK_ASSIGN_OR_RETURN(result.estimate,
                         SmokescreenMeanEstimator::EstimateFromSummary(
                             statistics.values_.ToSummary(), eligible_population, delta));
    if (spec.aggregate != query::AggregateFunction::kAvg) {
      // SUM/COUNT (§3.2.2–3.2.3): Y_approx scales by the known video length
      // N; the relative-error bound is unchanged.
      result.estimate.y_approx *= static_cast<double>(original_population);
    }
  } else {
    bool is_max = spec.aggregate == query::AggregateFunction::kMax;
    SMK_ASSIGN_OR_RETURN(result.estimate,
                         SmokescreenQuantileEstimator::EstimateFromDistribution(
                             statistics.distribution_, eligible_population,
                             spec.EffectiveQuantileR(), is_max, delta));
  }
  return result;
}

Result<EstimationResult> EstimateFromOutputs(const query::QuerySpec& spec,
                                             std::span<const double> outputs,
                                             int64_t eligible_population,
                                             int64_t original_population, int resolution,
                                             double delta, EstimationScratch* scratch) {
  SampleStatistics statistics(spec);
  statistics.Extend(outputs, scratch);
  return EstimateFromStatistics(statistics, eligible_population, original_population,
                                resolution, delta);
}

Result<EstimationResult> ResultErrorEst(query::FrameOutputSource& source,
                                        const detect::ClassPriorIndex& prior,
                                        const query::QuerySpec& spec,
                                        const degrade::InterventionSet& interventions,
                                        double delta, stats::Rng& rng) {
  SMK_ASSIGN_OR_RETURN(degrade::DegradedView view,
                       degrade::DegradedView::Create(source.dataset(), prior, interventions,
                                                     source.detector().max_resolution(), rng));
  SMK_RETURN_IF_ERROR(spec.Validate());
  if (view.sampled_frames().empty()) return Status::InvalidArgument("no frames to estimate from");
  query::OutputColumn column;
  SMK_RETURN_IF_ERROR(source.AppendOutputs(spec, view.sampled_frames(), view.resolution(),
                                           view.contrast_scale(), column));
  return EstimateFromOutputs(spec, column.output_span(), view.eligible_population(),
                             view.original_population(), view.resolution(), delta);
}

}  // namespace core
}  // namespace smokescreen
