#include "query/executor.h"

#include <cmath>
#include <limits>
#include <utility>

#include "stats/empirical.h"

namespace smokescreen {
namespace query {

using util::Result;

Result<GroundTruth> ComputeGroundTruth(FrameOutputSource& source, const QuerySpec& spec,
                                       int resolution_override) {
  SMK_RETURN_IF_ERROR(spec.Validate());
  int resolution =
      resolution_override > 0 ? resolution_override : source.detector().max_resolution();
  GroundTruth gt;
  SMK_ASSIGN_OR_RETURN(gt.outputs, source.AllOutputs(spec, resolution));
  SMK_ASSIGN_OR_RETURN(gt.y_true,
                       ComputeAggregate(spec.aggregate, gt.outputs, spec.EffectiveQuantileR()));
  return gt;
}

Result<SkippedScan> AllOutputsWithSkipping(FrameOutputSource& source, const QuerySpec& spec,
                                           int resolution, double contrast_scale) {
  const video::VideoDataset& dataset = source.dataset();
  SkippedScan scan;
  scan.outputs.reserve(static_cast<size_t>(dataset.num_frames()));
  const OutputTransform transform(spec);
  std::vector<int64_t> prev_tracks;
  double prev_output = 0.0;
  bool have_prev = false;
  for (int64_t i = 0; i < dataset.num_frames(); ++i) {
    // The cheap "frame difference detector": the multiset of target-class
    // track ids (sorted; tracks are emitted in stable order per frame).
    std::vector<int64_t> tracks;
    for (const video::GtObject& obj : dataset.frame(i).objects) {
      if (obj.cls == source.target_class()) tracks.push_back(obj.track_id);
    }
    bool same_sequence =
        i > 0 && dataset.frame(i).sequence_id == dataset.frame(i - 1).sequence_id;
    if (have_prev && same_sequence && tracks == prev_tracks) {
      scan.outputs.push_back(prev_output);
      ++scan.skipped;
      continue;
    }
    SMK_ASSIGN_OR_RETURN(int count, source.RawCount(i, resolution, contrast_scale));
    prev_output = transform(count);
    prev_tracks = std::move(tracks);
    have_prev = true;
    scan.outputs.push_back(prev_output);
  }
  return scan;
}

double RelativeError(double approx, double truth) {
  if (truth == 0.0) {
    return approx == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return std::abs(approx - truth) / std::abs(truth);
}

Result<double> RankRelativeError(const std::vector<double>& original_outputs, double approx,
                                 double truth) {
  SMK_ASSIGN_OR_RETURN(stats::EmpiricalDistribution dist,
                       stats::EmpiricalDistribution::Create(original_outputs));
  double rank_truth = dist.RankFraction(truth);
  double rank_approx = dist.RankFraction(approx);
  if (rank_truth == 0.0) {
    return rank_approx == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return std::abs(rank_approx - rank_truth) / rank_truth;
}

}  // namespace query
}  // namespace smokescreen
