#include "query/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
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
  std::vector<int64_t> frames(static_cast<size_t>(source.dataset().num_frames()));
  std::iota(frames.begin(), frames.end(), int64_t{0});
  OutputColumn column;
  SMK_RETURN_IF_ERROR(source.AppendOutputs(spec, frames, resolution, 1.0, column));
  GroundTruth gt;
  gt.outputs = std::move(column.outputs);
  SMK_ASSIGN_OR_RETURN(gt.y_true,
                       ComputeAggregate(spec.aggregate, gt.outputs, spec.EffectiveQuantileR()));
  return gt;
}

Result<SkippedScan> AllOutputsWithSkipping(FrameOutputSource& source, const QuerySpec& spec,
                                           int resolution, double contrast_scale) {
  const video::VideoDataset& dataset = source.dataset();
  // The skips depend on track ids only, never on a count, so the frames to
  // process are picked first and fetched with one request. `source_of[i]`
  // is the position in `processed` whose output frame i reuses. The cheap
  // "frame difference detector" compares a frame's run of target-class
  // track words in the scene index (tracks are emitted in stable order per
  // frame) with the last processed frame's run; the sequences partition the
  // frames in order, and each one starts a new run.
  const video::SceneIndex& index = dataset.scene_index();
  const video::ObjectClass cls = source.target_class();
  const uint64_t* tracks = index.columns(cls).track_words.data();
  std::vector<int64_t> processed;
  std::vector<size_t> source_of(static_cast<size_t>(dataset.num_frames()));
  for (const video::SequenceInfo& seq : dataset.sequences()) {
    for (int64_t i = seq.first_frame; i < seq.first_frame + seq.num_frames; ++i) {
      if (i == seq.first_frame ||
          !std::equal(tracks + index.begin(cls, i), tracks + index.end(cls, i),
                      tracks + index.begin(cls, processed.back()),
                      tracks + index.end(cls, processed.back()))) {
        processed.push_back(i);
      }
      source_of[static_cast<size_t>(i)] = processed.size() - 1;
    }
  }
  OutputColumn column;
  SMK_RETURN_IF_ERROR(source.AppendOutputs(spec, processed, resolution, contrast_scale, column));
  SkippedScan scan;
  scan.skipped = dataset.num_frames() - static_cast<int64_t>(processed.size());
  scan.outputs.reserve(source_of.size());
  for (size_t slot : source_of) scan.outputs.push_back(column.outputs[slot]);
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
