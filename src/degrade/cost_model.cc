#include "degrade/cost_model.h"

#include <algorithm>

#include "stats/sampling.h"

namespace smokescreen {
namespace degrade {

using util::Result;
using util::Status;
using video::ObjectClass;

Result<DegradationSavings> EstimateSavings(const video::VideoDataset& dataset,
                                           const detect::ClassPriorIndex& prior,
                                           const InterventionSet& interventions,
                                           int model_max_resolution) {
  SMK_RETURN_IF_ERROR(interventions.Validate());
  if (prior.num_frames() != dataset.num_frames()) {
    return Status::InvalidArgument("prior/dataset frame count mismatch");
  }
  if (dataset.num_frames() == 0) return Status::InvalidArgument("empty dataset");

  const int64_t total = dataset.num_frames();
  DegradationSavings savings;

  // Frames surviving removal, then sampling. Expectation, not one draw.
  std::vector<int64_t> eligible = prior.FramesWithoutAny(interventions.restricted);
  int64_t requested = stats::FractionToCount(total, interventions.sample_fraction);
  int64_t transmitted = std::min<int64_t>(requested, static_cast<int64_t>(eligible.size()));
  savings.frames_fraction = static_cast<double>(transmitted) / static_cast<double>(total);

  // Restricted-frame removal effectiveness.
  int64_t restricted_total = total - static_cast<int64_t>(eligible.size());
  if (interventions.restricted.empty()) {
    savings.restricted_removed_fraction = 0.0;
  } else {
    // Every frame whose prior intersects the restricted set is removed.
    savings.restricted_removed_fraction = restricted_total > 0 ? 1.0 : 0.0;
  }

  // Bytes: per-frame cost scales with pixel count (resolution^2); the
  // compression/noise knob further scales the encoded bitrate.
  int resolution = interventions.EffectiveResolution(model_max_resolution);
  double res_ratio = static_cast<double>(resolution) / static_cast<double>(model_max_resolution);
  savings.bytes_fraction =
      savings.frames_fraction * res_ratio * res_ratio * interventions.contrast_scale;

  // Transmission-dominated energy proxy.
  savings.energy_fraction = 0.8 * savings.bytes_fraction + 0.2 * savings.frames_fraction;

  // Face recognizability among transmitted frames: a face survives if its
  // frame is eligible AND its effective size at the reduced resolution stays
  // above the recognition threshold. The sampling intervention scales
  // uniformly (each eligible frame equally likely).
  const video::SceneIndex& index = dataset.scene_index();
  const std::vector<double>& face_sizes = index.columns(ObjectClass::kFace).sizes;
  const int64_t faces_total = index.class_total(ObjectClass::kFace);
  int64_t faces_recognizable_eligible = 0;
  double sampling_share = static_cast<double>(transmitted) /
                          std::max<double>(1.0, static_cast<double>(eligible.size()));
  for (int64_t f : eligible) {
    for (uint32_t j = index.begin(ObjectClass::kFace, f); j < index.end(ObjectClass::kFace, f);
         ++j) {
      double effective_size = face_sizes[j] * res_ratio * interventions.contrast_scale;
      if (effective_size >= kFaceRecognitionSizePx) ++faces_recognizable_eligible;
    }
  }
  savings.faces_recognizable_fraction =
      faces_total == 0 ? 0.0
                       : sampling_share * static_cast<double>(faces_recognizable_eligible) /
                             static_cast<double>(faces_total);
  return savings;
}

}  // namespace degrade
}  // namespace smokescreen
