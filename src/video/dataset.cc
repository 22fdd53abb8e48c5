#include "video/dataset.h"

namespace smokescreen {
namespace video {

VideoDataset::VideoDataset(std::string name, uint64_t dataset_id, int full_resolution, double fps,
                           std::vector<Frame> frames, std::vector<SequenceInfo> sequences)
    : name_(std::move(name)),
      dataset_id_(dataset_id),
      full_resolution_(full_resolution),
      fps_(fps),
      frames_(std::move(frames)),
      sequences_(std::move(sequences)),
      scene_index_(SceneIndex::Build(frames_)) {}

double VideoDataset::GtContainmentFraction(ObjectClass cls) const {
  if (num_frames() == 0) return 0.0;
  int64_t containing = 0;
  for (int64_t f = 0; f < num_frames(); ++f) {
    if (scene_index_.begin(cls, f) != scene_index_.end(cls, f)) ++containing;
  }
  return static_cast<double>(containing) / static_cast<double>(num_frames());
}

double VideoDataset::GtMeanCount(ObjectClass cls) const {
  if (num_frames() == 0) return 0.0;
  return static_cast<double>(scene_index_.class_total(cls)) / static_cast<double>(num_frames());
}

}  // namespace video
}  // namespace smokescreen
