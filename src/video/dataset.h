// VideoDataset: an immutable collection of frames plus metadata, standing in
// for a decoded video corpus stored on disk (the paper's "original video").

#ifndef SMOKESCREEN_VIDEO_DATASET_H_
#define SMOKESCREEN_VIDEO_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "video/scene_index.h"
#include "video/types.h"

namespace smokescreen {
namespace video {

/// Metadata for one recording sequence inside a dataset (UA-DETRAC ships 40
/// such sequences; night-street is a single long one).
struct SequenceInfo {
  std::string name;
  int64_t first_frame = 0;
  int64_t num_frames = 0;
};

class VideoDataset {
 public:
  VideoDataset(std::string name, uint64_t dataset_id, int full_resolution, double fps,
               std::vector<Frame> frames, std::vector<SequenceInfo> sequences);

  const std::string& name() const { return name_; }
  /// Stable 64-bit identity, part of the detectors' determinism key.
  uint64_t dataset_id() const { return dataset_id_; }
  /// Side length in pixels of the "original" (non-degraded) square input.
  int full_resolution() const { return full_resolution_; }
  double fps() const { return fps_; }

  int64_t num_frames() const { return static_cast<int64_t>(frames_.size()); }
  const Frame& frame(int64_t index) const { return frames_[static_cast<size_t>(index)]; }
  const std::vector<Frame>& frames() const { return frames_; }

  /// Class-partitioned columnar view of the frames (CSR layout), built once
  /// at construction. Code outside video/ reads scene objects only through
  /// these columns, never the AoS object lists; see video/scene_index.h.
  const SceneIndex& scene_index() const { return scene_index_; }

  const std::vector<SequenceInfo>& sequences() const { return sequences_; }

  /// Fraction of frames whose ground truth contains at least one `cls`.
  double GtContainmentFraction(ObjectClass cls) const;

  /// Mean ground-truth count of `cls` per frame.
  double GtMeanCount(ObjectClass cls) const;

 private:
  std::string name_;
  uint64_t dataset_id_ = 0;
  int full_resolution_ = 0;
  double fps_ = 0.0;
  std::vector<Frame> frames_;
  std::vector<SequenceInfo> sequences_;
  SceneIndex scene_index_;
};

}  // namespace video
}  // namespace smokescreen

#endif  // SMOKESCREEN_VIDEO_DATASET_H_
