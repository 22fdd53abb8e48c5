// Class-partitioned columnar scene index (CSR layout).
//
// The AoS frame representation (Frame::objects, a vector of GtObject) is the
// shape the scene simulator emits, but it is the wrong shape for its
// readers: counting one class forces a scan over EVERY object of EVERY
// queried frame, branching on `obj.cls` and gathering the three fields the
// recall model reads from scattered 32-byte structs. So the detectors (batch
// kernel and scalar reference), the cost model, the frame-skipping scan and
// the ground-truth statistics all read this index instead.
//
// The SceneIndex re-partitions the same objects once, at dataset build time,
// into per-class structure-of-arrays columns:
//
//   offsets[c]  : num_frames + 1 CSR row pointers; frame f's class-c objects
//                 occupy column positions [offsets[c][f], offsets[c][f+1])
//   sizes[c]    : apparent_size, flat and contiguous
//   contrasts[c]: per-object contrast, flat and contiguous
//   tracks[c]   : the object's track id pre-cast to the uint64 hash word the
//                 detectors' determinism stream absorbs
//
// plus flat per-frame (scene-level) columns: the total-object count (all
// classes), which the calibrated false-positive model's clutter term
// consumes, and the frame id / scene contrast words, so a batch kernel's
// frame pass reads three dense arrays instead of chasing into the
// vector-bearing Frame structs.
//
// Within a class column, objects keep the relative order they have in
// Frame::objects, so a columnar kernel visits exactly the objects the AoS
// scan would visit, in the same order — the index is a re-partitioning, not
// a re-ordering (the property tests assert this bijection).
//
// The index is immutable after Build and holds no pointers into the frames,
// so VideoDataset can copy/move it freely alongside its frame vector.

#ifndef SMOKESCREEN_VIDEO_SCENE_INDEX_H_
#define SMOKESCREEN_VIDEO_SCENE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "video/types.h"

namespace smokescreen {
namespace video {

class SceneIndex {
 public:
  /// Flat columns for one object class. Spans index the WHOLE dataset; use
  /// the offsets to slice one frame's range.
  struct ClassColumns {
    std::vector<uint32_t> offsets;      // num_frames + 1 row pointers.
    std::vector<double> sizes;          // apparent_size per object.
    std::vector<double> contrasts;      // contrast per object.
    std::vector<uint64_t> track_words;  // uint64(track_id) hash words.
  };

  SceneIndex() = default;

  /// Partitions `frames` into per-class columns. O(total objects).
  static SceneIndex Build(const std::vector<Frame>& frames);

  int64_t num_frames() const { return num_frames_; }

  const ClassColumns& columns(ObjectClass cls) const {
    return columns_[static_cast<size_t>(cls)];
  }

  /// Column range of frame `f`'s class-`cls` objects.
  uint32_t begin(ObjectClass cls, int64_t f) const {
    return columns(cls).offsets[static_cast<size_t>(f)];
  }
  uint32_t end(ObjectClass cls, int64_t f) const {
    return columns(cls).offsets[static_cast<size_t>(f) + 1];
  }

  /// Objects of `cls` in the whole dataset.
  int64_t class_total(ObjectClass cls) const {
    return static_cast<int64_t>(columns(cls).sizes.size());
  }

  /// Total objects (all classes) per frame — the clutter statistic.
  std::span<const uint32_t> total_objects() const { return total_objects_; }

  /// Frame::frame_id per frame, pre-cast to the uint64 word the detectors'
  /// determinism stream absorbs.
  std::span<const uint64_t> frame_id_words() const { return frame_id_words_; }

  /// Frame::scene_contrast per frame (model quirk hooks key off this).
  std::span<const double> scene_contrasts() const { return scene_contrasts_; }

 private:
  int64_t num_frames_ = 0;
  ClassColumns columns_[kNumObjectClasses];
  std::vector<uint32_t> total_objects_;
  std::vector<uint64_t> frame_id_words_;
  std::vector<double> scene_contrasts_;
};

}  // namespace video
}  // namespace smokescreen

#endif  // SMOKESCREEN_VIDEO_SCENE_INDEX_H_
