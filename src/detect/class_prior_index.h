// Per-frame restricted-class prior.
//
// The paper precomputes, for every frame, which privacy-sensitive classes it
// contains ("person" via YOLOv4@0.7, "face" via MTCNN@0.8) and stores that as
// prior information; the image-removal intervention then deletes frames whose
// prior intersects the administrator's restricted set.
//
// Only those two classes are recorded. A restricted set naming any other
// class is rejected by degrade::InterventionSet::Validate, so an unrecorded
// class can never read as "absent" and keep a frame it should remove.

#ifndef SMOKESCREEN_DETECT_CLASS_PRIOR_INDEX_H_
#define SMOKESCREEN_DETECT_CLASS_PRIOR_INDEX_H_

#include <array>
#include <cstdint>
#include <vector>

#include "detect/detector.h"
#include "util/status.h"
#include "video/dataset.h"
#include "video/types.h"

namespace smokescreen {
namespace detect {

class ClassPriorIndex {
 public:
  /// The classes the prior records, in the order of Build's detector
  /// arguments: person, then face. Every other list of recorded classes
  /// (RecordedClasses, core::RestrictedClassCandidates) derives from this.
  static constexpr std::array<video::ObjectClass, 2> kRecordedClasses = {
      video::ObjectClass::kPerson, video::ObjectClass::kFace};

  /// kRecordedClasses as a set.
  static video::ClassSet RecordedClasses() {
    video::ClassSet set;
    for (video::ObjectClass cls : kRecordedClasses) set.Add(cls);
    return set;
  }

  /// Scans the dataset once with the given detectors at their maximum
  /// resolutions: `person_detector` decides "person" containment and
  /// `face_detector` decides "face" containment. Each detector counts
  /// fixed-size chunks of frames through its CountBatch kernel, whose counts
  /// equal per-frame CountDetections calls.
  static util::Result<ClassPriorIndex> Build(const video::VideoDataset& dataset,
                                             const Detector& person_detector,
                                             const Detector& face_detector);

  int64_t num_frames() const { return static_cast<int64_t>(masks_.size()); }

  bool Contains(int64_t frame_index, video::ObjectClass cls) const {
    return (masks_[static_cast<size_t>(frame_index)] & (1u << static_cast<int>(cls))) != 0;
  }

  /// True when the frame contains any class in `set`.
  bool ContainsAny(int64_t frame_index, const video::ClassSet& set) const {
    return (masks_[static_cast<size_t>(frame_index)] & set.mask()) != 0;
  }

  /// Fraction of frames containing `cls` (the paper reports these: 14.18%
  /// person / 4.02% face on night-street, etc.). Zero for a class outside
  /// RecordedClasses().
  double ContainmentFraction(video::ObjectClass cls) const;

  /// Indices of frames containing no class in `set` (the surviving frames
  /// after the image-removal intervention).
  std::vector<int64_t> FramesWithoutAny(const video::ClassSet& set) const;

 private:
  explicit ClassPriorIndex(std::vector<uint8_t> masks) : masks_(std::move(masks)) {}
  std::vector<uint8_t> masks_;
};

}  // namespace detect
}  // namespace smokescreen

#endif  // SMOKESCREEN_DETECT_CLASS_PRIOR_INDEX_H_
