// Ground-truth video representation.
//
// The estimators in this system never look at pixels: like the paper's
// pipeline, they consume per-frame *model outputs*. A Frame therefore holds
// the ground-truth objects a detector could possibly see (class, apparent
// size, contrast), and the simulated detectors decide — deterministically per
// (frame, object, resolution, model) — which of them are actually detected.

#ifndef SMOKESCREEN_VIDEO_TYPES_H_
#define SMOKESCREEN_VIDEO_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace smokescreen {
namespace video {

/// Object classes relevant to the paper's workloads: "car" is the analytical
/// target, "person" and "face" are the restricted (privacy-sensitive)
/// classes of the image-removal intervention.
enum class ObjectClass : uint8_t { kCar = 0, kPerson = 1, kFace = 2 };

constexpr int kNumObjectClasses = 3;

const char* ObjectClassName(ObjectClass cls);
util::Result<ObjectClass> ObjectClassFromName(const std::string& name);

/// A small bitmask set of object classes (the intervention parameter `c`).
class ClassSet {
 public:
  ClassSet() = default;
  explicit ClassSet(std::initializer_list<ObjectClass> classes) {
    for (ObjectClass cls : classes) Add(cls);
  }

  static ClassSet None() { return ClassSet(); }

  void Add(ObjectClass cls) { mask_ |= Bit(cls); }
  void Remove(ObjectClass cls) { mask_ &= ~Bit(cls); }
  bool Contains(ObjectClass cls) const { return (mask_ & Bit(cls)) != 0; }
  bool Intersects(const ClassSet& other) const { return (mask_ & other.mask_) != 0; }
  bool empty() const { return mask_ == 0; }
  int size() const;
  uint8_t mask() const { return mask_; }

  /// "none" or "+"-joined class names, e.g. "person+face".
  std::string ToString() const;

  bool operator==(const ClassSet& other) const { return mask_ == other.mask_; }

 private:
  static uint8_t Bit(ObjectClass cls) { return static_cast<uint8_t>(1u << static_cast<int>(cls)); }
  uint8_t mask_ = 0;
};

/// One ground-truth object instance in one frame.
struct GtObject {
  ObjectClass cls = ObjectClass::kCar;
  /// Stable identity across frames of the same track; also the determinism
  /// key for simulated detection.
  int64_t track_id = 0;
  /// Apparent height in pixels at the dataset's full resolution. Reducing
  /// the inference resolution shrinks this proportionally, which is the sole
  /// mechanism coupling the resolution intervention to detection accuracy.
  double apparent_size = 0.0;
  /// Visual contrast in (0, 1]; low at night or under heavy compression.
  double contrast = 1.0;
};

// A 1M-frame corpus holds ~13M objects, so every field costs ~100 MB; add
// one only with a reader for it.
static_assert(sizeof(GtObject) == 32, "GtObject grew");

/// One video frame: identity plus its ground-truth object list.
struct Frame {
  int64_t frame_id = 0;     // Global index within the dataset.
  int32_t sequence_id = 0;  // Which recording sequence it belongs to.
  double timestamp_sec = 0.0;
  /// Ambient scene contrast multiplier (night scenes < ~0.65).
  double scene_contrast = 1.0;
  std::vector<GtObject> objects;

  /// Number of ground-truth objects of `cls`.
  int CountGt(ObjectClass cls) const;
  bool ContainsGt(ObjectClass cls) const { return CountGt(cls) > 0; }
};

}  // namespace video
}  // namespace smokescreen

#endif  // SMOKESCREEN_VIDEO_TYPES_H_
