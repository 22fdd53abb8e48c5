// Destructive interventions (the paper's §2.1) and their combination.
//
// The 3-tuple (f, p, c):
//   f — reduced frame sampling: only a random fraction f of frames is kept
//       (RANDOM: the distribution of model outputs is unchanged);
//   p — reduced frame resolution: inference runs at p x p
//       (NON-RANDOM: systematically shifts model outputs);
//   c — image removal: frames whose class prior intersects c are deleted
//       (NON-RANDOM: surviving frames are a biased subpopulation).
// Extensions beyond the paper's three examples: noise addition and lossy
// compression, both modeled as a contrast scale < 1 (NON-RANDOM).

#ifndef SMOKESCREEN_DEGRADE_INTERVENTION_H_
#define SMOKESCREEN_DEGRADE_INTERVENTION_H_

#include <string>

#include "util/status.h"
#include "video/types.h"

namespace smokescreen {
namespace degrade {

struct InterventionSet {
  /// Fraction of frames randomly sampled (without replacement), in (0, 1].
  double sample_fraction = 1.0;
  /// Inference resolution in pixels; 0 means "the model's maximum" (i.e. no
  /// resolution intervention).
  int resolution = 0;
  /// Frames whose prior contains any of these classes are removed. Only
  /// the classes the prior records (person, face) are valid here.
  video::ClassSet restricted;
  /// Appearance degradation from noise addition / lossy compression, in
  /// (0, 1]; 1 means none. Extension knob beyond the paper's three examples.
  double contrast_scale = 1.0;

  /// No intervention at all.
  static InterventionSet None() { return InterventionSet{}; }

  /// InvalidArgument for a knob out of range or a restricted class the
  /// prior does not record.
  util::Status Validate() const;

  /// True when only the (random) frame-sampling knob is active, so the basic
  /// estimators apply without profile repair.
  bool IsPurelyRandom() const {
    return resolution == 0 && restricted.empty() && contrast_scale >= 1.0;
  }

  /// Resolution to actually run the model at: `resolution`, or
  /// `model_max_resolution` when the knob is unset.
  int EffectiveResolution(int model_max_resolution) const {
    return resolution == 0 ? model_max_resolution : resolution;
  }

  /// Scalar "how degraded is this" score in [0, ~3]; higher = more degraded.
  /// Used to order candidate settings when choosing a tradeoff. Each active
  /// knob contributes up to 1.
  double DegradationScore(int model_max_resolution) const;

  /// e.g. "f=0.05 p=256 c=person+face".
  std::string ToString() const;

  bool operator==(const InterventionSet& other) const;
};

}  // namespace degrade
}  // namespace smokescreen

#endif  // SMOKESCREEN_DEGRADE_INTERVENTION_H_
