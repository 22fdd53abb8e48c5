// Concrete simulated detectors standing in for the paper's built-in models:
// YOLOv4 (Darknet), Mask R-CNN (Keras/TF), and MTCNN (face detection).
//
// Calibrations are chosen so that at each model's maximum resolution the
// detected class-containment fractions land near the paper's reported priors
// (person 14.18% / face 4.02% on night-street; 65.86% / 2.48% on UA-DETRAC),
// and so that recall decays through the paper's resolution sweep range.

#ifndef SMOKESCREEN_DETECT_MODELS_H_
#define SMOKESCREEN_DETECT_MODELS_H_

#include <memory>

#include "detect/detector.h"

namespace smokescreen {
namespace detect {

/// YOLOv4 analogue: 608x608 max input, stride-32 resolutions, detection
/// threshold 0.7. Carries the paper's Figure 7/8 anomaly — on low-light
/// scenes, inference near 384x384 suffers an anchor-aliasing NMS failure that
/// duplicates a large share of car detections, so its output distribution
/// deviates from the truth far more than at the *lower* resolution 320x320.
class SimYoloV4 : public CalibratedDetector {
 public:
  SimYoloV4();

 protected:
  /// The Figure 7/8 duplicate term: one resolution-dependent probability
  /// for cars, gated per frame on scene contrast, so the loop reads the
  /// scene index's flat contrast column with everything else hoisted.
  void DuplicateProbabilityBatch(const video::VideoDataset& dataset,
                                 std::span<const int64_t> frame_indices, int resolution,
                                 video::ObjectClass cls, std::span<double> out) const override;

 private:
  /// The anomaly bump depends on resolution only (the frame and class just
  /// gate it on/off), so the std::exp is evaluated once per valid stride-32
  /// resolution at construction instead of once per frame in every counting
  /// loop. dup_by_resolution_[r/32 - 1] == DuplicateBump(r), bit-identically
  /// (same arithmetic, run at build time).
  std::array<double, 19> dup_by_resolution_{};
};

/// Mask R-CNN analogue: 640x640 max input; the default structure only
/// handles resolutions in multiples of 64 (as the paper notes). Slightly
/// better small-object recall than the YOLO analogue.
class SimMaskRcnn : public CalibratedDetector {
 public:
  SimMaskRcnn();
};

/// SSD-MobileNet analogue (extension beyond the paper's two models): an
/// edge-class detector — smaller maximum input (512), markedly worse
/// small-object recall, lower plateau. Lets experiments ask how the paper's
/// profiles depend on the CHOICE of model, not just its resolution knob.
class SimSsd : public CalibratedDetector {
 public:
  SimSsd();
};

/// MTCNN analogue: face-only detector, threshold 0.8; used to precompute the
/// restricted-class prior. Its car and person calibrations have a zero
/// plateau and no false positives, so it counts zero for them.
class SimMtcnn : public CalibratedDetector {
 public:
  SimMtcnn();
};

std::unique_ptr<Detector> MakeSimYoloV4();
std::unique_ptr<Detector> MakeSimSsd();
std::unique_ptr<Detector> MakeSimMaskRcnn();
std::unique_ptr<Detector> MakeSimMtcnn();

}  // namespace detect
}  // namespace smokescreen

#endif  // SMOKESCREEN_DETECT_MODELS_H_
