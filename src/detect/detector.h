// Detector interface and the shared calibrated detection model.
//
// A simulated detector maps (frame, inference resolution, class) to a count
// of detections, exactly the quantity the paper's frame-level UDFs produce.
// Outputs are deterministic: the same frame at the same resolution always
// yields the same count (as with a real network), via stateless hashing of
// (dataset, frame, object track, resolution, model).
//
// The accuracy model has three calibrated ingredients:
//  * recall: a logistic curve in the *effective* object size
//      s_eff = apparent_size * (resolution / reference_resolution) * contrast,
//    so reducing resolution shrinks objects toward the miss region — the
//    systematic, one-directional bias that makes resolution reduction a
//    NON-RANDOM intervention in the paper's taxonomy;
//  * false positives: a small Poisson clutter term;
//  * model quirks: hooks for pathological behaviours such as the paper's
//    Figure 7/8 anomaly (YOLOv4 at 384x384 on night video).

#ifndef SMOKESCREEN_DETECT_DETECTOR_H_
#define SMOKESCREEN_DETECT_DETECTOR_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"
#include "video/dataset.h"
#include "video/types.h"

namespace smokescreen {
namespace detect {

/// Contrast steps per unit of contrast scale. The detectors hash contrast as
/// QuantizeContrast(c), and the memo, its store records and the profiler's
/// candidate groups key it the same way, so contrasts in one
/// 1/kContrastSteps step share one memo column.
inline constexpr double kContrastSteps = 4096.0;

/// `contrast_scale` quantized to 1/kContrastSteps steps.
inline int64_t QuantizeContrast(double contrast_scale) {
  return std::llround(contrast_scale * kContrastSteps);
}

/// Per-class logistic calibration of a detector at its confidence threshold.
struct ClassCalibration {
  /// Effective object size (pixels) at which recall is half the plateau.
  double s50 = 15.0;
  /// Logistic width (pixels); smaller = sharper size cutoff.
  double width = 4.0;
  /// Asymptotic recall for large, clear objects.
  double plateau = 0.98;
  /// Expected false positives per frame at full resolution.
  double fp_rate = 0.02;
};

class Detector {
 public:
  virtual ~Detector() = default;

  virtual const std::string& name() const = 0;
  /// Stable identity used in the determinism hash.
  virtual uint64_t model_id() const = 0;
  /// Largest supported inference resolution ("original" for this model).
  virtual int max_resolution() const = 0;
  /// Required resolution granularity (e.g. 64 for Mask R-CNN, 32 for YOLO).
  virtual int resolution_stride() const = 0;

  /// Checks resolution is positive, a multiple of the stride, and <= max.
  util::Status ValidateResolution(int resolution) const;

  /// Number of detections of `cls` in the given frame when inference runs at
  /// `resolution`. `contrast_scale` < 1 models appearance-degrading
  /// interventions (noise addition, lossy compression).
  virtual util::Result<int> CountDetections(const video::VideoDataset& dataset,
                                            int64_t frame_index, int resolution,
                                            video::ObjectClass cls,
                                            double contrast_scale = 1.0) const = 0;

  /// Batched counterpart of CountDetections: one invocation covers all of
  /// `frame_indices`, writing counts into `out` (same length, same order).
  /// Counts are bit-identical to per-frame CountDetections calls; batching
  /// only amortizes per-invocation setup. On ANY error `out` is left
  /// entirely untouched — implementations validate the whole request up
  /// front (or buffer), never exposing a partially written prefix. The
  /// default implementation loops over CountDetections into a temporary;
  /// calibrated models override it with a columnar kernel over the
  /// dataset's scene index.
  virtual util::Status CountBatch(const video::VideoDataset& dataset,
                                  std::span<const int64_t> frame_indices, int resolution,
                                  video::ObjectClass cls, double contrast_scale,
                                  std::span<int> out) const;
};

/// Base class implementing the calibrated recall/false-positive model.
class CalibratedDetector : public Detector {
 public:
  CalibratedDetector(std::string name, uint64_t model_id, int max_resolution,
                     int resolution_stride,
                     std::array<ClassCalibration, video::kNumObjectClasses> calibrations);

  const std::string& name() const override { return name_; }
  uint64_t model_id() const override { return model_id_; }
  int max_resolution() const override { return max_resolution_; }
  int resolution_stride() const override { return resolution_stride_; }

  /// The per-frame scalar reference the batch kernel is checked against:
  /// walks frame `frame_index`'s range of the scene index's `cls` column and
  /// makes each draw through stats::StatelessBernoulli / StatelessPoisson.
  util::Result<int> CountDetections(const video::VideoDataset& dataset, int64_t frame_index,
                                    int resolution, video::ObjectClass cls,
                                    double contrast_scale) const override;

  /// Columnar kernel: walks only the queried class's contiguous SoA column
  /// of the dataset's SceneIndex (never the AoS object lists), with all
  /// per-(resolution, class, contrast) constants hoisted to per-batch
  /// scalars and the (dataset, frame) hash prefix hoisted per frame via a
  /// resumable stats::HashStream. The recall sigmoid is evaluated over a
  /// flat tile so the surrounding arithmetic vectorizes; std::exp and the
  /// hash chain run in the scalar stream order, keeping every count
  /// BIT-IDENTICAL to per-frame CountDetections. Validates the resolution
  /// and every frame index before writing anything to `out`.
  util::Status CountBatch(const video::VideoDataset& dataset,
                          std::span<const int64_t> frame_indices, int resolution,
                          video::ObjectClass cls, double contrast_scale,
                          std::span<int> out) const override;

  /// Recall of one object of class `cls`, with the given apparent size and
  /// contrast, at the given resolution (exposed for tests and calibration
  /// plots).
  double ObjectRecall(video::ObjectClass cls, double apparent_size, double contrast,
                      int resolution, int reference_resolution, double contrast_scale) const;

 protected:
  /// Fills `out[i]` with the probability that a *detected* object of `cls`
  /// in frame `frame_indices[i]` is reported twice (NMS failure). The base
  /// model never duplicates and fills zeros; SimYoloV4 overrides it with its
  /// 384px night-scene quirk, read from the scene index's flat columns.
  /// Both counting paths ask it, the batch kernel once per batch and the
  /// scalar CountDetections for its one frame.
  virtual void DuplicateProbabilityBatch(const video::VideoDataset& dataset,
                                         std::span<const int64_t> frame_indices, int resolution,
                                         video::ObjectClass cls, std::span<double> out) const;

 private:
  /// Guard-banded lookup acceleration for the recall Bernoulli, built once
  /// per class at construction. The [0, s_detect_certain) range of effective
  /// object size is cut into kBands buckets; each stores CONSERVATIVE
  /// integer thresholds on the 53-bit uniform draw: draws below `sure_lo`
  /// are certainly below the bucket's minimum recall (detected), draws at or
  /// above `sure_hi` are certainly at or above its maximum recall (missed).
  /// Only draws inside the (padded) ambiguity band fall back to the exact
  /// std::exp logistic — so the decision is bit-identical to always
  /// evaluating the sigmoid, while the hot loop stays free of libm calls.
  /// Above s_detect_certain the computed logistic argument is <= -37, where
  /// 1.0 + exp(a) rounds to exactly 1.0 and recall == plateau exactly.
  struct RecallBands {
    static constexpr int kBands = 1024;
    bool usable = false;        // plateau in (0, 1) and finite geometry.
    double s_detect_certain = 0.0;
    double inv_band_width = 0.0;
    std::vector<uint64_t> sure_lo;  // (hash >> 11) <  sure_lo[b] => detected.
    std::vector<uint64_t> sure_hi;  // (hash >> 11) >= sure_hi[b] => missed.
  };
  static RecallBands BuildRecallBands(const ClassCalibration& cal);

  std::string name_;
  uint64_t model_id_;
  int max_resolution_;
  int resolution_stride_;
  std::array<ClassCalibration, video::kNumObjectClasses> calibrations_;
  std::array<RecallBands, video::kNumObjectClasses> recall_bands_;
};

}  // namespace detect
}  // namespace smokescreen

#endif  // SMOKESCREEN_DETECT_DETECTOR_H_
