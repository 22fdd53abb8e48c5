#include "detect/models.h"

#include <algorithm>
#include <cmath>

namespace smokescreen {
namespace detect {

using video::ObjectClass;

namespace {

constexpr uint64_t kYoloModelId = 0x704c04;     // "YOLOv4"
constexpr uint64_t kMaskRcnnModelId = 0x3a58;   // "MaskR"
constexpr uint64_t kMtcnnModelId = 0x37c44;     // "MTCNN"
constexpr uint64_t kSsdModelId = 0x55d;         // "SSD"

// Index helpers: calibrations are indexed by ObjectClass value.
std::array<ClassCalibration, video::kNumObjectClasses> YoloCalibrations() {
  std::array<ClassCalibration, video::kNumObjectClasses> cal{};
  cal[static_cast<size_t>(ObjectClass::kCar)] = {/*s50=*/12.0, /*width=*/3.2, /*plateau=*/0.975,
                                                 /*fp_rate=*/0.02};
  cal[static_cast<size_t>(ObjectClass::kPerson)] = {14.0, 4.0, 0.96, 0.01};
  cal[static_cast<size_t>(ObjectClass::kFace)] = {9.0, 2.5, 0.80, 0.003};
  return cal;
}

std::array<ClassCalibration, video::kNumObjectClasses> MaskRcnnCalibrations() {
  std::array<ClassCalibration, video::kNumObjectClasses> cal{};
  cal[static_cast<size_t>(ObjectClass::kCar)] = {9.0, 3.5, 0.985, 0.035};
  cal[static_cast<size_t>(ObjectClass::kPerson)] = {11.0, 3.8, 0.97, 0.015};
  cal[static_cast<size_t>(ObjectClass::kFace)] = {8.0, 2.5, 0.85, 0.004};
  return cal;
}

std::array<ClassCalibration, video::kNumObjectClasses> SsdCalibrations() {
  std::array<ClassCalibration, video::kNumObjectClasses> cal{};
  // Edge-class model: misses small objects much earlier than YOLO.
  cal[static_cast<size_t>(ObjectClass::kCar)] = {18.0, 5.0, 0.93, 0.03};
  cal[static_cast<size_t>(ObjectClass::kPerson)] = {20.0, 5.5, 0.90, 0.015};
  cal[static_cast<size_t>(ObjectClass::kFace)] = {14.0, 4.0, 0.60, 0.004};
  return cal;
}

std::array<ClassCalibration, video::kNumObjectClasses> MtcnnCalibrations() {
  std::array<ClassCalibration, video::kNumObjectClasses> cal{};
  // Face-only model: car/person plateaus are zero.
  cal[static_cast<size_t>(ObjectClass::kCar)] = {1e9, 1.0, 0.0, 0.0};
  cal[static_cast<size_t>(ObjectClass::kPerson)] = {1e9, 1.0, 0.0, 0.0};
  cal[static_cast<size_t>(ObjectClass::kFace)] = {4.2, 1.3, 0.92, 0.002};
  return cal;
}

}  // namespace

namespace {

// Figure 7/8 anomaly bump: anchor-grid aliasing near 384px defeats NMS, so
// many cars are reported twice. The bump is narrow enough that 320px and
// 448px behave normally. Pure function of resolution; shared by the
// constructor's table build and the odd-resolution fallback so both produce
// the same doubles.
double YoloDuplicateBump(int resolution) {
  constexpr double kCenter = 384.0;
  constexpr double kSigma = 18.0;
  constexpr double kAmplitude = 0.7;
  double d = (static_cast<double>(resolution) - kCenter) / kSigma;
  double p = kAmplitude * std::exp(-0.5 * d * d);
  return p < 1e-4 ? 0.0 : p;
}

}  // namespace

SimYoloV4::SimYoloV4()
    : CalibratedDetector("SimYoloV4", kYoloModelId, /*max_resolution=*/608,
                         /*resolution_stride=*/32, YoloCalibrations()) {
  for (int i = 0; i < static_cast<int>(dup_by_resolution_.size()); ++i) {
    dup_by_resolution_[static_cast<size_t>(i)] = YoloDuplicateBump(32 * (i + 1));
  }
}

void SimYoloV4::DuplicateProbabilityBatch(const video::VideoDataset& dataset,
                                          std::span<const int64_t> frame_indices, int resolution,
                                          video::ObjectClass cls, std::span<double> out) const {
  // The resolution bump is one double for the whole batch; only the
  // scene-contrast gate varies per frame. Daytime scenes (contrast >= 0.65)
  // are unaffected.
  double p = 0.0;
  if (cls == ObjectClass::kCar) {
    const int idx = resolution / 32;
    p = (resolution % 32 == 0 && idx >= 1 && idx <= static_cast<int>(dup_by_resolution_.size()))
            ? dup_by_resolution_[static_cast<size_t>(idx - 1)]
            : YoloDuplicateBump(resolution);
  }
  if (p == 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const std::span<const double> scene = dataset.scene_index().scene_contrasts();
  for (size_t i = 0; i < frame_indices.size(); ++i) {
    out[i] = scene[static_cast<size_t>(frame_indices[i])] >= 0.65 ? 0.0 : p;
  }
}

SimMaskRcnn::SimMaskRcnn()
    : CalibratedDetector("SimMaskRcnn", kMaskRcnnModelId, /*max_resolution=*/640,
                         /*resolution_stride=*/64, MaskRcnnCalibrations()) {}

SimSsd::SimSsd()
    : CalibratedDetector("SimSsd", kSsdModelId, /*max_resolution=*/512,
                         /*resolution_stride=*/32, SsdCalibrations()) {}

SimMtcnn::SimMtcnn()
    : CalibratedDetector("SimMtcnn", kMtcnnModelId, /*max_resolution=*/640,
                         /*resolution_stride=*/16, MtcnnCalibrations()) {}

std::unique_ptr<Detector> MakeSimYoloV4() { return std::make_unique<SimYoloV4>(); }
std::unique_ptr<Detector> MakeSimSsd() { return std::make_unique<SimSsd>(); }
std::unique_ptr<Detector> MakeSimMaskRcnn() { return std::make_unique<SimMaskRcnn>(); }
std::unique_ptr<Detector> MakeSimMtcnn() { return std::make_unique<SimMtcnn>(); }

}  // namespace detect
}  // namespace smokescreen
