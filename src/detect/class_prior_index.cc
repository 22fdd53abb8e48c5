#include "detect/class_prior_index.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <tuple>

namespace smokescreen {
namespace detect {

using util::Result;
using video::ObjectClass;

Result<ClassPriorIndex> ClassPriorIndex::Build(const video::VideoDataset& dataset,
                                               const Detector& person_detector,
                                               const Detector& face_detector) {
  // Fixed chunks bound the frame-index and count buffers (48 KB at 4096).
  constexpr int64_t kChunkFrames = 4096;
  // One detector per recorded class, in kRecordedClasses order.
  const std::array detectors = {&person_detector, &face_detector};
  static_assert(std::tuple_size_v<decltype(detectors)> == kRecordedClasses.size());
  const int64_t num_frames = dataset.num_frames();
  std::vector<uint8_t> masks(static_cast<size_t>(num_frames), 0);
  std::vector<int64_t> frames;
  std::vector<int> counts;
  for (int64_t begin = 0; begin < num_frames; begin += kChunkFrames) {
    const size_t len = static_cast<size_t>(std::min(kChunkFrames, num_frames - begin));
    frames.resize(len);
    std::iota(frames.begin(), frames.end(), begin);
    counts.resize(len);
    for (size_t p = 0; p < detectors.size(); ++p) {
      const Detector& detector = *detectors[p];
      const ObjectClass cls = kRecordedClasses[p];
      SMK_RETURN_IF_ERROR(detector.CountBatch(dataset, frames, detector.max_resolution(), cls,
                                              /*contrast_scale=*/1.0, counts));
      const uint8_t bit = static_cast<uint8_t>(1u << static_cast<int>(cls));
      uint8_t* chunk_masks = masks.data() + begin;
      for (size_t i = 0; i < len; ++i) {
        if (counts[i] > 0) chunk_masks[i] |= bit;
      }
    }
  }
  return ClassPriorIndex(std::move(masks));
}

double ClassPriorIndex::ContainmentFraction(ObjectClass cls) const {
  if (masks_.empty()) return 0.0;
  int64_t count = 0;
  for (uint8_t mask : masks_) {
    if (mask & (1u << static_cast<int>(cls))) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(masks_.size());
}

std::vector<int64_t> ClassPriorIndex::FramesWithoutAny(const video::ClassSet& set) const {
  std::vector<int64_t> out;
  out.reserve(masks_.size());
  for (size_t i = 0; i < masks_.size(); ++i) {
    if ((masks_[i] & set.mask()) == 0) out.push_back(static_cast<int64_t>(i));
  }
  return out;
}

}  // namespace detect
}  // namespace smokescreen
