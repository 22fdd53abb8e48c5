// Scratch calibration harness (not an experiment binary): prints preset and
// detector statistics so calibrations can be compared against the paper's
// reported numbers.

#include <cstdio>
#include <numeric>
#include <vector>

#include "core/avg_estimator.h"
#include "core/estimator_api.h"
#include "detect/class_prior_index.h"
#include "detect/models.h"
#include "query/executor.h"
#include "query/output_source.h"
#include "video/presets.h"

using namespace smokescreen;

int main() {
  for (auto preset : {video::ScenePreset::kNightStreet, video::ScenePreset::kUaDetrac}) {
    auto ds = video::MakePreset(preset);
    ds.status().CheckOk();
    const auto& d = *ds;
    std::printf("== %s: %lld frames, %zu seqs\n", d.name().c_str(),
                static_cast<long long>(d.num_frames()), d.sequences().size());
    std::printf("  GT: cars/frame=%.3f person-frac=%.4f face-frac=%.4f\n",
                d.GtMeanCount(video::ObjectClass::kCar),
                d.GtContainmentFraction(video::ObjectClass::kPerson),
                d.GtContainmentFraction(video::ObjectClass::kFace));
    auto yolo = detect::MakeSimYoloV4();
    auto mtcnn = detect::MakeSimMtcnn();
    auto prior = detect::ClassPriorIndex::Build(d, **(&yolo), **(&mtcnn));
    prior.status().CheckOk();
    std::printf("  prior: person=%.4f face=%.4f\n",
                prior->ContainmentFraction(video::ObjectClass::kPerson),
                prior->ContainmentFraction(video::ObjectClass::kFace));

    // Resolution sweep of true AVG error (Fig 3 shape).
    query::QuerySpec spec;
    spec.aggregate = query::AggregateFunction::kAvg;
    query::FrameOutputSource source(d, *yolo, video::ObjectClass::kCar);
    auto gt = query::ComputeGroundTruth(source, spec);
    gt.status().CheckOk();
    std::printf("  y_true(avg cars, yolo@max) = %.4f\n", gt->y_true);
    std::vector<int64_t> frames(static_cast<size_t>(d.num_frames()));
    std::iota(frames.begin(), frames.end(), int64_t{0});
    for (int res : {64, 128, 192, 256, 320, 384, 448, 512, 576, 608}) {
      query::OutputColumn out;
      source.AppendOutputs(spec, frames, res, 1.0, out).CheckOk();
      double sum = 0;
      for (double v : out.outputs) sum += v;
      double avg = sum / static_cast<double>(out.size());
      std::printf("    res %3d: avg=%.4f rel_err=%.4f\n", res, avg,
                  query::RelativeError(avg, gt->y_true));
    }
  }
  return 0;
}
