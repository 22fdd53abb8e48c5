// Shared workload setup for the experiment harnesses: builds the paper's
// §5.1 workloads (dataset preset + detection model + restricted-class prior
// + output source) and provides the per-trial sampling/estimation loops the
// figures are averaged over.

#ifndef SMOKESCREEN_BENCH_BENCH_COMMON_H_
#define SMOKESCREEN_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/estimator_api.h"
#include "core/repair.h"
#include "detect/class_prior_index.h"
#include "detect/models.h"
#include "detect/registry.h"
#include "engine/runtime.h"
#include "query/executor.h"
#include "query/output_source.h"
#include "stats/rng.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "video/presets.h"

namespace smokescreen {
namespace bench {

/// The process-wide engine runtime every bench workload is wired through.
/// Default options: process-default Env/registry, hardware-width executor.
inline engine::Runtime& BenchRuntime() {
  static std::unique_ptr<engine::Runtime> runtime = [] {
    auto created = engine::Runtime::Create({});
    created.status().CheckOk();
    return std::move(created).ValueOrDie();
  }();
  return *runtime;
}

/// A fully materialized workload: video + model + prior + output cache. The
/// engine handle owns the pieces; the raw pointers keep the historical bench
/// spelling (`*wl.dataset`, `wl.source->...`) working unchanged.
struct Workload {
  std::string label;
  engine::WorkloadHandle handle;
  const video::VideoDataset* dataset = nullptr;
  const detect::Detector* model = nullptr;
  const detect::ClassPriorIndex* prior = nullptr;
  query::FrameOutputSource* source = nullptr;
};

/// Builds a workload through the bench runtime. `detector_name` is "yolov4"
/// or "maskrcnn"; the prior is always computed with YOLO (person) + MTCNN
/// (face), as in the paper. `frames` == 0 uses the preset's full length.
/// Workloads are ISOLATED (never the runtime's shared instance): every call
/// returns a cold output cache, preserving each bench's cold-start timing.
inline Workload MakeWorkload(video::ScenePreset preset, const std::string& detector_name,
                             int64_t frames = 0) {
  engine::WorkloadDesc desc;
  desc.preset = preset;
  desc.frames = frames;
  desc.detector_name = detector_name;
  auto handle = BenchRuntime().CreateIsolatedWorkload(desc);
  handle.status().CheckOk();

  Workload wl;
  wl.handle = *handle;
  wl.dataset = &wl.handle->dataset();
  wl.model = &wl.handle->detector();
  wl.prior = &wl.handle->prior();
  wl.source = &wl.handle->source();
  wl.label = wl.handle->label();
  return wl;
}

/// Realized error of an estimate against ground truth, using the metric the
/// paper assigns to the aggregate (relative for the mean family,
/// rank-relative for MAX/MIN).
inline double RealizedError(const query::QuerySpec& spec, const query::GroundTruth& gt,
                            double y_approx) {
  if (query::UsesRelativeErrorMetric(spec.aggregate)) {
    return query::RelativeError(y_approx, gt.y_true);
  }
  auto err = query::RankRelativeError(gt.outputs, y_approx, gt.y_true);
  err.status().CheckOk();
  return *err;
}

/// Averages of one (true error, bounds...) experiment cell over trials.
struct TrialAverages {
  double true_error = 0.0;
  std::vector<double> bounds;  // One per estimator, caller-defined order.
  int violations = 0;          // Trials where bounds[0] < true error.
};

/// Observability decorator for the bench harnesses: construct one at the top
/// of main() and the process-wide metrics registry is exported when the
/// bench exits its scope. The export path comes from a "--metrics-out <p>"
/// pair, which the constructor STRIPS from (argc, argv) so each bench's own
/// flag parser never sees it. No path -> no export, zero overhead beyond the
/// instruments the bench already drives. The export is the JSON snapshot,
/// written atomically through the Env seam.
class MetricsDumpGuard {
 public:
  MetricsDumpGuard(int& argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--metrics-out") {
        path_ = argv[i + 1];
        for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
        argc -= 2;
        break;
      }
    }
  }

  ~MetricsDumpGuard() {
    if (path_.empty()) return;
    util::Status status =
        util::MetricsRegistry::Default().Snapshot().WriteJson(util::Env::Default(), path_);
    if (status.ok()) {
      std::printf("metrics written to %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "metrics export to %s failed: %s\n", path_.c_str(),
                   status.ToString().c_str());
    }
  }

  MetricsDumpGuard(const MetricsDumpGuard&) = delete;
  MetricsDumpGuard& operator=(const MetricsDumpGuard&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The integer value of the flag at argv[i], with i advanced past it. A
/// missing value or one that is not an integer prints the error on stderr
/// and exits with status 2, like any other usage error.
inline int64_t IntFlagValue(int argc, char** argv, int& i) {
  const char* flag = argv[i];
  if (i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", flag);
    std::exit(2);
  }
  auto parsed = util::ParseInt(argv[++i]);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", flag, parsed.status().ToString().c_str());
    std::exit(2);
  }
  return *parsed;
}

}  // namespace bench
}  // namespace smokescreen

#endif  // SMOKESCREEN_BENCH_BENCH_COMMON_H_
