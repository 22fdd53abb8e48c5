// Extension: parallel profile generation — thread-count sweep.
//
// §5.3.1 shows profile time is dominated by model invocations over the
// intervention hypercube. The hypercube groups are fully independent, so
// Profiler::Generate dispatches one task per group onto the util::ThreadPool
// of the output source it reads. This bench gives the source a pool of each
// swept width on both presets and records the speedup trajectory, verifying
// that every thread count produces BIT-IDENTICAL profile points (per-group
// RNG streams make the result independent of scheduling).
//
// The simulated detectors are orders of magnitude cheaper than real GPU
// inference (the paper extrapolates 30 ms/frame), so a pure-CPU sweep would
// measure estimator arithmetic, not the regime the paper describes. The
// bench therefore wraps the detector in a latency decorator that charges a
// configurable per-invocation model cost (default 500 us, a conservative
// stand-in for GPU inference); threads overlap these blocking invocations
// exactly as they would overlap GPU round-trips. --latency-us 0 gives the
// raw CPU-bound numbers.
//
// Usage: ext_parallel_profiler [--frames N] [--latency-us L] [--max-threads T]

#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/candidate_design.h"
#include "core/profiler.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace smokescreen;

namespace {

/// Detector decorator that sleeps `latency_us` per invocation before
/// delegating, modelling the per-frame cost of a real inference backend.
class LatencyDetector : public detect::Detector {
 public:
  LatencyDetector(const detect::Detector& inner, int64_t latency_us)
      : inner_(inner), latency_us_(latency_us) {}

  const std::string& name() const override { return inner_.name(); }
  uint64_t model_id() const override { return inner_.model_id(); }
  int max_resolution() const override { return inner_.max_resolution(); }
  int resolution_stride() const override { return inner_.resolution_stride(); }

  util::Result<int> CountDetections(const video::VideoDataset& dataset, int64_t frame_index,
                                    int resolution, video::ObjectClass cls,
                                    double contrast_scale) const override {
    if (latency_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(latency_us_));
    }
    return inner_.CountDetections(dataset, frame_index, resolution, cls, contrast_scale);
  }

 private:
  const detect::Detector& inner_;
  int64_t latency_us_;
};

bool PointsBitIdentical(const std::vector<core::ProfilePoint>& a,
                        const std::vector<core::ProfilePoint>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].interventions == b[i].interventions)) return false;
    if (a[i].err_bound != b[i].err_bound) return false;
    if (a[i].err_uncorrected != b[i].err_uncorrected) return false;
    if (a[i].y_approx != b[i].y_approx) return false;
    if (a[i].repaired != b[i].repaired) return false;
    if (a[i].sample_size != b[i].sample_size) return false;
  }
  return true;
}

struct SweepPoint {
  int threads = 0;
  double seconds = 0.0;
  double speedup = 1.0;
  int64_t invocations = 0;
  int64_t hits = 0;
  bool identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  int64_t frames = 1500;
  int64_t latency_us = 500;
  int max_threads = 8;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--frames") {
      frames = bench::IntFlagValue(argc, argv, i);
    } else if (arg == "--latency-us") {
      latency_us = bench::IntFlagValue(argc, argv, i);
    } else if (arg == "--max-threads") {
      const int64_t t = bench::IntFlagValue(argc, argv, i);
      if (t < 1 || t > std::numeric_limits<int>::max()) {
        std::fprintf(stderr, "--max-threads must be in [1, 2147483647]\n");
        return 2;
      }
      max_threads = static_cast<int>(t);
    } else {
      std::fprintf(stderr,
                   "usage: ext_parallel_profiler [--frames N] [--latency-us L]"
                   " [--max-threads T]\n");
      return 2;
    }
  }

  std::printf("=== Extension: parallel profile generation (thread sweep) ===\n");
  std::printf("frames=%lld, simulated model latency=%lld us/invocation\n\n",
              static_cast<long long>(frames), static_cast<long long>(latency_us));

  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  bool all_identical = true;
  double ua_detrac_speedup_at_max = 0.0;

  for (video::ScenePreset preset :
       {video::ScenePreset::kUaDetrac, video::ScenePreset::kNightStreet}) {
    bench::Workload wl = bench::MakeWorkload(preset, "yolov4", frames);
    LatencyDetector model(*wl.model, latency_us);

    query::QuerySpec spec;
    spec.aggregate = query::AggregateFunction::kAvg;

    // 10 resolutions x 10 fractions, no class combinations: 10 independent
    // hypercube groups, matching the §5.3.1 workload shape.
    core::CandidateGridOptions grid_opts;
    grid_opts.min_fraction = 0.01;
    grid_opts.max_fraction = 0.10;
    grid_opts.fraction_step = 0.01;
    grid_opts.num_resolutions = 10;
    grid_opts.include_class_combinations = false;
    auto grid = core::BuildCandidateGrid(model, grid_opts);
    grid.status().CheckOk();

    std::vector<core::ProfilePoint> baseline;
    std::vector<SweepPoint> sweep;
    for (int threads : thread_counts) {
      // Fresh output source per run: each run pays the full model cost. The
      // profiler walks its groups on the source's pool.
      util::ThreadPool pool(threads);
      query::FrameOutputSource source(*wl.dataset, model, video::ObjectClass::kCar);
      source.set_thread_pool(&pool);
      core::ProfilerOptions opts;
      opts.use_correction_set = false;
      opts.early_stop = false;
      core::Profiler profiler(source, *wl.prior, spec, opts);
      stats::Rng rng(4242);

      util::Timer timer;
      auto profile = profiler.Generate(*grid, rng);
      profile.status().CheckOk();

      SweepPoint point;
      point.threads = threads;
      point.seconds = timer.ElapsedSeconds();
      point.invocations = source.model_invocations();
      point.hits = source.cache_hits();
      if (threads == 1) {
        baseline = profile->points;
      } else {
        point.identical = PointsBitIdentical(baseline, profile->points);
        all_identical = all_identical && point.identical;
      }
      point.speedup = sweep.empty() ? 1.0 : sweep.front().seconds / point.seconds;
      sweep.push_back(point);
    }

    std::printf("--- %s ---\n", wl.label.c_str());
    util::TablePrinter table(
        {"threads", "wall s", "speedup", "invocations", "cache hits", "bit-identical"});
    for (const SweepPoint& point : sweep) {
      table.AddRow({std::to_string(point.threads), util::FormatDouble(point.seconds, 3),
                    util::FormatDouble(point.speedup, 2) + "x",
                    std::to_string(point.invocations), std::to_string(point.hits),
                    point.identical ? "yes" : "NO"});
    }
    table.Print(std::cout);
    std::printf("\n");

    if (preset == video::ScenePreset::kUaDetrac) {
      ua_detrac_speedup_at_max = sweep.back().speedup;
    }
  }

  std::printf("UA-DETRAC speedup at %d threads: %.2fx (target >= 3x)\n", thread_counts.back(),
              ua_detrac_speedup_at_max);
  std::printf("profiles bit-identical across all thread counts: %s\n",
              all_identical ? "yes" : "NO");

  bool ok = all_identical && ua_detrac_speedup_at_max >= 3.0;
  return ok ? 0 : 1;
}
