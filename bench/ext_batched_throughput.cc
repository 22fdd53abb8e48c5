// Extension: batched execution throughput — batch-size sweep.
//
// The batched columnar substrate (Detector::CountBatch +
// FrameOutputSource::FillCounts) amortizes per-invocation overhead across a
// whole frame list. The simulated detectors have no such overhead, so — as
// with ext_parallel_profiler — the bench wraps the detector in a latency
// decorator that charges a per-INVOCATION setup cost (weights on device,
// kernel launch, host round-trip; default 200 us) plus a per-FRAME compute
// cost (default 5 us). Scalar execution pays the setup cost on every frame;
// a batch of B frames pays it once per B. The sweep measures frames/sec at
// batch sizes {1, 64, 512, 4096} against the per-frame scalar loop on both
// presets, verifies every run yields bit-identical counts, and requires
// >= 3x throughput at batch 512.
//
// Results are appended to a machine-readable JSON file (BENCH_batched.json
// by default) — the first entry of the bench trajectory for the batched
// execution core.
//
// Usage: ext_batched_throughput [--frames N] [--overhead-us O]
//          [--per-frame-us P] [--out FILE]

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

using namespace smokescreen;

namespace {

/// Detector decorator charging a fixed setup cost per invocation plus a
/// linear cost per frame, so batching amortizes the former. Counts are
/// delegated unchanged — the decorator only shapes the cost.
class BatchLatencyDetector : public detect::Detector {
 public:
  BatchLatencyDetector(const detect::Detector& inner, int64_t overhead_us, int64_t per_frame_us)
      : inner_(inner), overhead_us_(overhead_us), per_frame_us_(per_frame_us) {}

  const std::string& name() const override { return inner_.name(); }
  uint64_t model_id() const override { return inner_.model_id(); }
  int max_resolution() const override { return inner_.max_resolution(); }
  int resolution_stride() const override { return inner_.resolution_stride(); }

  util::Result<int> CountDetections(const video::VideoDataset& dataset, int64_t frame_index,
                                    int resolution, video::ObjectClass cls,
                                    double contrast_scale) const override {
    Charge(1);
    return inner_.CountDetections(dataset, frame_index, resolution, cls, contrast_scale);
  }

  util::Status CountBatch(const video::VideoDataset& dataset,
                          std::span<const int64_t> frame_indices, int resolution,
                          video::ObjectClass cls, double contrast_scale,
                          std::span<int> out) const override {
    Charge(static_cast<int64_t>(frame_indices.size()));
    return inner_.CountBatch(dataset, frame_indices, resolution, cls, contrast_scale, out);
  }

 private:
  void Charge(int64_t num_frames) const {
    const int64_t us = overhead_us_ + per_frame_us_ * num_frames;
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }

  const detect::Detector& inner_;
  int64_t overhead_us_;
  int64_t per_frame_us_;
};

struct SweepPoint {
  int64_t batch_size = 0;  // 0 = the scalar per-frame loop.
  double seconds = 0.0;
  double fps = 0.0;
  double speedup = 1.0;
  bool identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  // Exports the metrics registry at exit when --metrics-out <path> (stripped
  // here) is given.
  bench::MetricsDumpGuard metrics_guard(argc, argv);
  int64_t frames = 2048;
  int64_t overhead_us = 200;
  int64_t per_frame_us = 5;
  std::string out_path = "BENCH_batched.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--frames") {
      frames = bench::IntFlagValue(argc, argv, i);
    } else if (arg == "--overhead-us") {
      overhead_us = bench::IntFlagValue(argc, argv, i);
    } else if (arg == "--per-frame-us") {
      per_frame_us = bench::IntFlagValue(argc, argv, i);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: ext_batched_throughput [--frames N] [--overhead-us O]"
                   " [--per-frame-us P] [--out FILE]\n");
      return 2;
    }
  }

  std::printf("=== Extension: batched execution throughput (batch-size sweep) ===\n");
  std::printf("frames=%lld, per-invocation overhead=%lld us, per-frame cost=%lld us\n\n",
              static_cast<long long>(frames), static_cast<long long>(overhead_us),
              static_cast<long long>(per_frame_us));

  const std::vector<int64_t> batch_sizes = {1, 64, 512, 4096};
  const int resolution = 320;

  bool all_identical = true;
  bool all_meet_target = true;
  std::string json_presets;

  for (video::ScenePreset preset :
       {video::ScenePreset::kUaDetrac, video::ScenePreset::kNightStreet}) {
    bench::Workload wl = bench::MakeWorkload(preset, "yolov4", frames);
    BatchLatencyDetector model(*wl.model, overhead_us, per_frame_us);

    std::vector<int64_t> all_frames(static_cast<size_t>(wl.dataset->num_frames()));
    std::iota(all_frames.begin(), all_frames.end(), int64_t{0});

    // Scalar baseline: one single-frame FillCounts (one model invocation)
    // per frame.
    std::vector<int> scalar_counts(all_frames.size());
    double scalar_seconds = 0.0;
    {
      query::FrameOutputSource source(*wl.dataset, model, video::ObjectClass::kCar);
      std::span<const int64_t> frames_span(all_frames);
      std::span<int> counts_span(scalar_counts);
      util::Timer timer;
      for (size_t i = 0; i < all_frames.size(); ++i) {
        source.FillCounts(frames_span.subspan(i, 1), resolution, 1.0, counts_span.subspan(i, 1))
            .CheckOk();
      }
      scalar_seconds = timer.ElapsedSeconds();
    }
    const double scalar_fps = static_cast<double>(all_frames.size()) / scalar_seconds;

    std::vector<SweepPoint> sweep;
    double speedup_at_512 = 0.0;
    for (int64_t batch_size : batch_sizes) {
      // Fresh source per run: every run pays the full model cost.
      query::FrameOutputSource source(*wl.dataset, model, video::ObjectClass::kCar);
      source.set_max_batch_size(batch_size);
      std::vector<int> counts(all_frames.size());
      util::Timer timer;
      source.FillCounts(all_frames, resolution, 1.0, counts).CheckOk();

      SweepPoint point;
      point.batch_size = batch_size;
      point.seconds = timer.ElapsedSeconds();
      point.fps = static_cast<double>(all_frames.size()) / point.seconds;
      point.speedup = point.fps / scalar_fps;
      point.identical = counts == scalar_counts;
      all_identical = all_identical && point.identical;
      if (batch_size == 512) speedup_at_512 = point.speedup;
      sweep.push_back(point);
    }
    all_meet_target = all_meet_target && speedup_at_512 >= 3.0;

    std::printf("--- %s ---\n", wl.label.c_str());
    util::TablePrinter table({"batch size", "wall s", "frames/s", "vs scalar", "bit-identical"});
    table.AddRow({"scalar", util::FormatDouble(scalar_seconds, 3),
                  util::FormatDouble(scalar_fps, 0), "1.00x", "(reference)"});
    for (const SweepPoint& point : sweep) {
      table.AddRow({std::to_string(point.batch_size), util::FormatDouble(point.seconds, 3),
                    util::FormatDouble(point.fps, 0),
                    util::FormatDouble(point.speedup, 2) + "x",
                    point.identical ? "yes" : "NO"});
    }
    table.Print(std::cout);
    std::printf("speedup at batch 512: %.2fx (target >= 3x)\n\n", speedup_at_512);

    if (!json_presets.empty()) json_presets += ",\n";
    json_presets += "    {\"preset\": \"" + wl.label + "\",\n";
    json_presets += "     \"scalar_seconds\": " + util::FormatDouble(scalar_seconds, 6) + ",\n";
    json_presets += "     \"scalar_fps\": " + util::FormatDouble(scalar_fps, 1) + ",\n";
    json_presets += "     \"speedup_at_512\": " + util::FormatDouble(speedup_at_512, 3) + ",\n";
    json_presets += "     \"points\": [";
    for (size_t i = 0; i < sweep.size(); ++i) {
      if (i > 0) json_presets += ", ";
      json_presets += "{\"batch_size\": " + std::to_string(sweep[i].batch_size) +
                      ", \"seconds\": " + util::FormatDouble(sweep[i].seconds, 6) +
                      ", \"fps\": " + util::FormatDouble(sweep[i].fps, 1) +
                      ", \"speedup\": " + util::FormatDouble(sweep[i].speedup, 3) +
                      ", \"identical\": " + (sweep[i].identical ? "true" : "false") + "}";
    }
    json_presets += "]}";
  }

  const bool pass = all_identical && all_meet_target;

  std::ofstream json(out_path, std::ios::trunc);
  if (json) {
    json << "{\n  \"bench\": \"ext_batched_throughput\",\n"
         << "  \"frames\": " << frames << ",\n"
         << "  \"overhead_us\": " << overhead_us << ",\n"
         << "  \"per_frame_us\": " << per_frame_us << ",\n"
         << "  \"target_speedup_at_512\": 3.0,\n"
         << "  \"presets\": [\n"
         << json_presets << "\n  ],\n"
         << "  \"all_counts_identical\": " << (all_identical ? "true" : "false") << ",\n"
         << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
    std::printf("results written to %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
  }

  std::printf("counts bit-identical across all batch sizes: %s\n",
              all_identical ? "yes" : "NO");
  std::printf("batch-512 speedup >= 3x on both presets: %s\n", all_meet_target ? "yes" : "NO");
  return pass ? 0 : 1;
}
