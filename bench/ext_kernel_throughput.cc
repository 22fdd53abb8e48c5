// Extension: cold-path detector kernel throughput.
//
// ext_batched_throughput measures how batching amortizes a simulated
// per-invocation latency AROUND the model; this bench measures the model
// itself — the cold (uncached) compute cost of counting detections, the
// part that stands in for real GPU inference in profile generation
// (§5.3.1). No latency decorator: wall-clock here is pure kernel work plus
// the cache substrate.
//
// Three execution shapes are swept over both presets:
//   * scalar         — the per-frame scalar reference: one CountDetections
//                      call per frame, walking the frame's range of the
//                      scene index's class column one draw at a time.
//   * columnar       — direct Detector::CountBatch over the
//                      class-partitioned CSR scene index: contiguous
//                      per-class columns, per-batch constants, hoisted
//                      hash prefix (batch-size sweep).
//   * columnar+pool  — end-to-end cold FrameOutputSource run: the same
//                      kernel underneath the memo-cache substrate, with
//                      the miss-batch fanned out across a util::ThreadPool
//                      (intra-batch parallelism). The source engages its
//                      pool only for at least 32 misses per worker, so
//                      --frames below 32 x the pool width is a usage error.
//
// scalar and columnar call the detector directly (no cache) so the
// ratio isolates the kernel; columnar+pool includes the cache substrate,
// so on a many-core host it shows what a real cold profiling run gets.
//
// Every variant must produce counts bit-identical to scalar, and the
// bench FAILS (exit 1) unless, on both presets:
//   * the best cold-path variant at batch 512 reaches >= 3x the scalar
//     cold-path throughput, AND
//   * columnar+pool holds its own against serial columnar at batch 512 —
//     strictly faster when the pool has real parallelism (> 1 worker, as on
//     CI runners), or within 10% (substrate-overhead parity band) when the
//     host resolves to a single worker and a speedup is physically
//     impossible.
// Results are written to a machine-readable JSON file (BENCH_kernel.json by
// default).
//
// Usage: ext_kernel_throughput [--frames N] [--threads T] [--repeats R]
//          [--out FILE]

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace smokescreen;

namespace {

struct RunResult {
  double seconds = 0.0;
  std::vector<int> counts;
};

struct SweepPoint {
  std::string variant;
  int64_t batch_size = 0;  // 0 = per-frame scalar loop.
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
  int64_t frames = 12000;
  int64_t threads = 0;  // 0 = hardware concurrency.
  int64_t repeats = 7;
  std::string out_path = "BENCH_kernel.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--frames") {
      frames = bench::IntFlagValue(argc, argv, i);
    } else if (arg == "--threads") {
      threads = bench::IntFlagValue(argc, argv, i);
    } else if (arg == "--repeats") {
      repeats = bench::IntFlagValue(argc, argv, i);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: ext_kernel_throughput [--frames N] [--threads T]"
                   " [--repeats R] [--out FILE]\n");
      return 2;
    }
  }
  if (repeats < 1) repeats = 1;
  if (threads < 0 || threads > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "--threads must be in [0, 2147483647] (0 = hardware concurrency)\n");
    return 2;
  }

  util::ThreadPool pool(static_cast<int>(threads));
  // Below 32 misses per worker the source computes a cold batch serially,
  // and columnar+pool would silently time the serial path.
  if (frames < 32 * static_cast<int64_t>(pool.num_threads())) {
    std::fprintf(stderr,
                 "usage: ext_kernel_throughput: --frames %lld is below 32 x %d pool threads;"
                 " the pool would never engage\n",
                 static_cast<long long>(frames), pool.num_threads());
    return 2;
  }
  std::printf("=== Extension: cold-path kernel throughput (scene index + columnar kernel) ===\n");
  std::printf("frames=%lld, pool threads=%d, repeats=%lld (best run kept)\n\n",
              static_cast<long long>(frames), pool.num_threads(),
              static_cast<long long>(repeats));

  const std::vector<int64_t> batch_sizes = {64, 512, 4096};
  const int resolution = 320;

  bool all_identical = true;
  bool all_meet_target = true;
  bool pool_gate_pass = true;
  // Architecture-aware pooled-vs-serial gate at batch 512: with real
  // parallelism (> 1 worker) the pooled end-to-end run must BEAT the direct
  // serial kernel outright; a single-worker host cannot speed anything up,
  // so there the gate only forbids the cache substrate from costing more
  // than 10%.
  const bool pool_is_parallel = pool.num_threads() > 1;
  const double pool_gate_threshold = pool_is_parallel ? 1.0 : 0.9;
  std::string json_presets;

  for (video::ScenePreset preset :
       {video::ScenePreset::kUaDetrac, video::ScenePreset::kNightStreet}) {
    bench::Workload wl = bench::MakeWorkload(preset, "yolov4", frames);

    std::vector<int64_t> all_frames(static_cast<size_t>(wl.dataset->num_frames()));
    std::iota(all_frames.begin(), all_frames.end(), int64_t{0});

    // scalar and columnar time the detector itself (no memo cache):
    // scalar is one virtual CountDetections per frame, columnar is
    // CountBatch over batch_size-sized index chunks. columnar+pool times a
    // FRESH cold FrameOutputSource (cache substrate included) with the
    // miss-batches fanned out on the pool.
    auto run_once = [&](int64_t batch_size, bool use_pool, bool scalar) {
      RunResult run;
      if (scalar) {
        util::Timer timer;
        run.counts.reserve(all_frames.size());
        for (int64_t frame : all_frames) {
          auto count =
              wl.model->CountDetections(*wl.dataset, frame, resolution, video::ObjectClass::kCar,
                                        /*contrast_scale=*/1.0);
          count.status().CheckOk();
          run.counts.push_back(*count);
        }
        run.seconds = timer.ElapsedSeconds();
      } else if (!use_pool) {
        run.counts.resize(all_frames.size());
        std::span<const int64_t> frames_span(all_frames);
        std::span<int> out_span(run.counts);
        util::Timer timer;
        for (size_t begin = 0; begin < all_frames.size();
             begin += static_cast<size_t>(batch_size)) {
          const size_t len =
              std::min(static_cast<size_t>(batch_size), all_frames.size() - begin);
          wl.model
              ->CountBatch(*wl.dataset, frames_span.subspan(begin, len), resolution,
                           video::ObjectClass::kCar, /*contrast_scale=*/1.0,
                           out_span.subspan(begin, len))
              .CheckOk();
        }
        run.seconds = timer.ElapsedSeconds();
      } else {
        query::FrameOutputSource source(*wl.dataset, *wl.model, video::ObjectClass::kCar);
        source.set_max_batch_size(batch_size);
        source.set_thread_pool(&pool);
        run.counts.resize(all_frames.size());
        util::Timer timer;
        source.FillCounts(all_frames, resolution, 1.0, run.counts).CheckOk();
        run.seconds = timer.ElapsedSeconds();
      }
      return run;
    };
    auto run_best = [&](int64_t batch_size, bool use_pool, bool scalar) {
      RunResult best = run_once(batch_size, use_pool, scalar);
      for (int64_t r = 1; r < repeats; ++r) {
        RunResult next = run_once(batch_size, use_pool, scalar);
        if (next.seconds < best.seconds) best.seconds = next.seconds;
      }
      return best;
    };

    const RunResult scalar = run_best(0, /*use_pool=*/false, /*scalar=*/true);
    const double scalar_fps = static_cast<double>(all_frames.size()) / scalar.seconds;

    std::vector<SweepPoint> sweep;
    // Best cold-path speedup at batch 512 across variants: on a many-core
    // host the pooled end-to-end run wins, on a small machine the direct
    // kernel does. Either way it is the cold path the profiler would take.
    double speedup_at_512 = 0.0;
    double columnar_512_fps = 0.0;
    double pool_512_fps = 0.0;
    for (bool use_pool : {false, true}) {
      for (int64_t batch_size : batch_sizes) {
        RunResult run = run_best(batch_size, use_pool, /*scalar=*/false);
        SweepPoint point;
        point.variant = use_pool ? "columnar+pool" : "columnar";
        point.batch_size = batch_size;
        point.seconds = run.seconds;
        point.fps = static_cast<double>(all_frames.size()) / run.seconds;
        point.speedup = point.fps / scalar_fps;
        point.identical = run.counts == scalar.counts;
        all_identical = all_identical && point.identical;
        if (batch_size == 512) {
          speedup_at_512 = std::max(speedup_at_512, point.speedup);
          (use_pool ? pool_512_fps : columnar_512_fps) = point.fps;
        }
        sweep.push_back(point);
      }
    }
    all_meet_target = all_meet_target && speedup_at_512 >= 3.0;
    const double pool_vs_serial_at_512 = pool_512_fps / columnar_512_fps;
    const bool preset_pool_gate = pool_is_parallel
                                      ? pool_vs_serial_at_512 > pool_gate_threshold
                                      : pool_vs_serial_at_512 >= pool_gate_threshold;
    pool_gate_pass = pool_gate_pass && preset_pool_gate;

    std::printf("--- %s ---\n", wl.label.c_str());
    util::TablePrinter table(
        {"variant", "batch size", "wall s", "frames/s", "vs scalar", "bit-identical"});
    table.AddRow({"scalar", "-", util::FormatDouble(scalar.seconds, 3),
                  util::FormatDouble(scalar_fps, 0), "1.00x", "(reference)"});
    for (const SweepPoint& point : sweep) {
      table.AddRow({point.variant, std::to_string(point.batch_size),
                    util::FormatDouble(point.seconds, 3), util::FormatDouble(point.fps, 0),
                    util::FormatDouble(point.speedup, 2) + "x",
                    point.identical ? "yes" : "NO"});
    }
    table.Print(std::cout);
    std::printf("best cold-path speedup at batch 512: %.2fx (target >= 3x)\n",
                speedup_at_512);
    std::printf("columnar+pool vs serial columnar at batch 512: %.3fx (%s: %s %.1fx)\n\n",
                pool_vs_serial_at_512, pool_is_parallel ? "strict" : "parity",
                pool_is_parallel ? ">" : ">=", pool_gate_threshold);

    if (!json_presets.empty()) json_presets += ",\n";
    json_presets += "    {\"preset\": \"" + wl.label + "\",\n";
    json_presets += "     \"scalar_seconds\": " + util::FormatDouble(scalar.seconds, 6) + ",\n";
    json_presets += "     \"scalar_fps\": " + util::FormatDouble(scalar_fps, 1) + ",\n";
    json_presets +=
        "     \"speedup_at_512\": " + util::FormatDouble(speedup_at_512, 3) + ",\n";
    json_presets +=
        "     \"columnar_512_fps\": " + util::FormatDouble(columnar_512_fps, 1) + ",\n";
    json_presets += "     \"pool_512_fps\": " + util::FormatDouble(pool_512_fps, 1) + ",\n";
    json_presets += "     \"pool_vs_serial_at_512\": " +
                    util::FormatDouble(pool_vs_serial_at_512, 3) + ",\n";
    json_presets +=
        std::string("     \"pool_gate_pass\": ") + (preset_pool_gate ? "true" : "false") + ",\n";
    json_presets += "     \"points\": [";
    for (size_t i = 0; i < sweep.size(); ++i) {
      if (i > 0) json_presets += ", ";
      json_presets += "{\"variant\": \"" + sweep[i].variant +
                      "\", \"batch_size\": " + std::to_string(sweep[i].batch_size) +
                      ", \"seconds\": " + util::FormatDouble(sweep[i].seconds, 6) +
                      ", \"fps\": " + util::FormatDouble(sweep[i].fps, 1) +
                      ", \"speedup\": " + util::FormatDouble(sweep[i].speedup, 3) +
                      ", \"identical\": " + (sweep[i].identical ? "true" : "false") + "}";
    }
    json_presets += "]}";
  }

  const bool pass = all_identical && all_meet_target && pool_gate_pass;

  std::ofstream json(out_path, std::ios::trunc);
  if (json) {
    json << "{\n  \"bench\": \"ext_kernel_throughput\",\n"
         << "  \"frames\": " << frames << ",\n"
         << "  \"pool_threads\": " << pool.num_threads() << ",\n"
         << "  \"repeats\": " << repeats << ",\n"
         << "  \"target_speedup_at_512\": 3.0,\n"
         << "  \"pool_gate_mode\": \"" << (pool_is_parallel ? "strict" : "parity") << "\",\n"
         << "  \"pool_gate_threshold\": " << util::FormatDouble(pool_gate_threshold, 2)
         << ",\n"
         << "  \"presets\": [\n"
         << json_presets << "\n  ],\n"
         << "  \"all_counts_identical\": " << (all_identical ? "true" : "false") << ",\n"
         << "  \"pool_gate_pass\": " << (pool_gate_pass ? "true" : "false") << ",\n"
         << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
    std::printf("results written to %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
  }

  std::printf("counts bit-identical across all variants: %s\n", all_identical ? "yes" : "NO");
  std::printf("batch-512 speedup >= 3x on both presets: %s\n",
              all_meet_target ? "yes" : "NO");
  std::printf("columnar+pool %s serial columnar at batch 512 on both presets: %s\n",
              pool_is_parallel ? "beats" : "within 10% of", pool_gate_pass ? "yes" : "NO");
  return pass ? 0 : 1;
}
