// Serving-layer scaling: what does the engine::Runtime's cross-session
// sharing buy under concurrent clients?
//
// BlazeIt and NoScope place the serving win in sharing inference across
// queries over the same video; Smokescreen-as-a-service (§3.1) has the same
// shape — many administrators profiling the same camera feed. This bench
// pits two deployments against each other at {1, 4, 16} concurrent clients
// on both §5.1 presets:
//
//   isolated — one private workload per client (the "N single-tenant
//              processes" baseline): every client pays its own model
//              invocations into its own cold output cache.
//   shared   — one Runtime workload handle for everyone: the source's
//              in-flight claims make cross-session computation exactly-once,
//              so client B rides on the misses client A already paid for.
//
// Each client runs the four-aggregate admin workload (AVG/SUM/COUNT/MAX over
// the same seed) and profiles a small candidate grid. The detector is
// wrapped in a busy-spin cost model (default 50us/frame, flag-tunable) so
// invocations carry a realistic CPU-bound price — busy-wait, NOT sleep,
// because sleeping threads would overlap for free and hide the contention a
// real inference client creates.
//
// Checks (exit 1 on failure):
//   * shared-vs-isolated profiles are bit-identical at every client count;
//   * shared cold throughput at 16 clients is >= 2x the isolated baseline;
//   * with the ProfileCache primed, repeat requests generate nothing.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/candidate_design.h"
#include "detect/models.h"
#include "engine/runtime.h"
#include "engine/session.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "video/presets.h"

using namespace smokescreen;

namespace {

// SimYoloV4 with a busy-spin per-frame inference cost. Counts are untouched,
// so every determinism/bit-identity invariant carries over; only misses that
// actually reach the model pay the spin (the whole point of sharing).
class CostModelYolo : public detect::Detector {
 public:
  explicit CostModelYolo(int64_t per_frame_ns) : per_frame_ns_(per_frame_ns) {}

  const std::string& name() const override { return inner_.name(); }
  uint64_t model_id() const override { return inner_.model_id(); }
  int max_resolution() const override { return inner_.max_resolution(); }
  int resolution_stride() const override { return inner_.resolution_stride(); }

  util::Result<int> CountDetections(const video::VideoDataset& dataset, int64_t frame_index,
                                    int resolution, video::ObjectClass cls,
                                    double contrast_scale) const override {
    Spin(1);
    return inner_.CountDetections(dataset, frame_index, resolution, cls, contrast_scale);
  }

  util::Status CountBatch(const video::VideoDataset& dataset,
                          std::span<const int64_t> frame_indices, int resolution,
                          video::ObjectClass cls, double contrast_scale,
                          std::span<int> out) const override {
    Spin(static_cast<int64_t>(frame_indices.size()));
    return inner_.CountBatch(dataset, frame_indices, resolution, cls, contrast_scale, out);
  }

 private:
  void Spin(int64_t frames) const {
    if (per_frame_ns_ <= 0) return;
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::nanoseconds(per_frame_ns_ * frames);
    while (std::chrono::steady_clock::now() < until) {
    }
  }

  detect::SimYoloV4 inner_;
  int64_t per_frame_ns_;
};

// Builds one adopted workload (dataset + cost-model detector + prior) for
// `preset`. Adopted handles never enter the runtime's share map, so "shared"
// vs "isolated" is exactly "one handle for all clients" vs "one per client".
engine::WorkloadHandle AdoptArm(engine::Runtime& runtime, video::ScenePreset preset,
                                int64_t frames, int64_t per_frame_us,
                                const std::string& label) {
  auto scaled = video::MakePresetScaled(preset, frames);
  scaled.status().CheckOk();
  auto dataset = std::make_unique<video::VideoDataset>(std::move(scaled).ValueOrDie());
  auto detector = std::make_unique<CostModelYolo>(per_frame_us * 1000);
  detect::SimYoloV4 person;
  detect::SimMtcnn face;
  auto prior = detect::ClassPriorIndex::Build(*dataset, person, face);
  prior.status().CheckOk();
  auto workload = runtime.AdoptWorkload(
      label, std::move(dataset), std::move(detector),
      std::make_unique<detect::ClassPriorIndex>(std::move(prior).ValueOrDie()),
      video::ObjectClass::kCar);
  workload.status().CheckOk();
  return *workload;
}

const query::AggregateFunction kAdminAggregates[] = {
    query::AggregateFunction::kAvg, query::AggregateFunction::kSum,
    query::AggregateFunction::kCount, query::AggregateFunction::kMax};

engine::SessionConfig ClientConfig(query::AggregateFunction aggregate, bool use_cache) {
  engine::SessionConfig config;
  config.spec.aggregate = aggregate;
  config.seed = 2717;
  config.use_profile_cache = use_cache;
  config.profiler.use_correction_set = false;
  config.profiler.early_stop = false;
  return config;
}

struct PassResult {
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  int64_t invocations = 0;  // Summed over every workload the pass touched.
  core::ProfileHandle avg_profile;  // One client's AVG profile (identity check).
};

// Runs `clients` concurrent clients, each profiling all four aggregates
// against its assigned workload handle. Invocation accounting is the DELTA
// across the pass, so warm reruns report what the pass itself paid.
PassResult RunPass(engine::Runtime& runtime,
                   const std::vector<engine::WorkloadHandle>& per_client,
                   const std::vector<degrade::InterventionSet>& grid, bool use_cache) {
  std::vector<int64_t> before;
  for (const auto& handle : per_client) before.push_back(handle->source().model_invocations());

  const int clients = static_cast<int>(per_client.size());
  std::vector<core::ProfileHandle> avg_profiles(clients);
  std::vector<std::thread> threads;
  util::Timer timer;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (query::AggregateFunction aggregate : kAdminAggregates) {
        auto session = runtime.StartSession(per_client[c], ClientConfig(aggregate, use_cache));
        session.status().CheckOk();
        auto profile = (*session)->Profile(grid);
        profile.status().CheckOk();
        if (aggregate == query::AggregateFunction::kAvg) avg_profiles[c] = *profile;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  PassResult result;
  result.seconds = timer.ElapsedSeconds();
  result.requests_per_sec =
      static_cast<double>(clients * std::size(kAdminAggregates)) / result.seconds;
  for (int c = 0; c < clients; ++c) {
    // Shared passes hand the same handle to every client: count it once.
    if (c == 0 || per_client[c].get() != per_client[0].get()) {
      result.invocations += per_client[c]->source().model_invocations() - before[c];
    }
  }
  result.avg_profile = avg_profiles[0];
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::MetricsDumpGuard metrics_guard(argc, argv);
  int64_t frames = 2000;
  int64_t per_frame_us = 50;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--frames") {
      frames = bench::IntFlagValue(argc, argv, i);
    } else if (arg == "--per-frame-us") {
      per_frame_us = bench::IntFlagValue(argc, argv, i);
    } else {
      std::fprintf(stderr,
                   "usage: ext_serving_throughput [--frames N] [--per-frame-us N]"
                   " [--metrics-out P]\n");
      return 2;
    }
  }

  std::printf("=== Serving throughput: shared runtime vs isolated clients ===\n");
  std::printf("(%lld frames/preset, %lldus busy-spin per model frame, 4 queries/client)\n\n",
              static_cast<long long>(frames), static_cast<long long>(per_frame_us));

  auto runtime = engine::Runtime::Create({});
  runtime.status().CheckOk();

  // Small but two-knob grid: 2 fractions x 2 resolutions.
  std::vector<degrade::InterventionSet> grid;
  for (double fraction : {0.05, 0.10}) {
    for (int resolution : {320, 608}) {
      degrade::InterventionSet iv;
      iv.sample_fraction = fraction;
      iv.resolution = resolution;
      grid.push_back(iv);
    }
  }

  const video::ScenePreset presets[] = {video::ScenePreset::kUaDetrac,
                                        video::ScenePreset::kNightStreet};
  const int client_counts[] = {1, 4, 16};
  bool ok = true;

  for (video::ScenePreset preset : presets) {
    const std::string preset_name = video::ScenePresetName(preset);
    util::TablePrinter table({"clients", "arm", "cold s", "req/s", "model invocations",
                              "warm s", "speedup vs isolated"});
    for (int clients : client_counts) {
      // Fresh workloads per cell so every cold pass is genuinely cold.
      std::vector<engine::WorkloadHandle> isolated;
      for (int c = 0; c < clients; ++c) {
        isolated.push_back(AdoptArm(**runtime, preset, frames, per_frame_us,
                                    preset_name + "/iso" + std::to_string(clients) + "." +
                                        std::to_string(c)));
      }
      std::vector<engine::WorkloadHandle> shared(
          clients, AdoptArm(**runtime, preset, frames, per_frame_us,
                            preset_name + "/shared" + std::to_string(clients)));

      PassResult iso_cold = RunPass(**runtime, isolated, grid, /*use_cache=*/false);
      PassResult iso_warm = RunPass(**runtime, isolated, grid, /*use_cache=*/false);
      PassResult shr_cold = RunPass(**runtime, shared, grid, /*use_cache=*/false);
      PassResult shr_warm = RunPass(**runtime, shared, grid, /*use_cache=*/false);
      double speedup = shr_cold.requests_per_sec / iso_cold.requests_per_sec;

      table.AddRow({std::to_string(clients), "isolated",
                    util::FormatDouble(iso_cold.seconds, 3),
                    util::FormatDouble(iso_cold.requests_per_sec, 1),
                    std::to_string(iso_cold.invocations),
                    util::FormatDouble(iso_warm.seconds, 3), "1.0"});
      table.AddRow({std::to_string(clients), "shared",
                    util::FormatDouble(shr_cold.seconds, 3),
                    util::FormatDouble(shr_cold.requests_per_sec, 1),
                    std::to_string(shr_cold.invocations),
                    util::FormatDouble(shr_warm.seconds, 3),
                    util::FormatDouble(speedup, 2) + "x"});

      // Sharing must not change a single bit of any client's answer.
      if (!engine::ProfilesBitIdentical(*iso_cold.avg_profile, *shr_cold.avg_profile)) {
        std::fprintf(stderr, "%s @%d clients: shared profile diverged from isolated\n",
                     preset_name.c_str(), clients);
        ok = false;
      }
      // The shared arm pays ONE client's bill regardless of the fan-out.
      if (shr_cold.invocations != iso_cold.invocations / clients) {
        std::fprintf(stderr,
                     "%s @%d clients: shared paid %lld invocations, expected %lld\n",
                     preset_name.c_str(), clients,
                     static_cast<long long>(shr_cold.invocations),
                     static_cast<long long>(iso_cold.invocations / clients));
        ok = false;
      }
      if (clients == 16 && speedup < 2.0) {
        std::fprintf(stderr, "%s @16 clients: shared speedup %.2fx < 2x floor\n",
                     preset_name.c_str(), speedup);
        ok = false;
      }
    }
    std::printf("--- %s ---\n", preset_name.c_str());
    table.Print(std::cout);
    std::printf("\n");
  }

  // ProfileCache arm: prime the four profiles serially, then 16 clients of
  // repeat requests must be served from memory with zero generation.
  {
    engine::WorkloadHandle cached =
        AdoptArm(**runtime, video::ScenePreset::kUaDetrac, frames, per_frame_us, "cache-arm");
    std::vector<engine::WorkloadHandle> solo{cached};
    RunPass(**runtime, solo, grid, /*use_cache=*/true);  // Prime.
    const int64_t hits_before = (*runtime)->profile_cache().hits();
    const int64_t invocations_before = cached->source().model_invocations();
    std::vector<engine::WorkloadHandle> repeat(16, cached);
    PassResult warm = RunPass(**runtime, repeat, grid, /*use_cache=*/true);
    const int64_t hits = (*runtime)->profile_cache().hits() - hits_before;
    std::printf("profile cache: 64 repeat requests in %s s, %lld hits, %lld invocations\n",
                util::FormatDouble(warm.seconds, 3).c_str(), static_cast<long long>(hits),
                static_cast<long long>(cached->source().model_invocations() -
                                       invocations_before));
    if (hits != 64 || cached->source().model_invocations() != invocations_before) {
      std::fprintf(stderr, "profile cache failed to serve all repeat requests\n");
      ok = false;
    }
  }

  std::printf("%s\n", ok ? "serving checks passed" : "serving checks FAILED");
  return ok ? 0 : 1;
}
