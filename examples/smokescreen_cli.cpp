// smokescreen_cli — the administrator's command-line front end.
//
// Generate a degradation-accuracy profile, persist it, choose a tradeoff
// against a public-preference error budget, and report what the chosen
// degradation buys (bandwidth / energy / privacy):
//
//   smokescreen_cli --dataset ua-detrac --model yolov4 --agg AVG
//       --frames 4000 --max-error 0.15 --profile-out /tmp/profile.csv
//
//   smokescreen_cli --profile-in /tmp/profile.csv --max-error 0.10
//
// The CLI is a thin client of engine::Runtime: one Runtime owns the shared
// executor, the metrics registry, the per-(dataset, model) output cache and
// the profile cache, and every request runs as an engine::Session. With
// --clients N the same query is served to N concurrent sessions — they share
// one workload (one memo cache, cross-session exactly-once misses) and the
// CLI asserts the N profiles are bit-identical to the serial answer.
//
// Flags:
//   --dataset night-street|ua-detrac|MVI_40771|MVI_40775   (default ua-detrac)
//   --model   yolov4|maskrcnn                              (default yolov4)
//   --agg     AVG|SUM|COUNT|MAX|MIN|VAR                    (default AVG)
//   --frames  N        scale the preset to N frames        (default full)
//   --max-error X      error budget for choosing a tradeoff (default 0.15)
//   --restrict a,b     classes that MUST be removed (person/face)
//   --profile-out P    save the generated profile as CSV
//   --query "Q"        declarative spelling, e.g.
//                      "SELECT COUNT(car >= 8) FROM ua-detrac USING yolov4"
//                      (overrides --dataset/--model/--agg)
//   --profile-in P     skip generation; choose from a saved profile
//   --slices           render the three initial cube slices (§3.1) as plots
//   --seed S           RNG seed                            (default 2026)
//   --threads N        shared executor width; 0 = hardware concurrency
//                      (default 0; the profile is bit-identical at any N)
//   --batch-size N     cap frames per batched model invocation; 0 = unlimited
//                      (default 0; results are identical at any N)
//   --clients N        serve the profile request to N concurrent sessions
//                      over the shared workload (default 1); the profiles
//                      must be bit-identical at any N
//   --output-store P   warm-start the output cache from P when it exists,
//                      and save the cache back to P after the run
//   --metrics-out P    write a JSON snapshot of the process-wide metrics
//                      registry (counters/gauges/histograms) to P at exit;
//                      the snapshot's output_source.* counters equal the
//                      printed "accounting:" line exactly

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/admin_session.h"
#include "core/candidate_design.h"
#include "core/profile_io.h"
#include "core/profiler.h"
#include "core/tradeoff.h"
#include "degrade/cost_model.h"
#include "engine/runtime.h"
#include "engine/session.h"
#include "query/output_store.h"
#include "query/parser.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "video/presets.h"

using namespace smokescreen;

namespace {

struct Flags {
  std::string dataset = "ua-detrac";
  std::string model = "yolov4";
  std::string aggregate = "AVG";
  int64_t frames = 0;
  double max_error = 0.15;
  std::string restrict_classes;
  std::string profile_out;
  std::string profile_in;
  std::string query_text;
  bool slices = false;
  uint64_t seed = 2026;
  int threads = 0;            // 0 = hardware concurrency.
  int64_t batch_size = 0;     // 0 = unlimited.
  int clients = 1;
  std::string output_store;
  std::string metrics_out;
};

util::Result<Flags> ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> util::Result<std::string> {
      if (i + 1 >= argc) return util::Status::InvalidArgument("missing value for " + arg);
      return std::string(argv[++i]);
    };
    if (arg == "--dataset") {
      SMK_ASSIGN_OR_RETURN(flags.dataset, next());
    } else if (arg == "--model") {
      SMK_ASSIGN_OR_RETURN(flags.model, next());
    } else if (arg == "--agg") {
      SMK_ASSIGN_OR_RETURN(flags.aggregate, next());
    } else if (arg == "--frames") {
      SMK_ASSIGN_OR_RETURN(std::string v, next());
      SMK_ASSIGN_OR_RETURN(flags.frames, util::ParseInt(v));
    } else if (arg == "--max-error") {
      SMK_ASSIGN_OR_RETURN(std::string v, next());
      SMK_ASSIGN_OR_RETURN(flags.max_error, util::ParseDouble(v));
    } else if (arg == "--threads") {
      SMK_ASSIGN_OR_RETURN(std::string v, next());
      SMK_ASSIGN_OR_RETURN(int64_t threads, util::ParseInt(v));
      if (threads < 0 || threads > std::numeric_limits<int>::max()) {
        return util::Status::InvalidArgument(
            "--threads must be in [0, 2147483647] (0 = hardware concurrency)");
      }
      flags.threads = static_cast<int>(threads);
    } else if (arg == "--batch-size") {
      SMK_ASSIGN_OR_RETURN(std::string v, next());
      SMK_ASSIGN_OR_RETURN(flags.batch_size, util::ParseInt(v));
      if (flags.batch_size < 0) {
        return util::Status::InvalidArgument("--batch-size must be >= 0 (0 = unlimited)");
      }
    } else if (arg == "--clients") {
      SMK_ASSIGN_OR_RETURN(std::string v, next());
      SMK_ASSIGN_OR_RETURN(int64_t clients, util::ParseInt(v));
      if (clients < 1 || clients > std::numeric_limits<int>::max()) {
        return util::Status::InvalidArgument("--clients must be in [1, 2147483647]");
      }
      flags.clients = static_cast<int>(clients);
    } else if (arg == "--output-store") {
      SMK_ASSIGN_OR_RETURN(flags.output_store, next());
      if (flags.output_store.empty()) {
        return util::Status::InvalidArgument("--output-store path must be non-empty");
      }
    } else if (arg == "--metrics-out") {
      SMK_ASSIGN_OR_RETURN(flags.metrics_out, next());
      if (flags.metrics_out.empty()) {
        return util::Status::InvalidArgument("--metrics-out path must be non-empty");
      }
    } else if (arg == "--restrict") {
      SMK_ASSIGN_OR_RETURN(flags.restrict_classes, next());
    } else if (arg == "--profile-out") {
      SMK_ASSIGN_OR_RETURN(flags.profile_out, next());
    } else if (arg == "--profile-in") {
      SMK_ASSIGN_OR_RETURN(flags.profile_in, next());
    } else if (arg == "--query") {
      SMK_ASSIGN_OR_RETURN(flags.query_text, next());
    } else if (arg == "--slices") {
      flags.slices = true;
    } else if (arg == "--seed") {
      SMK_ASSIGN_OR_RETURN(std::string v, next());
      SMK_ASSIGN_OR_RETURN(int64_t seed, util::ParseInt(v));
      flags.seed = static_cast<uint64_t>(seed);
    } else if (arg == "--help" || arg == "-h") {
      return util::Status::InvalidArgument("help requested");
    } else {
      return util::Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  return flags;
}

/// End-of-run observability: prints the exact invocation/hit accounting (the
/// line CI parses against the JSON export) and, when requested, snapshots
/// the runtime's registry to `metrics_out` atomically.
void DumpMetrics(const engine::Runtime& runtime, const query::FrameOutputSource& source,
                 const std::string& metrics_out) {
  std::printf("accounting: model_invocations=%lld cache_hits=%lld\n",
              static_cast<long long>(source.model_invocations()),
              static_cast<long long>(source.cache_hits()));
  if (metrics_out.empty()) return;
  util::MetricsSnapshot snapshot = runtime.registry().Snapshot();
  snapshot.WriteJson(runtime.env(), metrics_out).CheckOk();
  std::printf("metrics written to %s\n", metrics_out.c_str());
}

int Run(Flags flags) {
  // A declarative --query overrides --dataset/--model/--agg.
  query::QuerySpec parsed_spec;
  bool have_parsed_spec = false;
  if (!flags.query_text.empty()) {
    auto parsed = query::ParseQuery(flags.query_text);
    parsed.status().CheckOk();
    parsed_spec = parsed->spec;
    have_parsed_spec = true;
    flags.dataset = parsed->dataset;
    flags.model = parsed->model;
    flags.aggregate = query::AggregateFunctionName(parsed->spec.aggregate);
  }
  // Load the profile early when replaying one: its provenance names the
  // dataset/model the workload must be built from.
  core::ProfileHandle profile;
  if (!flags.profile_in.empty()) {
    auto loaded = core::LoadProfile(flags.profile_in);
    loaded.status().CheckOk();
    profile = core::MakeProfileHandle(std::move(*loaded));
    std::printf("loaded profile: %zu points, %s on %s/%s\n", profile->points.size(),
                query::AggregateFunctionName(profile->spec.aggregate),
                profile->dataset_name.c_str(), profile->detector_name.c_str());
  }

  const std::string dataset_name =
      flags.profile_in.empty() ? flags.dataset : profile->dataset_name;
  auto preset = engine::PresetByName(dataset_name);
  // A loaded profile's dataset may be a scaled variant; fall back by prefix.
  video::ScenePreset scene = video::ScenePreset::kUaDetrac;
  if (preset.ok()) {
    scene = *preset;
  } else {
    for (const char* candidate : {"night-street", "ua-detrac", "MVI_40771", "MVI_40775"}) {
      if (util::StartsWith(dataset_name, candidate)) {
        scene = *engine::PresetByName(candidate);
      }
    }
  }

  // One Runtime per process: shared executor, registry, workloads, caches.
  engine::RuntimeOptions runtime_opts;
  runtime_opts.num_threads = flags.threads;
  runtime_opts.max_batch_size = flags.batch_size;
  runtime_opts.default_seed = flags.seed;
  auto runtime = engine::Runtime::Create(runtime_opts);
  runtime.status().CheckOk();

  engine::WorkloadDesc desc;
  desc.preset = scene;
  desc.frames = flags.frames;
  desc.detector_name = flags.model;
  desc.target_class = video::ObjectClass::kCar;
  desc.output_store_path = flags.output_store;
  auto workload = (*runtime)->GetWorkload(desc);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  if (!flags.output_store.empty()) {
    if (!(*workload)->warm_start_damage().empty()) {
      std::fprintf(stderr, "warning: %s is damaged (%s); loading verified columns only\n",
                   flags.output_store.c_str(), (*workload)->warm_start_damage().c_str());
    }
    if ((*workload)->warm_start_entries() > 0) {
      std::printf("warm-started %lld cached outputs from %s\n",
                  static_cast<long long>((*workload)->warm_start_entries()),
                  flags.output_store.c_str());
    }
  }

  query::QuerySpec spec;
  if (have_parsed_spec) {
    spec = parsed_spec;
  } else if (flags.profile_in.empty()) {
    auto agg = query::AggregateFunctionFromName(flags.aggregate);
    agg.status().CheckOk();
    spec.aggregate = *agg;
  } else {
    spec = profile->spec;
  }

  engine::SessionConfig session_config;
  session_config.spec = spec;
  session_config.seed = flags.seed;
  session_config.profiler.use_correction_set = true;
  session_config.profiler.early_stop = false;
  auto session = (*runtime)->StartSession(*workload, session_config);
  session.status().CheckOk();

  if (flags.profile_in.empty()) {
    core::CandidateGridOptions grid_opts;
    grid_opts.min_fraction = 0.05;
    grid_opts.max_fraction = 0.50;
    grid_opts.fraction_step = 0.05;
    grid_opts.num_resolutions = 5;
    grid_opts.include_class_combinations = true;
    for (const std::string& name : util::Split(flags.restrict_classes, ',')) {
      if (name.empty()) continue;
      auto cls = video::ObjectClassFromName(std::string(util::Trim(name)));
      cls.status().CheckOk();
      grid_opts.required_restricted.Add(*cls);
    }
    auto grid = core::BuildCandidateGrid((*workload)->detector(), grid_opts);
    grid.status().CheckOk();
    std::printf("profiling %zu candidates on %s (%lld frames) ...\n", grid->size(),
                (*workload)->dataset().name().c_str(),
                static_cast<long long>((*workload)->dataset().num_frames()));

    // The stage report of a session whose profile was generated; empty when
    // every client was served from the profile cache.
    std::optional<core::ProfilerReport> report;
    if (flags.clients > 1) {
      // Serving mode: N concurrent sessions ask for the same profile over
      // the shared workload. The memo cache dedups misses across sessions
      // (exactly-once) and every client must get the bit-identical answer.
      std::vector<core::ProfileHandle> handles(flags.clients);
      std::vector<int> from_cache(flags.clients, 0);
      std::vector<core::ProfilerReport> reports(flags.clients);
      std::vector<std::thread> clients;
      clients.reserve(flags.clients);
      for (int c = 0; c < flags.clients; ++c) {
        clients.emplace_back([&, c]() {
          auto client_session = (*runtime)->StartSession(*workload, session_config);
          client_session.status().CheckOk();
          auto handle = (*client_session)->Profile(*grid);
          handle.status().CheckOk();
          handles[c] = *handle;
          from_cache[c] = (*client_session)->last_profile_from_cache() ? 1 : 0;
          reports[c] = (*client_session)->last_report();
        });
      }
      for (std::thread& t : clients) t.join();
      int cache_hits = 0;
      bool identical = true;
      for (int c = 0; c < flags.clients; ++c) {
        cache_hits += from_cache[c];
        identical = identical && engine::ProfilesBitIdentical(*handles[0], *handles[c]);
      }
      std::printf("serving: clients=%d bit_identical=%s profile_cache_hits=%d\n",
                  flags.clients, identical ? "yes" : "NO", cache_hits);
      if (!identical) {
        std::fprintf(stderr, "concurrent sessions diverged from the serial profile\n");
        return 3;
      }
      profile = handles[0];
      // Only the clients profiled; report the first one that generated.
      auto generator = std::find(from_cache.begin(), from_cache.end(), 0);
      if (generator != from_cache.end()) report = reports[generator - from_cache.begin()];
    } else {
      auto generated = (*session)->Profile(*grid);
      generated.status().CheckOk();
      profile = *generated;
      report = (*session)->last_report();
    }
    std::printf("generated %zu profile points (%lld model invocations)\n",
                profile->points.size(),
                static_cast<long long>((*workload)->source().model_invocations()));
    if (report.has_value()) {
      std::printf(
          "profiling stages: correction %.3fs, hypercube %.3fs, total %.3fs\n"
          "  (%d threads, %lld groups, %lld invocations, %lld cache hits)\n",
          report->correction_seconds, report->groups_seconds, report->total_seconds,
          report->num_threads, static_cast<long long>(report->num_groups),
          static_cast<long long>(report->model_invocations),
          static_cast<long long>(report->cache_hits));
    } else {
      std::printf("profiling stages: every client was served from the profile cache\n");
    }
    if (!flags.profile_out.empty()) {
      core::SaveProfile(*profile, flags.profile_out).CheckOk();
      std::printf("profile saved to %s\n", flags.profile_out.c_str());
    }
  }

  const int max_resolution = (*workload)->detector().max_resolution();

  // Administration procedure (§3.1): show the three initial cube slices.
  if (flags.slices) {
    core::AdminSession admin(profile, max_resolution);
    for (const core::AdminSession::Slice& slice : admin.InitialSlices()) {
      auto plot = admin.RenderSlice(slice);
      if (plot.ok()) {
        std::printf("\n%s\n", plot->c_str());
      } else {
        std::printf("\n(slice \"%s\" empty: %s)\n", slice.title.c_str(),
                    plot.status().ToString().c_str());
      }
    }
  }

  // Choose a tradeoff against the budget.
  auto choice = core::ChooseTradeoff(*profile, flags.max_error, max_resolution);
  if (!choice.ok()) {
    std::printf("no candidate meets the %.1f%% budget: %s\n", flags.max_error * 100.0,
                choice.status().ToString().c_str());
    DumpMetrics(**runtime, (*workload)->source(), flags.metrics_out);
    return 1;
  }
  std::printf("\nchosen tradeoff: %s (bound %.2f%%)\n", choice->interventions.ToString().c_str(),
              choice->err_bound * 100.0);

  // What the degradation buys.
  auto savings = degrade::EstimateSavings((*workload)->dataset(), (*workload)->prior(),
                                          choice->interventions, max_resolution);
  savings.status().CheckOk();
  util::TablePrinter table({"benefit", "value"});
  table.AddRow({"frames transmitted", util::FormatPercent(savings->frames_fraction)});
  table.AddRow({"bytes transmitted", util::FormatPercent(savings->bytes_fraction)});
  table.AddRow({"energy (proxy)", util::FormatPercent(savings->energy_fraction)});
  table.AddRow({"restricted frames removed",
                util::FormatPercent(savings->restricted_removed_fraction)});
  table.AddRow({"faces still recognizable",
                util::FormatPercent(savings->faces_recognizable_fraction)});
  table.Print(std::cout);

  // Execute the degraded query through the session (shared memo cache,
  // per-call deterministic RNG stream).
  auto result = (*session)->Execute(choice->interventions);
  result.status().CheckOk();
  std::printf("\napproximate %s answer: %.4f (err bound %.2f%%, %lld frames processed)\n",
              query::AggregateFunctionName(spec.aggregate), result->estimate.y_approx,
              result->estimate.err_b * 100.0, static_cast<long long>(result->sample_size));

  if (!flags.output_store.empty()) {
    (*runtime)->SaveStore(*workload).CheckOk();
    query::OutputStore store = (*workload)->source().ExportStore();
    std::printf("output store saved to %s (%lld entries, %zu columns)\n",
                flags.output_store.c_str(), static_cast<long long>(store.TotalEntries()),
                store.columns().size());
  }
  DumpMetrics(**runtime, (*workload)->source(), flags.metrics_out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = ParseFlags(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n\nusage: smokescreen_cli [--dataset D] [--model M] [--agg A]\n"
                         "  [--frames N] [--max-error X] [--restrict person,face]\n"
                         "  [--profile-out P | --profile-in P] [--seed S] [--threads N]\n"
                         "  [--batch-size N] [--clients N]\n"
                         "  [--output-store P] [--metrics-out P]\n",
                 flags.status().ToString().c_str());
    return 2;
  }
  return Run(*flags);
}
