#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <optional>
#include <set>
#include <thread>

#include "core/candidate_design.h"
#include "detect/class_prior_index.h"
#include "detect/models.h"
#include "query/output_store.h"
#include "stats/rng.h"
#include "util/thread_pool.h"
#include "video/scene_index.h"

namespace perfbench {

using smk::engine::Runtime;
using smk::engine::WorkloadHandle;
using smk::query::AggregateFunction;

namespace {

/// The administrator's error budget when choosing a tradeoff.
constexpr double kMaxError = 0.15;
/// Cold rounds per phase, at least: two rounds of the same request must agree.
constexpr int64_t kMinRounds = 2;
/// Warm requests per client, at least: the digest set, re-opens included.
constexpr int64_t kMinRequests = kWarmDigestRequests;
/// Cold rounds: Session::Execute calls after each profile. Few, because the
/// chosen tradeoff, and so the execute cost, changes with the seed.
constexpr int kExecutesPerRound = 2;
/// Warm: set-ups per run, of which the median is reported (the cold
/// workloads set up once per round). One takes about 30 ms.
constexpr int kWarmSetups = 20;

void Fail(PhaseStats* stats, const std::string& what, const Status& status) {
  ++stats->failed;
  stats->errors.push_back(what + ": " + status.ToString());
}

void RecordGenerated(const smk::engine::Session& session, double wall, PhaseStats* stats) {
  const smk::core::ProfilerReport& report = session.last_report();
  stats->profile_s.push_back(wall);
  stats->engine_self_s.push_back(wall - report.total_seconds);
  stats->model_invocations.push_back(static_cast<double>(report.model_invocations));
}

/// Persists the workload's memo with Runtime::SaveStore, which is
/// ExportStore + OutputStore::Save, under one query-layer span.
Status Checkpoint(Runtime& runtime, const WorkloadHandle& workload, const std::string& path,
                  SpanLog* log, PhaseStats* stats) {
  ++stats->attempted;
  Scope scope(log, "query.store_save");
  Status status = runtime.SaveStore(workload, path);
  const double seconds = scope.Stop();
  if (!status.ok()) return status;
  stats->checkpoint_s.push_back(seconds);
  std::error_code ec;
  stats->store_bytes.push_back(static_cast<double>(std::filesystem::file_size(path, ec)));
  return Status::OK();
}

void AddKernel(const TimedDetector* kernel, PhaseStats* stats) {
  if (kernel == nullptr) return;
  stats->kernel_ns += kernel->busy_ns();
  stats->kernel_calls += kernel->calls();
  stats->kernel_frames += kernel->frames();
}

std::string CheckpointPath(const RunContext& ctx) {
  return ctx.out_dir + "/" + ctx.config.name + "-seed" + std::to_string(ctx.seed) +
         "-checkpoint.smkc";
}

/// Cold rounds: each builds a fresh workload, then profile -> choose ->
/// executes, then a checkpoint. Every round issues the same request.
void RunRounds(const RunContext& ctx, Runtime& runtime, double seconds, SpanLog* log,
               PhaseStats* stats) {
  const AggregateFunction aggregate = ctx.config.aggregates.front();
  const int64_t start = NowNs();
  double round_seconds = 0.0;
  for (int64_t round = 0;; ++round) {
    const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
    // Start a round only while half of an average round still fits.
    if (round >= kMinRounds && elapsed + 0.5 * round_seconds / round >= seconds) break;
    Scope round_scope(log, "bench.round", round);
    if (log != nullptr) log->set_ambient_request(round);

    // One workload in memory at a time; trimming lets peak_rss_mb measure
    // one workload, not the allocator's leftovers from earlier rounds.
    stats->workload.reset();
    TrimHeap();
    const TimedDetector* kernel = nullptr;
    ++stats->attempted;
    auto workload = SetUp(ctx, runtime, ctx.config.name + "#" + std::to_string(round), log,
                          log != nullptr ? &kernel : nullptr, stats);
    if (!workload.ok()) return Fail(stats, "set-up", workload.status());
    stats->workload = *workload;

    auto session = runtime.StartSession(stats->workload,
                                        RequestConfig(aggregate, RequestSeed(ctx.seed, 0, 0)));
    if (!session.ok()) return Fail(stats, "session", session.status());
    const int64_t request_start = NowNs();
    ++stats->attempted;
    Scope profile_scope(log, "engine.profile");
    auto profile = (*session)->Profile(ctx.grid);
    const double profile_wall = profile_scope.Stop();
    if (!profile.ok()) return Fail(stats, "profile", profile.status());
    if ((*session)->last_profile_from_cache()) {
      return Fail(stats, "profile", Status::Internal("cold profile served from the cache"));
    }
    RecordGenerated(**session, profile_wall, stats);
    if (stats->checked.empty()) {
      stats->checked.push_back({0, 0, aggregate, (*session)->seed(), *profile});
    } else if (!smk::engine::ProfilesBitIdentical(*stats->checked.front().profile, **profile)) {
      stats->rounds_agree = false;
    }

    Scope choose_scope(log, "engine.choose");
    auto choice = (*session)->ChooseTradeoff(kMaxError);
    choose_scope.Stop();
    if (!choice.ok()) return Fail(stats, "choose", choice.status());
    if (round == 0) stats->first_choice = choice->interventions.ToString();
    for (int e = 0; e < kExecutesPerRound; ++e) {
      ++stats->attempted;
      Scope execute_scope(log, "engine.execute");
      auto answer = (*session)->Execute(choice->interventions);
      const double execute_wall = execute_scope.Stop();
      if (!answer.ok()) return Fail(stats, "execute", answer.status());
      stats->execute_s.push_back(execute_wall);
    }
    stats->request_seconds += static_cast<double>(NowNs() - request_start) * 1e-9;
    ++stats->requests;

    Status saved = Checkpoint(runtime, stats->workload, CheckpointPath(ctx), log, stats);
    if (!saved.ok()) return Fail(stats, "checkpoint", saved);
    AddKernel(kernel, stats);
    round_seconds += round_scope.Stop();
  }
}

/// One closed-loop client of the warm workload.
void ServeClient(const RunContext& ctx, Runtime& runtime, const WorkloadHandle& workload,
                 int client, int64_t deadline_ns, SpanLog* log, PhaseStats* stats) {
  const std::vector<AggregateFunction>& aggregates = ctx.config.aggregates;
  std::optional<smk::engine::SessionConfig> previous;
  for (int64_t i = 0; i < kMinRequests || NowNs() < deadline_ns; ++i) {
    const int64_t request = static_cast<int64_t>(client) * 1000000 + i;
    Scope request_scope(log, "bench.request", request);
    const bool reopen = i % kReopenEvery == kReopenEvery - 1 && previous.has_value();
    const AggregateFunction aggregate =
        aggregates[static_cast<size_t>(client + i) % aggregates.size()];
    smk::engine::SessionConfig config =
        reopen ? *previous : RequestConfig(aggregate, RequestSeed(ctx.seed, client, i));
    ++stats->attempted;
    auto session = runtime.StartSession(workload, config);
    if (!session.ok()) return Fail(stats, "session", session.status());
    Scope profile_scope(log, "engine.profile");
    auto profile = (*session)->Profile(ctx.grid);
    const double profile_wall = profile_scope.Stop();
    if (!profile.ok()) return Fail(stats, "profile", profile.status());
    if ((*session)->last_profile_from_cache() != reopen) {
      return Fail(stats, "profile",
                  Status::Internal(reopen ? "re-open missed the profile cache"
                                          : "fresh request served from the profile cache"));
    }
    if (!reopen) {
      RecordGenerated(**session, profile_wall, stats);
      if (InDigestSet(ctx.config, client, i)) {
        stats->checked.push_back({client, i, aggregate, (*session)->seed(), *profile});
      }
      Scope choose_scope(log, "engine.choose");
      auto choice = (*session)->ChooseTradeoff(kMaxError);
      choose_scope.Stop();
      if (!choice.ok()) return Fail(stats, "choose", choice.status());
      if (i == 0) stats->first_choice = choice->interventions.ToString();
      ++stats->attempted;
      Scope execute_scope(log, "engine.execute");
      auto answer = (*session)->Execute(choice->interventions);
      const double execute_wall = execute_scope.Stop();
      if (!answer.ok()) return Fail(stats, "execute", answer.status());
      stats->execute_s.push_back(execute_wall);
      previous = config;
    }
    ++stats->requests;
    request_scope.Stop();
    if (client == 0 && (i + 1) % kReopenEvery == 0) {
      Status saved = Checkpoint(runtime, workload, CheckpointPath(ctx), log, stats);
      if (!saved.ok()) return Fail(stats, "checkpoint", saved);
    }
  }
}

template <typename T>
void Append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Warm workload: repeated set-ups from the checkpoint (the last one
/// serves), then closed-loop clients until the deadline.
void RunServe(const RunContext& ctx, Runtime& runtime, double seconds, SpanLog* log,
              PhaseStats* stats) {
  const TimedDetector* kernel = nullptr;
  for (int s = 0; s < kWarmSetups; ++s) {
    stats->workload.reset();
    ++stats->attempted;
    auto workload =
        SetUp(ctx, runtime, ctx.config.name, log, log != nullptr ? &kernel : nullptr, stats);
    if (!workload.ok()) return Fail(stats, "set-up", workload.status());
    stats->workload = *workload;
  }

  std::vector<PhaseStats> clients(static_cast<size_t>(ctx.config.clients));
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < ctx.config.clients; ++c) {
      threads.emplace_back([&, c]() {
        ServeClient(ctx, runtime, stats->workload, c, deadline, log,
                    &clients[static_cast<size_t>(c)]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  stats->request_seconds = static_cast<double>(NowNs() - start) * 1e-9;
  AddKernel(kernel, stats);  // Set-up runs no kernel through the workload's model.
  for (const PhaseStats& c : clients) {
    Append(stats->profile_s, c.profile_s);
    Append(stats->engine_self_s, c.engine_self_s);
    Append(stats->execute_s, c.execute_s);
    Append(stats->checkpoint_s, c.checkpoint_s);
    Append(stats->store_bytes, c.store_bytes);
    Append(stats->model_invocations, c.model_invocations);
    Append(stats->errors, c.errors);
    Append(stats->checked, c.checked);
    if (stats->first_choice.empty()) stats->first_choice = c.first_choice;
    stats->requests += c.requests;
    stats->attempted += c.attempted;
    stats->failed += c.failed;
  }
}

}  // namespace

Result<WorkloadConfig> WorkloadByName(const std::string& name, bool reduced) {
  WorkloadConfig config;
  config.name = name;
  if (name == "ua-1m-cold") {
    config.preset = smk::video::ScenePreset::kUaDetrac;
    config.frames = reduced ? 200000 : 1000000;
    config.aggregates = {AggregateFunction::kAvg};
    // The calling thread joins every ParallelFor, so nproc - 1 workers keep
    // the profile at nproc threads. At nproc workers one thread more than
    // there are cores contends for them, and the run times the scheduler.
    config.width = std::max(1, smk::util::ThreadPool::ResolveThreadCount(0) - 1);
    config.coverage_profiles = 1;
    config.check_serial = false;
    // Three cycles cost about 30 s at reduced size; at 1M frames one cycle
    // already takes about 55 s of the run's 180.
    config.replay_cycles = reduced ? 3 : 1;
  } else if (name == "night-paper-serial") {
    config.preset = smk::video::ScenePreset::kNightStreet;
    config.aggregates = {AggregateFunction::kMax};
    config.width = 1;
    // Its profiles take about 50 ms and swing up to 1.4x from one run to the
    // next on a shared host. Ten cycles (21 width-1 and 20 pooled runs, about
    // 4 s) hold util.parallel_speedup, which the self-test expects near 1,
    // within a few percent.
    config.replay_cycles = 10;
  } else if (name == "ua-serve-warm") {
    config.preset = smk::video::ScenePreset::kUaDetrac;
    config.aggregates = {AggregateFunction::kAvg, AggregateFunction::kSum,
                         AggregateFunction::kCount, AggregateFunction::kMax};
    config.width = 2;
    config.clients = 2;
    config.warm = true;
  } else {
    return Status::NotFound("unknown workload: " + name);
  }
  return config;
}

smk::video::SceneConfig SceneFor(const WorkloadConfig& config, uint64_t seed) {
  smk::video::SceneConfig scene = smk::video::PresetConfig(config.preset);
  scene.seed = smk::stats::HashCombine({seed, scene.seed});
  if (config.frames > 0) scene.num_frames = config.frames;
  return scene;
}

Result<std::vector<smk::degrade::InterventionSet>> Grid(const smk::detect::Detector& detector) {
  smk::core::CandidateGridOptions options;
  options.min_fraction = 0.05;
  options.max_fraction = 0.50;
  options.fraction_step = 0.05;
  options.num_resolutions = 5;
  options.include_class_combinations = true;
  return smk::core::BuildCandidateGrid(detector, options);
}

smk::engine::SessionConfig RequestConfig(AggregateFunction aggregate, uint64_t session_seed) {
  smk::engine::SessionConfig config;
  config.spec.aggregate = aggregate;
  config.profiler.use_correction_set = true;
  config.profiler.early_stop = false;
  config.seed = session_seed;
  return config;
}

uint64_t RequestSeed(uint64_t workload_seed, int client, int64_t index) {
  return smk::stats::HashCombine({workload_seed, 0x5e55104eULL, static_cast<uint64_t>(client),
                                  static_cast<uint64_t>(index)});
}

bool InDigestSet(const WorkloadConfig& config, int client, int64_t index) {
  if (!config.warm) return client == 0 && index == 0;
  return index < kWarmDigestRequests;
}

Result<WorkloadHandle> SetUp(const RunContext& ctx, Runtime& runtime, const std::string& label,
                             SpanLog* log, const TimedDetector** kernel, PhaseStats* stats) {
  Scope setup_scope(log, "bench.setup");
  Scope simulate_scope(log, "video.simulate");
  auto dataset = smk::video::SimulateScene(SceneFor(ctx.config, ctx.seed));
  const double simulate_s = simulate_scope.Stop();
  SMK_RETURN_IF_ERROR(dataset.status());
  auto owned_dataset = std::make_unique<smk::video::VideoDataset>(std::move(*dataset));

  Scope prior_scope(log, "detect.prior");
  smk::detect::SimYoloV4 person_detector;
  smk::detect::SimMtcnn face_detector;
  auto prior =
      smk::detect::ClassPriorIndex::Build(*owned_dataset, person_detector, face_detector);
  const double prior_s = prior_scope.Stop();
  SMK_RETURN_IF_ERROR(prior.status());

  std::unique_ptr<smk::detect::Detector> detector = smk::detect::MakeSimYoloV4();
  if (kernel != nullptr) {
    auto timed = std::make_unique<TimedDetector>(std::move(detector), log);
    *kernel = timed.get();
    detector = std::move(timed);
  }
  Scope adopt_scope(log, "engine.adopt");
  SMK_ASSIGN_OR_RETURN(
      WorkloadHandle workload,
      runtime.AdoptWorkload(label, std::move(owned_dataset), std::move(detector),
                            std::make_unique<smk::detect::ClassPriorIndex>(std::move(*prior)),
                            smk::video::ObjectClass::kCar));
  adopt_scope.Stop();

  double store_load_s = 0.0;
  if (ctx.config.warm) {
    Scope load_scope(log, "query.store_load");
    SMK_ASSIGN_OR_RETURN(smk::query::OutputStore::SalvageResult salvaged,
                         smk::query::OutputStore::Salvage(runtime.env(), ctx.store_path,
                                                          &runtime.registry()));
    if (!salvaged.report.clean()) {
      return Status::DataLoss("checkpoint " + ctx.store_path + " is damaged: " +
                              salvaged.report.Summary());
    }
    SMK_ASSIGN_OR_RETURN(int64_t entries, workload->source().Preload(salvaged.store));
    store_load_s = load_scope.Stop();
    if (entries == 0) return Status::FailedPrecondition("checkpoint preloaded no entries");
  }
  const double setup_s = setup_scope.Stop();

  if (stats != nullptr) {
    stats->setup_s.push_back(setup_s);
    stats->simulate_s.push_back(simulate_s);
    stats->prior_s.push_back(prior_s);
    stats->store_load_s.push_back(store_load_s);
    if (log != nullptr) {
      // SimulateScene builds the scene index inside the dataset; the traced
      // run times one more build over the same frames, outside the set-up.
      Scope index_scope(log, "video.scene_index");
      smk::video::SceneIndex index = smk::video::SceneIndex::Build(workload->dataset().frames());
      stats->scene_index_s.push_back(index_scope.Stop());
      if (index.num_frames() != workload->dataset().num_frames()) {
        return Status::Internal("scene index rebuilt over a different frame count");
      }
    }
  }
  return workload;
}

Result<PhaseStats> RunPhase(const RunContext& ctx, double seconds, SpanLog* log) {
  smk::engine::RuntimeOptions options;
  options.num_threads = ctx.config.width;
  options.default_seed = ctx.seed;
  SMK_ASSIGN_OR_RETURN(std::unique_ptr<Runtime> runtime, Runtime::Create(options));
  PhaseStats stats;
  if (ctx.config.warm) {
    RunServe(ctx, *runtime, seconds, log, &stats);
  } else {
    RunRounds(ctx, *runtime, seconds, log, &stats);
  }
  stats.peak_rss_mb = PeakRssMb();
  stats.profile_cache_hits = runtime->profile_cache().hits();
  stats.profile_cache_lookups = stats.profile_cache_hits + runtime->profile_cache().misses();
  std::sort(stats.checked.begin(), stats.checked.end(),
            [](const CheckedProfile& a, const CheckedProfile& b) {
              return std::tie(a.client, a.index) < std::tie(b.client, b.index);
            });
  stats.runtime = std::move(runtime);
  return stats;
}

Status PrepareStore(const RunContext& ctx) {
  SMK_ASSIGN_OR_RETURN(std::unique_ptr<Runtime> runtime, Runtime::Create({}));
  RunContext cold = ctx;
  cold.config.warm = false;  // Build the workload without loading a store.
  SMK_ASSIGN_OR_RETURN(WorkloadHandle workload,
                       SetUp(cold, *runtime, "prepare", nullptr, nullptr, nullptr));
  const int max_resolution = workload->detector().max_resolution();
  std::set<int> resolutions;
  for (const smk::degrade::InterventionSet& candidate : ctx.grid) {
    resolutions.insert(candidate.EffectiveResolution(max_resolution));
  }
  std::vector<int64_t> frames(static_cast<size_t>(workload->dataset().num_frames()));
  std::iota(frames.begin(), frames.end(), int64_t{0});
  std::vector<int> counts(frames.size());
  for (int resolution : resolutions) {
    SMK_RETURN_IF_ERROR(workload->source().FillCounts(frames, resolution, 1.0, counts));
  }
  return runtime->SaveStore(workload, ctx.store_path);
}

Result<std::vector<CheckedProfile>> CoverageSample(const RunContext& ctx,
                                                   const PhaseStats& stats) {
  std::vector<CheckedProfile> sample = stats.checked;
  if (ctx.config.warm || stats.checked.empty()) return sample;
  const CheckedProfile& first = stats.checked.front();
  for (int64_t j = 1; j < ctx.config.coverage_profiles; ++j) {
    smk::engine::SessionConfig config =
        RequestConfig(first.aggregate, RequestSeed(ctx.seed, 0, j));
    config.use_profile_cache = false;
    SMK_ASSIGN_OR_RETURN(std::unique_ptr<smk::engine::Session> session,
                         stats.runtime->StartSession(stats.workload, config));
    SMK_ASSIGN_OR_RETURN(smk::core::ProfileHandle profile, session->Profile(ctx.grid));
    sample.push_back({0, j, first.aggregate, session->seed(), profile});
  }
  return sample;
}

void TrimHeap() { malloc_trim(0); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

}  // namespace perfbench
