// The benchmark's three workloads and the timed loops that drive them
// through the public entry points: video::SimulateScene,
// detect::ClassPriorIndex::Build, engine::Runtime / engine::Session.
// README.md gives the reason for each workload.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "degrade/intervention.h"
#include "engine/runtime.h"
#include "engine/session.h"
#include "query/aggregate.h"
#include "trace.h"
#include "video/presets.h"
#include "video/scene_simulator.h"

namespace perfbench {

namespace smk = smokescreen;

struct WorkloadConfig {
  std::string name;
  smk::video::ScenePreset preset = smk::video::ScenePreset::kUaDetrac;
  /// 0 = the preset's paper length.
  int64_t frames = 0;
  /// Aggregates cycled over requests (cold workloads use the first).
  std::vector<smk::query::AggregateFunction> aggregates;
  /// Shared executor width.
  int width = 1;
  /// Closed-loop client threads; more than one only on the warm workload.
  int clients = 1;
  /// Warm-start from a checkpoint and serve a request stream, instead of
  /// cold rounds that each build a fresh workload.
  bool warm = false;
  /// Cold workloads: profiles in the coverage check's sample, the digest
  /// request plus fresh session seeds, generated after timing. One profile's
  /// points share a correction set and fail together, so a single profile
  /// is a poor estimate of coverage; 1M-frame AVG profiles cost too much to
  /// pool, and their mean bounds are far from the edge.
  int coverage_profiles = 30;
  /// Untraced runs also replay the digest set serially. Off at 1M frames,
  /// where the replay would add about 20 s to every run; the traced run
  /// always replays.
  bool check_serial = true;
  /// Cycles of the replay's run order (replay.cc). Fresh cold copies of
  /// the same workload run at speeds up to 15% apart on a shared host, so
  /// unattributed_s needs several copies of each kind to resolve 10%.
  int replay_cycles = 1;
};

/// `reduced` shrinks ua-1m-cold for the self-test (still above the memo's
/// 131,072-frame dense-tier limit).
Result<WorkloadConfig> WorkloadByName(const std::string& name, bool reduced);

/// The workload's scene, seeded by the workload seed.
smk::video::SceneConfig SceneFor(const WorkloadConfig& config, uint64_t seed);

/// The CLI's 200-candidate grid: fractions 0.05-0.50, 5 resolutions, every
/// restricted-class set.
Result<std::vector<smk::degrade::InterventionSet>> Grid(const smk::detect::Detector& detector);

/// Session configuration of one request: correction set on, early stop off.
smk::engine::SessionConfig RequestConfig(smk::query::AggregateFunction aggregate,
                                         uint64_t session_seed);

/// Seed of warm request (client, index); cold rounds use client = index = 0.
uint64_t RequestSeed(uint64_t workload_seed, int client, int64_t index);

/// A profile the run checks: which request produced it, and the answer.
struct CheckedProfile {
  int client = 0;
  int64_t index = 0;
  smk::query::AggregateFunction aggregate = smk::query::AggregateFunction::kAvg;
  uint64_t session_seed = 0;
  smk::core::ProfileHandle profile;
};

/// Requests whose profiles form the run's digest, the coverage check's
/// sample and the replay's input: the cold workloads' one repeated request;
/// on the warm workload each client's first kWarmDigestRequests requests,
/// whose 12 generated profiles cover every aggregate three times. One
/// profile's points share a correction set, so one unlucky draw can leave
/// most of a profile uncovered; pooling 24 profiles keeps the run's coverage
/// a stable estimate.
constexpr int64_t kWarmDigestRequests = 16;
/// Warm: every kReopenEvery-th request of a client re-opens its previous
/// profile, and client 0 checkpoints after every kReopenEvery-th request.
constexpr int64_t kReopenEvery = 4;
bool InDigestSet(const WorkloadConfig& config, int client, int64_t index);

/// What one timed phase measured. Times are seconds.
struct PhaseStats {
  std::vector<double> setup_s;
  std::vector<double> simulate_s;
  std::vector<double> scene_index_s;
  std::vector<double> prior_s;
  std::vector<double> store_load_s;
  std::vector<double> profile_s;        // generated profiles only
  std::vector<double> engine_self_s;    // Session::Profile wall - report.total_seconds
  std::vector<double> execute_s;
  std::vector<double> checkpoint_s;
  std::vector<double> store_bytes;
  std::vector<double> model_invocations;  // per generated profile
  int64_t requests = 0;
  double request_seconds = 0.0;  // summed over cold rounds; serve wall on warm
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  int64_t profile_cache_hits = 0;
  int64_t profile_cache_lookups = 0;
  int64_t kernel_ns = 0;
  int64_t kernel_calls = 0;
  int64_t kernel_frames = 0;
  bool rounds_agree = true;
  /// The tradeoff the first request chose, e.g. "f=0.2000 p=352 c=person".
  std::string first_choice;
  std::vector<CheckedProfile> checked;  // the digest set, in (client, index) order
  double peak_rss_mb = 0.0;
  /// The phase's runtime and its last workload, kept alive for the checks
  /// (declared in this order so the workload is released first).
  std::unique_ptr<smk::engine::Runtime> runtime;
  smk::engine::WorkloadHandle workload;
};

/// Paths and seed shared by every phase of a run.
struct RunContext {
  WorkloadConfig config;
  uint64_t seed = 0;
  std::string out_dir;
  /// Warm workload's start-up checkpoint (written by PrepareStore).
  std::string store_path;
  std::vector<smk::degrade::InterventionSet> grid;
};

/// Materializes the workload on `runtime`, timing each step into `stats`
/// when given: SimulateScene, ClassPriorIndex::Build, AdoptWorkload, and on
/// the warm workload OutputStore::Salvage + FrameOutputSource::Preload.
/// When `kernel` is given the model is wrapped in a TimedDetector, returned
/// through it; with a span log SceneIndex::Build is re-run and timed alone.
Result<smk::engine::WorkloadHandle> SetUp(const RunContext& ctx, smk::engine::Runtime& runtime,
                                          const std::string& label, SpanLog* log,
                                          const TimedDetector** kernel, PhaseStats* stats);

/// Runs the workload for `seconds` (at least the requests the checks need)
/// on a fresh runtime of the workload's width.
Result<PhaseStats> RunPhase(const RunContext& ctx, double seconds, SpanLog* log);

/// Writes the warm workload's start-up checkpoint: every frame at every
/// grid resolution. Runs in its own process, before the measured one.
Status PrepareStore(const RunContext& ctx);

/// The profiles bound_coverage is measured on: the phase's digest set,
/// plus, on cold workloads, profiles of the same request under fresh session
/// seeds, generated off the clock on the phase's workload.
Result<std::vector<CheckedProfile>> CoverageSample(const RunContext& ctx,
                                                   const PhaseStats& stats);

/// Hands freed heap pages back to the OS, so the next workload pays its
/// own first-touch page faults instead of reusing the last one's.
void TrimHeap();

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
