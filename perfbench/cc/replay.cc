#include "replay.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <tuple>

#include "core/estimator_api.h"
#include "core/repair.h"
#include "stats/rng.h"
#include "stats/sampling.h"

namespace perfbench {

using smk::degrade::InterventionSet;
using smk::engine::Runtime;
using smk::engine::WorkloadHandle;

namespace {

/// Kernel seconds spent since `before_ns` was read from the same decorator.
double KernelSince(const TimedDetector& kernel, int64_t before_ns) {
  return static_cast<double>(kernel.busy_ns() - before_ns) * 1e-9;
}

/// The serial group walk of core::Profiler::Generate for one request
/// (profiler.cc), with a span around every call into a layer.
Result<smk::core::Profile> ReplayOne(const smk::engine::Workload& workload,
                                     const TimedDetector& kernel,
                                     const smk::engine::SessionConfig& config,
                                     const std::vector<InterventionSet>& grid, int64_t request,
                                     SpanLog* log, ReplayStats* out) {
  smk::query::FrameOutputSource& source = workload.source();
  const smk::query::QuerySpec& spec = config.spec;
  const smk::core::ProfilerOptions& options = config.profiler;
  const int64_t hits_before = source.cache_hits();
  const int64_t misses_before = source.model_invocations();
  Scope profile_scope(log, "replay.profile", request);

  smk::core::Profile profile;
  profile.spec = spec;
  profile.dataset_name = source.dataset().name();
  profile.detector_name = source.detector().name();
  // Session::Profile seeds a fresh stream from the session seed; Generate
  // draws the group-stream seed first, then sizes and builds the
  // correction set from the same stream.
  smk::stats::Rng rng(config.seed.value());
  const uint64_t profile_seed = rng.NextUint64();

  std::optional<smk::core::CorrectionSet> correction;
  {
    const int64_t kernel_before = kernel.busy_ns();
    Scope scope(log, "core.correction");
    if (options.use_correction_set) {
      int64_t size = options.correction_set_size;
      if (size <= 0) {
        SMK_ASSIGN_OR_RETURN(
            smk::core::CorrectionSizing sizing,
            smk::core::DetermineCorrectionSetSize(source, spec, options.delta, rng,
                                                  options.correction_max_fraction));
        size = sizing.chosen_size;
      }
      SMK_ASSIGN_OR_RETURN(smk::core::CorrectionSet set,
                           smk::core::BuildCorrectionSet(source, spec, size, options.delta, rng));
      correction = std::move(set);
    }
    const double wall = scope.Stop();
    const double in_kernel = KernelSince(kernel, kernel_before);
    out->correction_s += wall - in_kernel;
    out->kernel_s += in_kernel;
  }

  // Groups in the profiler's canonical order: (resolution, restricted mask,
  // quantized contrast).
  std::map<std::tuple<int, uint8_t, int64_t>, std::vector<InterventionSet>> groups;
  for (const InterventionSet& candidate : grid) {
    SMK_RETURN_IF_ERROR(candidate.Validate());
    groups[{candidate.resolution, candidate.restricted.mask(),
            static_cast<int64_t>(std::llround(candidate.contrast_scale * 4096.0))}]
        .push_back(candidate);
  }
  const int model_max = source.detector().max_resolution();
  const int64_t original_population = source.dataset().num_frames();

  Scope walk_scope(log, "replay.groups");
  double group_max = 0.0;
  double group_sum = 0.0;
  for (auto& [key, group] : groups) {
    Scope group_scope(log, "replay.group");
    std::sort(group.begin(), group.end(), [](const InterventionSet& a, const InterventionSet& b) {
      return a.sample_fraction < b.sample_fraction;
    });

    std::vector<int64_t> eligible;
    {
      Scope scope(log, "core.sample");
      eligible = workload.prior().FramesWithoutAny(group.front().restricted);
      smk::stats::Rng group_rng(smk::stats::HashCombine(
          {profile_seed, static_cast<uint64_t>(std::get<0>(key)),
           static_cast<uint64_t>(std::get<1>(key)), static_cast<uint64_t>(std::get<2>(key))}));
      smk::stats::Shuffle(eligible, group_rng);
      out->sample_s += scope.Stop();
    }
    if (eligible.empty()) {
      return Status::FailedPrecondition("candidate group " + group.front().ToString() +
                                        " removes every frame");
    }
    const int64_t eligible_population = static_cast<int64_t>(eligible.size());

    smk::query::OutputColumn column;
    smk::core::EstimationScratch scratch;
    double prev_err = std::numeric_limits<double>::infinity();
    for (const InterventionSet& candidate : group) {
      int64_t n = smk::stats::FractionToCount(original_population, candidate.sample_fraction);
      n = std::min(n, eligible_population);
      const int resolution = candidate.EffectiveResolution(model_max);
      if (static_cast<size_t>(n) > column.size()) {
        std::span<const int64_t> extension(eligible.data() + column.size(),
                                           static_cast<size_t>(n) - column.size());
        const int64_t kernel_before = kernel.busy_ns();
        Scope scope(log, "query.append_outputs");
        SMK_RETURN_IF_ERROR(source.AppendOutputs(spec, extension, resolution,
                                                 candidate.contrast_scale, column));
        const double wall = scope.Stop();
        const double in_kernel = KernelSince(kernel, kernel_before);
        out->memo_s += wall - in_kernel;
        out->kernel_s += in_kernel;
      }
      Scope estimate_scope(log, "core.estimate");
      SMK_ASSIGN_OR_RETURN(
          smk::core::EstimationResult result,
          smk::core::EstimateFromOutputs(spec, column.output_prefix(static_cast<size_t>(n)),
                                         eligible_population, original_population, resolution,
                                         options.delta, &scratch));
      out->estimate_s += estimate_scope.Stop();

      smk::core::ProfilePoint point;
      point.interventions = candidate;
      point.y_approx = result.estimate.y_approx;
      point.err_uncorrected = result.estimate.err_b;
      point.sample_size = result.sample_size;
      const bool purely_random = candidate.restricted.empty() && resolution == model_max &&
                                 candidate.contrast_scale >= 1.0;
      if (correction.has_value()) {
        Scope repair_scope(log, "core.repair");
        SMK_ASSIGN_OR_RETURN(double repaired_err,
                             smk::core::RepairErrorBound(spec, result, *correction));
        out->repair_s += repair_scope.Stop();
        if (purely_random) {
          point.err_bound = std::min(point.err_uncorrected, repaired_err);
          point.repaired = repaired_err < point.err_uncorrected;
        } else {
          point.err_bound = repaired_err;
          point.repaired = true;
        }
      } else {
        point.err_bound = point.err_uncorrected;
        point.repaired = false;
      }
      profile.points.push_back(point);
      if (options.early_stop && std::isfinite(prev_err) &&
          prev_err - point.err_bound < options.early_stop_tolerance) {
        break;
      }
      prev_err = point.err_bound;
    }
    const double group_wall = group_scope.Stop();
    group_max = std::max(group_max, group_wall);
    group_sum += group_wall;
  }
  out->groups_s += walk_scope.Stop();
  out->group_max_s += group_max;
  out->group_mean_s += groups.empty() ? 0.0 : group_sum / static_cast<double>(groups.size());
  out->hits += source.cache_hits() - hits_before;
  out->misses += source.model_invocations() - misses_before;
  ++out->profiles;
  return profile;
}

void Compare(const std::string& what, const smk::core::Profile& expected,
             const smk::core::Profile& actual, ReplayStats* out) {
  if (!smk::engine::ProfilesBitIdentical(expected, actual)) {
    out->reproduced = false;
    out->mismatches.push_back(what);
  }
}

/// A copy of the workload on a runtime of its own (declared in this order
/// so the workload is released first).
struct Copy {
  std::unique_ptr<Runtime> runtime;
  WorkloadHandle workload;
  const TimedDetector* kernel = nullptr;

  void Reset() {
    workload.reset();
    runtime.reset();
  }
};

/// Replaces `copy` with a fresh copy of the workload on a new runtime of
/// `width`, built on a trimmed heap so every copy pays the same first-touch
/// page faults.
Status Fresh(const RunContext& ctx, int width, SpanLog* log, Copy* copy) {
  copy->Reset();
  TrimHeap();
  smk::engine::RuntimeOptions options;
  options.num_threads = width;
  options.default_seed = ctx.seed;
  SMK_ASSIGN_OR_RETURN(copy->runtime, Runtime::Create(options));
  SMK_ASSIGN_OR_RETURN(copy->workload,
                       SetUp(ctx, *copy->runtime, "replay", log, &copy->kernel, nullptr));
  return Status::OK();
}

struct SessionRun {
  double wall = 0.0;
  double groups_s = 0.0;  // ProfilerReport::groups_seconds
};

/// A real Session::Profile of `checked`'s request over `copy`, with the
/// profile cache off.
Result<SessionRun> SessionProfile(const RunContext& ctx, const Copy& copy,
                                  const CheckedProfile& checked, const std::string& what,
                                  SpanLog* log, ReplayStats* out) {
  smk::engine::SessionConfig config = RequestConfig(checked.aggregate, checked.session_seed);
  config.use_profile_cache = false;
  SMK_ASSIGN_OR_RETURN(std::unique_ptr<smk::engine::Session> session,
                       copy.runtime->StartSession(copy.workload, config));
  Scope scope(log, "engine.profile");
  SMK_ASSIGN_OR_RETURN(smk::core::ProfileHandle profile, session->Profile(ctx.grid));
  SessionRun run;
  run.wall = scope.Stop();
  run.groups_s = session->last_report().groups_seconds;
  Compare(what + " vs timed run", *checked.profile, *profile, out);
  return run;
}

enum class RunKind { kSerial, kPooled, kReplay };

/// Runs of one request: width-1 sessions (S), pooled sessions at the
/// workload's width (P) and replays (R) in palindrome order, S P R S R P S
/// for one cycle, S P R S R P S P R S R P S for two. Each kind is averaged,
/// and the three kinds' mean positions coincide, so a host that speeds up or
/// slows down steadily over the sequence favours no kind over another.
std::vector<RunKind> RunOrder(int cycles) {
  std::vector<RunKind> order;
  for (int c = 0; c < cycles; ++c) {
    order.insert(order.end(), {RunKind::kSerial, RunKind::kPooled, RunKind::kReplay,
                               RunKind::kSerial, RunKind::kReplay, RunKind::kPooled});
  }
  order.push_back(RunKind::kSerial);
  return order;
}

double Mean(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace

Result<ReplayStats> RunReplay(const RunContext& ctx, const std::vector<CheckedProfile>& checked,
                              SpanLog* log) {
  ReplayStats out;
  if (log != nullptr) log->set_ambient_request(-1);
  Copy serial;
  Copy pooled;
  for (size_t i = 0; i < checked.size(); ++i) {
    const CheckedProfile& request = checked[i];
    const std::string name = "client " + std::to_string(request.client) + " request " +
                             std::to_string(request.index);
    smk::engine::SessionConfig config = RequestConfig(request.aggregate, request.session_seed);
    const int64_t request_id = 2000000 + static_cast<int64_t>(i);

    // Cold workloads give every run a fresh cold copy, one copy in memory at
    // a time. Warm ones share one warm copy per width: its memo already
    // holds every key, so no run changes it.
    if (ctx.config.warm) {
      SMK_RETURN_IF_ERROR(Fresh(ctx, 1, log, &serial));
      SMK_RETURN_IF_ERROR(Fresh(ctx, ctx.config.width, log, &pooled));
    }
    std::vector<double> walls;
    std::vector<double> serial_groups;
    std::vector<double> pooled_groups;
    for (RunKind kind : RunOrder(ctx.config.replay_cycles)) {
      const bool is_pooled = kind == RunKind::kPooled;
      Copy& copy = is_pooled ? pooled : serial;
      if (!ctx.config.warm) {
        serial.Reset();
        pooled.Reset();
        SMK_RETURN_IF_ERROR(Fresh(ctx, is_pooled ? ctx.config.width : 1, log, &copy));
      }
      if (kind == RunKind::kReplay) {
        SMK_ASSIGN_OR_RETURN(
            smk::core::Profile replayed,
            ReplayOne(*copy.workload, *copy.kernel, config, ctx.grid, request_id, log, &out));
        Compare(name + ": replay vs timed run", *request.profile, replayed, &out);
        if (out.profiles_replayed.size() == i) {
          out.profiles_replayed.push_back(smk::core::MakeProfileHandle(std::move(replayed)));
        }
        continue;
      }
      SMK_ASSIGN_OR_RETURN(
          SessionRun run,
          SessionProfile(ctx, copy, request,
                         name + (is_pooled ? ": pooled session" : ": width-1 session"), log,
                         &out));
      if (is_pooled) {
        pooled_groups.push_back(run.groups_s);
      } else {
        walls.push_back(run.wall);
        serial_groups.push_back(run.groups_s);
      }
    }
    out.session_wall_s += Mean(walls);
    out.serial_groups_s += Mean(serial_groups);
    out.pooled_groups_s += Mean(pooled_groups);
    ++out.requests;
  }
  return out;
}

}  // namespace perfbench
