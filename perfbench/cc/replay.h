// Phase (b) of a traced run: a serial replay of the profiler's group walk.
//
// core::Profiler::Generate runs its hypercube groups on the shared executor
// and keeps no per-layer clock. Until the program records its own spans,
// the benchmark re-runs the same walk serially, calling the same public
// functions in the same order -- DetermineCorrectionSetSize,
// BuildCorrectionSet, ClassPriorIndex::FramesWithoutAny, stats::Shuffle,
// FrameOutputSource::AppendOutputs, EstimateFromOutputs, RepairErrorBound --
// with a span around each. The replay must reproduce the real profile bit
// for bit; when it does not, its split is reported invalid.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Layer times of the replayed profiles, summed over them (seconds).
struct ReplayStats {
  int64_t profiles = 0;  // replays run
  /// Correction set: sizing + build, minus the kernel time inside it.
  double correction_s = 0.0;
  double sample_s = 0.0;    // FramesWithoutAny + Shuffle
  double memo_s = 0.0;      // AppendOutputs minus the kernel time inside it
  double kernel_s = 0.0;    // CountBatch busy time, all threads
  double estimate_s = 0.0;  // EstimateFromOutputs
  double repair_s = 0.0;    // RepairErrorBound
  double groups_s = 0.0;    // the whole group walk
  double group_max_s = 0.0;   // slowest group
  double group_mean_s = 0.0;  // mean group
  /// Requests replayed; each is replayed twice per cycle of the run order.
  int64_t requests = 0;
  /// Width-1 Session::Profile of the same requests over the same state: per
  /// request, the mean of the runs alternating with the replays.
  double session_wall_s = 0.0;
  /// ProfilerReport::groups_seconds per request: the mean of the same
  /// width-1 runs, and of the pooled runs at the workload's width that
  /// alternate with them.
  double serial_groups_s = 0.0;
  double pooled_groups_s = 0.0;
  int64_t hits = 0;
  int64_t misses = 0;
  /// Every replay and every session run equals the timed run's profile.
  bool reproduced = true;
  std::vector<std::string> mismatches;
  std::vector<smk::core::ProfileHandle> profiles_replayed;

  double self_sum() const {
    return correction_s + sample_s + memo_s + kernel_s + estimate_s + repair_s;
  }
};

/// Replays every profile in `checked` (from the traced phase) on width-1
/// runtimes, between real Session::Profile runs at width 1 and at the
/// workload's width: over fresh cold copies of the workload for the cold
/// workloads, over one warm copy per runtime for the warm workload.
Result<ReplayStats> RunReplay(const RunContext& ctx, const std::vector<CheckedProfile>& checked,
                              SpanLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
