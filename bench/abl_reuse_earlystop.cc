// Ablation: the §3.3.2 profiler efficiencies.
//
//   REUSE — within each candidate group, samples for ascending fractions are
//           nested prefixes of one permutation, so low-rate outputs are
//           reused at higher rates. Ablated by estimating every candidate
//           independently (fresh sample per candidate, no shared prefix).
//   EARLY STOPPING — skip the remaining (costlier) fractions of a group once
//           the bound improves more slowly than a tolerance.
//
// Reported: model invocations (the cost that dominates profile time, §5.3.1)
// and the number of profile points produced, for all four combinations.

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "core/candidate_design.h"
#include "core/profiler.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace smokescreen;

int main() {
  std::printf("=== Ablation: profiler reuse + early stopping (UA-DETRAC, AVG) ===\n\n");

  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kAvg;

  core::CandidateGridOptions grid_opts;
  grid_opts.min_fraction = 0.01;
  grid_opts.max_fraction = 0.10;
  grid_opts.fraction_step = 0.01;
  grid_opts.num_resolutions = 5;
  grid_opts.include_class_combinations = false;

  util::TablePrinter table(
      {"configuration", "model_invocations", "cache_hits", "profile_points"});

  // --- Reuse ON (the Profiler's native nested-prefix strategy). ---
  for (bool early_stop : {false, true}) {
    bench::Workload wl = bench::MakeWorkload(video::ScenePreset::kUaDetrac, "yolov4");
    auto grid = core::BuildCandidateGrid(*wl.model, grid_opts);
    grid.status().CheckOk();
    core::ProfilerOptions opts;
    opts.use_correction_set = false;
    opts.early_stop = early_stop;
    opts.early_stop_tolerance = 0.01;
    core::Profiler profiler(*wl.source, *wl.prior, spec, opts);
    stats::Rng rng(42);
    const int64_t invocations_before = wl.source->model_invocations();
    const int64_t hits_before = wl.source->cache_hits();
    auto profile = profiler.Generate(*grid, rng);
    profile.status().CheckOk();
    table.AddRow({std::string("reuse ON,  early-stop ") + (early_stop ? "ON " : "OFF"),
                  std::to_string(wl.source->model_invocations() - invocations_before),
                  std::to_string(wl.source->cache_hits() - hits_before),
                  std::to_string(profile->points.size())});
  }

  // --- Reuse OFF: estimate each candidate independently. ---
  for (bool early_stop : {false, true}) {
    bench::Workload wl = bench::MakeWorkload(video::ScenePreset::kUaDetrac, "yolov4");
    auto grid = core::BuildCandidateGrid(*wl.model, grid_opts);
    grid.status().CheckOk();
    stats::Rng rng(42);
    const int64_t invocations_before = wl.source->model_invocations();
    const int64_t hits_before = wl.source->cache_hits();
    int64_t points = 0;
    // Walk candidates in the profiler's order (grouped, ascending fraction)
    // so early stopping is comparable.
    double prev_err = 1e18;
    int prev_resolution = -1;
    for (const degrade::InterventionSet& iv : *grid) {
      if (iv.resolution != prev_resolution) {
        prev_err = 1e18;  // New group.
        prev_resolution = iv.resolution;
      } else if (early_stop && prev_err < 1e17) {
        // Group already stopped? prev_err is set to sentinel below.
      }
      if (prev_err < 0) continue;  // Group stopped.
      auto result = core::ResultErrorEst(*wl.source, *wl.prior, spec, iv, 0.05, rng);
      result.status().CheckOk();
      ++points;
      if (early_stop && prev_err < 1e17 && prev_err - result->estimate.err_b < 0.01) {
        prev_err = -1;  // Stop this group.
      } else {
        prev_err = result->estimate.err_b;
      }
    }
    table.AddRow({std::string("reuse OFF, early-stop ") + (early_stop ? "ON " : "OFF"),
                  std::to_string(wl.source->model_invocations() - invocations_before),
                  std::to_string(wl.source->cache_hits() - hits_before),
                  std::to_string(points)});
  }

  table.Print(std::cout);
  std::printf(
      "\nReuse removes the per-fraction resampling cost (invocations drop to\n"
      "the largest fraction per group); early stopping prunes the flat tail\n"
      "of each group. Together they are the \"modest overhead\" of §3.3.2.\n");
  return 0;
}
