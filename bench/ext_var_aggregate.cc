// Extension: the VAR aggregate (paper §7 names VAR as future work).
//
// VAR(X) = E[X^2] - E[X]^2 is estimated from two simultaneous
// Hoeffding–Serfling intervals combined by interval arithmetic. The bound is
// range-based on X^2, so it is conservative on raw counts and informative on
// bounded outputs; both regimes are reported:
//   panel 1 — variance of the binary congestion indicator (frame has >= 8
//             cars), i.e. the uncertainty of the COUNT predicate;
//   panel 2 — variance of raw car counts (conservative; documents where the
//             extension's bound is loose).

#include <cstdio>
#include <iostream>
#include <numeric>
#include <vector>

#include "bench/bench_common.h"
#include "core/var_estimator.h"
#include "stats/sampling.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace smokescreen;

namespace {

constexpr int kTrials = 100;

void RunPanel(bench::Workload& wl, const query::QuerySpec& spec, const char* label) {
  auto gt = query::ComputeGroundTruth(*wl.source, spec);
  gt.status().CheckOk();
  std::printf("\n-- %s (true variance %.4f; %d trials) --\n", label, gt->y_true, kTrials);

  core::SmokescreenVarianceEstimator est;
  const int64_t population = wl.dataset->num_frames();
  stats::Rng rng(0x7A6);
  util::TablePrinter table({"fraction", "true_err", "var_bound", "informative_pct"});
  for (double f : {0.05, 0.1, 0.2, 0.4, 0.8}) {
    int64_t n = stats::FractionToCount(population, f);
    double true_err = 0, bound = 0;
    int informative = 0;
    for (int t = 0; t < kTrials; ++t) {
      auto idx = stats::SampleWithoutReplacement(population, n, rng);
      idx.status().CheckOk();
      std::vector<double> sample;
      for (int64_t i : *idx) sample.push_back(gt->outputs[static_cast<size_t>(i)]);
      auto result = est.EstimateVariance(sample, population, 0.05);
      result.status().CheckOk();
      true_err += bench::RealizedError(spec, *gt, result->y_approx);
      bound += result->err_b;
      if (result->err_b < 1.0) ++informative;
    }
    table.AddRow({util::FormatDouble(f, 2), util::FormatDouble(true_err / kTrials),
                  util::FormatDouble(bound / kTrials),
                  util::FormatPercent(static_cast<double>(informative) / kTrials)});
  }
  table.Print(std::cout);
}

}  // namespace

int main() {
  std::printf("=== Extension: VAR aggregate (UA-DETRAC) ===\n");

  bench::Workload wl = bench::MakeWorkload(video::ScenePreset::kUaDetrac, "yolov4");

  query::QuerySpec indicator;
  indicator.aggregate = query::AggregateFunction::kVar;
  // Reuse COUNT's transform by hand: variance over the raw counts is panel 2;
  // for the indicator panel we want VAR over 0/1 outputs, which the spec's
  // TransformOutput only applies for COUNT. Emulate with a COUNT-thresholded
  // spec whose aggregate is VAR by thresholding in a wrapper spec.
  // (VAR consumes the identity transform, so panel 1 uses a COUNT spec's
  // outputs via a custom ground truth below.)

  // Panel 1: variance of the congestion indicator.
  {
    // Build indicator outputs through a COUNT spec, then feed them to the
    // estimator directly.
    query::QuerySpec count_spec;
    count_spec.aggregate = query::AggregateFunction::kCount;
    count_spec.count_threshold = 8;
    std::vector<int64_t> frames(static_cast<size_t>(wl.dataset->num_frames()));
    std::iota(frames.begin(), frames.end(), int64_t{0});
    query::OutputColumn column;
    wl.source->AppendOutputs(count_spec, frames, wl.model->max_resolution(), 1.0, column)
        .CheckOk();
    const std::vector<double>& outputs = column.outputs;
    auto var_true = query::ComputeAggregate(query::AggregateFunction::kVar, outputs, 0);
    var_true.status().CheckOk();
    std::printf("\n-- VAR of congestion indicator (>=8 cars), true %.4f --\n", *var_true);

    core::SmokescreenVarianceEstimator est;
    stats::Rng rng(0x7A7);
    util::TablePrinter table({"fraction", "true_err", "var_bound", "informative_pct"});
    const int64_t population = wl.dataset->num_frames();
    for (double f : {0.05, 0.1, 0.2, 0.4, 0.8}) {
      int64_t n = stats::FractionToCount(population, f);
      double true_err = 0, bound = 0;
      int informative = 0;
      for (int t = 0; t < kTrials; ++t) {
        auto idx = stats::SampleWithoutReplacement(population, n, rng);
        idx.status().CheckOk();
        std::vector<double> sample;
        for (int64_t i : *idx) sample.push_back(outputs[static_cast<size_t>(i)]);
        auto result = est.EstimateVariance(sample, population, 0.05);
        result.status().CheckOk();
        true_err += std::abs(result->y_approx - *var_true) / *var_true;
        bound += result->err_b;
        if (result->err_b < 1.0) ++informative;
      }
      table.AddRow({util::FormatDouble(f, 2), util::FormatDouble(true_err / kTrials),
                    util::FormatDouble(bound / kTrials),
                    util::FormatPercent(static_cast<double>(informative) / kTrials)});
    }
    table.Print(std::cout);
  }

  // Panel 2: variance of raw car counts (documents the conservative regime).
  query::QuerySpec raw;
  raw.aggregate = query::AggregateFunction::kVar;
  RunPanel(wl, raw, "VAR of raw car counts");

  std::printf(
      "\nThe VAR bound is valid everywhere; it is informative on bounded\n"
      "indicator outputs and conservative on raw counts (range^2 scaling) —\n"
      "tightening it is genuine future work, as the paper anticipated.\n");
  return 0;
}
