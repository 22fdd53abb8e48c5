// Extension: multi-camera stratified combination quality.
//
// The paper's system model has many cameras feeding one processor (§1). For
// the city-wide mean, three estimators are compared over repeated capture
// windows:
//   * STRATIFIED — per-camera Algorithm-1 intervals combined with
//     population weights and a split failure budget (core/combine.h);
//   * POOLED — all samples thrown into one Algorithm-1 estimate, as if the
//     cameras covered one homogeneous population (ignores per-camera
//     sampling fractions; biased when fractions differ);
//   * WORST-CAMERA — the naive bound max over per-camera bounds.
// Reported: average bound and empirical coverage of the pooled truth.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <utility>
#include <vector>

#include "camera/camera.h"
#include "camera/central_system.h"
#include "bench/bench_common.h"
#include "core/avg_estimator.h"
#include "core/combine.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace smokescreen;

int main() {
  std::printf("=== Extension: multi-camera combination (2 feeds, AVG) ===\n\n");

  bench::Workload busy = bench::MakeWorkload(video::ScenePreset::kMvi40771, "yolov4");
  bench::Workload quiet = bench::MakeWorkload(video::ScenePreset::kNightStreet, "yolov4", 4000);

  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kAvg;
  auto gt_busy = query::ComputeGroundTruth(*busy.source, spec);
  auto gt_quiet = query::ComputeGroundTruth(*quiet.source, spec);
  gt_busy.status().CheckOk();
  gt_quiet.status().CheckOk();
  double n_busy = static_cast<double>(busy.dataset->num_frames());
  double n_quiet = static_cast<double>(quiet.dataset->num_frames());
  double pooled_truth = (gt_busy->y_true * n_busy + gt_quiet->y_true * n_quiet) /
                        (n_busy + n_quiet);
  std::printf("per-feed truth: busy %.3f (%d frames), quiet %.3f (%d frames); pooled %.3f\n\n",
              gt_busy->y_true, static_cast<int>(n_busy), gt_quiet->y_true,
              static_cast<int>(n_quiet), pooled_truth);

  // The busy camera samples lightly, the quiet one heavily — the unequal-
  // fraction regime where naive pooling goes wrong.
  camera::CameraConfig cfg_busy;
  cfg_busy.camera_id = 1;
  cfg_busy.interventions.sample_fraction = 0.05;
  camera::CameraConfig cfg_quiet;
  cfg_quiet.camera_id = 2;
  cfg_quiet.interventions.sample_fraction = 0.40;
  camera::Camera cam_busy(cfg_busy, *busy.dataset, *busy.prior, 608);
  camera::Camera cam_quiet(cfg_quiet, *quiet.dataset, *quiet.prior, 608);

  auto central = camera::CentralSystem::Create(spec, 0.05);
  central.status().CheckOk();
  central->AddFeed(cam_busy, *busy.model).CheckOk();
  central->AddFeed(cam_quiet, *quiet.model).CheckOk();

  const int kTrials = 60;
  stats::Rng rng(0xCAFE);
  core::SmokescreenMeanEstimator estimator;
  camera::NetworkLink link(camera::NetworkLinkConfig{});

  double b_strat = 0, b_pooled = 0, b_worst = 0;
  int cov_strat = 0, cov_pooled = 0;
  for (int t = 0; t < kTrials; ++t) {
    auto batch_busy = cam_busy.CaptureAndTransmit(link, rng);
    auto batch_quiet = cam_quiet.CaptureAndTransmit(link, rng);
    batch_busy.status().CheckOk();
    batch_quiet.status().CheckOk();
    central->Ingest(*batch_busy).CheckOk();
    central->Ingest(*batch_quiet).CheckOk();

    auto city = central->CityWideEstimate();
    city.status().CheckOk();
    b_strat += std::min(city->estimate.err_b, 10.0);
    if (query::RelativeError(city->estimate.y_approx, pooled_truth) <= city->estimate.err_b) {
      ++cov_strat;
    }

    // POOLED: concatenate both samples, pretend one population.
    query::OutputColumn out_busy;
    query::OutputColumn out_quiet;
    busy.source->AppendOutputs(spec, batch_busy->frame_indices, 608, 1.0, out_busy).CheckOk();
    quiet.source->AppendOutputs(spec, batch_quiet->frame_indices, 608, 1.0, out_quiet)
        .CheckOk();
    std::vector<double> pooled = std::move(out_busy.outputs);
    pooled.insert(pooled.end(), out_quiet.outputs.begin(), out_quiet.outputs.end());
    auto pooled_est = estimator.EstimateMean(
        pooled, busy.dataset->num_frames() + quiet.dataset->num_frames(), 0.05);
    pooled_est.status().CheckOk();
    b_pooled += std::min(pooled_est->err_b, 10.0);
    if (query::RelativeError(pooled_est->y_approx, pooled_truth) <= pooled_est->err_b) {
      ++cov_pooled;
    }

    auto e1 = central->CameraEstimate(1);
    auto e2 = central->CameraEstimate(2);
    e1.status().CheckOk();
    e2.status().CheckOk();
    b_worst += std::min(std::max(e1->err_b, e2->err_b), 10.0);
  }

  util::TablePrinter table({"method", "avg_bound", "coverage_pct"});
  table.AddRow({"stratified (ours)", util::FormatDouble(b_strat / kTrials),
                util::FormatPercent(static_cast<double>(cov_strat) / kTrials)});
  table.AddRow({"pooled (naive)", util::FormatDouble(b_pooled / kTrials),
                util::FormatPercent(static_cast<double>(cov_pooled) / kTrials)});
  table.AddRow({"worst-camera bound", util::FormatDouble(b_worst / kTrials), "-"});
  table.Print(std::cout);

  std::printf(
      "\nStratified combination keeps validity under unequal per-camera\n"
      "sampling fractions; naive pooling over-weights the heavily sampled\n"
      "quiet camera and its \"bound\" silently loses coverage.\n");
  return 0;
}
