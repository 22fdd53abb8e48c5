// Extension: fault tolerance of the deployment pipeline.
//
// Sweeps channel loss rate x retry budget for one camera under the
// fault-injection layer (camera/fault_injector.h) and reports, per cell,
//   * the delivered-sample fraction (survivors of loss + retries),
//   * the certified bound's inflation versus the clean channel (loss shrinks
//     n, so the honest bound widens — the price of staying valid), and
//   * the retransmission overhead on the NetworkLink (extra radio energy a
//     retry policy spends to buy its delivered fraction back).
// Every estimate is also checked against the feed's ground truth: coverage
// must not degrade — losing frames makes the bound wider, never wrong.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "camera/camera.h"
#include "camera/central_system.h"
#include "camera/fault_injector.h"
#include "core/avg_estimator.h"
#include "core/estimate.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace smokescreen;

int main() {
  std::printf("=== Extension: fault tolerance (loss rate x retry budget) ===\n\n");

  bench::Workload wl = bench::MakeWorkload(video::ScenePreset::kUaDetrac, "yolov4", 4000);
  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kAvg;
  auto gt = query::ComputeGroundTruth(*wl.source, spec);
  gt.status().CheckOk();
  std::printf("workload %s, truth AVG=%.3f\n\n", wl.label.c_str(), gt->y_true);

  camera::CameraConfig config;
  config.camera_id = 1;
  config.interventions.sample_fraction = 0.2;
  camera::Camera cam(config, *wl.dataset, *wl.prior, 608);

  camera::NetworkLinkConfig link_config;
  link_config.energy_joules_per_byte = 1.0e-7;
  link_config.energy_joules_per_frame = 1.0e-3;

  const int kTrials = 40;
  const double kDelta = 0.05;
  core::SmokescreenMeanEstimator estimator;

  // Clean-channel reference bound (averaged over trials).
  double clean_bound = 0.0;
  {
    stats::Rng rng(0xFA01);
    auto link = camera::NetworkLink::Create(link_config);
    link.status().CheckOk();
    for (int t = 0; t < kTrials; ++t) {
      auto batch = cam.CaptureAndTransmit(*link, rng);
      batch.status().CheckOk();
      query::OutputColumn outputs;
      wl.source->AppendOutputs(spec, batch->frame_indices, batch->resolution, 1.0, outputs)
          .CheckOk();
      auto est = estimator.EstimateMean(outputs.outputs, batch->eligible_population, kDelta);
      est.status().CheckOk();
      clean_bound += est->err_b;
    }
    clean_bound /= kTrials;
  }
  std::printf("clean-channel bound (reference): %.4f\n\n", clean_bound);

  util::TablePrinter table({"loss_rate", "max_attempts", "delivered_frac", "avg_bound",
                            "bound_inflation", "retx_energy_pct", "coverage_pct"});
  for (double loss : {0.1, 0.2, 0.4}) {
    for (int attempts : {1, 2, 4}) {
      stats::Rng rng(0xFA01);  // Same sampling stream as the reference.
      auto link = camera::NetworkLink::Create(link_config);
      link.status().CheckOk();
      camera::TransmitPolicy policy;
      policy.max_attempts = attempts;
      policy.backoff_base_sec = 0.0;

      double delivered = 0.0, bound = 0.0;
      int covered = 0;
      for (int t = 0; t < kTrials; ++t) {
        camera::FaultProfile profile;
        profile.loss_prob = loss;
        profile.seed = 0xBEEF00 + static_cast<uint64_t>(t);
        auto injector = camera::FaultInjector::Create(profile);
        injector.status().CheckOk();
        auto batch = cam.CaptureAndTransmit(*injector, *link, rng, policy);
        batch.status().CheckOk();
        delivered += batch->DeliveryFraction();
        if (batch->frame_indices.empty()) continue;  // Nothing survived.
        query::OutputColumn outputs;
        wl.source->AppendOutputs(spec, batch->frame_indices, batch->resolution, 1.0, outputs)
            .CheckOk();
        auto est = estimator.EstimateMean(outputs.outputs, batch->eligible_population, kDelta);
        est.status().CheckOk();
        bound += est->err_b;
        if (core::CoversTruth(*est, gt->y_true)) ++covered;
      }
      delivered /= kTrials;
      bound /= kTrials;
      double retx_energy_share = link->EnergyJoules() > 0.0
                                     ? link->RetransmitEnergyJoules() / link->EnergyJoules()
                                     : 0.0;
      table.AddRow({util::FormatPercent(loss), std::to_string(attempts),
                    util::FormatPercent(delivered), util::FormatDouble(bound, 4),
                    util::FormatDouble(bound / clean_bound, 2) + "x",
                    util::FormatPercent(retx_energy_share),
                    util::FormatPercent(static_cast<double>(covered) / kTrials)});
    }
  }
  table.Print(std::cout);

  std::printf(
      "\nMore retries buy delivered-sample fraction (and thus a tighter\n"
      "bound) at the cost of retransmission energy; with no retries the\n"
      "bound inflates as loss grows, but coverage holds — survivors of a\n"
      "content-independent channel are still a uniform sample, so the\n"
      "estimate degrades by widening, never by lying.\n");
  return 0;
}
