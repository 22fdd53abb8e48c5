// Streaming monitor: deploying a chosen degradation on upcoming video.
//
// The profile was generated on a representative portion of video; the
// cameras then keep streaming DEGRADED frames week after week. This example
// shows the deployment loop of §3.1:
//   1. profile last week's video, choose a tradeoff;
//   2. stream this week's degraded outputs through OnlineMonitor, which
//      keeps a running Algorithm-1 estimate and checks consistency with the
//      profiled answer;
//   3. when traffic patterns change (here: a simulated event week with far
//      denser traffic), the monitor flags drift — the cue to re-profile;
//   4. after re-profiling on the drifted traffic, OnlineMonitor::Reset
//      clears the stale stream and monitoring resumes against the fresh
//      reference — the recovery half of the loop.
//
// Each simulated week is a CUSTOM corpus (not a named preset), so it enters
// the runtime through Runtime::AdoptWorkload: the caller builds the scene
// and detector, and the runtime wires its registry/batching/compute policy
// into the workload's shared output source.

#include <cstdio>
#include <memory>

#include "core/estimator_api.h"
#include "core/online_monitor.h"
#include "detect/models.h"
#include "engine/runtime.h"
#include "engine/session.h"
#include "query/executor.h"
#include "stats/sampling.h"
#include "video/presets.h"

using namespace smokescreen;

namespace {

// Simulates `cfg` and registers it with the runtime as an adopted workload.
engine::WorkloadHandle AdoptWeek(engine::Runtime& runtime, const video::SceneConfig& cfg) {
  auto scene = video::SimulateScene(cfg);
  scene.status().CheckOk();
  auto dataset = std::make_unique<video::VideoDataset>(std::move(scene).ValueOrDie());
  auto detector = std::make_unique<detect::SimYoloV4>();
  detect::SimMtcnn mtcnn;
  auto prior = detect::ClassPriorIndex::Build(*dataset, *detector, mtcnn);
  prior.status().CheckOk();
  auto workload = runtime.AdoptWorkload(
      cfg.name, std::move(dataset), std::move(detector),
      std::make_unique<detect::ClassPriorIndex>(std::move(prior).ValueOrDie()),
      video::ObjectClass::kCar);
  workload.status().CheckOk();
  return *workload;
}

// Simulates one week of degraded operation: sample frames from the week's
// workload under `iv`, stream outputs through a fresh monitor, and report.
void RunWeek(const char* label, const engine::Workload& week, const query::QuerySpec& spec,
             const degrade::InterventionSet& iv, double profiled_answer, stats::Rng& rng) {
  auto monitor = core::OnlineMonitor::Create(spec, week.dataset().num_frames(), 0.05);
  monitor.status().CheckOk();

  auto view = degrade::DegradedView::Create(week.dataset(), week.prior(), iv,
                                            week.detector().max_resolution(), rng);
  view.status().CheckOk();
  query::OutputColumn outputs;
  week.source().AppendOutputs(spec, view->sampled_frames(), view->resolution(), 1.0, outputs)
      .CheckOk();

  bool drifted = false;
  int64_t drift_at = 0;
  for (double output : outputs.outputs) {
    monitor->Observe(output);
    // Check every 50 frames once warmed up.
    if (monitor->count() >= 100 && monitor->count() % 50 == 0 && !drifted) {
      auto consistent = monitor->IsConsistentWith(profiled_answer, /*slack=*/0.25);
      consistent.status().CheckOk();
      if (!*consistent) {
        drifted = true;
        drift_at = monitor->count();
      }
    }
  }
  auto estimate = monitor->CurrentEstimate();
  estimate.status().CheckOk();
  std::printf("%-22s streamed %5zu frames: estimate %.3f (bound %.2f%%), profiled %.3f -> %s\n",
              label, outputs.size(), estimate->y_approx, estimate->err_b * 100.0,
              profiled_answer,
              drifted ? ("DRIFT at frame " + std::to_string(drift_at) + ", re-profile").c_str()
                      : "consistent");
}

}  // namespace

int main() {
  std::printf("=== Streaming deployment monitor ===\n\n");
  auto runtime = engine::Runtime::Create({});
  runtime.status().CheckOk();

  // Week 0: the profiled reference week.
  video::SceneConfig base = video::PresetConfig(video::ScenePreset::kNightStreet);
  base.num_frames = 5000;
  base.name = "week0";
  base.seed = 9000;
  engine::WorkloadHandle week0 = AdoptWeek(**runtime, base);

  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kAvg;

  degrade::InterventionSet iv;
  iv.sample_fraction = 0.2;  // The deployed degradation setting.

  stats::Rng rng(77);
  auto profiled = core::ResultErrorEst(week0->source(), week0->prior(), spec, iv, 0.05, rng);
  profiled.status().CheckOk();
  std::printf("profiled on week0: AVG=%.3f (bound %.2f%%), deployed setting %s\n\n",
              profiled->estimate.y_approx, profiled->estimate.err_b * 100.0,
              iv.ToString().c_str());

  // Weeks 1-2: same traffic process, new realizations -> consistent.
  for (int week = 1; week <= 2; ++week) {
    video::SceneConfig cfg = base;
    cfg.name = "week" + std::to_string(week);
    cfg.seed = 9000 + static_cast<uint64_t>(week);
    engine::WorkloadHandle workload = AdoptWeek(**runtime, cfg);
    RunWeek(cfg.name.c_str(), *workload, spec, iv, profiled->estimate.y_approx, rng);
  }

  // Week 3: a festival triples traffic -> the monitor must flag drift.
  {
    video::SceneConfig cfg = base;
    cfg.name = "week3-festival";
    cfg.seed = 9003;
    cfg.car_rate *= 3.0;
    engine::WorkloadHandle workload = AdoptWeek(**runtime, cfg);
    RunWeek(cfg.name.c_str(), *workload, spec, iv, profiled->estimate.y_approx, rng);
  }

  // Week 4: the festival persists. Re-profile on the drifted traffic, Reset
  // a monitor that had been fed the stale stream, and verify consistency is
  // restored against the fresh reference.
  {
    video::SceneConfig festival = base;
    festival.car_rate *= 3.0;
    festival.name = "week3-festival";
    festival.seed = 9003;
    engine::WorkloadHandle week3 = AdoptWeek(**runtime, festival);
    auto reprofiled =
        core::ResultErrorEst(week3->source(), week3->prior(), spec, iv, 0.05, rng);
    reprofiled.status().CheckOk();
    std::printf("\nre-profiled on week3: AVG=%.3f (bound %.2f%%)\n",
                reprofiled->estimate.y_approx, reprofiled->estimate.err_b * 100.0);

    // One long-lived monitor: poisoned by the stale week-0-calibrated view,
    // Reset, then fed week 4 of festival traffic.
    video::SceneConfig cfg4 = festival;
    cfg4.name = "week4-festival";
    cfg4.seed = 9004;
    engine::WorkloadHandle week4 = AdoptWeek(**runtime, cfg4);
    auto monitor = core::OnlineMonitor::Create(spec, week4->dataset().num_frames(), 0.05);
    monitor.status().CheckOk();
    monitor->Observe(0.0);  // Residue from before the reset.
    monitor->Reset();

    auto view4 = degrade::DegradedView::Create(week4->dataset(), week4->prior(), iv,
                                               week4->detector().max_resolution(), rng);
    view4.status().CheckOk();
    query::OutputColumn outputs4;
    week4->source()
        .AppendOutputs(spec, view4->sampled_frames(), view4->resolution(), 1.0, outputs4)
        .CheckOk();
    monitor->ObserveAll(outputs4.outputs);
    auto consistent = monitor->IsConsistentWith(reprofiled->estimate.y_approx, 0.25);
    consistent.status().CheckOk();
    auto estimate = monitor->CurrentEstimate();
    estimate.status().CheckOk();
    std::printf("%-22s streamed %5zu frames: estimate %.3f (bound %.2f%%), re-profiled %.3f -> %s\n",
                "week4-festival", outputs4.size(), estimate->y_approx,
                estimate->err_b * 100.0, reprofiled->estimate.y_approx,
                *consistent ? "consistent (recovered)" : "STILL DRIFTING");
  }

  std::printf(
      "\nThe profiled answer stays valid while traffic looks like the\n"
      "profiled week; the event week trips the drift check, telling the\n"
      "administrator to regenerate the profile — and after re-profiling,\n"
      "a Reset monitor confirms the new reference fits the new traffic.\n");
  return 0;
}
