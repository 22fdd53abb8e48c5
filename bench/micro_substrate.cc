// Micro-benchmarks for the substrate: scene simulation, detector inference,
// prior construction, degraded-view creation and sampling. These set the
// scale for the cost model: the simulated detector runs in microseconds
// where a real network takes ~30 ms/frame, which is why §5.3.1's
// invocation-count accounting (not wall-clock) is the portable comparison.

#include <benchmark/benchmark.h>

#include "degrade/degraded_view.h"
#include "detect/class_prior_index.h"
#include "detect/models.h"
#include "stats/sampling.h"
#include "video/presets.h"

namespace {

using namespace smokescreen;

void BM_SceneSimulation(benchmark::State& state) {
  video::SceneConfig cfg = video::PresetConfig(video::ScenePreset::kUaDetrac);
  cfg.num_frames = state.range(0);
  cfg.num_sequences = 1;
  for (auto _ : state) {
    auto ds = video::SimulateScene(cfg);
    benchmark::DoNotOptimize(ds);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SceneSimulation)->Arg(1000)->Arg(10000);

void BM_DetectorInference(benchmark::State& state) {
  auto ds = video::MakePresetScaled(video::ScenePreset::kUaDetrac, 2000);
  ds.status().CheckOk();
  detect::SimYoloV4 yolo;
  int64_t frame = 0;
  for (auto _ : state) {
    auto count = yolo.CountDetections(*ds, frame, static_cast<int>(state.range(0)),
                                      video::ObjectClass::kCar, 1.0);
    benchmark::DoNotOptimize(count);
    frame = (frame + 1) % ds->num_frames();
  }
}
BENCHMARK(BM_DetectorInference)->Arg(128)->Arg(608);

void BM_PriorConstruction(benchmark::State& state) {
  auto ds = video::MakePresetScaled(video::ScenePreset::kUaDetrac, state.range(0));
  ds.status().CheckOk();
  detect::SimYoloV4 yolo;
  detect::SimMtcnn mtcnn;
  for (auto _ : state) {
    auto prior = detect::ClassPriorIndex::Build(*ds, yolo, mtcnn);
    benchmark::DoNotOptimize(prior);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PriorConstruction)->Arg(1000);

void BM_DegradedViewCreation(benchmark::State& state) {
  auto ds = video::MakePresetScaled(video::ScenePreset::kUaDetrac, 5000);
  ds.status().CheckOk();
  detect::SimYoloV4 yolo;
  detect::SimMtcnn mtcnn;
  auto prior = detect::ClassPriorIndex::Build(*ds, yolo, mtcnn);
  prior.status().CheckOk();
  degrade::InterventionSet iv;
  iv.sample_fraction = 0.1;
  iv.resolution = 320;
  iv.restricted.Add(video::ObjectClass::kPerson);
  stats::Rng rng(1);
  for (auto _ : state) {
    auto view = degrade::DegradedView::Create(*ds, *prior, iv, 608, rng);
    benchmark::DoNotOptimize(view);
  }
}
BENCHMARK(BM_DegradedViewCreation);

void BM_SampleWithoutReplacement(benchmark::State& state) {
  stats::Rng rng(2);
  for (auto _ : state) {
    auto sample = stats::SampleWithoutReplacement(1000000, state.range(0), rng);
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// 30,000 is a 1M-frame correction set (3%), 50,000 the smallest 1M-frame
// profile fraction (5%), and 1,000,000 the correction sizing's permutation.
BENCHMARK(BM_SampleWithoutReplacement)
    ->Arg(100)
    ->Arg(10000)
    ->Arg(30000)
    ->Arg(50000)
    ->Arg(1000000);

}  // namespace

BENCHMARK_MAIN();
