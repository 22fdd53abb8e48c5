#include "engine/runtime.h"

#include <filesystem>
#include <utility>

#include "detect/models.h"
#include "detect/registry.h"
#include "engine/session.h"
#include "query/output_store.h"
#include "video/types.h"

namespace smokescreen {
namespace engine {

using util::Result;
using util::Status;

Result<video::ScenePreset> PresetByName(const std::string& name) {
  if (name == "ua-detrac") return video::ScenePreset::kUaDetrac;
  if (name == "night-street") return video::ScenePreset::kNightStreet;
  if (name == "MVI_40771") return video::ScenePreset::kMvi40771;
  if (name == "MVI_40775") return video::ScenePreset::kMvi40775;
  return Status::NotFound("unknown dataset: " + name);
}

std::string WorkloadShareKey(const WorkloadDesc& desc) {
  return std::string(video::ScenePresetName(desc.preset)) + "#f=" +
         std::to_string(desc.frames) + "#" + desc.detector_name +
         "#class=" + std::string(video::ObjectClassName(desc.target_class));
}

ProfileProvenance Workload::provenance() const {
  ProfileProvenance provenance;
  provenance.dataset_id = dataset_->dataset_id();
  provenance.model_id = detector_->model_id();
  provenance.num_frames = dataset_->num_frames();
  return provenance;
}

namespace {

/// Profiles the ProfileCache keeps (LRU).
constexpr size_t kProfileCacheCapacity = 16;

bool PointsIdentical(const core::ProfilePoint& a, const core::ProfilePoint& b) {
  return a.interventions == b.interventions && a.err_bound == b.err_bound &&
         a.err_uncorrected == b.err_uncorrected && a.y_approx == b.y_approx &&
         a.repaired == b.repaired && a.sample_size == b.sample_size;
}

}  // namespace

bool ProfilesBitIdentical(const core::Profile& a, const core::Profile& b) {
  if (a.points.size() != b.points.size()) return false;
  if (a.dataset_name != b.dataset_name || a.detector_name != b.detector_name) return false;
  for (size_t i = 0; i < a.points.size(); ++i) {
    if (!PointsIdentical(a.points[i], b.points[i])) return false;
  }
  return true;
}

Runtime::Runtime(RuntimeOptions options) : options_(std::move(options)) {
  env_ = options_.env != nullptr ? options_.env : &util::Env::Default();
  registry_ = &util::MetricsRegistry::OrDefault(options_.registry);
  executor_ = std::make_unique<util::ThreadPool>(options_.num_threads, registry_);
  profile_cache_ = std::make_unique<ProfileCache>(kProfileCacheCapacity, registry_);

  metrics_.sessions_started = registry_->GetCounter("engine.sessions.started");
  metrics_.sessions_active = registry_->GetGauge("engine.sessions.active");
  metrics_.store_save_seconds = registry_->GetStageHistogram("engine.store.save.seconds");
  metrics_.workloads_materialized = registry_->GetCounter("engine.workloads.materialized");
  metrics_.workloads_shared = registry_->GetCounter("engine.workloads.shared");
}

Runtime::~Runtime() = default;

Result<std::unique_ptr<Runtime>> Runtime::Create(RuntimeOptions options) {
  if (options.max_batch_size < 0) {
    return Status::InvalidArgument("max_batch_size must be >= 0 (0 = unlimited)");
  }
  return std::unique_ptr<Runtime>(new Runtime(std::move(options)));
}

std::unique_ptr<query::FrameOutputSource> Runtime::MakeSource(
    const video::VideoDataset& dataset, const detect::Detector& detector,
    video::ObjectClass target_class) const {
  auto source =
      std::make_unique<query::FrameOutputSource>(dataset, detector, target_class, registry_);
  source->set_max_batch_size(options_.max_batch_size);
  // The shared executor serves the source's miss-batch fan-out as well as
  // the profiler's group fan-out. This is safe against the classic
  // pool-against-itself deadlock because the source dispatches misses with
  // ThreadPool::ParallelFor, which detects a caller already ON an executor
  // worker (a profiler group task) and runs the identical chunk sequence
  // inline instead of blocking — while external session threads get real
  // fan-out across idle workers.
  source->set_thread_pool(executor_.get());
  return source;
}

Result<std::unique_ptr<Workload>> Runtime::Materialize(const WorkloadDesc& desc) {
  auto workload = std::unique_ptr<Workload>(new Workload());
  workload->share_key_ = WorkloadShareKey(desc);
  workload->label_ = std::string(video::ScenePresetName(desc.preset)) + "+" +
                     desc.detector_name;
  workload->store_path_ = desc.output_store_path;

  auto dataset = desc.frames > 0 ? video::MakePresetScaled(desc.preset, desc.frames)
                                 : video::MakePreset(desc.preset);
  SMK_RETURN_IF_ERROR(dataset.status());
  workload->dataset_ = std::make_unique<video::VideoDataset>(std::move(*dataset));

  SMK_ASSIGN_OR_RETURN(workload->detector_, detect::MakeDetector(desc.detector_name));

  // The restricted-class prior is always computed with YOLO (person) +
  // MTCNN (face), as in the paper's workloads.
  detect::SimYoloV4 person_detector;
  detect::SimMtcnn face_detector;
  auto prior = detect::ClassPriorIndex::Build(*workload->dataset_, person_detector,
                                              face_detector);
  SMK_RETURN_IF_ERROR(prior.status());
  workload->prior_ = std::make_unique<detect::ClassPriorIndex>(std::move(*prior));

  workload->source_ = MakeSource(*workload->dataset_, *workload->detector_, desc.target_class);

  if (!desc.output_store_path.empty()) {
    if (env_->FileExists(desc.output_store_path)) {
      // Salvage rather than strict-load: a partially damaged store still
      // yields its CRC-verified columns; the quarantined remainder is simply
      // recomputed by later requests (and healed on the next SaveStore).
      auto salvaged =
          query::OutputStore::Salvage(*env_, desc.output_store_path, registry_);
      SMK_RETURN_IF_ERROR(salvaged.status());
      if (!salvaged->report.clean()) {
        workload->warm_start_damage_ = salvaged->report.Summary();
      }
      SMK_ASSIGN_OR_RETURN(workload->warm_start_entries_,
                           workload->source_->Preload(salvaged->store));
    } else {
      // Fail now, not after minutes of profiling: the save at the end needs
      // the parent directory to exist.
      std::error_code ec;
      std::filesystem::path parent =
          std::filesystem::path(desc.output_store_path).parent_path();
      if (!parent.empty() && !std::filesystem::is_directory(parent, ec)) {
        return Status::InvalidArgument("output-store directory does not exist: " +
                                       parent.string());
      }
    }
  }
  metrics_.workloads_materialized->Increment();
  return workload;
}

Result<WorkloadHandle> Runtime::GetWorkload(const WorkloadDesc& desc) {
  const std::string key = WorkloadShareKey(desc);
  // Materialization runs under the map lock: it serializes workload
  // creation (once per (dataset, model) pair per process — not a hot path)
  // in exchange for a hard exactly-once guarantee, so two racing sessions
  // can never build two sources for the same pair.
  util::MutexLock lock(&workloads_mu_);
  auto it = workloads_.find(key);
  if (it != workloads_.end()) {
    metrics_.workloads_shared->Increment();
    return it->second;
  }
  SMK_ASSIGN_OR_RETURN(std::unique_ptr<Workload> workload, Materialize(desc));
  WorkloadHandle handle(std::move(workload));
  workloads_[key] = handle;
  return handle;
}

Result<WorkloadHandle> Runtime::CreateIsolatedWorkload(const WorkloadDesc& desc) {
  SMK_ASSIGN_OR_RETURN(std::unique_ptr<Workload> workload, Materialize(desc));
  return WorkloadHandle(std::move(workload));
}

Result<WorkloadHandle> Runtime::AdoptWorkload(std::string label,
                                              std::unique_ptr<video::VideoDataset> dataset,
                                              std::unique_ptr<detect::Detector> detector,
                                              std::unique_ptr<detect::ClassPriorIndex> prior,
                                              video::ObjectClass target_class) {
  if (dataset == nullptr || detector == nullptr || prior == nullptr) {
    return Status::InvalidArgument("AdoptWorkload requires dataset, detector and prior");
  }
  auto workload = std::unique_ptr<Workload>(new Workload());
  workload->label_ = std::move(label);
  workload->share_key_ = "adopted#" + workload->label_ + "#" + dataset->name() + "#" +
                         detector->name() +
                         "#class=" + std::string(video::ObjectClassName(target_class));
  workload->dataset_ = std::move(dataset);
  workload->detector_ = std::move(detector);
  workload->prior_ = std::move(prior);
  workload->source_ = MakeSource(*workload->dataset_, *workload->detector_, target_class);
  metrics_.workloads_materialized->Increment();
  return WorkloadHandle(std::move(workload));
}

Result<std::unique_ptr<Session>> Runtime::StartSession(WorkloadHandle workload,
                                                       SessionConfig config) {
  if (workload == nullptr) {
    return Status::InvalidArgument("StartSession requires a workload");
  }
  SMK_RETURN_IF_ERROR(config.spec.Validate());
  const uint64_t seed = config.seed.value_or(options_.default_seed);
  metrics_.sessions_started->Increment();
  metrics_.sessions_active->Add(1);
  return std::unique_ptr<Session>(
      new Session(this, std::move(workload), std::move(config), seed));
}

Status Runtime::SaveStore(const WorkloadHandle& workload, const std::string& path) {
  if (workload == nullptr) return Status::InvalidArgument("SaveStore requires a workload");
  const std::string& target = path.empty() ? workload->output_store_path() : path;
  if (target.empty()) {
    return Status::InvalidArgument("workload has no output-store path configured");
  }
  util::ScopedSpan save_span(metrics_.store_save_seconds);
  query::OutputStore store = workload->source().ExportStore();
  return store.Save(*env_, target);
}

}  // namespace engine
}  // namespace smokescreen
