#include "camera/central_system.h"

#include <algorithm>

#include "core/avg_estimator.h"
#include "util/logging.h"

namespace smokescreen {
namespace camera {

using util::Result;
using util::Status;

const char* FeedHealthName(FeedHealth health) {
  switch (health) {
    case FeedHealth::kNoData:
      return "no-data";
    case FeedHealth::kLive:
      return "live";
    case FeedHealth::kStale:
      return "stale";
  }
  return "unknown";
}

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

Status BreakerPolicy::Validate() const {
  if (failure_threshold < 1) {
    return Status::InvalidArgument("BreakerPolicy.failure_threshold must be >= 1");
  }
  if (open_cooldown < 1) {
    return Status::InvalidArgument("BreakerPolicy.open_cooldown must be >= 1");
  }
  return Status::OK();
}

Status PartialPolicy::Validate() const {
  if (min_live_feeds < 1) return Status::InvalidArgument("min_live_feeds must be >= 1");
  if (min_coverage < 0.0 || min_coverage > 1.0) {
    return Status::InvalidArgument("min_coverage must be in [0,1]");
  }
  return Status::OK();
}

CentralSystem::CentralSystem(const query::QuerySpec& spec, double delta)
    : mu_(std::make_unique<util::Mutex>()), spec_(spec), delta_(delta) {
  util::MetricsRegistry& registry = util::MetricsRegistry::Default();
  metrics_.batches_ingested = registry.GetCounter("central_system.batches_ingested");
  metrics_.ingest_failures = registry.GetCounter("central_system.ingest_failures");
  metrics_.ingest_rejected = registry.GetCounter("central_system.ingest_rejected");
  metrics_.breaker_trips = registry.GetCounter("central_system.breaker_trips");
  metrics_.breakers_open = registry.GetGauge("central_system.breakers_open");
}

Result<CentralSystem> CentralSystem::Create(const query::QuerySpec& spec, double delta) {
  SMK_RETURN_IF_ERROR(spec.Validate());
  if (!query::IsMeanFamily(spec.aggregate)) {
    return Status::NotImplemented("central combination supports AVG/SUM/COUNT only");
  }
  if (delta <= 0.0 || delta >= 1.0) return Status::InvalidArgument("delta must be in (0,1)");
  return CentralSystem(spec, delta);
}

Status CentralSystem::AddFeed(const Camera& cam, const detect::Detector& model) {
  util::MutexLock lock(mu_.get());
  auto [it, inserted] =
      feeds_.try_emplace(cam.camera_id(), metrics_.batches_ingested, metrics_.breaker_trips);
  if (!inserted) {
    return Status::AlreadyExists("camera " + std::to_string(cam.camera_id()) +
                                 " already registered");
  }
  it->second.cam = &cam;
  it->second.source = std::make_unique<query::FrameOutputSource>(cam.feed(), model,
                                                                 spec_.target_class);
  return Status::OK();
}

Status CentralSystem::set_breaker_policy(const BreakerPolicy& policy) {
  SMK_RETURN_IF_ERROR(policy.Validate());
  util::MutexLock lock(mu_.get());
  breaker_policy_ = policy;
  return Status::OK();
}

Result<BreakerState> CentralSystem::feed_breaker(int camera_id) const {
  util::MutexLock lock(mu_.get());
  auto it = feeds_.find(camera_id);
  if (it == feeds_.end()) {
    return Status::NotFound("camera " + std::to_string(camera_id) + " not registered");
  }
  return it->second.breaker;
}

Result<int64_t> CentralSystem::feed_breaker_trips(int camera_id) const {
  util::MutexLock lock(mu_.get());
  auto it = feeds_.find(camera_id);
  if (it == feeds_.end()) {
    return Status::NotFound("camera " + std::to_string(camera_id) + " not registered");
  }
  return it->second.breaker_trips.Value();
}

void CentralSystem::RecordIngestFailure(int camera_id, Feed& feed, const char* what) {
  mu_->AssertHeld();
  ++feed.consecutive_failures;
  metrics_.ingest_failures->Increment();
  if (feed.breaker == BreakerState::kHalfOpen) {
    // The probe failed: the uplink is still bad, go straight back to open.
    feed.breaker = BreakerState::kOpen;
    feed.rejections_since_open = 0;
    feed.breaker_trips.Increment();
    metrics_.breakers_open->Add(1);
    SMK_LOG(WARNING) << "camera " << camera_id << ": probe batch failed (" << what
                     << "); breaker re-opened (trip #" << feed.breaker_trips.Value() << ")";
  } else if (feed.breaker == BreakerState::kClosed &&
             feed.consecutive_failures >= breaker_policy_.failure_threshold) {
    feed.breaker = BreakerState::kOpen;
    feed.rejections_since_open = 0;
    feed.breaker_trips.Increment();
    metrics_.breakers_open->Add(1);
    // A feed sick enough to trip the breaker cannot be trusted in estimates.
    feed.health = FeedHealth::kStale;
    SMK_LOG(WARNING) << "camera " << camera_id << ": " << feed.consecutive_failures
                     << " consecutive ingest failures (last: " << what
                     << "); breaker tripped open, feed demoted to stale";
  }
}

Status CentralSystem::Ingest(const CameraBatch& batch) {
  util::MutexLock lock(mu_.get());
  auto it = feeds_.find(batch.camera_id);
  if (it == feeds_.end()) {
    return Status::NotFound("camera " + std::to_string(batch.camera_id) + " not registered");
  }
  Feed& feed = it->second;
  // Legacy hand-built batches may leave attempted_frames at 0; the delivered
  // list then defines the attempt count.
  const int64_t attempted =
      std::max(batch.attempted_frames, batch.delivered_frames());
  if (attempted == 0) {
    return Status::InvalidArgument("empty batch from camera " +
                                   std::to_string(batch.camera_id) +
                                   " (attempted no frames)");
  }
  if (feed.breaker == BreakerState::kOpen) {
    if (feed.rejections_since_open < breaker_policy_.open_cooldown) {
      ++feed.rejections_since_open;
      metrics_.ingest_rejected->Increment();
      return Status::Unavailable(
          "camera " + std::to_string(batch.camera_id) + " breaker is open after " +
          std::to_string(feed.consecutive_failures) + " consecutive ingest failures");
    }
    // Cooled down: admit this batch as the recovery probe.
    feed.breaker = BreakerState::kHalfOpen;
    metrics_.breakers_open->Add(-1);
    SMK_LOG(INFO) << "camera " << batch.camera_id
                  << ": breaker half-open; admitting probe batch";
  }
  if (feed.has_batch) {
    SMK_LOG(WARNING) << "camera " << batch.camera_id << ": replacing previous batch ("
                     << feed.delivered_frames << " frames) with a new one ("
                     << batch.delivered_frames() << " frames); batches_ingested="
                     << feed.batches_ingested.Value() + 1;
  }
  feed.batches_ingested.Increment();
  feed.attempted_frames = attempted;
  feed.delivered_frames = batch.delivered_frames();

  if (batch.frame_indices.empty()) {
    // The camera tried and the channel delivered nothing (blackout). This is
    // an honest failure, not a malformed request: record it and demote.
    SMK_LOG(WARNING) << "camera " << batch.camera_id << ": batch attempted " << attempted
                     << " frames but delivered none; demoting feed to stale";
    feed.has_batch = false;
    feed.health = FeedHealth::kStale;
    feed.outputs.clear();
    feed.monitor.reset();
    RecordIngestFailure(batch.camera_id, feed, "blackout batch");
    return Status::OK();
  }

  query::OutputColumn column;
  Status status = feed.source->AppendOutputs(spec_, batch.frame_indices, batch.resolution,
                                             batch.contrast_scale, column);
  if (!status.ok()) {
    RecordIngestFailure(batch.camera_id, feed, "UDF error");
    return status;
  }
  feed.outputs = std::move(column.outputs);
  feed.eligible_population = batch.eligible_population;
  feed.has_batch = true;
  feed.health = FeedHealth::kLive;
  if (feed.breaker != BreakerState::kClosed) {
    SMK_LOG(INFO) << "camera " << batch.camera_id
                  << ": ingest succeeded; breaker closed";
  }
  feed.breaker = BreakerState::kClosed;
  feed.consecutive_failures = 0;
  feed.rejections_since_open = 0;

  // Refresh the per-feed drift monitor over the new batch's stream.
  auto monitor = core::OnlineMonitor::Create(
      spec_, feed.eligible_population,
      delta_ / static_cast<double>(std::max<size_t>(1, feeds_.size())));
  if (monitor.ok()) {
    feed.monitor = std::make_unique<core::OnlineMonitor>(std::move(monitor).ValueOrDie());
    feed.monitor->ObserveAll(feed.outputs);
  } else {
    feed.monitor.reset();
  }
  return Status::OK();
}

int64_t CentralSystem::feeds_with_data() const {
  util::MutexLock lock(mu_.get());
  return FeedsWithDataLocked();
}

int64_t CentralSystem::FeedsWithDataLocked() const {
  mu_->AssertHeld();
  int64_t count = 0;
  for (const auto& [id, feed] : feeds_) {
    if (feed.health == FeedHealth::kLive) ++count;
  }
  return count;
}

Result<FeedHealth> CentralSystem::feed_health(int camera_id) const {
  util::MutexLock lock(mu_.get());
  auto it = feeds_.find(camera_id);
  if (it == feeds_.end()) {
    return Status::NotFound("camera " + std::to_string(camera_id) + " not registered");
  }
  return it->second.health;
}

Result<int64_t> CentralSystem::batches_ingested(int camera_id) const {
  util::MutexLock lock(mu_.get());
  auto it = feeds_.find(camera_id);
  if (it == feeds_.end()) {
    return Status::NotFound("camera " + std::to_string(camera_id) + " not registered");
  }
  return it->second.batches_ingested.Value();
}

Result<std::pair<int64_t, int64_t>> CentralSystem::feed_delivery(int camera_id) const {
  util::MutexLock lock(mu_.get());
  auto it = feeds_.find(camera_id);
  if (it == feeds_.end()) {
    return Status::NotFound("camera " + std::to_string(camera_id) + " not registered");
  }
  return std::make_pair(it->second.attempted_frames, it->second.delivered_frames);
}

Status CentralSystem::MarkFeedOverdue(int camera_id) {
  util::MutexLock lock(mu_.get());
  auto it = feeds_.find(camera_id);
  if (it == feeds_.end()) {
    return Status::NotFound("camera " + std::to_string(camera_id) + " not registered");
  }
  SMK_LOG(WARNING) << "camera " << camera_id << ": batch overdue; demoting feed to stale";
  it->second.health = FeedHealth::kStale;
  return Status::OK();
}

Result<bool> CentralSystem::CheckFeedDrift(int camera_id, double reference_answer,
                                           double slack) {
  util::MutexLock lock(mu_.get());
  auto it = feeds_.find(camera_id);
  if (it == feeds_.end()) {
    return Status::NotFound("camera " + std::to_string(camera_id) + " not registered");
  }
  Feed& feed = it->second;
  if (!feed.has_batch || feed.monitor == nullptr) {
    return Status::FailedPrecondition("camera " + std::to_string(camera_id) +
                                      " has no ingested data to check for drift");
  }
  SMK_ASSIGN_OR_RETURN(bool consistent,
                       feed.monitor->IsConsistentWith(reference_answer, slack));
  if (!consistent) {
    SMK_LOG(WARNING) << "camera " << camera_id
                     << ": drift check failed against reference " << reference_answer
                     << "; demoting feed to stale";
    feed.health = FeedHealth::kStale;
  }
  return consistent;
}

Status CentralSystem::ReinstateFeed(int camera_id) {
  util::MutexLock lock(mu_.get());
  auto it = feeds_.find(camera_id);
  if (it == feeds_.end()) {
    return Status::NotFound("camera " + std::to_string(camera_id) + " not registered");
  }
  Feed& feed = it->second;
  feed.health = FeedHealth::kNoData;
  feed.has_batch = false;
  feed.outputs.clear();
  if (feed.monitor) feed.monitor->Reset();
  // Reinstatement is an operator's assertion that the feed was fixed — the
  // breaker's failure history no longer describes the uplink.
  if (feed.breaker == BreakerState::kOpen) metrics_.breakers_open->Add(-1);
  feed.breaker = BreakerState::kClosed;
  feed.consecutive_failures = 0;
  feed.rejections_since_open = 0;
  return Status::OK();
}

Result<core::Estimate> CentralSystem::CameraEstimate(int camera_id) const {
  util::MutexLock lock(mu_.get());
  auto it = feeds_.find(camera_id);
  if (it == feeds_.end()) {
    return Status::NotFound("camera " + std::to_string(camera_id) + " not registered");
  }
  const Feed& feed = it->second;
  if (!feed.has_batch) {
    return Status::FailedPrecondition("camera " + std::to_string(camera_id) +
                                      " has not delivered a usable batch");
  }
  int64_t active = std::max<int64_t>(1, FeedsWithDataLocked());
  double delta_k = delta_ / static_cast<double>(active);
  core::SmokescreenMeanEstimator estimator;
  return estimator.EstimateMean(feed.outputs, feed.eligible_population, delta_k);
}

Result<core::CombinedEstimate> CentralSystem::CombineFeeds(
    const std::vector<const Feed*>& included) const {
  mu_->AssertHeld();
  if (included.empty()) {
    return Status::FailedPrecondition("no live feed to combine");
  }
  const double delta_k = delta_ / static_cast<double>(included.size());
  std::vector<core::StratumInterval> strata;
  strata.reserve(included.size());
  for (const Feed* feed : included) {
    SMK_ASSIGN_OR_RETURN(auto bounds,
                         core::SmokescreenMeanEstimator::ConfidenceBounds(
                             feed->outputs, feed->eligible_population, delta_k));
    core::StratumInterval stratum;
    stratum.lb = bounds.first;
    stratum.ub = bounds.second;
    stratum.population = feed->eligible_population;
    stratum.delta = delta_k;
    strata.push_back(stratum);
  }
  SMK_ASSIGN_OR_RETURN(core::CombinedEstimate combined,
                       core::CombineMeanEstimates(strata));

  // Coverage: live share of the city's full frame population. Feed frame
  // counts (not eligible populations) are used so that feeds which never
  // delivered a batch still weigh in the denominator.
  double live_frames = 0.0, all_frames = 0.0;
  for (const auto& [id, feed] : feeds_) {
    double frames = static_cast<double>(feed.cam->feed().num_frames());
    all_frames += frames;
    if (std::find(included.begin(), included.end(), &feed) != included.end()) {
      live_frames += frames;
    }
  }
  combined.coverage = all_frames > 0.0 ? live_frames / all_frames : 1.0;
  combined.strata_total = static_cast<int64_t>(feeds_.size());
  return combined;
}

Result<core::CombinedEstimate> CentralSystem::CityWideEstimate() const {
  util::MutexLock lock(mu_.get());
  if (feeds_.empty()) return Status::FailedPrecondition("no camera registered");
  std::vector<const Feed*> included;
  included.reserve(feeds_.size());
  for (const auto& [id, feed] : feeds_) {
    if (feed.health != FeedHealth::kLive) {
      return Status::FailedPrecondition(
          "camera " + std::to_string(id) + " is " + FeedHealthName(feed.health) +
          "; the all-feeds estimate refuses to silently drop it — use "
          "CityWideEstimate(PartialPolicy) for an explicit partial answer");
    }
    included.push_back(&feed);
  }
  return CombineFeeds(included);
}

Result<core::CombinedEstimate> CentralSystem::CityWideEstimate(
    const PartialPolicy& policy) const {
  SMK_RETURN_IF_ERROR(policy.Validate());
  util::MutexLock lock(mu_.get());
  if (feeds_.empty()) return Status::FailedPrecondition("no camera registered");
  std::vector<const Feed*> included;
  for (const auto& [id, feed] : feeds_) {
    if (feed.health == FeedHealth::kLive) included.push_back(&feed);
  }
  if (static_cast<int64_t>(included.size()) < policy.min_live_feeds) {
    return Status::FailedPrecondition(
        "only " + std::to_string(included.size()) + " of " +
        std::to_string(feeds_.size()) + " feeds are live (policy requires " +
        std::to_string(policy.min_live_feeds) + ")");
  }
  SMK_ASSIGN_OR_RETURN(core::CombinedEstimate combined, CombineFeeds(included));
  if (combined.coverage < policy.min_coverage) {
    return Status::FailedPrecondition(
        "live feeds cover only " + std::to_string(combined.coverage) +
        " of the city's frame population (policy requires " +
        std::to_string(policy.min_coverage) + ")");
  }
  return combined;
}

}  // namespace camera
}  // namespace smokescreen
