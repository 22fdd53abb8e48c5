// The central query processor receiving degraded feeds from many cameras.
//
// Per the paper's §1 model, cameras transmit (already degraded) images and a
// central system runs the analytical query — here the detection UDF runs
// centrally over each ingested batch, per-camera estimates are formed with
// Algorithm 1, and a city-wide answer is produced by stratified combination
// (core/combine.h): camera k's interval gets weight N_k / sum N and failure
// budget delta / num_cameras.
//
// Fault tolerance: real uplinks lose frames and whole cameras. A lost frame
// only SHRINKS the delivered sample — the frames were sampled uniformly and
// channel faults are content-independent, so the survivors are still a
// uniform sample and Algorithm 1 over them stays valid with an honestly
// wider bound. Ingest therefore accepts partial batches (recording
// attempted vs delivered counts), each feed carries a health state
// (live / stale / no data), and CityWideEstimate comes in two flavors:
//   * the legacy all-feeds overload, which now REFUSES to answer (Status
//     error) unless every registered feed is live — it will not silently
//     return a number that pretends dead cameras don't exist;
//   * the PartialPolicy overload, which answers over the live feeds only,
//     reallocates the failure budget delta / num_live, and reports the
//     coverage (live fraction of the city's frame population) in
//     core::CombinedEstimate.
//
// Mean-family aggregates (AVG/SUM/COUNT) only: stratified combination of
// extreme quantiles is not sound without cross-camera distribution access.

#ifndef SMOKESCREEN_CAMERA_CENTRAL_SYSTEM_H_
#define SMOKESCREEN_CAMERA_CENTRAL_SYSTEM_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "camera/camera.h"
#include "core/combine.h"
#include "core/estimate.h"
#include "core/online_monitor.h"
#include "detect/detector.h"
#include "query/output_source.h"
#include "query/query_spec.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace smokescreen {
namespace camera {

/// Lifecycle of one registered feed.
enum class FeedHealth {
  kNoData = 0,  // Registered, nothing usable ingested yet (or reinstated).
  kLive,        // Latest batch ingested and trusted.
  kStale,       // Demoted: delivered nothing, went overdue, or failed the
                // drift check. Excluded from estimates until reinstated and
                // re-ingested.
};

const char* FeedHealthName(FeedHealth health);

/// Per-feed ingest circuit breaker state.
enum class BreakerState {
  kClosed = 0,  // Normal operation; failures are counted.
  kOpen,        // Tripped: ingest attempts are rejected (kUnavailable)
                // without running the UDF.
  kHalfOpen,    // Cooled down: the next batch is admitted as a probe.
};

const char* BreakerStateName(BreakerState state);

/// When a feed's uplink goes bad it tends to STAY bad for a while: every
/// ingest attempt then burns a full UDF pass (or a blackout round-trip) just
/// to rediscover the same failure. The breaker trips after a run of
/// consecutive ingest failures and rejects further batches cheaply, then
/// lets a probe batch through after a cooldown to discover recovery —
/// the ingest-tier mirror of TransmitPolicy's bounded retries.
struct BreakerPolicy {
  /// Consecutive ingest failures (blackout batches or UDF errors) that trip
  /// the breaker open. >= 1.
  int failure_threshold = 3;
  /// Rejected ingest attempts the open breaker absorbs before half-opening
  /// to admit a probe batch. >= 1.
  int open_cooldown = 2;

  util::Status Validate() const;
};

/// How CityWideEstimate(PartialPolicy) treats an incomplete deployment.
struct PartialPolicy {
  /// Minimum live feeds required to answer at all.
  int64_t min_live_feeds = 1;
  /// Minimum coverage (live fraction of the city's frame population) in
  /// [0,1]; below it the partial answer is refused as too unrepresentative.
  double min_coverage = 0.0;

  util::Status Validate() const;
};

class CentralSystem {
 public:
  /// `delta` is the total failure budget, split evenly across feeds at
  /// estimation time.
  static util::Result<CentralSystem> Create(const query::QuerySpec& spec, double delta);

  /// Registers a camera feed. The camera and detector must outlive the
  /// system. Error when the id is already registered.
  util::Status AddFeed(const Camera& cam, const detect::Detector& model) SMK_EXCLUDES(*mu_);

  /// Ingests one transmitted batch: runs the UDF over the delivered frames
  /// and stores the outputs for estimation. Error for unknown camera ids or
  /// batches that attempted nothing. A batch that attempted frames but
  /// delivered none (blackout) is accepted and demotes the feed to stale.
  /// Re-ingesting a camera's batch replaces the previous one with a logged
  /// warning (common and expected under retrying transports).
  ///
  /// Circuit breaker: after `BreakerPolicy.failure_threshold` CONSECUTIVE
  /// ingest failures (blackouts or UDF errors) the feed's breaker trips and
  /// subsequent batches are rejected with kUnavailable without running the
  /// UDF. After `open_cooldown` rejections the breaker half-opens: the next
  /// batch is admitted as a probe — success closes the breaker, failure
  /// re-opens it. Malformed batches (unknown id, attempted nothing) are
  /// caller bugs and neither count as failures nor consume the probe.
  util::Status Ingest(const CameraBatch& batch) SMK_EXCLUDES(*mu_);

  /// Breaker policy applied to every feed. InvalidArgument on a malformed
  /// policy. Takes effect on subsequent ingests; already-open breakers keep
  /// their counts.
  util::Status set_breaker_policy(const BreakerPolicy& policy) SMK_EXCLUDES(*mu_);
  BreakerPolicy breaker_policy() const SMK_EXCLUDES(*mu_) {
    util::MutexLock lock(mu_.get());
    return breaker_policy_;
  }

  /// Breaker state of one feed; NotFound for unknown ids.
  util::Result<BreakerState> feed_breaker(int camera_id) const SMK_EXCLUDES(*mu_);
  /// Times this feed's breaker has tripped open; NotFound for unknown ids.
  util::Result<int64_t> feed_breaker_trips(int camera_id) const SMK_EXCLUDES(*mu_);

  /// Number of feeds currently live (ingested and trusted).
  int64_t feeds_with_data() const SMK_EXCLUDES(*mu_);
  int64_t feeds_registered() const SMK_EXCLUDES(*mu_) {
    util::MutexLock lock(mu_.get());
    return static_cast<int64_t>(feeds_.size());
  }

  /// Health of one feed; NotFound for unknown ids.
  util::Result<FeedHealth> feed_health(int camera_id) const SMK_EXCLUDES(*mu_);
  /// Batches ever ingested for one feed (including replaced and empty ones).
  util::Result<int64_t> batches_ingested(int camera_id) const SMK_EXCLUDES(*mu_);
  /// Attempted/delivered frame counts from the feed's latest batch.
  util::Result<std::pair<int64_t, int64_t>> feed_delivery(int camera_id) const
      SMK_EXCLUDES(*mu_);

  // --- Health transitions ---------------------------------------------------
  /// Demotes a feed whose batch has not arrived in time to stale.
  util::Status MarkFeedOverdue(int camera_id) SMK_EXCLUDES(*mu_);
  /// Runs the feed's drift check (core::OnlineMonitor) against the profiled
  /// reference answer (aggregate scale). Returns whether the feed is
  /// consistent; on inconsistency the feed is demoted to stale as a side
  /// effect. Error when the feed has no ingested data.
  util::Result<bool> CheckFeedDrift(int camera_id, double reference_answer,
                                    double slack = 0.0) SMK_EXCLUDES(*mu_);
  /// Clears a stale feed back to kNoData after re-profiling; it rejoins the
  /// estimate at its next ingested batch.
  util::Status ReinstateFeed(int camera_id) SMK_EXCLUDES(*mu_);

  /// Algorithm-1 estimate for one camera (mean scale), over whatever its
  /// latest batch delivered.
  util::Result<core::Estimate> CameraEstimate(int camera_id) const SMK_EXCLUDES(*mu_);

  /// Strict city-wide estimate: every registered feed must be live. Returns
  /// FailedPrecondition naming the first non-live feed otherwise — use the
  /// PartialPolicy overload for an explicit partial answer.
  util::Result<core::CombinedEstimate> CityWideEstimate() const SMK_EXCLUDES(*mu_);

  /// Partial city-wide estimate over the live feeds only. Each live feed
  /// gets failure budget delta / num_live; the result's `coverage` reports
  /// the live fraction of the city's frame population, and `strata_total`
  /// the number of registered feeds. FailedPrecondition when fewer than
  /// `policy.min_live_feeds` feeds are live or coverage falls below
  /// `policy.min_coverage`.
  util::Result<core::CombinedEstimate> CityWideEstimate(const PartialPolicy& policy) const
      SMK_EXCLUDES(*mu_);

 private:
  /// Binds the central_system.* instruments (ingest counters, breaker trip
  /// counter, open-breakers gauge) to util::MetricsRegistry::Default().
  CentralSystem(const query::QuerySpec& spec, double delta);

  /// Built in place in feeds_ (map nodes never move): its two counters are
  /// this feed's own tallies over the registry counters of the same name.
  struct Feed {
    Feed(util::Counter* batches_total, util::Counter* trips_total)
        : batches_ingested(batches_total), breaker_trips(trips_total) {}

    const Camera* cam = nullptr;
    std::unique_ptr<query::FrameOutputSource> source;
    // Filled by Ingest():
    bool has_batch = false;
    FeedHealth health = FeedHealth::kNoData;
    std::vector<double> outputs;
    int64_t eligible_population = 0;
    util::Counter batches_ingested;
    int64_t attempted_frames = 0;
    int64_t delivered_frames = 0;
    // Streams the latest batch's outputs for the drift check.
    std::unique_ptr<core::OnlineMonitor> monitor;
    // Circuit breaker (see Ingest).
    BreakerState breaker = BreakerState::kClosed;
    int consecutive_failures = 0;   // Run length of failed ingests.
    int rejections_since_open = 0;  // Batches bounced by the open breaker.
    util::Counter breaker_trips;
  };

  /// Records one failed ingest (blackout or UDF error) against the feed's
  /// breaker; trips/re-opens it per policy. Caller holds *mu_
  /// (machine-checked under clang; AssertHeld on entry elsewhere).
  void RecordIngestFailure(int camera_id, Feed& feed, const char* what) SMK_REQUIRES(*mu_);

  /// Live-feed count; caller holds *mu_.
  int64_t FeedsWithDataLocked() const SMK_REQUIRES(*mu_);

  util::Result<core::CombinedEstimate> CombineFeeds(
      const std::vector<const Feed*>& included) const SMK_REQUIRES(*mu_);

  /// Registry-bound instruments (never null after construction). Each
  /// feed's counters add into batches_ingested and breaker_trips.
  struct Instruments {
    util::Counter* batches_ingested = nullptr;
    util::Counter* ingest_failures = nullptr;
    util::Counter* ingest_rejected = nullptr;
    util::Counter* breaker_trips = nullptr;
    /// Feeds whose breaker is currently kOpen (half-open probes count as
    /// not-open: the uplink is being trusted again).
    util::Gauge* breakers_open = nullptr;
  };
  Instruments metrics_;

  /// Heap-held so CentralSystem stays movable (Create returns it by value
  /// inside a Result); guards every feed's batch, health and breaker state.
  std::unique_ptr<util::Mutex> mu_;

  query::QuerySpec spec_;
  double delta_;
  BreakerPolicy breaker_policy_ SMK_GUARDED_BY(*mu_);
  std::map<int, Feed> feeds_ SMK_GUARDED_BY(*mu_);
};

}  // namespace camera
}  // namespace smokescreen

#endif  // SMOKESCREEN_CAMERA_CENTRAL_SYSTEM_H_
