// Profile generation (paper §3.1, §3.3).
//
// A Profile is the degradation hypercube: for every candidate intervention
// set, a (degradation, error-bound) point. The profiler implements the
// paper's §3.3.2 efficiencies:
//  * REUSE — within each (resolution, restricted-class) group, samples for
//    ascending fractions are nested prefixes of one random permutation, so
//    every model output computed at a low rate is reused at higher rates
//    (and the FrameOutputSource cache makes that reuse free);
//  * EARLY STOPPING — when the bound improves more slowly than a tolerance
//    from one fraction candidate to the next, the remaining (higher,
//    costlier) fractions of the group are skipped; the administrator
//    interpolates the missing values;
//  * PARALLELISM — hypercube groups are fully independent (each has its own
//    frame permutation and prefix-reuse chain), so Generate() dispatches one
//    task per group onto the util::ThreadPool of the FrameOutputSource it
//    reads (serially when the source has none). Each group draws its
//    permutation from an RNG stream seeded by (profile seed, group key), so
//    the profile is bit-identical at every pool width.
// Non-random candidates are repaired with the correction set (§3.2.5); for
// purely random candidates the tighter of the raw and repaired bounds is
// kept.

#ifndef SMOKESCREEN_CORE_PROFILER_H_
#define SMOKESCREEN_CORE_PROFILER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/repair.h"
#include "degrade/intervention.h"
#include "detect/class_prior_index.h"
#include "query/output_source.h"
#include "query/query_spec.h"
#include "stats/rng.h"
#include "util/metrics.h"
#include "util/status.h"

namespace smokescreen {
namespace core {

struct ProfilePoint {
  degrade::InterventionSet interventions;
  /// Final error bound shown to the administrator.
  double err_bound = 0.0;
  /// The basic (uncorrected) bound; may be invalid under non-random
  /// interventions.
  double err_uncorrected = 0.0;
  double y_approx = 0.0;
  bool repaired = false;
  int64_t sample_size = 0;
};

struct Profile {
  query::QuerySpec spec;
  std::string dataset_name;
  std::string detector_name;
  std::vector<ProfilePoint> points;

  /// Point for an exact intervention set, or nullptr when it was skipped
  /// (early stopping) or never a candidate.
  const ProfilePoint* Find(const degrade::InterventionSet& interventions) const;
};

/// Shared, immutable ownership of a generated profile. The serving layer
/// hands these out so a profile can outlive the session that generated it,
/// sit in a cache, and back any number of concurrent AdminSessions without
/// copies — closing the old "the profile reference must outlive the admin
/// session" footgun by construction.
using ProfileHandle = std::shared_ptr<const Profile>;

/// Wraps a profile into engine-owned shared form.
ProfileHandle MakeProfileHandle(Profile profile);

struct ProfilerOptions {
  double delta = 0.05;
  /// Build/use a correction set for repair. Required for valid bounds under
  /// non-random candidates.
  bool use_correction_set = true;
  /// Fixed correction set size; 0 selects it automatically via the §3.3.1
  /// elbow heuristic.
  int64_t correction_set_size = 0;
  /// Administrator's cap on the correction set (fraction of the video).
  double correction_max_fraction = 0.2;
  bool early_stop = true;
  /// Minimum bound improvement per fraction step to keep going.
  double early_stop_tolerance = 0.005;
};

/// Wall-clock and invocation accounting for the last Generate() call
/// (§5.3.1 reports profiling time split by stage).
struct ProfilerReport {
  /// Correction-set sizing + build (sequential; consumes the caller's RNG).
  double correction_seconds = 0.0;
  /// The parallel walk over hypercube groups.
  double groups_seconds = 0.0;
  double total_seconds = 0.0;
  /// The source's cache misses (model invocations) during this Generate(),
  /// including those of concurrent sessions on the same source.
  int64_t model_invocations = 0;
  /// The source's cache hits (reuse savings) during this Generate(),
  /// including those of concurrent sessions on the same source.
  int64_t cache_hits = 0;
  /// Width of the source's pool that walked the groups; 1 without one.
  int num_threads = 0;
  /// Number of (resolution, restricted, contrast) hypercube groups.
  int64_t num_groups = 0;
};

class Profiler {
 public:
  /// References must outlive the profiler. The profiler walks its groups on
  /// the source's thread pool and records its profiler.* instruments in the
  /// source's registry.
  Profiler(query::FrameOutputSource& source, const detect::ClassPriorIndex& prior,
           query::QuerySpec spec, ProfilerOptions options);

  /// Generates the profile over `candidates` (see BuildCandidateGrid).
  util::Result<Profile> Generate(const std::vector<degrade::InterventionSet>& candidates,
                                 stats::Rng& rng);

  /// The correction set built during the last Generate() (if enabled).
  const std::optional<CorrectionSet>& correction_set() const { return correction_set_; }

  /// Stage timings and invocation accounting for the last Generate(). The
  /// same stage durations roll into the source registry's
  /// "profiler.stage.{correction,groups,total}.seconds" histograms (one
  /// observation per Generate per stage); the report stays the per-call view,
  /// the registry the cross-call aggregate.
  const ProfilerReport& last_report() const { return report_; }

 private:
  query::FrameOutputSource& source_;
  const detect::ClassPriorIndex& prior_;
  query::QuerySpec spec_;
  ProfilerOptions options_;
  std::optional<CorrectionSet> correction_set_;
  ProfilerReport report_;

  /// Instruments in the source's registry (never null).
  struct Instruments {
    util::Histogram* correction_seconds = nullptr;
    util::Histogram* groups_seconds = nullptr;
    util::Histogram* total_seconds = nullptr;
    util::Counter* generate_calls = nullptr;
  };
  Instruments metrics_;
};

/// §2.3: "missing values should simply be interpolated by the
/// administrator". Returns the error bound at `target`, linearly
/// interpolated over the sample fraction within the profile group matching
/// target's other knobs (resolution, restricted classes, contrast). Error
/// when no such group exists or the fraction lies outside the group's range.
util::Result<double> InterpolateBound(const Profile& profile,
                                      const degrade::InterventionSet& target);

/// 2-D cube slices (the plots initially shown to administrators, with the
/// unseen dimensions fixed): all points matching the fixed knobs, ordered by
/// the varying knob.
std::vector<ProfilePoint> SliceByFraction(const Profile& profile, int resolution,
                                          const video::ClassSet& restricted);
std::vector<ProfilePoint> SliceByResolution(const Profile& profile, double fraction,
                                            const video::ClassSet& restricted);
std::vector<ProfilePoint> SliceByRestricted(const Profile& profile, double fraction,
                                            int resolution);

}  // namespace core
}  // namespace smokescreen

#endif  // SMOKESCREEN_CORE_PROFILER_H_
