#include "core/profiler.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>

#include "stats/sampling.h"
#include "util/thread_pool.h"

namespace smokescreen {
namespace core {

using degrade::InterventionSet;
using util::Result;
using util::Status;

const ProfilePoint* Profile::Find(const InterventionSet& interventions) const {
  for (const ProfilePoint& point : points) {
    if (point.interventions == interventions) return &point;
  }
  return nullptr;
}

ProfileHandle MakeProfileHandle(Profile profile) {
  return std::make_shared<const Profile>(std::move(profile));
}

Profiler::Profiler(query::FrameOutputSource& source, const detect::ClassPriorIndex& prior,
                   query::QuerySpec spec, ProfilerOptions options)
    : source_(source), prior_(prior), spec_(spec), options_(options) {
  util::MetricsRegistry& registry = source_.registry();
  metrics_.correction_seconds = registry.GetStageHistogram("profiler.stage.correction.seconds");
  metrics_.groups_seconds = registry.GetStageHistogram("profiler.stage.groups.seconds");
  metrics_.total_seconds = registry.GetStageHistogram("profiler.stage.total.seconds");
  metrics_.generate_calls = registry.GetCounter("profiler.generate_calls");
}

namespace {

/// Group key: everything except the sample fraction.
struct GroupKey {
  int resolution;
  uint8_t restricted_mask;
  int64_t contrast_bits;

  bool operator<(const GroupKey& other) const {
    return std::tie(resolution, restricted_mask, contrast_bits) <
           std::tie(other.resolution, other.restricted_mask, other.contrast_bits);
  }
};

/// Walks one hypercube group: shuffles the group's eligible frames with an
/// RNG stream derived from (profile_seed, group key) — never from a shared
/// sequential stream — then estimates each ascending fraction from a nested
/// prefix of the permutation. Runs on a pool worker; touches only its own
/// `out` slot and the (thread-safe) output source, so groups are
/// embarrassingly parallel and the emitted points are identical at any
/// thread count.
util::Status GenerateGroupPoints(query::FrameOutputSource& source,
                                 const detect::ClassPriorIndex& prior,
                                 const query::QuerySpec& spec, const ProfilerOptions& options,
                                 const std::optional<CorrectionSet>& correction_set,
                                 const GroupKey& key, std::vector<InterventionSet>& group,
                                 uint64_t profile_seed, int model_max,
                                 int64_t original_population, std::vector<ProfilePoint>* out) {
  std::sort(group.begin(), group.end(),
            [](const InterventionSet& a, const InterventionSet& b) {
              return a.sample_fraction < b.sample_fraction;
            });

  std::vector<int64_t> eligible = prior.FramesWithoutAny(group.front().restricted);
  if (eligible.empty()) {
    return Status::FailedPrecondition("candidate group " + group.front().ToString() +
                                      " removes every frame");
  }
  int64_t eligible_population = static_cast<int64_t>(eligible.size());
  // One permutation per group; each fraction takes a prefix. The stream is a
  // pure function of (profile seed, group key), so scheduling order is
  // irrelevant to the result.
  stats::Rng group_rng(stats::HashCombine({profile_seed, static_cast<uint64_t>(key.resolution),
                                           static_cast<uint64_t>(key.restricted_mask),
                                           static_cast<uint64_t>(key.contrast_bits)}));
  stats::Shuffle(eligible, group_rng);

  // The group's fractions share one permutation, so each candidate's sample
  // is a prefix of the previous candidate's sample plus a tail. The column
  // below accumulates outputs for the longest prefix fetched so far; each
  // candidate requests ONLY its tail as a batch extension, and the
  // estimators' statistics fold in only that tail. Sample sizes never shrink
  // along the ascending fractions, so the column and the statistics always
  // hold exactly the current candidate's sample, and every output is read
  // once per group rather than once per prefix.
  query::OutputColumn column;
  SampleStatistics statistics(spec);
  // One scratch per group walk: the quantile path sorts every tail into this
  // buffer.
  EstimationScratch scratch;
  double prev_err = std::numeric_limits<double>::infinity();
  for (const InterventionSet& candidate : group) {
    int64_t n = stats::FractionToCount(original_population, candidate.sample_fraction);
    n = std::min(n, eligible_population);
    int resolution = candidate.EffectiveResolution(model_max);
    if (static_cast<size_t>(n) > column.size()) {
      const size_t folded = column.size();
      std::span<const int64_t> extension(eligible.data() + folded,
                                         static_cast<size_t>(n) - folded);
      SMK_RETURN_IF_ERROR(source.AppendOutputs(spec, extension, resolution,
                                               candidate.contrast_scale, column));
      statistics.Extend(column.output_span().subspan(folded), &scratch);
    }
    SMK_ASSIGN_OR_RETURN(EstimationResult result,
                         EstimateFromStatistics(statistics, eligible_population,
                                                original_population, resolution,
                                                options.delta));

    ProfilePoint point;
    point.interventions = candidate;
    point.y_approx = result.estimate.y_approx;
    point.err_uncorrected = result.estimate.err_b;
    point.sample_size = result.sample_size;

    bool purely_random = candidate.restricted.empty() && resolution == model_max &&
                         candidate.contrast_scale >= 1.0;
    if (correction_set.has_value()) {
      SMK_ASSIGN_OR_RETURN(double repaired_err,
                           RepairErrorBound(spec, result, *correction_set));
      if (purely_random) {
        // Random-only: both bounds are valid; keep the tighter.
        point.err_bound = std::min(point.err_uncorrected, repaired_err);
        point.repaired = repaired_err < point.err_uncorrected;
      } else {
        point.err_bound = repaired_err;
        point.repaired = true;
      }
    } else {
      point.err_bound = point.err_uncorrected;
      point.repaired = false;
    }
    out->push_back(point);

    if (options.early_stop && std::isfinite(prev_err) &&
        prev_err - point.err_bound < options.early_stop_tolerance) {
      break;  // Bound is flattening; skip costlier fractions in this group.
    }
    prev_err = point.err_bound;
  }
  return Status::OK();
}

}  // namespace

Result<Profile> Profiler::Generate(const std::vector<InterventionSet>& candidates,
                                   stats::Rng& rng) {
  SMK_RETURN_IF_ERROR(spec_.Validate());
  if (candidates.empty()) return Status::InvalidArgument("no intervention candidates");

  // Stage spans observe into the registry histograms even on error returns
  // (a failed Generate still spent the time); the report fields are filled
  // from the same spans, so the two views can never disagree.
  util::ScopedSpan total_span(metrics_.total_seconds);
  metrics_.generate_calls->Increment();
  report_ = ProfilerReport{};
  const int64_t invocations_before = source_.model_invocations();
  const int64_t hits_before = source_.cache_hits();

  Profile profile;
  profile.spec = spec_;
  profile.dataset_name = source_.dataset().name();
  profile.detector_name = source_.detector().name();

  // Every per-group RNG stream is derived from this one up-front draw, so
  // the group walk never touches the shared sequential stream and the
  // profile is independent of worker scheduling.
  const uint64_t profile_seed = rng.NextUint64();

  // Build the correction set once; it corrects every candidate (§3.2.5).
  util::ScopedSpan correction_span(metrics_.correction_seconds);
  correction_set_.reset();
  if (options_.use_correction_set) {
    int64_t size = options_.correction_set_size;
    if (size <= 0) {
      SMK_ASSIGN_OR_RETURN(CorrectionSizing sizing,
                           DetermineCorrectionSetSize(source_, spec_, options_.delta, rng,
                                                      options_.correction_max_fraction));
      size = sizing.chosen_size;
    }
    SMK_ASSIGN_OR_RETURN(CorrectionSet correction,
                         BuildCorrectionSet(source_, spec_, size, options_.delta, rng));
    correction_set_ = std::move(correction);
  }
  report_.correction_seconds = correction_span.Stop();

  // Group candidates by the non-fraction knobs; ascending fractions within a
  // group share one permutation (nested prefixes = maximal output reuse).
  std::map<GroupKey, std::vector<InterventionSet>> groups;
  for (const InterventionSet& candidate : candidates) {
    SMK_RETURN_IF_ERROR(candidate.Validate());
    GroupKey key{candidate.resolution, candidate.restricted.mask(),
                 detect::QuantizeContrast(candidate.contrast_scale)};
    groups[key].push_back(candidate);
  }

  const int model_max = source_.detector().max_resolution();
  const int64_t original_population = source_.dataset().num_frames();

  // One task per group; every task writes only its own pre-allocated slot,
  // so appending in canonical (map-ordered) group order afterwards keeps the
  // profile's point ordering identical to the serial walk.
  struct GroupResult {
    std::vector<ProfilePoint> points;
    util::Status status;
  };
  std::vector<std::pair<const GroupKey*, std::vector<InterventionSet>*>> ordered;
  ordered.reserve(groups.size());
  for (auto& [key, group] : groups) ordered.emplace_back(&key, &group);
  std::vector<GroupResult> results(ordered.size());

  util::ScopedSpan groups_span(metrics_.groups_seconds);
  auto walk = [this, &ordered, &results, profile_seed, model_max, original_population](
                  int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      results[i].status = GenerateGroupPoints(source_, prior_, spec_, options_, correction_set_,
                                              *ordered[i].first, *ordered[i].second,
                                              profile_seed, model_max, original_population,
                                              &results[i].points);
    }
  };
  // The walk runs on the source's pool, which may be the serving layer's
  // shared executor. ParallelFor is synchronous over exactly THIS call's
  // groups: the calling thread works on its own chunks and returns when
  // they are done, never waiting on other sessions' work, and a Generate
  // running ON a pool worker runs the group loop inline.
  const int64_t num_groups = static_cast<int64_t>(ordered.size());
  util::ThreadPool* pool = source_.thread_pool();
  report_.num_threads = pool != nullptr ? pool->num_threads() : 1;
  if (pool != nullptr) {
    pool->ParallelFor(0, num_groups, 1, walk);
  } else {
    walk(0, num_groups);
  }
  report_.groups_seconds = groups_span.Stop();

  for (GroupResult& result : results) {
    SMK_RETURN_IF_ERROR(result.status);
    for (ProfilePoint& point : result.points) profile.points.push_back(point);
  }

  report_.num_groups = num_groups;
  report_.model_invocations = source_.model_invocations() - invocations_before;
  report_.cache_hits = source_.cache_hits() - hits_before;
  report_.total_seconds = total_span.Stop();
  return profile;
}

namespace {

bool NearlyEqual(double a, double b) { return std::abs(a - b) < 1e-9; }

}  // namespace

Result<double> InterpolateBound(const Profile& profile, const degrade::InterventionSet& target) {
  SMK_RETURN_IF_ERROR(target.Validate());
  // Collect the group: points matching every knob except the fraction.
  std::vector<const ProfilePoint*> group;
  for (const ProfilePoint& point : profile.points) {
    if (point.interventions.resolution == target.resolution &&
        point.interventions.restricted == target.restricted &&
        NearlyEqual(point.interventions.contrast_scale, target.contrast_scale)) {
      group.push_back(&point);
    }
  }
  if (group.empty()) {
    return Status::NotFound("no profile points match " + target.ToString() +
                            " (ignoring the sample fraction)");
  }
  std::sort(group.begin(), group.end(), [](const ProfilePoint* a, const ProfilePoint* b) {
    return a->interventions.sample_fraction < b->interventions.sample_fraction;
  });
  double f = target.sample_fraction;
  if (f < group.front()->interventions.sample_fraction - 1e-9 ||
      f > group.back()->interventions.sample_fraction + 1e-9) {
    return Status::OutOfRange("fraction " + std::to_string(f) +
                              " outside the profiled range [" +
                              std::to_string(group.front()->interventions.sample_fraction) +
                              ", " +
                              std::to_string(group.back()->interventions.sample_fraction) + "]");
  }
  for (size_t i = 0; i < group.size(); ++i) {
    double fi = group[i]->interventions.sample_fraction;
    if (NearlyEqual(fi, f)) return group[i]->err_bound;
    if (i + 1 < group.size()) {
      double fj = group[i + 1]->interventions.sample_fraction;
      if (f > fi && f < fj) {
        double t = (f - fi) / (fj - fi);
        return group[i]->err_bound + t * (group[i + 1]->err_bound - group[i]->err_bound);
      }
    }
  }
  return group.back()->err_bound;  // f == last fraction within tolerance.
}

std::vector<ProfilePoint> SliceByFraction(const Profile& profile, int resolution,
                                          const video::ClassSet& restricted) {
  std::vector<ProfilePoint> slice;
  for (const ProfilePoint& point : profile.points) {
    if (point.interventions.resolution == resolution &&
        point.interventions.restricted == restricted) {
      slice.push_back(point);
    }
  }
  std::sort(slice.begin(), slice.end(), [](const ProfilePoint& a, const ProfilePoint& b) {
    return a.interventions.sample_fraction < b.interventions.sample_fraction;
  });
  return slice;
}

std::vector<ProfilePoint> SliceByResolution(const Profile& profile, double fraction,
                                            const video::ClassSet& restricted) {
  std::vector<ProfilePoint> slice;
  for (const ProfilePoint& point : profile.points) {
    if (NearlyEqual(point.interventions.sample_fraction, fraction) &&
        point.interventions.restricted == restricted) {
      slice.push_back(point);
    }
  }
  std::sort(slice.begin(), slice.end(), [](const ProfilePoint& a, const ProfilePoint& b) {
    return a.interventions.resolution < b.interventions.resolution;
  });
  return slice;
}

std::vector<ProfilePoint> SliceByRestricted(const Profile& profile, double fraction,
                                            int resolution) {
  std::vector<ProfilePoint> slice;
  for (const ProfilePoint& point : profile.points) {
    if (NearlyEqual(point.interventions.sample_fraction, fraction) &&
        point.interventions.resolution == resolution) {
      slice.push_back(point);
    }
  }
  std::sort(slice.begin(), slice.end(), [](const ProfilePoint& a, const ProfilePoint& b) {
    return a.interventions.restricted.mask() < b.interventions.restricted.mask();
  });
  return slice;
}

}  // namespace core
}  // namespace smokescreen
