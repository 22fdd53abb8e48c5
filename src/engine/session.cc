#include "engine/session.h"

#include <bit>
#include <utility>

#include "stats/rng.h"

namespace smokescreen {
namespace engine {

using util::Result;
using util::Status;

namespace {

/// Domain-separation constant for Execute()'s per-call RNG streams (an
/// arbitrary odd 64-bit word; it only has to differ from the profile path).
constexpr uint64_t kExecuteSalt = 0x9d5f8e2ca71b3046ULL;

uint64_t DoubleBits(double value) { return std::bit_cast<uint64_t>(value); }

}  // namespace

uint64_t HashCandidateGrid(const std::vector<degrade::InterventionSet>& candidates) {
  stats::HashStream stream;
  stream.Absorb(static_cast<uint64_t>(candidates.size()));
  for (const degrade::InterventionSet& candidate : candidates) {
    stream.Absorb(DoubleBits(candidate.sample_fraction));
    stream.Absorb(static_cast<uint64_t>(candidate.resolution));
    stream.Absorb(static_cast<uint64_t>(candidate.restricted.mask()));
    stream.Absorb(DoubleBits(candidate.contrast_scale));
  }
  return stream.Finalize();
}

uint64_t HashProfilerOptions(const core::ProfilerOptions& options) {
  // Every field that changes the generated points — and ONLY those.
  return stats::HashCombine({DoubleBits(options.delta),
                             options.use_correction_set ? 1ULL : 0ULL,
                             static_cast<uint64_t>(options.correction_set_size),
                             DoubleBits(options.correction_max_fraction),
                             options.early_stop ? 1ULL : 0ULL,
                             DoubleBits(options.early_stop_tolerance)});
}

std::string QuerySignature(const query::QuerySpec& spec) {
  return spec.ToString() + ";r=" + std::to_string(spec.EffectiveQuantileR());
}

Session::Session(Runtime* runtime, WorkloadHandle workload, SessionConfig config,
                 uint64_t seed)
    : runtime_(runtime),
      workload_(std::move(workload)),
      config_(std::move(config)),
      seed_(seed) {}

Session::~Session() { runtime_->metrics_.sessions_active->Add(-1); }

ProfileKey Session::BuildKey(const std::vector<degrade::InterventionSet>& candidates) const {
  ProfileKey key;
  key.workload = workload_->share_key();
  key.query = QuerySignature(config_.spec);
  key.grid_hash = HashCandidateGrid(candidates);
  key.options_hash = HashProfilerOptions(config_.profiler);
  key.seed = seed_;
  return key;
}

Result<core::ProfileHandle> Session::Profile(
    const std::vector<degrade::InterventionSet>& candidates) {
  from_cache_ = false;
  const ProfileKey key = BuildKey(candidates);
  const ProfileProvenance provenance = workload_->provenance();
  if (config_.use_profile_cache) {
    if (core::ProfileHandle cached = runtime_->profile_cache().Get(key, provenance)) {
      profile_ = std::move(cached);
      from_cache_ = true;
      report_ = core::ProfilerReport{};  // Nothing was generated.
      return profile_;
    }
  }

  // The profiler inherits the source's wiring: the runtime's executor and
  // registry.
  core::Profiler profiler(workload_->source(), workload_->prior(), config_.spec,
                          config_.profiler);
  // A FRESH stream per call: the profile is a pure function of the key above
  // — two sessions with the same key generate bit-identical profiles no
  // matter how their group tasks interleave on the shared executor.
  stats::Rng rng(seed_);
  SMK_ASSIGN_OR_RETURN(core::Profile generated, profiler.Generate(candidates, rng));
  report_ = profiler.last_report();
  profile_ = core::MakeProfileHandle(std::move(generated));
  if (config_.use_profile_cache) {
    runtime_->profile_cache().Put(key, provenance, profile_);
  }
  return profile_;
}

Result<core::AdminSession> Session::Admin() const {
  if (profile_ == nullptr) {
    return Status::FailedPrecondition("no profile yet: call Profile() first");
  }
  return core::AdminSession(profile_, workload_->detector().max_resolution());
}

Result<core::TradeoffChoice> Session::ChooseTradeoff(double max_error) const {
  if (profile_ == nullptr) {
    return Status::FailedPrecondition("no profile yet: call Profile() first");
  }
  return core::ChooseTradeoff(*profile_, max_error,
                              workload_->detector().max_resolution());
}

Result<core::EstimationResult> Session::Execute(
    const degrade::InterventionSet& interventions, double delta) {
  // Per-call stream derived from (seed, call index): this session's Nth
  // execution draws the same randomness whether it runs alone or alongside
  // 15 other sessions.
  stats::Rng rng(stats::HashCombine({seed_, kExecuteSalt, execute_calls_++}));
  return core::ResultErrorEst(workload_->source(), workload_->prior(), config_.spec,
                              interventions, delta, rng);
}

}  // namespace engine
}  // namespace smokescreen
