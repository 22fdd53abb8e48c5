// engine::Session — one client's lifecycle over a shared Workload.
//
// A session is the per-request object of the serving layer: it owns the
// query spec, the seed, and the engine-owned handle to the generated
// profile, and it runs every expensive step (profile generation, query
// execution) on the calling thread, over the Runtime's shared executor and
// the workload's shared memo.
//
// The lifecycle mirrors the paper's administration procedure (§3.1):
//
//   auto session = runtime->StartSession(workload, config);
//   auto profile = session->Profile(candidates);   // cached or generated
//   auto admin   = session->Admin();               // cube slices, plots
//   auto choice  = session->ChooseTradeoff(0.15);  // fine-tune vs budget
//   auto answer  = session->Execute(choice->interventions);
//
// Lifetime: Profile() returns a core::ProfileHandle (shared ownership). The
// handle — not a reference into session-local storage — is what AdminSession
// and the ProfileCache hold, so a profile outlives any particular session,
// cache eviction, or admin view that still uses it. This closes the old
// "profile must outlive the AdminSession" footgun by construction.
//
// Determinism: Profile() seeds a FRESH RNG from the session seed on every
// call, so the result is a pure function of (workload, spec, candidates,
// options, seed) — cacheable, and bit-identical whether sessions run
// serially or 16-way concurrently. Execute() derives a per-call stream from
// (seed, call index), so a session's Nth execution is reproducible
// regardless of what other sessions are doing.

#ifndef SMOKESCREEN_ENGINE_SESSION_H_
#define SMOKESCREEN_ENGINE_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/admin_session.h"
#include "core/estimator_api.h"
#include "core/profiler.h"
#include "core/tradeoff.h"
#include "engine/runtime.h"
#include "query/query_spec.h"
#include "util/status.h"

namespace smokescreen {
namespace engine {

struct SessionConfig {
  query::QuerySpec spec;
  /// Profiler knobs. The profile runs on the workload's source, so on the
  /// runtime's shared executor and registry.
  core::ProfilerOptions profiler;
  /// Session seed; unset = RuntimeOptions::default_seed. Sessions sharing a
  /// seed and query produce (and share) bit-identical profiles.
  std::optional<uint64_t> seed;
  /// Consult/populate the runtime's ProfileCache. Disable for benchmarks
  /// that must measure generation itself (e.g. sec531's replay timing).
  bool use_profile_cache = true;
};

class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The profile for `candidates`: from the ProfileCache when an entry with
  /// matching provenance exists, otherwise generated on the shared executor
  /// and cached. The returned handle is
  /// engine-owned and safe to hold past the session's death.
  util::Result<core::ProfileHandle> Profile(
      const std::vector<degrade::InterventionSet>& candidates);

  /// True when the last Profile() call was served from the ProfileCache.
  bool last_profile_from_cache() const { return from_cache_; }

  /// Stage timings/accounting of the last GENERATED profile (zeroed when the
  /// last Profile() was a cache hit — no generation happened).
  const core::ProfilerReport& last_report() const { return report_; }

  /// The admin view over the last profile (FailedPrecondition before
  /// Profile() succeeds). The view holds the profile handle, so it stays
  /// valid after the session is destroyed.
  util::Result<core::AdminSession> Admin() const;

  /// Strongest degradation within `max_error` over the last profile.
  util::Result<core::TradeoffChoice> ChooseTradeoff(double max_error) const;

  /// Executes the session's query under `interventions` through the shared
  /// memo cache. Per-call RNG stream derived from (seed, call index):
  /// deterministic under any cross-session interleaving.
  util::Result<core::EstimationResult> Execute(const degrade::InterventionSet& interventions,
                                               double delta = 0.05);

  /// The profile handle from the last successful Profile(); nullptr before.
  core::ProfileHandle profile() const { return profile_; }
  const query::QuerySpec& spec() const { return config_.spec; }
  uint64_t seed() const { return seed_; }
  const WorkloadHandle& workload() const { return workload_; }

 private:
  friend class Runtime;
  Session(Runtime* runtime, WorkloadHandle workload, SessionConfig config, uint64_t seed);

  ProfileKey BuildKey(const std::vector<degrade::InterventionSet>& candidates) const;

  Runtime* runtime_;
  WorkloadHandle workload_;
  SessionConfig config_;
  uint64_t seed_;
  core::ProfileHandle profile_;
  core::ProfilerReport report_;
  bool from_cache_ = false;
  uint64_t execute_calls_ = 0;
};

/// Order-sensitive hash over an exact candidate grid (ProfileKey component).
uint64_t HashCandidateGrid(const std::vector<degrade::InterventionSet>& candidates);

/// Hash over the bound-affecting ProfilerOptions fields.
uint64_t HashProfilerOptions(const core::ProfilerOptions& options);

/// The query signature used in ProfileKeys: the spec's canonical string plus
/// the effective quantile parameter (two MAX specs with different r must not
/// share a profile).
std::string QuerySignature(const query::QuerySpec& spec);

}  // namespace engine
}  // namespace smokescreen

#endif  // SMOKESCREEN_ENGINE_SESSION_H_
