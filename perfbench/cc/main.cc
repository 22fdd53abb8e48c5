// perfbench: the profile-request benchmark (see README.md).
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--out-dir D] [--reduced]
//   perfbench --prepare-store --workload ua-serve-warm --seed N [--out-dir D] [--reduced]
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// untraced for half of S, then traced for the other half (phase a), then
// replays the profiler's group walk serially between real width-1 and
// pooled profiles (phase b) for the per-layer metrics. Both modes check the answers after timing, print every metric by
// name and unit, and end with one JSON line; the exit code is nonzero when
// any check fails.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "detect/models.h"
#include "query/executor.h"
#include "query/output_source.h"
#include "replay.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".bench_out";
  bool reduced = false;
  bool prepare_store = false;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> Result<std::string> {
      if (i + 1 >= argc) return Status::InvalidArgument("missing value for " + arg);
      return std::string(argv[++i]);
    };
    if (arg == "--workload") {
      SMK_ASSIGN_OR_RETURN(args.workload, value());
    } else if (arg == "--seed") {
      SMK_ASSIGN_OR_RETURN(std::string v, value());
      args.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      SMK_ASSIGN_OR_RETURN(std::string v, value());
      args.seconds = std::stod(v);
    } else if (arg == "--trace") {
      SMK_ASSIGN_OR_RETURN(std::string v, value());
      args.trace = std::stoi(v);
    } else if (arg == "--out-dir") {
      SMK_ASSIGN_OR_RETURN(args.out_dir, value());
    } else if (arg == "--reduced") {
      args.reduced = true;
    } else if (arg == "--prepare-store") {
      args.prepare_store = true;
    } else {
      return Status::InvalidArgument("unknown argument: " + arg);
    }
  }
  if (args.workload.empty()) return Status::InvalidArgument("--workload is required");
  if (args.trace != 0 && args.trace != 1) return Status::InvalidArgument("--trace is 0 or 1");
  if (!(args.seconds > 0.0)) return Status::InvalidArgument("--seconds must be positive");
  return args;
}

namespace {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// FNV-1a over the bytes of every field of every point, in profile order.
class Digest {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) hash_ = (hash_ ^ b) * 1099511628211ULL;
  }
  void Add(const std::string& text) {
    for (char c : text) Add(c);
    Add(text.size());
  }
  void Add(const smk::core::Profile& profile) {
    Add(profile.spec.ToString());
    Add(profile.dataset_name);
    Add(profile.detector_name);
    Add(profile.points.size());
    for (const smk::core::ProfilePoint& p : profile.points) {
      Add(p.interventions.sample_fraction);
      Add(p.interventions.resolution);
      Add(p.interventions.restricted.mask());
      Add(p.interventions.contrast_scale);
      Add(p.err_bound);
      Add(p.err_uncorrected);
      Add(p.y_approx);
      Add(p.repaired);
      Add(p.sample_size);
    }
  }
  std::string Hex() const {
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(hash_));
    return text;
  }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

std::string DigestOf(const std::vector<smk::core::ProfileHandle>& profiles) {
  Digest digest;
  for (const smk::core::ProfileHandle& profile : profiles) digest.Add(*profile);
  return digest.Hex();
}

std::vector<smk::core::ProfileHandle> ProfilesOf(const std::vector<CheckedProfile>& checked) {
  std::vector<smk::core::ProfileHandle> profiles;
  for (const CheckedProfile& c : checked) profiles.push_back(c.profile);
  return profiles;
}

struct Coverage {
  int64_t covered = 0;
  int64_t points = 0;
  std::vector<double> profile_ratios;
  std::vector<std::string> per_profile;  // "AVG(car) 200/200", sample order
  double ratio() const { return Ratio(static_cast<double>(covered), static_cast<double>(points)); }

  /// Standard error of the coverage with profiles as the sampling unit:
  /// a profile's points share one correction set, so they are covered or
  /// missed together and are not independent trials.
  double standard_error() const {
    const size_t n = profile_ratios.size();
    if (n < 2) return 0.0;
    double mean = 0.0;
    for (double r : profile_ratios) mean += r / static_cast<double>(n);
    double squares = 0.0;
    for (double r : profile_ratios) squares += (r - mean) * (r - mean);
    return std::sqrt(squares / static_cast<double>(n - 1) / static_cast<double>(n));
  }
};

/// Share of profile points whose bound covers the realized error against
/// query::ComputeGroundTruth. The truth comes from an isolated source with
/// its own model, so the measured source is left as the run left it.
Result<Coverage> CheckCoverage(const smk::video::VideoDataset& dataset,
                               const std::vector<CheckedProfile>& checked) {
  std::unique_ptr<smk::detect::Detector> model = smk::detect::MakeSimYoloV4();
  smk::query::FrameOutputSource source(dataset, *model, smk::video::ObjectClass::kCar);
  smk::util::ThreadPool pool(0);
  source.set_thread_pool(&pool);
  std::map<smk::query::AggregateFunction, smk::query::GroundTruth> truths;
  Coverage coverage;
  for (const CheckedProfile& c : checked) {
    const smk::query::QuerySpec& spec = c.profile->spec;
    auto truth = truths.find(spec.aggregate);
    if (truth == truths.end()) {
      SMK_ASSIGN_OR_RETURN(smk::query::GroundTruth computed,
                           smk::query::ComputeGroundTruth(source, spec));
      truth = truths.emplace(spec.aggregate, std::move(computed)).first;
    }
    const smk::query::GroundTruth& gt = truth->second;
    const int64_t covered_before = coverage.covered;
    for (const smk::core::ProfilePoint& point : c.profile->points) {
      double error = 0.0;
      if (smk::query::UsesRelativeErrorMetric(spec.aggregate)) {
        error = smk::query::RelativeError(point.y_approx, gt.y_true);
      } else {
        SMK_ASSIGN_OR_RETURN(error,
                             smk::query::RankRelativeError(gt.outputs, point.y_approx, gt.y_true));
      }
      ++coverage.points;
      if (point.err_bound >= error) ++coverage.covered;
    }
    coverage.profile_ratios.push_back(
        Ratio(static_cast<double>(coverage.covered - covered_before),
              static_cast<double>(c.profile->points.size())));
    coverage.per_profile.push_back(spec.ToString() + " " +
                                   std::to_string(coverage.covered - covered_before) + "/" +
                                   std::to_string(c.profile->points.size()));
  }
  return coverage;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Metrics, checks and notes of one run, printed at the end.
struct Report {
  std::vector<Metric> metrics;  // the JSON line's metrics
  std::vector<Metric> extra;    // printed and saved, not in the JSON line
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::string> notes;
  /// Raw samples behind the medians, saved with the details.
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  bool correct() const {
    if (failed > 0) return false;
    for (const auto& [name, ok] : checks) {
      if (!ok) return false;
    }
    return true;
  }
};

/// The highest percentile of `values` with at least ten samples beyond it
/// (absent below 20 samples, where it would sit at or under the median).
std::optional<std::pair<double, double>> Tail(std::vector<double> values) {
  const size_t n = values.size();
  if (n < 20) return std::nullopt;
  std::sort(values.begin(), values.end());
  const double percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return std::make_pair(values[n - 11], percentile);
}

void AddEndToEnd(const PhaseStats& stats, const Coverage& coverage, Report* report) {
  report->metrics = {
      {"setup_s", Median(stats.setup_s), "s"},
      {"profile_s", Median(stats.profile_s), "s"},
      {"requests_per_s", Ratio(static_cast<double>(stats.requests), stats.request_seconds),
       "1/s"},
      {"checkpoint_s", Median(stats.checkpoint_s), "s"},
      {"peak_rss_mb", stats.peak_rss_mb, "MB"},
      {"bound_coverage", coverage.ratio(), "ratio"},
  };
  if (auto tail = Tail(stats.profile_s)) {
    report->extra.push_back({"profile_tail_s", tail->first, "s"});
    report->extra.push_back({"profile_tail_percentile", tail->second, "%"});
    report->extra.push_back({"profile_tail_beyond", 10.0, "count"});
  } else {
    report->notes.push_back("profile_tail_s absent: " + std::to_string(stats.profile_s.size()) +
                            " generated profiles, 20 needed");
  }
  report->notes.push_back("first request chose " + stats.first_choice);
  report->samples = {{"setup_s", stats.setup_s},
                     {"profile_s", stats.profile_s},
                     {"execute_s", stats.execute_s},
                     {"checkpoint_s", stats.checkpoint_s}};
  // Reported, not bounded: a cold run repeats one request, and which
  // tradeoff ChooseTradeoff(0.15) picks -- so how many frames an execute
  // reads -- changes with the seed.
  report->extra.push_back({"execute_s", Median(stats.execute_s), "s"});
  report->extra.push_back({"profile_samples", static_cast<double>(stats.profile_s.size()),
                           "count"});
  report->extra.push_back({"model_invocations", Median(stats.model_invocations), "count"});
  report->extra.push_back(
      {"error_rate",
       Ratio(static_cast<double>(stats.failed), static_cast<double>(stats.attempted)), "ratio"});
}

void AddPerLayer(const PhaseStats& untraced, const PhaseStats& traced, const ReplayStats& replay,
                 Report* report) {
  const double profiles = static_cast<double>(std::max<int64_t>(replay.profiles, 1));
  const double requests = static_cast<double>(std::max<int64_t>(traced.requests, 1));
  const double requests_replayed = static_cast<double>(std::max<int64_t>(replay.requests, 1));
  report->metrics = {
      {"video.simulate_s", Median(traced.simulate_s), "s"},
      {"video.scene_index_s", Median(traced.scene_index_s), "s"},
      {"detect.prior_s", Median(traced.prior_s), "s"},
      {"detect.kernel_s", static_cast<double>(traced.kernel_ns) * 1e-9 / requests, "s"},
      {"detect.kernel_calls", static_cast<double>(traced.kernel_calls) / requests, "count"},
      {"detect.kernel_frames", static_cast<double>(traced.kernel_frames) / requests, "count"},
      {"query.memo_s", replay.memo_s / profiles, "s"},
      {"query.hits", static_cast<double>(replay.hits) / profiles, "count"},
      {"query.misses", static_cast<double>(replay.misses) / profiles, "count"},
      {"query.hit_ratio",
       Ratio(static_cast<double>(replay.hits), static_cast<double>(replay.hits + replay.misses)),
       "ratio"},
      {"query.store_load_s", Median(traced.store_load_s), "s"},
      {"query.store_save_s", Median(traced.checkpoint_s), "s"},
      {"query.store_bytes", Median(traced.store_bytes), "bytes"},
      {"core.correction_s", replay.correction_s / profiles, "s"},
      {"core.sample_s", replay.sample_s / profiles, "s"},
      {"core.estimate_s", replay.estimate_s / profiles, "s"},
      {"core.repair_s", replay.repair_s / profiles, "s"},
      {"core.group_max_s", replay.group_max_s / profiles, "s"},
      {"core.group_mean_s", replay.group_mean_s / profiles, "s"},
      {"util.parallel_speedup", Ratio(replay.serial_groups_s, replay.pooled_groups_s), "ratio"},
      {"engine.self_s", Median(traced.engine_self_s), "s"},
      {"engine.profile_cache_hit_ratio",
       Ratio(static_cast<double>(traced.profile_cache_hits),
             static_cast<double>(traced.profile_cache_lookups)),
       "ratio"},
      {"unattributed_s", replay.session_wall_s / requests_replayed - replay.self_sum() / profiles,
       "s"},
      {"trace_overhead", Ratio(Median(traced.profile_s), Median(untraced.profile_s)) - 1.0,
       "ratio"},
      {"model_invocations", Median(untraced.model_invocations), "count"},
  };
  report->extra.push_back({"replay.session_wall_s", replay.session_wall_s / requests_replayed,
                           "s"});
  report->extra.push_back({"replay.kernel_s", replay.kernel_s / profiles, "s"});
  report->extra.push_back({"replay.groups_s", replay.groups_s / profiles, "s"});
  report->extra.push_back(
      {"replay.serial_groups_s", replay.serial_groups_s / requests_replayed, "s"});
  report->extra.push_back(
      {"replay.pooled_groups_s", replay.pooled_groups_s / requests_replayed, "s"});
  report->extra.push_back({"untraced.profile_s", Median(untraced.profile_s), "s"});
  report->extra.push_back({"traced.model_invocations", Median(traced.model_invocations),
                           "count"});
}

/// Checks shared by both modes, on the phase whose answers are reported.
Status CheckAnswers(const RunContext& ctx, const PhaseStats& stats, Coverage* coverage,
                    Report* report) {
  report->Check("every operation succeeded", stats.failed == 0);
  report->Check("rounds of the same request agree", stats.rounds_agree);
  // Warm: each client's digest requests minus its re-opens.
  const int64_t per_client = kWarmDigestRequests - kWarmDigestRequests / kReopenEvery;
  const int64_t expected = ctx.config.warm ? ctx.config.clients * per_client : 1;
  report->Check("digest set complete", static_cast<int64_t>(stats.checked.size()) == expected);
  if (stats.workload == nullptr) return Status::Internal("no workload left to check");
  SMK_ASSIGN_OR_RETURN(std::vector<CheckedProfile> sample, CoverageSample(ctx, stats));
  SMK_ASSIGN_OR_RETURN(*coverage, CheckCoverage(stats.workload->dataset(), sample));
  const double delta = RequestConfig(ctx.config.aggregates.front(), 0).profiler.delta;
  // The bounds promise 1 - delta per point. A run fails when its coverage
  // is below that by more than two standard errors of its sample.
  report->Check("bound_coverage not below 1 - delta",
                coverage->ratio() >= 1.0 - delta - 2.0 * coverage->standard_error());
  report->extra.push_back({"bound_coverage_se", coverage->standard_error(), "ratio"});
  for (const std::string& line : coverage->per_profile) {
    report->notes.push_back("coverage " + line);
  }
  if (ctx.config.warm) {
    report->Check("warm workload makes no model invocations",
                  std::all_of(stats.model_invocations.begin(), stats.model_invocations.end(),
                              [](double n) { return n == 0.0; }));
  }
  return Status::OK();
}

void Release(PhaseStats& stats) {
  stats.workload.reset();
  stats.runtime.reset();
}

/// Whether the detector kernel runs its AVX-512 lanes on this host: the
/// dispatch rule of detect/detector.cc, repeated here to label the numbers.
bool Avx512Dispatch() {
#if defined(__x86_64__)
  const char* env = std::getenv("SMOKESCREEN_NO_AVX512");
  const bool disabled = env != nullptr && env[0] != '\0' && env[0] != '0';
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") && !disabled;
#else
  return false;
#endif
}

void PrintReport(const Args& args, const std::string& digest, const Report& report) {
  std::printf("perfbench %s seed=%llu trace=%d nproc=%d avx512=%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace,
              smk::util::ThreadPool::ResolveThreadCount(0), Avx512Dispatch() ? "on" : "off");
  for (const std::vector<Metric>* list : {&report.metrics, &report.extra}) {
    for (const Metric& m : *list) {
      std::printf("  %-32s %18.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("digest %s %s\n", args.workload.c_str(), digest.c_str());
  for (const auto& [name, ok] : report.checks) {
    std::printf("check %-48s %s\n", name.c_str(), ok ? "ok" : "FAILED");
  }
  for (const std::string& note : report.notes) std::printf("note %s\n", note.c_str());
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Everything the run printed, for the self-test and later comparisons.
Status WriteDetails(const Args& args, const std::string& digest,
                    const std::string& replay_digest, const Report& report,
                    const std::vector<std::string>& errors) {
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" + std::to_string(args.trace) +
                           ".json";
  std::ofstream out(path, std::ios::trunc);
  out << "{\"workload\": " << JsonString(args.workload) << ", \"seed\": " << args.seed
      << ", \"trace\": " << args.trace << ", \"correct\": " << (report.correct() ? "true" : "false")
      << ", \"nproc\": " << smk::util::ThreadPool::ResolveThreadCount(0)
      << ", \"avx512\": " << (Avx512Dispatch() ? "true" : "false")
      << ", \"digest\": " << JsonString(digest)
      << ", \"replay_digest\": " << JsonString(replay_digest)
      << ",\n \"metrics\": " << MetricsJson(report.metrics)
      << ",\n \"extra\": " << MetricsJson(report.extra) << ",\n \"checks\": {";
  for (size_t i = 0; i < report.checks.size(); ++i) {
    out << (i ? ", " : "") << JsonString(report.checks[i].first) << ": "
        << (report.checks[i].second ? "true" : "false");
  }
  out << "},\n \"samples\": {";
  for (size_t i = 0; i < report.samples.size(); ++i) {
    out << (i ? ", " : "") << JsonString(report.samples[i].first) << ": [";
    const std::vector<double>& values = report.samples[i].second;
    for (size_t j = 0; j < values.size(); ++j) out << (j ? ", " : "") << JsonNumber(values[j]);
    out << "]";
  }
  out << "},\n \"notes\": [";
  for (size_t i = 0; i < report.notes.size(); ++i) {
    out << (i ? ", " : "") << JsonString(report.notes[i]);
  }
  out << "],\n \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) out << (i ? ", " : "") << JsonString(errors[i]);
  out << "]}\n";
  out.close();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::OK();
}

int Run(const Args& args) {
  auto config = WorkloadByName(args.workload, args.reduced);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 2;
  }
  RunContext ctx;
  ctx.config = *config;
  ctx.seed = args.seed;
  ctx.out_dir = args.out_dir;
  ctx.store_path = args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
                   (args.reduced ? "-reduced" : "") + ".smkc";
  auto grid = Grid(*smk::detect::MakeSimYoloV4());
  grid.status().CheckOk();
  ctx.grid = *grid;
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);

  if (args.prepare_store) {
    Status status = ctx.config.warm ? PrepareStore(ctx)
                                    : Status::InvalidArgument("only the warm workload has a store");
    if (!status.ok()) {
      std::fprintf(stderr, "prepare-store: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (ctx.config.warm && !std::filesystem::exists(ctx.store_path)) {
    std::fprintf(stderr, "%s is missing: run with --prepare-store first\n",
                 ctx.store_path.c_str());
    return 2;
  }

  Report report;
  std::string digest;
  std::string replay_digest;
  std::vector<std::string> errors;
  Coverage coverage;
  auto fatal = [&](const Status& status) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  };

  if (args.trace == 0) {
    auto stats = RunPhase(ctx, args.seconds, nullptr);
    if (!stats.ok()) return fatal(stats.status());
    digest = DigestOf(ProfilesOf(stats->checked));
    Status checked = CheckAnswers(ctx, *stats, &coverage, &report);
    if (!checked.ok()) return fatal(checked);
    if (ctx.config.check_serial) {
      // The pooled or concurrent profiles against their serial replay.
      Release(*stats);
      auto replay = RunReplay(ctx, stats->checked, nullptr);
      if (!replay.ok()) return fatal(replay.status());
      report.Check("serial replay reproduces the timed profiles", replay->reproduced);
      errors = replay->mismatches;
    } else {
      report.notes.push_back("serial replay check runs in the traced run only");
    }
    AddEndToEnd(*stats, coverage, &report);
    report.attempted = stats->attempted;
    report.failed = stats->failed;
    errors.insert(errors.end(), stats->errors.begin(), stats->errors.end());
  } else {
    auto untraced = RunPhase(ctx, args.seconds / 2.0, nullptr);
    if (!untraced.ok()) return fatal(untraced.status());
    Release(*untraced);
    SpanLog log;
    auto traced = RunPhase(ctx, args.seconds / 2.0, &log);
    if (!traced.ok()) return fatal(traced.status());
    digest = DigestOf(ProfilesOf(traced->checked));
    Status checked = CheckAnswers(ctx, *traced, &coverage, &report);
    if (!checked.ok()) return fatal(checked);
    report.Check("decorated and plain runs give the same digest",
                 digest == DigestOf(ProfilesOf(untraced->checked)));
    report.Check("decorated and plain runs make the same model invocations",
                 Median(traced->model_invocations) == Median(untraced->model_invocations));
    Release(*traced);
    auto replay = RunReplay(ctx, traced->checked, &log);
    if (!replay.ok()) return fatal(replay.status());
    replay_digest = DigestOf(replay->profiles_replayed);
    report.Check("serial replay reproduces the timed profiles", replay->reproduced);
    if (!replay->reproduced) report.notes.push_back("layer split INVALID: replay diverged");
    AddPerLayer(*untraced, *traced, *replay, &report);
    report.attempted = untraced->attempted + traced->attempted;
    report.failed = untraced->failed + traced->failed;
    errors = replay->mismatches;
    errors.insert(errors.end(), untraced->errors.begin(), untraced->errors.end());
    errors.insert(errors.end(), traced->errors.begin(), traced->errors.end());
    Status written = log.WriteJson(args.out_dir + "/trace-" + args.workload + "-seed" +
                                   std::to_string(args.seed) + ".json");
    if (!written.ok()) return fatal(written);
  }

  PrintReport(args, digest, report);
  for (const std::string& error : errors) std::printf("error %s\n", error.c_str());
  Status written = WriteDetails(args, digest, replay_digest, report, errors);
  if (!written.ok()) return fatal(written);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              report.correct() ? "true" : "false", static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), MetricsJson(report.metrics).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  smokescreen::util::Result<perfbench::Args> args =
      smokescreen::util::Status::InvalidArgument("unparsed");
  try {
    args = perfbench::ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    args = smokescreen::util::Status::InvalidArgument(std::string("bad number: ") + e.what());
  }
  if (!args.ok()) {
    std::fprintf(stderr,
                 "%s\nusage: perfbench --workload W --seed N --seconds S --trace 0|1"
                 " [--out-dir D] [--reduced] [--prepare-store]\n",
                 args.status().ToString().c_str());
    return 2;
  }
  return perfbench::Run(*args);
}
