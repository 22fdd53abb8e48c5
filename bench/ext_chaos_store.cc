// Extension: chaos test of the crash-safe output store.
//
// Sweeps a per-operation I/O fault rate (util::FaultEnv — torn writes,
// silent bit flips, failed fsyncs/renames, read faults) and drives a
// save / crash / load loop against one persisted OutputStore, checking the
// two durability invariants the design promises:
//
//   1. NO COMMITTED-DATA LOSS: once a Save has succeeded, the file read
//      through a clean env always strict-loads, bit-identical to the saved
//      store — a faulty later save can never damage the committed bytes.
//   2. NO SILENT CORRUPTION: a salvage load through the faulty env either
//      fails with a Status or yields columns whose every frame/count is
//      bit-identical to the reference — an unverified count is never served.
//
// A separate bit-rot phase corrupts counts bytes at rest and heals the store
// the way every tool does: an engine::Runtime warm start salvages the
// verified columns and must report the damage, the reference requests run
// again (recomputing exactly the lost entries as memo misses, at their
// columns' contrasts), and the next SaveStore must write a file
// byte-identical to the reference store.
//
// Results are appended to BENCH_chaos.json (or --out FILE).
//
//   usage: ext_chaos_store [--frames N] [--rounds R] [--out FILE]

#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_common.h"
#include "query/output_store.h"
#include "stats/rng.h"
#include "util/env.h"
#include "util/string_util.h"

using namespace smokescreen;

namespace {

using ColumnKey = std::tuple<int, int, int64_t>;  // (resolution, cls, contrast_q)
using ColumnMap = std::map<ColumnKey, const query::OutputColumnRecord*>;

ColumnMap IndexColumns(const query::OutputStore& store) {
  ColumnMap map;
  for (const query::OutputColumnRecord& c : store.columns()) {
    map[{c.resolution, c.cls, c.contrast_q}] = &c;
  }
  return map;
}

/// Every column of `got` must exist in `want` with bit-identical payloads.
/// Returns the number of mismatching columns (silent corruption if > 0).
int64_t CountMismatches(const ColumnMap& want, const query::OutputStore& got) {
  int64_t mismatches = 0;
  for (const query::OutputColumnRecord& c : got.columns()) {
    auto it = want.find({c.resolution, c.cls, c.contrast_q});
    if (it == want.end() || c.frames != it->second->frames || c.counts != it->second->counts) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// The reference computation: every frame at 320 px and contrast 1.0, then
/// the first quarter at 608 px and contrast 0.9.
void RunReferenceRequests(query::FrameOutputSource& source) {
  std::vector<int64_t> all(static_cast<size_t>(source.dataset().num_frames()));
  std::iota(all.begin(), all.end(), int64_t{0});
  std::vector<int> scratch(all.size());
  source.FillCounts(all, 320, 1.0, scratch).CheckOk();
  const size_t subset = all.size() / 4;
  source.FillCounts(std::span<const int64_t>(all.data(), subset), 608, 0.9,
                    std::span<int>(scratch.data(), subset))
      .CheckOk();
}

struct RateResult {
  double rate = 0.0;
  int64_t saves_attempted = 0;
  int64_t saves_committed = 0;
  int64_t faults_injected = 0;
  int64_t salvage_loads = 0;
  int64_t salvage_errors = 0;     // Status-returning loads (honest failures).
  int64_t columns_quarantined = 0;
  int64_t silent_corruptions = 0;     // MUST stay 0.
  int64_t committed_load_failures = 0;  // MUST stay 0.
};

}  // namespace

int main(int argc, char** argv) {
  // Exports the metrics registry at exit when --metrics-out <path> (stripped
  // here) is given.
  bench::MetricsDumpGuard metrics_guard(argc, argv);
  int64_t frames = 1200;
  int64_t rounds = 80;
  std::string out_path = "BENCH_chaos.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--frames") {
      frames = bench::IntFlagValue(argc, argv, i);
    } else if (arg == "--rounds") {
      rounds = bench::IntFlagValue(argc, argv, i);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: ext_chaos_store [--frames N] [--rounds R] [--out FILE]\n");
      return 2;
    }
  }

  std::printf("=== Extension: chaos test of the crash-safe output store ===\n");
  std::printf("frames=%lld, rounds per fault rate=%lld\n\n", static_cast<long long>(frames),
              static_cast<long long>(rounds));

  // Reference computation: two columns through the real model.
  bench::Workload wl = bench::MakeWorkload(video::ScenePreset::kUaDetrac, "yolov4", frames);
  RunReferenceRequests(*wl.source);
  const query::OutputStore reference = wl.source->ExportStore();
  const ColumnMap reference_columns = IndexColumns(reference);
  std::printf("reference store: %zu columns, %lld entries\n\n", reference.columns().size(),
              static_cast<long long>(reference.TotalEntries()));

  const std::string path = out_path + ".store.tmp-chaos";
  util::Env& posix = util::Env::Default();

  // --- Phase 1: save/crash/load sweep over per-op fault rates -------------
  const std::vector<double> rates = {0.01, 0.05, 0.10, 0.25};
  std::vector<RateResult> results;
  bool pass = true;

  for (double rate : rates) {
    posix.RemoveFile(path).CheckOk();
    auto env = util::FaultEnv::Create(
        util::FaultEnvProfile::AllFaults(rate, /*seed=*/0xC4A05 + results.size()));
    env.status().CheckOk();

    RateResult r;
    r.rate = rate;
    bool committed = false;
    for (int64_t round = 0; round < rounds; ++round) {
      // Save through the faulty env — may tear, flip, or fail to rename.
      ++r.saves_attempted;
      if (reference.Save(*env, path).ok()) {
        ++r.saves_committed;
        committed = true;
      }

      // Invariant 1: the committed file, read cleanly, is exactly the store.
      if (committed) {
        auto clean = query::OutputStore::Load(posix, path);
        if (!clean.ok() || CountMismatches(reference_columns, *clean) > 0 ||
            clean->columns().size() != reference.columns().size()) {
          ++r.committed_load_failures;
        }
      }

      // Invariant 2: a salvage through the FAULTY env (read faults corrupt
      // the returned buffer) either errors or yields only verified,
      // bit-identical columns.
      ++r.salvage_loads;
      auto salvaged = query::OutputStore::Salvage(*env, path);
      if (!salvaged.ok()) {
        ++r.salvage_errors;
      } else {
        r.columns_quarantined += static_cast<int64_t>(salvaged->report.quarantined.size());
        r.silent_corruptions += CountMismatches(reference_columns, salvaged->store);
      }
    }
    r.faults_injected = env->faults_injected();
    if (r.silent_corruptions > 0 || r.committed_load_failures > 0 || r.saves_committed == 0) {
      pass = false;
    }
    results.push_back(r);
    std::printf(
        "rate %.2f: %3lld/%3lld saves committed, %4lld faults injected, "
        "%3lld salvage errors, %3lld quarantined, silent corruption %lld, "
        "committed-data loss %lld\n",
        rate, static_cast<long long>(r.saves_committed),
        static_cast<long long>(r.saves_attempted), static_cast<long long>(r.faults_injected),
        static_cast<long long>(r.salvage_errors), static_cast<long long>(r.columns_quarantined),
        static_cast<long long>(r.silent_corruptions),
        static_cast<long long>(r.committed_load_failures));
  }

  // --- Phase 2: at-rest bit rot in the counts region, healed by a warm start
  std::printf("\nbit-rot repair cycles:\n");
  int64_t repairs = 0, entries_recomputed = 0, repair_failures = 0;
  {
    posix.RemoveFile(path).CheckOk();
    reference.Save(posix, path).CheckOk();
    auto reference_bytes = reference.Serialize();
    reference_bytes.status().CheckOk();
    // The file tail is the LAST column's counts array — rot bytes there so
    // the salvage quarantines exactly that column as counts-corrupt.
    const int64_t last_counts_bytes =
        static_cast<int64_t>(reference.columns().back().counts.size()) * 4;
    stats::Rng rng(0xB17);
    engine::WorkloadDesc desc;
    desc.preset = video::ScenePreset::kUaDetrac;
    desc.frames = frames;
    desc.detector_name = "yolov4";
    desc.output_store_path = path;

    for (int cycle = 0; cycle < 10; ++cycle) {
      auto bytes = posix.ReadFileBytes(path);
      bytes.status().CheckOk();
      const size_t offset =
          bytes->size() - 1 - static_cast<size_t>(rng.NextBounded(
                                  static_cast<uint64_t>(last_counts_bytes)));
      (*bytes)[offset] ^= 0x20;
      posix.WriteFileAtomic(path, *bytes).CheckOk();

      auto healer = bench::BenchRuntime().CreateIsolatedWorkload(desc);
      healer.status().CheckOk();
      const engine::Workload& workload = **healer;
      if (workload.warm_start_damage().empty()) {
        ++repair_failures;  // The rot must be visible to the warm start.
        continue;
      }
      RunReferenceRequests(workload.source());
      if (!bench::BenchRuntime().SaveStore(*healer).ok()) {
        ++repair_failures;
        continue;
      }
      ++repairs;
      const int64_t recomputed = workload.source().model_invocations();
      entries_recomputed += recomputed;

      // Only the lost entries were recomputed, and the saved file is the
      // reference: it strict-loads bit-identical and has the same bytes.
      auto healed = query::OutputStore::Load(posix, path);
      auto healed_bytes = posix.ReadFileBytes(path);
      if (recomputed != reference.TotalEntries() - workload.warm_start_entries() ||
          !healed.ok() || CountMismatches(reference_columns, *healed) > 0 ||
          healed->columns().size() != reference.columns().size() || !healed_bytes.ok() ||
          *healed_bytes != *reference_bytes) {
        ++repair_failures;
      }
    }
  }
  if (repair_failures > 0 || repairs == 0) pass = false;
  std::printf("  %lld repairs, %lld entries recomputed bit-identically, %lld failures\n",
              static_cast<long long>(repairs), static_cast<long long>(entries_recomputed),
              static_cast<long long>(repair_failures));
  posix.RemoveFile(path).CheckOk();

  std::printf("\n%s\n", pass ? "PASS: no silent corruption, no committed-data loss"
                             : "FAIL: durability invariant violated");

  // --- JSON -----------------------------------------------------------------
  std::string json_rates;
  for (const RateResult& r : results) {
    if (!json_rates.empty()) json_rates += ",\n";
    json_rates += "    {\"rate\": " + util::FormatDouble(r.rate, 2) +
                  ", \"saves_attempted\": " + std::to_string(r.saves_attempted) +
                  ", \"saves_committed\": " + std::to_string(r.saves_committed) +
                  ", \"faults_injected\": " + std::to_string(r.faults_injected) +
                  ", \"salvage_errors\": " + std::to_string(r.salvage_errors) +
                  ", \"columns_quarantined\": " + std::to_string(r.columns_quarantined) +
                  ", \"silent_corruptions\": " + std::to_string(r.silent_corruptions) +
                  ", \"committed_load_failures\": " + std::to_string(r.committed_load_failures) +
                  "}";
  }
  std::ofstream json(out_path, std::ios::trunc);
  if (json) {
    json << "{\n  \"bench\": \"ext_chaos_store\",\n"
         << "  \"frames\": " << frames << ",\n"
         << "  \"rounds\": " << rounds << ",\n"
         << "  \"reference_entries\": " << reference.TotalEntries() << ",\n"
         << "  \"rates\": [\n"
         << json_rates << "\n  ],\n"
         << "  \"repairs\": " << repairs << ",\n"
         << "  \"entries_recomputed\": " << entries_recomputed << ",\n"
         << "  \"repair_failures\": " << repair_failures << ",\n"
         << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
    std::printf("results written to %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
  }
  return pass ? 0 : 1;
}
