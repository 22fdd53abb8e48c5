// OutputStore: a persisted columnar store of raw detector counts.
//
// Ground-truth and profile runs repeatedly invoke the model on the same
// (frame, resolution, contrast) triples; the in-memory memo cache already
// reuses them WITHIN a run (§3.3.2 reuse), but the paper's admin workflow
// (§5.3.1) profiles many query/intervention combinations across separate
// runs. OutputStore persists a FrameOutputSource cache snapshot so a later
// run can warm-start and answer those triples as pure cache reads.
//
// File layout, version 2 (native little-endian, fixed-width fields):
//
//   header:
//     u32  magic        "SMKC" (0x434b4d53)
//     u32  version      (2; any other version is refused)
//     u64  dataset_id
//     u64  model_id
//     i64  num_frames   (of the dataset the counts were computed on)
//     u32  num_columns
//     u32  header_crc   CRC32 of all preceding header bytes
//   per column (x num_columns):
//     i32  resolution
//     i32  cls          (video::ObjectClass value)
//     i64  contrast_q   (contrast quantized to 1/4096 steps)
//     i64  num_entries
//     u32  frames_crc   CRC32 of the frames[] bytes
//     u32  counts_crc   CRC32 of the counts[] bytes
//     u32  meta_crc     CRC32 of the preceding six column fields
//     i64  frames[num_entries]   (sorted ascending)
//     i32  counts[num_entries]
//
// Why three CRCs per column: salvage granularity. `meta_crc` proves the
// column SKELETON (lengths, identity), so a reader can step over a column
// whose payload is rotten and keep loading the rest of the file. Separate
// `frames_crc` and `counts_crc` let the salvage verdict name which part of a
// column failed.
//
// Healing: a damaged store heals through the warm start, not here. A
// warm-starting workload (engine::Runtime) preloads the columns that verify;
// requests recompute the lost frames they touch as ordinary memo misses, at
// the caller's exact contrast, and the next save writes a clean file. A
// quarantined column no request touches is not rewritten: the store is a
// memo cache, and a later request recomputes it at the same cost.
//
// Durability: Save is ATOMIC — it writes `<path>.tmp`, fsyncs, verifies the
// bytes by readback, then renames onto `path` (util::Env::WriteFileAtomic).
// A crash or I/O failure at any point leaves the previous store intact.
// Load is STRICT (any corruption is an error); Salvage loads every column
// that verifies and quarantines the rest into a LoadReport.

#ifndef SMOKESCREEN_QUERY_OUTPUT_STORE_H_
#define SMOKESCREEN_QUERY_OUTPUT_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/env.h"
#include "util/metrics.h"
#include "util/status.h"

namespace smokescreen {
namespace query {

/// One column: all persisted counts at a fixed (resolution, class, contrast).
struct OutputColumnRecord {
  int resolution = 0;
  int cls = 0;
  int64_t contrast_q = 0;
  /// Parallel arrays; frames sorted ascending, counts[i] is the raw detector
  /// count for frames[i].
  std::vector<int64_t> frames;
  std::vector<int> counts;
};

/// Verdict of one column during a salvage load.
enum class ColumnVerdict {
  kOk = 0,
  /// Counts bytes fail their CRC (or are cut off); the frame list verifies.
  kCountsCorrupt,
  /// Frame list fails its CRC (counts alone are meaningless without it).
  kFramesCorrupt,
  /// Column metadata fails its CRC; lengths are untrusted, so this column
  /// AND everything after it are unreachable.
  kMetaCorrupt,
  /// The file ends before the column's declared bytes.
  kTruncated,
};

const char* ColumnVerdictName(ColumnVerdict verdict);

/// What a salvage load learned about one quarantined column.
struct QuarantinedColumn {
  ColumnVerdict verdict = ColumnVerdict::kOk;
  /// Declared column identity; zeroed when the metadata itself is untrusted
  /// (kMetaCorrupt and the unreachable tail behind it).
  int resolution = 0;
  int cls = 0;
  int64_t contrast_q = 0;
  int64_t num_entries = 0;
};

/// Per-column outcome of a salvage load.
struct LoadReport {
  uint32_t file_version = 0;
  int64_t columns_total = 0;   // Declared in the (verified) header.
  int64_t columns_loaded = 0;  // Columns whose every CRC verified.
  int64_t entries_loaded = 0;
  int64_t entries_quarantined = 0;  // Declared entries of quarantined columns.
  std::vector<QuarantinedColumn> quarantined;

  bool clean() const { return quarantined.empty() && columns_loaded == columns_total; }
  std::string Summary() const;
};

class OutputStore {
 public:
  /// A salvage-loaded store plus what was quarantined on the way in.
  /// (Defined after the class — it holds an OutputStore by value.)
  struct SalvageResult;

  OutputStore() = default;
  OutputStore(uint64_t dataset_id, uint64_t model_id, int64_t num_frames)
      : dataset_id_(dataset_id), model_id_(model_id), num_frames_(num_frames) {}

  uint64_t dataset_id() const { return dataset_id_; }
  uint64_t model_id() const { return model_id_; }
  int64_t num_frames() const { return num_frames_; }

  const std::vector<OutputColumnRecord>& columns() const { return columns_; }
  void AddColumn(OutputColumnRecord column) { columns_.push_back(std::move(column)); }

  int64_t TotalEntries() const {
    int64_t total = 0;
    for (const OutputColumnRecord& c : columns_) total += static_cast<int64_t>(c.frames.size());
    return total;
  }

  /// Serializes the store to its v2 byte image (exposed for tests and for
  /// callers that persist through their own channel).
  util::Result<std::vector<unsigned char>> Serialize() const;

  /// Atomically and durably writes the store to `path`: tmp file + fsync +
  /// readback verification + rename, via `env`. A crash or injected fault at
  /// any step leaves the previous `path` contents untouched. DataLoss when
  /// the readback catches silent write corruption.
  util::Status Save(util::Env& env, const std::string& path) const;
  /// Same, through the production Env.
  util::Status Save(const std::string& path) const;

  /// Strict read: every CRC must verify. IoError on missing/unreadable
  /// files, InvalidArgument on bad magic/unknown version, DataLoss on
  /// truncation or any CRC mismatch. `registry` receives the salvage
  /// verdict tallies (nullptr = the process default).
  static util::Result<OutputStore> Load(util::Env& env, const std::string& path,
                                        util::MetricsRegistry* registry = nullptr);
  static util::Result<OutputStore> Load(const std::string& path);

  /// Salvage read: loads every column whose CRCs verify and quarantines the
  /// rest into the report — partial corruption degrades the warm-start
  /// instead of discarding it. Fails (like Load) only when the file itself
  /// is unreadable or the HEADER is untrusted: nothing below a bad header
  /// can be attributed to this store. The verdict tallies
  /// (output_store.salvage.*) go to `registry`, looked up per call; nullptr
  /// means the process default.
  static util::Result<SalvageResult> Salvage(util::Env& env, const std::string& path,
                                             util::MetricsRegistry* registry = nullptr);
  static util::Result<SalvageResult> Salvage(const std::string& path);

 private:
  uint64_t dataset_id_ = 0;
  uint64_t model_id_ = 0;
  int64_t num_frames_ = 0;
  std::vector<OutputColumnRecord> columns_;
};

struct OutputStore::SalvageResult {
  OutputStore store;
  LoadReport report;
};

}  // namespace query
}  // namespace smokescreen

#endif  // SMOKESCREEN_QUERY_OUTPUT_STORE_H_
