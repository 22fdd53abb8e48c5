#include "query/output_store.h"

#include <cstring>
#include <limits>

#include "util/metrics.h"

namespace smokescreen {
namespace query {

using util::Crc32;
using util::Result;
using util::Status;

namespace {

constexpr uint32_t kMagic = 0x434b4d53;  // "SMKC" little-endian.
constexpr uint32_t kVersion = 2;

// Byte sizes of the header and of the fixed per-column prefix.
constexpr size_t kHeaderSize = 4 + 4 + 8 + 8 + 8 + 4 + 4;
constexpr size_t kMetaSize = 4 + 4 + 8 + 8 + 4 + 4 + 4;  // ... + meta_crc.
constexpr size_t kMetaCrcCovered = kMetaSize - 4;        // Fields before meta_crc.
constexpr size_t kEntrySize = sizeof(int64_t) + sizeof(int);  // One frame + its count.

// Byte-buffer writer/reader for fixed-width fields. Values are written in
// the host representation; the format is not meant for cross-endian
// exchange, and the CRCs catch accidental reinterpretation.
class Writer {
 public:
  /// `capacity` is the final image size: the buffer is allocated once and
  /// every byte is copied into it once.
  explicit Writer(size_t capacity) { bytes_.reserve(capacity); }

  template <typename T>
  void Put(T value) { Append(&value, sizeof(T)); }
  template <typename T>
  void PutArray(const std::vector<T>& values) { Append(values.data(), values.size() * sizeof(T)); }
  uint32_t CrcOfSuffix(size_t from) const {
    return Crc32(bytes_.data() + from, bytes_.size() - from);
  }
  size_t size() const { return bytes_.size(); }
  std::vector<unsigned char> TakeBytes() { return std::move(bytes_); }

 private:
  void Append(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  std::vector<unsigned char> bytes_;
};

class Reader {
 public:
  Reader(const unsigned char* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  size_t pos() const { return pos_; }

  /// Unchecked fixed-width read; the caller verified `remaining()` first.
  template <typename T>
  T Take() {
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }
  template <typename T>
  void TakeArray(size_t count, std::vector<T>* out) {
    out->resize(count);
    if (count > 0) std::memcpy(out->data(), data_ + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
  }
  void Skip(size_t n) { pos_ += n; }
  uint32_t CrcOfRange(size_t from, size_t to) const { return Crc32(data_ + from, to - from); }

 private:
  const unsigned char* data_;
  size_t size_;
  size_t pos_ = 0;
};

void Quarantine(LoadReport& report, ColumnVerdict verdict, int resolution, int cls,
                int64_t contrast_q, int64_t num_entries) {
  report.entries_quarantined += num_entries;
  report.quarantined.push_back({verdict, resolution, cls, contrast_q, num_entries});
}

/// Quarantines the tail of the file after a desync or truncation: columns
/// [next, total) were declared by the header but can no longer be located.
void QuarantineTail(LoadReport& report, int64_t next, int64_t total) {
  for (int64_t c = next; c < total; ++c) {
    Quarantine(report, ColumnVerdict::kTruncated, 0, 0, 0, 0);
  }
}

}  // namespace

const char* ColumnVerdictName(ColumnVerdict verdict) {
  switch (verdict) {
    case ColumnVerdict::kOk:
      return "ok";
    case ColumnVerdict::kCountsCorrupt:
      return "counts-corrupt";
    case ColumnVerdict::kFramesCorrupt:
      return "frames-corrupt";
    case ColumnVerdict::kMetaCorrupt:
      return "meta-corrupt";
    case ColumnVerdict::kTruncated:
      return "truncated";
  }
  return "unknown";
}

std::string LoadReport::Summary() const {
  // Built with appends rather than an operator+ chain: GCC 12 at -O3 raises
  // a -Wrestrict false positive on ("literal" + std::string&&) inserts.
  std::string out = "v";
  out += std::to_string(file_version);
  out += ": ";
  out += std::to_string(columns_loaded);
  out += "/";
  out += std::to_string(columns_total);
  out += " columns (";
  out += std::to_string(entries_loaded);
  out += " entries) loaded";
  if (!quarantined.empty()) {
    out += "; quarantined:";
    for (const QuarantinedColumn& q : quarantined) {
      out += " ";
      out += ColumnVerdictName(q.verdict);
    }
  }
  return out;
}

Result<std::vector<unsigned char>> OutputStore::Serialize() const {
  size_t image_size = kHeaderSize;
  for (const OutputColumnRecord& column : columns_) {
    if (column.frames.size() != column.counts.size()) {
      return Status::InvalidArgument("output store column has mismatched frame/count arrays");
    }
    image_size += kMetaSize + column.frames.size() * kEntrySize;
  }

  Writer w(image_size);
  w.Put<uint32_t>(kMagic);
  w.Put<uint32_t>(kVersion);
  w.Put<uint64_t>(dataset_id_);
  w.Put<uint64_t>(model_id_);
  w.Put<int64_t>(num_frames_);
  w.Put<uint32_t>(static_cast<uint32_t>(columns_.size()));
  w.Put<uint32_t>(w.CrcOfSuffix(0));  // header_crc covers all prior bytes.

  for (const OutputColumnRecord& column : columns_) {
    const size_t meta_start = w.size();
    w.Put<int32_t>(column.resolution);
    w.Put<int32_t>(column.cls);
    w.Put<int64_t>(column.contrast_q);
    w.Put<int64_t>(static_cast<int64_t>(column.frames.size()));
    w.Put<uint32_t>(Crc32(column.frames.data(), column.frames.size() * sizeof(int64_t)));
    w.Put<uint32_t>(Crc32(column.counts.data(), column.counts.size() * sizeof(int)));
    w.Put<uint32_t>(w.CrcOfSuffix(meta_start));  // meta_crc over the six fields.
    w.PutArray(column.frames);
    w.PutArray(column.counts);
  }
  return std::move(w).TakeBytes();
}

Status OutputStore::Save(util::Env& env, const std::string& path) const {
  SMK_ASSIGN_OR_RETURN(std::vector<unsigned char> bytes, Serialize());
  // Readback verification turns silent write-path corruption (which only a
  // later load would catch) into a failed, uncommitted save: the previous
  // store file survives and nothing corrupt is ever committed.
  return env.WriteFileAtomic(path, bytes, /*verify_readback=*/true);
}

Status OutputStore::Save(const std::string& path) const {
  return Save(util::Env::Default(), path);
}

Result<OutputStore::SalvageResult> OutputStore::Salvage(util::Env& env, const std::string& path,
                                                        util::MetricsRegistry* registry) {
  SMK_ASSIGN_OR_RETURN(std::vector<unsigned char> bytes, env.ReadFileBytes(path));
  Reader r(bytes.data(), bytes.size());

  // --- Header: all-or-nothing. A store whose header does not verify cannot
  // attribute ANY byte to a dataset/model, so there is nothing to salvage.
  if (r.remaining() < kHeaderSize) {
    return Status::DataLoss("output store header truncated (" + std::to_string(bytes.size()) +
                            " bytes): " + path);
  }
  const uint32_t magic = r.Take<uint32_t>();
  if (magic != kMagic) {
    return Status::InvalidArgument("not an output store file (bad magic): " + path);
  }
  const uint32_t version = r.Take<uint32_t>();
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported output store version " +
                                   std::to_string(version));
  }
  SalvageResult result;
  OutputStore& store = result.store;
  LoadReport& report = result.report;
  report.file_version = version;
  store.dataset_id_ = r.Take<uint64_t>();
  store.model_id_ = r.Take<uint64_t>();
  store.num_frames_ = r.Take<int64_t>();
  const uint32_t num_columns = r.Take<uint32_t>();
  const size_t header_end = r.pos();
  const uint32_t header_crc = r.Take<uint32_t>();
  if (header_crc != r.CrcOfRange(0, header_end)) {
    return Status::DataLoss("output store header CRC mismatch: " + path);
  }
  // A column takes at least its fixed prefix. A header declaring more
  // columns than the rest of the file could hold is forged or garbled
  // despite its CRC, and trusting it would size allocations from it.
  if (num_columns > r.remaining() / kMetaSize) {
    return Status::DataLoss("output store header declares " + std::to_string(num_columns) +
                            " columns, more than its " + std::to_string(bytes.size()) +
                            " bytes can hold: " + path);
  }
  report.columns_total = num_columns;
  store.columns_.reserve(num_columns);

  // --- Columns: per-column verdicts. Anything that verifies loads; anything
  // that does not is quarantined with as much identity as can be trusted.
  for (int64_t c = 0; c < report.columns_total; ++c) {
    if (r.remaining() < kMetaSize) {
      Quarantine(report, ColumnVerdict::kTruncated, 0, 0, 0, 0);
      QuarantineTail(report, c + 1, report.columns_total);
      break;
    }
    const size_t meta_start = r.pos();
    OutputColumnRecord column;
    column.resolution = r.Take<int32_t>();
    column.cls = r.Take<int32_t>();
    column.contrast_q = r.Take<int64_t>();
    const int64_t num_entries = r.Take<int64_t>();
    const uint32_t frames_crc = r.Take<uint32_t>();
    const uint32_t counts_crc = r.Take<uint32_t>();
    const uint32_t meta_crc = r.Take<uint32_t>();
    if (meta_crc != r.CrcOfRange(meta_start, meta_start + kMetaCrcCovered) ||
        num_entries < 0 ||
        static_cast<uint64_t>(num_entries) > std::numeric_limits<size_t>::max() / kEntrySize) {
      // Lengths are untrusted: this column cannot be stepped over, so the
      // declared tail behind it is unreachable too.
      Quarantine(report, ColumnVerdict::kMetaCorrupt, 0, 0, 0, 0);
      QuarantineTail(report, c + 1, report.columns_total);
      break;
    }

    const size_t n = static_cast<size_t>(num_entries);
    const size_t frames_bytes = n * sizeof(int64_t);
    const size_t counts_bytes = n * sizeof(int);
    if (r.remaining() < frames_bytes) {
      Quarantine(report, ColumnVerdict::kTruncated, column.resolution, column.cls,
                 column.contrast_q, num_entries);
      QuarantineTail(report, c + 1, report.columns_total);
      break;
    }
    const size_t frames_start = r.pos();
    const bool counts_present = r.remaining() >= frames_bytes + counts_bytes;
    const bool frames_ok = frames_crc == r.CrcOfRange(frames_start, frames_start + frames_bytes);
    const bool counts_ok =
        counts_present &&
        counts_crc == r.CrcOfRange(frames_start + frames_bytes,
                                   frames_start + frames_bytes + counts_bytes);
    if (frames_ok && counts_ok) {
      r.TakeArray(n, &column.frames);
      r.TakeArray(n, &column.counts);
      report.entries_loaded += num_entries;
      ++report.columns_loaded;
      store.columns_.push_back(std::move(column));
      continue;
    }
    // Counts rotten (or cut off) under a verified frame list, or a frame
    // list that does not verify: the verdict names which CRC failed.
    Quarantine(report,
               frames_ok ? ColumnVerdict::kCountsCorrupt : ColumnVerdict::kFramesCorrupt,
               column.resolution, column.cls, column.contrast_q, num_entries);
    if (!counts_present) {  // File ends inside this column.
      QuarantineTail(report, c + 1, report.columns_total);
      break;
    }
    r.Skip(frames_bytes + counts_bytes);
  }

  // The verdict tallies go to the caller's registry, looked up per call, so
  // a runtime with a private registry accounts for its own warm-start
  // salvages. Load routes through here too, so every salvage pass is
  // covered.
  if (registry == nullptr) registry = &util::MetricsRegistry::Default();
  registry->GetCounter("output_store.salvage.calls")->Increment();
  registry->GetCounter("output_store.salvage.columns_loaded")->Add(report.columns_loaded);
  registry->GetCounter("output_store.salvage.columns_quarantined")
      ->Add(static_cast<int64_t>(report.quarantined.size()));
  registry->GetCounter("output_store.salvage.entries_loaded")->Add(report.entries_loaded);
  registry->GetCounter("output_store.salvage.entries_quarantined")
      ->Add(report.entries_quarantined);
  return result;
}

Result<OutputStore::SalvageResult> OutputStore::Salvage(const std::string& path) {
  return Salvage(util::Env::Default(), path);
}

Result<OutputStore> OutputStore::Load(util::Env& env, const std::string& path,
                                      util::MetricsRegistry* registry) {
  SMK_ASSIGN_OR_RETURN(SalvageResult result, Salvage(env, path, registry));
  if (!result.report.clean()) {
    return Status::DataLoss("output store " + path + " failed strict load (" +
                            result.report.Summary() + "); use Salvage to keep the " +
                            "verified columns");
  }
  return std::move(result.store);
}

Result<OutputStore> OutputStore::Load(const std::string& path) {
  return Load(util::Env::Default(), path);
}

}  // namespace query
}  // namespace smokescreen
