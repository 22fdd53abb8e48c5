// Env: the file-I/O seam between the persistence layer and the operating
// system, in the style of LevelDB's Env.
//
// Everything that touches disk in this codebase goes through an Env so that
// the storage robustness machinery (query/output_store.h) can be exercised
// against misbehaving hardware DETERMINISTICALLY. Two implementations:
//
//  * PosixEnv — the production implementation (open/write/fsync/rename).
//    Env::Default() returns a process-wide instance.
//  * FaultEnv — wraps another Env and perturbs each operation from a seeded
//    RNG: short/torn writes (a partial prefix lands, then the write fails,
//    modeling ENOSPC or a crash mid-write), silent bit flips in the written
//    or read bytes, failed fsyncs, failed renames, failed reads, and read
//    stalls. The storage analog of camera/fault_injector.h: same profile +
//    same operation sequence reproduces the same fault pattern bit-for-bit.
//
// The atomic-save protocol lives here once, not in every caller:
// WriteFileAtomic writes `<path>.tmp`, fsyncs it, optionally re-reads it and
// compares the bytes with what was written, then renames over `path`. A
// failure at ANY step leaves the previous `path` contents untouched — a
// crashed or faulty save can never destroy the last committed file.

#ifndef SMOKESCREEN_UTIL_ENV_H_
#define SMOKESCREEN_UTIL_ENV_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stats/rng.h"
#include "util/status.h"

namespace smokescreen {
namespace util {

/// Standard CRC32 (reflected, polynomial 0xEDB88320), computed slice-by-8:
/// eight table lookups per 8-byte little-endian load, then a bytewise tail.
/// Little-endian hosts only (checked at compile time). Pass a previous return
/// value as `crc` to continue a running checksum.
uint32_t Crc32(const void* data, size_t len, uint32_t crc = 0);

/// A file opened for (truncating) sequential write.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::span<const unsigned char> data) = 0;
  /// Flushes userspace buffers and fsyncs to stable storage.
  virtual Status Sync() = 0;
  /// Closes the file; Append/Sync are invalid afterwards. Idempotent.
  virtual Status Close() = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  /// Opens `path` for truncating write.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& path) = 0;
  /// Reads the entire file into a byte buffer.
  virtual Result<std::vector<unsigned char>> ReadFileBytes(const std::string& path) = 0;
  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  /// Removes a file; OK if it does not exist.
  virtual Status RemoveFile(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;

  /// Crash-safe whole-file write: writes `<path>.tmp`, fsyncs, optionally
  /// reads the bytes back and compares them byte for byte with `data`
  /// (catching silent write-path corruption before it is committed; a
  /// mismatch is DataLoss), then renames onto `path`. On any failure the
  /// previous `path` contents are untouched and the tmp file is best-effort
  /// removed. Built on the virtual primitives, so a FaultEnv perturbs every
  /// step.
  Status WriteFileAtomic(const std::string& path, std::span<const unsigned char> data,
                         bool verify_readback = false);

  /// The process-wide PosixEnv.
  static Env& Default();
};

/// Production Env backed by POSIX file descriptors.
class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& path) override;
  Result<std::vector<unsigned char>> ReadFileBytes(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;
};

/// I/O misbehavior model. All probabilities are per operation and drawn from
/// the injector's private seeded RNG; the all-defaults profile is a perfect
/// disk.
struct FaultEnvProfile {
  /// An Append writes only a uniform-random prefix of its buffer and then
  /// fails (torn write / ENOSPC). The prefix DOES land in the file, exactly
  /// like a crash mid-write.
  double write_fail_prob = 0.0;
  /// An Append silently flips one random bit of the bytes it writes and
  /// reports success — corruption that only a checksum can catch.
  double write_flip_prob = 0.0;
  /// Sync reports failure without syncing.
  double sync_fail_prob = 0.0;
  /// RenameFile fails; the target is left untouched (crash before commit).
  double rename_fail_prob = 0.0;
  /// ReadFileBytes fails outright (transient medium error).
  double read_fail_prob = 0.0;
  /// ReadFileBytes returns the data with one random bit flipped (transient
  /// bus/DMA corruption; the on-disk bytes stay intact).
  double read_flip_prob = 0.0;
  /// ReadFileBytes succeeds but charges a stall of `stall_sec` to the
  /// injector's latency account (no real sleep — deterministic and fast).
  double read_stall_prob = 0.0;
  double stall_sec = 0.05;

  /// Seed for the private RNG; same profile + same operation sequence
  /// reproduces the same fault pattern bit-for-bit.
  uint64_t seed = 1;

  Status Validate() const;

  /// Passthrough profile (perfect disk).
  static FaultEnvProfile Clean() { return FaultEnvProfile{}; }

  /// Every fault kind at probability `p` — the chaos-bench sweep axis.
  static FaultEnvProfile AllFaults(double p, uint64_t seed);
};

class FaultEnv : public Env {
 public:
  /// Validates the profile; InvalidArgument on malformed probabilities.
  /// `base` defaults to Env::Default() and must outlive the FaultEnv.
  static Result<FaultEnv> Create(FaultEnvProfile profile, Env* base = nullptr);

  Result<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& path) override;
  Result<std::vector<unsigned char>> ReadFileBytes(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;

  const FaultEnvProfile& profile() const { return profile_; }

  // Operation and injected-fault counters.
  int64_t appends() const { return appends_; }
  int64_t torn_writes() const { return torn_writes_; }
  int64_t bits_flipped() const { return bits_flipped_; }
  int64_t sync_failures() const { return sync_failures_; }
  int64_t rename_failures() const { return rename_failures_; }
  int64_t reads() const { return reads_; }
  int64_t read_failures() const { return read_failures_; }
  int64_t read_flips() const { return read_flips_; }
  int64_t read_stalls() const { return read_stalls_; }
  double stalled_sec() const { return stalled_sec_; }
  int64_t faults_injected() const {
    return torn_writes_ + bits_flipped_ + sync_failures_ + rename_failures_ + read_failures_ +
           read_flips_;
  }

 private:
  friend class FaultWritableFile;

  explicit FaultEnv(FaultEnvProfile profile, Env& base)
      : profile_(profile), base_(&base), rng_(profile.seed) {}

  FaultEnvProfile profile_;
  Env* base_;
  stats::Rng rng_;

  int64_t appends_ = 0;
  int64_t torn_writes_ = 0;
  int64_t bits_flipped_ = 0;
  int64_t sync_failures_ = 0;
  int64_t rename_failures_ = 0;
  int64_t reads_ = 0;
  int64_t read_failures_ = 0;
  int64_t read_flips_ = 0;
  int64_t read_stalls_ = 0;
  double stalled_sec_ = 0.0;
};

}  // namespace util
}  // namespace smokescreen

#endif  // SMOKESCREEN_UTIL_ENV_H_
