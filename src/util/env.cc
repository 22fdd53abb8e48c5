#include "util/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace smokescreen {
namespace util {

namespace {

// Slice-by-8 reads eight input bytes as one little-endian word, so the
// lowest-addressed byte must land in the word's low bits.
static_assert(std::endian::native == std::endian::little,
              "util::Crc32's slice-by-8 loop assumes a little-endian host");

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

// tables[0] is the classic bytewise table; tables[k][b] is the CRC register
// after byte b is followed by k zero bytes, so one lookup per byte of an
// 8-byte word advances the register over the whole word.
constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::IoError(op + " failed for " + path + ": " + std::strerror(errno));
}

// Local coin-flip/pick helpers over the inline stats::Rng core, so that
// smokescreen_util stays free of a link-time dependency on smokescreen_stats
// (which itself links util). The tiny modulo bias of Pick is irrelevant for
// choosing fault positions.
bool Flip(stats::Rng& rng, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return rng.NextDouble() < p;
}

uint64_t Pick(stats::Rng& rng, uint64_t bound) { return rng.NextUint64() % bound; }

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  // Best effort: a destructor cannot report; call Close() to see errors.
  ~PosixWritableFile() override { (void)Close(); }

  Status Append(std::span<const unsigned char> data) override {
    if (fd_ < 0) return Status::FailedPrecondition("append to closed file: " + path_);
    const unsigned char* p = data.data();
    size_t remaining = data.size();
    while (remaining > 0) {
      ssize_t n = ::write(fd_, p, remaining);
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write", path_);
      }
      p += n;
      remaining -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::FailedPrecondition("sync of closed file: " + path_);
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return ErrnoStatus("close", path_);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

}  // namespace

/// FaultEnv's write handle: torn writes and bit flips happen here, before
/// the bytes reach the base file. Namespace-scope (not anonymous) so the
/// friend declaration in FaultEnv matches.
class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultEnv& env, std::unique_ptr<WritableFile> base, std::string path)
      : env_(env), base_(std::move(base)), path_(std::move(path)) {}

  Status Append(std::span<const unsigned char> data) override {
    ++env_.appends_;
    if (Flip(env_.rng_, env_.profile_.write_fail_prob)) {
      // Torn write: a uniform-random strict prefix lands, then the write
      // fails — exactly what a crash or ENOSPC mid-write leaves behind.
      ++env_.torn_writes_;
      const size_t prefix =
          data.empty() ? 0 : static_cast<size_t>(Pick(env_.rng_, data.size()));
      if (prefix > 0) SMK_RETURN_IF_ERROR(base_->Append(data.subspan(0, prefix)));
      return Status::IoError("injected torn write (" + std::to_string(prefix) + "/" +
                             std::to_string(data.size()) + " bytes landed): " + path_);
    }
    if (!data.empty() && Flip(env_.rng_, env_.profile_.write_flip_prob)) {
      // Silent corruption: one bit flips on the way to the platter and the
      // write still reports success.
      ++env_.bits_flipped_;
      std::vector<unsigned char> corrupted(data.begin(), data.end());
      const uint64_t bit = Pick(env_.rng_, corrupted.size() * 8);
      corrupted[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
      return base_->Append(corrupted);
    }
    return base_->Append(data);
  }

  Status Sync() override {
    if (Flip(env_.rng_, env_.profile_.sync_fail_prob)) {
      ++env_.sync_failures_;
      return Status::IoError("injected fsync failure: " + path_);
    }
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  FaultEnv& env_;
  std::unique_ptr<WritableFile> base_;
  std::string path_;
};

uint32_t Crc32(const void* data, size_t len, uint32_t crc) {
  const CrcTables& t = kCrcTables;
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; len >= 8; bytes += 8, len -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, bytes, sizeof(word));
    word ^= crc;
    crc = t[7][word & 0xFFu] ^ t[6][(word >> 8) & 0xFFu] ^ t[5][(word >> 16) & 0xFFu] ^
          t[4][(word >> 24) & 0xFFu] ^ t[3][(word >> 32) & 0xFFu] ^
          t[2][(word >> 40) & 0xFFu] ^ t[1][(word >> 48) & 0xFFu] ^ t[0][word >> 56];
  }
  for (; len > 0; ++bytes, --len) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

Status Env::WriteFileAtomic(const std::string& path, std::span<const unsigned char> data,
                            bool verify_readback) {
  const std::string tmp = path + ".tmp";
  Status status = [&]() -> Status {
    SMK_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file, NewWritableFile(tmp));
    SMK_RETURN_IF_ERROR(file->Append(data));
    // fsync BEFORE rename: rename is durable only once the data it points
    // at is, otherwise a crash can commit a hole.
    SMK_RETURN_IF_ERROR(file->Sync());
    SMK_RETURN_IF_ERROR(file->Close());
    if (verify_readback) {
      SMK_ASSIGN_OR_RETURN(std::vector<unsigned char> readback, ReadFileBytes(tmp));
      // Byte for byte: an exact compare, strictly stronger than comparing
      // two CRCs. An empty span or vector may hold a null pointer, which
      // memcmp must not see.
      if (readback.size() != data.size() ||
          (!data.empty() && std::memcmp(readback.data(), data.data(), data.size()) != 0)) {
        return Status::DataLoss("atomic write readback mismatch (silent write corruption): " +
                                tmp);
      }
    }
    return RenameFile(tmp, path);
  }();
  if (!status.ok()) (void)RemoveFile(tmp);  // Best effort; the error stands.
  return status;
}

Env& Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return *env;
}

Result<std::unique_ptr<WritableFile>> PosixEnv::NewWritableFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open", path);
  return std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path));
}

Result<std::vector<unsigned char>> PosixEnv::ReadFileBytes(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open", path);
  std::vector<unsigned char> bytes;
  struct stat st{};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) bytes.reserve(static_cast<size_t>(st.st_size));
  unsigned char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = ErrnoStatus("read", path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return bytes;
}

Status PosixEnv::RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) return ErrnoStatus("rename", from);
  return Status::OK();
}

Status PosixEnv::RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) return ErrnoStatus("unlink", path);
  return Status::OK();
}

bool PosixEnv::FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

Status FaultEnvProfile::Validate() const {
  for (double p : {write_fail_prob, write_flip_prob, sync_fail_prob, rename_fail_prob,
                   read_fail_prob, read_flip_prob, read_stall_prob}) {
    if (!(p >= 0.0 && p <= 1.0)) {
      return Status::InvalidArgument("FaultEnvProfile probabilities must be in [0,1]");
    }
  }
  if (!(stall_sec >= 0.0)) {
    return Status::InvalidArgument("FaultEnvProfile stall_sec must be >= 0");
  }
  return Status::OK();
}

FaultEnvProfile FaultEnvProfile::AllFaults(double p, uint64_t seed) {
  FaultEnvProfile profile;
  profile.write_fail_prob = p;
  profile.write_flip_prob = p;
  profile.sync_fail_prob = p;
  profile.rename_fail_prob = p;
  profile.read_fail_prob = p;
  profile.read_flip_prob = p;
  profile.read_stall_prob = p;
  profile.seed = seed;
  return profile;
}

Result<FaultEnv> FaultEnv::Create(FaultEnvProfile profile, Env* base) {
  SMK_RETURN_IF_ERROR(profile.Validate());
  return FaultEnv(profile, base != nullptr ? *base : Env::Default());
}

Result<std::unique_ptr<WritableFile>> FaultEnv::NewWritableFile(const std::string& path) {
  SMK_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file, base_->NewWritableFile(path));
  return std::unique_ptr<WritableFile>(new FaultWritableFile(*this, std::move(file), path));
}

Result<std::vector<unsigned char>> FaultEnv::ReadFileBytes(const std::string& path) {
  ++reads_;
  if (Flip(rng_, profile_.read_fail_prob)) {
    ++read_failures_;
    return Status::IoError("injected read failure: " + path);
  }
  if (Flip(rng_, profile_.read_stall_prob)) {
    // Stalls are charged to the latency account, not slept through — the
    // chaos bench stays fast and deterministic.
    ++read_stalls_;
    stalled_sec_ += profile_.stall_sec;
  }
  SMK_ASSIGN_OR_RETURN(std::vector<unsigned char> bytes, base_->ReadFileBytes(path));
  if (!bytes.empty() && Flip(rng_, profile_.read_flip_prob)) {
    // Transient read-side corruption: the returned buffer is wrong, the
    // on-disk bytes are intact (a retry sees clean data).
    ++read_flips_;
    const uint64_t bit = Pick(rng_, bytes.size() * 8);
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  return bytes;
}

Status FaultEnv::RenameFile(const std::string& from, const std::string& to) {
  if (Flip(rng_, profile_.rename_fail_prob)) {
    ++rename_failures_;
    return Status::IoError("injected rename failure: " + from + " -> " + to);
  }
  return base_->RenameFile(from, to);
}

Status FaultEnv::RemoveFile(const std::string& path) { return base_->RemoveFile(path); }

bool FaultEnv::FileExists(const std::string& path) { return base_->FileExists(path); }

}  // namespace util
}  // namespace smokescreen
