// util::Env: CRC32 correctness against a bytewise reference, PosixEnv round
// trips, the atomic-save protocol's crash behavior, and FaultEnv's
// deterministic fault injection — same profile + same operation sequence
// must reproduce the same faults.

#include "util/env.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace smokescreen {
namespace util {
namespace {

std::vector<unsigned char> Bytes(const std::string& s) {
  return std::vector<unsigned char>(s.begin(), s.end());
}

// The bytewise table-driven CRC32 that util::Crc32 replaced, kept as the
// reference its slice-by-8 loop must match on every length and alignment.
uint32_t ReferenceCrc32(const void* data, size_t len, uint32_t crc = 0) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

// Deterministic pseudo-random bytes (a 64-bit LCG's top byte per step), so
// a pinned CRC value stays meaningful across platforms and releases.
std::vector<unsigned char> LcgBytes(size_t n) {
  std::vector<unsigned char> bytes(n);
  uint64_t state = 1;
  for (unsigned char& b : bytes) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<unsigned char>(state >> 56);
  }
  return bytes;
}

class EnvTest : public ::testing::Test {
 protected:
  // Unique per test: ctest -j runs tests of this binary as separate
  // processes, and a shared fixed path races their writes and TearDown.
  void SetUp() override {
    const testing::TestInfo* info = testing::UnitTest::GetInstance()->current_test_info();
    path_ = testing::TempDir() + "/util_env_test_" + info->test_suite_name() + "_" +
            info->name() + ".bin";
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string path_;
};

// Fault-injection suites run under the TSAN CI job by name — keep the
// FaultEnvTest prefix in sync with the ctest regex in ci.yml.
using FaultEnvTest = EnvTest;

TEST(TestTempDirTest, IsThisBuildTreesOwnDirectory) {
  // Under ctest, tests/CMakeLists.txt sets TEST_TMPDIR to a directory of
  // this build tree, so two trees tested at once never share a temp file
  // name. Run directly, the binary falls back to /tmp and this case fails.
  // Some gtest releases append a slash to the variable, some do not.
  std::string dir = testing::TempDir();
  if (!dir.empty() && dir.back() == '/') dir.pop_back();
  EXPECT_EQ(dir, SMK_TEST_TMPDIR);
  EXPECT_TRUE(std::filesystem::is_directory(dir));
}

TEST(Crc32Test, MatchesKnownVectors) {
  // The standard check value for CRC-32/ISO-HDLC.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  // Incremental == one-shot.
  const std::string s = "smokescreen";
  uint32_t partial = Crc32(s.data(), 5);
  EXPECT_EQ(Crc32(s.data() + 5, s.size() - 5, partial), Crc32(s.data(), s.size()));
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0-300 cover the empty input, tails of every size, and many full
  // 8-byte words; offsets 0-7 start the words at every alignment.
  const std::vector<unsigned char> data = LcgBytes(300 + 8);
  for (uint32_t running : {0u, 0xFFFFFFFFu, 0x8E4D2C17u, 0x1A2B3C4Du}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t len = 0; len <= 300; ++len) {
        ASSERT_EQ(Crc32(data.data() + offset, len, running),
                  ReferenceCrc32(data.data() + offset, len, running))
            << "offset " << offset << " len " << len << " running " << running;
      }
    }
  }
}

TEST(Crc32Test, ChainingAtEverySplitMatchesOneShot) {
  const std::vector<unsigned char> data = LcgBytes(1024);
  const uint32_t whole = Crc32(data.data(), data.size());
  EXPECT_EQ(whole, ReferenceCrc32(data.data(), data.size()));
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = Crc32(data.data(), split);
    ASSERT_EQ(Crc32(data.data() + split, data.size() - split, head), whole) << "split " << split;
  }
}

TEST(Crc32Test, OneMebibyteValueIsPinned) {
  // Computed by the bytewise implementation this one replaced; store files
  // carry these CRCs, so the value must never move.
  const std::vector<unsigned char> data = LcgBytes(size_t{1} << 20);
  EXPECT_EQ(Crc32(data.data(), data.size()), 0x8FB10EF1u);
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::vector<unsigned char> data(256);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<unsigned char>(i);
  const uint32_t clean = Crc32(data.data(), data.size());
  for (size_t bit = 0; bit < data.size() * 8; bit += 97) {
    data[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    EXPECT_NE(Crc32(data.data(), data.size()), clean) << "bit " << bit;
    data[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
}

TEST_F(EnvTest, PosixWriteReadRoundTrip) {
  Env& env = Env::Default();
  auto file = env.NewWritableFile(path_);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(Bytes("hello ")).ok());
  ASSERT_TRUE((*file)->Append(Bytes("world")).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());

  auto bytes = env.ReadFileBytes(path_);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, Bytes("hello world"));
  EXPECT_TRUE(env.FileExists(path_));
  ASSERT_TRUE(env.RemoveFile(path_).ok());
  EXPECT_FALSE(env.FileExists(path_));
  ASSERT_TRUE(env.RemoveFile(path_).ok());  // Idempotent on missing files.
}

TEST_F(EnvTest, WriteFileAtomicCommitsAndCleansUp) {
  Env& env = Env::Default();
  const auto data = Bytes("payload v1");
  ASSERT_TRUE(env.WriteFileAtomic(path_, data, /*verify_readback=*/true).ok());
  EXPECT_FALSE(env.FileExists(path_ + ".tmp"));
  auto bytes = env.ReadFileBytes(path_);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, data);
}

TEST_F(EnvTest, WriteFileAtomicCommitsAnEmptyFile) {
  Env& env = Env::Default();
  ASSERT_TRUE(env.WriteFileAtomic(path_, {}, /*verify_readback=*/true).ok());
  EXPECT_FALSE(env.FileExists(path_ + ".tmp"));
  auto bytes = env.ReadFileBytes(path_);
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(bytes->empty());
}

TEST_F(FaultEnvTest, CleanFaultEnvCommitsAnEmptyFile) {
  auto env = FaultEnv::Create(FaultEnvProfile::Clean());
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE(env->WriteFileAtomic(path_, {}, /*verify_readback=*/true).ok());
  EXPECT_FALSE(env->FileExists(path_ + ".tmp"));
  auto bytes = Env::Default().ReadFileBytes(path_);
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(bytes->empty());
  EXPECT_EQ(env->faults_injected(), 0);
}

TEST_F(FaultEnvTest, CleanFaultEnvIsAPassthrough) {
  auto env = FaultEnv::Create(FaultEnvProfile::Clean());
  ASSERT_TRUE(env.ok());
  const auto data = Bytes("no faults here");
  ASSERT_TRUE(env->WriteFileAtomic(path_, data, /*verify_readback=*/true).ok());
  auto bytes = env->ReadFileBytes(path_);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, data);
  EXPECT_EQ(env->faults_injected(), 0);
  EXPECT_GT(env->appends(), 0);
  EXPECT_GT(env->reads(), 0);
}

TEST_F(FaultEnvTest, RejectsMalformedProfiles) {
  FaultEnvProfile profile;
  profile.write_fail_prob = 1.5;
  EXPECT_FALSE(FaultEnv::Create(profile).ok());
  profile = FaultEnvProfile{};
  profile.read_flip_prob = -0.1;
  EXPECT_FALSE(FaultEnv::Create(profile).ok());
  profile = FaultEnvProfile{};
  profile.stall_sec = -1.0;
  EXPECT_FALSE(FaultEnv::Create(profile).ok());
}

TEST_F(FaultEnvTest, TornWriteLandsAStrictPrefixThenFails) {
  FaultEnvProfile profile;
  profile.write_fail_prob = 1.0;
  profile.seed = 3;
  auto env = FaultEnv::Create(profile);
  ASSERT_TRUE(env.ok());

  auto file = env->NewWritableFile(path_);
  ASSERT_TRUE(file.ok());
  const auto data = Bytes("0123456789abcdef");
  auto status = (*file)->Append(data);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(env->torn_writes(), 1);
  ASSERT_TRUE((*file)->Close().ok());

  // Whatever landed is a strict prefix of the payload.
  auto on_disk = Env::Default().ReadFileBytes(path_);
  ASSERT_TRUE(on_disk.ok());
  ASSERT_LT(on_disk->size(), data.size());
  EXPECT_TRUE(std::equal(on_disk->begin(), on_disk->end(), data.begin()));
}

TEST_F(FaultEnvTest, WriteFlipCorruptsExactlyOneBitSilently) {
  FaultEnvProfile profile;
  profile.write_flip_prob = 1.0;
  profile.seed = 5;
  auto env = FaultEnv::Create(profile);
  ASSERT_TRUE(env.ok());

  auto file = env->NewWritableFile(path_);
  ASSERT_TRUE(file.ok());
  const auto data = Bytes("all bytes healthy");
  ASSERT_TRUE((*file)->Append(data).ok());  // Reports success!
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(env->bits_flipped(), 1);

  auto on_disk = Env::Default().ReadFileBytes(path_);
  ASSERT_TRUE(on_disk.ok());
  ASSERT_EQ(on_disk->size(), data.size());
  int differing_bits = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    unsigned char diff = (*on_disk)[i] ^ data[i];
    while (diff != 0) {
      differing_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(differing_bits, 1);
}

TEST_F(FaultEnvTest, ReadFlipLeavesDiskIntact) {
  Env& posix = Env::Default();
  const auto data = Bytes("persistent truth");
  ASSERT_TRUE(posix.WriteFileAtomic(path_, data).ok());

  FaultEnvProfile profile;
  profile.read_flip_prob = 1.0;
  profile.seed = 9;
  auto env = FaultEnv::Create(profile);
  ASSERT_TRUE(env.ok());

  auto corrupt = env->ReadFileBytes(path_);
  ASSERT_TRUE(corrupt.ok());
  EXPECT_NE(*corrupt, data);
  EXPECT_EQ(env->read_flips(), 1);

  // The corruption was transient: the platter still has the real bytes.
  auto clean = posix.ReadFileBytes(path_);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(*clean, data);
}

TEST_F(FaultEnvTest, ReadStallsAreChargedNotSlept) {
  Env& posix = Env::Default();
  ASSERT_TRUE(posix.WriteFileAtomic(path_, Bytes("x")).ok());

  FaultEnvProfile profile;
  profile.read_stall_prob = 1.0;
  profile.stall_sec = 2.5;
  auto env = FaultEnv::Create(profile);
  ASSERT_TRUE(env.ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(env->ReadFileBytes(path_).ok());
  EXPECT_EQ(env->read_stalls(), 4);
  EXPECT_DOUBLE_EQ(env->stalled_sec(), 10.0);
}

TEST_F(FaultEnvTest, SyncAndRenameFailuresAreInjected) {
  FaultEnvProfile profile;
  profile.sync_fail_prob = 1.0;
  auto env = FaultEnv::Create(profile);
  ASSERT_TRUE(env.ok());
  auto file = env->NewWritableFile(path_);
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE((*file)->Sync().ok());
  EXPECT_EQ(env->sync_failures(), 1);
  ASSERT_TRUE((*file)->Close().ok());

  FaultEnvProfile rename_profile;
  rename_profile.rename_fail_prob = 1.0;
  auto rename_env = FaultEnv::Create(rename_profile);
  ASSERT_TRUE(rename_env.ok());
  EXPECT_FALSE(rename_env->WriteFileAtomic(path_ + ".target", Bytes("y")).ok());
  EXPECT_EQ(rename_env->rename_failures(), 1);
  EXPECT_FALSE(Env::Default().FileExists(path_ + ".target"));
  EXPECT_FALSE(Env::Default().FileExists(path_ + ".target.tmp"));  // Cleaned up.
}

TEST_F(FaultEnvTest, SameSeedSameOperationsSameFaults) {
  // Determinism is the whole point: two injectors with the same profile must
  // produce bit-identical fault patterns over the same operation sequence.
  const FaultEnvProfile profile = FaultEnvProfile::AllFaults(0.3, /*seed=*/42);
  auto run = [&](const std::string& path) {
    auto env = FaultEnv::Create(profile);
    EXPECT_TRUE(env.ok());
    // Error messages embed the file path, which differs between the two
    // runs by construction — scrub it so only the fault pattern compares.
    auto scrub_path = [&](std::string s) {
      for (size_t pos; (pos = s.find(path)) != std::string::npos;) {
        s.replace(pos, path.size(), "<PATH>");
      }
      return s;
    };
    std::vector<std::string> outcomes;
    for (int i = 0; i < 30; ++i) {
      Status w = env->WriteFileAtomic(path, Bytes("payload " + std::to_string(i)),
                                      /*verify_readback=*/true);
      auto r = env->ReadFileBytes(path);
      outcomes.push_back(
          scrub_path(w.ToString()) + "|" +
          (r.ok() ? std::string(r->begin(), r->end()) : scrub_path(r.status().ToString())));
    }
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    return std::make_pair(outcomes, env->faults_injected());
  };
  auto [a, faults_a] = run(path_ + ".a");
  auto [b, faults_b] = run(path_ + ".b");
  EXPECT_GT(faults_a, 0);
  EXPECT_EQ(faults_a, faults_b);
  EXPECT_EQ(a, b);
}

TEST_F(FaultEnvTest, AtomicWriteUnderFaultsNeverCommitsCorruptBytes) {
  // At a harsh per-op fault rate, WriteFileAtomic must either commit the
  // exact payload or fail leaving the previous file intact — across many
  // rounds, the committed file NEVER holds anything else.
  const FaultEnvProfile profile = FaultEnvProfile::AllFaults(0.25, /*seed=*/1234);
  auto env = FaultEnv::Create(profile);
  ASSERT_TRUE(env.ok());
  Env& posix = Env::Default();

  std::vector<unsigned char> committed;  // What `path_` must contain.
  int successes = 0, failures = 0;
  for (int round = 0; round < 200; ++round) {
    const auto payload = Bytes("round " + std::to_string(round) + " payload");
    if (env->WriteFileAtomic(path_, payload, /*verify_readback=*/true).ok()) {
      committed = payload;
      ++successes;
    } else {
      ++failures;
    }
    // Inspect through the clean env: the file on disk must be exactly the
    // last successfully committed payload (or absent before the first).
    if (committed.empty()) {
      ASSERT_FALSE(posix.FileExists(path_));
    } else {
      auto on_disk = posix.ReadFileBytes(path_);
      ASSERT_TRUE(on_disk.ok());
      ASSERT_EQ(*on_disk, committed) << "round " << round;
    }
  }
  EXPECT_GT(successes, 0);
  EXPECT_GT(failures, 0);
  EXPECT_GT(env->faults_injected(), 0);
}

}  // namespace
}  // namespace util
}  // namespace smokescreen
