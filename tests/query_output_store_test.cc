// OutputStore persistence: byte-level round-trip through Save/Load,
// warm-start Preload semantics (zero invocations, zero counter pollution),
// Status-returning rejection of mismatched, truncated and corrupted files,
// crash-atomicity of Save under injected I/O faults, per-column salvage of
// partially corrupt files, and refusal of every version but 2 — loading
// never crashes and never serves an unverified count, whatever the bytes.
// A salvaged store preloaded into a source heals as its requests recompute
// the quarantined entries; the same heal through the Runtime's warm start is
// tested in engine_serving_test.

#include "query/output_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "detect/models.h"
#include "query/output_source.h"
#include "util/env.h"
#include "util/metrics.h"
#include "video/presets.h"

namespace smokescreen {
namespace query {
namespace {

using util::FaultEnv;
using util::FaultEnvProfile;
using video::ObjectClass;
using video::ScenePreset;

// Query outputs for every frame of the source's dataset.
util::Result<std::vector<double>> AllFrameOutputs(FrameOutputSource& source,
                                                  const QuerySpec& spec, int resolution) {
  std::vector<int64_t> frames(static_cast<size_t>(source.dataset().num_frames()));
  std::iota(frames.begin(), frames.end(), int64_t{0});
  OutputColumn column;
  SMK_RETURN_IF_ERROR(source.AppendOutputs(spec, frames, resolution, 1.0, column));
  return std::move(column.outputs);
}

// v2 fixed-layout byte offsets (see output_store.h).
constexpr size_t kHeaderSize = 4 + 4 + 8 + 8 + 8 + 4 + 4;
constexpr size_t kColumnMetaSize = 4 + 4 + 8 + 8 + 4 + 4 + 4;

size_t ColumnFramesOffset(size_t column_start) { return column_start + kColumnMetaSize; }

class OutputStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ds = video::MakePresetScaled(ScenePreset::kUaDetrac, 300);
    ds.status().CheckOk();
    dataset_ = std::make_unique<video::VideoDataset>(std::move(ds).ValueOrDie());
    // Unique per test: ctest -j runs tests of this binary as separate
    // processes, and a shared fixed path races their Save/corrupt/TearDown.
    const testing::TestInfo* info =
        testing::UnitTest::GetInstance()->current_test_info();
    path_ = testing::TempDir() + "/output_store_test_" + info->name() + ".smkc";
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  std::vector<char> ReadBytes() {
    std::ifstream in(path_, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  }

  void WriteBytes(const std::vector<char>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  detect::SimYoloV4 yolo_;
  std::unique_ptr<video::VideoDataset> dataset_;
  std::string path_;
};

OutputStore MakeSampleStore() {
  OutputStore store(/*dataset_id=*/0xD5, /*model_id=*/0x7E, /*num_frames=*/300);
  OutputColumnRecord lowres;
  lowres.resolution = 320;
  lowres.cls = static_cast<int>(ObjectClass::kCar);
  lowres.contrast_q = 4096;  // contrast 1.0
  lowres.frames = {0, 3, 17, 299};
  lowres.counts = {2, 0, 5, 11};
  store.AddColumn(std::move(lowres));
  OutputColumnRecord dim;
  dim.resolution = 608;
  dim.cls = static_cast<int>(ObjectClass::kCar);
  dim.contrast_q = 2048;  // contrast 0.5
  dim.frames = {8, 9};
  dim.counts = {1, 4};
  store.AddColumn(std::move(dim));
  return store;
}

// Byte offsets of the two sample-store columns.
constexpr size_t kSampleCol1 = kHeaderSize;                              // 4 entries
constexpr size_t kSampleCol2 = kSampleCol1 + kColumnMetaSize + 4 * 12;   // 2 entries

// MakeSampleStore()'s v2 image, captured from the writer whose CRC32 ran
// one byte per table lookup. Every CRC field in it is frozen too.
const std::vector<unsigned char> kSampleV2Image = {
    // Header: magic, version 2, dataset_id, model_id, num_frames 300,
    // 2 columns, header_crc.
    0x53, 0x4d, 0x4b, 0x43, 0x02, 0x00, 0x00, 0x00, 0xd5, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x7e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x2c, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0xfe, 0xf8, 0x32, 0x08,
    // Column 1: resolution 320, car, contrast_q 4096, 4 entries, frames_crc,
    // counts_crc, meta_crc; frames {0, 3, 17, 299}; counts {2, 0, 5, 11}.
    0x40, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x3e, 0x26, 0x30, 0x0b, 0x53, 0xe7, 0xfa, 0xf4,
    0x1d, 0xee, 0xdd, 0xd9, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x11, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x2b, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x0b, 0x00, 0x00, 0x00,
    // Column 2: resolution 608, car, contrast_q 2048, 2 entries, frames_crc,
    // counts_crc, meta_crc; frames {8, 9}; counts {1, 4}.
    0x60, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x31, 0xcf, 0xe7, 0x80, 0xa0, 0x48, 0xea, 0x26,
    0xf3, 0xf8, 0xe0, 0x40, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00,
};

TEST_F(OutputStoreTest, SerializeMatchesFrozenV2Image) {
  ASSERT_EQ(kSampleV2Image.size(), kSampleCol2 + kColumnMetaSize + 2 * 12);
  auto image = MakeSampleStore().Serialize();
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(*image, kSampleV2Image);

  // The frozen bytes load back to the sample columns.
  WriteBytes(std::vector<char>(kSampleV2Image.begin(), kSampleV2Image.end()));
  auto loaded = OutputStore::Load(path_);
  ASSERT_TRUE(loaded.ok());
  const OutputStore want = MakeSampleStore();
  EXPECT_EQ(loaded->dataset_id(), want.dataset_id());
  EXPECT_EQ(loaded->model_id(), want.model_id());
  EXPECT_EQ(loaded->num_frames(), want.num_frames());
  ASSERT_EQ(loaded->columns().size(), want.columns().size());
  for (size_t i = 0; i < want.columns().size(); ++i) {
    EXPECT_EQ(loaded->columns()[i].resolution, want.columns()[i].resolution);
    EXPECT_EQ(loaded->columns()[i].cls, want.columns()[i].cls);
    EXPECT_EQ(loaded->columns()[i].contrast_q, want.columns()[i].contrast_q);
    EXPECT_EQ(loaded->columns()[i].frames, want.columns()[i].frames);
    EXPECT_EQ(loaded->columns()[i].counts, want.columns()[i].counts);
  }
}

TEST_F(OutputStoreTest, SaveLoadRoundTripPreservesEverything) {
  OutputStore store = MakeSampleStore();
  ASSERT_TRUE(store.Save(path_).ok());

  auto loaded = OutputStore::Load(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dataset_id(), store.dataset_id());
  EXPECT_EQ(loaded->model_id(), store.model_id());
  EXPECT_EQ(loaded->num_frames(), store.num_frames());
  EXPECT_EQ(loaded->TotalEntries(), store.TotalEntries());
  ASSERT_EQ(loaded->columns().size(), store.columns().size());
  for (size_t i = 0; i < store.columns().size(); ++i) {
    const OutputColumnRecord& want = store.columns()[i];
    const OutputColumnRecord& got = loaded->columns()[i];
    EXPECT_EQ(got.resolution, want.resolution);
    EXPECT_EQ(got.cls, want.cls);
    EXPECT_EQ(got.contrast_q, want.contrast_q);
    EXPECT_EQ(got.frames, want.frames);
    EXPECT_EQ(got.counts, want.counts);
  }
}

TEST_F(OutputStoreTest, EmptyStoreRoundTrips) {
  OutputStore store(1, 2, 300);
  ASSERT_TRUE(store.Save(path_).ok());
  auto loaded = OutputStore::Load(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->TotalEntries(), 0);
  EXPECT_TRUE(loaded->columns().empty());
}

TEST_F(OutputStoreTest, SaveLeavesNoTmpFile) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  EXPECT_TRUE(util::Env::Default().FileExists(path_));
  EXPECT_FALSE(util::Env::Default().FileExists(path_ + ".tmp"));
}

TEST_F(OutputStoreTest, MissingFileIsAnError) {
  auto loaded = OutputStore::Load(path_ + ".does-not-exist");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIoError);
}

TEST_F(OutputStoreTest, BadMagicIsRejectedAsInvalidArgument) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes[0] ^= 0x5A;  // Clobber the magic.
  WriteBytes(bytes);
  auto loaded = OutputStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(OutputStoreTest, TruncatedHeaderIsDataLoss) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes.resize(10);  // Mid-header.
  WriteBytes(bytes);
  auto loaded = OutputStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
  // Nothing below a bad header can be attributed: Salvage refuses too.
  EXPECT_EQ(OutputStore::Salvage(path_).status().code(), util::StatusCode::kDataLoss);
}

TEST_F(OutputStoreTest, TruncatedPayloadIsDataLossOnStrictLoad) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes.resize(bytes.size() - 3);  // Chop the tail of the last counts array.
  WriteBytes(bytes);
  auto loaded = OutputStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
}

TEST_F(OutputStoreTest, FlippedPayloadByteFailsCrcOnStrictLoad) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes[bytes.size() - 1] ^= 0x01;  // Corrupt the last count in place.
  WriteBytes(bytes);
  auto loaded = OutputStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
}

// --- Crash atomicity under injected faults ---------------------------------

TEST_F(OutputStoreTest, TornWriteCrashLeavesPreviousStoreIntact) {
  OutputStore original = MakeSampleStore();
  ASSERT_TRUE(original.Save(path_).ok());

  // Every write tears: the new save must fail WITHOUT touching `path_`.
  FaultEnvProfile profile;
  profile.write_fail_prob = 1.0;
  profile.seed = 7;
  auto env = FaultEnv::Create(profile);
  ASSERT_TRUE(env.ok());

  OutputStore replacement(original.dataset_id(), original.model_id(), original.num_frames());
  EXPECT_FALSE(replacement.Save(*env, path_).ok());
  EXPECT_GT(env->torn_writes(), 0);
  EXPECT_FALSE(util::Env::Default().FileExists(path_ + ".tmp"));  // Cleaned up.

  auto loaded = OutputStore::Load(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->TotalEntries(), original.TotalEntries());
}

TEST_F(OutputStoreTest, FailedRenameLeavesPreviousStoreIntact) {
  OutputStore original = MakeSampleStore();
  ASSERT_TRUE(original.Save(path_).ok());

  FaultEnvProfile profile;
  profile.rename_fail_prob = 1.0;
  profile.seed = 7;
  auto env = FaultEnv::Create(profile);
  ASSERT_TRUE(env.ok());

  OutputStore replacement(original.dataset_id(), original.model_id(), original.num_frames());
  EXPECT_FALSE(replacement.Save(*env, path_).ok());
  EXPECT_EQ(env->rename_failures(), 1);

  auto loaded = OutputStore::Load(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->TotalEntries(), original.TotalEntries());
}

TEST_F(OutputStoreTest, SilentWriteCorruptionIsCaughtByReadback) {
  OutputStore original = MakeSampleStore();
  ASSERT_TRUE(original.Save(path_).ok());

  // The write flips one bit but REPORTS SUCCESS — only the readback
  // verification inside Save can catch it before the rename commits.
  FaultEnvProfile profile;
  profile.write_flip_prob = 1.0;
  profile.seed = 7;
  auto env = FaultEnv::Create(profile);
  ASSERT_TRUE(env.ok());

  OutputStore replacement(original.dataset_id(), original.model_id(), original.num_frames());
  auto status = replacement.Save(*env, path_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kDataLoss);
  EXPECT_GT(env->bits_flipped(), 0);

  auto loaded = OutputStore::Load(path_);  // Old store still clean.
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->TotalEntries(), original.TotalEntries());
}

// --- Per-column salvage ----------------------------------------------------

TEST_F(OutputStoreTest, SalvageKeepsVerifiedColumnsAndQuarantinesCorruptCounts) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes[bytes.size() - 1] ^= 0x01;  // Last count of column 2.
  WriteBytes(bytes);

  auto salvaged = OutputStore::Salvage(path_);
  ASSERT_TRUE(salvaged.ok());
  const LoadReport& report = salvaged->report;
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.columns_total, 2);
  EXPECT_EQ(report.columns_loaded, 1);
  EXPECT_EQ(report.entries_loaded, 4);
  EXPECT_EQ(report.entries_quarantined, 2);
  ASSERT_EQ(report.quarantined.size(), 1u);
  const QuarantinedColumn& q = report.quarantined[0];
  EXPECT_EQ(q.verdict, ColumnVerdict::kCountsCorrupt);
  EXPECT_EQ(q.resolution, 608);
  EXPECT_EQ(q.contrast_q, 2048);

  // The intact column loaded with its exact data.
  ASSERT_EQ(salvaged->store.columns().size(), 1u);
  EXPECT_EQ(salvaged->store.columns()[0].resolution, 320);
  EXPECT_EQ(salvaged->store.columns()[0].counts, (std::vector<int>{2, 0, 5, 11}));
}

TEST_F(OutputStoreTest, SalvageQuarantinesCorruptFrameList) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes[ColumnFramesOffset(kSampleCol2)] ^= 0x01;  // First frame byte of column 2.
  WriteBytes(bytes);

  auto salvaged = OutputStore::Salvage(path_);
  ASSERT_TRUE(salvaged.ok());
  ASSERT_EQ(salvaged->report.quarantined.size(), 1u);
  const QuarantinedColumn& q = salvaged->report.quarantined[0];
  EXPECT_EQ(q.verdict, ColumnVerdict::kFramesCorrupt);
  EXPECT_EQ(salvaged->report.columns_loaded, 1);
}

TEST_F(OutputStoreTest, SalvageStopsAtCorruptMetadata) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes[kSampleCol1 + 8] ^= 0x01;  // contrast_q of column 1: meta CRC breaks.
  WriteBytes(bytes);

  auto salvaged = OutputStore::Salvage(path_);
  ASSERT_TRUE(salvaged.ok());
  // Untrusted lengths desync the walk: both columns quarantined, none loaded.
  EXPECT_EQ(salvaged->report.columns_loaded, 0);
  ASSERT_EQ(salvaged->report.quarantined.size(), 2u);
  EXPECT_EQ(salvaged->report.quarantined[0].verdict, ColumnVerdict::kMetaCorrupt);
  EXPECT_EQ(salvaged->report.quarantined[1].verdict, ColumnVerdict::kTruncated);
}

// A 40-byte header whose CRC verifies, declaring `version` and
// `num_columns`, followed by `trailing` zero bytes.
std::vector<char> ForgedHeaderFile(uint32_t version, uint32_t num_columns, size_t trailing) {
  std::vector<char> bytes;
  auto put = [&bytes](const void* data, size_t n) {
    const char* p = static_cast<const char*>(data);
    bytes.insert(bytes.end(), p, p + n);
  };
  auto put32 = [&put](uint32_t v) { put(&v, 4); };
  auto put64 = [&put](uint64_t v) { put(&v, 8); };
  put32(0x434b4d53);  // magic "SMKC"
  put32(version);
  put64(0xD5);  // dataset_id
  put64(0x7E);  // model_id
  put64(300);   // num_frames
  put32(num_columns);
  put32(util::Crc32(bytes.data(), bytes.size()));  // header_crc
  bytes.resize(bytes.size() + trailing, '\0');
  return bytes;
}

TEST_F(OutputStoreTest, HeaderDeclaringMoreColumnsThanTheFileHoldsIsDataLoss) {
  // 2^32-1 columns in a 40-byte file used to abort the process in the
  // columns reserve; 10^8 columns did so under an address-space limit.
  for (uint32_t num_columns : {0xFFFFFFFFu, 100000000u}) {
    WriteBytes(ForgedHeaderFile(/*version=*/2, num_columns, /*trailing=*/0));
    auto salvaged = OutputStore::Salvage(path_);
    ASSERT_FALSE(salvaged.ok()) << num_columns;
    EXPECT_EQ(salvaged.status().code(), util::StatusCode::kDataLoss) << num_columns;
    EXPECT_EQ(OutputStore::Load(path_).status().code(), util::StatusCode::kDataLoss);
  }
  // One byte short of the minimum: 36 bytes per column.
  WriteBytes(ForgedHeaderFile(/*version=*/2, 3, /*trailing=*/3 * kColumnMetaSize - 1));
  EXPECT_EQ(OutputStore::Salvage(path_).status().code(), util::StatusCode::kDataLoss);
}

TEST_F(OutputStoreTest, EveryVersionButTwoIsInvalidArgument) {
  // Version 1 is refused like any unknown version. Its three empty columns
  // fill the file exactly at 28 bytes each, the minimum its layout had.
  for (uint32_t version : {1u, 3u}) {
    WriteBytes(ForgedHeaderFile(version, 3, /*trailing=*/3 * 28));
    auto salvaged = OutputStore::Salvage(path_);
    ASSERT_FALSE(salvaged.ok()) << version;
    EXPECT_EQ(salvaged.status().code(), util::StatusCode::kInvalidArgument) << version;
    EXPECT_EQ(salvaged.status().message(),
              "unsupported output store version " + std::to_string(version));
    EXPECT_EQ(OutputStore::Load(path_).status().code(), util::StatusCode::kInvalidArgument)
        << version;
  }
}

TEST_F(OutputStoreTest, StoreOfEmptyColumnsSalvagesClean) {
  // N empty columns fill the file exactly at the 36-byte minimum per column.
  constexpr int kColumns = 5;
  OutputStore store(/*dataset_id=*/0xD5, /*model_id=*/0x7E, /*num_frames=*/300);
  for (int i = 0; i < kColumns; ++i) {
    OutputColumnRecord column;
    column.resolution = 320 + 32 * i;
    column.cls = static_cast<int>(ObjectClass::kCar);
    column.contrast_q = 4096;
    store.AddColumn(std::move(column));
  }
  ASSERT_TRUE(store.Save(path_).ok());
  ASSERT_EQ(ReadBytes().size(), kHeaderSize + kColumns * kColumnMetaSize);

  auto salvaged = OutputStore::Salvage(path_);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_TRUE(salvaged->report.clean());
  EXPECT_EQ(salvaged->report.columns_loaded, kColumns);
  ASSERT_EQ(salvaged->store.columns().size(), static_cast<size_t>(kColumns));
  EXPECT_EQ(salvaged->store.columns()[kColumns - 1].resolution, 320 + 32 * (kColumns - 1));
  EXPECT_EQ(salvaged->store.TotalEntries(), 0);
}

TEST_F(OutputStoreTest, SalvageOfCleanFileIsClean) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  auto salvaged = OutputStore::Salvage(path_);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_TRUE(salvaged->report.clean());
  EXPECT_EQ(salvaged->report.columns_loaded, 2);
  EXPECT_EQ(salvaged->store.columns().size(), 2u);
}

TEST_F(OutputStoreTest, SalvageTalliesBindToTheInjectedRegistry) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes[bytes.size() - 1] ^= 0x01;  // Last count of column 2.
  WriteBytes(bytes);

  // The verdict tallies must land in the registry passed to THIS call — they
  // used to bind to the default registry once via function-local statics,
  // which made per-test isolation impossible.
  const int64_t default_calls_before =
      util::MetricsRegistry::Default().GetCounter("output_store.salvage.calls")->Value();
  util::MetricsRegistry registry;
  auto salvaged = OutputStore::Salvage(util::Env::Default(), path_, &registry);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_EQ(registry.GetCounter("output_store.salvage.calls")->Value(), 1);
  EXPECT_EQ(registry.GetCounter("output_store.salvage.columns_loaded")->Value(), 1);
  EXPECT_EQ(registry.GetCounter("output_store.salvage.columns_quarantined")->Value(), 1);
  EXPECT_EQ(registry.GetCounter("output_store.salvage.entries_loaded")->Value(), 4);
  EXPECT_EQ(registry.GetCounter("output_store.salvage.entries_quarantined")->Value(), 2);
  EXPECT_EQ(
      util::MetricsRegistry::Default().GetCounter("output_store.salvage.calls")->Value(),
      default_calls_before);

  // A second salvage through a second private registry starts from zero —
  // no cross-registry state survives.
  util::MetricsRegistry second;
  ASSERT_TRUE(OutputStore::Salvage(util::Env::Default(), path_, &second).ok());
  EXPECT_EQ(second.GetCounter("output_store.salvage.calls")->Value(), 1);
}

TEST_F(OutputStoreTest, CorruptCountsInTheFirstColumnStillLoadTheSecond) {
  // A quarantined column is stepped over by its verified lengths, so the
  // column behind it loads with its exact data.
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes[ColumnFramesOffset(kSampleCol1) + 4 * 8] ^= 0x01;  // First count of column 1.
  WriteBytes(bytes);

  auto salvaged = OutputStore::Salvage(path_);
  ASSERT_TRUE(salvaged.ok());
  const LoadReport& report = salvaged->report;
  EXPECT_EQ(report.columns_loaded, 1);
  EXPECT_EQ(report.entries_loaded, 2);
  EXPECT_EQ(report.entries_quarantined, 4);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].verdict, ColumnVerdict::kCountsCorrupt);
  EXPECT_EQ(report.quarantined[0].resolution, 320);
  EXPECT_EQ(report.quarantined[0].contrast_q, 4096);
  EXPECT_EQ(report.quarantined[0].num_entries, 4);
  ASSERT_EQ(salvaged->store.columns().size(), 1u);
  const OutputColumnRecord& loaded = salvaged->store.columns()[0];
  EXPECT_EQ(loaded.resolution, 608);
  EXPECT_EQ(loaded.contrast_q, 2048);
  EXPECT_EQ(loaded.frames, (std::vector<int64_t>{8, 9}));
  EXPECT_EQ(loaded.counts, (std::vector<int>{1, 4}));
}

TEST_F(OutputStoreTest, CorruptFramesInTheFirstColumnStillLoadTheSecond) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes[ColumnFramesOffset(kSampleCol1) + 8] ^= 0x01;  // Second frame of column 1.
  WriteBytes(bytes);

  auto salvaged = OutputStore::Salvage(path_);
  ASSERT_TRUE(salvaged.ok());
  ASSERT_EQ(salvaged->report.quarantined.size(), 1u);
  EXPECT_EQ(salvaged->report.quarantined[0].verdict, ColumnVerdict::kFramesCorrupt);
  EXPECT_EQ(salvaged->report.quarantined[0].resolution, 320);
  EXPECT_EQ(salvaged->report.entries_quarantined, 4);
  ASSERT_EQ(salvaged->store.columns().size(), 1u);
  EXPECT_EQ(salvaged->store.columns()[0].frames, (std::vector<int64_t>{8, 9}));
  EXPECT_EQ(salvaged->store.columns()[0].counts, (std::vector<int>{1, 4}));
}

TEST_F(OutputStoreTest, FileEndingInsideCountsQuarantinesThatColumnAndTheTail) {
  // The frame list verifies and the counts are cut off: the column is
  // counts-corrupt, and the column declared behind it is unreachable.
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes.resize(ColumnFramesOffset(kSampleCol1) + 4 * 8 + 6);
  WriteBytes(bytes);

  auto salvaged = OutputStore::Salvage(path_);
  ASSERT_TRUE(salvaged.ok());
  const LoadReport& report = salvaged->report;
  EXPECT_EQ(report.columns_total, 2);
  EXPECT_EQ(report.columns_loaded, 0);
  EXPECT_EQ(report.entries_quarantined, 4);
  ASSERT_EQ(report.quarantined.size(), 2u);
  EXPECT_EQ(report.quarantined[0].verdict, ColumnVerdict::kCountsCorrupt);
  EXPECT_EQ(report.quarantined[0].resolution, 320);
  EXPECT_EQ(report.quarantined[1].verdict, ColumnVerdict::kTruncated);
  EXPECT_EQ(report.quarantined[1].resolution, 0);  // Never located.
  EXPECT_EQ(report.quarantined[1].num_entries, 0);
  EXPECT_TRUE(salvaged->store.columns().empty());
}

TEST_F(OutputStoreTest, FileEndingInsideFramesQuarantinesThatColumnAsTruncated) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes.resize(ColumnFramesOffset(kSampleCol2) + 8);  // One of two frames.
  WriteBytes(bytes);

  auto salvaged = OutputStore::Salvage(path_);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_EQ(salvaged->report.columns_loaded, 1);
  EXPECT_EQ(salvaged->report.entries_loaded, 4);
  ASSERT_EQ(salvaged->report.quarantined.size(), 1u);
  const QuarantinedColumn& q = salvaged->report.quarantined[0];
  EXPECT_EQ(q.verdict, ColumnVerdict::kTruncated);
  // The metadata verified, so the lost column keeps its identity.
  EXPECT_EQ(q.resolution, 608);
  EXPECT_EQ(q.contrast_q, 2048);
  EXPECT_EQ(q.num_entries, 2);
  EXPECT_EQ(salvaged->report.entries_quarantined, 2);
}

TEST_F(OutputStoreTest, FileEndingBetweenColumnsQuarantinesTheMissingColumn) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes.resize(kSampleCol2);  // Column 1 whole, column 2 gone.
  WriteBytes(bytes);

  auto salvaged = OutputStore::Salvage(path_);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_EQ(salvaged->report.columns_loaded, 1);
  ASSERT_EQ(salvaged->store.columns().size(), 1u);
  EXPECT_EQ(salvaged->store.columns()[0].counts, (std::vector<int>{2, 0, 5, 11}));
  ASSERT_EQ(salvaged->report.quarantined.size(), 1u);
  EXPECT_EQ(salvaged->report.quarantined[0].verdict, ColumnVerdict::kTruncated);
  EXPECT_EQ(salvaged->report.quarantined[0].resolution, 0);
  EXPECT_EQ(salvaged->report.entries_quarantined, 0);
}

TEST_F(OutputStoreTest, ImpossibleEntryCountUnderAVerifiedMetaCrcIsMetaCorrupt) {
  // A meta CRC that verifies does not make every length usable: a negative
  // count, or one whose byte size overflows, is refused before any
  // allocation or offset is computed from it.
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  const std::vector<char> original = ReadBytes();
  for (int64_t num_entries : {int64_t{-1}, std::numeric_limits<int64_t>::max()}) {
    std::vector<char> bytes = original;
    std::memcpy(&bytes[kSampleCol2 + 16], &num_entries, sizeof(num_entries));
    const uint32_t meta_crc = util::Crc32(&bytes[kSampleCol2], kColumnMetaSize - 4);
    std::memcpy(&bytes[kSampleCol2 + kColumnMetaSize - 4], &meta_crc, sizeof(meta_crc));
    WriteBytes(bytes);

    auto salvaged = OutputStore::Salvage(path_);
    ASSERT_TRUE(salvaged.ok()) << num_entries;
    EXPECT_EQ(salvaged->report.columns_loaded, 1) << num_entries;
    ASSERT_EQ(salvaged->report.quarantined.size(), 1u) << num_entries;
    EXPECT_EQ(salvaged->report.quarantined[0].verdict, ColumnVerdict::kMetaCorrupt)
        << num_entries;
    EXPECT_EQ(salvaged->report.entries_quarantined, 0) << num_entries;
  }
}

TEST_F(OutputStoreTest, StrictLoadNamesTheDamageAndPointsToSalvage) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes[bytes.size() - 1] ^= 0x01;  // Last count of column 2.
  WriteBytes(bytes);

  auto loaded = OutputStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("v2: 1/2 columns (4 entries) loaded; "
                                           "quarantined: counts-corrupt"),
            std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("use Salvage"), std::string::npos);
}

TEST_F(OutputStoreTest, SummaryCountsLoadedColumnsAndNamesEachQuarantineInFileOrder) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  auto clean = OutputStore::Salvage(path_);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->report.Summary(), "v2: 2/2 columns (6 entries) loaded");

  std::vector<char> bytes = ReadBytes();
  bytes[ColumnFramesOffset(kSampleCol1)] ^= 0x01;  // Column 1 frames.
  bytes[bytes.size() - 1] ^= 0x01;                 // Column 2 counts.
  WriteBytes(bytes);
  auto both = OutputStore::Salvage(path_);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->report.Summary(),
            "v2: 0/2 columns (0 entries) loaded; quarantined: frames-corrupt counts-corrupt");

  bytes = ReadBytes();
  bytes[kSampleCol1 + 8] ^= 0x01;  // contrast_q of column 1: meta CRC breaks.
  WriteBytes(bytes);
  auto meta = OutputStore::Salvage(path_);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->report.Summary(),
            "v2: 0/2 columns (0 entries) loaded; quarantined: meta-corrupt truncated");
}

// --- Preload (unchanged semantics) -----------------------------------------

TEST_F(OutputStoreTest, ExportPreloadServesWithZeroInvocations) {
  // Compute everything once, export, then a brand-new source preloads the
  // store and must answer the same all-frames query with ZERO model
  // invocations and bit-identical outputs.
  QuerySpec spec;
  FrameOutputSource cold(*dataset_, yolo_, ObjectClass::kCar);
  auto cold_outputs = AllFrameOutputs(cold, spec, 320);
  ASSERT_TRUE(cold_outputs.ok());
  ASSERT_EQ(cold.model_invocations(), dataset_->num_frames());
  ASSERT_TRUE(cold.ExportStore().Save(path_).ok());

  auto store = OutputStore::Load(path_);
  ASSERT_TRUE(store.ok());
  FrameOutputSource warm(*dataset_, yolo_, ObjectClass::kCar);
  auto preloaded = warm.Preload(*store);
  ASSERT_TRUE(preloaded.ok());
  EXPECT_EQ(*preloaded, dataset_->num_frames());
  // Preload must not pollute the counters.
  EXPECT_EQ(warm.model_invocations(), 0);
  EXPECT_EQ(warm.cache_hits(), 0);

  auto warm_outputs = AllFrameOutputs(warm, spec, 320);
  ASSERT_TRUE(warm_outputs.ok());
  EXPECT_EQ(*warm_outputs, *cold_outputs);
  EXPECT_EQ(warm.model_invocations(), 0);
  EXPECT_EQ(warm.cache_hits(), dataset_->num_frames());
}

TEST_F(OutputStoreTest, PreloadRejectsMismatchedProvenance) {
  FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar);

  OutputStore wrong_dataset(dataset_->dataset_id() + 1, yolo_.model_id(),
                            dataset_->num_frames());
  EXPECT_FALSE(source.Preload(wrong_dataset).ok());

  OutputStore wrong_model(dataset_->dataset_id(), yolo_.model_id() + 1,
                          dataset_->num_frames());
  EXPECT_FALSE(source.Preload(wrong_model).ok());

  OutputStore wrong_frames(dataset_->dataset_id(), yolo_.model_id(),
                           dataset_->num_frames() - 1);
  EXPECT_FALSE(source.Preload(wrong_frames).ok());
}

TEST_F(OutputStoreTest, PreloadRejectsOutOfRangeFrames) {
  FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar);
  OutputStore store(dataset_->dataset_id(), yolo_.model_id(), dataset_->num_frames());
  OutputColumnRecord column;
  column.resolution = 320;
  column.cls = static_cast<int>(ObjectClass::kCar);
  column.contrast_q = 4096;
  column.frames = {dataset_->num_frames()};  // One past the end.
  column.counts = {1};
  store.AddColumn(std::move(column));
  EXPECT_FALSE(source.Preload(store).ok());
}

TEST_F(OutputStoreTest, PreloadSkipsOtherClassColumns) {
  FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar);
  OutputStore store(dataset_->dataset_id(), yolo_.model_id(), dataset_->num_frames());
  OutputColumnRecord column;
  column.resolution = 320;
  column.cls = static_cast<int>(ObjectClass::kFace);  // Source serves kCar.
  column.contrast_q = 4096;
  column.frames = {1, 2};
  column.counts = {3, 4};
  store.AddColumn(std::move(column));
  auto preloaded = source.Preload(store);
  ASSERT_TRUE(preloaded.ok());
  EXPECT_EQ(*preloaded, 0);
}

TEST_F(OutputStoreTest, SalvagedPreloadRecomputesOnlyTheQuarantinedColumn) {
  // The heal path below the Runtime: preload what verifies, and the next
  // requests recompute exactly the quarantined entries, at their own
  // contrast, so the re-export equals the undamaged one.
  std::vector<int64_t> all(static_cast<size_t>(dataset_->num_frames()));
  std::iota(all.begin(), all.end(), int64_t{0});
  const std::vector<int64_t> dim = {5, 50, 150, 250};
  FrameOutputSource cold(*dataset_, yolo_, ObjectClass::kCar);
  std::vector<int> cold_all(all.size());
  std::vector<int> cold_dim(dim.size());
  ASSERT_TRUE(cold.FillCounts(all, 320, 1.0, cold_all).ok());
  ASSERT_TRUE(cold.FillCounts(dim, 608, 0.9, cold_dim).ok());
  auto undamaged = cold.ExportStore().Serialize();
  ASSERT_TRUE(undamaged.ok());
  ASSERT_TRUE(cold.ExportStore().Save(path_).ok());

  std::vector<char> bytes = ReadBytes();
  bytes[bytes.size() - 1] ^= 0x01;  // Last count of the last column.
  WriteBytes(bytes);
  auto salvaged = OutputStore::Salvage(path_);
  ASSERT_TRUE(salvaged.ok());
  ASSERT_EQ(salvaged->report.quarantined.size(), 1u);
  ASSERT_EQ(salvaged->report.quarantined[0].resolution, 608);

  FrameOutputSource warm(*dataset_, yolo_, ObjectClass::kCar);
  auto preloaded = warm.Preload(salvaged->store);
  ASSERT_TRUE(preloaded.ok());
  EXPECT_EQ(*preloaded, dataset_->num_frames());
  std::vector<int> warm_all(all.size());
  std::vector<int> warm_dim(dim.size());
  ASSERT_TRUE(warm.FillCounts(all, 320, 1.0, warm_all).ok());
  EXPECT_EQ(warm.model_invocations(), 0);
  ASSERT_TRUE(warm.FillCounts(dim, 608, 0.9, warm_dim).ok());
  EXPECT_EQ(warm.model_invocations(), static_cast<int64_t>(dim.size()));
  EXPECT_EQ(warm_all, cold_all);
  EXPECT_EQ(warm_dim, cold_dim);
  auto healed = warm.ExportStore().Serialize();
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, *undamaged);
}

}  // namespace
}  // namespace query
}  // namespace smokescreen
