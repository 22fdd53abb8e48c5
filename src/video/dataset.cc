#include "video/dataset.h"

#include <cstring>
#include <fstream>

namespace smokescreen {
namespace video {

using util::Result;
using util::Status;

VideoDataset::VideoDataset(std::string name, uint64_t dataset_id, int full_resolution, double fps,
                           std::vector<Frame> frames, std::vector<SequenceInfo> sequences)
    : name_(std::move(name)),
      dataset_id_(dataset_id),
      full_resolution_(full_resolution),
      fps_(fps),
      frames_(std::move(frames)),
      sequences_(std::move(sequences)),
      scene_index_(SceneIndex::Build(frames_)) {}

double VideoDataset::GtContainmentFraction(ObjectClass cls) const {
  if (frames_.empty()) return 0.0;
  int64_t containing = 0;
  for (const Frame& f : frames_) {
    if (f.ContainsGt(cls)) ++containing;
  }
  return static_cast<double>(containing) / static_cast<double>(frames_.size());
}

double VideoDataset::GtMeanCount(ObjectClass cls) const {
  if (frames_.empty()) return 0.0;
  int64_t total = 0;
  for (const Frame& f : frames_) total += f.CountGt(cls);
  return static_cast<double>(total) / static_cast<double>(frames_.size());
}

Result<VideoDataset> VideoDataset::ExtractSequence(const std::string& sequence_name) const {
  for (const SequenceInfo& seq : sequences_) {
    if (seq.name != sequence_name) continue;
    std::vector<Frame> sub(frames_.begin() + seq.first_frame,
                           frames_.begin() + seq.first_frame + seq.num_frames);
    std::vector<SequenceInfo> seqs = {{seq.name, 0, seq.num_frames}};
    return VideoDataset(name_ + "/" + seq.name, dataset_id_, full_resolution_, fps_,
                        std::move(sub), std::move(seqs));
  }
  return Status::NotFound("sequence not found: " + sequence_name);
}

namespace {

constexpr uint32_t kMagic = 0x534d4b56;  // "SMKV"
// Version 2 dropped the two per-object position doubles of version 1.
constexpr uint32_t kVersion = 2;

// Smallest encodings of one record, which bound how many records the bytes
// left in a file can hold: a sequence is a name length plus two int64s, a
// frame its four scalars plus an object count, an object its class byte plus
// track id, size and contrast.
constexpr uint64_t kMinSequenceBytes = 8 + 8 + 8;
constexpr uint64_t kMinFrameBytes = 8 + 4 + 8 + 8 + 4;
constexpr uint64_t kObjectBytes = 1 + 8 + 8 + 8;

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void WriteString(std::ofstream& out, const std::string& s) {
  WritePod(out, static_cast<uint64_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

// Reads a dataset file front to back, counting the bytes left so that no
// length or count read from the file can size a buffer the file cannot fill.
class FileReader {
 public:
  explicit FileReader(const std::string& path) : in_(path, std::ios::binary | std::ios::ate) {
    if (!in_) return;
    const std::streamoff size = in_.tellg();
    in_.seekg(0);
    remaining_ = size > 0 ? static_cast<uint64_t>(size) : 0;
  }

  bool is_open() const { return static_cast<bool>(in_); }
  uint64_t remaining() const { return remaining_; }

  template <typename T>
  bool Read(T* value) {
    if (remaining_ < sizeof(*value)) return false;
    in_.read(reinterpret_cast<char*>(value), sizeof(*value));
    remaining_ -= sizeof(*value);
    return static_cast<bool>(in_);
  }

  bool ReadString(std::string* s) {
    uint64_t size = 0;
    if (!Read(&size) || size > remaining_) return false;
    s->resize(size);
    in_.read(s->data(), static_cast<std::streamsize>(size));
    remaining_ -= size;
    return static_cast<bool>(in_);
  }

 private:
  std::ifstream in_;
  uint64_t remaining_ = 0;
};

// Rejects a count of records that the bytes left in the file cannot hold.
Status CheckCount(const FileReader& reader, uint64_t count, uint64_t min_record_bytes,
                  const char* what, const std::string& path) {
  if (count <= reader.remaining() / min_record_bytes) return Status::OK();
  return Status::IoError("corrupt dataset file " + path + ": claims " + std::to_string(count) +
                         " " + what + " but only " + std::to_string(reader.remaining()) +
                         " bytes remain");
}

}  // namespace

Status VideoDataset::SaveTo(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  WritePod(out, kMagic);
  WritePod(out, kVersion);
  WriteString(out, name_);
  WritePod(out, dataset_id_);
  WritePod(out, static_cast<int32_t>(full_resolution_));
  WritePod(out, fps_);
  WritePod(out, static_cast<uint64_t>(sequences_.size()));
  for (const SequenceInfo& seq : sequences_) {
    WriteString(out, seq.name);
    WritePod(out, seq.first_frame);
    WritePod(out, seq.num_frames);
  }
  WritePod(out, static_cast<uint64_t>(frames_.size()));
  for (const Frame& f : frames_) {
    WritePod(out, f.frame_id);
    WritePod(out, f.sequence_id);
    WritePod(out, f.timestamp_sec);
    WritePod(out, f.scene_contrast);
    WritePod(out, static_cast<uint32_t>(f.objects.size()));
    for (const GtObject& obj : f.objects) {
      WritePod(out, static_cast<uint8_t>(obj.cls));
      WritePod(out, obj.track_id);
      WritePod(out, obj.apparent_size);
      WritePod(out, obj.contrast);
    }
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<VideoDataset> VideoDataset::LoadFrom(const std::string& path) {
  FileReader in(path);
  if (!in.is_open()) return Status::IoError("cannot open for read: " + path);
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!in.Read(&magic) || magic != kMagic) return Status::IoError("bad magic in " + path);
  if (!in.Read(&version)) return Status::IoError("truncated header in " + path);
  if (version != kVersion) {
    return Status::IoError("unsupported dataset file version " + std::to_string(version) +
                           " in " + path + " (this build reads version " +
                           std::to_string(kVersion) + ")");
  }
  std::string name;
  uint64_t dataset_id = 0;
  int32_t resolution = 0;
  double fps = 0.0;
  if (!in.ReadString(&name) || !in.Read(&dataset_id) || !in.Read(&resolution) ||
      !in.Read(&fps)) {
    return Status::IoError("truncated header in " + path);
  }
  uint64_t num_seqs = 0;
  if (!in.Read(&num_seqs)) return Status::IoError("truncated sequences in " + path);
  SMK_RETURN_IF_ERROR(CheckCount(in, num_seqs, kMinSequenceBytes, "sequences", path));
  std::vector<SequenceInfo> sequences(num_seqs);
  for (SequenceInfo& seq : sequences) {
    if (!in.ReadString(&seq.name) || !in.Read(&seq.first_frame) || !in.Read(&seq.num_frames)) {
      return Status::IoError("truncated sequence info in " + path);
    }
  }
  uint64_t num_frames = 0;
  if (!in.Read(&num_frames)) return Status::IoError("truncated frame count in " + path);
  SMK_RETURN_IF_ERROR(CheckCount(in, num_frames, kMinFrameBytes, "frames", path));
  // ExtractSequence slices frames by these ranges, so each must lie inside
  // the frame count.
  const int64_t total_frames = static_cast<int64_t>(num_frames);
  for (const SequenceInfo& seq : sequences) {
    if (seq.first_frame < 0 || seq.num_frames < 0 || seq.first_frame > total_frames ||
        seq.num_frames > total_frames - seq.first_frame) {
      return Status::IoError("corrupt dataset file " + path + ": sequence " + seq.name +
                             " claims first frame " + std::to_string(seq.first_frame) + " and " +
                             std::to_string(seq.num_frames) + " frames of " +
                             std::to_string(total_frames));
    }
  }
  std::vector<Frame> frames(num_frames);
  for (Frame& f : frames) {
    uint32_t num_objects = 0;
    if (!in.Read(&f.frame_id) || !in.Read(&f.sequence_id) || !in.Read(&f.timestamp_sec) ||
        !in.Read(&f.scene_contrast) || !in.Read(&num_objects)) {
      return Status::IoError("truncated frame in " + path);
    }
    SMK_RETURN_IF_ERROR(CheckCount(in, num_objects, kObjectBytes, "objects", path));
    f.objects.resize(num_objects);
    for (GtObject& obj : f.objects) {
      uint8_t cls = 0;
      if (!in.Read(&cls) || !in.Read(&obj.track_id) || !in.Read(&obj.apparent_size) ||
          !in.Read(&obj.contrast)) {
        return Status::IoError("truncated object in " + path);
      }
      if (cls >= kNumObjectClasses) return Status::IoError("bad object class in " + path);
      obj.cls = static_cast<ObjectClass>(cls);
    }
  }
  return VideoDataset(std::move(name), dataset_id, resolution, fps, std::move(frames),
                      std::move(sequences));
}

}  // namespace video
}  // namespace smokescreen
