#include "video/scene_simulator.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "stats/rng.h"

namespace smokescreen {
namespace video {

using util::Result;
using util::Status;

Status SceneConfig::Validate() const {
  if (num_frames <= 0) return Status::InvalidArgument("num_frames must be positive");
  if (num_sequences <= 0 || num_sequences > num_frames) {
    return Status::InvalidArgument("num_sequences must be in [1, num_frames]");
  }
  if (full_resolution <= 0) return Status::InvalidArgument("full_resolution must be positive");
  if (fps <= 0.0) return Status::InvalidArgument("fps must be positive");
  if (car_rate < 0.0 || person_rate < 0.0) {
    return Status::InvalidArgument("arrival rates must be non-negative");
  }
  if (car_dwell_mean < 1.0 || person_dwell_mean < 1.0) {
    return Status::InvalidArgument("dwell means must be >= 1 frame");
  }
  if (car_size_mean <= 0.0 || person_size_mean <= 0.0) {
    return Status::InvalidArgument("object sizes must be positive");
  }
  if (face_visible_prob < 0.0 || face_visible_prob > 1.0) {
    return Status::InvalidArgument("face_visible_prob must be in [0,1]");
  }
  if (person_traffic_coupling < 0.0 || person_traffic_coupling > 1.0) {
    return Status::InvalidArgument("person_traffic_coupling must be in [0,1]");
  }
  if (face_size_ratio <= 0.0 || face_size_ratio > 1.0) {
    return Status::InvalidArgument("face_size_ratio must be in (0,1]");
  }
  if (burstiness < 0.0 || burstiness >= 1.0) {
    return Status::InvalidArgument("burstiness must be in [0,1)");
  }
  if (scene_contrast_mean <= 0.0 || scene_contrast_mean > 1.0) {
    return Status::InvalidArgument("scene_contrast_mean must be in (0,1]");
  }
  for (double mult : sequence_density_multipliers) {
    if (mult <= 0.0) {
      return Status::InvalidArgument("sequence density multipliers must be positive");
    }
  }
  return Status::OK();
}

namespace {

/// A live object track during simulation.
struct Track {
  GtObject prototype;          // Class, id, contrast, initial size.
  int64_t death_frame = 0;     // Exclusive.
  int64_t birth_frame = 0;
  double size_slope = 0.0;     // Relative size change per frame (approach/recede).
};

/// Lognormal size with the given mean: exp(N(log mean - sigma^2/2, sigma)).
double SampleSize(stats::Rng& rng, double mean, double sigma) {
  double mu = std::log(mean) - sigma * sigma / 2.0;
  double size = std::exp(mu + sigma * rng.NextGaussian());
  return std::clamp(size, 4.0, 400.0);
}

/// Geometric-like dwell with the given mean, at least 1 frame.
int64_t SampleDwell(stats::Rng& rng, double mean) {
  if (mean <= 1.0) return 1;
  // Exponential with mean (mean - 1), shifted by 1.
  double u = std::max(rng.NextDouble(), 1e-12);
  double dwell = 1.0 - (mean - 1.0) * std::log(u);
  return std::max<int64_t>(1, static_cast<int64_t>(std::llround(dwell)));
}

/// Traffic-rate modulation at frame t (within a sequence).
double RateModulation(const SceneConfig& config, int64_t t, double phase) {
  double mod = 1.0;
  if (config.burstiness > 0.0 && config.modulation_period > 0.0) {
    mod *= 1.0 + config.burstiness *
                     std::sin(2.0 * M_PI * static_cast<double>(t) / config.modulation_period +
                              phase);
  }
  if (config.signal_period > 0.0) {
    // Stop-and-go: density swings between 0.4x and 1.6x across the cycle.
    double cycle_pos = std::fmod(static_cast<double>(t), config.signal_period) /
                       config.signal_period;
    mod *= 1.0 + 0.6 * std::sin(2.0 * M_PI * cycle_pos + phase * 0.7);
  }
  return std::max(mod, 0.0);
}

Track MakeTrack(stats::Rng& rng, ObjectClass cls, int64_t track_id, int64_t birth, double dwell,
                double size_mean, double size_sigma, double scene_contrast) {
  Track track;
  track.prototype.cls = cls;
  track.prototype.track_id = track_id;
  track.prototype.apparent_size = SampleSize(rng, size_mean, size_sigma);
  track.prototype.contrast =
      std::clamp(scene_contrast * (0.85 + 0.3 * rng.NextDouble()), 0.05, 1.0);
  // Position draws (x, y): no field keeps them, but dropping them would
  // shift every later draw and so change every dataset.
  rng.NextDouble();
  rng.NextDouble();
  track.birth_frame = birth;
  track.death_frame = birth + SampleDwell(rng, dwell);
  // Approach/recede: up to +-1.5% size change per frame.
  track.size_slope = (rng.NextDouble() - 0.5) * 0.03;
  // Velocity draws (vx, vy): kept for the same reason.
  rng.NextDouble();
  rng.NextDouble();
  return track;
}

/// Materializes a track's object instance at frame t.
GtObject TrackAt(const Track& track, int64_t t) {
  GtObject obj = track.prototype;
  double age = static_cast<double>(t - track.birth_frame);
  obj.apparent_size =
      std::clamp(obj.apparent_size * (1.0 + track.size_slope * age), 3.0, 450.0);
  return obj;
}

}  // namespace

Result<VideoDataset> SimulateScene(const SceneConfig& config) {
  SMK_RETURN_IF_ERROR(config.Validate());

  stats::Rng rng(stats::HashCombine({config.seed, 0x5ce9e5ceULL}));

  std::vector<Frame> frames;
  frames.reserve(static_cast<size_t>(config.num_frames));
  std::vector<SequenceInfo> sequences;
  int64_t next_track_id = 1;

  // Split frames across sequences as evenly as possible.
  int64_t base = config.num_frames / config.num_sequences;
  int64_t remainder = config.num_frames % config.num_sequences;

  int64_t global_frame = 0;
  for (int seq_idx = 0; seq_idx < config.num_sequences; ++seq_idx) {
    int64_t seq_len = base + (seq_idx < remainder ? 1 : 0);
    SequenceInfo info;
    info.name = config.name + "_seq" + std::to_string(seq_idx);
    info.first_frame = global_frame;
    info.num_frames = seq_len;
    sequences.push_back(info);

    double phase = rng.NextDouble() * 2.0 * M_PI;
    // Per-sequence car density multiplier: explicit, or lognormal with mean 1.
    double density = 1.0;
    if (!config.sequence_density_multipliers.empty()) {
      density = config.sequence_density_multipliers[static_cast<size_t>(seq_idx) %
                                                    config.sequence_density_multipliers.size()];
    } else if (config.sequence_density_jitter > 0.0) {
      double sigma = config.sequence_density_jitter;
      density = std::exp(-sigma * sigma / 2.0 + sigma * rng.NextGaussian());
    }
    double car_rate = config.car_rate * density;
    std::deque<Track> active;

    // Warm-up: pre-populate steady-state occupancy so sequences do not start
    // empty. Tracks born "before" frame 0 with residual lifetimes.
    auto warm_up = [&](ObjectClass cls, double rate, double dwell, double size_mean,
                       double size_sigma) {
      int initial = rng.NextPoisson(rate * dwell);
      for (int i = 0; i < initial; ++i) {
        Track track = MakeTrack(rng, cls, next_track_id++, 0, dwell, size_mean, size_sigma,
                                config.scene_contrast_mean);
        // Residual lifetime of an in-progress track.
        track.death_frame = SampleDwell(rng, dwell);
        active.push_back(track);
        if (cls == ObjectClass::kPerson && rng.NextBernoulli(config.face_visible_prob)) {
          Track face = track;
          face.prototype.cls = ObjectClass::kFace;
          face.prototype.track_id = next_track_id++;
          face.prototype.apparent_size =
              std::max(2.0, track.prototype.apparent_size * config.face_size_ratio);
          if (config.face_dwell_mean > 0.0) {
            face.death_frame = std::min(track.death_frame,
                                        SampleDwell(rng, config.face_dwell_mean));
          }
          active.push_back(face);
        }
      }
    };
    warm_up(ObjectClass::kCar, car_rate, config.car_dwell_mean, config.car_size_mean,
            config.car_size_sigma);
    warm_up(ObjectClass::kPerson, config.person_rate, config.person_dwell_mean,
            config.person_size_mean, config.person_size_sigma);

    for (int64_t t = 0; t < seq_len; ++t) {
      // Expire finished tracks.
      std::erase_if(active, [t](const Track& track) { return track.death_frame <= t; });

      // New arrivals.
      double mod = RateModulation(config, t, phase);
      int car_arrivals = rng.NextPoisson(car_rate * mod);
      for (int i = 0; i < car_arrivals; ++i) {
        active.push_back(MakeTrack(rng, ObjectClass::kCar, next_track_id++, t,
                                   config.car_dwell_mean, config.car_size_mean,
                                   config.car_size_sigma, config.scene_contrast_mean));
      }
      double person_mod = 1.0 + config.person_traffic_coupling * (mod - 1.0);
      int person_arrivals = rng.NextPoisson(config.person_rate * std::max(person_mod, 0.0));
      for (int i = 0; i < person_arrivals; ++i) {
        Track person = MakeTrack(rng, ObjectClass::kPerson, next_track_id++, t,
                                 config.person_dwell_mean, config.person_size_mean,
                                 config.person_size_sigma, config.scene_contrast_mean);
        active.push_back(person);
        if (rng.NextBernoulli(config.face_visible_prob)) {
          Track face = person;
          face.prototype.cls = ObjectClass::kFace;
          face.prototype.track_id = next_track_id++;
          face.prototype.apparent_size =
              std::max(2.0, person.prototype.apparent_size * config.face_size_ratio);
          if (config.face_dwell_mean > 0.0) {
            face.death_frame =
                t + std::min(face.death_frame - t, SampleDwell(rng, config.face_dwell_mean));
          }
          active.push_back(face);
        }
      }

      Frame frame;
      frame.frame_id = global_frame;
      frame.sequence_id = seq_idx;
      frame.timestamp_sec = static_cast<double>(t) / config.fps;
      frame.scene_contrast = std::clamp(
          config.scene_contrast_mean + config.scene_contrast_jitter * rng.NextGaussian(), 0.05,
          1.0);
      frame.objects.reserve(active.size());
      for (const Track& track : active) frame.objects.push_back(TrackAt(track, t));
      frames.push_back(std::move(frame));
      ++global_frame;
    }
  }

  uint64_t dataset_id = stats::HashCombine(
      {config.seed, static_cast<uint64_t>(config.num_frames),
       static_cast<uint64_t>(config.full_resolution), std::hash<std::string>{}(config.name)});
  return VideoDataset(config.name, dataset_id, config.full_resolution, config.fps,
                      std::move(frames), std::move(sequences));
}

}  // namespace video
}  // namespace smokescreen
