// Deterministic fault injection for the camera-to-central transport.
//
// The paper's §1 system model motivates on-device degradation with
// constrained camera uplinks (wireless bandwidth, energy budgets). Real
// links of that kind also *fail*: frames drop independently or in bursts,
// latency spikes stall a batch, payloads arrive truncated or corrupted, and
// whole cameras black out. FaultInjector wraps a NetworkLink and perturbs
// each transmission attempt according to a seeded FaultProfile, so that the
// recovery machinery (Camera retries, CentralSystem partial answers) can be
// exercised reproducibly.
//
// Statistical note, load-bearing for everything downstream: the frames a
// camera transmits were chosen by UNIFORM random sampling, and every fault
// modeled here depends only on the transmission sequence (attempt index,
// channel state, coin flips from the injector's own Rng) — never on frame
// content. Survivors of any loss pattern are therefore still a uniform
// random subset of the eligible population, so Algorithm 1 over the
// survivors remains valid with an honestly wider (smaller-n) bound.

#ifndef SMOKESCREEN_CAMERA_FAULT_INJECTOR_H_
#define SMOKESCREEN_CAMERA_FAULT_INJECTOR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "camera/network_link.h"
#include "stats/rng.h"
#include "util/status.h"

namespace smokescreen {
namespace camera {

/// What the channel did to one transmission attempt.
enum class TransmitOutcome {
  kDelivered = 0,
  kLost,       // Frame vanished in the channel.
  kCorrupted,  // Arrived, payload unusable (checksum failure).
  kTruncated,  // Arrived, but only a prefix of the bytes.
  kBlackout,   // Camera/link fully down for this attempt.
};

const char* TransmitOutcomeName(TransmitOutcome outcome);

struct TransmitResult {
  TransmitOutcome outcome = TransmitOutcome::kDelivered;
  /// Latency charged to this attempt (base + stall, if any).
  double latency_sec = 0.0;
  /// Bytes that arrived usable at the receiver (full size only on delivery;
  /// a prefix on truncation; 0 otherwise). Radio-side accounting on the
  /// NetworkLink always charges the full frame — energy is spent whether or
  /// not the channel cooperates.
  int64_t bytes_delivered = 0;
};

/// Channel misbehavior model. All probabilities are per transmission
/// attempt; the all-defaults profile is a perfect channel.
struct FaultProfile {
  /// Frame-loss probability in the GOOD channel state (i.i.d. loss when the
  /// burst parameters are left at their defaults).
  double loss_prob = 0.0;

  // Gilbert–Elliott two-state burst model. The chain starts GOOD and steps
  // once per attempt; in the BAD state the loss probability is
  // `bad_loss_prob` instead of `loss_prob`. Leaving `bad_loss_prob` at 0
  // disables burstiness regardless of the transition probabilities.
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 1.0;
  double bad_loss_prob = 0.0;

  /// Delivered-but-unusable outcomes, drawn after the loss coin.
  double corrupt_prob = 0.0;
  double truncate_prob = 0.0;

  /// Per-attempt base latency, plus an occasional stall.
  double latency_per_frame_sec = 0.0;
  double stall_prob = 0.0;
  double stall_sec = 0.0;

  /// Full-blackout windows over the injector's global attempt counter:
  /// attempts with index in [start_attempt, end_attempt) unconditionally
  /// fail with kBlackout. Use Blackout::Forever() for a dead camera.
  struct Blackout {
    int64_t start_attempt = 0;
    int64_t end_attempt = 0;
    static Blackout Forever() {
      return Blackout{0, std::numeric_limits<int64_t>::max()};
    }
  };
  std::vector<Blackout> blackouts;

  /// Seed for the injector's private Rng; same profile + same call sequence
  /// reproduces the same fault pattern bit-for-bit.
  uint64_t seed = 1;

  util::Status Validate() const;

  /// A passthrough profile (perfect channel).
  static FaultProfile Clean() { return FaultProfile{}; }
};

class FaultInjector {
 public:
  /// Validates the profile; InvalidArgument on malformed probabilities,
  /// negative latencies, or inverted blackout windows.
  static util::Result<FaultInjector> Create(FaultProfile profile);

  /// Pushes one frame of `bytes` bytes through the faulty channel and into
  /// `link` (full radio-side accounting happens regardless of outcome).
  /// `is_retransmission` forwards to the link's retransmission counters.
  TransmitResult TransmitFrame(NetworkLink& link, int64_t bytes,
                               bool is_retransmission = false);

  const FaultProfile& profile() const { return profile_; }

  int64_t attempts() const { return attempts_; }
  int64_t delivered() const { return delivered_; }
  int64_t lost() const { return lost_; }
  int64_t corrupted() const { return corrupted_; }
  int64_t truncated() const { return truncated_; }
  int64_t blackout_drops() const { return blackout_drops_; }
  double total_latency_sec() const { return total_latency_sec_; }

  /// Fraction of attempts that delivered a usable frame (1.0 before any
  /// attempt, so a fresh injector reads as a healthy channel).
  double DeliveryRate() const;

 private:
  explicit FaultInjector(FaultProfile profile);

  bool InBlackout(int64_t attempt_index) const;

  FaultProfile profile_;
  stats::Rng rng_;
  bool channel_bad_ = false;  // Gilbert–Elliott state.

  int64_t attempts_ = 0;
  int64_t delivered_ = 0;
  int64_t lost_ = 0;
  int64_t corrupted_ = 0;
  int64_t truncated_ = 0;
  int64_t blackout_drops_ = 0;
  double total_latency_sec_ = 0.0;
};

}  // namespace camera
}  // namespace smokescreen

#endif  // SMOKESCREEN_CAMERA_FAULT_INJECTOR_H_
