// Network link accounting for camera-to-central transmission.
//
// The paper's §1 motivates degradation partly with transmission constraints
// (wireless sensor networks' low bandwidth, energy budgets). NetworkLink
// tallies what a camera actually sends so deployments can verify that the
// chosen degradation meets those constraints. Under the fault-injection
// layer the same tallies expose the *overhead of recovery*: retransmitted
// frames/bytes are tracked separately so the energy cost of a retry policy
// is directly observable.

#ifndef SMOKESCREEN_CAMERA_NETWORK_LINK_H_
#define SMOKESCREEN_CAMERA_NETWORK_LINK_H_

#include <cstdint>
#include <memory>

#include "util/metrics.h"
#include "util/status.h"

namespace smokescreen {
namespace camera {

struct NetworkLinkConfig {
  /// Sustained uplink throughput.
  double bandwidth_bytes_per_sec = 1.0e6;
  /// Radio energy per transmitted byte.
  double energy_joules_per_byte = 1.0e-7;
  /// Fixed per-frame overhead (wakeup, headers).
  double energy_joules_per_frame = 1.0e-3;

  /// Rejects negative bandwidth/energy values (a negative bandwidth would
  /// silently zero BusySeconds; negative energies make EnergyJoules garbage).
  util::Status Validate() const;
};

class NetworkLink {
 public:
  /// Validated construction; InvalidArgument on negative config values.
  /// Prefer this over the raw constructor.
  static util::Result<NetworkLink> Create(NetworkLinkConfig config);

  /// Legacy unchecked constructor (kept for call sites that build from
  /// compile-time-known configs); garbage in, garbage accounting out.
  explicit NetworkLink(NetworkLinkConfig config);

  /// Records the transmission of one frame of `bytes` bytes. When
  /// `is_retransmission` is set, the frame additionally counts toward the
  /// retransmission tallies (it is always part of the totals).
  void TransmitFrame(int64_t bytes, bool is_retransmission = false);

  /// This link's tallies. Each also lands in the default registry's
  /// network_link.* counter of the same fact, which sums every link.
  int64_t total_bytes() const { return tallies_->bytes.Value(); }
  int64_t total_frames() const { return tallies_->frames.Value(); }
  int64_t retransmitted_bytes() const { return tallies_->retransmitted_bytes.Value(); }
  int64_t retransmitted_frames() const { return tallies_->retransmitted_frames.Value(); }

  /// Time the link spends busy, at the configured bandwidth.
  double BusySeconds() const;

  /// Total radio energy spent.
  double EnergyJoules() const;

  /// Radio energy spent on retransmissions alone (the recovery overhead a
  /// retry policy buys its delivered-sample fraction with).
  double RetransmitEnergyJoules() const;

 private:
  struct Tallies {
    explicit Tallies(util::MetricsRegistry& registry);
    util::Counter frames;
    util::Counter bytes;
    util::Counter retransmitted_frames;
    util::Counter retransmitted_bytes;
  };

  NetworkLinkConfig config_;
  /// Held through a pointer so the link stays movable (Create returns it by
  /// value inside a Result).
  std::unique_ptr<Tallies> tallies_;
};

}  // namespace camera
}  // namespace smokescreen

#endif  // SMOKESCREEN_CAMERA_NETWORK_LINK_H_
