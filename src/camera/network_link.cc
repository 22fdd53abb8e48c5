#include "camera/network_link.h"

namespace smokescreen {
namespace camera {

using util::Result;
using util::Status;

Status NetworkLinkConfig::Validate() const {
  if (bandwidth_bytes_per_sec < 0.0) {
    return Status::InvalidArgument("bandwidth_bytes_per_sec must be non-negative");
  }
  if (energy_joules_per_byte < 0.0) {
    return Status::InvalidArgument("energy_joules_per_byte must be non-negative");
  }
  if (energy_joules_per_frame < 0.0) {
    return Status::InvalidArgument("energy_joules_per_frame must be non-negative");
  }
  return Status::OK();
}

Result<NetworkLink> NetworkLink::Create(NetworkLinkConfig config) {
  SMK_RETURN_IF_ERROR(config.Validate());
  return NetworkLink(config);
}

NetworkLink::Tallies::Tallies(util::MetricsRegistry& registry)
    : frames(registry.GetCounter("network_link.frames")),
      bytes(registry.GetCounter("network_link.bytes")),
      retransmitted_frames(registry.GetCounter("network_link.retransmitted_frames")),
      retransmitted_bytes(registry.GetCounter("network_link.retransmitted_bytes")) {}

NetworkLink::NetworkLink(NetworkLinkConfig config)
    : config_(config),
      tallies_(std::make_unique<Tallies>(util::MetricsRegistry::Default())) {}

void NetworkLink::TransmitFrame(int64_t bytes, bool is_retransmission) {
  tallies_->frames.Increment();
  tallies_->bytes.Add(bytes);
  if (is_retransmission) {
    tallies_->retransmitted_frames.Increment();
    tallies_->retransmitted_bytes.Add(bytes);
  }
}

double NetworkLink::BusySeconds() const {
  if (config_.bandwidth_bytes_per_sec <= 0.0) return 0.0;
  return static_cast<double>(total_bytes()) / config_.bandwidth_bytes_per_sec;
}

double NetworkLink::EnergyJoules() const {
  return static_cast<double>(total_bytes()) * config_.energy_joules_per_byte +
         static_cast<double>(total_frames()) * config_.energy_joules_per_frame;
}

double NetworkLink::RetransmitEnergyJoules() const {
  return static_cast<double>(retransmitted_bytes()) * config_.energy_joules_per_byte +
         static_cast<double>(retransmitted_frames()) * config_.energy_joules_per_frame;
}

}  // namespace camera
}  // namespace smokescreen
