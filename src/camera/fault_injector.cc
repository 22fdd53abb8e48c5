#include "camera/fault_injector.h"

#include <algorithm>

namespace smokescreen {
namespace camera {

using util::Result;
using util::Status;

const char* TransmitOutcomeName(TransmitOutcome outcome) {
  switch (outcome) {
    case TransmitOutcome::kDelivered:
      return "delivered";
    case TransmitOutcome::kLost:
      return "lost";
    case TransmitOutcome::kCorrupted:
      return "corrupted";
    case TransmitOutcome::kTruncated:
      return "truncated";
    case TransmitOutcome::kBlackout:
      return "blackout";
  }
  return "unknown";
}

namespace {

Status CheckProbability(double p, const char* name) {
  if (p < 0.0 || p > 1.0) {
    return Status::InvalidArgument(std::string(name) + " must be in [0,1]");
  }
  return Status::OK();
}

}  // namespace

Status FaultProfile::Validate() const {
  SMK_RETURN_IF_ERROR(CheckProbability(loss_prob, "loss_prob"));
  SMK_RETURN_IF_ERROR(CheckProbability(p_good_to_bad, "p_good_to_bad"));
  SMK_RETURN_IF_ERROR(CheckProbability(p_bad_to_good, "p_bad_to_good"));
  SMK_RETURN_IF_ERROR(CheckProbability(bad_loss_prob, "bad_loss_prob"));
  SMK_RETURN_IF_ERROR(CheckProbability(corrupt_prob, "corrupt_prob"));
  SMK_RETURN_IF_ERROR(CheckProbability(truncate_prob, "truncate_prob"));
  SMK_RETURN_IF_ERROR(CheckProbability(stall_prob, "stall_prob"));
  if (latency_per_frame_sec < 0.0 || stall_sec < 0.0) {
    return Status::InvalidArgument("latencies must be non-negative");
  }
  if (bad_loss_prob > 0.0 && p_bad_to_good <= 0.0 && p_good_to_bad > 0.0) {
    return Status::InvalidArgument(
        "bursty loss with p_bad_to_good == 0 is an absorbing blackout; "
        "use a Blackout window instead");
  }
  for (const Blackout& window : blackouts) {
    if (window.start_attempt < 0 || window.end_attempt < window.start_attempt) {
      return Status::InvalidArgument("blackout window must satisfy 0 <= start <= end");
    }
  }
  return Status::OK();
}

FaultInjector::FaultInjector(FaultProfile profile)
    : profile_(std::move(profile)), rng_(profile_.seed) {}

Result<FaultInjector> FaultInjector::Create(FaultProfile profile) {
  SMK_RETURN_IF_ERROR(profile.Validate());
  return FaultInjector(std::move(profile));
}

bool FaultInjector::InBlackout(int64_t attempt_index) const {
  for (const FaultProfile::Blackout& window : profile_.blackouts) {
    if (attempt_index >= window.start_attempt && attempt_index < window.end_attempt) {
      return true;
    }
  }
  return false;
}

TransmitResult FaultInjector::TransmitFrame(NetworkLink& link, int64_t bytes,
                                            bool is_retransmission) {
  TransmitResult result;
  result.latency_sec = profile_.latency_per_frame_sec;
  if (profile_.stall_prob > 0.0 && rng_.NextBernoulli(profile_.stall_prob)) {
    result.latency_sec += profile_.stall_sec;
  }
  // The radio transmits whether or not the channel cooperates: full bytes
  // and per-frame overhead are charged on every attempt.
  link.TransmitFrame(bytes, is_retransmission);

  const int64_t attempt_index = attempts_++;
  total_latency_sec_ += result.latency_sec;

  if (InBlackout(attempt_index)) {
    result.outcome = TransmitOutcome::kBlackout;
    ++blackout_drops_;
    return result;
  }

  // Step the Gilbert–Elliott chain once per attempt, then draw the loss coin
  // at the current state's rate.
  if (profile_.bad_loss_prob > 0.0) {
    if (channel_bad_) {
      if (rng_.NextBernoulli(profile_.p_bad_to_good)) channel_bad_ = false;
    } else {
      if (rng_.NextBernoulli(profile_.p_good_to_bad)) channel_bad_ = true;
    }
  }
  const double loss_p = channel_bad_ ? profile_.bad_loss_prob : profile_.loss_prob;
  if (loss_p > 0.0 && rng_.NextBernoulli(loss_p)) {
    result.outcome = TransmitOutcome::kLost;
    ++lost_;
    return result;
  }
  if (profile_.truncate_prob > 0.0 && rng_.NextBernoulli(profile_.truncate_prob)) {
    result.outcome = TransmitOutcome::kTruncated;
    // A strict prefix arrived; the frame is still unusable for detection.
    result.bytes_delivered = bytes > 1 ? static_cast<int64_t>(rng_.NextBounded(
                                             static_cast<uint64_t>(bytes - 1))) +
                                             1
                                       : 0;
    ++truncated_;
    return result;
  }
  if (profile_.corrupt_prob > 0.0 && rng_.NextBernoulli(profile_.corrupt_prob)) {
    result.outcome = TransmitOutcome::kCorrupted;
    result.bytes_delivered = bytes;
    ++corrupted_;
    return result;
  }
  result.outcome = TransmitOutcome::kDelivered;
  result.bytes_delivered = bytes;
  ++delivered_;
  return result;
}

double FaultInjector::DeliveryRate() const {
  if (attempts_ == 0) return 1.0;
  return static_cast<double>(delivered_) / static_cast<double>(attempts_);
}

}  // namespace camera
}  // namespace smokescreen
