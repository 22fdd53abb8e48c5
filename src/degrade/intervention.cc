#include "degrade/intervention.h"

#include <algorithm>

#include "detect/class_prior_index.h"
#include "util/string_util.h"

namespace smokescreen {
namespace degrade {

using util::Status;

Status InterventionSet::Validate() const {
  // Written so that NaN fails: every comparison with NaN is false.
  if (!(sample_fraction > 0.0 && sample_fraction <= 1.0)) {
    return Status::InvalidArgument("sample_fraction must be in (0, 1], got " +
                                   util::FormatDouble(sample_fraction));
  }
  if (resolution < 0) return Status::InvalidArgument("resolution must be >= 0");
  if (!(contrast_scale > 0.0 && contrast_scale <= 1.0)) {
    return Status::InvalidArgument("contrast_scale must be in (0, 1]");
  }
  const video::ClassSet recorded = detect::ClassPriorIndex::RecordedClasses();
  if ((restricted.mask() & ~recorded.mask()) != 0) {
    return Status::InvalidArgument("image removal restricts only classes the prior records (" +
                                   recorded.ToString() + "), got " + restricted.ToString());
  }
  return Status::OK();
}

double InterventionSet::DegradationScore(int model_max_resolution) const {
  double score = 1.0 - sample_fraction;
  int p = EffectiveResolution(model_max_resolution);
  score += 1.0 - static_cast<double>(p) / static_cast<double>(model_max_resolution);
  // Removal aggressiveness grows with the number of restricted classes.
  score += static_cast<double>(restricted.size()) / video::kNumObjectClasses;
  score += 1.0 - contrast_scale;
  return score;
}

std::string InterventionSet::ToString() const {
  std::string out = "f=" + util::FormatDouble(sample_fraction, 4);
  out += " p=" + (resolution == 0 ? std::string("full") : std::to_string(resolution));
  out += " c=" + restricted.ToString();
  if (contrast_scale < 1.0) out += " noise=" + util::FormatDouble(1.0 - contrast_scale, 2);
  return out;
}

bool InterventionSet::operator==(const InterventionSet& other) const {
  return sample_fraction == other.sample_fraction && resolution == other.resolution &&
         restricted == other.restricted && contrast_scale == other.contrast_scale;
}

}  // namespace degrade
}  // namespace smokescreen
