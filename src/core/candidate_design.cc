#include "core/candidate_design.h"

#include <algorithm>
#include <cmath>

#include "detect/class_prior_index.h"

namespace smokescreen {
namespace core {

using util::Result;
using util::Status;
using video::ClassSet;
using video::ObjectClass;

std::vector<double> FractionCandidates(const CandidateGridOptions& options) {
  std::vector<double> fractions;
  double cap = options.max_allowed_fraction > 0.0
                   ? std::min(options.max_fraction, options.max_allowed_fraction)
                   : options.max_fraction;
  for (double f = options.min_fraction; f <= cap + 1e-9; f += options.fraction_step) {
    fractions.push_back(std::min(f, 1.0));
  }
  return fractions;
}

Result<std::vector<int>> ResolutionCandidates(const detect::Detector& detector, int num) {
  if (num <= 0) return Status::InvalidArgument("num resolutions must be positive");
  int max_res = detector.max_resolution();
  int stride = detector.resolution_stride();
  std::vector<int> out;
  for (int i = 1; i <= num; ++i) {
    double target = static_cast<double>(max_res) * static_cast<double>(i) /
                    static_cast<double>(num);
    int rounded = static_cast<int>(std::llround(target / stride)) * stride;
    rounded = std::clamp(rounded, stride, max_res);
    if (out.empty() || out.back() != rounded) out.push_back(rounded);
  }
  if (out.back() != max_res) out.push_back(max_res);
  return out;
}

std::vector<ClassSet> RestrictedClassCandidates() {
  // Subset bit i selects the prior's i-th recorded class, so the subsets come
  // out as none, person, face, person+face.
  const auto& recorded = detect::ClassPriorIndex::kRecordedClasses;
  std::vector<ClassSet> out;
  for (uint32_t subset = 0; subset < (1u << recorded.size()); ++subset) {
    ClassSet set;
    for (size_t i = 0; i < recorded.size(); ++i) {
      if (subset & (1u << i)) set.Add(recorded[i]);
    }
    out.push_back(set);
  }
  return out;
}

Result<std::vector<degrade::InterventionSet>> BuildCandidateGrid(
    const detect::Detector& detector, const CandidateGridOptions& options) {
  std::vector<double> fractions = FractionCandidates(options);
  if (fractions.empty()) return Status::InvalidArgument("no sample-fraction candidates");
  SMK_ASSIGN_OR_RETURN(std::vector<int> resolutions,
                       ResolutionCandidates(detector, options.num_resolutions));
  std::vector<ClassSet> class_sets = options.include_class_combinations
                                         ? RestrictedClassCandidates()
                                         : std::vector<ClassSet>{ClassSet::None()};

  std::vector<degrade::InterventionSet> grid;
  for (const ClassSet& classes : class_sets) {
    // Degradation-goal filter: required restricted classes must be present.
    bool covers_required = true;
    for (int i = 0; i < video::kNumObjectClasses; ++i) {
      auto cls = static_cast<ObjectClass>(i);
      if (options.required_restricted.Contains(cls) && !classes.Contains(cls)) {
        covers_required = false;
        break;
      }
    }
    if (!covers_required) continue;
    for (int resolution : resolutions) {
      if (options.max_allowed_resolution > 0 && resolution > options.max_allowed_resolution) {
        continue;
      }
      for (double fraction : fractions) {
        degrade::InterventionSet iv;
        iv.sample_fraction = fraction;
        iv.resolution = resolution;
        iv.restricted = classes;
        grid.push_back(iv);
      }
    }
  }
  if (grid.empty()) {
    return Status::InvalidArgument("degradation-goal filters removed every candidate");
  }
  return grid;
}

}  // namespace core
}  // namespace smokescreen
