// Intervention candidate design (paper §3.3.2): sample fractions at 1%
// intervals, ten uniformly spaced frame resolutions (respecting the model's
// stride constraint), and every combination of possibly sensitive classes.
// Administrators then filter out candidates that cannot satisfy their
// degradation goals.

#ifndef SMOKESCREEN_CORE_CANDIDATE_DESIGN_H_
#define SMOKESCREEN_CORE_CANDIDATE_DESIGN_H_

#include <vector>

#include "degrade/intervention.h"
#include "detect/detector.h"
#include "util/status.h"
#include "video/types.h"

namespace smokescreen {
namespace core {

struct CandidateGridOptions {
  double min_fraction = 0.01;
  double max_fraction = 1.0;
  double fraction_step = 0.01;
  int num_resolutions = 10;
  /// When false, only the no-removal candidate is generated.
  bool include_class_combinations = true;

  // --- Administrator degradation-goal filters (public preferences) ---
  /// Candidates with a larger sample fraction are filtered out (<= 0 = none).
  double max_allowed_fraction = 0.0;
  /// Candidates with a higher resolution are filtered out (0 = none).
  int max_allowed_resolution = 0;
  /// Classes that MUST be restricted in every candidate.
  video::ClassSet required_restricted;
};

/// Sample-fraction candidates at `fraction_step` intervals.
std::vector<double> FractionCandidates(const CandidateGridOptions& options);

/// `num` resolutions uniformly spanning (0, max] rounded to the model's
/// stride, deduplicated, ascending. Always includes the maximum.
util::Result<std::vector<int>> ResolutionCandidates(const detect::Detector& detector, int num);

/// All subsets of the classes the restricted-class prior records
/// (detect::ClassPriorIndex::kRecordedClasses): none, person, face,
/// person+face.
std::vector<video::ClassSet> RestrictedClassCandidates();

/// Full cartesian grid with the administrator's filters applied.
util::Result<std::vector<degrade::InterventionSet>> BuildCandidateGrid(
    const detect::Detector& detector, const CandidateGridOptions& options);

}  // namespace core
}  // namespace smokescreen

#endif  // SMOKESCREEN_CORE_CANDIDATE_DESIGN_H_
