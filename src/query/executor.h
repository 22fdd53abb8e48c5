// Ground-truth execution: runs the query over the entire, non-degraded video
// at the model's maximum resolution. Its answer defines Y_true; the paper
// treats "the query result without destructive interventions" as the true
// result, without regard to the model's own standalone accuracy.

#ifndef SMOKESCREEN_QUERY_EXECUTOR_H_
#define SMOKESCREEN_QUERY_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "query/output_source.h"
#include "query/query_spec.h"
#include "util/status.h"

namespace smokescreen {
namespace query {

struct GroundTruth {
  /// All frame-level outputs X_1..X_N at the reference resolution.
  std::vector<double> outputs;
  /// The exact aggregate of `outputs` (the paper's Y_true).
  double y_true = 0.0;
};

/// Computes ground truth for `spec`, using the detector's maximum resolution
/// (or `resolution_override` > 0 to define "truth at a given resolution" —
/// used when separating resolution-intervention error from sampling error).
util::Result<GroundTruth> ComputeGroundTruth(FrameOutputSource& source, const QuerySpec& spec,
                                             int resolution_override = 0);

/// §7 future work, implemented: "a sequence of frames are so similar that
/// part of frames can be skipped from processing". Scans the dataset in
/// order and, when a frame's target-class track set is unchanged from the
/// previous frame (the stand-in for a cheap frame-difference detector),
/// reuses the previous output instead of invoking the model. Returns the
/// outputs plus how many invocations were skipped. Exact when detections
/// depend only on the track set; approximate otherwise (object sizes drift
/// within a track), which is why it is an extension, not the default.
struct SkippedScan {
  std::vector<double> outputs;
  int64_t skipped = 0;
};
util::Result<SkippedScan> AllOutputsWithSkipping(FrameOutputSource& source,
                                                 const QuerySpec& spec, int resolution,
                                                 double contrast_scale = 1.0);

/// Relative error metric for AVG/SUM/COUNT: |approx - truth| / |truth|.
/// Infinity when truth == 0 and approx != 0; 0 when both are 0.
double RelativeError(double approx, double truth);

/// The paper's MAX/MIN metric: relative error of *ranks* in the original
/// output array, computed on the cumulative-frequency scale:
/// |rank(approx) - rank(truth)| / rank(truth).
util::Result<double> RankRelativeError(const std::vector<double>& original_outputs,
                                       double approx, double truth);

}  // namespace query
}  // namespace smokescreen

#endif  // SMOKESCREEN_QUERY_EXECUTOR_H_
