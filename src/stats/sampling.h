// Random sampling primitives. The paper's reduced-frame-sampling intervention
// draws frames uniformly at random *without replacement* (the
// Hoeffding–Serfling and hypergeometric machinery depends on this).

#ifndef SMOKESCREEN_STATS_SAMPLING_H_
#define SMOKESCREEN_STATS_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "stats/rng.h"
#include "util/status.h"

namespace smokescreen {
namespace stats {

/// Draws `n` distinct indices uniformly from [0, population), unsorted
/// (in draw order). Error if n > population.
///
/// A dense partial Fisher–Yates over an iota pool of the whole population:
/// draw i swaps slot i with slot j = i + rng.NextBounded(population - i),
/// so the call makes exactly `n` draws. Time and transient memory are
/// O(population) whatever `n` is; the returned vector holds (and has
/// capacity for) only the `n` values. Every profile depends on this draw
/// order: the correction set's sizing permutation and its frames come from
/// it, so a change to the sequence of draws or to how a draw maps to an
/// index changes profiles.
util::Result<std::vector<int64_t>> SampleWithoutReplacement(int64_t population, int64_t n,
                                                            Rng& rng);

/// Converts a sample fraction in (0, 1] and population size to a sample
/// count, always at least 1 when the fraction is positive.
int64_t FractionToCount(int64_t population, double fraction);

/// Fisher–Yates shuffles `values` in place.
template <typename T>
void Shuffle(std::vector<T>& values, Rng& rng) {
  for (size_t i = values.size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng.NextBounded(i));
    std::swap(values[i - 1], values[j]);
  }
}

}  // namespace stats
}  // namespace smokescreen

#endif  // SMOKESCREEN_STATS_SAMPLING_H_
