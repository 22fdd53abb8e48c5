#include "stats/sampling.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace smokescreen {
namespace stats {

using util::Result;
using util::Status;

Result<std::vector<int64_t>> SampleWithoutReplacement(int64_t population, int64_t n, Rng& rng) {
  if (population < 0 || n < 0) {
    return Status::InvalidArgument("population and n must be non-negative");
  }
  if (n > population) {
    return Status::InvalidArgument("sample size " + std::to_string(n) +
                                   " exceeds population " + std::to_string(population));
  }
  // Dense partial Fisher–Yates: draw i swaps slot i with a uniform slot of
  // [i, population), so the first n slots end up holding the sample.
  std::vector<int64_t> pool(static_cast<size_t>(population));
  std::iota(pool.begin(), pool.end(), int64_t{0});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t j =
        i + static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(population - i)));
    std::swap(pool[static_cast<size_t>(i)], pool[static_cast<size_t>(j)]);
  }
  // Keep n values, not the population-sized pool (a no-op when n == N).
  pool.resize(static_cast<size_t>(n));
  pool.shrink_to_fit();
  return pool;
}

int64_t FractionToCount(int64_t population, double fraction) {
  if (fraction <= 0.0 || population <= 0) return 0;
  if (fraction >= 1.0) return population;
  int64_t n = static_cast<int64_t>(std::llround(fraction * static_cast<double>(population)));
  n = std::max<int64_t>(n, 1);
  return std::min(n, population);
}

}  // namespace stats
}  // namespace smokescreen
