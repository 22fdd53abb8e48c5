#include "detect/detector.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define SMK_KERNEL_X86 1
#endif

#include "stats/rng.h"
#include "video/scene_index.h"

namespace smokescreen {
namespace detect {

using util::Result;
using util::Status;
using video::ObjectClass;
using video::VideoDataset;

Status Detector::CountBatch(const VideoDataset& dataset, std::span<const int64_t> frame_indices,
                            int resolution, ObjectClass cls, double contrast_scale,
                            std::span<int> out) const {
  if (out.size() != frame_indices.size()) {
    return Status::InvalidArgument("CountBatch: out size " + std::to_string(out.size()) +
                                   " != frame count " + std::to_string(frame_indices.size()));
  }
  // Buffer the loop so a mid-batch failure (bad index, model error) leaves
  // `out` untouched instead of exposing a partially written prefix.
  std::vector<int> counts(frame_indices.size());
  for (size_t i = 0; i < frame_indices.size(); ++i) {
    SMK_ASSIGN_OR_RETURN(counts[i], CountDetections(dataset, frame_indices[i], resolution, cls,
                                                    contrast_scale));
  }
  std::copy(counts.begin(), counts.end(), out.begin());
  return Status::OK();
}

Status Detector::ValidateResolution(int resolution) const {
  if (resolution <= 0) return Status::InvalidArgument("resolution must be positive");
  if (resolution > max_resolution()) {
    return Status::InvalidArgument(name() + " supports at most " +
                                   std::to_string(max_resolution()) + "px, got " +
                                   std::to_string(resolution));
  }
  if (resolution % resolution_stride() != 0) {
    return Status::InvalidArgument(name() + " requires resolutions in multiples of " +
                                   std::to_string(resolution_stride()) + ", got " +
                                   std::to_string(resolution));
  }
  return Status::OK();
}

CalibratedDetector::CalibratedDetector(
    std::string name, uint64_t model_id, int max_resolution, int resolution_stride,
    std::array<ClassCalibration, video::kNumObjectClasses> calibrations)
    : name_(std::move(name)),
      model_id_(model_id),
      max_resolution_(max_resolution),
      resolution_stride_(resolution_stride),
      calibrations_(calibrations) {
  for (size_t c = 0; c < calibrations_.size(); ++c) {
    recall_bands_[c] = BuildRecallBands(calibrations_[c]);
  }
}

namespace {

constexpr double kTwo53 = 9007199254740992.0;  // 2^53; u = (hash >> 11) / 2^53.

// Exact-sigmoid fallback for draws inside a band's ambiguity window. Kept
// out of line so the hot kernel loop contains no libm call site (std::exp
// would otherwise force the register allocator to spill the hash stream and
// column pointers across every iteration). The expression matches
// ObjectRecall literally, which is what makes the banded decision
// bit-identical to the scalar path.
[[gnu::noinline]] bool ExactRecallDetect(double s_eff, double s50, double width, double plateau,
                                         uint64_t h) {
  const double recall = plateau / (1.0 + std::exp(-(s_eff - s50) / width));
  return recall >= 1.0 || static_cast<double>(h) * 0x1.0p-53 < recall;
}

// Keeps a computed flag materialized as a register value (setcc). Without
// the barrier GCC re-expands flag arithmetic like `count += (h < lo)` back
// into a conditional branch on the detect Bernoulli — whose outcome is
// data-random (detect rates far from 0 or 1 on real columns), so the
// mispredict penalty dominates the whole decision loop.
inline void PinFlag(unsigned& v) {
#if defined(__GNUC__)
  asm("" : "+r"(v));
#endif
}

// ---------------------------------------------------------------------------
// Flat lane hashing.
//
// The determinism stream (stats::HashStream) is a serial (state, acc) chain
// per draw, but draws for DIFFERENT objects/frames are completely
// independent. The lane passes below exploit that: given per-lane suspended
// streams (state[k], acc[k]), absorb an optional per-lane word, then a
// shared run of constant words, then produce one finalized hash per finish
// word — with every lane's chain independent, so the loop runs at multiply
// THROUGHPUT instead of chain latency, and (on AVX-512) eight lanes wide.
//
// Both implementations replicate HashStream::Absorb/Finalize EXACTLY
// (integer ops only), so the produced hashes are bit-identical to the
// scalar stream on every ISA; stats_rng_test pins the equivalence.
// ---------------------------------------------------------------------------

constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kMix1 = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kMix2 = 0x94d049bb133111ebULL;
constexpr uint64_t kAccMul = 0x2545f4914f6cdd1dULL;

struct LaneHashArgs {
  const uint64_t* state;       // n suspended-stream state words (read-only).
  const uint64_t* acc;         // n suspended-stream accumulator words.
  const uint64_t* lane_words;  // Optional per-lane first word (nullptr = none).
  const uint64_t* const_words; // Shared words absorbed after lane_words.
  int num_const;
  uint64_t finish1;            // Word absorbed + finalized into out1.
  uint64_t* out1;
  uint64_t finish2;            // Ditto for out2 when out2 != nullptr.
  uint64_t* out2;
};

void HashLanesScalar(const LaneHashArgs& a, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    uint64_t s = a.state[k];
    uint64_t acc = a.acc[k];
    auto absorb = [&s, &acc](uint64_t w) {
      s ^= w;
      s += kGamma;
      uint64_t z = s;
      z = (z ^ (z >> 30)) * kMix1;
      z = (z ^ (z >> 27)) * kMix2;
      z ^= z >> 31;
      uint64_t x = acc ^ z;
      acc = ((x << 23) | (x >> 41)) * kAccMul;
    };
    if (a.lane_words != nullptr) absorb(a.lane_words[k]);
    for (int c = 0; c < a.num_const; ++c) absorb(a.const_words[c]);
    auto finish = [&s, &acc](uint64_t fw) {
      uint64_t fs = (s ^ fw) + kGamma;
      uint64_t z = fs;
      z = (z ^ (z >> 30)) * kMix1;
      z = (z ^ (z >> 27)) * kMix2;
      z ^= z >> 31;
      uint64_t x = acc ^ z;
      uint64_t fa = ((x << 23) | (x >> 41)) * kAccMul;
      uint64_t t = (fs ^ fa) + kGamma;
      t = (t ^ (t >> 30)) * kMix1;
      t = (t ^ (t >> 27)) * kMix2;
      return t ^ (t >> 31);
    };
    a.out1[k] = finish(a.finish1);
    if (a.out2 != nullptr) a.out2[k] = finish(a.finish2);
  }
}

// Suspended-prefix absorb: one shared suspended stream (state0, acc0), one
// per-lane word; emits the per-lane suspended streams instead of finalized
// hashes. Used for the per-frame word of the batch prefix, whose outputs
// seed the per-object lanes. Safe to run in place (out_state may alias
// words: each lane's word is read before its state is written).
void AbsorbSuspendScalar(uint64_t state0, uint64_t acc0, const uint64_t* words,
                         uint64_t* out_state, uint64_t* out_acc, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    uint64_t s = state0 ^ words[k];
    s += kGamma;
    uint64_t z = s;
    z = (z ^ (z >> 30)) * kMix1;
    z = (z ^ (z >> 27)) * kMix2;
    z ^= z >> 31;
    const uint64_t x = acc0 ^ z;
    out_state[k] = s;
    out_acc[k] = ((x << 23) | (x >> 41)) * kAccMul;
  }
}

#ifdef SMK_KERNEL_X86

// GCC's AVX-512 intrinsic headers trip -Wmaybe-uninitialized through the
// _mm512_undefined_* helpers they expand to (GCC PR 105593); the values are
// fully written before use.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// AVX-512 variant: vpmullq (DQ) gives native 64-bit lane multiplies and
// vprolq (F) the accumulator rotate, so the whole chain stays integer and
// bit-identical. Helpers carry the same target attribute so they inline
// into the attributed loop (a plain lambda would not and GCC would refuse
// the call).
__attribute__((target("avx512f,avx512dq"), always_inline)) inline __m512i Mix512(__m512i z) {
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)), _mm512_set1_epi64(kMix1));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)), _mm512_set1_epi64(kMix2));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

__attribute__((target("avx512f,avx512dq"), always_inline)) inline __m512i Absorb512(
    __m512i* s, __m512i acc, __m512i w) {
  *s = _mm512_add_epi64(_mm512_xor_si512(*s, w), _mm512_set1_epi64(kGamma));
  __m512i x = _mm512_xor_si512(acc, Mix512(*s));
  return _mm512_mullo_epi64(_mm512_rol_epi64(x, 23), _mm512_set1_epi64(kAccMul));
}

__attribute__((target("avx512f,avx512dq"), always_inline)) inline __m512i Finish512(
    __m512i s, __m512i acc, uint64_t fw) {
  __m512i fs = _mm512_add_epi64(_mm512_xor_si512(s, _mm512_set1_epi64(fw)),
                                _mm512_set1_epi64(kGamma));
  __m512i x = _mm512_xor_si512(acc, Mix512(fs));
  __m512i fa = _mm512_mullo_epi64(_mm512_rol_epi64(x, 23), _mm512_set1_epi64(kAccMul));
  __m512i t = _mm512_add_epi64(_mm512_xor_si512(fs, fa), _mm512_set1_epi64(kGamma));
  return Mix512(t);
}

__attribute__((target("avx512f,avx512dq"))) void HashLanesAvx512(const LaneHashArgs& a,
                                                                 size_t n) {
  size_t k = 0;
  // Two independent 8-lane groups per iteration: one group's absorb round is
  // a serial multiply chain (Mix512 is two dependent vpmullq, each multi-uop
  // on current cores), so a single group leaves the multiply port idle most
  // cycles. Interleaving a second, dependency-free group overlaps the chains
  // and moves the loop from chain latency toward multiply throughput.
  for (; k + 16 <= n; k += 16) {
    __m512i s0 = _mm512_loadu_si512(a.state + k);
    __m512i s1 = _mm512_loadu_si512(a.state + k + 8);
    __m512i acc0 = _mm512_loadu_si512(a.acc + k);
    __m512i acc1 = _mm512_loadu_si512(a.acc + k + 8);
    if (a.lane_words != nullptr) {
      acc0 = Absorb512(&s0, acc0, _mm512_loadu_si512(a.lane_words + k));
      acc1 = Absorb512(&s1, acc1, _mm512_loadu_si512(a.lane_words + k + 8));
    }
    for (int c = 0; c < a.num_const; ++c) {
      const __m512i w = _mm512_set1_epi64(static_cast<int64_t>(a.const_words[c]));
      acc0 = Absorb512(&s0, acc0, w);
      acc1 = Absorb512(&s1, acc1, w);
    }
    _mm512_storeu_si512(a.out1 + k, Finish512(s0, acc0, a.finish1));
    _mm512_storeu_si512(a.out1 + k + 8, Finish512(s1, acc1, a.finish1));
    if (a.out2 != nullptr) {
      _mm512_storeu_si512(a.out2 + k, Finish512(s0, acc0, a.finish2));
      _mm512_storeu_si512(a.out2 + k + 8, Finish512(s1, acc1, a.finish2));
    }
  }
  for (; k + 8 <= n; k += 8) {
    __m512i s = _mm512_loadu_si512(a.state + k);
    __m512i acc = _mm512_loadu_si512(a.acc + k);
    if (a.lane_words != nullptr) {
      acc = Absorb512(&s, acc, _mm512_loadu_si512(a.lane_words + k));
    }
    for (int c = 0; c < a.num_const; ++c) {
      acc = Absorb512(&s, acc, _mm512_set1_epi64(static_cast<int64_t>(a.const_words[c])));
    }
    _mm512_storeu_si512(a.out1 + k, Finish512(s, acc, a.finish1));
    if (a.out2 != nullptr) _mm512_storeu_si512(a.out2 + k, Finish512(s, acc, a.finish2));
  }
  if (k < n) {
    LaneHashArgs tail = a;
    tail.state += k;
    tail.acc += k;
    if (tail.lane_words != nullptr) tail.lane_words += k;
    tail.out1 += k;
    if (tail.out2 != nullptr) tail.out2 += k;
    HashLanesScalar(tail, n - k);
  }
}

#pragma GCC diagnostic pop

#endif  // SMK_KERNEL_X86

// ---------------------------------------------------------------------------
// Lane-parallel first uniform of the seeded Poisson stream.
//
// PoissonFromHashKnuth seeds an Rng from the finalized hash and draws
// uniforms until the product falls below exp(-lambda). The FIRST uniform
// decides the overwhelmingly common count==0 case, and it depends only on
// xoshiro lane s1 = SplitMix64 mix of (hash + 2*gamma) — two multiplies —
// because NextUint64 reads s_[1] alone (and the all-zero reseed guard
// touches s_[0] only). Computing that first uniform for every frame in a
// flat pass turns the per-frame serial seed chain into lane-parallel work;
// pass 3 falls back to the full scalar draw only when the first uniform
// exceeds the limit (count >= 1).
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Flat detect/duplicate decision pass.
//
// Once the hashes are finalized, each object's contribution to its frame's
// count is a pure function of flat columns: band thresholds on the detect
// draw (exact-sigmoid fallback inside the ambiguity window), plus the
// duplicate Bernoulli gated on detection. Evaluating it as a lane pass over
// ALL objects in the batch (rather than per frame inside the frame loop)
// exposes the same independence the hash lanes exploit — and on AVX-512 the
// band lookup becomes two 8-lane gathers and the decisions mask compares.
// The per-frame loop then just sums a contiguous run of contributions.
// ---------------------------------------------------------------------------

struct DetectContribArgs {
  const double* s_eff;
  const uint64_t* det_hash;
  const uint64_t* dup_hash;  // nullptr when no frame in the batch can duplicate.
  const double* dup_prob;    // Per-object duplicate probability (frame-broadcast).
  const uint64_t* sure_lo;   // Band tables incl. the sentinel at band_clamp.
  const uint64_t* sure_hi;
  double inv_band_width;
  uint64_t band_clamp;       // Sentinel band index (RecallBands::kBands).
  double s50, width, plateau;  // Exact fallback for ambiguity-window draws.
  bool banded;               // false => every decision takes the exact sigmoid.
  uint64_t* contrib;         // Out: detections contributed by each object (0..2).
};

void DetectContribScalar(const DetectContribArgs& a, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    const double s_eff = a.s_eff[k];
    const uint64_t h = a.det_hash[k] >> 11;
    unsigned det;
    if (a.banded) {
      // The unsigned clamp lands s_eff past the certainty edge in the
      // sentinel band, where recall == plateau bit for bit (see
      // BuildRecallBands); an out-of-range convert (overflowing product
      // maps to INT64_MIN) also routes to the sentinel, matching the
      // scalar path where exp underflows and recall == plateau.
      size_t b = static_cast<size_t>(static_cast<int64_t>(s_eff * a.inv_band_width));
      if (b > a.band_clamp) b = a.band_clamp;
      det = h < a.sure_lo[b] ? 1u : 0u;
      unsigned sure = det | (h >= a.sure_hi[b] ? 1u : 0u);
      PinFlag(det);
      PinFlag(sure);
      if (sure == 0) [[unlikely]] {
        det = ExactRecallDetect(s_eff, a.s50, a.width, a.plateau, h) ? 1u : 0u;
      }
    } else {
      det = ExactRecallDetect(s_eff, a.s50, a.width, a.plateau, h) ? 1u : 0u;
    }
    uint64_t c = det;
    if (a.dup_hash != nullptr) {
      // NMS failure: a detected object is reported twice. The draw is
      // stateless, so evaluating it for undetected objects (or frames with
      // zero duplicate probability) is side-effect-free; `det` gates the
      // add without a branch.
      const unsigned dup = stats::UniformFromHash(a.dup_hash[k]) < a.dup_prob[k] ? 1u : 0u;
      c += det & dup;
    }
    a.contrib[k] = c;
  }
}

void PoissonFirstU53Scalar(const uint64_t* hash, uint64_t* u53, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    uint64_t v = hash[k] + 2 * kGamma;
    v = (v ^ (v >> 30)) * kMix1;
    v = (v ^ (v >> 27)) * kMix2;
    const uint64_t s1 = v ^ (v >> 31);
    uint64_t r = s1 * 5;
    r = ((r << 7) | (r >> 57)) * 9;
    u53[k] = r >> 11;
  }
}

#ifdef SMK_KERNEL_X86

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

__attribute__((target("avx512f,avx512dq"))) void PoissonFirstU53Avx512(const uint64_t* hash,
                                                                       uint64_t* u53, size_t n) {
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    __m512i v = _mm512_add_epi64(_mm512_loadu_si512(hash + k),
                                 _mm512_set1_epi64(static_cast<int64_t>(2 * kGamma)));
    v = Mix512(v);
    // * 5 and * 9 as shift-adds: no 64-bit multiply needed.
    __m512i r = _mm512_add_epi64(v, _mm512_slli_epi64(v, 2));
    r = _mm512_rol_epi64(r, 7);
    r = _mm512_add_epi64(r, _mm512_slli_epi64(r, 3));
    _mm512_storeu_si512(u53 + k, _mm512_srli_epi64(r, 11));
  }
  if (k < n) PoissonFirstU53Scalar(hash + k, u53 + k, n - k);
}

// Banded decisions 8 lanes at a time: band index via the DQ truncating
// convert (overflow yields INT64_MIN, which the unsigned min routes to the
// sentinel exactly like the scalar cast), thresholds via two 64-bit
// gathers, detect/sure/duplicate as mask compares. Ambiguity-window lanes
// (almost never set) are patched through the same scalar exact fallback.
// Only called with a.banded == true.
__attribute__((target("avx512f,avx512dq"))) void DetectContribAvx512(const DetectContribArgs& a,
                                                                     size_t n) {
  const __m512d inv_bw = _mm512_set1_pd(a.inv_band_width);
  const __m512i clamp = _mm512_set1_epi64(static_cast<int64_t>(a.band_clamp));
  const __m512d scale53 = _mm512_set1_pd(0x1.0p-53);
  const __m512i one = _mm512_set1_epi64(1);
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m512d s_eff = _mm512_loadu_pd(a.s_eff + k);
    const __m512i raw = _mm512_cvttpd_epi64(_mm512_mul_pd(s_eff, inv_bw));
    const __m512i b = _mm512_min_epu64(raw, clamp);
    const __m512i lo = _mm512_i64gather_epi64(b, a.sure_lo, 8);
    const __m512i hi = _mm512_i64gather_epi64(b, a.sure_hi, 8);
    const __m512i h = _mm512_srli_epi64(_mm512_loadu_si512(a.det_hash + k), 11);
    __mmask8 det_m = _mm512_cmp_epu64_mask(h, lo, _MM_CMPINT_LT);
    const __mmask8 miss_m = _mm512_cmp_epu64_mask(h, hi, _MM_CMPINT_NLT);
    unsigned amb = static_cast<unsigned>(static_cast<__mmask8>(~(det_m | miss_m)));
    if (amb != 0) [[unlikely]] {
      do {
        const int j = __builtin_ctz(amb);
        amb &= amb - 1;
        const size_t kk = k + static_cast<size_t>(j);
        if (ExactRecallDetect(a.s_eff[kk], a.s50, a.width, a.plateau, a.det_hash[kk] >> 11)) {
          det_m = static_cast<__mmask8>(det_m | (1u << j));
        }
      } while (amb != 0);
    }
    __m512i contrib = _mm512_maskz_mov_epi64(det_m, one);
    if (a.dup_hash != nullptr) {
      const __m512i dh = _mm512_srli_epi64(_mm512_loadu_si512(a.dup_hash + k), 11);
      const __m512d u = _mm512_mul_pd(_mm512_cvtepu64_pd(dh), scale53);
      const __mmask8 dup_m = _mm512_cmp_pd_mask(u, _mm512_loadu_pd(a.dup_prob + k), _CMP_LT_OQ);
      contrib = _mm512_add_epi64(
          contrib, _mm512_maskz_mov_epi64(static_cast<__mmask8>(det_m & dup_m), one));
    }
    _mm512_storeu_si512(a.contrib + k, contrib);
  }
  if (k < n) {
    DetectContribArgs tail = a;
    tail.s_eff += k;
    tail.det_hash += k;
    if (tail.dup_hash != nullptr) tail.dup_hash += k;
    tail.dup_prob += k;
    tail.contrib += k;
    DetectContribScalar(tail, n - k);
  }
}

__attribute__((target("avx512f,avx512dq"))) void AbsorbSuspendAvx512(
    uint64_t state0, uint64_t acc0, const uint64_t* words, uint64_t* out_state, uint64_t* out_acc,
    size_t n) {
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    __m512i s = _mm512_set1_epi64(static_cast<int64_t>(state0));
    __m512i acc = Absorb512(&s, _mm512_set1_epi64(static_cast<int64_t>(acc0)),
                            _mm512_loadu_si512(words + k));
    _mm512_storeu_si512(out_state + k, s);
    _mm512_storeu_si512(out_acc + k, acc);
  }
  if (k < n) AbsorbSuspendScalar(state0, acc0, words + k, out_state + k, out_acc + k, n - k);
}

#pragma GCC diagnostic pop

#endif  // SMK_KERNEL_X86

using HashLanesFn = void (*)(const LaneHashArgs&, size_t);

// Runtime dispatch: AVX-512 when the host has it, scalar otherwise — both
// bit-identical. SMOKESCREEN_NO_AVX512=1 forces the scalar lanes (useful
// for A/B measurement and for hosts where sustained 512-bit multiplies
// trigger license-based frequency reduction).
bool Avx512Disabled() {
  const char* env = std::getenv("SMOKESCREEN_NO_AVX512");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

HashLanesFn ResolveHashLanes() {
#ifdef SMK_KERNEL_X86
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      !Avx512Disabled()) {
    return &HashLanesAvx512;
  }
#endif
  return &HashLanesScalar;
}

using PoissonFirstU53Fn = void (*)(const uint64_t*, uint64_t*, size_t);

PoissonFirstU53Fn ResolvePoissonFirstU53() {
#ifdef SMK_KERNEL_X86
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      !Avx512Disabled()) {
    return &PoissonFirstU53Avx512;
  }
#endif
  return &PoissonFirstU53Scalar;
}

using DetectContribFn = void (*)(const DetectContribArgs&, size_t);

DetectContribFn ResolveDetectContrib() {
#ifdef SMK_KERNEL_X86
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      !Avx512Disabled()) {
    return &DetectContribAvx512;
  }
#endif
  return &DetectContribScalar;
}

using AbsorbSuspendFn = void (*)(uint64_t, uint64_t, const uint64_t*, uint64_t*, uint64_t*,
                                 size_t);

AbsorbSuspendFn ResolveAbsorbSuspend() {
#ifdef SMK_KERNEL_X86
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      !Avx512Disabled()) {
    return &AbsorbSuspendAvx512;
  }
#endif
  return &AbsorbSuspendScalar;
}

// Resolved once at load; all candidates are pure functions of their input.
const HashLanesFn kHashLanes = ResolveHashLanes();
const PoissonFirstU53Fn kPoissonFirstU53 = ResolvePoissonFirstU53();
const AbsorbSuspendFn kAbsorbSuspend = ResolveAbsorbSuspend();
const DetectContribFn kDetectContrib = ResolveDetectContrib();

// Reused per-thread buffers for the batch kernel (CountBatch is const and
// may run concurrently on pool workers; each thread grows its own scratch
// to the high-water batch shape once and then allocates nothing).
struct KernelScratch {
  std::vector<uint64_t> frame_state, frame_acc, fp_hash, fp_u53;
  std::vector<double> dup_prob;
  std::vector<uint64_t> obj_state, obj_acc, obj_track, det_hash, dup_hash, contrib;
  std::vector<double> s_eff, obj_dup_prob;
  std::vector<double> knuth_limits;
};

KernelScratch& LocalScratch() {
  static thread_local KernelScratch scratch;
  return scratch;
}

}  // namespace

CalibratedDetector::RecallBands CalibratedDetector::BuildRecallBands(
    const ClassCalibration& cal) {
  RecallBands bands;
  const double p = cal.plateau;
  const double s50 = cal.s50;
  const double w = cal.width;
  // The acceleration assumes the logistic is a proper S-curve with a
  // sub-unit plateau; anything else (zero-plateau classes, degenerate
  // widths, non-finite geometry) simply leaves `usable` false and the
  // kernel evaluates the exact sigmoid per object.
  if (!(p > 0.0) || !(p < 1.0) || !(w > 0.0)) return bands;
  const double s_certain = s50 + 38.0 * w;
  if (!std::isfinite(s_certain) || !(s_certain > 0.0)) return bands;
  // Beyond s_certain the computed logistic argument is <= -38 + rounding,
  // so exp(a) < 2^-53, 1.0 + exp(a) rounds to exactly 1.0, and the computed
  // recall equals the plateau bit for bit.
  bands.s_detect_certain = s_certain;
  bands.inv_band_width =
      static_cast<double>(RecallBands::kBands) / s_certain;
  // One sentinel band past the end: s_eff >= s_certain maps to index
  // kBands, where recall == plateau bit for bit, so both thresholds are the
  // exact integer form of "u < plateau" (plateau * 2^53 is a power-of-two
  // scaling, computed without rounding) and the decision is always sure.
  // This keeps the kernel's band pick a single clamped index — no separate
  // plateau branch.
  bands.sure_lo.resize(RecallBands::kBands + 1);
  bands.sure_hi.resize(RecallBands::kBands + 1);
  const uint64_t plateau_u = static_cast<uint64_t>(std::ceil(p * kTwo53));
  bands.sure_lo[RecallBands::kBands] = plateau_u;
  bands.sure_hi[RecallBands::kBands] = plateau_u;
  const double band = s_certain / static_cast<double>(RecallBands::kBands);
  for (int b = 0; b < RecallBands::kBands; ++b) {
    // Evaluate the sigmoid on a QUARTER-BAND-widened interval: float
    // rounding can park an s_eff a few ulps across a band edge, and the
    // slack (~0.25 band >> any rounding) guarantees the stored bounds still
    // cover its recall. Recall increases with s_eff, so the minimum sits at
    // the left edge.
    const double e_lo = (static_cast<double>(b) - 0.25) * band;
    const double e_hi = (static_cast<double>(b) + 1.25) * band;
    double r_min = p / (1.0 + std::exp(-(e_lo - s50) / w));
    double r_max = p / (1.0 + std::exp(-(e_hi - s50) / w));
    // Pad by 8 ulps per side: std::exp is faithfully rounded (not correctly
    // rounded), so the computed chain can wobble a few ulps off monotone.
    for (int k = 0; k < 8; ++k) r_min = std::nextafter(r_min, 0.0);
    for (int k = 0; k < 8; ++k) r_max = std::nextafter(r_max, 2.0);
    if (!(r_min > 0.0)) r_min = 0.0;
    // u < r_min certainly detects: h < floor(r_min * 2^53) implies
    // u = h/2^53 < r_min. u >= r_max certainly misses: h >= ceil(r_max *
    // 2^53) implies u >= r_max (and recall < 1 whenever r_max < 1; if the
    // padded bound reaches 1 the sure-miss test is disabled for the band).
    bands.sure_lo[static_cast<size_t>(b)] =
        static_cast<uint64_t>(std::floor(r_min * kTwo53));
    bands.sure_hi[static_cast<size_t>(b)] =
        r_max < 1.0 ? static_cast<uint64_t>(std::ceil(r_max * kTwo53))
                    : static_cast<uint64_t>(kTwo53);
  }
  bands.usable = true;
  return bands;
}

double CalibratedDetector::ObjectRecall(ObjectClass cls, double apparent_size, double contrast,
                                        int resolution, int reference_resolution,
                                        double contrast_scale) const {
  const ClassCalibration& cal = calibrations_[static_cast<size_t>(cls)];
  double scale = static_cast<double>(resolution) / static_cast<double>(reference_resolution);
  double clarity = contrast * contrast_scale;
  double s_eff = apparent_size * scale * clarity;
  double recall = cal.plateau / (1.0 + std::exp(-(s_eff - cal.s50) / cal.width));
  return recall;
}

void CalibratedDetector::DuplicateProbabilityBatch(const VideoDataset& /*dataset*/,
                                                   std::span<const int64_t> /*frame_indices*/,
                                                   int /*resolution*/, ObjectClass /*cls*/,
                                                   std::span<double> out) const {
  std::fill(out.begin(), out.end(), 0.0);
}

Result<int> CalibratedDetector::CountDetections(const VideoDataset& dataset, int64_t frame_index,
                                                int resolution, ObjectClass cls,
                                                double contrast_scale) const {
  SMK_RETURN_IF_ERROR(ValidateResolution(resolution));
  if (frame_index < 0 || frame_index >= dataset.num_frames()) {
    return Status::OutOfRange("frame index " + std::to_string(frame_index) + " out of [0, " +
                              std::to_string(dataset.num_frames()) + ")");
  }
  const video::SceneIndex& index = dataset.scene_index();
  const video::SceneIndex::ClassColumns& col = index.columns(cls);
  const ClassCalibration& cal = calibrations_[static_cast<size_t>(cls)];
  const size_t f = static_cast<size_t>(frame_index);
  const uint64_t frame_word = index.frame_id_words()[f];
  const uint64_t res_bits = static_cast<uint64_t>(resolution);
  const uint64_t cls_bits = static_cast<uint64_t>(cls);
  const uint64_t contrast_bits = static_cast<uint64_t>(QuantizeContrast(contrast_scale));
  double dup_prob = 0.0;
  DuplicateProbabilityBatch(dataset, std::span<const int64_t>(&frame_index, 1), resolution, cls,
                            std::span<double>(&dup_prob, 1));

  int count = 0;
  for (uint32_t j = col.offsets[f]; j < col.offsets[f + 1]; ++j) {
    double recall = ObjectRecall(cls, col.sizes[j], col.contrasts[j], resolution,
                                 dataset.full_resolution(), contrast_scale);
    bool detected = stats::StatelessBernoulli(
        recall, {dataset.dataset_id(), frame_word, col.track_words[j], res_bits, model_id_,
                 cls_bits, contrast_bits, /*purpose=*/0x11});
    if (!detected) continue;
    ++count;
    if (dup_prob > 0.0 &&
        stats::StatelessBernoulli(
            dup_prob, {dataset.dataset_id(), frame_word, col.track_words[j], res_bits, model_id_,
                       cls_bits, contrast_bits, /*purpose=*/0x22})) {
      ++count;  // NMS failure: the object is reported twice.
    }
  }

  // Clutter-driven false positives. Slightly elevated at reduced resolution
  // (small textures are more ambiguous), mildly elevated in crowded frames:
  // the clutter statistic counts objects of ALL classes.
  const double res_factor =
      1.0 + 0.5 * (1.0 - static_cast<double>(resolution) /
                             static_cast<double>(dataset.full_resolution()));
  double clutter_factor = 1.0 + 0.03 * static_cast<double>(index.total_objects()[f]);
  double fp_lambda = cal.fp_rate * res_factor * clutter_factor;
  count += stats::StatelessPoisson(
      fp_lambda, {dataset.dataset_id(), frame_word, res_bits, model_id_, cls_bits, contrast_bits,
                  /*purpose=*/0x33});
  return count;
}

Status CalibratedDetector::CountBatch(const VideoDataset& dataset,
                                      std::span<const int64_t> frame_indices, int resolution,
                                      ObjectClass cls, double contrast_scale,
                                      std::span<int> out) const {
  if (out.size() != frame_indices.size()) {
    return Status::InvalidArgument("CountBatch: out size " + std::to_string(out.size()) +
                                   " != frame count " + std::to_string(frame_indices.size()));
  }
  // Validate the WHOLE request before writing anything: `out` stays
  // untouched on any error, never holding a partially written prefix.
  SMK_RETURN_IF_ERROR(ValidateResolution(resolution));
  for (int64_t frame_index : frame_indices) {
    if (frame_index < 0 || frame_index >= dataset.num_frames()) {
      return Status::OutOfRange("frame index " + std::to_string(frame_index) + " out of [0, " +
                                std::to_string(dataset.num_frames()) + ")");
    }
  }

  // All per-(resolution, class, contrast) constants become per-batch
  // scalars; nothing below this block is recomputed per frame or object.
  const video::SceneIndex& index = dataset.scene_index();
  const video::SceneIndex::ClassColumns& col = index.columns(cls);
  const ClassCalibration& cal = calibrations_[static_cast<size_t>(cls)];
  const uint64_t res_bits = static_cast<uint64_t>(resolution);
  const uint64_t cls_bits = static_cast<uint64_t>(cls);
  const uint64_t contrast_bits = static_cast<uint64_t>(QuantizeContrast(contrast_scale));
  const double res_factor =
      1.0 + 0.5 * (1.0 - static_cast<double>(resolution) /
                             static_cast<double>(dataset.full_resolution()));
  const double scale =
      static_cast<double>(resolution) / static_cast<double>(dataset.full_resolution());
  const double s50 = cal.s50;
  const double width = cal.width;
  const double plateau = cal.plateau;
  // The recall logistic is positive everywhere, so detection Bernoullis can
  // succeed iff the plateau is positive; a zero-plateau class (e.g. MTCNN on
  // cars) skips the object walk entirely — exactly the draws the scalar
  // path's p <= 0 short-circuit never makes.
  const bool class_detectable = plateau > 0.0;
  std::span<const uint32_t> total_objects = index.total_objects();

  // Guard-banded recall decision setup (see RecallBands): most Bernoullis
  // resolve from two integer threshold loads (the sentinel band at index
  // kBands carries the exact plateau decision for s_eff past the certainty
  // edge); only draws inside a band's ambiguity window evaluate the exact
  // sigmoid.
  const RecallBands& bands = recall_bands_[static_cast<size_t>(cls)];
  const bool use_bands = bands.usable;
  const double inv_band_width = bands.inv_band_width;
  const uint64_t* sure_lo = bands.sure_lo.data();
  const uint64_t* sure_hi = bands.sure_hi.data();

  // The determinism stream absorbs (dataset, frame, [track,] res, model,
  // cls, contrast, purpose) in that order: the dataset word is absorbed once
  // per batch, the frame word once per frame, and the per-draw tails resume
  // from the suspended per-frame (state, acc) pair. The detect and
  // duplicate draws share their first five tail words (track, res, model,
  // cls, contrast), so the lane pass absorbs that prefix ONCE per object
  // and finishes it twice (purpose 0x11 / 0x22) — the scalar path pays the
  // full chain twice.
  stats::HashStream batch_stream;
  batch_stream.Absorb(dataset.dataset_id());
  const uint64_t batch_state = batch_stream.state();
  const uint64_t batch_acc = batch_stream.acc();
  const uint64_t tail_words[4] = {res_bits, model_id_, cls_bits, contrast_bits};

  const size_t n = frame_indices.size();
  KernelScratch& scratch = LocalScratch();

  // Pass 1 (per frame, scalar): duplicate probabilities via the batched
  // model hook (one virtual call per batch, not per frame), suspended
  // streams after the frame word, and the flat per-object lane fill:
  // stream copies, track words, and the effective size (same
  // multiplication order as ObjectRecall, so the doubles match bit for
  // bit). The pass reads only the scene index's flat columns — never the
  // vector-bearing AoS Frame structs.
  scratch.frame_state.resize(n);
  scratch.frame_acc.resize(n);
  scratch.dup_prob.resize(n);
  DuplicateProbabilityBatch(dataset, frame_indices, resolution, cls,
                            std::span<double>(scratch.dup_prob.data(), n));
  bool any_dup = false;
  for (size_t i = 0; i < n; ++i) any_dup = any_dup || scratch.dup_prob[i] > 0.0;
  size_t total_objs = 0;
  if (class_detectable) {
    for (size_t i = 0; i < n; ++i) {
      const size_t f = static_cast<size_t>(frame_indices[i]);
      total_objs += col.offsets[f + 1] - col.offsets[f];
    }
    scratch.obj_state.resize(total_objs);
    scratch.obj_acc.resize(total_objs);
    scratch.obj_track.resize(total_objs);
    scratch.s_eff.resize(total_objs);
    scratch.obj_dup_prob.resize(total_objs);
  }
  const double* sizes = col.sizes.data();
  const double* contrasts = col.contrasts.data();
  const uint64_t* tracks = col.track_words.data();
  const uint64_t* frame_id_words = index.frame_id_words().data();
  // The per-frame prefix word absorbs lane-parallel: gather each frame's id
  // word into the state array, then one in-place suspended absorb replaces n
  // serial three-multiply chains.
  for (size_t i = 0; i < n; ++i) {
    scratch.frame_state[i] = frame_id_words[static_cast<size_t>(frame_indices[i])];
  }
  kAbsorbSuspend(batch_state, batch_acc, scratch.frame_state.data(), scratch.frame_state.data(),
                 scratch.frame_acc.data(), n);
  size_t k = 0;
  if (class_detectable) {
    const uint64_t* fs = scratch.frame_state.data();
    const uint64_t* fa = scratch.frame_acc.data();
    const double* dup_prob_col = scratch.dup_prob.data();
    for (size_t i = 0; i < n; ++i) {
      const size_t f = static_cast<size_t>(frame_indices[i]);
      const uint32_t lo = col.offsets[f];
      const uint32_t hi = col.offsets[f + 1];
      const uint64_t s = fs[i];
      const uint64_t a = fa[i];
      const double dp = dup_prob_col[i];
      for (uint32_t j = lo; j < hi; ++j, ++k) {
        scratch.obj_state[k] = s;
        scratch.obj_acc[k] = a;
        scratch.obj_track[k] = tracks[j];
        const double clarity = contrasts[j] * contrast_scale;
        scratch.s_eff[k] = sizes[j] * scale * clarity;
        scratch.obj_dup_prob[k] = dp;
      }
    }
  }

  // Pass 2 (flat lanes): one finalized hash per draw. Object lanes absorb
  // (track, res, model, cls, contrast) and finish with 0x11 (detect) and —
  // only when some frame can duplicate — 0x22. Frame lanes absorb
  // (res, model, cls, contrast) and finish with 0x33 (false positives).
  if (class_detectable && total_objs > 0) {
    scratch.det_hash.resize(total_objs);
    if (any_dup) scratch.dup_hash.resize(total_objs);
    LaneHashArgs obj_args;
    obj_args.state = scratch.obj_state.data();
    obj_args.acc = scratch.obj_acc.data();
    obj_args.lane_words = scratch.obj_track.data();
    obj_args.const_words = tail_words;
    obj_args.num_const = 4;
    obj_args.finish1 = 0x11;
    obj_args.out1 = scratch.det_hash.data();
    obj_args.finish2 = 0x22;
    obj_args.out2 = any_dup ? scratch.dup_hash.data() : nullptr;
    kHashLanes(obj_args, total_objs);
  }
  scratch.fp_hash.resize(n);
  {
    LaneHashArgs fp_args;
    fp_args.state = scratch.frame_state.data();
    fp_args.acc = scratch.frame_acc.data();
    fp_args.lane_words = nullptr;
    fp_args.const_words = tail_words;
    fp_args.num_const = 4;
    fp_args.finish1 = 0x33;
    fp_args.out1 = scratch.fp_hash.data();
    fp_args.finish2 = 0;
    fp_args.out2 = nullptr;
    kHashLanes(fp_args, n);
  }
  // Lane-parallel first Poisson uniform (see PoissonFirstU53Scalar): pass 3
  // resolves the common count==0 draw from one double compare and reseeds
  // the full generator only for frames that actually produce a false
  // positive. fp_lambda > 0 iff fp_rate > 0 (res_factor and the clutter
  // factor are both positive), so a zero-rate class skips the pass.
  const bool any_fp = cal.fp_rate * res_factor > 0.0;
  if (any_fp) {
    scratch.fp_u53.resize(n);
    kPoissonFirstU53(scratch.fp_hash.data(), scratch.fp_u53.data(), n);
  }

  // Pass 2b (flat lanes): each object's contribution to its frame's count —
  // banded detect decision (exact-sigmoid fallback in the ambiguity window)
  // plus the detection-gated duplicate Bernoulli — evaluated over the whole
  // batch's object columns at once. See DetectContribScalar/Avx512.
  if (class_detectable && total_objs > 0) {
    scratch.contrib.resize(total_objs);
    DetectContribArgs cargs;
    cargs.s_eff = scratch.s_eff.data();
    cargs.det_hash = scratch.det_hash.data();
    cargs.dup_hash = any_dup ? scratch.dup_hash.data() : nullptr;
    cargs.dup_prob = scratch.obj_dup_prob.data();
    cargs.sure_lo = sure_lo;
    cargs.sure_hi = sure_hi;
    cargs.inv_band_width = inv_band_width;
    cargs.band_clamp = static_cast<uint64_t>(RecallBands::kBands);
    cargs.s50 = s50;
    cargs.width = width;
    cargs.plateau = plateau;
    cargs.banded = use_bands;
    cargs.contrib = scratch.contrib.data();
    // The vector kernel implements only the banded fast path; a class whose
    // band table is unusable takes the scalar exact loop on any ISA.
    (use_bands ? kDetectContrib : &DetectContribScalar)(cargs, total_objs);
  }

  // Knuth-limit memo for the false-positive Poisson: fp_lambda is a pure
  // function of the frame's total object count within one batch, so
  // exp(-lambda) is computed once per distinct count instead of per frame.
  scratch.knuth_limits.clear();

  // Pass 3 (per frame, scalar): sum the frame's contiguous run of object
  // contributions, then the false-positive draw.
  k = 0;
  // Local pointers keep the hot loop free of thread-local address
  // recomputation (the scratch reference is TLS-backed, and the compiler
  // re-derives its data pointers after any opaque call otherwise).
  const uint64_t* contrib_col = scratch.contrib.data();
  const uint64_t* fp_hash_col = scratch.fp_hash.data();
  const uint64_t* fp_u53_col = scratch.fp_u53.data();
  for (size_t i = 0; i < n; ++i) {
    const int64_t frame_index = frame_indices[i];
    int count = 0;
    if (class_detectable) {
      const size_t f = static_cast<size_t>(frame_index);
      const size_t num_objs = col.offsets[f + 1] - col.offsets[f];
      uint64_t c = 0;
      for (const size_t end = k + num_objs; k < end; ++k) c += contrib_col[k];
      count = static_cast<int>(c);
    }

    // Clutter-driven false positives, identical to the scalar path: the
    // clutter statistic counts objects of ALL classes (read from the index's
    // per-frame totals, not the queried column).
    const uint32_t total = total_objects[static_cast<size_t>(frame_index)];
    const double clutter_factor = 1.0 + 0.03 * static_cast<double>(total);
    const double fp_lambda = cal.fp_rate * res_factor * clutter_factor;
    if (fp_lambda > 0.0) {
      const uint64_t fp_hash = fp_hash_col[i];
      if (fp_lambda < 30.0) {
        if (scratch.knuth_limits.size() <= total) scratch.knuth_limits.resize(total + 1, -1.0);
        double limit = scratch.knuth_limits[total];
        if (limit < 0.0) {
          limit = std::exp(-fp_lambda);
          scratch.knuth_limits[total] = limit;
        }
        // First uniform precomputed lane-parallel: prod <= limit means the
        // Knuth loop body never runs and the draw is 0. Only a frame that
        // actually emits a false positive reseeds the full generator (the
        // recompute repeats the first draw, which is identical by
        // construction).
        const double first_u = static_cast<double>(fp_u53_col[i]) * 0x1.0p-53;
        if (first_u > limit) [[unlikely]] {
          count += stats::PoissonFromHashKnuth(limit, fp_hash);
        }
      } else {
        count += stats::PoissonFromHash(fp_lambda, fp_hash);
      }
    }
    out[i] = count;
  }
  return Status::OK();
}

}  // namespace detect
}  // namespace smokescreen
