// RTDS_SIMD: the portable vector layer under the search hot path.
//
// Three kernels cover the Fig. 4 inner loops:
//
//   feasible_workers_mask — one candidate task against all m workers
//                           (assignment-oriented expansion; lanes are
//                           workers, the ce_k vector streams in).
//   feasible_word_mask    — one worker against the 64 consideration-order
//                           positions of one unassigned-bitset word
//                           (sequence-oriented expansion; lanes are tasks,
//                           read contiguously from the position-ordered SoA
//                           constants).
//   max_i64 / min_i64     — the CE = max_k ce_k load scan and its min
//                           (cursor-hoist) twin.
//
// Every kernel has a `_scalar` reference variant that is ALWAYS compiled,
// regardless of target flags; the vector paths are proven against it by
// tests/search/simd_parity_test.cc. Backend selection is at build time:
// AVX2 when the TU is compiled with -mavx2/-march=native, NEON on AArch64,
// otherwise the scalar variants (written as plain countable loops so the
// autovectorizer can still do its thing). Defining RTDS_SIMD_FORCE_SCALAR
// pins the scalar paths on any hardware — the CI scalar-fallback leg and
// the parity tests use it.
//
// Contract (relied on for bit-identical SearchResults): each vector kernel
// computes EXACTLY the scalar recurrence per lane —
//
//   comm  = (affinity bit set) ? 0 : comm_us      (cut-through networks)
//   start = max(ce_k, es)
//   feasible iff start + p + comm <= d
//
// with 64-bit two's-complement arithmetic, so the returned bitmask equals
// the scalar loop's verdicts bit for bit. All operands are microsecond
// counts far below 2^62; no kernel may reassociate in a way that changes
// results under that bound.
#pragma once

#include <cstddef>
#include <cstdint>

#if !defined(RTDS_SIMD_FORCE_SCALAR)
#if defined(__AVX2__)
#define RTDS_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define RTDS_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace rtds::search::simd {

[[nodiscard]] inline const char* backend_name() {
#if defined(RTDS_SIMD_AVX2)
  return "avx2";
#elif defined(RTDS_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

// ---------------------------------------------------------------------------
// Scalar reference kernels. These ARE the specification; the vector paths
// below must agree with them on every input the engines can produce.
// ---------------------------------------------------------------------------

/// Bit k set iff worker k can finish the candidate task by its deadline:
/// max(ce[k], es) + p + ((aff >> k) & 1 ? 0 : comm) <= d. Workers >= m are
/// clear. Requires m <= 64.
[[nodiscard]] inline std::uint64_t feasible_workers_mask_scalar(
    const std::int64_t* ce, std::uint32_t m, std::int64_t p_us,
    std::int64_t es_us, std::int64_t d_us, std::int64_t comm_us,
    std::uint64_t aff_bits) {
  std::uint64_t mask = 0;
  for (std::uint32_t k = 0; k < m; ++k) {
    const std::int64_t comm = ((aff_bits >> k) & 1u) != 0 ? 0 : comm_us;
    const std::int64_t start = ce[k] > es_us ? ce[k] : es_us;
    if (start + p_us + comm <= d_us) mask |= std::uint64_t{1} << k;
  }
  return mask;
}

/// Lanes of feasible_word_mask: one 64-bit unassigned-bitset word.
inline constexpr std::uint32_t kWordLanes = 64;

/// Bit j set iff lane j fits on `worker` (whose load is ce_w):
/// max(ce_w, es[j]) + p[j] + ((aff[j] >> worker) & 1 ? 0 : comm) <= d[j].
/// p/es/d/aff point at kWordLanes contiguous lanes of the SoA constants
/// arrays (one bitset word of consideration-order positions); every lane is
/// read and tested, and callers discard the bits of lanes they don't want.
[[nodiscard]] inline std::uint64_t feasible_word_mask_scalar(
    std::int64_t ce_w, std::uint32_t worker, const std::int64_t* p_us,
    const std::int64_t* es_us, const std::int64_t* d_us,
    const std::uint64_t* aff_bits, std::int64_t comm_us) {
  std::uint64_t mask = 0;
  for (std::uint32_t j = 0; j < kWordLanes; ++j) {
    const std::int64_t comm =
        ((aff_bits[j] >> worker) & 1u) != 0 ? 0 : comm_us;
    const std::int64_t start = ce_w > es_us[j] ? ce_w : es_us[j];
    mask |= std::uint64_t{start + p_us[j] + comm <= d_us[j]} << j;
  }
  return mask;
}

/// max over v[0..m); m >= 1.
[[nodiscard]] inline std::int64_t max_i64_scalar(const std::int64_t* v,
                                                 std::uint32_t m) {
  std::int64_t best = v[0];
  for (std::uint32_t k = 1; k < m; ++k) {
    if (v[k] > best) best = v[k];
  }
  return best;
}

/// min over v[0..m); m >= 1.
[[nodiscard]] inline std::int64_t min_i64_scalar(const std::int64_t* v,
                                                 std::uint32_t m) {
  std::int64_t best = v[0];
  for (std::uint32_t k = 1; k < m; ++k) {
    if (v[k] < best) best = v[k];
  }
  return best;
}

// ---------------------------------------------------------------------------
// Dispatching kernels.
// ---------------------------------------------------------------------------

#if defined(RTDS_SIMD_AVX2)

namespace detail {

/// Lane-wise max(a, b) for epi64 (AVX2 has no _mm256_max_epi64).
[[nodiscard]] inline __m256i max_epi64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(b, a, _mm256_cmpgt_epi64(a, b));
}

/// Lane-wise min(a, b) for epi64.
[[nodiscard]] inline __m256i min_epi64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}

/// Low 4 bits = sign bit (i.e. all-ones test) of each 64-bit lane.
[[nodiscard]] inline std::uint32_t movemask_epi64(__m256i v) {
  return static_cast<std::uint32_t>(
      _mm256_movemask_pd(_mm256_castsi256_pd(v)));
}

}  // namespace detail

[[nodiscard]] inline std::uint64_t feasible_workers_mask(
    const std::int64_t* ce, std::uint32_t m, std::int64_t p_us,
    std::int64_t es_us, std::int64_t d_us, std::int64_t comm_us,
    std::uint64_t aff_bits) {
  std::uint64_t mask = 0;
  const __m256i es_v = _mm256_set1_epi64x(es_us);
  const __m256i d_v = _mm256_set1_epi64x(d_us);
  const __m256i p_v = _mm256_set1_epi64x(p_us);
  const __m256i comm_v = _mm256_set1_epi64x(comm_us);
  const __m256i one_v = _mm256_set1_epi64x(1);
  const __m256i aff_v =
      _mm256_set1_epi64x(static_cast<long long>(aff_bits));
  const __m256i four_v = _mm256_set1_epi64x(4);
  __m256i idx_v = _mm256_setr_epi64x(0, 1, 2, 3);
  std::uint32_t k = 0;
  for (; k + 4 <= m; k += 4) {
    const __m256i ce_v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ce + k));
    // comm lane = comm_us where the affinity bit is clear, else 0.
    const __m256i bit_v =
        _mm256_and_si256(_mm256_srlv_epi64(aff_v, idx_v), one_v);
    const __m256i no_aff_v = _mm256_cmpeq_epi64(bit_v, _mm256_setzero_si256());
    const __m256i c_v = _mm256_and_si256(no_aff_v, comm_v);
    const __m256i start_v = detail::max_epi64(ce_v, es_v);
    const __m256i end_v =
        _mm256_add_epi64(_mm256_add_epi64(start_v, p_v), c_v);
    // feasible iff end <= d, i.e. NOT (end > d).
    const std::uint32_t bad = detail::movemask_epi64(_mm256_cmpgt_epi64(end_v, d_v));
    mask |= static_cast<std::uint64_t>(~bad & 0xFu) << k;
    idx_v = _mm256_add_epi64(idx_v, four_v);
  }
  for (; k < m; ++k) {
    const std::int64_t comm = ((aff_bits >> k) & 1u) != 0 ? 0 : comm_us;
    const std::int64_t start = ce[k] > es_us ? ce[k] : es_us;
    if (start + p_us + comm <= d_us) mask |= std::uint64_t{1} << k;
  }
  return mask;
}

[[nodiscard]] inline std::uint64_t feasible_word_mask(
    std::int64_t ce_w, std::uint32_t worker, const std::int64_t* p_us,
    const std::int64_t* es_us, const std::int64_t* d_us,
    const std::uint64_t* aff_bits, std::int64_t comm_us) {
  std::uint64_t mask = 0;
  const __m256i ce_v = _mm256_set1_epi64x(ce_w);
  const __m256i comm_v = _mm256_set1_epi64x(comm_us);
  const __m256i one_v = _mm256_set1_epi64x(1);
  const __m128i shift_v = _mm_cvtsi32_si128(static_cast<int>(worker));
  for (std::uint32_t j = 0; j < kWordLanes; j += 4) {
    const __m256i p_v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p_us + j));
    const __m256i es_v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(es_us + j));
    const __m256i d_v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d_us + j));
    const __m256i aff_v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(aff_bits + j));
    const __m256i bit_v =
        _mm256_and_si256(_mm256_srl_epi64(aff_v, shift_v), one_v);
    const __m256i no_aff_v = _mm256_cmpeq_epi64(bit_v, _mm256_setzero_si256());
    const __m256i c_v = _mm256_and_si256(no_aff_v, comm_v);
    const __m256i start_v = detail::max_epi64(ce_v, es_v);
    const __m256i end_v =
        _mm256_add_epi64(_mm256_add_epi64(start_v, p_v), c_v);
    const std::uint32_t bad =
        detail::movemask_epi64(_mm256_cmpgt_epi64(end_v, d_v));
    mask |= static_cast<std::uint64_t>(~bad & 0xFu) << j;
  }
  return mask;
}

[[nodiscard]] inline std::int64_t max_i64(const std::int64_t* v,
                                          std::uint32_t m) {
  if (m < 8) return max_i64_scalar(v, m);
  __m256i best_v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
  std::uint32_t k = 4;
  for (; k + 4 <= m; k += 4) {
    best_v = detail::max_epi64(
        best_v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + k)));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best_v);
  std::int64_t best = lanes[0];
  for (int i = 1; i < 4; ++i) {
    if (lanes[i] > best) best = lanes[i];
  }
  for (; k < m; ++k) {
    if (v[k] > best) best = v[k];
  }
  return best;
}

[[nodiscard]] inline std::int64_t min_i64(const std::int64_t* v,
                                          std::uint32_t m) {
  if (m < 8) return min_i64_scalar(v, m);
  __m256i best_v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
  std::uint32_t k = 4;
  for (; k + 4 <= m; k += 4) {
    best_v = detail::min_epi64(
        best_v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + k)));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best_v);
  std::int64_t best = lanes[0];
  for (int i = 1; i < 4; ++i) {
    if (lanes[i] < best) best = lanes[i];
  }
  for (; k < m; ++k) {
    if (v[k] < best) best = v[k];
  }
  return best;
}

#elif defined(RTDS_SIMD_NEON)

[[nodiscard]] inline std::uint64_t feasible_workers_mask(
    const std::int64_t* ce, std::uint32_t m, std::int64_t p_us,
    std::int64_t es_us, std::int64_t d_us, std::int64_t comm_us,
    std::uint64_t aff_bits) {
  std::uint64_t mask = 0;
  const int64x2_t es_v = vdupq_n_s64(es_us);
  const int64x2_t slack_v = vdupq_n_s64(d_us - p_us);
  const int64x2_t comm_v = vdupq_n_s64(comm_us);
  std::uint32_t k = 0;
  for (; k + 2 <= m; k += 2) {
    const int64x2_t ce_v = vld1q_s64(ce + k);
    const uint64x2_t has_aff = vcombine_u64(
        vdup_n_u64(((aff_bits >> k) & 1u) != 0 ? ~0ull : 0ull),
        vdup_n_u64(((aff_bits >> (k + 1)) & 1u) != 0 ? ~0ull : 0ull));
    const int64x2_t c_v =
        vbicq_s64(comm_v, vreinterpretq_s64_u64(has_aff));
    const int64x2_t start_v = vmaxq_s64(ce_v, es_v);
    // feasible iff start + p + c <= d  <=>  start + c <= d - p; both sides
    // stay below 2^62 so the rewrite cannot change the comparison.
    const uint64x2_t ok = vcleq_s64(vaddq_s64(start_v, c_v), slack_v);
    mask |= (vgetq_lane_u64(ok, 0) & 1u) << k;
    mask |= (vgetq_lane_u64(ok, 1) & 1u) << (k + 1);
  }
  for (; k < m; ++k) {
    const std::int64_t comm = ((aff_bits >> k) & 1u) != 0 ? 0 : comm_us;
    const std::int64_t start = ce[k] > es_us ? ce[k] : es_us;
    if (start + p_us + comm <= d_us) mask |= std::uint64_t{1} << k;
  }
  return mask;
}

[[nodiscard]] inline std::uint64_t feasible_word_mask(
    std::int64_t ce_w, std::uint32_t worker, const std::int64_t* p_us,
    const std::int64_t* es_us, const std::int64_t* d_us,
    const std::uint64_t* aff_bits, std::int64_t comm_us) {
  // Two-lane NEON buys little over the reference loop here; lean on it.
  return feasible_word_mask_scalar(ce_w, worker, p_us, es_us, d_us, aff_bits,
                                   comm_us);
}

[[nodiscard]] inline std::int64_t max_i64(const std::int64_t* v,
                                          std::uint32_t m) {
  if (m < 4) return max_i64_scalar(v, m);
  int64x2_t best_v = vld1q_s64(v);
  std::uint32_t k = 2;
  for (; k + 2 <= m; k += 2) best_v = vmaxq_s64(best_v, vld1q_s64(v + k));
  std::int64_t best = vgetq_lane_s64(best_v, 0);
  if (vgetq_lane_s64(best_v, 1) > best) best = vgetq_lane_s64(best_v, 1);
  for (; k < m; ++k) {
    if (v[k] > best) best = v[k];
  }
  return best;
}

[[nodiscard]] inline std::int64_t min_i64(const std::int64_t* v,
                                          std::uint32_t m) {
  if (m < 4) return min_i64_scalar(v, m);
  int64x2_t best_v = vld1q_s64(v);
  std::uint32_t k = 2;
  for (; k + 2 <= m; k += 2) best_v = vminq_s64(best_v, vld1q_s64(v + k));
  std::int64_t best = vgetq_lane_s64(best_v, 0);
  if (vgetq_lane_s64(best_v, 1) < best) best = vgetq_lane_s64(best_v, 1);
  for (; k < m; ++k) {
    if (v[k] < best) best = v[k];
  }
  return best;
}

#else  // scalar fallback

[[nodiscard]] inline std::uint64_t feasible_workers_mask(
    const std::int64_t* ce, std::uint32_t m, std::int64_t p_us,
    std::int64_t es_us, std::int64_t d_us, std::int64_t comm_us,
    std::uint64_t aff_bits) {
  return feasible_workers_mask_scalar(ce, m, p_us, es_us, d_us, comm_us,
                                      aff_bits);
}

[[nodiscard]] inline std::uint64_t feasible_word_mask(
    std::int64_t ce_w, std::uint32_t worker, const std::int64_t* p_us,
    const std::int64_t* es_us, const std::int64_t* d_us,
    const std::uint64_t* aff_bits, std::int64_t comm_us) {
  return feasible_word_mask_scalar(ce_w, worker, p_us, es_us, d_us, aff_bits,
                                   comm_us);
}

[[nodiscard]] inline std::int64_t max_i64(const std::int64_t* v,
                                          std::uint32_t m) {
  return max_i64_scalar(v, m);
}

[[nodiscard]] inline std::int64_t min_i64(const std::int64_t* v,
                                          std::uint32_t m) {
  return min_i64_scalar(v, m);
}

#endif

}  // namespace rtds::search::simd
