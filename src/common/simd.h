#ifndef COMMSIG_COMMON_SIMD_H_
#define COMMSIG_COMMON_SIMD_H_

// Portable SIMD abstraction for the RWR and distance hot loops.
//
// One backend is selected at configure time via -DCOMMSIG_SIMD=auto|avx2|
// neon|off (see the resolution block in the top-level CMakeLists.txt):
// AVX2 on x86-64, NEON on aarch64, or a scalar fallback that compiles the
// same call sites to plain loops. Raw ISA intrinsics are confined to this
// header — the analyzer's determinism pass (tools/analyze/, rule
// raw-simd-intrinsic) fails any `_mm*`/`vld1q*` outside it — so kernel
// code in src/core/ only ever sees the wrapper types below.
//
// Bit-identity contract. Every operation on VecD is elementwise and maps
// to exactly one IEEE-754 double operation per lane (no FMA contraction,
// no reassociation), so a kernel built from VecD ops performs, per logical
// lane, the same rounded operations in the same order as its scalar
// transliteration. VecD is always kLanes = 4 doubles wide regardless of
// backend (NEON runs it as 2×2, the scalar fallback as 4 plain doubles),
// and ReduceAdd fixes one canonical reduction order, so accumulations
// built on VecD are bit-identical across -DCOMMSIG_SIMD=off/avx2/neon
// builds. sqrt is correctly rounded on every backend; Abs is a sign-bit
// mask; Min/Max assume no NaNs (signature weights are filtered finite).

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(COMMSIG_SIMD_AVX2)
#include <immintrin.h>
#elif defined(COMMSIG_SIMD_NEON)
#include <arm_neon.h>
#endif

namespace commsig {
namespace simd {

/// Logical vector width in doubles — fixed across backends so accumulation
/// patterns (and therefore results) do not depend on the ISA.
inline constexpr size_t kLanes = 4;

#if defined(COMMSIG_SIMD_AVX2) || defined(COMMSIG_SIMD_NEON)
inline constexpr bool kHasIsa = true;
#else
inline constexpr bool kHasIsa = false;
#endif

/// Name of the active backend, for logs and bench snapshots.
constexpr const char* IsaName() {
#if defined(COMMSIG_SIMD_AVX2)
  return "avx2";
#elif defined(COMMSIG_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

namespace detail {
// Runtime kill-switch for the vectorized loop kernels (the VecD type
// itself is always available). Plain bool, not atomic: it is flipped only
// from single-threaded setup code (benchmarks measuring the scalar
// baseline, equivalence tests), never mid-computation.
extern bool g_runtime_enabled;

// The scalar reference loops double as the in-run benchmark baseline, so
// they must stay honestly scalar even at -O3: without this attribute the
// auto-vectorizer would turn the "scalar" path into SIMD and the measured
// speedup gauges would compare vector against vector.
#if defined(__GNUC__) && !defined(__clang__)
#define COMMSIG_SIMD_NOVEC __attribute__((optimize("no-tree-vectorize")))
#else
#define COMMSIG_SIMD_NOVEC
#endif
}  // namespace detail

/// True when the vectorized kernel paths are compiled in and enabled.
inline bool Enabled() { return kHasIsa && detail::g_runtime_enabled; }

/// Enables/disables the vectorized kernel paths at runtime. Call only from
/// single-threaded setup (tests and benches); results are bit-identical
/// either way, only the speed changes.
inline void SetEnabled(bool on) { detail::g_runtime_enabled = on; }

/// RAII guard forcing the scalar paths for one scope (bench baselines,
/// scalar-vs-SIMD equivalence tests).
class ScopedScalar {
 public:
  ScopedScalar() : prev_(detail::g_runtime_enabled) { SetEnabled(false); }
  ~ScopedScalar() { SetEnabled(prev_); }
  ScopedScalar(const ScopedScalar&) = delete;
  ScopedScalar& operator=(const ScopedScalar&) = delete;

 private:
  bool prev_;
};

// ---------------------------------------------------------------------------
// VecD: four doubles, elementwise ops, one IEEE operation per lane.
// ---------------------------------------------------------------------------

#if defined(COMMSIG_SIMD_AVX2)

struct VecD {
  __m256d v;
};

inline VecD LoadU(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void StoreU(double* p, VecD x) { _mm256_storeu_pd(p, x.v); }
inline VecD Broadcast(double x) { return {_mm256_set1_pd(x)}; }
inline VecD Zero() { return {_mm256_setzero_pd()}; }
inline VecD Add(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
inline VecD Sub(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline VecD Mul(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline VecD Min(VecD a, VecD b) { return {_mm256_min_pd(a.v, b.v)}; }
inline VecD Max(VecD a, VecD b) { return {_mm256_max_pd(a.v, b.v)}; }
inline VecD Sqrt(VecD a) { return {_mm256_sqrt_pd(a.v)}; }
inline VecD Abs(VecD a) {
  const __m256d mask = _mm256_castsi256_pd(_mm256_set1_epi64x(
      static_cast<int64_t>(0x7fffffffffffffffULL)));
  return {_mm256_and_pd(a.v, mask)};
}

#elif defined(COMMSIG_SIMD_NEON)

struct VecD {
  float64x2_t lo;
  float64x2_t hi;
};

inline VecD LoadU(const double* p) { return {vld1q_f64(p), vld1q_f64(p + 2)}; }
inline void StoreU(double* p, VecD x) {
  vst1q_f64(p, x.lo);
  vst1q_f64(p + 2, x.hi);
}
inline VecD Broadcast(double x) { return {vdupq_n_f64(x), vdupq_n_f64(x)}; }
inline VecD Zero() { return Broadcast(0.0); }
inline VecD Add(VecD a, VecD b) {
  return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
}
inline VecD Sub(VecD a, VecD b) {
  return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
}
inline VecD Mul(VecD a, VecD b) {
  return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
}
inline VecD Min(VecD a, VecD b) {
  return {vminq_f64(a.lo, b.lo), vminq_f64(a.hi, b.hi)};
}
inline VecD Max(VecD a, VecD b) {
  return {vmaxq_f64(a.lo, b.lo), vmaxq_f64(a.hi, b.hi)};
}
inline VecD Sqrt(VecD a) { return {vsqrtq_f64(a.lo), vsqrtq_f64(a.hi)}; }
inline VecD Abs(VecD a) { return {vabsq_f64(a.lo), vabsq_f64(a.hi)}; }

#else  // scalar fallback

struct VecD {
  double v[4];
};

inline VecD LoadU(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
inline void StoreU(double* p, VecD x) {
  p[0] = x.v[0];
  p[1] = x.v[1];
  p[2] = x.v[2];
  p[3] = x.v[3];
}
inline VecD Broadcast(double x) { return {{x, x, x, x}}; }
inline VecD Zero() { return Broadcast(0.0); }
inline VecD Add(VecD a, VecD b) {
  return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
           a.v[3] + b.v[3]}};
}
inline VecD Sub(VecD a, VecD b) {
  return {{a.v[0] - b.v[0], a.v[1] - b.v[1], a.v[2] - b.v[2],
           a.v[3] - b.v[3]}};
}
inline VecD Mul(VecD a, VecD b) {
  return {{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2],
           a.v[3] * b.v[3]}};
}
inline VecD Min(VecD a, VecD b) {
  // (a < b ? a : b) per lane, matching the min-instruction semantics of
  // the vector backends for the NaN-free inputs the kernels feed in.
  return {{a.v[0] < b.v[0] ? a.v[0] : b.v[0],
           a.v[1] < b.v[1] ? a.v[1] : b.v[1],
           a.v[2] < b.v[2] ? a.v[2] : b.v[2],
           a.v[3] < b.v[3] ? a.v[3] : b.v[3]}};
}
inline VecD Max(VecD a, VecD b) {
  return {{a.v[0] > b.v[0] ? a.v[0] : b.v[0],
           a.v[1] > b.v[1] ? a.v[1] : b.v[1],
           a.v[2] > b.v[2] ? a.v[2] : b.v[2],
           a.v[3] > b.v[3] ? a.v[3] : b.v[3]}};
}
inline VecD Sqrt(VecD a) {
  return {{std::sqrt(a.v[0]), std::sqrt(a.v[1]), std::sqrt(a.v[2]),
           std::sqrt(a.v[3])}};
}
inline VecD Abs(VecD a) {
  return {{std::fabs(a.v[0]), std::fabs(a.v[1]), std::fabs(a.v[2]),
           std::fabs(a.v[3])}};
}

#endif

/// Canonical horizontal sum: (l0 + l1) + (l2 + l3). Fixed across backends
/// so reductions built on VecD are bit-identical everywhere; it runs once
/// per kernel call, so the scalar extract cost is irrelevant.
inline double ReduceAdd(VecD x) {
  double lanes[kLanes];
  StoreU(lanes, x);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

// ---------------------------------------------------------------------------
// Byte-equality masks for the ingestion chunk scanner. The parse workers
// locate every field delimiter and newline in a chunk with one structural
// pass instead of a memchr per line plus a re-scan per field; this primitive
// turns 64 input bytes into a position bitmask per needle byte. Output is a
// pure function of the bytes, identical on every backend, so the scanner
// built on it needs no runtime switch — only the speed differs.
// ---------------------------------------------------------------------------

#if defined(COMMSIG_SIMD_AVX2)

/// Fills `ma`/`mb`: bit i is set iff p[i] == a (resp. b). All 64 bytes at
/// `p` must be readable; callers handle buffer tails by copying into a
/// padded stack block and masking off the bits past the real length.
inline void ByteEq2Mask64(const char* p, char a, char b, uint64_t& ma,
                          uint64_t& mb) {
  const __m256i na = _mm256_set1_epi8(a);
  const __m256i nb = _mm256_set1_epi8(b);
  const __m256i lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
  const uint32_t a_lo = static_cast<uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, na)));
  const uint32_t a_hi = static_cast<uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, na)));
  const uint32_t b_lo = static_cast<uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, nb)));
  const uint32_t b_hi = static_cast<uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, nb)));
  ma = (static_cast<uint64_t>(a_hi) << 32) | a_lo;
  mb = (static_cast<uint64_t>(b_hi) << 32) | b_lo;
}

#else

/// SWAR fallback: an exact zero-byte detector marks matching bytes' high
/// bits — the high bit of ((x&0x7f)+0x7f) | x is set iff byte x != 0, with
/// no cross-byte carries, unlike the shorter (x-kLow)&~x form whose borrow
/// also flags a byte equal to 1 above a true match. The 0x0102040810204080
/// multiply then gathers one bit per byte into the top byte of the
/// product. Same output as the AVX2 path, bit for bit.
inline void ByteEq2Mask64(const char* p, char a, char b, uint64_t& ma,
                          uint64_t& mb) {
  constexpr uint64_t kLow = 0x0101010101010101ull;
  constexpr uint64_t kSeven = 0x7f7f7f7f7f7f7f7full;
  constexpr uint64_t kGather = 0x0102040810204080ull;
  const uint64_t pat_a = kLow * static_cast<unsigned char>(a);
  const uint64_t pat_b = kLow * static_cast<unsigned char>(b);
  ma = 0;
  mb = 0;
  for (int w = 0; w < 8; ++w) {
    uint64_t word;
    std::memcpy(&word, p + w * 8, 8);
    const uint64_t da = word ^ pat_a;
    const uint64_t db = word ^ pat_b;
    const uint64_t ha = ~(((da & kSeven) + kSeven) | da | kSeven);
    const uint64_t hb = ~(((db & kSeven) + kSeven) | db | kSeven);
    ma |= (((ha >> 7) * kGather) >> 56) << (8 * w);
    mb |= (((hb >> 7) * kGather) >> 56) << (8 * w);
  }
}

#endif

// ---------------------------------------------------------------------------
// Fused loop kernels for the RWR block power iteration. All are strictly
// elementwise (independent lanes, one mul and/or one add per element), so
// the vectorized and scalar paths — and therefore every backend — produce
// bit-identical results; the runtime Enabled() switch only selects speed.
// ---------------------------------------------------------------------------

namespace detail {

COMMSIG_SIMD_NOVEC inline void AxpyRowScalar(double* row, const double* scale,
                                             double w, size_t n) {
  for (size_t i = 0; i < n; ++i) row[i] += scale[i] * w;
}

COMMSIG_SIMD_NOVEC inline void AccumAddScalar(double* acc, const double* x,
                                              size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += x[i];
}

COMMSIG_SIMD_NOVEC inline void ScaleIntoScalar(double* dst, const double* src,
                                               double s, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = src[i] * s;
}

COMMSIG_SIMD_NOVEC inline void AccumAbsDiffScalar(double* acc, const double* a,
                                                  const double* b, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += std::fabs(a[i] - b[i]);
}

COMMSIG_SIMD_NOVEC inline void ExtrapolateScalar(double* x, const double* prev,
                                                 double w, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = w * (x[i] - prev[i]) + prev[i];
}

}  // namespace detail

/// row[i] += scale[i] * w — the per-edge scatter of the block power
/// iteration. Separate mul and add (never FMA): contracting would change
/// the rounding and break bit-identity with the serial solver.
inline void AxpyRow(double* row, const double* scale, double w, size_t n) {
  if (!Enabled()) {
    detail::AxpyRowScalar(row, scale, w, n);
    return;
  }
  const VecD vw = Broadcast(w);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    StoreU(row + i, Add(LoadU(row + i), Mul(LoadU(scale + i), vw)));
  }
  for (; i < n; ++i) row[i] += scale[i] * w;
}

/// acc[i] += x[i].
inline void AccumAdd(double* acc, const double* x, size_t n) {
  if (!Enabled()) {
    detail::AccumAddScalar(acc, x, n);
    return;
  }
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    StoreU(acc + i, Add(LoadU(acc + i), LoadU(x + i)));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

/// dst[i] = src[i] * s.
inline void ScaleInto(double* dst, const double* src, double s, size_t n) {
  if (!Enabled()) {
    detail::ScaleIntoScalar(dst, src, s, n);
    return;
  }
  const VecD vs = Broadcast(s);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    StoreU(dst + i, Mul(LoadU(src + i), vs));
  }
  for (; i < n; ++i) dst[i] = src[i] * s;
}

/// acc[i] += |a[i] - b[i]| — the per-column L1 convergence accumulation.
inline void AccumAbsDiff(double* acc, const double* a, const double* b,
                         size_t n) {
  if (!Enabled()) {
    detail::AccumAbsDiffScalar(acc, a, b, n);
    return;
  }
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    StoreU(acc + i, Add(LoadU(acc + i), Abs(Sub(LoadU(a + i), LoadU(b + i)))));
  }
  for (; i < n; ++i) acc[i] += std::fabs(a[i] - b[i]);
}

/// x[i] = w * (x[i] - prev[i]) + prev[i] — the Chebyshev three-term step
/// of the unbounded RWR iteration. Sub, mul, add in that order (never FMA),
/// the same rounded operations as the serial oracle's loop.
inline void Extrapolate(double* x, const double* prev, double w, size_t n) {
  if (!Enabled()) {
    detail::ExtrapolateScalar(x, prev, w, n);
    return;
  }
  const VecD vw = Broadcast(w);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const VecD p = LoadU(prev + i);
    StoreU(x + i, Add(Mul(vw, Sub(LoadU(x + i), p)), p));
  }
  for (; i < n; ++i) x[i] = w * (x[i] - prev[i]) + prev[i];
}

}  // namespace simd
}  // namespace commsig

#endif  // COMMSIG_COMMON_SIMD_H_
