// AVX2+FMA kernel tier. The shared bodies are compiled with
// -mavx2 -mfma -fopenmp-simd -fno-trapping-math (8 float lanes); the GEMM
// tile is replaced by a hand-written micro-kernel with 4-row x 16-column
// register blocking, which loads each B panel row once per 4 rows of A
// and keeps 8 FMA accumulators live, and the sparse-A rows by an FMA
// kernel with the same per-element arithmetic. When the build lacks the
// flags this TU degrades to a null tier.

#include "tensor/kernel_tiers.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

// NOTE: no shared headers with inline function definitions beyond the
// vtable/tier plumbing — see k_exp2i in kernel_impl.inl for why.
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace streambrain::tensor {
namespace avx2_impl {

// Gather+FMA sparse dot, declared ahead of the shared bodies because
// k_spmv/k_spmm in kernel_impl.inl call it. Two 8-lane accumulators hide
// part of the gather latency; the scalar tail keeps ascending-column
// order so the tolerance analysis matches the other reductions.
inline float k_spdot(const float* values, const std::uint32_t* col_idx,
                     std::size_t nnz, const float* x) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t p = 0;
  for (; p + 16 <= nnz; p += 16) {
    const __m256i idx0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col_idx + p));
    const __m256i idx1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col_idx + p + 8));
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(values + p),
                           _mm256_i32gather_ps(x, idx0, 4), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(values + p + 8),
                           _mm256_i32gather_ps(x, idx1, 4), acc1);
  }
  for (; p + 8 <= nnz; p += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col_idx + p));
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(values + p),
                           _mm256_i32gather_ps(x, idx, 4), acc0);
  }
  acc0 = _mm256_add_ps(acc0, acc1);
  __m128 half = _mm_add_ps(_mm256_castps256_ps128(acc0),
                           _mm256_extractf128_ps(acc0, 1));
  half = _mm_hadd_ps(half, half);
  half = _mm_hadd_ps(half, half);
  float acc = _mm_cvtss_f32(half);
  for (; p < nnz; ++p) acc += values[p] * x[col_idx[p]];
  return acc;
}

// Widening int8 block dot for the quantized kernels, declared ahead of
// the shared bodies because k_qgemv in kernel_impl.inl calls it. One
// maddubs (u8 x i8 -> pairwise i16 sums; the driver caps activation
// codes at 127, so 2 * 127 * 127 = 32258 never saturates) feeds one
// madd-by-ones widen to i32 per 32 codes — 4x the elements per vector
// of the fp32 dot. Integer accumulation is exact, so the horizontal
// reduction order is free and the result is bit-identical to the
// scalar tier's ordered loop.
inline std::int32_t k_qblock_dot(const std::int8_t* qa,
                                 const std::uint8_t* qx, std::size_t n) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qa + j));
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qx + j));
    const __m256i pairs = _mm256_maddubs_epi16(x, a);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
  }
  __m128i half = _mm_add_epi32(_mm256_castsi256_si128(acc),
                               _mm256_extracti128_si256(acc, 1));
  half = _mm_add_epi32(half, _mm_shuffle_epi32(half, _MM_SHUFFLE(1, 0, 3, 2)));
  half = _mm_add_epi32(half, _mm_shuffle_epi32(half, _MM_SHUFFLE(2, 3, 0, 1)));
  std::int32_t total = _mm_cvtsi128_si32(half);
  for (; j < n; ++j) {
    total += static_cast<std::int32_t>(qa[j]) * static_cast<std::int32_t>(qx[j]);
  }
  return total;
}

}  // namespace avx2_impl
}  // namespace streambrain::tensor

#define SB_KERNEL_CUSTOM_SPDOT
#define SB_KERNEL_CUSTOM_QBLOCK_DOT
#define SB_KERNEL_CUSTOM_GEMM_BLOCK
#define SB_KERNEL_NS avx2_impl
#define SB_SIMD_LOOP _Pragma("omp simd")
#define SB_SIMD_REDUCE(...) _Pragma(SB_PRAGMA_STR(omp simd reduction(__VA_ARGS__)))
#define SB_PRAGMA_STR(x) #x
#include "tensor/kernel_impl.inl"
#undef SB_KERNEL_NS
#undef SB_SIMD_LOOP
#undef SB_SIMD_REDUCE
#undef SB_PRAGMA_STR
#undef SB_KERNEL_CUSTOM_GEMM_BLOCK
#undef SB_KERNEL_CUSTOM_QBLOCK_DOT
#undef SB_KERNEL_CUSTOM_SPDOT

namespace streambrain::tensor {
namespace avx2_impl {

namespace {

// One row of C over the column range [0, n): c_row += alpha * a_row . B.
// k ascends for every element, matching the generic tier's order.
inline void gemm_row1(float alpha, const float* a_row, const float* b,
                      std::size_t ldb, float* c_row, std::size_t n,
                      std::size_t k) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc0 = _mm256_loadu_ps(c_row + j);
    __m256 acc1 = _mm256_loadu_ps(c_row + j + 8);
    for (std::size_t p = 0; p < k; ++p) {
      const __m256 av = _mm256_set1_ps(alpha * a_row[p]);
      const float* b_row = b + p * ldb + j;
      acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row), acc0);
      acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row + 8), acc1);
    }
    _mm256_storeu_ps(c_row + j, acc0);
    _mm256_storeu_ps(c_row + j + 8, acc1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_loadu_ps(c_row + j);
    for (std::size_t p = 0; p < k; ++p) {
      const __m256 av = _mm256_set1_ps(alpha * a_row[p]);
      acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + p * ldb + j), acc);
    }
    _mm256_storeu_ps(c_row + j, acc);
  }
  for (; j < n; ++j) {
    float acc = c_row[j];
    for (std::size_t p = 0; p < k; ++p) {
      acc = std::fma(alpha * a_row[p], b[p * ldb + j], acc);
    }
    c_row[j] = acc;
  }
}

// Four rows of C at once: each B panel row is loaded once and feeds four
// FMA accumulator pairs, quadrupling the arithmetic per byte of B.
inline void gemm_rows4(float alpha, const float* a, std::size_t lda,
                       const float* b, std::size_t ldb, float* c,
                       std::size_t ldc, std::size_t n, std::size_t k) {
  const float* a0 = a;
  const float* a1 = a + lda;
  const float* a2 = a + 2 * lda;
  const float* a3 = a + 3 * lda;
  float* c0 = c;
  float* c1 = c + ldc;
  float* c2 = c + 2 * ldc;
  float* c3 = c + 3 * ldc;

  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 r00 = _mm256_loadu_ps(c0 + j), r01 = _mm256_loadu_ps(c0 + j + 8);
    __m256 r10 = _mm256_loadu_ps(c1 + j), r11 = _mm256_loadu_ps(c1 + j + 8);
    __m256 r20 = _mm256_loadu_ps(c2 + j), r21 = _mm256_loadu_ps(c2 + j + 8);
    __m256 r30 = _mm256_loadu_ps(c3 + j), r31 = _mm256_loadu_ps(c3 + j + 8);
    for (std::size_t p = 0; p < k; ++p) {
      const float* b_row = b + p * ldb + j;
      const __m256 b0 = _mm256_loadu_ps(b_row);
      const __m256 b1 = _mm256_loadu_ps(b_row + 8);
      __m256 av = _mm256_set1_ps(alpha * a0[p]);
      r00 = _mm256_fmadd_ps(av, b0, r00);
      r01 = _mm256_fmadd_ps(av, b1, r01);
      av = _mm256_set1_ps(alpha * a1[p]);
      r10 = _mm256_fmadd_ps(av, b0, r10);
      r11 = _mm256_fmadd_ps(av, b1, r11);
      av = _mm256_set1_ps(alpha * a2[p]);
      r20 = _mm256_fmadd_ps(av, b0, r20);
      r21 = _mm256_fmadd_ps(av, b1, r21);
      av = _mm256_set1_ps(alpha * a3[p]);
      r30 = _mm256_fmadd_ps(av, b0, r30);
      r31 = _mm256_fmadd_ps(av, b1, r31);
    }
    _mm256_storeu_ps(c0 + j, r00);
    _mm256_storeu_ps(c0 + j + 8, r01);
    _mm256_storeu_ps(c1 + j, r10);
    _mm256_storeu_ps(c1 + j + 8, r11);
    _mm256_storeu_ps(c2 + j, r20);
    _mm256_storeu_ps(c2 + j + 8, r21);
    _mm256_storeu_ps(c3 + j, r30);
    _mm256_storeu_ps(c3 + j + 8, r31);
  }
  if (j < n) {
    gemm_row1(alpha, a0, b + j, ldb, c0 + j, n - j, k);
    gemm_row1(alpha, a1, b + j, ldb, c1 + j, n - j, k);
    gemm_row1(alpha, a2, b + j, ldb, c2 + j, n - j, k);
    gemm_row1(alpha, a3, b + j, ldb, c3 + j, n - j, k);
  }
}

}  // namespace

inline void k_gemm_block(float alpha, const float* a, std::size_t lda,
                         const float* b, std::size_t ldb, float* c,
                         std::size_t ldc, std::size_t mr, std::size_t n,
                         std::size_t k) {
  std::size_t i = 0;
  for (; i + 4 <= mr; i += 4) {
    gemm_rows4(alpha, a + i * lda, lda, b, ldb, c + i * ldc, ldc, n, k);
  }
  for (; i < mr; ++i) {
    gemm_row1(alpha, a + i * lda, b, ldb, c + i * ldc, n, k);
  }
}

namespace {

// Columns [j, j + 64) of one sparse row (masked past n when kTail): one
// fma per stored entry in 8 independent 8-lane chains, C keeping its old
// value until the store. A -0.0 lane may differ from the dense sweep,
// which adds the omitted +0.0 terms; those lanes are recomputed.
template <bool kTail>
inline void sparse_row_block(float alpha, const std::uint32_t* cols,
                             const float* values, std::size_t nnz,
                             const float* b, std::size_t ldb, float* c_row,
                             std::size_t j, std::size_t n, std::size_t k) {
  constexpr int kVectors = 8;
  __m256i mask[kVectors];
  if constexpr (kTail) {
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for (int t = 0; t < kVectors; ++t) {
      mask[t] = _mm256_cmpgt_epi32(
          _mm256_set1_epi32(static_cast<int>(n - j) - 8 * t), lane);
    }
  }
  const auto load = [&](const float* from, int t) {
    if constexpr (kTail) return _mm256_maskload_ps(from + 8 * t, mask[t]);
    return _mm256_loadu_ps(from + 8 * t);
  };
  __m256 acc[kVectors];
  for (int t = 0; t < kVectors; ++t) acc[t] = load(c_row + j, t);
  for (std::size_t q = 0; q < nnz; ++q) {
    const __m256 av = _mm256_set1_ps(alpha * values[q]);
    const float* b_row = b + cols[q] * ldb + j;
    for (int t = 0; t < kVectors; ++t) {
      acc[t] = _mm256_fmadd_ps(av, load(b_row, t), acc[t]);
    }
  }
  const __m256i neg_zero = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  for (int t = 0; t < kVectors; ++t) {
    const __m256i is_neg_zero =
        _mm256_cmpeq_epi32(_mm256_castps_si256(acc[t]), neg_zero);
    int lanes = _mm256_movemask_ps(_mm256_castsi256_ps(is_neg_zero));
    if constexpr (kTail) {
      lanes &= _mm256_movemask_ps(_mm256_castsi256_ps(mask[t]));
    }
    float* out = c_row + j + 8 * t;
    if (lanes != 0) {
      alignas(32) float fixed[8];
      _mm256_store_ps(fixed, acc[t]);
      for (int lane = 0; lane < 8; ++lane) {
        if ((lanes >> lane) & 1) {
          fixed[lane] = k_gemm_dense_element(
              alpha, cols, values, nnz, b, ldb,
              j + 8 * static_cast<std::size_t>(t) +
                  static_cast<std::size_t>(lane),
              k, out[lane],
              [](float x, float y, float z) { return std::fma(x, y, z); });
        }
      }
      acc[t] = _mm256_load_ps(fixed);
    }
    if constexpr (kTail) {
      _mm256_maskstore_ps(out, mask[t], acc[t]);
    } else {
      _mm256_storeu_ps(out, acc[t]);
    }
  }
}

}  // namespace

// Sparse-A rows with gemm_row1's arithmetic: per C element one FMA per
// stored entry, k ascending, 64 columns per register block and a masked
// block for the column tail.
inline void k_gemm_sparse_a(float alpha, const std::uint64_t* row_begin,
                            const std::uint64_t* row_end,
                            const std::uint32_t* cols, const float* values,
                            const float* b, std::size_t ldb, float* c,
                            std::size_t ldc, std::size_t mr, std::size_t n,
                            std::size_t k) {
  // Column blocks outermost: every row of the panel reuses the same
  // 64-column slab of B while it is cache-hot.
  for (std::size_t j = 0; j < n; j += 64) {
    for (std::size_t i = 0; i < mr; ++i) {
      const std::uint32_t* row_cols = cols + row_begin[i];
      const float* row_values = values + row_begin[i];
      const std::size_t nnz =
          static_cast<std::size_t>(row_end[i] - row_begin[i]);
      float* c_row = c + i * ldc;
      if (j + 64 <= n) {
        sparse_row_block<false>(alpha, row_cols, row_values, nnz, b, ldb,
                                c_row, j, n, k);
      } else {
        sparse_row_block<true>(alpha, row_cols, row_values, nnz, b, ldb,
                               c_row, j, n, k);
      }
    }
  }
}

// Segmented sparse-A rows with the FMA of gemm_row1 and k_gemm_sparse_a.
inline void k_gemm_sparse_a_segmented(
    const std::uint64_t* row_begin, const std::uint64_t* row_end,
    const std::uint32_t* cols, const float* values, const float* b,
    std::size_t ldb, float* c, std::size_t ldc, std::size_t mr,
    std::size_t n, const std::size_t* seg_end, std::size_t segments) {
  k_segmented_sparse_rows(
      row_begin, row_end, cols, values, b, ldb, c, ldc, mr, n, seg_end,
      segments, [](float x, float y, float z) { return std::fma(x, y, z); });
}

}  // namespace avx2_impl

namespace detail {

const KernelSet* kernel_set_avx2() noexcept {
  using namespace streambrain::tensor::avx2_impl;
  static const KernelSet set = {
      DispatchLevel::kAvx2,
      dispatch_level_name(DispatchLevel::kAvx2),
      dispatch_level_width(DispatchLevel::kAvx2),
      &k_axpy,
      &k_scale,
      &k_dot,
      &k_sum,
      &k_reduce_max,
      &k_ema_update,
      &k_relu,
      &k_threshold_mask,
      &k_vexp,
      &k_vlog_floored,
      &k_softmax_block,
      &k_gemv,
      &k_gemm_block,
      &k_gemm_sparse_a,
      &k_gemm_sparse_a_segmented,
      &k_momentum_update,
      &k_spmv,
      &k_spmm,
      &k_qgemv,
      &k_qgemm,
      &k_qspmv,
  };
  return &set;
}

}  // namespace detail
}  // namespace streambrain::tensor

#else  // !(__AVX2__ && __FMA__)

namespace streambrain::tensor::detail {
const KernelSet* kernel_set_avx2() noexcept { return nullptr; }
}  // namespace streambrain::tensor::detail

#endif
