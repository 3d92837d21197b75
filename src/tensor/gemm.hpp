#pragma once
// General matrix multiply kernels: C = alpha * op(A) * op(B) + beta * C.
//
// Two implementations with identical semantics:
//   gemm_naive     - triple loop, the correctness reference
//   gemm           - cache-blocked K panels through the runtime-dispatched
//                    SIMD tile kernel (tensor/kernel_set.hpp), row blocks
//                    fanned out by parallel::for_blocks; when op(A) is
//                    mostly +0.0 (one-hot codes) it skips those terms
//                    through the sparse-A kernel instead, with the same
//                    bits as the dense sweep
//
// StreamBrain expresses both BCPNN activation (batch x weights) and the
// batched trace outer-product update as GEMM, so these kernels dominate
// training time exactly as the paper's Section II-B describes.

#include <cstddef>
#include <vector>

#include "tensor/matrix.hpp"

namespace streambrain::tensor {

enum class Transpose { kNo, kYes };

/// Reference implementation; always correct, never fast.
void gemm_naive(Transpose trans_a, Transpose trans_b, float alpha,
                const MatrixF& a, const MatrixF& b, float beta, MatrixF& c);

/// Production entry point. Bit-identical to detail::gemm_dense in every
/// tier; picks the sparse-A schedule when at most a quarter of op(A) is
/// stored (entries other than +0.0), k >= 16, and alpha and B are finite.
void gemm(Transpose trans_a, Transpose trans_b, float alpha, const MatrixF& a,
          const MatrixF& b, float beta, MatrixF& c);

/// Segmented trace product. The rows of A [k x m] are cut into segments
/// [seg_end[s - 1], seg_end[s]) (the first starts at 0, the last ends at
/// k), B is the k x n window at `b` with leading dimension ldb, and
///   C[m x n] = sum over s ascending of A_s^T * B_s,
/// written to the window at `c` (leading dimension ldc). Bit-identical,
/// in every tier, to gemm(kYes, kNo, 1, A_s, B_s, 0, part_s) per segment
/// followed by `C += part_s` from C = +0.0 in segment order, without the
/// per-segment m x n blocks. Throws std::invalid_argument on bad
/// segments or strides.
void segmented_gemm_tn(const MatrixF& a, const float* b, std::size_t ldb,
                       std::size_t n, const std::vector<std::size_t>& seg_end,
                       float* c, std::size_t ldc);

namespace detail {

/// The two schedules gemm() chooses between, for the property tests and
/// bench_kernels. gemm_sparse_a matches gemm_dense bit for bit only when
/// alpha and B are finite (0 * Inf is NaN in the dense sweep).
void gemm_dense(Transpose trans_a, Transpose trans_b, float alpha,
                const MatrixF& a, const MatrixF& b, float beta, MatrixF& c);
void gemm_sparse_a(Transpose trans_a, Transpose trans_b, float alpha,
                   const MatrixF& a, const MatrixF& b, float beta,
                   MatrixF& c);

}  // namespace detail

/// Convenience: C = A * B with fresh output.
MatrixF matmul(const MatrixF& a, const MatrixF& b);

}  // namespace streambrain::tensor
