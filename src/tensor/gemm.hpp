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
