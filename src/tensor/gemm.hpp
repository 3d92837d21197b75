#pragma once
// General matrix multiply kernels: C = alpha * op(A) * op(B) + beta * C.
//
// Two implementations with identical semantics:
//   gemm_naive     - triple loop, the correctness reference
//   gemm           - cache-blocked K panels through the runtime-dispatched
//                    SIMD tile kernel (tensor/kernel_set.hpp), row blocks
//                    fanned out by parallel::for_blocks
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

/// Production entry point.
void gemm(Transpose trans_a, Transpose trans_b, float alpha, const MatrixF& a,
          const MatrixF& b, float beta, MatrixF& c);

/// Convenience: C = A * B with fresh output.
MatrixF matmul(const MatrixF& a, const MatrixF& b);

}  // namespace streambrain::tensor
