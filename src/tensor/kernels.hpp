#pragma once
// Vector kernels shared by the BCPNN layers and the baselines. Every
// function routes through the runtime-dispatched SIMD KernelSet
// (tensor/kernel_set.hpp) — scalar / SSE4.2 / AVX2 selected once at
// startup via CPUID — so callers get the best tier the host supports
// without caring about instruction sets. `softmax_blocks` is the
// per-hypercolumn soft-WTA primitive at the heart of BCPNN.

#include <cstddef>

#include "tensor/matrix.hpp"

namespace streambrain::tensor {

/// y += alpha * x (saxpy).
void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept;

/// x *= alpha.
void scale(float alpha, float* x, std::size_t n) noexcept;

/// dot product.
float dot(const float* x, const float* y, std::size_t n) noexcept;

/// Sum of elements.
float sum(const float* x, std::size_t n) noexcept;

/// Maximum element (-FLT_MAX when n == 0).
float reduce_max(const float* x, std::size_t n) noexcept;

/// In-place rectified linear unit: x[i] = max(x[i], 0).
void relu(float* x, std::size_t n) noexcept;

/// Zero x[i] wherever gate[i] <= threshold (ReLU backprop masking;
/// `gate` may alias `x`).
void threshold_mask(const float* gate, float threshold, float* x,
                    std::size_t n) noexcept;

/// y[i] = dot(A.row(i), x) for row-major A [m x k] (matrix-vector).
void gemv(const MatrixF& a, const float* x, float* y) noexcept;

/// Adds `bias` (length cols) to each row of `m`.
void add_row_bias(MatrixF& m, const float* bias) noexcept;

/// In-place exponential moving-average update: p += rate * (x - p).
void ema_update(float* p, const float* x, float rate, std::size_t n) noexcept;

/// Fused SGD momentum step over weights w, velocity v, gradient g:
///   v = mu * v - lr * (g + l2 * w);  w += v   (single pass).
void momentum_update(float mu, float lr, float l2, const float* g, float* w,
                     float* v, std::size_t n) noexcept;

/// out[c] = sum over rows of m(r, c); out (length cols) is zeroed first.
/// Row-ascending accumulation (deterministic). The bias-gradient
/// primitive: col_sums + scale + momentum_update is the shared bias
/// update path of SgdHead and Mlp.
void col_sums(const MatrixF& m, float* out) noexcept;

/// Numerically-stable softmax over each contiguous block of `block` values
/// in every row of `m` (rows must be a multiple of `block` wide). This is
/// the hypercolumn normalization: each HCU's MCUs form one block and the
/// activations within a block sum to exactly 1.
void softmax_blocks(MatrixF& m, std::size_t block);

/// Same as softmax_blocks but with an inverse-temperature factor applied
/// to the supports before normalization.
void softmax_blocks_temperature(MatrixF& m, std::size_t block,
                                float inverse_temperature);

/// Hard winner-take-all within each block: winner gets 1, rest 0.
/// Ties resolve to the lowest index (deterministic). Throws
/// std::invalid_argument unless the row width is a nonzero multiple of
/// `block` (like softmax_blocks).
void wta_blocks(MatrixF& m, std::size_t block);

/// Row-wise argmax (returns column index per row).
void argmax_rows(const MatrixF& m, std::size_t* out) noexcept;

}  // namespace streambrain::tensor
