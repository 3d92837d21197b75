#pragma once
// Runtime-dispatched SIMD kernel subsystem. A KernelSet is a vtable of
// the hot-loop primitives (gemm tile, sparse-A gemm rows and their
// segmented form, gemv, axpy, dot, reductions, relu / threshold-mask,
// exp/log transforms, per-block softmax); three sets exist, one per
// instruction tier:
//
//   scalar : plain ordered loops, no reassociation — the correctness
//            reference (and the only tier on non-x86 hosts)
//   sse42  : the same algorithms compiled for SSE4.2, reductions
//            vectorized with 4 float lanes
//   avx2   : AVX2 + FMA, hand-tiled GEMM micro-kernel with 4x16
//            register blocking
//
// The active set is chosen once, at first use, by CPUID probing
// (tensor/cpu_features.hpp), and can be pinned through the environment
// variable STREAMBRAIN_DISPATCH=scalar|sse42|avx2|native. All sets share
// exact semantics; the property test suite asserts every SIMD kernel
// matches the scalar reference within 1e-5 relative tolerance.
//
// Determinism guarantee: within one set, every kernel is sequential and
// order-stable per output element, so results never depend on batch
// splits or thread scheduling — the foundation of the Predictor's
// bit-identical concurrent serving.

#include <cstddef>
#include <cstdint>

#include "tensor/cpu_features.hpp"

namespace streambrain::tensor {

struct KernelSet {
  DispatchLevel level = DispatchLevel::kScalar;
  const char* name = "scalar";   ///< == dispatch_level_name(level)
  std::size_t simd_width = 1;    ///< float lanes of the inner loops

  /// y[i] += alpha * x[i]
  void (*axpy)(float alpha, const float* x, float* y, std::size_t n);
  /// x[i] *= alpha
  void (*scale)(float alpha, float* x, std::size_t n);
  /// sum_i x[i] * y[i]
  float (*dot)(const float* x, const float* y, std::size_t n);
  /// sum_i x[i]
  float (*sum)(const float* x, std::size_t n);
  /// max_i x[i]; returns -FLT_MAX for n == 0
  float (*reduce_max)(const float* x, std::size_t n);
  /// p[i] += rate * (x[i] - p[i])
  void (*ema_update)(float* p, const float* x, float rate, std::size_t n);
  /// x[i] = max(x[i], 0)
  void (*relu)(float* x, std::size_t n);
  /// x[i] = 0 wherever gate[i] <= threshold (the ReLU-backprop /
  /// dropout-style masking primitive; gate may alias x)
  void (*threshold_mask)(const float* gate, float threshold, float* x,
                         std::size_t n);
  /// out[i] = fast_exp(x[i])
  void (*vexp)(const float* x, float* out, std::size_t n);
  /// out[i] = fast_log(max(x[i], floor))
  void (*vlog_floored)(const float* x, float* out, float floor,
                       std::size_t n);
  /// Numerically-stable in-place softmax over one contiguous block with
  /// an inverse-temperature factor on the supports.
  void (*softmax_block)(float* values, std::size_t n, float inv_temp);
  /// y[i] = dot(A.row(i), x) for A row-major [m x k] with leading
  /// dimension lda >= k.
  void (*gemv)(const float* a, std::size_t lda, const float* x, float* y,
               std::size_t m, std::size_t k);
  /// GEMM register tile: C[mr x n] += alpha * A[mr x k] * B[k x n], all
  /// row-major with leading dimensions lda/ldb/ldc. The cache-blocked
  /// driver (tensor::gemm) feeds K-panels of packed A/B through this.
  /// Accumulation order over k is ascending for every C element in every
  /// tier, so tiers differ only by rounding (FMA / lane splits).
  void (*gemm_block)(float alpha, const float* a, std::size_t lda,
                     const float* b, std::size_t ldb, float* c,
                     std::size_t ldc, std::size_t mr, std::size_t n,
                     std::size_t k);
  /// Sparse-A GEMM rows: C[mr x n] += alpha * A[mr x k] * B[k x n] where
  /// row i of A is given by its entries other than +0.0, as
  /// (cols[q], values[q]) for q in [row_begin[i], row_end[i]), ascending
  /// by column. Each tier uses gemm_block's multiply-add over those
  /// entries, so for finite alpha and B the result is bit-identical to
  /// gemm_block over the dense A, including the sign of zero results.
  void (*gemm_sparse_a)(float alpha, const std::uint64_t* row_begin,
                        const std::uint64_t* row_end,
                        const std::uint32_t* cols, const float* values,
                        const float* b, std::size_t ldb, float* c,
                        std::size_t ldc, std::size_t mr, std::size_t n,
                        std::size_t k);
  /// Segmented sparse-A GEMM rows: the k columns of A are cut into
  /// `segments` ranges [seg_end[s - 1], seg_end[s]) (the first starts at
  /// 0, the last ends at k), and
  ///   C[mr x n] = sum over s ascending of A[:, segment s] * B[segment s, :]
  /// (C is overwritten), each segment's product formed from +0.0 by
  /// gemm_sparse_a's multiply-add (alpha = 1) and added to a total that
  /// starts at +0.0. That is the per-segment gemm(beta = 0) followed by
  /// an ordered `total += part`, bit for bit: a segment in which a row
  /// stores no entry would add +0.0 and is skipped, and a part's sign of
  /// zero cannot reach a total that starts at +0.0.
  void (*gemm_sparse_a_segmented)(const std::uint64_t* row_begin,
                                  const std::uint64_t* row_end,
                                  const std::uint32_t* cols,
                                  const float* values, const float* b,
                                  std::size_t ldb, float* c, std::size_t ldc,
                                  std::size_t mr, std::size_t n,
                                  const std::size_t* seg_end,
                                  std::size_t segments);
  /// Fused SGD momentum step (one pass over the three arrays):
  ///   v[i] = mu * v[i] - lr * (g[i] + l2 * w[i]);  w[i] += v[i]
  void (*momentum_update)(float mu, float lr, float l2, const float* g,
                          float* w, float* v, std::size_t n);
  /// Sparse mat-vec over a CSR matrix [m x k]:
  ///   y[i] = sum_{p in [row_ptr[i], row_ptr[i+1])} values[p] * x[col_idx[p]]
  /// Stored entries ascend by column within each row, and the scalar tier
  /// accumulates them strictly in that order — so at scalar dispatch the
  /// result is bit-identical to a dense gemv over the same matrix with
  /// the missing entries as explicit +0.0 weights (given x >= 0, the
  /// serving case). The AVX2 tier uses 8-lane gathers + FMA.
  void (*spmv)(const float* values, const std::uint32_t* col_idx,
               const std::uint64_t* row_ptr, std::size_t m, const float* x,
               float* y);
  /// Row panel of sparse products against a dense batch: for each of the
  /// rb dense rows b (leading dimension ldb) compute
  ///   c[r*ldc + i] = spdot(CSR row i, b + r*ldb)   for i in [0, m)
  /// i.e. C = B * A^T with A in CSR form. This is batched inference with
  /// A = W^T; the cache-friendly unit is one dense row streamed against
  /// all CSR rows (the dense row stays L1/L2-resident). The blocked
  /// driver (tensor::spmm_bt) fans row panels over the ThreadPool.
  void (*spmm)(const float* values, const std::uint32_t* col_idx,
               const std::uint64_t* row_ptr, std::size_t m, const float* b,
               std::size_t ldb, std::size_t rb, float* c, std::size_t ldc);
  /// Quantized mat-vec over per-block symmetric int8 weights. qa is a
  /// row-major [m x k] int8 code matrix; each row is cut into
  /// ceil(k / block_size) column blocks, and scales holds one fp32
  /// dequantization factor per (row, block), row-major. qx are unsigned
  /// activation codes in [0, 127] with one shared fp32 factor sx
  /// (x[j] ~= sx * qx[j]). Each block is accumulated EXACTLY in int32
  /// (order-free — integer addition is associative) and the per-block
  /// partial sums are combined in float, ascending block order via
  /// correctly-rounded fused multiply-adds:
  ///   y[i] = fold_b fmaf(scales[i * blocks + b] * sx, blockdot_b, acc)
  /// Because the integer part is exact and the float combine is ordered
  /// with IEEE-pinned rounding at every step, every tier produces
  /// BIT-identical results — stronger than the fp32 kernels' tolerance
  /// contract. Preconditions: block_size in [1, 4096]
  /// (keeps the i32 accumulators far from overflow: 4096 * 127 * 127 <
  /// 2^31) and qx codes <= 127 (keeps the AVX2 maddubs i16 pair sums,
  /// at most 2 * 127 * 127 = 32258, below saturation). The AVX2 tier
  /// moves 32 int8 codes per vector — 4x the elements of the fp32 gemv.
  void (*qgemv)(const std::int8_t* qa, const float* scales,
                std::size_t block_size, const std::uint8_t* qx, float sx,
                float* y, std::size_t m, std::size_t k);
  /// Batched qgemv: rb rows of quantized activations (leading dimension
  /// ldb, per-row factors sb[r]) against the same code matrix:
  ///   c[r * ldc + i] = qgemv(qa, scales, qb + r * ldb, sb[r])[i]
  /// Each output row depends only on its own activation row, so batch
  /// splits cannot change results (the quant_support driver fans row
  /// panels over the ThreadPool exactly like spmm_bt).
  void (*qgemm)(const std::int8_t* qa, const float* scales,
                std::size_t block_size, const std::uint8_t* qb,
                std::size_t ldb, const float* sb, std::size_t rb, float* c,
                std::size_t ldc, std::size_t m, std::size_t k);
  /// Quantized sparse mat-vec: int8 stored values with ONE fp32 scale per
  /// CSR row (row_scale[i]), same index structure as spmv. The whole row
  /// accumulates exactly in int64 (no per-block cut — i64 cannot overflow
  /// at any plausible nnz), then one float combine:
  ///   y[i] = (row_scale[i] * sx) * rowdot_i
  /// All tiers share this body, so results are bit-identical across tiers.
  void (*qspmv)(const std::int8_t* values, const float* row_scale,
                const std::uint32_t* col_idx, const std::uint64_t* row_ptr,
                std::size_t m, const std::uint8_t* qx, float sx, float* y);
};

/// The set selected at startup (CPUID probe, then the STREAMBRAIN_DISPATCH
/// override, clamped to what the host supports). Stable for the process
/// lifetime unless force_dispatch() is called.
const KernelSet& active_kernels() noexcept;

/// The startup selection itself, unaffected by later force_dispatch()
/// calls. Registration-time metadata (EngineRegistry's "simd" entry) is
/// derived from this so it stays honest even when the registry is first
/// touched inside a temporarily-forced dispatch window (as the golden
/// tests do).
const KernelSet& startup_kernels() noexcept;

/// The set for one specific tier, independent of the active selection:
/// nullptr when this build or this CPU cannot run that tier. The scalar
/// set is always available. Used by the property tests and the kernel
/// microbench to compare tiers side by side.
const KernelSet* kernel_set_for(DispatchLevel level) noexcept;

/// Swap the active set (testing / benchmarking hook — the golden
/// regression suite pins the scalar tier to make its digests
/// platform-independent). Returns the previously active level. Throws
/// std::invalid_argument when the requested tier is unavailable.
DispatchLevel force_dispatch(DispatchLevel level);

}  // namespace streambrain::tensor
