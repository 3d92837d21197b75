#include "tensor/gemm.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "tensor/kernel_set.hpp"

namespace streambrain::tensor {

namespace {

struct Dims {
  std::size_t m, n, k;
};

Dims check_dims(Transpose trans_a, Transpose trans_b, const MatrixF& a,
                const MatrixF& b, const MatrixF& c) {
  const std::size_t m = trans_a == Transpose::kNo ? a.rows() : a.cols();
  const std::size_t k = trans_a == Transpose::kNo ? a.cols() : a.rows();
  const std::size_t kb = trans_b == Transpose::kNo ? b.rows() : b.cols();
  const std::size_t n = trans_b == Transpose::kNo ? b.cols() : b.rows();
  if (k != kb || c.rows() != m || c.cols() != n) {
    throw std::invalid_argument("gemm: dimension mismatch");
  }
  return {m, n, k};
}

inline float load(const MatrixF& x, Transpose t, std::size_t i,
                  std::size_t j) noexcept {
  return t == Transpose::kNo ? x(i, j) : x(j, i);
}

// Pack operands into contiguous row-major (A: m x k) and (B: k x n)
// buffers so the tile kernel streams regardless of the requested
// transposes. Packing costs O(mk + kn) against an O(mnk) kernel, the
// standard GotoBLAS trade-off.
const float* pack_a(Transpose trans, const MatrixF& a, std::size_t m,
                    std::size_t k, std::vector<float>& storage) {
  if (trans == Transpose::kNo) return a.data();
  storage.resize(m * k);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) storage[i * k + p] = a(p, i);
  }
  return storage.data();
}

const float* pack_b(Transpose trans, const MatrixF& b, std::size_t k,
                    std::size_t n, std::vector<float>& storage) {
  if (trans == Transpose::kNo) return b.data();
  storage.resize(k * n);
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) storage[p * n + j] = b(j, p);
  }
  return storage.data();
}

// Scale C by beta so the tile kernel can accumulate unconditionally.
void apply_beta(float beta, MatrixF& c, const KernelSet& kernels) {
  if (beta == 0.0f) {
    c.fill(0.0f);
  } else if (beta != 1.0f) {
    kernels.scale(beta, c.data(), c.size());
  }
}

// K-panel blocking keeps the streamed B panel resident in L2.
constexpr std::size_t kBlockK = 256;
// Minimum rows per fan-out block: below this the submit overhead beats
// the parallelism.
constexpr std::size_t kMinRowsPerTask = 32;

// Rows [r0, r1) of C, all K panels, on the calling thread. Per C element
// the accumulation order is fixed (ascending k), so results are
// independent of how rows are partitioned across tasks.
void run_row_range(const KernelSet& kernels, float alpha, const float* a,
                   const float* b, MatrixF& c, std::size_t r0, std::size_t r1,
                   std::size_t n, std::size_t k) {
  for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
    const std::size_t kb = std::min(kBlockK, k - p0);
    kernels.gemm_block(alpha, a + r0 * k + p0, k, b + p0 * n, n, c.row(r0), n,
                       r1 - r0, n, kb);
  }
}

}  // namespace

void gemm_naive(Transpose trans_a, Transpose trans_b, float alpha,
                const MatrixF& a, const MatrixF& b, float beta, MatrixF& c) {
  const auto [m, n, k] = check_dims(trans_a, trans_b, a, b, c);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        acc += load(a, trans_a, i, p) * load(b, trans_b, p, j);
      }
      c(i, j) = alpha * acc + beta * c(i, j);
    }
  }
}

void gemm(Transpose trans_a, Transpose trans_b, float alpha, const MatrixF& a,
          const MatrixF& b, float beta, MatrixF& c) {
  const auto [m, n, k] = check_dims(trans_a, trans_b, a, b, c);

  std::vector<float> a_storage;
  std::vector<float> b_storage;
  const float* a_ptr = pack_a(trans_a, a, m, k, a_storage);
  const float* b_ptr = pack_b(trans_b, b, k, n, b_storage);

  const KernelSet& kernels = active_kernels();
  apply_beta(beta, c, kernels);
  if (n == 0 || k == 0) return;

  parallel::for_blocks(m, kMinRowsPerTask,
                       [&](std::size_t r0, std::size_t r1) {
                         run_row_range(kernels, alpha, a_ptr, b_ptr, c, r0,
                                       r1, n, k);
                       });
}

MatrixF matmul(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.cols());
  gemm(Transpose::kNo, Transpose::kNo, 1.0f, a, b, 0.0f, c);
  return c;
}

}  // namespace streambrain::tensor
