#include "tensor/gemm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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
// The sparse-A schedule runs when at most this share of op(A) is stored
// and k is at least kSparseMinK; chosen from bench_kernels'
// gemm_sparse_a / gemm_dense rows. Its index lists are 32-bit.
constexpr double kSparseMaxDensity = 0.25;
constexpr std::size_t kSparseMinK = 16;
constexpr std::size_t kSparseMaxDim = std::numeric_limits<std::uint32_t>::max();

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

namespace {

void run_dense(Transpose trans_a, Transpose trans_b, float alpha,
               const MatrixF& a, const MatrixF& b, MatrixF& c, const Dims& d,
               const KernelSet& kernels) {
  std::vector<float> a_storage;
  std::vector<float> b_storage;
  const float* a_ptr = pack_a(trans_a, a, d.m, d.k, a_storage);
  const float* b_ptr = pack_b(trans_b, b, d.k, d.n, b_storage);
  parallel::for_blocks(d.m, kMinRowsPerTask,
                       [&](std::size_t r0, std::size_t r1) {
                         run_row_range(kernels, alpha, a_ptr, b_ptr, c, r0,
                                       r1, d.n, d.k);
                       });
}

// Rows of a matrix by their entries other than +0.0 (-0.0 is kept: its
// sign reaches the product). Row i spans [begin[i], end[i]) of
// cols/values, ascending by column.
struct RowLists {
  std::vector<std::uint64_t> begin;
  std::vector<std::uint64_t> end;
  std::vector<std::uint32_t> cols;
  std::vector<float> values;
};

inline std::uint32_t is_stored(float v) noexcept {
  return std::bit_cast<std::uint32_t>(v) != 0 ? 1u : 0u;
}

// Stored entries of A, counted row by row until they exceed `limit`.
std::size_t count_stored(const MatrixF& a, std::size_t limit) noexcept {
  std::size_t stored = 0;
  for (std::size_t r = 0; r < a.rows() && stored <= limit; ++r) {
    const float* row = a.row(r);
    for (std::size_t c = 0; c < a.cols(); ++c) stored += is_stored(row[c]);
  }
  return stored;
}

// Branch-free: every entry is written to the next free slot, which
// advances only past stored ones (every entry with `keep_all`), so the
// last write may land one slot past the end. `stored` must be the
// entries of A that are kept.
void fill_row_lists(const MatrixF& a, std::size_t stored, bool keep_all,
                    RowLists& out) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  out.begin.resize(m);
  out.end.resize(m);
  out.cols.resize(stored + 1);
  out.values.resize(stored + 1);
  std::uint32_t* cols = out.cols.data();
  float* values = out.values.data();
  std::uint64_t next = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a.row(i);
    out.begin[i] = next;
    for (std::size_t p = 0; p < k; ++p) {
      cols[next] = static_cast<std::uint32_t>(p);
      values[next] = a_row[p];
      next += keep_all ? 1u : is_stored(a_row[p]);
    }
    out.end[i] = next;
  }
}

// The row lists of A^T from those of A (a counting sort by column).
// Walking A's rows in order appends each column's entries by ascending
// row, so every list of A^T ascends too.
void transpose_row_lists(const RowLists& in, std::size_t cols_of_in,
                         RowLists& out) {
  out.begin.assign(cols_of_in, 0);
  out.end.resize(cols_of_in);
  const std::size_t stored = in.begin.empty() ? 0 : in.end.back();
  for (std::size_t q = 0; q < stored; ++q) ++out.begin[in.cols[q]];
  std::uint64_t start = 0;
  for (std::size_t i = 0; i < cols_of_in; ++i) {
    const std::uint64_t count = out.begin[i];
    out.begin[i] = start;
    out.end[i] = start;
    start += count;
  }
  out.cols.resize(stored);
  out.values.resize(stored);
  for (std::size_t p = 0; p < in.begin.size(); ++p) {
    for (std::uint64_t q = in.begin[p]; q < in.end[p]; ++q) {
      const std::uint64_t slot = out.end[in.cols[q]]++;
      out.cols[slot] = static_cast<std::uint32_t>(p);
      out.values[slot] = in.values[q];
    }
  }
}

// The row lists of op(A) in storage each thread reuses across calls (the
// fan-out blocks only read it). `stored` must be the kept entries of A:
// those other than +0.0, or all of them with `keep_all`.
const RowLists& sparse_op_a(Transpose trans_a, const MatrixF& a,
                            std::size_t stored, bool keep_all = false) {
  thread_local RowLists op_a;
  thread_local RowLists staging;  // A's own rows when op(A) = A^T
  if (trans_a == Transpose::kNo) {
    fill_row_lists(a, stored, keep_all, op_a);
  } else {
    fill_row_lists(a, stored, keep_all, staging);
    transpose_row_lists(staging, a.cols(), op_a);
  }
  return op_a;
}

// Whether every entry of the rows x n window at `b` (leading dimension
// ldb) is finite.
bool all_finite(const float* b, std::size_t rows, std::size_t n,
                std::size_t ldb) noexcept {
  std::uint32_t non_finite = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = b + r * ldb;
    for (std::size_t j = 0; j < n; ++j) {
      non_finite |= (std::bit_cast<std::uint32_t>(row[j]) & 0x7F800000u) ==
                    0x7F800000u;
    }
  }
  return non_finite == 0;
}

void run_sparse(Transpose trans_b, float alpha, const RowLists& rows,
                const MatrixF& b, MatrixF& c, const Dims& d,
                const KernelSet& kernels) {
  std::vector<float> b_storage;
  const float* b_ptr = pack_b(trans_b, b, d.k, d.n, b_storage);
  parallel::for_blocks(d.m, kMinRowsPerTask,
                       [&](std::size_t r0, std::size_t r1) {
                         kernels.gemm_sparse_a(
                             alpha, rows.begin.data() + r0,
                             rows.end.data() + r0, rows.cols.data(),
                             rows.values.data(), b_ptr, d.n, c.row(r0), d.n,
                             r1 - r0, d.n, d.k);
                       });
}

enum class Schedule { kChoose, kDense, kSparseA };

void gemm_with(Schedule schedule, Transpose trans_a, Transpose trans_b,
               float alpha, const MatrixF& a, const MatrixF& b, float beta,
               MatrixF& c) {
  const Dims d = check_dims(trans_a, trans_b, a, b, c);
  const KernelSet& kernels = active_kernels();
  apply_beta(beta, c, kernels);
  if (d.n == 0 || d.k == 0) return;

  // The sparse path pays an index build (about one pass over A) to skip
  // the zero terms; at or below kSparseMaxDensity it wins at the training
  // and serving shapes (bench_kernels' gemm_sparse_a rows). Non-finite
  // alpha or B make 0 * x a NaN, which only the dense sweep reproduces.
  std::size_t stored = a.size();
  if (schedule == Schedule::kChoose) {
    schedule = Schedule::kDense;
    if (d.k >= kSparseMinK && d.k <= kSparseMaxDim && d.m <= kSparseMaxDim &&
        std::isfinite(alpha)) {
      const auto limit = static_cast<std::size_t>(
          kSparseMaxDensity * static_cast<double>(d.m * d.k));
      stored = count_stored(a, limit);
      if (stored <= limit && all_finite(b.data(), 1, b.size(), b.size())) {
        schedule = Schedule::kSparseA;
      }
    }
  } else if (schedule == Schedule::kSparseA) {
    stored = count_stored(a, stored);
  }
  if (schedule == Schedule::kSparseA) {
    run_sparse(trans_b, alpha, sparse_op_a(trans_a, a, stored), b, c, d,
               kernels);
  } else {
    run_dense(trans_a, trans_b, alpha, a, b, c, d, kernels);
  }
}

}  // namespace

void gemm(Transpose trans_a, Transpose trans_b, float alpha, const MatrixF& a,
          const MatrixF& b, float beta, MatrixF& c) {
  gemm_with(Schedule::kChoose, trans_a, trans_b, alpha, a, b, beta, c);
}

void segmented_gemm_tn(const MatrixF& a, const float* b, std::size_t ldb,
                       std::size_t n, const std::vector<std::size_t>& seg_end,
                       float* c, std::size_t ldc) {
  const std::size_t m = a.cols();
  const std::size_t k = a.rows();
  if (seg_end.empty() || seg_end.back() != k ||
      !std::is_sorted(seg_end.begin(), seg_end.end()) || ldb < n ||
      ldc < n || k > kSparseMaxDim || m > kSparseMaxDim) {
    throw std::invalid_argument("segmented_gemm_tn: bad segments or shape");
  }
  if (n == 0) return;
  if (k == 0) {
    for (std::size_t i = 0; i < m; ++i) std::fill_n(c + i * ldc, n, 0.0f);
    return;
  }
  // Each segment's gemm sweeps its zero entries of A densely when B is
  // not finite (0 * Inf is NaN), so then every entry is kept.
  const bool keep_all = !all_finite(b, k, n, ldb);
  const std::size_t stored = keep_all ? a.size() : count_stored(a, a.size());
  const RowLists& rows = sparse_op_a(Transpose::kYes, a, stored, keep_all);
  const KernelSet& kernels = active_kernels();
  // Rows per fan-out block: at least kMinMaddsPerTask multiply-adds, as
  // the index build already costs about one pass over A.
  constexpr std::size_t kMinMaddsPerTask = std::size_t{1} << 17;
  const std::size_t madds = std::max<std::size_t>(1, stored * n);
  const std::size_t min_rows =
      std::max<std::size_t>(1, m * kMinMaddsPerTask / madds);
  parallel::for_blocks(m, min_rows, [&](std::size_t r0, std::size_t r1) {
    kernels.gemm_sparse_a_segmented(rows.begin.data() + r0,
                                    rows.end.data() + r0, rows.cols.data(),
                                    rows.values.data(), b, ldb, c + r0 * ldc,
                                    ldc, r1 - r0, n, seg_end.data(),
                                    seg_end.size());
  });
}

namespace detail {

void gemm_dense(Transpose trans_a, Transpose trans_b, float alpha,
                const MatrixF& a, const MatrixF& b, float beta, MatrixF& c) {
  gemm_with(Schedule::kDense, trans_a, trans_b, alpha, a, b, beta, c);
}

void gemm_sparse_a(Transpose trans_a, Transpose trans_b, float alpha,
                   const MatrixF& a, const MatrixF& b, float beta,
                   MatrixF& c) {
  gemm_with(Schedule::kSparseA, trans_a, trans_b, alpha, a, b, beta, c);
}

}  // namespace detail

MatrixF matmul(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.cols());
  gemm(Transpose::kNo, Transpose::kNo, 1.0f, a, b, 0.0f, c);
  return c;
}

}  // namespace streambrain::tensor
