#include "tensor/quant.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "parallel/parallel_for.hpp"
#include "tensor/kernel_set.hpp"
#include "tensor/kernels.hpp"

namespace streambrain::tensor {

namespace {

// Minimum dense rows per fan-out task — below this the submit overhead
// beats the parallelism (same trade-off as the spmm_bt driver).
constexpr std::size_t kMinRowsPerTask = 16;

void check_block_size(std::size_t block_size) {
  if (block_size == 0 || block_size > kMaxQuantBlock) {
    throw std::invalid_argument(
        "QuantBlockMatrix: block_size " + std::to_string(block_size) +
        " outside [1, " + std::to_string(kMaxQuantBlock) + "]");
  }
}

// Symmetric int8 code for one value under a precomputed scale.
// round-half-away-from-zero (std::lround) on purpose: it is independent
// of the ambient FP rounding mode, so quantization is reproducible.
std::int8_t encode(float value, float scale) {
  if (scale == 0.0f) return 0;
  const long code = std::lround(value / scale);
  const long clamped = std::clamp(code, -127L, 127L);
  return static_cast<std::int8_t>(clamped);
}

// Quantize one contiguous span into codes, returning the block scale.
float encode_block(const float* w, std::size_t n, std::int8_t* codes) {
  float amax = 0.0f;
  for (std::size_t j = 0; j < n; ++j) {
    const float mag = std::fabs(w[j]);
    amax = mag > amax ? mag : amax;
  }
  const float scale = amax / 127.0f;
  for (std::size_t j = 0; j < n; ++j) codes[j] = encode(w[j], scale);
  return scale;
}

void check_quant_payload(const std::vector<std::int8_t>& codes,
                         const std::vector<float>& scales,
                         const char* who) {
  // int8 covers [-128, 127]; only -128 escapes the symmetric code range.
  for (const std::int8_t code : codes) {
    if (code == std::numeric_limits<std::int8_t>::min()) {
      throw std::invalid_argument(std::string(who) +
                                  ": code outside [-127, 127]");
    }
  }
  for (const float scale : scales) {
    if (!std::isfinite(scale) || scale < 0.0f) {
      throw std::invalid_argument(
          std::string(who) + ": scales must be finite and non-negative");
    }
  }
}

}  // namespace

QuantBlockMatrix QuantBlockMatrix::from_dense(const MatrixF& dense,
                                              std::size_t block_size) {
  check_block_size(block_size);
  QuantBlockMatrix q;
  q.rows_ = dense.rows();
  q.cols_ = dense.cols();
  q.block_size_ = block_size;
  const std::size_t blocks = q.blocks_per_row();
  q.codes_.resize(q.rows_ * q.cols_);
  q.scales_.resize(q.rows_ * blocks);
  for (std::size_t i = 0; i < q.rows_; ++i) {
    const float* row = dense.row(i);
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t begin = b * block_size;
      const std::size_t len = std::min(block_size, q.cols_ - begin);
      q.scales_[i * blocks + b] =
          encode_block(row + begin, len, q.codes_.data() + i * q.cols_ + begin);
    }
  }
  return q;
}

QuantBlockMatrix QuantBlockMatrix::from_dense_transposed(
    const MatrixF& dense, std::size_t block_size) {
  check_block_size(block_size);
  QuantBlockMatrix q;
  q.rows_ = dense.cols();
  q.cols_ = dense.rows();
  q.block_size_ = block_size;
  const std::size_t blocks = q.blocks_per_row();
  q.codes_.resize(q.rows_ * q.cols_);
  q.scales_.resize(q.rows_ * blocks);
  std::vector<float> column(q.cols_);
  for (std::size_t i = 0; i < q.rows_; ++i) {
    for (std::size_t r = 0; r < q.cols_; ++r) column[r] = dense(r, i);
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t begin = b * block_size;
      const std::size_t len = std::min(block_size, q.cols_ - begin);
      q.scales_[i * blocks + b] = encode_block(
          column.data() + begin, len, q.codes_.data() + i * q.cols_ + begin);
    }
  }
  return q;
}

QuantBlockMatrix QuantBlockMatrix::adopt(std::size_t rows, std::size_t cols,
                                         std::size_t block_size,
                                         std::vector<std::int8_t> codes,
                                         std::vector<float> scales) {
  check_block_size(block_size);
  const std::size_t blocks =
      cols == 0 ? 0 : (cols + block_size - 1) / block_size;
  if (codes.size() != rows * cols) {
    throw std::invalid_argument(
        "QuantBlockMatrix: codes must have rows * cols entries");
  }
  if (scales.size() != rows * blocks) {
    throw std::invalid_argument(
        "QuantBlockMatrix: scales must have rows * blocks_per_row entries");
  }
  check_quant_payload(codes, scales, "QuantBlockMatrix");
  QuantBlockMatrix q;
  q.rows_ = rows;
  q.cols_ = cols;
  q.block_size_ = block_size;
  q.codes_ = std::move(codes);
  q.scales_ = std::move(scales);
  return q;
}

MatrixF QuantBlockMatrix::to_dense() const {
  MatrixF dense(rows_, cols_, 0.0f);
  const std::size_t blocks = blocks_per_row();
  for (std::size_t i = 0; i < rows_; ++i) {
    float* row = dense.row(i);
    for (std::size_t j = 0; j < cols_; ++j) {
      const float scale = scales_[i * blocks + j / block_size_];
      row[j] = static_cast<float>(codes_[i * cols_ + j]) * scale;
    }
  }
  return dense;
}

QuantCsr QuantCsr::from_csr(const CsrMatrix& csr) {
  QuantCsr q;
  q.rows_ = csr.rows();
  q.cols_ = csr.cols();
  q.row_ptr_ = csr.row_ptr();
  q.col_idx_ = csr.col_idx();
  q.codes_.resize(csr.nnz());
  q.row_scales_.resize(q.rows_);
  const std::vector<float>& values = csr.values();
  for (std::size_t i = 0; i < q.rows_; ++i) {
    const std::uint64_t begin = q.row_ptr_[i];
    const std::size_t len = static_cast<std::size_t>(q.row_ptr_[i + 1] - begin);
    q.row_scales_[i] =
        encode_block(values.data() + begin, len, q.codes_.data() + begin);
  }
  return q;
}

QuantCsr QuantCsr::adopt(std::size_t rows, std::size_t cols,
                         std::vector<std::uint64_t> row_ptr,
                         std::vector<std::uint32_t> col_idx,
                         std::vector<std::int8_t> codes,
                         std::vector<float> row_scales) {
  if (row_scales.size() != rows) {
    throw std::invalid_argument("QuantCsr: row_scales must have rows entries");
  }
  check_quant_payload(codes, row_scales, "QuantCsr");
  // Reuse CsrMatrix::adopt for the index-structure validation (row_ptr
  // monotone and bounded, col_idx in range and strictly ascending); the
  // dummy float payload is nnz bytes * 4 of throwaway, which the
  // checkpoint reader's plausibility bounds already cap.
  CsrMatrix index_check = CsrMatrix::adopt(
      rows, cols, std::move(row_ptr), std::move(col_idx),
      std::vector<float>(codes.size(), 0.0f));
  QuantCsr q;
  q.rows_ = rows;
  q.cols_ = cols;
  q.row_ptr_ = index_check.row_ptr();
  q.col_idx_ = index_check.col_idx();
  q.codes_ = std::move(codes);
  q.row_scales_ = std::move(row_scales);
  return q;
}

CsrMatrix QuantCsr::to_csr() const {
  std::vector<float> values(codes_.size());
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::uint64_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      values[p] = static_cast<float>(codes_[p]) * row_scales_[i];
    }
  }
  return CsrMatrix::adopt(rows_, cols_, row_ptr_, col_idx_,
                          std::move(values));
}

double QuantCsr::density() const noexcept {
  const std::size_t total = rows_ * cols_;
  return total == 0 ? 1.0
                    : static_cast<double>(nnz()) / static_cast<double>(total);
}

std::size_t QuantCsr::memory_bytes() const noexcept {
  return row_ptr_.size() * sizeof(std::uint64_t) +
         col_idx_.size() * sizeof(std::uint32_t) +
         codes_.size() * sizeof(std::int8_t) +
         row_scales_.size() * sizeof(float);
}

float quantize_activation_row(const float* x, std::size_t n,
                              std::uint8_t* qx) {
  float amax = 0.0f;
  for (std::size_t j = 0; j < n; ++j) amax = x[j] > amax ? x[j] : amax;
  const float sx = amax / 127.0f;
  if (sx == 0.0f) {
    for (std::size_t j = 0; j < n; ++j) qx[j] = 0;
    return 0.0f;
  }
  for (std::size_t j = 0; j < n; ++j) {
    const long code = x[j] > 0.0f ? std::lround(x[j] / sx) : 0L;
    qx[j] = static_cast<std::uint8_t>(std::clamp(code, 0L, 127L));
  }
  return sx;
}

void qgemv(const QuantBlockMatrix& a, const std::uint8_t* qx, float sx,
           float* y) {
  active_kernels().qgemv(a.codes().data(), a.scales().data(), a.block_size(),
                         qx, sx, y, a.rows(), a.cols());
}

void qspmv(const QuantCsr& a, const std::uint8_t* qx, float sx, float* y) {
  active_kernels().qspmv(a.codes().data(), a.row_scales().data(),
                         a.col_idx().data(), a.row_ptr().data(), a.rows(), qx,
                         sx, y);
}

namespace {

// Shared fan-out scaffolding of the two support drivers: quantize every
// activation row (tier-independent scalar code), then run `panel` over
// for_blocks row panels exactly like spmm_bt.
template <typename Panel>
void quantized_fanout(const MatrixF& x, std::vector<std::uint8_t>& qb,
                      std::vector<float>& sb, const Panel& panel) {
  const std::size_t batch = x.rows();
  const std::size_t k = x.cols();
  qb.resize(batch * k);
  sb.resize(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    sb[r] = quantize_activation_row(x.row(r), k, qb.data() + r * k);
  }
  parallel::for_blocks(batch, kMinRowsPerTask, panel);
}

}  // namespace

void quant_support(const QuantBlockMatrix& wt, const MatrixF& x,
                   const float* bias, MatrixF& s) {
  if (x.cols() != wt.cols()) {
    throw std::invalid_argument("quant_support: dimension mismatch");
  }
  const std::size_t batch = x.rows();
  const std::size_t m = wt.rows();
  const std::size_t k = wt.cols();
  s.resize(batch, m);
  if (batch == 0 || m == 0) return;

  const KernelSet& kernels = active_kernels();
  std::vector<std::uint8_t> qb;
  std::vector<float> sb;
  const auto panel = [&](std::size_t r0, std::size_t r1) {
    kernels.qgemm(wt.codes().data(), wt.scales().data(), wt.block_size(),
                  qb.data() + r0 * k, k, sb.data() + r0, r1 - r0, s.row(r0),
                  s.cols(), m, k);
  };
  quantized_fanout(x, qb, sb, panel);
  add_row_bias(s, bias);
}

void quant_sparse_support(const QuantCsr& wt, const MatrixF& x,
                          const float* bias, MatrixF& s) {
  if (x.cols() != wt.cols()) {
    throw std::invalid_argument("quant_sparse_support: dimension mismatch");
  }
  const std::size_t batch = x.rows();
  const std::size_t m = wt.rows();
  const std::size_t k = wt.cols();
  s.resize(batch, m);
  if (batch == 0 || m == 0) return;

  const KernelSet& kernels = active_kernels();
  std::vector<std::uint8_t> qb;
  std::vector<float> sb;
  const auto panel = [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      kernels.qspmv(wt.codes().data(), wt.row_scales().data(),
                    wt.col_idx().data(), wt.row_ptr().data(), m,
                    qb.data() + r * k, sb[r], s.row(r));
    }
  };
  quantized_fanout(x, qb, sb, panel);
  add_row_bias(s, bias);
}

}  // namespace streambrain::tensor
