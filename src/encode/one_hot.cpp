#include "encode/one_hot.hpp"

#include <stdexcept>

#include "parallel/parallel_for.hpp"

namespace streambrain::encode {

OneHotEncoder::OneHotEncoder(std::size_t bins, CodeStyle style)
    : binner_(bins), style_(style) {}

void OneHotEncoder::fit(const tensor::MatrixF& data) { binner_.fit(data); }

tensor::MatrixF OneHotEncoder::transform(const tensor::MatrixF& data) const {
  if (!fitted()) {
    throw std::logic_error("OneHotEncoder::transform before fit");
  }
  if (data.cols() != binner_.features()) {
    throw std::invalid_argument("OneHotEncoder::transform: feature mismatch");
  }
  const std::size_t bins = binner_.bins();
  tensor::MatrixF encoded(data.rows(), data.cols() * bins, 0.0f);
  constexpr std::size_t kMinRowsPerBlock = 256;
  parallel::for_blocks(
      data.rows(), kMinRowsPerBlock, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          float* row = encoded.row(r);
          for (std::size_t f = 0; f < data.cols(); ++f) {
            const std::size_t bin = binner_.bin_of(f, data(r, f));
            if (style_ == CodeStyle::kOneHot) {
              row[f * bins + bin] = 1.0f;
            } else {
              for (std::size_t b = 0; b <= bin; ++b) row[f * bins + b] = 1.0f;
            }
          }
        }
      });
  return encoded;
}

tensor::MatrixF OneHotEncoder::fit_transform(const tensor::MatrixF& data) {
  fit(data);
  return transform(data);
}

std::pair<std::size_t, std::size_t> OneHotEncoder::decode_column(
    std::size_t column) const {
  if (column >= encoded_width()) {
    throw std::out_of_range("OneHotEncoder::decode_column");
  }
  return {column / binner_.bins(), column % binner_.bins()};
}

}  // namespace streambrain::encode
