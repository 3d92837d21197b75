#pragma once
// Compute-backend abstraction mirroring StreamBrain's multi-backend design
// (Section III-A of the paper: OpenMP+SIMD CPU backends, a fully-offloaded
// CUDA backend, and a prototype FPGA path).
//
// An Engine supplies the four primitives that dominate BCPNN training:
//
//   support   : S = X * W + b           (batch GEMM + bias)
//   softmax   : per-hypercolumn soft-WTA normalization of S
//   traces    : EMA update of p_i, p_j, p_ij from a batch (X, A)
//   weights   : w_ij = log(p_ij / (p_i p_j)), b_j = k_beta * log(p_j)
//
// Engines share exact semantics; they differ in vectorization and in
// whether loops fan out (through parallel::for_blocks, the library's one
// thread runtime, where the paper uses OpenMP). `DeviceSimEngine` emulates
// the paper's fully-offloaded GPU loop on the host, tracking host<->device
// transfer volume so the Amdahl-serialization argument of Section III-A can
// be benchmarked.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace streambrain::parallel {

class Engine {
 public:
  virtual ~Engine() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// S = X * W + bias_row ; X is [batch x n_in], W is [n_in x n_out],
  /// bias has n_out entries, S is [batch x n_out] (resized by callee).
  virtual void support(const tensor::MatrixF& x, const tensor::MatrixF& w,
                       const float* bias, tensor::MatrixF& s) = 0;

  /// Per-hypercolumn softmax over blocks of `mcus_per_hcu` columns.
  virtual void softmax_hcu(tensor::MatrixF& s, std::size_t mcus_per_hcu,
                           float inverse_temperature) = 0;

  /// Batch trace update with learning rate alpha:
  ///   p_i  += alpha * (mean_b x_bi      - p_i)
  ///   p_j  += alpha * (mean_b a_bj      - p_j)
  ///   p_ij += alpha * (mean_b x_bi a_bj - p_ij)
  virtual void update_traces(const tensor::MatrixF& x,
                             const tensor::MatrixF& a, float alpha, float* pi,
                             float* pj, tensor::MatrixF& pij) = 0;

  /// Bayesian weight recomputation from traces, with probability floor eps:
  ///   w_ij = log(max(p_ij,eps') / (max(p_i,eps) * max(p_j,eps)))
  ///   b_j  = k_beta * log(max(p_j, eps))
  virtual void recompute_weights(const float* pi, const float* pj,
                                 const tensor::MatrixF& pij, float eps,
                                 float k_beta, tensor::MatrixF& w,
                                 float* bias) = 0;

  /// Bytes "moved to/from the device" so far. Zero for host engines; the
  /// DeviceSim engine accounts every logical transfer.
  [[nodiscard]] virtual std::uint64_t transfer_bytes() const { return 0; }
};

}  // namespace streambrain::parallel
