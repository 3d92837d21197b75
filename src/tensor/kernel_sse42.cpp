// SSE4.2 kernel tier. The shared kernel bodies are compiled with
// -msse4.2 -fopenmp-simd -fno-trapping-math (see CMakeLists), so the
// elementwise loops, the exp/log transforms and the reductions vectorize
// to 4 float lanes. When the build lacks the
// flag (non-x86 hosts), this TU degrades to a null tier and the
// dispatcher falls back to scalar.

#include "tensor/kernel_tiers.hpp"

#if defined(__SSE4_2__)

// NOTE: no shared headers with inline function definitions beyond the
// vtable/tier plumbing — see k_exp2i in kernel_impl.inl for why.
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>

#define SB_KERNEL_NS sse42_impl
#define SB_SIMD_LOOP _Pragma("omp simd")
#define SB_SIMD_REDUCE(...) _Pragma(SB_PRAGMA_STR(omp simd reduction(__VA_ARGS__)))
#define SB_PRAGMA_STR(x) #x
#include "tensor/kernel_impl.inl"
#undef SB_KERNEL_NS
#undef SB_SIMD_LOOP
#undef SB_SIMD_REDUCE
#undef SB_PRAGMA_STR

namespace streambrain::tensor::detail {

const KernelSet* kernel_set_sse42() noexcept {
  using namespace streambrain::tensor::sse42_impl;
  static const KernelSet set = {
      DispatchLevel::kSse42,
      dispatch_level_name(DispatchLevel::kSse42),
      dispatch_level_width(DispatchLevel::kSse42),
      &k_axpy,
      &k_scale,
      &k_dot,
      &k_sum,
      &k_reduce_max,
      &k_ema_update,
      &k_relu,
      &k_threshold_mask,
      &k_vexp,
      &k_vlog_floored,
      &k_softmax_block,
      &k_gemv,
      &k_gemm_block,
      &k_gemm_sparse_a,
      &k_gemm_sparse_a_segmented,
      &k_momentum_update,
      &k_spmv,
      &k_spmm,
      &k_qgemv,
      &k_qgemm,
      &k_qspmv,
  };
  return &set;
}

}  // namespace streambrain::tensor::detail

#else  // !defined(__SSE4_2__)

namespace streambrain::tensor::detail {
const KernelSet* kernel_set_sse42() noexcept { return nullptr; }
}  // namespace streambrain::tensor::detail

#endif
