#!/usr/bin/env python3
"""Unit tests for tools/sb_lint.py.

Two test families:
  - real-tree: the shipped sources must pass every check (this is the
    same gate CI runs, so a failure here is a real regression);
  - fixtures: minimal mutated sources that MUST be flagged — a linter
    that cannot catch the bug class it was built for is worse than no
    linter, because it launders confidence.

Runs under ctest (label `lint`) with plain unittest — no external deps.
"""

import sys
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import sb_lint  # noqa: E402


SECTION_ENUM_OK = """
enum class Section : std::uint32_t {
  kLayer = 1,
  kClassifier = 2,
};
void f() {
  write_u32(out, static_cast<std::uint32_t>(Section::kLayer));
  if (tag != static_cast<std::uint32_t>(Section::kLayer)) {}
  write_u32(out, static_cast<std::uint32_t>(Section::kClassifier));
  if (tag == static_cast<std::uint32_t>(Section::kClassifier)) {}
}
"""

KERNEL_HEADER = """
struct KernelSet {
  DispatchLevel level = DispatchLevel::kScalar;
  const char* name = "scalar";
  std::size_t simd_width = 1;
  void (*axpy)(float alpha, const float* x, float* y, std::size_t n);
  float (*dot)(const float* x, const float* y, std::size_t n);
  void (*gemv)(const float* a, std::size_t lda, const float* x, float* y,
               std::size_t m, std::size_t k);
};
"""

TIER_OK = """
const KernelSet* kernel_set_scalar() noexcept {
  static const KernelSet set = {
      DispatchLevel::kScalar,
      dispatch_level_name(DispatchLevel::kScalar),
      dispatch_level_width(DispatchLevel::kScalar),
      &k_axpy,
      &k_dot,
      &k_gemv,
  };
  return &set;
}
"""

ASYNC_HPP_OK = """
struct AsyncPredictorStats {
  std::uint64_t batches = 0;
  std::uint64_t full_closes = 0;
  std::uint64_t deadline_closes = 0;
  [[nodiscard]] std::uint64_t close_reasons_total() const noexcept {
    return full_closes + deadline_closes;
  }
};
class AsyncPredictor {
  enum class CloseReason { kFull, kDeadline };
};
"""

ASYNC_CPP_OK = """
void AsyncPredictor::run_batch(BatchJob& job) {
  switch (job.reason) {
    case CloseReason::kFull: stats_.full_closes += 1; break;
    case CloseReason::kDeadline: stats_.deadline_closes += 1; break;
  }
}
"""


LOOP_OK = """
#include "parallel/parallel_for.hpp"
void scale(float* v, std::size_t n) {
  parallel::for_blocks(n, 256, [&](std::size_t lo, std::size_t hi) {
#pragma omp simd
    for (std::size_t i = lo; i < hi; ++i) v[i] *= 2.0f;
  });
}
"""


class RealTreeTest(unittest.TestCase):
    """The shipped repo must be lint-clean."""

    def test_repo_passes_all_checks(self):
        self.assertEqual(sb_lint.run_all(REPO_ROOT), [])


class CheckpointSectionTest(unittest.TestCase):
    def test_clean_fixture_passes(self):
        self.assertEqual(
            sb_lint.check_checkpoint_sections(SECTION_ENUM_OK), [])

    def test_duplicate_tag_is_flagged(self):
        mutated = SECTION_ENUM_OK.replace("kClassifier = 2", "kClassifier = 1")
        errors = sb_lint.check_checkpoint_sections(mutated)
        self.assertTrue(any("duplicate checkpoint tag 1" in e
                            for e in errors), errors)

    def test_tag_gap_is_flagged(self):
        mutated = SECTION_ENUM_OK.replace("kClassifier = 2", "kClassifier = 5")
        errors = sb_lint.check_checkpoint_sections(mutated)
        self.assertTrue(any("not contiguous" in e for e in errors), errors)

    def test_writer_without_reader_is_flagged(self):
        mutated = SECTION_ENUM_OK.replace(
            "  if (tag == static_cast<std::uint32_t>(Section::kClassifier)) {}\n",
            "")
        errors = sb_lint.check_checkpoint_sections(mutated)
        self.assertTrue(any("Section::kClassifier" in e and "1 time" in e
                            for e in errors), errors)


class KernelTierTest(unittest.TestCase):
    def test_clean_fixture_passes(self):
        self.assertEqual(
            sb_lint.check_kernel_tiers(KERNEL_HEADER, {"tier.cpp": TIER_OK}),
            [])

    def test_missing_entry_is_flagged(self):
        mutated = TIER_OK.replace("      &k_dot,\n", "")
        errors = sb_lint.check_kernel_tiers(
            KERNEL_HEADER, {"tier.cpp": mutated})
        self.assertTrue(any("missing &k_dot" in e for e in errors), errors)

    def test_swapped_order_is_flagged(self):
        mutated = TIER_OK.replace(
            "      &k_axpy,\n      &k_dot,\n",
            "      &k_dot,\n      &k_axpy,\n")
        errors = sb_lint.check_kernel_tiers(
            KERNEL_HEADER, {"tier.cpp": mutated})
        self.assertTrue(any("order diverges" in e for e in errors), errors)

    def test_unknown_entry_is_flagged(self):
        mutated = TIER_OK.replace("&k_gemv", "&k_gemm_fused")
        errors = sb_lint.check_kernel_tiers(
            KERNEL_HEADER, {"tier.cpp": mutated})
        self.assertTrue(any("unknown kernel" in e for e in errors), errors)

    def test_tier_without_initializer_is_flagged(self):
        errors = sb_lint.check_kernel_tiers(
            KERNEL_HEADER, {"tier.cpp": "int x;"})
        self.assertTrue(any("no `static const KernelSet" in e
                            for e in errors), errors)


class CloseReasonTest(unittest.TestCase):
    def test_clean_fixture_passes(self):
        self.assertEqual(
            sb_lint.check_close_reason_counters(ASYNC_HPP_OK, ASYNC_CPP_OK),
            [])

    def test_reason_without_counter_is_flagged(self):
        mutated = ASYNC_HPP_OK.replace("kFull, kDeadline",
                                       "kFull, kDeadline, kShutdown")
        errors = sb_lint.check_close_reason_counters(mutated, ASYNC_CPP_OK)
        self.assertTrue(any("shutdown_closes" in e for e in errors), errors)

    def test_missing_switch_bump_is_flagged(self):
        mutated = ASYNC_CPP_OK.replace(
            "    case CloseReason::kDeadline: stats_.deadline_closes += 1; "
            "break;\n", "")
        errors = sb_lint.check_close_reason_counters(ASYNC_HPP_OK, mutated)
        self.assertTrue(any("CloseReason::kDeadline" in e for e in errors),
                        errors)

    def test_total_omitting_counter_is_flagged(self):
        mutated = ASYNC_HPP_OK.replace(
            "return full_closes + deadline_closes;", "return full_closes;")
        errors = sb_lint.check_close_reason_counters(mutated, ASYNC_CPP_OK)
        self.assertTrue(any("omits deadline_closes" in e for e in errors),
                        errors)

    def test_camel_case_reason_maps_to_snake_counter(self):
        self.assertEqual(sb_lint._reason_to_counter("kDeadline"),
                         "deadline_closes")
        self.assertEqual(sb_lint._reason_to_counter("kQueueDrain"),
                         "queue_drain_closes")


class OneRuntimeTest(unittest.TestCase):
    def test_clean_fixture_passes(self):
        self.assertEqual(sb_lint.check_one_runtime({"loop.cpp": LOOP_OK}), [])

    def test_simd_clauses_pass(self):
        fixture = "#pragma omp simd reduction(+ : acc)\n"
        self.assertEqual(sb_lint.check_one_runtime({"k.inl": fixture}), [])

    def test_parallel_for_pragma_is_flagged(self):
        mutated = LOOP_OK.replace("#pragma omp simd",
                                  "  #pragma omp parallel for")
        errors = sb_lint.check_one_runtime({"loop.cpp": mutated})
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("loop.cpp:5:", errors[0])
        self.assertIn("#pragma omp", errors[0])

    def test_parallel_for_simd_pragma_is_flagged(self):
        mutated = LOOP_OK.replace("#pragma omp simd",
                                  "#pragma omp parallel for simd")
        errors = sb_lint.check_one_runtime({"loop.cpp": mutated})
        self.assertEqual(len(errors), 1, errors)

    def test_omp_header_is_flagged(self):
        mutated = "#include <omp.h>\n" + LOOP_OK
        errors = sb_lint.check_one_runtime({"loop.cpp": mutated})
        self.assertTrue(any("<omp.h>" in e for e in errors), errors)

    def test_omp_runtime_call_is_flagged(self):
        mutated = LOOP_OK.replace(
            "v[i] *= 2.0f;", "v[i] *= omp_get_num_threads();")
        errors = sb_lint.check_one_runtime({"loop.cpp": mutated})
        self.assertTrue(any("omp_*" in e for e in errors), errors)

    def test_thread_count_variable_name_is_not_a_call(self):
        fixture = 'const char* name = "OMP_NUM_THREADS";\n'
        self.assertEqual(sb_lint.check_one_runtime({"env.cpp": fixture}), [])

    def test_tree_walk_covers_every_runtime_dir(self):
        files = sb_lint.runtime_sources(REPO_ROOT)
        tops = {path.split("/", 1)[0] for path in files}
        self.assertEqual(tops, set(sb_lint.RUNTIME_DIRS))
        self.assertIn("src/parallel/parallel_for.cpp", files)


if __name__ == "__main__":
    unittest.main()
