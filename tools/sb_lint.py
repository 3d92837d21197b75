#!/usr/bin/env python3
"""Repo-specific invariant linter for streambrain.

Checks structural conventions that neither the compiler nor clang-tidy
can see, because they live in the *relationship* between distant pieces
of code:

1. checkpoint-sections — core/serialization.cpp's `enum class Section`
   tags must be unique, contiguous from 1 (a gap means a reader/writer
   pair was forgotten when a subsystem landed), and every tag must be
   referenced outside the enum at least twice (its write site and its
   read check; a tag referenced once has a writer with no reader or
   vice versa).

2. kernel-tiers — every dispatch tier (kernel_scalar.cpp,
   kernel_sse42.cpp, kernel_avx2.cpp) must aggregate-initialize its
   KernelSet with `&k_<field>` entries for *all* function-pointer fields
   of struct KernelSet, in declaration order. Aggregate init is
   positional, so a missing or swapped entry compiles fine and calls
   the wrong kernel — the exact class of bug this check exists for.

3. close-reason-counters — every enumerator of AsyncPredictor's
   CloseReason must have a matching `<reason>_closes` counter in
   AsyncPredictorStats, a `case CloseReason::kX:` bump in
   async_predictor.cpp, and close_reasons_total() must sum exactly the
   declared counters (so the "reasons partition batches" invariant the
   serving tests assert cannot silently lose a term).

4. one-runtime — parallel::ThreadPool is the only thread runtime:
   every parallel loop goes through parallel::for_blocks. Under src/,
   include/, tests/, bench/ and examples/ no C++ file may carry a
   `#pragma omp` other than `omp simd` (a compile-time vectorization
   hint), include <omp.h>, or call an `omp_*` function.

Checks are plain functions over file *text* so the unit tests
(tests/lint/test_sb_lint.py) can feed fixtures; main() wires them to
the real tree. Exit status: 0 clean, 1 findings, 2 usage/IO error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SERIALIZATION = "src/core/serialization.cpp"
KERNEL_SET_HEADER = "src/tensor/kernel_set.hpp"
KERNEL_TIERS = (
    "src/tensor/kernel_scalar.cpp",
    "src/tensor/kernel_sse42.cpp",
    "src/tensor/kernel_avx2.cpp",
)
ASYNC_HPP = "src/api/async_predictor.hpp"
ASYNC_CPP = "src/api/async_predictor.cpp"
RUNTIME_DIRS = ("src", "include", "tests", "bench", "examples")
CXX_SUFFIXES = {".cpp", ".cc", ".hpp", ".h", ".inl"}


# --- check 1: checkpoint section tags --------------------------------------

def parse_sections(text: str) -> list[tuple[str, int]]:
    """(name, tag) pairs from `enum class Section : ... { ... };`."""
    match = re.search(
        r"enum\s+class\s+Section[^{]*\{(?P<body>[^}]*)\}", text)
    if not match:
        raise ValueError("no `enum class Section` found")
    pairs = []
    for name, value in re.findall(
            r"(k\w+)\s*=\s*(\d+)", match.group("body")):
        pairs.append((name, int(value)))
    return pairs


def check_checkpoint_sections(text: str,
                              path: str = SERIALIZATION) -> list[str]:
    errors: list[str] = []
    try:
        sections = parse_sections(text)
    except ValueError as err:
        return [f"{path}: {err}"]
    if not sections:
        return [f"{path}: Section enum has no explicit tags"]

    by_value: dict[int, list[str]] = {}
    for name, value in sections:
        by_value.setdefault(value, []).append(name)
    for value, names in sorted(by_value.items()):
        if len(names) > 1:
            errors.append(
                f"{path}: duplicate checkpoint tag {value} "
                f"({', '.join(names)}) — two sections would parse "
                "identically on read")

    values = sorted(by_value)
    expected = list(range(1, len(sections) + 1))
    if values != expected and not errors:
        errors.append(
            f"{path}: checkpoint tags {values} are not contiguous from 1 "
            "— a retired tag must keep its enumerator (readers of old "
            "files need it), a new section must take the next value")

    enum_span = re.search(r"enum\s+class\s+Section[^{]*\{[^}]*\}", text)
    rest = text[:enum_span.start()] + text[enum_span.end():]
    for name, value in sections:
        uses = len(re.findall(rf"Section::{name}\b", rest))
        if uses < 2:
            errors.append(
                f"{path}: Section::{name} (tag {value}) referenced "
                f"{uses} time(s) outside the enum — expected a write "
                "site and a read check")
    return errors


# --- check 2: kernel dispatch tiers ----------------------------------------

def parse_kernel_fields(header_text: str) -> list[str]:
    """Function-pointer field names of struct KernelSet, in order."""
    match = re.search(
        r"struct\s+KernelSet\s*\{(?P<body>.*?)\n\};", header_text, re.S)
    if not match:
        raise ValueError("no `struct KernelSet` found")
    return re.findall(r"\(\s*\*\s*(\w+)\s*\)\s*\(", match.group("body"))


def parse_tier_entries(tier_text: str) -> list[str]:
    """&k_<name> entries of the tier's KernelSet initializer, in order."""
    match = re.search(
        r"static\s+const\s+KernelSet\s+\w+\s*=\s*\{(?P<body>.*?)\};",
        tier_text, re.S)
    if not match:
        raise ValueError("no `static const KernelSet ... = { ... };` "
                         "initializer found")
    return re.findall(r"&\s*k_(\w+)", match.group("body"))


def check_kernel_tiers(header_text: str,
                       tiers: dict[str, str]) -> list[str]:
    errors: list[str] = []
    try:
        fields = parse_kernel_fields(header_text)
    except ValueError as err:
        return [f"{KERNEL_SET_HEADER}: {err}"]
    if not fields:
        return [f"{KERNEL_SET_HEADER}: KernelSet has no function-pointer "
                "fields"]

    for path, text in tiers.items():
        try:
            entries = parse_tier_entries(text)
        except ValueError as err:
            errors.append(f"{path}: {err}")
            continue
        if entries == fields:
            continue
        missing = [f for f in fields if f not in entries]
        extra = [e for e in entries if e not in fields]
        if missing:
            errors.append(
                f"{path}: tier initializer is missing &k_{missing[0]} "
                f"(and {len(missing) - 1} more)" if len(missing) > 1 else
                f"{path}: tier initializer is missing &k_{missing[0]}")
        if extra:
            errors.append(
                f"{path}: tier initializer names unknown kernel(s): "
                + ", ".join(f"&k_{e}" for e in extra))
        if not missing and not extra:
            errors.append(
                f"{path}: tier initializer order diverges from struct "
                f"KernelSet field order (aggregate init is positional; "
                f"first mismatch at position "
                f"{next(i for i, (a, b) in enumerate(zip(entries, fields)) if a != b)})")
    return errors


# --- check 3: close-reason counter convention -------------------------------

def _reason_to_counter(enumerator: str) -> str:
    """kDeadline -> deadline_closes (CamelCase -> snake_case)."""
    stem = enumerator[1:] if enumerator.startswith("k") else enumerator
    snake = re.sub(r"(?<!^)(?=[A-Z])", "_", stem).lower()
    return f"{snake}_closes"


def parse_close_reasons(hpp_text: str) -> list[str]:
    match = re.search(
        r"enum\s+class\s+CloseReason\s*\{(?P<body>[^}]*)\}", hpp_text)
    if not match:
        raise ValueError("no `enum class CloseReason` found")
    return re.findall(r"k\w+", match.group("body"))


def check_close_reason_counters(hpp_text: str,
                                cpp_text: str) -> list[str]:
    errors: list[str] = []
    try:
        reasons = parse_close_reasons(hpp_text)
    except ValueError as err:
        return [f"{ASYNC_HPP}: {err}"]

    declared = re.findall(r"std::uint64_t\s+(\w+_closes)\b", hpp_text)
    for reason in reasons:
        counter = _reason_to_counter(reason)
        if counter not in declared:
            errors.append(
                f"{ASYNC_HPP}: CloseReason::{reason} has no "
                f"`{counter}` counter in AsyncPredictorStats")
        if not re.search(
                rf"case\s+CloseReason::{reason}\s*:.*?{counter}\s*\+=",
                cpp_text, re.S):
            errors.append(
                f"{ASYNC_CPP}: no `case CloseReason::{reason}:` bump of "
                f"`{counter}` — this close reason would not be counted")

    total = re.search(
        r"close_reasons_total\(\)\s*const\s*noexcept\s*\{(?P<body>.*?)\}",
        hpp_text, re.S)
    if not total:
        errors.append(
            f"{ASYNC_HPP}: AsyncPredictorStats::close_reasons_total() "
            "accessor is missing")
    else:
        summed = set(re.findall(r"(\w+_closes)\b", total.group("body")))
        if summed != set(declared):
            missing = sorted(set(declared) - summed)
            surplus = sorted(summed - set(declared))
            if missing:
                errors.append(
                    f"{ASYNC_HPP}: close_reasons_total() omits "
                    + ", ".join(missing))
            if surplus:
                errors.append(
                    f"{ASYNC_HPP}: close_reasons_total() sums unknown "
                    "counter(s): " + ", ".join(surplus))
    return errors


# --- check 4: one thread runtime --------------------------------------------

OPENMP_RUNTIME_USES = (
    (re.compile(r"^\s*#\s*pragma\s+omp\b(?!\s+simd\b)"),
     "`#pragma omp` other than `omp simd`"),
    (re.compile(r"#\s*include\s*[<\"]omp\.h[>\"]"), "<omp.h> include"),
    (re.compile(r"\bomp_\w+\s*\("), "`omp_*` runtime call"),
)


def check_one_runtime(files: dict[str, str]) -> list[str]:
    """Flag OpenMP runtime uses in {path: text}; only `omp simd` passes."""
    errors: list[str] = []
    for path, text in sorted(files.items()):
        for lineno, line in enumerate(text.splitlines(), start=1):
            for pattern, what in OPENMP_RUNTIME_USES:
                if pattern.search(line):
                    errors.append(
                        f"{path}:{lineno}: {what} — the ThreadPool is the "
                        "only thread runtime; parallel loops go through "
                        "parallel::for_blocks")
    return errors


def runtime_sources(root: Path) -> dict[str, str]:
    files = {}
    for top in RUNTIME_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                files[path.relative_to(root).as_posix()] = path.read_text(
                    encoding="utf-8")
    return files


# --- driver -----------------------------------------------------------------

def run_all(root: Path) -> list[str]:
    def read(rel: str) -> str:
        return (root / rel).read_text(encoding="utf-8")

    errors = []
    errors += check_checkpoint_sections(read(SERIALIZATION))
    errors += check_kernel_tiers(
        read(KERNEL_SET_HEADER), {t: read(t) for t in KERNEL_TIERS})
    errors += check_close_reason_counters(read(ASYNC_HPP), read(ASYNC_CPP))
    errors += check_one_runtime(runtime_sources(root))
    return errors


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else REPO_ROOT
    if not (root / SERIALIZATION).exists():
        print(f"sb_lint: {root} does not look like the streambrain repo "
              f"(missing {SERIALIZATION})", file=sys.stderr)
        return 2
    try:
        errors = run_all(root)
    except OSError as err:
        print(f"sb_lint: {err}", file=sys.stderr)
        return 2
    for error in errors:
        print(f"sb_lint: {error}")
    if errors:
        print(f"sb_lint: {len(errors)} invariant violation(s)")
        return 1
    print("sb_lint: all structural invariants hold "
          "(checkpoint-sections, kernel-tiers, close-reason-counters, "
          "one-runtime)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
