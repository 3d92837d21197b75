#!/usr/bin/env python3
"""The repository's benchmark command.

Builds the perfbench program from this source tree, runs one workload,
applies the correctness gates and prints one JSON result as the last line
of standard output. Run it from the repository root:

    python3 perfbench/run.py --workload paper-train --seed 42 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. --update-expected records this seed's accuracy, AUC and
score digest in perfbench/expected.json instead of gating on them (only
for paper-train and dist-train, the two workloads that define them).
Exits non-zero when the build fails, the program fails, or a gate fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
WORKLOADS = ("paper-train", "dist-train", "dist-shm", "serve-online")
# The committed values each workload is judged against: dist-train and
# dist-shm train the same model; serve-online serves paper-train's SGD-head
# model, trained identically.
EXPECTED_GROUP = {"paper-train": "paper-train", "dist-train": "dist",
                  "dist-shm": "dist", "serve-online": "paper-train"}
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def fail(message, code=2):
    log(message)
    sys.exit(code)


def cpu_count():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)


def build():
    """Configure once and build the perfbench target; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no StreamBrain source tree at {ROOT}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") \
        / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", str(cpu_count())])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {step[:2]} exited {done.returncode}")
    return build_dir / "perfbench"


def source_commit():
    """The git commit, or a digest of the sources when not in a checkout."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include"):
        path = ROOT / top
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for file in files:
            if file.is_file():
                digest.update(str(file.relative_to(ROOT)).encode())
                digest.update(file.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) scheduler ticks of this host, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            ticks = [int(field) for field in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def host_record(program_host, ticks_before, ticks_after):
    env = {key: value for key, value in sorted(os.environ.items())
           if key.startswith(("OMP_", "STREAMBRAIN_"))}
    record = {"nproc": cpu_count(), **program_host, "env": env,
              "commit": source_commit()}
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        # CPU time the hypervisor gave to other guests during the run: the
        # main source of run-to-run spread on shared virtual machines.
        record["cpu_steal_frac"] = round(
            (ticks_after[0] - ticks_before[0]) /
            (ticks_after[1] - ticks_before[1]), 4)
    return record


def run_program(binary, args):
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        fail(f"{args.workload} exited {done.returncode}", 3)
    host = json.loads(lines[0].split(":", 1)[1])
    return host, json.loads(lines[-1])


def committed_values(group, seed):
    """(values, exact): this seed's committed values, or else the median
    over all committed seeds (no digest) when the seed was never recorded."""
    table = json.loads(EXPECTED.read_text()).get(group, {})
    if str(seed) in table:
        return table[str(seed)], True
    if not table:
        fail(f"no committed values for {group}")
    keys = {key for entry in table.values() for key in entry
            if key != "digest"}
    return {key: statistics.median(entry[key] for entry in table.values())
            for key in keys}, False


def gate(args, raw, bounds):
    """Failures of the committed-value gates."""
    failures = []
    expected, exact = committed_values(EXPECTED_GROUP[args.workload],
                                       args.seed)
    if not exact:
        log(f"seed {args.seed} has no committed values: gating accuracy and "
            "AUC on the median over committed seeds, digest unchecked")
    for key, observed in raw["quality"].items():
        if key not in expected:
            continue
        bound = bounds[key.split("_")[0] + "_sgd"]
        if abs(observed - expected[key]) > bound * expected[key]:
            failures.append(f"{key} {observed:.6f} is not within {bound:.0%} "
                            f"of the committed {expected[key]:.6f}")
    if exact and "digest" in expected and raw["digest"] != expected["digest"]:
        failures.append(f"test-score digest {raw['digest']} differs from the "
                        f"committed {expected['digest']}")
    return failures


def update_expected(args, raw):
    if args.workload not in ("paper-train", "dist-train"):
        fail("--update-expected applies to paper-train and dist-train only")
    table = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    entry = dict(raw["quality"])
    if args.workload == "dist-train":
        entry["digest"] = raw["digest"]
    table.setdefault(EXPECTED_GROUP[args.workload], {})[str(args.seed)] = entry
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    log(f"recorded seed {args.seed} for {args.workload}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    binary = build()
    ticks_before = cpu_ticks()
    program_host, raw = run_program(binary, args)
    host = host_record(program_host, ticks_before, cpu_ticks())
    print("host: " + json.dumps(host, sort_keys=True))

    failures = list(raw["failures"])
    if args.update_expected:
        update_expected(args, raw)
    else:
        bounds = {metric["name"]: metric["bound"]
                  for metric in spec["end_to_end"]}
        failures += gate(args, raw, bounds)

    values = {**raw["metrics"], **raw["quality"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        # A per-layer metric of a layer this workload does not run reads 0.
        value = 0.0 if args.trace and name not in values else values.get(name)
        if value is None:
            failures.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": value, "unit": metric["unit"]}
    for failure in failures:
        log("GATE FAILED: " + failure)
    print(json.dumps({"correct": not failures, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
