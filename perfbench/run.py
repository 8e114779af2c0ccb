#!/usr/bin/env python3
"""Repository benchmark entry point (see BENCHMARK.json and perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds perfbench/nwcbench (the simulator
libraries plus the measuring program, Release) into $CARGO_TARGET_DIR or
.bench_build, runs one workload in a process of its own, and prints as the
last stdout line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of a --seconds measuring loop with --trace 0,
the per-layer metrics of separate traced and recording repetitions with
--trace 1. Build logs, provenance (git SHA, dirty flag, core count, build
type) and each repetition's times go to stderr. Exits nonzero when the
sources are missing, the build fails, or any repetition fails its
correctness check.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-sor", "coherence-radix32", "blockserve-zipf")
# nwcbench runs at least three repetitions, and a traced run seven plus a
# replay, whatever --seconds is.
TIMEOUT_MARGIN_S = 110


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build_type(build_dir):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(build_dir):
    """Stamped at run time, outside the library: its configure-time SHA goes stale."""
    in_repo = git("rev-parse", "--show-toplevel") == os.path.realpath(ROOT)
    sha = git("rev-parse", "HEAD") if in_repo else None
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha or "unknown",
        "dirty": "unknown" if status is None else bool(status),
        "cores": os.cpu_count(),
        "build_type": build_type(build_dir),
    }


def build():
    """Configures once, then builds incrementally. Returns (build dir, binary)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"simulator sources not found under {ROOT}/src")
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "nwcbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return build_dir, os.path.join(build_dir, "nwcbench")


def run(binary, args):
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--scale={args.scale}"]
    if args.trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=2 * args.seconds + TIMEOUT_MARGIN_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"nwcbench printed nothing (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input scale in (0, 1]; below 1 only for the self-test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0 or not 0 < args.scale <= 1:
        ap.error("need --seed >= 0, --seconds > 0 and --scale in (0, 1]")

    try:
        t0 = time.monotonic()
        build_dir, binary = build()
        log(f"build ready in {time.monotonic() - t0:.1f} s")
        prov = provenance(build_dir)
        log("provenance " + json.dumps(prov, sort_keys=True))
        code, res = run(binary, args)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as ex:
        log(str(ex))
        return 2

    for err in res["errors"]:
        log(f"FAILED {err['rep']} repetition: {err['error']}")
    metrics = res["per_layer"] if args.trace else res["end_to_end"]
    correct = code == 0 and res["failed"] == 0 and bool(metrics)
    log(f"{args.workload} seed={args.seed}: {res['measured_reps']} measured repetitions, "
        f"host {json.dumps(res['host'], sort_keys=True)}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
