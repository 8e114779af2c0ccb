#!/usr/bin/env python3
"""Benchmark self-test at tiny scale.

    python3 perfbench/selftest.py

Run from the root of a source tree. For every workload in BENCHMARK.json and
both --trace modes, runs perfbench/run.py at --scale 0.05 for one second and
checks that the last output line parses, has exactly the keys correct,
attempted, failed and metrics, passes its correctness gate, and prints every
metric BENCHMARK.json names for that mode, with its unit, as a finite
number. Then checks that run.py fails, without printing a result, in a
directory holding only BENCHMARK.json and perfbench/. Exits 1 on any
failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "0.05"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_result(spec, workload, trace, proc):
    problems = []
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as ex:
        return [f"last line does not parse: {ex}"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(res)}")
    if proc.returncode != 0 or res.get("correct") is not True:
        problems.append(f"exit {proc.returncode}, correct={res.get('correct')}")
    if not (isinstance(res.get("attempted"), int) and res["attempted"] >= 1
            and res.get("failed") == 0):
        problems.append(f"attempted={res.get('attempted')} failed={res.get('failed')}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = res.get("metrics", {})
    for name in sorted(set(got) - set(want)):
        problems.append(f"unexpected metric {name}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            problems.append(f"missing metric {name}")
        elif m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
        elif not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m.get('value')!r}")
        elif not trace and m["value"] == 0:
            problems.append(f"{name}: end-to-end value is 0")
    return problems


def check_sources_missing():
    """run.py must fail, printing no result, without the simulator sources."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bare = os.path.join(target, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-sor",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run_bench(ROOT, w["name"], trace)
            problems = check_result(spec, w["name"], trace, proc)
            label = f"{w['name']} --trace {trace}"
            if problems:
                failures += 1
                print(f"FAIL {label}: " + "; ".join(problems))
                sys.stderr.write(proc.stderr[-2000:])
            else:
                print(f"ok   {label}")
    problems = check_sources_missing()
    failures += bool(problems)
    print(("FAIL" if problems else "ok  ") + " fails without sources" +
          (": " + "; ".join(problems) if problems else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
