#!/usr/bin/env python3
"""Same-host A/B of the repository benchmark between two source trees.

    python3 tools/perf_ab.py BASE_TREE HEAD_TREE [--pairs N]

For every workload in HEAD_TREE's BENCHMARK.json, runs N pairs of

    perfbench/run.py --workload W --seed 1 --seconds RUN_SECONDS --trace 0

with one run in each tree per pair, alternating which tree goes first.
RUN_SECONDS is BENCHMARK.json's run_seconds, the run length its bounds were
set for. Both
trees run HEAD_TREE's perfbench/: BASE_TREE's is set aside for the duration
of the A/B and restored afterwards, so the measuring code is identical on
both sides and only the simulator sources differ. Each tree builds into its
own .bench_build.

Prints one markdown row per (workload, end-to-end metric): each side's median
and quartiles, the change/parent ratio of the medians, and in how many pairs
the change was better. A row is marked `unresolved` when the parent's
quartile spread, relative to its median, is wider than the metric's bound,
unless every change run is better than every parent run.

Exits 1 when some metric's change median is worse than the parent median by
more than that metric's `bound` in BENCHMARK.json, when a metric is missing
from either side, or when the change side fails a larger share of its
repetitions (failed / attempted) than the parent or reports correct: false.
Exits 2 when a tree cannot be measured at all (no sources, build failure, no
result line). perfbench/nwcbench.cpp includes simulator headers and calls
internal classes (mem::Directory, SetAssocCache, the machine trace), so a
change that alters one of those APIs, and adapts perfbench/ to it, leaves a
BASE_TREE that HEAD_TREE's perfbench/ cannot build; the A/B then says so and
exits 2. Such a change has to be split: first move perfbench/ onto an API
both sides have, then alter or remove the old one.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

SEED = 1
BASE_BUILD_FAILED = (
    "BASE_TREE cannot be built with HEAD_TREE's perfbench/: perfbench/nwcbench.cpp "
    "uses simulator APIs that differ between the trees. Split the change: first "
    "move perfbench/ onto an API both trees have, then change the simulator.")


def log(msg):
    print(f"perf_ab: {msg}", file=sys.stderr, flush=True)


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    v = sorted(values)

    def at(q):
        pos = q * (len(v) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def worse_by(metric, parent, change):
    """How much worse change is than parent, as a fraction of parent (<= 0: not worse)."""
    delta = (change - parent) if metric["better"] == "lower" else (parent - change)
    if parent == 0:
        return float("inf") if delta > 0 else -float("inf") if delta < 0 else 0.0
    return delta / abs(parent)


def verdict(spec, parent, change):
    """The gate, as a pure function of the measurements.

    spec is BENCHMARK.json; parent and change map each workload name to the
    list of run.py result objects ({correct, attempted, failed, metrics}) of
    that side, pair i of one side matching pair i of the other. Returns
    (rows, failures): rows are dicts for the table, failures are one-line
    reasons, and the gate passes when failures is empty.
    """
    rows, failures = [], []
    for wl in (w["name"] for w in spec["workloads"]):
        p_runs, c_runs = parent.get(wl, []), change.get(wl, [])
        p_att = sum(r["attempted"] for r in p_runs)
        c_att = sum(r["attempted"] for r in c_runs)
        p_share = sum(r["failed"] for r in p_runs) / p_att if p_att else 1.0
        c_share = sum(r["failed"] for r in c_runs) / c_att if c_att else 1.0
        if not c_runs or c_share > p_share:
            failures.append(f"{wl}: change failed {c_share:.1%} of its repetitions, "
                            f"parent {p_share:.1%}")
        if any(r["correct"] is not True for r in c_runs):
            failures.append(f"{wl}: change reported correct: false")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            p_vals = [r["metrics"].get(name, {}).get("value") for r in p_runs]
            c_vals = [r["metrics"].get(name, {}).get("value") for r in c_runs]
            row = {"workload": wl, "metric": name, "unit": m["unit"], "bound": bound}
            rows.append(row)
            missing = [side for side, vals in (("parent", p_vals), ("change", c_vals))
                       if not vals or None in vals]
            if missing:
                row["status"] = "missing on " + " and ".join(missing)
                failures.append(f"{wl} {name}: {row['status']}")
                continue
            row["parent"], row["change"] = quartiles(p_vals), quartiles(c_vals)
            p_med, c_med = row["parent"][1], row["change"][1]
            row["ratio"] = c_med / p_med if p_med else float("inf")
            row["wins"] = sum(worse_by(m, p, c) < 0 for p, c in zip(p_vals, c_vals))
            row["pairs"] = min(len(p_vals), len(c_vals))
            spread = (row["parent"][2] - row["parent"][0]) / abs(p_med) if p_med else 0.0
            worse = worse_by(m, p_med, c_med)
            if worse > bound:
                row["status"] = "REGRESSED"
                failures.append(f"{wl} {name}: change median {c_med:.4g} is {worse:.1%} "
                                f"worse than parent {p_med:.4g} (bound {bound:.0%})")
            elif spread > bound and not all(worse_by(m, p, c) < 0
                                            for p in p_vals for c in c_vals):
                row["status"] = "unresolved"
            else:
                row["status"] = "ok"
    return rows, failures


def table(rows):
    def q(t):
        return f"{t[1]:.4g} [{t[0]:.4g}, {t[2]:.4g}]"

    out = ["| workload | metric | parent median [q1, q3] | change median [q1, q3] "
           "| change/parent | change wins | bound | status |",
           "|---|---|---|---|---|---|---|---|"]
    for r in rows:
        if "ratio" in r:
            cells = [q(r["parent"]), q(r["change"]), f"{r['ratio']:.3f}",
                     f"{r['wins']}/{r['pairs']}"]
        else:
            cells = ["-", "-", "-", "-"]
        out.append(f"| {r['workload']} | {r['metric']} ({r['unit']}) | " + " | ".join(cells)
                   + f" | {r['bound']:.0%} | {r['status']} |")
    return "\n".join(out)


def run_once(tree, workload, seconds, is_base):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each tree builds into its own .bench_build
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=2 * seconds + 1800)
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        if is_base and "build failed" in proc.stderr:
            raise RuntimeError(BASE_BUILD_FAILED)
        raise RuntimeError(f"{tree}: {workload} printed no result (exit {proc.returncode})")
    log(f"{workload} {os.path.basename(os.path.normpath(tree))}: run_s="
        f"{res['metrics'].get('run_s', {}).get('value')} correct={res['correct']}")
    return res


def measure(base, head, spec, pairs, seconds):
    parent = {w["name"]: [] for w in spec["workloads"]}
    change = {w["name"]: [] for w in spec["workloads"]}
    for wl in parent:
        for i in range(pairs):
            sides = [(base, parent), (head, change)]
            for tree, out in (sides if i % 2 == 0 else sides[::-1]):
                out[wl].append(run_once(tree, wl, seconds, out is parent))
    return parent, change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", metavar="BASE_TREE")
    ap.add_argument("head", metavar="HEAD_TREE")
    ap.add_argument("--pairs", type=int, default=3)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("need --pairs >= 1")
    base, head = os.path.abspath(args.base), os.path.abspath(args.head)
    for tree in (base, head):
        if not os.path.isfile(os.path.join(tree, "src", "CMakeLists.txt")):
            ap.error(f"{tree}: no simulator sources under src/")
    with open(os.path.join(head, "BENCHMARK.json")) as f:
        spec = json.load(f)

    base_bench, head_bench = os.path.join(base, "perfbench"), os.path.join(head, "perfbench")
    saved = None
    try:
        if os.path.realpath(base) != os.path.realpath(head):
            saved = tempfile.mkdtemp(prefix="perf_ab_")
            if os.path.isdir(base_bench):
                shutil.move(base_bench, os.path.join(saved, "perfbench"))
            shutil.copytree(head_bench, base_bench)
            log(f"{base_bench} replaced by HEAD_TREE's for this A/B")
        parent, change = measure(base, head, spec, args.pairs, spec["run_seconds"])
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as ex:
        log(str(ex))
        print(f"**verdict: not measured**: {ex}")
        return 2
    finally:
        if saved is not None:
            shutil.rmtree(base_bench, ignore_errors=True)
            if os.path.isdir(os.path.join(saved, "perfbench")):
                shutil.move(os.path.join(saved, "perfbench"), base_bench)
            shutil.rmtree(saved, ignore_errors=True)

    rows, failures = verdict(spec, parent, change)
    print(f"### perfbench A/B: {args.pairs} pairs per workload, seed {SEED}, "
          f"run_seconds {spec['run_seconds']:g}\n")
    print(table(rows))
    print()
    for wl in parent:
        print(f"- {wl}: failed/attempted parent "
              f"{sum(r['failed'] for r in parent[wl])}/{sum(r['attempted'] for r in parent[wl])}, "
              f"change {sum(r['failed'] for r in change[wl])}/"
              f"{sum(r['attempted'] for r in change[wl])}")
    print()
    for msg in failures:
        print(f"- **FAIL** {msg}")
    print("**verdict: " + ("FAIL**" if failures else "pass**"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
