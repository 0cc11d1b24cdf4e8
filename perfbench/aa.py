#!/usr/bin/env python3
"""A/A steadiness check: run the same build twice and compare it with itself.

    python3 perfbench/aa.py [--workloads paper-flow,grading] [--runs 10]

Two sets of runs; in each set every workload runs --runs times, with seeds
1000, 1001, ... (the same seeds in both sets), untraced, for BENCHMARK.json's
run_seconds. For each end-to-end metric the tool reports, per set, the
spread of the values: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. It also
reports the drift: how much worse the second set's median is than the
first's. A metric passes when both spreads and the drift stay within its
bound. The "above target" verdict marks spreads above a third of the bound,
the margin the benchmark is tuned for.

Exits 1 if any run fails or any metric fails its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEED_BASE = 1000


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, last, better):
    """Relative amount by which `last` is worse than `first`."""
    if first == 0:
        return 0.0 if last == first else float("inf")
    change = (last - first) / abs(first)
    return change if better == "lower" else -change


def analyse(bench, sets):
    ok = True
    print(f"{'workload':<18}{'metric':<14}{'bound':>7}{'spread1':>10}{'spread2':>10}"
          f"{'drift':>9}  verdict")
    for w in sets[0]:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = [[r["metrics"][name]["value"] for r in s[w]] for s in sets]
            if any(len(v) < 2 for v in per_set):
                print(f"{w:<18}{name:<14}{bound:>7.3f}  too few runs  FAIL")
                ok = False
                continue
            spreads = [spread(v) for v in per_set]
            drift = worse_by(statistics.median(per_set[0]), statistics.median(per_set[1]),
                             m["better"])
            fail = drift > bound or max(spreads) > bound
            ok &= not fail
            verdict = ("FAIL" if fail else
                       "ok, above target" if max(spreads) > bound / 3 else "ok")
            print(f"{w:<18}{name:<14}{bound:>7.3f}" +
                  "".join(f"{s:>10.4f}" for s in spreads) + f"{drift:>+9.4f}  {verdict}")
    return ok


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    sets, failures = [], 0
    for s in range(SETS):
        results = {}
        for w in args.workloads.split(","):
            results[w] = []
            for k in range(args.runs):
                seed = SEED_BASE + k
                r = run_once(w, seed, bench["run_seconds"])
                if r is None:
                    failures += 1
                    print(f"set {s + 1} {w} seed {seed}: FAILED", flush=True)
                    continue
                results[w].append(r)
                vals = " ".join(f"{n}={v['value']:.4g}" for n, v in r["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: {vals}", flush=True)
        sets.append(results)
    ok = analyse(bench, sets) and failures == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
