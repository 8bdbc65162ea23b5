#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and drift between two sets.

    python3 e2ebench/spread.py --seeds 1-10 [--workloads a,b] [--out set.json]
    python3 e2ebench/spread.py --compare first.json second.json

The first form runs `run.py` once per seed and workload (trace off, the
run length of BENCHMARK.json, workloads taken in turn), then prints for
every metric its median, quartiles and spread (quartile distance over
median) against its bound. A spread above the bound fails; above a third
of the bound it is flagged as not yet steady. The second form checks that
no median of the second set is worse than the first's by more than the
metric's bound. Run from the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_set(spec, workloads, seeds):
    # Round-robin over workloads, so that a slow spell of the host lands on
    # a few runs of every workload instead of half the runs of one.
    results = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect result {res}")
            values = {k: v["value"] for k, v in res["metrics"].items()}
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                  flush=True)
            results[w].append(values)
    return results


def report(spec, results):
    ok = True
    for w, runs in results.items():
        print(f"\n{w} ({len(runs)} runs)")
        for m in spec["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            q1, q3 = stats.quartiles(vals)
            sp = stats.spread(vals)
            if sp > m["bound"]:
                verdict, ok = "FAIL", False
            elif sp > m["bound"] / 3:
                verdict = "unsteady"
            else:
                verdict = "ok"
            print(f"  {m['name']:<16} median {stats.median(vals):<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {sp:7.4f} bound {m['bound']:<5} {verdict}")
    return ok


def compare(spec, first, second):
    ok = True
    for w in first:
        for m in spec["end_to_end"]:
            a = stats.median([r[m["name"]] for r in first[w]])
            b = stats.median([r[m["name"]] for r in second[w]])
            worse = stats.worsening(a, b, m["better"])
            good = stats.within_bound(a, b, m["better"], m["bound"])
            ok &= good
            print(f"{w:<10} {m['name']:<16} {a:<12.6g} -> {b:<12.6g} worse by {worse:+.4f} "
                  f"(bound {m['bound']}) {'ok' if good else 'FAIL'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(0 if compare(spec, *sets) else 1)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    results = run_set(spec, workloads, args.seeds)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if report(spec, results) else 1)


if __name__ == "__main__":
    main()
