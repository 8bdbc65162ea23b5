#!/usr/bin/env python3
"""End-to-end benchmark of the PIC PRK: one drifting population, three workloads.

    python3 e2ebench/run.py --workload serial-1t|drift-lb|ampi-vp \
        --seed N --seconds S --trace 0|1

Run from the root of the repository. Builds the `e2ebench` package (its own
workspace, path dependencies on the repository's crates) with cargo into
`$CARGO_TARGET_DIR` (default `.bench_build`), then for `--seconds` seconds
runs one operation after another, each in a process of its own under a
deadline. An operation is one whole run of the workload on the population
made from `--seed`; it fails on a panic, a timeout, a verification FAIL, an
id-checksum mismatch, a final count other than n, or a digest of the final
particle state that differs from the other operations'. A rank-parallel
workload also runs the serial reference once, untimed, and its digest must
match: the exact tier is bit-identical across implementations.

With `--trace 0` the last line of standard output is a JSON object carrying
the medians of the end-to-end metrics of BENCHMARK.json, the times among
them scaled by the host speed each operation measured (CAL_REF_S below);
with `--trace 1` operations alternate untraced and traced (in the order
U T T U), and it carries the per-layer metrics (medians over the traced
operations) with the tracing overhead.
The lines before it give the host facts, a table of every metric and, when
traced, the ledger of the median traced operation. See NOTES.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

# Rank threads each workload runs; a workload needing more than the host
# has is refused.
WORKLOADS = {"serial-1t": 1, "drift-lb": 2, "ampi-vp": 2}
REFERENCE = "serial-1t"

# The problem every workload runs (see NOTES.md): n particles on a
# grid x grid mesh for `steps` steps.
PARTICLES = 1_000_000
GRID = 512
STEPS = 100

# The host's speed drifts by up to 40% for minutes at a time (NOTES.md).
# Every operation times a fixed calibration kernel of the benchmark's own
# around its run, and these metrics are reported in host-scaled seconds:
# the measured time times CAL_REF_S over the operation's calibration time,
# i.e. seconds on a host where the kernel takes CAL_REF_S. Wall times are
# scaled by the kernel's wall time, CPU time by its CPU time.
CAL_REF_S = 0.125
HOST_SCALED = {"run_s": "cal_s", "setup_s": "cal_s", "cpu_s": "cal_cpu_s"}

# A run must end within 180 s. Every operation has a deadline, none starts
# unless twice the longest so far still fits before the serial reference's
# reserve, and the reference must end by RUN_LIMIT_S.
OP_DEADLINE_S = 60.0
RUN_LIMIT_S = 170.0
REFERENCE_RESERVE_S = 20.0
MIN_OPS = {0: 3, 1: 4}


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = stats.check_spec(spec)
    if problems:
        fail("BENCHMARK.json: " + "; ".join(problems))
    return spec


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.abspath(d)


def build():
    """Build the operation binary; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        rc = subprocess.call(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("cargo not found")
    if rc != 0:
        fail(f"building the benchmark failed (cargo exit {rc})")
    return os.path.join(target_dir(), "release", "e2ebench")


def command_output(cmd, env=None):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_facts(workload):
    # Stop git at the checkout: a copy that is not a repository reports
    # "unknown" instead of some enclosing repository's commit.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rank_threads": WORKLOADS[workload],
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": command_output(["git", "-C", ROOT, "rev-parse", "HEAD"], env=git_env),
    }


def run_op(binary, args, deadline):
    """One operation in a process of its own: `(result, None)` or `(None, why it failed)`."""
    proc = subprocess.Popen(
        [binary] + [str(a) for a in args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=deadline)
    except BaseException as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(e, subprocess.TimeoutExpired):
            return None, f"timed out after {deadline:.0f} s"
        raise
    if proc.returncode != 0:
        last = err.strip().splitlines()[-1:] or ["no message"]
        return None, f"exit code {proc.returncode}: {last[0]}"
    try:
        return json.loads(out.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "no JSON result line"


def traced_turn(i):
    """Whether operation `i` of a traced run is traced: untraced, traced,
    traced, untraced, and again. Each kind goes first in every other pair,
    so a drift over the run weighs on both kinds alike."""
    return i % 4 in (1, 2)


def check(r, n, digest):
    """Why a finished operation's output is wrong (None when it is right)."""
    expected = n * (n + 1) // 2
    if not r["passed"]:
        return "verification FAIL"
    if r["id_sum"] != expected or r["expected_id_sum"] != expected:
        return f"id checksum {r['id_sum']} (ledger {r['expected_id_sum']}), expected {expected}"
    if r["count"] != n:
        return f"final count {r['count']}, expected {n}"
    if digest is not None and r["digest"] != digest:
        return f"state digest {r['digest']} differs from {digest}"
    # The program's phase clocks must fit inside the run the benchmark
    # timed; more than 2% over means overlapping or double-counted phases.
    if "layers" in r and r["unattributed_s"] < -0.02 * r["run_s"]:
        return f"layers exceed the run by {-r['unattributed_s']:.4f} s"
    return None


def scaled(r, name):
    """Metric `name` of operation `r`, host-scaled when it is a time."""
    if name in HOST_SCALED:
        return r[name] * CAL_REF_S / r[HOST_SCALED[name]]
    return r[name]


def print_ledger(r):
    print(f"ledger of the median traced run ({r['workload']}, run_s {r['run_s']:.4f} s):")
    for name, secs in r["ledger_rows"] + [["unattributed", r["unattributed_s"]]]:
        print(f"  {name:<13} {secs:10.4f} s  {100 * secs / r['run_s']:6.2f} %")
    total = sum(v for _, v in r["ledger_rows"]) + r["unattributed_s"]
    print(f"  {'sum':<13} {total:10.4f} s  (run_s {r['run_s']:.4f} s)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--particles", type=int, default=PARTICLES)
    ap.add_argument("--grid", type=int, default=GRID)
    ap.add_argument("--steps", type=int, default=STEPS)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if args.seed < 0:
        fail("--seed must be non-negative")
    spec = load_spec()
    host = host_facts(args.workload)
    if host["rank_threads"] > host["nproc"]:
        fail(f"{args.workload} needs {host['rank_threads']} threads, host has {host['nproc']}")
    binary = build()

    n = args.particles
    def op_args(workload, traced):
        return [
            "--workload", workload, "--seed", args.seed, "--particles", n,
            "--grid", args.grid, "--steps", args.steps, "--trace", int(traced),
        ]

    start = time.monotonic()
    ops, failures = [], []  # ops: (traced, result) of every correct operation
    digest = None
    attempted = 0
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if attempted >= MIN_OPS[args.trace] and elapsed >= args.seconds:
            break
        if elapsed + 2 * longest > RUN_LIMIT_S - REFERENCE_RESERVE_S:
            break
        traced = args.trace == 1 and traced_turn(attempted)
        deadline = min(OP_DEADLINE_S, RUN_LIMIT_S - REFERENCE_RESERVE_S - elapsed)
        result, error = run_op(binary, op_args(args.workload, traced), deadline)
        attempted += 1
        longest = max(longest, time.monotonic() - start - elapsed)
        error = error or check(result, n, digest)
        if error:
            failures.append(error)
        else:
            digest = digest or result["digest"]
            ops.append((traced, result))

    reference = None
    if args.workload != REFERENCE:
        deadline = min(OP_DEADLINE_S, RUN_LIMIT_S - (time.monotonic() - start))
        reference, error = run_op(binary, op_args(REFERENCE, False), deadline)
        attempted += 1
        error = error or check(reference, n, digest)
        if error:
            failures.append(f"serial reference: {error}")

    plain = [r for traced, r in ops if not traced]
    traced = [r for traced, r in ops if traced]
    if not plain or (args.trace == 1 and not traced):
        for f in failures:
            print(f"failed: {f}", file=sys.stderr)
        fail("no successful operation to report")

    first = ops[0][1]
    host.update(pool_threads=first["pool_threads"], simd=first["simd"], kernel=first["kernel"])
    print("host " + json.dumps(host, sort_keys=True))
    print(f"workload {args.workload}: seed {args.seed}, n {n}, grid {args.grid}, "
          f"steps {args.steps}, {attempted} operations in {time.monotonic() - start:.1f} s")
    print(f"digest {digest}" + (f" (serial reference {reference['digest']})"
                                if reference else ""))
    for f in failures:
        print(f"failed: {f}")
    print("run_s of each operation (wall, unscaled; t = traced): " + " ".join(
        f"{r['run_s']:.4f}{'t' if t else ''}" for t, r in ops))
    print("calibration of each operation (wall/cpu): " + " ".join(
        f"{r['cal_s']:.4f}/{r['cal_cpu_s']:.4f}" for _, r in ops))
    print("unscaled medians: " + " ".join(
        f"{k} {stats.median([r[k] for r in plain]):.4f} s"
        for k in list(HOST_SCALED) + ["cal_s", "cal_cpu_s"]))

    metrics = {}
    if args.trace == 0:
        for m in spec["end_to_end"]:
            value = float(stats.median([scaled(r, m["name"]) for r in plain]))
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        layer = {
            "init.s": stats.median([r["init_s"] for _, r in ops]),
            "bin.build_s": stats.median([r["bin_build_s"] for _, r in ops]),
            "ledger.trace_overhead_frac": stats.median([scaled(r, "run_s") for r in traced])
            / stats.median([scaled(r, "run_s") for r in plain]) - 1.0,
        }
        for key in traced[0]["layers"]:
            layer[key] = stats.median([r["layers"][key] for r in traced])
        for m in spec["per_layer"]:
            if m["name"] not in layer:
                fail(f"the program reported no {m['name']}")
            metrics[m["name"]] = {"value": float(layer[m["name"]]), "unit": m["unit"]}
        by_time = sorted(traced, key=lambda r: r["run_s"])
        print_ledger(by_time[(len(by_time) - 1) // 2])

    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    print(f"operations attempted {attempted}, failed {len(failures)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
