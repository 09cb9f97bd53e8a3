#!/usr/bin/env python3
"""Benchmark of the paper's pipeline and the layers under it.

Run from the root of a checkout of the repository:

    python3 lsibench/run.py --workload NAME --seed N --seconds S --trace 0|1
                            [--record FILE]

It builds lsibench/lsibench.exe with dune and runs it in child
processes.  Every child sets the workload up from the seed, runs it in
rounds, checks the first round's outputs, proves each check rejects a
corrupted copy of them, and requires every later round to give the same
result (see lsibench.ml for how a run is timed).  With --trace 0 one
child runs rounds for S seconds (at least two) and gives the
end-to-end metrics: run_s is the sum over the run's steps of each
step's fastest round, setup_s the median of the child's set-ups.  With
--trace 1 two untraced and two traced one-round children run in turn:
the traced ones give the per-layer figures (medians of the two), and
each traced-minus-untraced pair one sample of the tracing overhead.
Children of one invocation must agree exactly on their work counters.
attempted counts rounds; a round fails when its result differs from the
first round's, and every round of a child fails when one of its checks
does.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (the end_to_end metrics of BENCHMARK.json with --trace 0, the
per_layer ones with --trace 1; a layer a workload does not call reports
0).  The line before it holds the run's context: host, toolchain, seed,
input sizes, rounds, the exact work counters and, with --trace 1,
whether the tracing overhead stands out of the run-to-run spread.
--record FILE appends both to FILE as one JSON line.  The exit code is
0 only when every check passed.

Workloads (see BENCHMARK.json for why each exists):
  paper-pipeline  the paper's experiment on the lsi:8 chip; PODEM dominates
  fsim-5k         2-domain fault grading of a 5,000-gate random circuit
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "lsibench", "lsibench.exe")

TRACED_PAIRS = 2  # untraced and traced one-round children with --trace 1
DEADLINE_S = 170.0  # every invocation after the build ends within 180 s
BUILD_TIMEOUT_S = 840.0


def fail(message):
    print("lsibench: " + message, file=sys.stderr)
    sys.exit(2)


def command_output(argv):
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./lsibench/lsibench.exe"],
            capture_output=True, text=True, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
        fail("build failed")


def run_child(mode, workload, seed, seconds, deadline):
    """One child process; returns its report or None."""
    argv = [EXE, mode, workload, str(seed), repr(seconds)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("lsibench: %s child timed out" % mode, file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print("lsibench: unreadable child report", file=sys.stderr)
        return None


def child_ok(report):
    if report is None:
        return False
    bad = [c["name"] for c in report["checks"]
           if not (c["passed"] and c["bites"])]
    for name in bad:
        print("lsibench: check %s failed or does not bite" % name,
              file=sys.stderr)
    return not bad


def counters_repeat(reports):
    """The exact work counters of same-seed children must be equal."""
    exact = [r["exact"] for r in reports if r is not None]
    if all(e == exact[0] for e in exact[1:]):
        return True
    print("lsibench: exact counters differ between children: %s"
          % json.dumps(exact), file=sys.stderr)
    return False


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values):
    return max(values) - min(values) if values else 0.0


def trace_overhead(runs, traced):
    """The median traced-minus-untraced run_s of the pairs that ran in
    turn, the run-to-run spread of either kind, and whether the estimate
    stands out of that spread."""
    pairs = [t["run_s"] - u["run_s"] for u, t in zip(runs, traced)
             if u is not None and t is not None]
    noise = max(spread([u["run_s"] for u in runs if u is not None]),
                spread([t["run_s"] for t in traced if t is not None]))
    estimate = median(pairs)
    return {"estimate_s": estimate, "run_to_run_spread_s": noise,
            "resolved": bool(pairs) and abs(estimate) > noise}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1981)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append context and metrics here")
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile("BENCHMARK.json")):
        fail("run from the root of a checkout of the repository")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    build()
    deadline = time.monotonic() + DEADLINE_S
    runs, traced = [], []
    if not args.trace:
        runs.append(run_child("run", args.workload, args.seed, args.seconds,
                              deadline))
    for _ in range(TRACED_PAIRS if args.trace else 0):
        # In turn, so that each traced child has an untraced one run at
        # nearly the same moment to be compared with.
        runs.append(run_child("run", args.workload, args.seed, 0.0, deadline))
        traced.append(run_child("traced", args.workload, args.seed, 0.0,
                                deadline))
    children = runs + traced
    bad = [not child_ok(r) for r in children]
    if not counters_repeat(runs):
        bad[:len(runs)] = [True] * len(runs)
    if not counters_repeat(traced):
        bad[len(runs):] = [True] * len(traced)
    attempted = sum(r["rounds"] if r else 1 for r in children)
    failed = sum((r["rounds"] if r else 1) if b else r["unrepeated"]
                 for r, b in zip(children, bad))
    good = [r for r in runs if r is not None]
    good_traced = [r for r in traced if r is not None]

    overhead = trace_overhead(runs, traced) if args.trace else None
    if args.trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = {}
        for name, _ in names:
            samples = [r["layers"].get(name, 0.0) for r in good_traced]
            values[name] = median(samples)
        values["obs.trace_overhead_s"] = overhead["estimate_s"]
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = {
            "run_s": median([r["run_s"] for r in good]),
            "setup_s": median([s for r in good for s in r["setup_s"]]),
            "peak_heap_mb": median([r["peak_heap_mb"] for r in good]),
            "coverage": median([r["coverage"] for r in good]),
            "n0_abs_err": median([r["n0_abs_err"] for r in good]),
        }
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in names}

    first = (good + good_traced or [{}])[0]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"]),
        "flambda": command_output(["ocamlfind", "ocamlopt", "-config-var",
                                   "flambda"]),
        "domains": first.get("domains"),
        "git_rev": (command_output(["git", "rev-parse", "HEAD"])
                    if os.path.isdir(".git") else "unknown"),
        "sizes": first.get("sizes"),
        "rounds": [r["rounds"] for r in good],
        "failed_share": failed / attempted,
        "exact": [r["exact"] for r in children if r is not None],
        "run_s": [r["run_s"] for r in good],
        "traced_run_s": [r["run_s"] for r in good_traced],
    }
    if overhead is not None:
        context["trace_overhead"] = overhead
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"context": context, "result": result}) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
