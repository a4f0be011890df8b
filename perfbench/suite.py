"""
Run every workload once, untraced, and print every end-to-end metric by name
with its unit, next to the figures each workload reports beside them.

    python3 perfbench/suite.py [--seed 0] [--seconds 25] [--trace]

With ``--trace`` each workload is also run traced: the per-layer metrics are
printed and so is the tracing overhead, traced ``trace.trial_s`` over
untraced ``trial_s``.  Each run is its own ``run.py`` process, as
``BENCHMARK.json`` names it, so peak RSS is per workload.  Exits 1 if any
correctness gate failed or any run did not print a result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        print(f"{workload} trace={trace}: no result (exit {proc.returncode})")
        return None
    return result


def main(argv=None):
    sys.path.insert(0, HERE)
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        default_seconds = json.load(fh)["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=default_seconds)
    p.add_argument("--trace", action="store_true",
                   help="also run each workload traced and report the overhead")
    args = p.parse_args(argv)

    ok = True
    for name in workloads.WORKLOADS:
        plain = run_one(name, args.seed, args.seconds, 0)
        ok = ok and plain is not None and plain["correct"]
        if plain is not None:
            print(f"{name} correct={plain['correct']} attempted={plain['attempted']} "
                  f"failed={plain['failed']}")
        if not args.trace:
            continue
        traced = run_one(name, args.seed, args.seconds, 1)
        ok = ok and traced is not None and traced["correct"]
        if plain is not None and traced is not None:
            base = plain["metrics"]["trial_s"]["value"]
            with_trace = traced["metrics"]["trace.trial_s"]["value"]
            print(f"{name} trace_overhead {with_trace / base - 1.0!r} ratio")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
