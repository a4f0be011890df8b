"""
Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload topo-noiseless-160 --seed 0 \
        --seconds 25 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` next
to this directory, never from an installed copy.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
with its unit, and the figures reported beside the metrics (query counts,
exact rate, weight error, failure taxonomy).  With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones.  The exit
code is 0 when every correctness gate passed, 1 when one failed, and 2 when
the package cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


SRC = os.path.join(ROOT, "src")
_TIME_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import tripletree; print(time.perf_counter() - t0)"
)


def import_package():
    """Import tripletree from ``src/`` of this checkout; returns (module, seconds)."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import tripletree

    elapsed = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(tripletree.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise ImportError(f"tripletree imported from {where}, not from {SRC}")
    return tripletree, elapsed


def fresh_import_times(count=4):
    """Import times of ``count`` fresh interpreters (one alone varies by a third)."""
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", _TIME_IMPORT, SRC],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return times


def main(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        tp, import_s = import_package()
    except ImportError as exc:
        print(f"error: cannot import tripletree from the checkout: {exc}",
              file=sys.stderr)
        return 2

    spec = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work", f"{spec.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = workloads.run(tp, spec, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    if not args.trace:
        # after the run has read its peak RSS: these interpreters are children
        imports = [import_s] + fresh_import_times()
        result["metrics"]["setup_s"] += statistics.median(imports)
    for line in format_result(spec.name, result, bool(args.trace)):
        print(line)
    return 0 if result["correct"] else 1


def format_result(name, result, trace):
    """Output lines for one run; the last is the JSON result object."""
    import workloads

    table = workloads.PER_LAYER if trace else workloads.END_TO_END
    lines = [f"{name} {metric} {result['metrics'][metric]!r} {unit}"
             for metric, unit, _ in table]
    lines.append(f"{name} detail {json.dumps(result['detail'], sort_keys=True)}")
    lines.append(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": result["metrics"][metric], "unit": unit}
            for metric, unit, _ in table
        },
    }))
    return lines


if __name__ == "__main__":
    sys.exit(main())
