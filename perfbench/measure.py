"""
Repeat the benchmark over several seeds and report each end-to-end metric's
median and quartile spread, the way a steadiness check or a before/after
comparison needs them.

    python3 perfbench/measure.py --seeds 1-10
    python3 perfbench/measure.py --seeds 1-10 --record "seed commit 0eeee27"

For each workload (``--workloads`` narrows the list) the untraced run is
made once per seed; the spread is (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, and is flagged when it is not below a
third of the metric's bound in BENCHMARK.json (``setup_s`` is exempt from
the spread rule, as in the contract).  With ``--record`` one traced run per
workload (first seed) is added and the whole measurement is appended to
``trajectory.json`` in this directory, with the machine facts.
Exits 1 if any run failed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2].split(" detail ", 1)[1])
    except (IndexError, ValueError):
        return {"correct": False, "exit": proc.returncode, "wall_s": wall,
                "stderr": proc.stderr[-2000:]}
    result["exit"] = proc.returncode
    result["wall_s"] = wall
    result["detail"] = detail
    return result


def machine_facts():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    names = [w["name"] for w in contract["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seconds", type=int, default=contract["run_seconds"])
    p.add_argument("--record", metavar="LABEL", default=None,
                   help="append this measurement to trajectory.json")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    ok = True
    entry = {"label": args.record, "seeds": seeds, "seconds": args.seconds,
             "machine": machine_facts(), "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in seeds:
            r = one_run(name, seed, args.seconds, 0)
            runs.append(r)
            ok = ok and r["correct"]
            shown = {k: round(v["value"], 4) for k, v in r.get("metrics", {}).items()}
            print(f"{name} seed={seed} correct={r['correct']} wall={r['wall_s']:.1f}s "
                  f"{shown}", flush=True)
        summary = {}
        for m in contract["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs if "metrics" in r]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            steady = m["name"] == "setup_s" or spread < m["bound"] / 3
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                  "spread": spread, "bound": m["bound"],
                                  "unit": m["unit"]}
            note = ""
            unscaled = [r["detail"]["unscaled"][m["name"]] for r in runs
                        if m["name"] in r.get("detail", {}).get("unscaled", {})]
            if len(unscaled) >= 2:
                uq1, _, uq3 = statistics.quantiles(unscaled, n=4)
                u_spread = (uq3 - uq1) / statistics.median(unscaled)
                summary[m["name"]]["unscaled_spread"] = u_spread
                note = f" (unscaled spread {u_spread:.4f})"
            print(f"{name} {m['name']} median={med:.6g} {m['unit']} "
                  f"spread={spread:.4f} bound/3={m['bound'] / 3:.4f}"
                  f"{'' if steady else '  NOT STEADY'}{note}", flush=True)
        walls = [r["wall_s"] for r in runs]
        print(f"{name} run wall: median {statistics.median(walls):.1f}s, "
              f"max {max(walls):.1f}s", flush=True)
        wl = {"end_to_end": summary, "max_wall_s": max(walls),
              "detail": runs[0].get("detail")}
        if args.record:
            traced = one_run(name, seeds[0], args.seconds, 1)
            ok = ok and traced["correct"]
            wl["per_layer_seed"] = seeds[0]
            wl["per_layer"] = {k: v["value"] for k, v in traced.get("metrics", {}).items()}
        entry["workloads"][name] = wl

    if args.record:
        path = os.path.join(HERE, "trajectory.json")
        history = []
        if os.path.exists(path):
            with open(path) as fh:
                history = json.load(fh)
        history.append(entry)
        with open(path, "w") as fh:
            json.dump(history, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
