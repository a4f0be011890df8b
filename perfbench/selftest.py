"""
Self-test of the benchmark (not part of the repository's test suite).

    python3 perfbench/selftest.py

1. Runs every workload at a tiny size, untraced and traced, and checks that
   every metric named in BENCHMARK.json is emitted with its unit, as a
   finite number, in a last line with exactly the contract's keys.
2. Breaks one output of each workload on purpose and checks that the run
   counts it in ``failed`` and reports ``correct: false``.
3. Runs run.py in a directory holding only BENCHMARK.json and this
   directory, and checks that it exits non-zero without printing a result.

Takes about a minute.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def tiny_run(tp, name, trace, workdir, seconds=0.5):
    return workloads.run(tp, workloads.TINY[name], 3, seconds, trace, workdir)


def check_emitted(tp, contract, workdir):
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = tiny_run(tp, name, trace, workdir)
            want = contract["per_layer" if trace else "end_to_end"]
            last = json.loads(run.format_result(name, result, trace)[-1])
            tag = f"{name} trace={int(trace)}"
            check(set(last) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys")
            check(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
                  f"{tag}: correct, attempted={last['attempted']}, failed={last['failed']}")
            check(set(last["metrics"]) == {m["name"] for m in want},
                  f"{tag}: exactly the {len(want)} named metrics")
            for m in want:
                got = last["metrics"].get(m["name"], {})
                value = got.get("value")
                check(got.get("unit") == m["unit"]
                      and isinstance(value, (int, float)) and math.isfinite(value),
                      f"{tag}: {m['name']} = {value!r} {got.get('unit')}")


def check_wrong_outputs_fail(tp, workdir):
    import tripletree.cli as cli

    def swap_two_leaves(orig):
        def wrong(oracle, *a, **k):
            t = orig(oracle, *a, **k)
            labels = list(t.labels)
            # swap two leaves with different parents so the topology changes
            leaves = [v for v, lab in enumerate(labels) if lab is not None]
            i = leaves[0]
            j = next(v for v in leaves if t.parent[v] != t.parent[i])
            labels[i], labels[j] = labels[j], labels[i]
            return tp.Tree(t.parent, t.child1, t.child2, t.height, t.weight, labels)
        return wrong

    def off_by_1e6(orig):
        def wrong(oracle, topology, *a, **k):
            he = orig(oracle, topology, *a, **k)
            v = min(he.edge_weights)
            he.edge_weights[v] += 1e-6
            return he
        return wrong

    def nondeterministic(orig):
        def wrong(oracle, topology, *a, **k):
            he = orig(oracle, topology, *a, **k)
            v = min(he.edge_weights)
            he.edge_weights[v] += 1e-3 * (os.urandom(1)[0] + 1)
            return he
        return wrong

    def differs_per_process(orig):
        # pool workers inherit this module-level patch; the in-process
        # re-run of one trial then records a different failure detail
        def wrong(oracle, *a, **k):
            raise tp.ReconstructionFailure("selftest", os.urandom(4).hex())
        return wrong

    cases = [
        ("topo-noiseless-160", tp, "reconstruct_topology", swap_two_leaves),
        ("weights-expect-2048", tp, "reconstruct_weights", off_by_1e6),
        ("weights-sampled-323", tp, "reconstruct_weights", nondeterministic),
        ("cli-noisy-128", cli, "reconstruct_topology", differs_per_process),
    ]
    for name, owner, attr, make_wrong in cases:
        with mock.patch.object(owner, attr, make_wrong(getattr(owner, attr))):
            result = tiny_run(tp, name, False, workdir)
        # failed by a gate, not by an exception in the run
        check(not result["correct"] and result["failed"] > 0
              and "errors" not in result["detail"],
              f"{name}: wrong output counted (failed={result['failed']}"
              f" of {result['attempted']})")


def check_bare_directory(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
         "--workload", "topo-noiseless-160", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    check(proc.returncode != 0 and not printed_result,
          f"bare directory: exit {proc.returncode}, no result line")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    check([m["name"] for m in contract["end_to_end"]]
          == [m[0] for m in workloads.END_TO_END], "BENCHMARK.json end_to_end matches")
    check([m["name"] for m in contract["per_layer"]]
          == [m[0] for m in workloads.PER_LAYER], "BENCHMARK.json per_layer matches")
    check([w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads match")
    tp, _ = run.import_package()
    workdir = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        check_emitted(tp, contract, workdir)
        check_wrong_outputs_fail(tp, workdir)
        check_bare_directory(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # a run still uses it
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
