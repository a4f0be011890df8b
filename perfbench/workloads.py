"""
The benchmark's workloads: inputs made from the seed, the timed calls, the
correctness gates and the metrics.

Every workload reconstructs one fixed tree, drawn by the package's own
generator from the workload's tree seed; ``--seed`` keys the oracle's
permanent noise (and the CLI's trial seeds).  Work per trial is then the
same for every seed, which keeps run-to-run spread down to the host's own
noise: drawn trees differ in cost by up to 3x at n=384, and even a
relabelling of one tree (mirroring children at random) moved the cost by
10% at n=160 and 20% at n=4096.  See README.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import time

from tracing import NullTracer, Tracer, diff, distinct_triples, empty_snapshot
from tracing import install, keyed_uniform_probe, merge, repeat_probe


@dataclasses.dataclass(frozen=True)
class Spec:
    name: str
    kind: str  # "topology" | "weights" | "cli"
    n: int
    min_edge_weight: float
    model: str
    tree_seed: int
    expectation: bool = False
    c_thr: float | None = None  # cli only: the locked cell's threshold
    trials: int = 1  # cli only: trials per run_experiment call
    jobs: int = 1  # cli only


WORKLOADS = {
    s.name: s
    for s in (
        Spec("topo-noiseless-160", "topology", 160, 0.01, "noiseless", 0),
        Spec("weights-sampled-323", "weights", 323, 0.004, "homogeneous", 1),
        Spec("weights-expect-2048", "weights", 2048, 0.004, "homogeneous", 0,
             expectation=True),
        Spec("cli-noisy-128", "cli", 128, 0.02, "homogeneous", 9000,
             c_thr=0.0, trials=2, jobs=2),
    )
}

# The same workloads at sizes that run in about a second, for selftest.py;
# at n=24 sampled weights use the bitmask accounting branch.
TINY = {
    name: dataclasses.replace(spec, n=64 if spec.expectation else 24)
    for name, spec in WORKLOADS.items()
}

# (name, unit, better); the order here is the order of the printed lines.
END_TO_END = [
    ("run_s", "s", "lower"),
    ("trial_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_STAGES = ("build_subtree", "partition", "completion_induced", "completion_quotient")

PER_LAYER = [
    ("noise_oracle.wins_calls", "count", "lower"),
    ("noise_oracle.rows", "count", "lower"),
    ("noise_oracle.distinct_triples", "count", "lower"),
    ("noise_oracle.rows_per_triple", "rows/triple", "lower"),
    ("noise_oracle.wins_s", "s", "lower"),
    ("noise_oracle.wins_share", "ratio", "lower"),
    ("noise_oracle.ns_per_row", "ns", "lower"),
    ("noise_oracle.repeat_ns_per_row", "ns", "lower"),
    ("noise_oracle.keyed_uniform_rows", "count", "lower"),
    ("noise_oracle.keyed_uniform_ns_per_row", "ns", "lower"),
    ("topology.reconstruct_s", "s", "lower"),
    ("topology.self_s", "s", "lower"),
    *(
        (f"topology.{stage}{suffix}", unit, "lower")
        for stage in _STAGES
        for suffix, unit in (("_s", "s"), ("_rows", "count"), ("_self_s", "s"))
    ),
    ("weights.reconstruct_s", "s", "lower"),
    ("weights.self_s", "s", "lower"),
    ("weights.light_tree_s", "s", "lower"),
    ("weights.right_path_s", "s", "lower"),
    ("tree_core.generate_s", "s", "lower"),
    ("tree_core.distance_matrix_s", "s", "lower"),
    ("tree_core.topology_equal_s", "s", "lower"),
    ("cli.trial_wall_sum_s", "s", "lower"),
    ("cli.pool_efficiency", "ratio", "higher"),
    ("trace.trial_s", "s", "lower"),
]

WEIGHT_EXACT_TOL = 1e-9
MIN_SETS = 3  # trial sets per run, at least
CALIBRATION_SHARE = 0.10  # HostClock time after each set, as a share of the set

# Typical seconds of one HostClock.tick on a 2-CPU Xeon at 2.1 GHz with
# Python 3.11.7 and numpy 2.4.6; run_s and trial_s are reported at that speed.
CALIBRATION_REF_S = 0.028


class HostClock:
    """
    Times a fixed loop that never calls tripletree: numpy gathers and sorts
    and an interpreted loop, the kinds of work the package does.  On
    the shared 2-CPU host the speed of the same work drifted by up to 60%
    within minutes, and loops of this kind drifted with it.  ``scale``
    converts this run's times to a host where the loop takes
    CALIBRATION_REF_S.  README.md gives the spreads with and without it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._data = rng.random(1 << 15)
        self._index = rng.integers(0, 1 << 15, size=1 << 15)
        self._work = np.empty_like(self._data)
        self.times = []

    def tick(self):
        import numpy as np

        t0 = time.perf_counter()
        # in place and in cache: the heap the workload left behind changes
        # neither the tick's allocations nor its page mapping
        for _ in range(32):
            np.take(self._data, self._index, out=self._work)
            self._work.sort()
        s = 0
        for i in range(200_000):
            s += i * i
        self.times.append(time.perf_counter() - t0)

    def tick_for(self, seconds):
        """Tick once, then again until ``seconds`` have been spent ticking."""
        spent = 0.0
        while True:
            self.tick()
            spent += self.times[-1]
            if spent >= seconds:
                return

    def scale(self):
        return CALIBRATION_REF_S / _median(self.times)


# ---------------------------------------------------------------------- #
# Inputs                                                                  #
# ---------------------------------------------------------------------- #


def make_tree(tp, spec, tracer):
    with tracer.span("tree_core.generate"):
        return tp.generate_random_ultrametric(
            spec.n, spec.min_edge_weight, seed=spec.tree_seed
        )


def make_oracle(tp, spec, tree, seed):
    if spec.expectation:
        return tp.ExpectationOracle(tree, spec.model)
    return tp.OracleState(tree, spec.model, seed=seed)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _weights_digest(he):
    text = ";".join(f"{v}:{w!r}" for v, w in sorted(he.edge_weights.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------- #
# One trial set per workload kind                                         #
# ---------------------------------------------------------------------- #


@dataclasses.dataclass
class Outcome:
    trial_s: list  # wall time of each reconstruction call in the set
    attempted: int
    failed: int
    detail: dict


class _Workload:
    def __init__(self, tp, spec, seed, tracer, workdir):
        self.tp, self.spec, self.seed = tp, spec, seed
        self.tracer, self.workdir = tracer, workdir

    def setup(self):
        tree = make_tree(self.tp, self.spec, self.tracer)
        oracle = make_oracle(self.tp, self.spec, tree, self.seed)
        oracle.distances
        return tree, oracle


class TopologyWorkload(_Workload):
    """reconstruct_topology on a noiseless oracle; gate: exact, C(n,3) queries."""

    def trial(self, inputs):
        tree, oracle = inputs
        tp, tr = self.tp, self.tracer
        t0 = time.perf_counter()
        with tr.span("topology.reconstruct"):
            rec = tp.reconstruct_topology(oracle)
        dt = time.perf_counter() - t0
        with tr.span("tree_core.topology_equal"):
            exact = bool(tp.topology_equal(rec, tree))
        queries = int(oracle.query_count)
        ok = exact and queries == math.comb(self.spec.n, 3)
        return Outcome([dt], 1, 0 if ok else 1,
                       {"queries": queries, "exact": exact})


class WeightsWorkload(_Workload):
    """
    reconstruct_weights on the true topology.  Gate: every edge error at
    most 1e-9 in expectation mode; with sampled answers, a well-formed
    estimate whose digest repeats across the run's trial sets.  Sampled
    answers can drive an anchor height to 0, which ends the estimate in
    EstimationFailure; like a ReconstructionFailure on the noisy CLI cell,
    that is a recorded outcome, gated only on repeating exactly.
    """

    def trial(self, inputs):
        tree, oracle = inputs
        tp, tr = self.tp, self.tracer
        t0 = time.perf_counter()
        try:
            with tr.span("weights.reconstruct"):
                he = tp.reconstruct_weights(oracle, tree)
        except tp.EstimationFailure as exc:
            if self.spec.expectation:
                raise
            return Outcome([time.perf_counter() - t0], 1, 0, {
                "queries": int(oracle.query_count),
                "exact": False,
                "estimation_failure": str(exc),
                "digest": hashlib.sha256(str(exc).encode()).hexdigest()[:16],
            })
        dt = time.perf_counter() - t0
        ew = he.edge_weights
        errors = [abs(w - float(tree.weight[v])) for v, w in ew.items()]
        well_formed = (
            len(ew) == tree.n_nodes - 1
            and all(math.isfinite(w) and w >= 0.0 for w in ew.values())
        )
        err_max = max(errors) if errors else math.inf
        ok = well_formed and (
            not self.spec.expectation or err_max <= WEIGHT_EXACT_TOL
        )
        return Outcome([dt], 1, 0 if ok else 1, {
            "queries": int(oracle.query_count),
            "exact": err_max <= WEIGHT_EXACT_TOL,
            "weight_err_max": err_max,
            "digest": _weights_digest(he),
        })


class CliWorkload(_Workload):
    """
    cli.run_experiment in topology mode on the locked criterion-3 cell,
    reading the benchmark's tree through ``tree_in``.  Gate: well-formed
    trials.jsonl and summary.csv, the same bytes on every trial set, and one
    trial re-run in this process (the jobs=1 path) matching its line.
    """

    def setup(self):
        from tripletree.cli import ExperimentConfig

        tree = make_tree(self.tp, self.spec, self.tracer)
        path = os.path.join(self.workdir, "tree.nwk")
        with open(path, "w") as fh:
            fh.write(self.tp.to_newick(tree) + "\n")
        s = self.spec
        cfg = ExperimentConfig(
            mode="topology", n=s.n, model=s.model,
            min_edge_weight=s.min_edge_weight, c_thr=s.c_thr,
            trials=s.trials, seed=9000 + s.trials * self.seed, jobs=s.jobs,
            out=os.path.join(self.workdir, "out"), tree_in=path,
        )
        return tree, cfg

    def trial(self, inputs):
        import tripletree.cli as cli

        _tree, cfg = inputs
        t0 = time.perf_counter()
        with self.tracer.span("cli.run_experiment"):
            out = cli.run_experiment(cfg)
        makespan = time.perf_counter() - t0
        with open(os.path.join(cfg.out, "trials.jsonl"), "rb") as fh:
            jsonl = fh.read()
        with open(os.path.join(cfg.out, "summary.csv")) as fh:
            summary = fh.read()
        results = out["results"]
        bad = _check_cli_artifacts(cfg, jsonl, summary)
        stages = {}
        for r in results:
            if r.failure is not None:
                stage = r.failure.split(":", 1)[0]
                stages[stage] = stages.get(stage, 0) + 1
        return Outcome([r.wall_time for r in results], cfg.trials, len(bad), {
            "queries": _median([r.query_count for r in results]),
            "exact": sum(bool(r.success) for r in results),
            "recon_failures": sum(r.failure is not None for r in results),
            "failure_stages": stages,
            "digest": hashlib.sha256(jsonl).hexdigest()[:16],
            "jsonl": jsonl,
            "makespan": makespan,
            "wall_sum": sum(r.wall_time for r in results),
            "results": results,
        })

    def recheck(self, inputs, jsonl):
        """Re-run one trial in this process and compare it with its line."""
        import tripletree.cli as cli

        _tree, cfg = inputs
        t = self.seed % cfg.trials
        res = cli.run_trial(dataclasses.asdict(cfg), t)
        line = json.dumps(res.to_json_dict(), sort_keys=True).encode()
        return jsonl.splitlines()[t] == line


_TRIAL_KEYS = {"trial", "seed", "success", "topology_exact", "query_count",
               "failure", "schema_version"}


def _check_cli_artifacts(cfg, jsonl, summary_text):
    """Trial indices whose record is malformed or disagrees with summary.csv."""
    lines = jsonl.splitlines()
    bad = set() if len(lines) == cfg.trials else set(range(cfg.trials))
    n_fail = n_ok = 0
    for t, line in enumerate(lines[: cfg.trials]):
        try:
            rec = json.loads(line)
        except ValueError:
            bad.add(t)
            continue
        if (not _TRIAL_KEYS <= set(rec) or rec["trial"] != t
                or rec["seed"] != cfg.seed + t
                or (rec["success"] and rec["topology_exact"] is not True)
                or (rec["failure"] is not None and ": " not in rec["failure"])):
            bad.add(t)
        n_fail += rec.get("failure") is not None
        n_ok += bool(rec.get("success"))
    rows = summary_text.splitlines()
    if len(rows) != 2:
        return set(range(cfg.trials))
    row = dict(zip(rows[0].split(","), rows[1].split(",")))
    if (row.get("trials") != str(cfg.trials) or row.get("failures") != str(n_fail)
            or float(row.get("success_rate", "nan")) != n_ok / cfg.trials):
        return set(range(cfg.trials))
    return bad


KINDS = {"topology": TopologyWorkload, "weights": WeightsWorkload, "cli": CliWorkload}


# ---------------------------------------------------------------------- #
# The run                                                                 #
# ---------------------------------------------------------------------- #


def run(tp, spec, seed, seconds, trace, workdir):
    """
    Run trial sets of ``spec`` until the next one would end after
    ``seconds``, check them, and return the result dict that run.py prints.
    """
    tracer = Tracer() if trace else NullTracer()
    remove = install(tracer) if trace else None
    wl = KINDS[spec.kind](tp, spec, seed, tracer, workdir)
    clock = HostClock()
    setups, sets = [], []
    start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            inputs = wl.setup()
            t1 = time.perf_counter()
            try:
                out = wl.trial(inputs)
            except Exception as exc:  # counted as a failed trial set
                out = Outcome([], max(spec.trials, 1), max(spec.trials, 1),
                              {"error": f"{type(exc).__name__}: {exc}"})
            t2 = time.perf_counter()
            clock.tick_for(CALIBRATION_SHARE * (t2 - t0))
            setups.append(t1 - t0)
            sets.append((t2 - t0, out))
            elapsed = t2 - start
            next_set = _median([dt for dt, _ in sets])
            if len(sets) >= MIN_SETS and elapsed + next_set > seconds:
                break
        # set up at least three times, so setup_s is a median
        while len(setups) < 3:
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        set_snap = tracer.snapshot() if trace else None
        if trace:
            repeat_ns = repeat_probe(tracer) if spec.kind != "cli" else None
    finally:
        if remove is not None:
            remove()

    outcomes = [o for _, o in sets]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    detail = _detail(spec, outcomes)
    # every trial set of a run has the same input, so its output must repeat
    digests = {o.detail.get("digest") for o in outcomes}
    if failed == 0 and len(digests) != 1:
        failed = attempted
        detail["digest_mismatch"] = sorted(map(str, digests))
    if failed == 0 and spec.kind == "cli":
        if not wl.recheck(inputs, outcomes[0].detail["jsonl"]):
            failed = attempted
            detail["jobs1_mismatch"] = True

    trial_times = [t for o in outcomes for t in o.trial_s]
    unscaled = {
        "run_s": _median([dt for dt, o in sets if o.trial_s]),
        "trial_s": _median(trial_times),
    }
    scale = clock.scale()
    detail["unscaled"] = unscaled
    detail["calibration_s"] = _median(clock.times)
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "detail": detail,
    }
    if not trace:
        ru_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ru_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"] = {
            "run_s": unscaled["run_s"] * scale,
            "trial_s": unscaled["trial_s"] * scale,
            # not scaled: set-up is mostly imports and allocation, whose
            # time did not follow the clock (its spread grew when scaled)
            "setup_s": _median(setups),  # run.py adds the import time
            "peak_rss_mb": (ru_self + ru_child) / 1024.0,
        }
    else:
        result["metrics"] = _layer_metrics(
            tp, spec, seed, outcomes, trial_times, set_snap, repeat_ns,
        )
        result["metrics"]["trace.trial_s"] = unscaled["trial_s"] * scale
    return result


def _detail(spec, outcomes):
    """End-to-end figures printed beside the metrics (not part of the contract)."""
    d = {"trial_sets": len(outcomes)}
    attempted = sum(o.attempted for o in outcomes)
    d["failed_frac"] = sum(o.failed for o in outcomes) / max(attempted, 1)
    ok = [o.detail for o in outcomes if "error" not in o.detail]
    errors = [o.detail["error"] for o in outcomes if "error" in o.detail]
    if errors:
        d["errors"] = errors[:3]
    if not ok:
        return d
    if not spec.expectation:
        d["queries_per_trial"] = _median([x["queries"] for x in ok])
    if spec.kind == "cli":
        trials = sum(o.attempted for o in outcomes)
        d["exact_rate"] = sum(x["exact"] for x in ok) / trials
        d["recon_failure_frac"] = sum(x["recon_failures"] for x in ok) / trials
        stages = {}
        for x in ok:
            for k, v in x["failure_stages"].items():
                stages[k] = stages.get(k, 0) + v
        d["failure_stages"] = stages
        d["digest"] = ok[0]["digest"]
    else:
        d["exact_rate"] = sum(bool(x["exact"]) for x in ok) / len(ok)
    if spec.kind == "weights":
        errs = [x["weight_err_max"] for x in ok if "weight_err_max" in x]
        if errs:
            d["weight_err_max"] = max(errs)
        d["estimation_failures"] = sum("estimation_failure" in x for x in ok)
        d["digest"] = ok[0]["digest"]
    return d


# ---------------------------------------------------------------------- #
# Per-layer metrics (traced run)                                          #
# ---------------------------------------------------------------------- #


def _true_subtrees(tree):
    """Probe inputs: (half, base, pivot, candidates) leaf-label lists."""
    n = tree.n_leaves
    nl = tree.leaf_counts()
    order = [int(v) for v in tree.topo_order() if int(v) != tree.root]
    half = max(order, key=lambda v: (nl[v] if nl[v] <= n // 2 else -1, -v))
    lo = math.ceil(math.sqrt(n))
    base = next((v for v in order if lo <= nl[v] <= 2 * lo),
                min(order, key=lambda v: (abs(nl[v] - lo), v)))
    # buckets are the siblings along the path from the base to the root;
    # the pivot is a true subtree inside the biggest one
    sibs, v = [], base
    while tree.parent[v] >= 0:
        p = int(tree.parent[v])
        a, b = tree.children(p)
        sibs.append(b if a == v else a)
        v = p
    piv = max(sibs, key=lambda s: (nl[s], -s))
    while not tree.is_leaf(piv) and nl[piv] > 2 * lo:
        a, b = tree.children(piv)
        piv = a if (nl[a], -a) > (nl[b], -b) else b
    base_l = tree.subtree_leaf_labels(base)
    piv_l = tree.subtree_leaf_labels(piv)
    taken = set(base_l) | set(piv_l)
    cands = [x for x in tree.leaf_labels if x not in taken]
    return tree.subtree_leaf_labels(half), base_l, piv_l, cands


def _probe(tp, spec, seed, tree, tracer, name, fn):
    """Run ``fn(oracle)`` on a fresh oracle inside span ``name``."""
    oracle = make_oracle(tp, spec, tree, seed)
    oracle.distances
    before = tracer.snapshot()
    with tracer.span(name):
        try:
            fn(oracle)
        except tp.ReconstructionFailure:
            tracer.counts["probe_failures"] += 1
    return diff(tracer.snapshot(), before)


def _stage_probes(tp, spec, seed, tree, tracer):
    half, base, pivot, cands = _true_subtrees(tree)
    n = tree.n_leaves

    def cfg(oracle):
        if spec.c_thr is None:
            return None
        return tp.ReconstructionConfig.for_oracle(oracle, c_thr=spec.c_thr)

    calls = {
        "build_subtree": lambda o: tp.build_subtree(o, half, n=n, cfg=cfg(o)),
        "partition": lambda o: tp.partition(o, base, pivot, cands, n=n, cfg=cfg(o)),
        "completion_induced": lambda o: tp.completion_induced(o, half, n=n, cfg=cfg(o)),
        "completion_quotient": lambda o: tp.completion_quotient(o, base, n=n, cfg=cfg(o)),
    }
    out = {}
    for stage, fn in calls.items():
        name = f"topology.{stage}"
        d = _probe(tp, spec, seed, tree, tracer, name, fn)
        out[f"{name}_s"] = d["total"].get(name, 0.0)
        out[f"{name}_rows"] = d["counts"].get("noise_oracle.rows", 0)
        out[f"{name}_self_s"] = d["self_s"].get(name, 0.0)
    return out


def _layer_metrics(tp, spec, seed, outcomes, trial_times, set_snap, repeat_ns):
    import tripletree.noise_oracle as no

    tracer = Tracer()
    remove = install(tracer)
    try:
        tree = make_tree(tp, spec, tracer)
        probes = {}
        if spec.kind in ("topology", "cli"):
            probes.update(_stage_probes(tp, spec, seed, tree, tracer))
        if spec.kind == "weights":
            for name, fn in (("weights.light_tree", tp.compute_light_tree),
                             ("weights.right_path", tp.reconstruct_right_path)):
                d = _probe(tp, spec, seed, tree, tracer, name,
                           lambda o, fn=fn: fn(o, tree))
                probes[f"{name}_s"] = d["total"].get(name, 0.0)
    finally:
        remove()

    snap = set_snap
    n_trials = len(trial_times) or 1
    if spec.kind == "cli":
        snap = empty_snapshot()
        merge(snap, set_snap)
        results = [r for o in outcomes for r in o.detail.get("results", [])]
        for r in results:
            merge(snap, r.bench_trace)
        repeat_ns = _median([r.bench_repeat_ns for r in results])
        distinct = _median([r.query_count for r in results])
    elif spec.expectation:
        def replay():
            tr = make_tree(tp, spec, NullTracer())
            tp.reconstruct_weights(make_oracle(tp, spec, tr, seed), tr)

        distinct = distinct_triples(tp, replay)
    else:
        distinct = _median([o.detail["queries"] for o in outcomes if "queries" in o.detail])

    def per_trial(key, name):
        return snap[key].get(name, 0) / n_trials

    def per_call(name):
        calls = snap["calls"].get(name, 0)
        return snap["total"].get(name, 0.0) / calls if calls else 0.0

    rows = per_trial("counts", "noise_oracle.rows")
    wins_s = per_trial("total", "noise_oracle.wins")
    mean_trial = sum(trial_times) / n_trials
    m = {
        "noise_oracle.wins_calls": per_trial("calls", "noise_oracle.wins"),
        "noise_oracle.rows": rows,
        "noise_oracle.distinct_triples": distinct,
        "noise_oracle.rows_per_triple": rows / distinct if distinct else 0.0,
        "noise_oracle.wins_s": wins_s,
        "noise_oracle.wins_share": wins_s / mean_trial if mean_trial else 0.0,
        "noise_oracle.ns_per_row": wins_s / rows * 1e9 if rows else 0.0,
        "noise_oracle.repeat_ns_per_row": repeat_ns or 0.0,
        "noise_oracle.keyed_uniform_rows": per_trial("counts", "noise_oracle.keyed_uniform_rows"),
        "noise_oracle.keyed_uniform_ns_per_row": keyed_uniform_probe(no, seed),
        "topology.reconstruct_s": per_trial("total", "topology.reconstruct"),
        "topology.self_s": per_trial("self_s", "topology.reconstruct"),
        "weights.reconstruct_s": per_trial("total", "weights.reconstruct"),
        "weights.self_s": per_trial("self_s", "weights.reconstruct"),
        "tree_core.generate_s": per_call("tree_core.generate"),
        "tree_core.distance_matrix_s": per_call("tree_core.distance_matrix"),
        "tree_core.topology_equal_s": per_call("tree_core.topology_equal"),
        "cli.trial_wall_sum_s": 0.0,
        "cli.pool_efficiency": 0.0,
    }
    for stage in _STAGES:
        for suffix in ("_s", "_rows", "_self_s"):
            key = f"topology.{stage}{suffix}"
            m[key] = probes.get(key, 0)
    m["weights.light_tree_s"] = probes.get("weights.light_tree_s", 0.0)
    m["weights.right_path_s"] = probes.get("weights.right_path_s", 0.0)
    if spec.kind == "cli":
        sets = [o.detail for o in outcomes if "wall_sum" in o.detail]
        wall = _median([x["wall_sum"] for x in sets])
        makespan = _median([x["makespan"] for x in sets])
        m["cli.trial_wall_sum_s"] = wall
        m["cli.pool_efficiency"] = wall / (spec.jobs * makespan) if makespan else 0.0
    return m
