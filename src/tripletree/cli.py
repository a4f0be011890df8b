"""
Reproducible experiment harness.

Modes:

* ``topology``    generate trees, reconstruct their topology from noisy
                  experiments, report exact-recovery rates;
* ``weights``     estimate edge weights on the known topology and report
                  error quantiles;
* ``lower-bound`` emit the indistinguishability certificate for the
                  hard tree pair (nonzero exit if any class bound fails);
* ``calibrate``   sweep (min edge weight, threshold constant) cells and
                  recommend the smallest setting that meets a target
                  exact-recovery rate.

Per-trial results go to ``trials.jsonl`` and an aggregate row to
``summary.csv`` under ``--out``.  Everything is deterministic given
``--seed``: trial i uses seed ``seed + i`` for both the tree and the
oracle, and wall-clock timings are kept out of the emitted files so
re-runs are byte-identical.  Every flag except --expectation,
--allow-zero-inner, --tree-in and --tree-out can be defaulted from the
environment with the ``TRIPLETREE_`` prefix (e.g. ``TRIPLETREE_TRIALS=50``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import stats as statsmod
from .noise_oracle import CustomModel, ExpectationOracle, OracleState, make_model
from .topology import (N0_MAX, ReconstructionConfig, ReconstructionFailure,
                       reconstruct_topology)
from .tree_core import (
    InfeasibleTreeError,
    Tree,
    from_newick,
    generate_random_ultrametric,
    to_newick,
    topology_equal,
)
from .weights import EstimationFailure, WeightConfig, reconstruct_weights

SCHEMA_VERSION = 1
ENV_PREFIX = "TRIPLETREE_"
MODES = ("topology", "weights", "lower-bound", "calibrate")


@dataclasses.dataclass
class ExperimentConfig:
    mode: str
    n: int = 32
    min_edge_weight: float = 0.05
    model: str = "homogeneous"
    expectation: bool = False
    trials: int = 10
    seed: int = 0
    c_thr: float | None = None
    n0: int = 8
    tol: float = 1e-12
    rho: float = 0.01
    allow_zero_inner: bool = False
    target: float = 0.9
    sweep_weights: tuple = ()
    sweep_c_thr: tuple = ()
    out: str | None = None
    jobs: int = 0  # 0: auto
    tree_in: str | None = None
    tree_out: str | None = None

    def validate(self):
        problems = []
        if self.mode not in MODES:
            problems.append(f"mode: unknown mode {self.mode!r}")
        if self.trials < 1:
            problems.append("trials: must be >= 1")
        if self.n < 2:
            problems.append("n: must be >= 2")
        if self.n0 > N0_MAX:
            problems.append(f"n0: must be <= {N0_MAX}")
        if self.jobs < 0:
            problems.append("jobs: must be >= 0 (0: auto)")
        if not 0.0 <= self.target <= 1.0:
            problems.append("target: must lie in [0, 1]")
        if not self.tree_in and self.min_edge_weight <= 0:
            problems.append("min_edge_weight: must be positive")
        if self.mode == "calibrate" and not self.sweep_weights:
            problems.append("sweep_weights: calibrate needs at least one value")
        try:
            _resolve_model(self.model)
        except ValueError as exc:
            problems.append(f"model: {exc}")
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))


@dataclasses.dataclass
class TrialResult:
    trial: int
    seed: int
    success: bool
    topology_exact: bool | None = None
    max_weight_error: float | None = None
    mean_weight_error: float | None = None
    query_count: int = 0
    failure: str | None = None
    wall_time: float = 0.0  # not serialized; re-runs stay byte-identical
    tree: Tree | None = None  # topology mode: the reconstruction; not serialized

    def to_json_dict(self):
        d = dataclasses.asdict(self)
        d.pop("wall_time")
        d.pop("tree")
        d["schema_version"] = SCHEMA_VERSION
        return d


def _load_custom_model(path):
    spec = importlib.util.spec_from_file_location("tripletree_custom_model", path)
    if spec is None:
        raise ValueError(f"custom model {path} is not a .py file")
    mod = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(mod)
    except OSError as exc:
        raise ValueError(f"cannot read custom model {path}: {exc.strerror}") from None
    # a defined lower-case name wins, whatever its value (epsilon = 0.0)
    fn = getattr(mod, "p_correct", getattr(mod, "P_CORRECT", None))
    eps = getattr(mod, "epsilon", getattr(mod, "EPSILON", None))
    if fn is None or eps is None:
        raise ValueError(f"{path} must define p_correct(d1, d2) and epsilon")
    return CustomModel(fn, eps)


def _resolve_model(spec):
    if isinstance(spec, str) and spec.startswith("custom:"):
        return _load_custom_model(spec.split(":", 1)[1])
    return make_model(spec)


def _make_tree(cfg, trial_seed):
    if cfg.tree_in:
        with open(cfg.tree_in) as fh:
            return from_newick(fh.read())
    return generate_random_ultrametric(cfg.n, cfg.min_edge_weight, seed=trial_seed)


def _with_tree_size(cfg):
    """``cfg`` with ``n`` set to the leaf count of its --tree-in tree, if any."""
    if cfg.tree_in:
        return dataclasses.replace(cfg, n=_make_tree(cfg, cfg.seed).n_leaves)
    return cfg


def _make_oracle(cfg, tree, trial_seed):
    model = _resolve_model(cfg.model)
    if cfg.expectation:
        return ExpectationOracle(tree, model)
    return OracleState(tree, model, seed=trial_seed)


def run_trial(cfg_dict, trial):
    """One seeded trial; top-level so worker processes can run it."""
    cfg = ExperimentConfig(**cfg_dict)
    trial_seed = cfg.seed + trial
    t0 = time.perf_counter()
    tree = _make_tree(cfg, trial_seed)
    oracle = _make_oracle(cfg, tree, trial_seed)
    res = TrialResult(trial=trial, seed=trial_seed, success=False)
    try:
        if cfg.mode == "topology":
            overrides = {"n0": cfg.n0}
            if cfg.c_thr is not None:
                overrides["c_thr"] = cfg.c_thr
            rcfg = ReconstructionConfig.for_oracle(oracle, **overrides)
            out = reconstruct_topology(oracle, rcfg)
            res.topology_exact = topology_equal(tree, out)
            res.success = bool(res.topology_exact)
            res.tree = out
            if cfg.tree_out and trial == 0:
                _write_text(cfg.tree_out, to_newick(out) + "\n")
        elif cfg.mode == "weights":
            wcfg = WeightConfig(bisect_tol=cfg.tol)
            he = reconstruct_weights(oracle, tree, wcfg)
            errors = he.weight_errors(tree)
            res.max_weight_error = float(max(errors))
            res.mean_weight_error = float(np.mean(errors))
            res.success = True
            if cfg.tree_out and trial == 0:
                _write_weight_artifacts(cfg.tree_out, he)
        else:
            raise ValueError(f"run_trial does not handle mode {cfg.mode!r}")
    except ReconstructionFailure as exc:
        res.failure = f"{exc.stage}: {exc.detail}"
    except EstimationFailure as exc:
        res.failure = f"estimation: {exc}"
    res.query_count = int(oracle.query_count)
    res.wall_time = time.perf_counter() - t0
    return res


def _write_text(path, text):
    """
    The one way the harness writes a file: create the parent directory,
    unlink whatever is at ``path``, then create ``path`` afresh.  Opening an
    existing non-empty file with "w" truncates it in place, which ext4
    answers by flushing the new data on close (about 50 ms a file on a
    discard-mounted disk); a new file costs about 0.25 ms.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "x", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_text(obj):
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _csv_text(fieldnames, rows):
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fieldnames)
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


def _write_weight_artifacts(path, he):
    _write_text(path, to_newick(he.estimated_tree()) + "\n")
    topo, sidecar = he.topology, []
    min_leaf, nl = topo.min_leaf(), topo.leaf_counts()
    for v, e in sorted(he.by_node.items()):
        sidecar.append(
            {
                "node": int(v),
                "clade_rep": topo.leaf_labels[min_leaf[v]],
                "clade_size": int(nl[v]),
                "height": e.value,
                "error_class": e.error_class,
                "method": e.method,
                "residual": e.residual,
                "warnings": list(e.warnings),
            }
        )
    _write_text(path + ".sidecar.json",
                _json_text({"schema_version": SCHEMA_VERSION, "vertices": sidecar}))


def _quantile(values, q):
    return float(np.quantile(np.asarray(values, dtype=np.float64), q)) if values else None


def run_experiment(cfg):
    """
    Run ``cfg.trials`` seeded trials (in parallel when jobs != 1), write
    trials.jsonl + summary.csv under cfg.out, and return the results.
    """
    cfg.validate()
    if cfg.mode not in ("topology", "weights"):
        raise ValueError("run_experiment handles topology/weights modes")
    cfg = _with_tree_size(cfg)
    cfg_dict = dataclasses.asdict(cfg)
    jobs = cfg.jobs if cfg.jobs > 0 else min(8, os.cpu_count() or 1)
    t0 = time.perf_counter()
    if jobs > 1 and cfg.trials > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_trial, [cfg_dict] * cfg.trials,
                                    range(cfg.trials)))
    else:
        results = [run_trial(cfg_dict, t) for t in range(cfg.trials)]
    results.sort(key=lambda r: r.trial)
    elapsed = time.perf_counter() - t0

    n_success = sum(r.success for r in results)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "mode": cfg.mode,
        "n": cfg.n,
        "model": cfg.model + ("+expectation" if cfg.expectation else ""),
        "min_edge_weight": cfg.min_edge_weight,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "success_rate": n_success / cfg.trials,
        "failures": sum(r.failure is not None for r in results),
        "max_queries": max(r.query_count for r in results),
    }
    if cfg.mode == "weights":
        errs = [r.max_weight_error for r in results if r.max_weight_error is not None]
        summary["max_weight_error"] = max(errs) if errs else None
        summary["p50_weight_error"] = _quantile(errs, 0.5)
        summary["p90_weight_error"] = _quantile(errs, 0.9)

    if cfg.out:
        _write_text(os.path.join(cfg.out, "trials.jsonl"), "".join(
            json.dumps(r.to_json_dict(), sort_keys=True) + "\n" for r in results))
        _write_text(os.path.join(cfg.out, "summary.csv"),
                    _csv_text(sorted(summary), [summary]))
    print(
        f"[{cfg.mode}] n={cfg.n} trials={cfg.trials} "
        f"success={n_success}/{cfg.trials} ({elapsed:.1f}s)",
        file=sys.stderr,
    )
    return {"results": results, "summary": summary}


# ---------------------------------------------------------------------- #
# Calibration                                                             #
# ---------------------------------------------------------------------- #


def calibrate(cfg):
    """
    Grid sweep over (min_edge_weight, c_thr); returns the sweep table and
    the smallest cell (weight first, then threshold) reaching the target
    exact-recovery rate.
    """
    cfg.validate()
    cfg = _with_tree_size(cfg)
    c_values = cfg.sweep_c_thr or (24.0,)
    table = []
    recommended = None
    for w in sorted(cfg.sweep_weights):
        for c in sorted(c_values):
            cell = dataclasses.replace(
                cfg, mode="topology", min_edge_weight=float(w), c_thr=float(c),
                out=None,
            )
            out = run_experiment(cell)
            rate = out["summary"]["success_rate"]
            half = 1.96 * math.sqrt(max(rate * (1 - rate), 1e-12) / cfg.trials)
            row = {
                "min_edge_weight": float(w),
                "c_thr": float(c),
                "trials": cfg.trials,
                "successes": int(round(rate * cfg.trials)),
                "success_rate": rate,
                "ci_half_width": half,
            }
            table.append(row)
            if recommended is None and rate >= cfg.target:
                recommended = {"min_edge_weight": float(w), "c_thr": float(c),
                               "success_rate": rate}
    result = {
        "schema_version": SCHEMA_VERSION,
        "n": cfg.n,
        "model": cfg.model,
        "trials_per_cell": cfg.trials,
        "seed": cfg.seed,
        "target": cfg.target,
        "recommended": recommended,
        "table": table,
    }
    if cfg.out:
        _write_text(os.path.join(cfg.out, "sweep.csv"), _csv_text(
            ["min_edge_weight", "c_thr", "trials", "successes", "success_rate",
             "ci_half_width"], table))
        _write_text(os.path.join(cfg.out, "calibration.json"), _json_text(result))
    return result


# ---------------------------------------------------------------------- #
# Lower bound                                                             #
# ---------------------------------------------------------------------- #


def lower_bound_report(n, rho, allow_zero_inner=False):
    """
    Distinguishability certificate for the hard pair.  Returns
    (report, ok) where ok means every class bound and the aggregate bound
    hold.
    """
    pair = statsmod.build_lower_bound_pair(
        n, rho, allow_zero_inner=allow_zero_inner
    )
    rep = statsmod.distinguishability_report(pair)
    rep["schema_version"] = SCHEMA_VERSION
    by = {c["name"]: c["h2_max"] for c in rep["classes"]}
    checks = {
        "A1_zero": by["A1"] == 0.0,
        "A2_zero": by["A2"] == 0.0,
        "A3_bound": by["A3"] <= 4.0 * rho * rho / n + 1e-18,
        "A4_bound": by["A4"] <= rho * rho / (4.0 * n) + 1e-18,
        "A5_bound": by["A5"] <= rho * rho / (4.0 * n) + 1e-18,
        "tvd_bound": rep["tvd_bound"] <= 0.01 + 1e-12,
    }
    rep["checks"] = checks
    return rep, all(checks.values())


# ---------------------------------------------------------------------- #
# Entry point                                                             #
# ---------------------------------------------------------------------- #


def _env_default(name, fallback):
    """
    The value of ``TRIPLETREE_<name>`` as its raw string, else ``fallback``.
    argparse applies a flag's ``type`` to a string default, so a value from
    the environment is parsed as the flag's is, and a malformed one exits 2.
    """
    return os.environ.get(ENV_PREFIX + name, fallback)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="tripletree",
        description="Ultrametric tree reconstruction from noisy triple "
        "experiments: simulation and verification harness.",
    )
    ed = _env_default
    p.add_argument("--mode", required=("TRIPLETREE_MODE" not in os.environ),
                   default=ed("MODE", None), choices=MODES)
    p.add_argument("--n", type=int, default=ed("N", 32))
    p.add_argument("--min-edge-weight", type=float,
                   default=ed("MIN_EDGE_WEIGHT", 0.05))
    p.add_argument("--model", default=ed("MODEL", "homogeneous"),
                   help="homogeneous | noiseless | custom:<python file>")
    p.add_argument("--expectation", action="store_true",
                   help="replace sampling with exact expectations")
    p.add_argument("--trials", type=int, default=ed("TRIALS", 10))
    p.add_argument("--seed", type=int, default=ed("SEED", 0))
    p.add_argument("--c-thr", type=float, default=ed("C_THR", None))
    p.add_argument("--n0", type=int, default=ed("N0", 8))
    p.add_argument("--tol", type=float, default=ed("TOL", 1e-12))
    p.add_argument("--rho", type=float, default=ed("RHO", 0.01))
    p.add_argument("--allow-zero-inner", action="store_true")
    p.add_argument("--target", type=float, default=ed("TARGET", 0.9))
    p.add_argument("--sweep-weights", type=_parse_floats,
                   default=ed("SWEEP_WEIGHTS", ""),
                   help="comma-separated min-edge-weight values")
    p.add_argument("--sweep-c-thr", type=_parse_floats,
                   default=ed("SWEEP_C_THR", ""),
                   help="comma-separated threshold constants")
    p.add_argument("--out", default=ed("OUT", None))
    p.add_argument("--jobs", type=int, default=ed("JOBS", 0),
                   help="parallel trial workers (0 = auto)")
    p.add_argument("--tree-in", default=None, help="Newick input tree")
    p.add_argument("--tree-out", default=None, help="Newick output path")
    return p


def _parse_floats(text):
    return tuple(float(x) for x in text.split(",") if x.strip())


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.mode not in MODES:  # ``choices`` is not applied to a default
        parser.error(f"argument --mode: invalid choice: {args.mode!r} "
                     f"(choose from {', '.join(map(repr, MODES))})")
    cfg = ExperimentConfig(**vars(args))
    try:
        if cfg.mode in ("topology", "weights"):
            run_experiment(cfg)
            return 0
        if cfg.mode == "calibrate":
            result = calibrate(cfg)
            print(json.dumps(result["recommended"], sort_keys=True))
            return 0 if result["recommended"] else 1
        # lower-bound
        try:
            rep, ok = lower_bound_report(cfg.n, cfg.rho,
                                         allow_zero_inner=cfg.allow_zero_inner)
        except InfeasibleTreeError as exc:
            print(json.dumps({"error": "infeasible-geometry", "detail": str(exc)}),
                  file=sys.stderr)
            return 2
        text = _json_text(rep)
        if cfg.out:
            _write_text(os.path.join(cfg.out, "lower_bound.json"), text)
        print(text, end="")
        return 0 if ok else 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
