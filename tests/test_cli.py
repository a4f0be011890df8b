import ast
import csv
import hashlib
import json
import os
import subprocess
import sys

import jsonschema
import pytest

from tripletree import (
    from_newick,
    to_newick,
    topology_equal,
    tree_from_topology,
)
import tripletree.cli as cli
import tripletree.topology as topology_mod
from tripletree.cli import (
    ExperimentConfig,
    calibrate,
    lower_bound_report,
    main,
    run_experiment,
)

from conftest import random_tree

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "docs", "schema")


def _schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------- #
# run_experiment                                                          #
# ---------------------------------------------------------------------- #


def test_topology_mode_noiseless(tmp_path):
    cfg = ExperimentConfig(
        mode="topology", n=16, model="noiseless", trials=4, seed=9,
        min_edge_weight=0.02, out=str(tmp_path / "run"), jobs=1,
    )
    out = run_experiment(cfg)
    assert out["summary"]["success_rate"] == 1.0
    rows = [
        json.loads(line)
        for line in (tmp_path / "run" / "trials.jsonl").read_text().splitlines()
    ]
    assert len(rows) == 4
    schema = _schema("trial_result.schema.json")
    for row in rows:
        jsonschema.validate(row, schema)
        assert row["query_count"] <= 16 * 15 * 14 // 6


def test_rerun_byte_identical(tmp_path):
    base = dict(
        mode="topology", n=12, model="homogeneous", trials=3, seed=4,
        min_edge_weight=0.05, jobs=1, c_thr=2.0,
    )
    run_experiment(ExperimentConfig(out=str(tmp_path / "a"), **base))
    run_experiment(ExperimentConfig(out=str(tmp_path / "b"), **base))
    assert (tmp_path / "a" / "trials.jsonl").read_bytes() == (
        tmp_path / "b" / "trials.jsonl"
    ).read_bytes()
    assert (tmp_path / "a" / "summary.csv").read_bytes() == (
        tmp_path / "b" / "summary.csv"
    ).read_bytes()


def test_weights_mode_expectation(tmp_path):
    # tree_out deliberately points inside the not-yet-created out directory
    # and trials run in worker processes: the writer must create parents
    cfg = ExperimentConfig(
        mode="weights", n=24, model="homogeneous", expectation=True,
        trials=3, seed=0, min_edge_weight=0.05, out=str(tmp_path / "w"),
        jobs=2, tree_out=str(tmp_path / "w" / "est.nwk"),
    )
    out = run_experiment(cfg)
    assert out["summary"]["max_weight_error"] <= 1e-9
    est = from_newick((tmp_path / "w" / "est.nwk").read_text())
    assert est.n_leaves == 24
    sidecar = json.loads((tmp_path / "w" / "est.nwk.sidecar.json").read_text())
    assert sidecar["schema_version"] == 1
    assert all("error_class" in v for v in sidecar["vertices"])


def test_parallel_jobs_match_serial(tmp_path):
    base = dict(
        mode="topology", n=12, model="noiseless", trials=4, seed=2,
        min_edge_weight=0.03,
    )
    serial = run_experiment(ExperimentConfig(jobs=1, out=str(tmp_path / "s"), **base))
    parallel = run_experiment(ExperimentConfig(jobs=2, out=str(tmp_path / "p"), **base))
    assert (tmp_path / "s" / "trials.jsonl").read_bytes() == (
        tmp_path / "p" / "trials.jsonl"
    ).read_bytes()


def test_tree_in_round_trip(tmp_path):
    nwk = "((a:0.4,b:0.4):0.6,(c:0.7,d:0.7):0.3);"
    tree_in = tmp_path / "in.nwk"
    tree_in.write_text(nwk)
    tree_out = tmp_path / "out.nwk"
    cfg = ExperimentConfig(
        mode="topology", model="noiseless", trials=1, seed=0,
        tree_in=str(tree_in), tree_out=str(tree_out), jobs=1,
    )
    out = run_experiment(cfg)
    assert out["summary"]["success_rate"] == 1.0
    assert topology_equal(from_newick(nwk), from_newick(tree_out.read_text()))


def test_tree_in_reports_its_leaf_count(tmp_path, capsys):
    tree_in = tmp_path / "in.nwk"
    tree_in.write_text(to_newick(random_tree(40, seed=2)) + "\n")
    out = tmp_path / "out"
    run_experiment(ExperimentConfig(
        mode="topology", model="noiseless", trials=1, seed=0, jobs=1,
        tree_in=str(tree_in), out=str(out),
    ))
    summary = next(csv.DictReader(
        (out / "summary.csv").read_text().splitlines()))
    assert summary["n"] == "40"
    assert "n=40 " in capsys.readouterr().err


def test_tree_in_deep_caterpillar(tmp_path):
    # a 1500-leaf caterpillar nests 1499 clades, past the interpreter's
    # recursion limit; the run must read it and ask its oracle about it
    plan = "L0"
    for i in range(1, 1500):
        plan = (f"L{i}", plan)
    tree_in = tmp_path / "deep.nwk"
    tree_in.write_text(to_newick(tree_from_topology(plan)) + "\n")
    rc = main([
        "--mode", "weights", "--model", "homogeneous", "--trials", "1",
        "--seed", "0", "--jobs", "1", "--tree-in", str(tree_in),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    rows = (tmp_path / "out" / "trials.jsonl").read_text().splitlines()
    assert len(rows) == 1
    row = json.loads(rows[0])
    jsonschema.validate(row, _schema("trial_result.schema.json"))
    assert row["query_count"] > 1499


def test_weights_estimation_failure_is_a_failed_trial(tmp_path):
    # the estimator assumes the homogeneous model; on noiseless answers
    # every heavy-path height comes out 0, and on tree seed 39 the root is
    # no anchor either, so no positive anchor is left
    rc = main([
        "--mode", "weights", "--n", "40", "--min-edge-weight", "0.02",
        "--model", "noiseless", "--trials", "3", "--seed", "37",
        "--jobs", "1", "--out", str(tmp_path),
    ])
    assert rc == 0
    rows = [
        json.loads(line)
        for line in (tmp_path / "trials.jsonl").read_text().splitlines()
    ]
    assert len(rows) == 3
    schema = _schema("trial_result.schema.json")
    for row in rows:
        jsonschema.validate(row, schema)
    failed = [r for r in rows if r["failure"] is not None]
    assert failed
    for r in failed:
        assert r["failure"] == "estimation: anchor heights must be positive"
        assert r["success"] is False and r["max_weight_error"] is None
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert dict(zip(summary[0].split(","), summary[1].split(",")))[
        "failures"] == str(len(failed))


def test_weights_zero_height_anchors_are_dropped(tmp_path):
    # sampled right-path responses above 1/2 clamp three trials' anchors to
    # height 0; those anchors leave the aggregate instead of ending the run
    rc = main([
        "--mode", "weights", "--n", "96", "--min-edge-weight", "0.01",
        "--model", "homogeneous", "--trials", "4", "--seed", "13",
        "--jobs", "1", "--out", str(tmp_path),
        "--tree-out", str(tmp_path / "est.nwk"),
    ])
    assert rc == 0
    rows = [
        json.loads(line)
        for line in (tmp_path / "trials.jsonl").read_text().splitlines()
    ]
    assert [r["failure"] for r in rows] == [None] * 4
    assert all(r["success"] and r["max_weight_error"] < 1 for r in rows)
    sidecar = json.loads((tmp_path / "est.nwk.sidecar.json").read_text())
    dropped = [v for v in sidecar["vertices"]
               if any(w.startswith("anchor-dropped(") for w in v["warnings"])]
    assert dropped and all(v["method"] == "aggregated-anchors" for v in dropped)


# Seed-for-seed output contract: sha256 over trials.jsonl, summary.csv, the
# --tree-out Newick and (weights mode) its sidecar, for fixed configurations.
GOLDEN = {
    "topology-noiseless-48": (
        dict(mode="topology", n=48, model="noiseless", trials=3, seed=5,
             min_edge_weight=0.02),
        "50b88e802fb7c5461fbef29892fedb40a7e0ecbcc3d655482e993689fb957345"),
    "topology-homogeneous-64-c0.5": (
        dict(mode="topology", n=64, model="homogeneous", trials=2, seed=7,
             min_edge_weight=0.05, c_thr=0.5),
        "fc1957115fad02deb9253d9785e1c9cd2f08906243a1ba2fbdb1d8fe439e43db"),
    "topology-homogeneous-32-c24": (
        dict(mode="topology", n=32, model="homogeneous", trials=3, seed=3,
             min_edge_weight=0.05, c_thr=24.0),
        "f61311a2837318ce79da9a2a600bf77124231aa36da5839d137c68ad223a8ce1"),
    "topology-expectation-16": (
        dict(mode="topology", n=16, model="homogeneous", expectation=True,
             trials=4, seed=200, min_edge_weight=0.02),
        "42b5810d552080223d73489310d8b0bdf32f947061447e02af9e8563c0b21451"),
    "topology-noiseless-8": (
        dict(mode="topology", n=8, model="noiseless", trials=2, seed=11,
             min_edge_weight=0.05),
        "d9abb38fec2d968ff298f075e5dd317084730ce569622d2f1021afbac4d3783c"),
    "topology-homogeneous-8": (
        dict(mode="topology", n=8, model="homogeneous", trials=4, seed=11,
             min_edge_weight=0.05),
        "260aa1288b3b61d3c3aa1f64c2087b95e4490efce9d8556e0c6345556088b725"),
    "weights-homogeneous-400": (
        dict(mode="weights", n=400, model="homogeneous", trials=2, seed=21,
             min_edge_weight=0.05),
        "20b337d4607584799ed918bd7251b9b0c7c1d5e783f6dc7ff1d4c0e336ff5272"),
    "weights-expectation-64": (
        dict(mode="weights", n=64, model="homogeneous", expectation=True,
             trials=2, seed=31, min_edge_weight=0.05),
        "7b2ef50913a78935479d5029d61d87dda74d432487f4e208f80fb269289e6a92"),
    # its sidecar holds response-clamped, anchor-dropped and
    # anchor-witnesses-below-100 warnings
    "weights-noiseless-40": (
        dict(mode="weights", n=40, model="noiseless", trials=3, seed=0,
             min_edge_weight=0.05),
        "0ee58214ce7f492b081aa18004b9fbf08988b32eace793bea9856d05499015a0"),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digest(tmp_path, name, jobs):
    kwargs, want = GOLDEN[name]
    out = tmp_path / "run"
    run_experiment(ExperimentConfig(out=str(out), jobs=jobs,
                                    tree_out=str(out / "tree.nwk"), **kwargs))
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == want


def _digest(out):
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
def test_rerun_over_stale_outputs_matches_fresh_run(tmp_path, jobs):
    kwargs, want = GOLDEN["topology-homogeneous-8"]
    fresh, out = tmp_path / "fresh", tmp_path / "run"
    run_experiment(ExperimentConfig(out=str(fresh), jobs=jobs,
                                    tree_out=str(fresh / "tree.nwk"), **kwargs))
    out.mkdir()
    for name in ("trials.jsonl", "summary.csv", "tree.nwk"):
        (out / name).write_bytes(b"stale\n" * 5000)
    for _ in range(2):
        run_experiment(ExperimentConfig(out=str(out), jobs=jobs,
                                        tree_out=str(out / "tree.nwk"), **kwargs))
        assert sorted(p.name for p in out.iterdir()) == sorted(
            p.name for p in fresh.iterdir())
        for path in fresh.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes()
        assert _digest(out) == want


def test_output_symlink_is_replaced_not_written_through(tmp_path):
    target = tmp_path / "elsewhere.nwk"
    target.write_text("keep me\n")
    link = tmp_path / "tree.nwk"
    link.symlink_to(target)
    run_experiment(ExperimentConfig(
        mode="topology", n=8, model="noiseless", trials=1, seed=0,
        min_edge_weight=0.05, jobs=1, tree_out=str(link)))
    assert target.read_text() == "keep me\n"
    assert not link.is_symlink()
    assert from_newick(link.read_text()).n_leaves == 8


def test_cli_writes_files_only_through_write_text():
    with open(cli.__file__) as fh:
        module = ast.parse(fh.read())
    writes = []

    class Calls(ast.NodeVisitor):
        func = None

        def visit_FunctionDef(self, node):
            outer, self.func = self.func, node.name
            self.generic_visit(node)
            self.func = outer

        def visit_Call(self, node):
            name = ast.unparse(node.func)
            assert name not in ("json.dump", "os.open", "os.fdopen", "os.replace",
                                "os.rename", "shutil.copyfile"), name
            assert not name.endswith((".write_text", ".write_bytes")), name
            if name.split(".")[-1] == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), None)
                if mode is not None and not (isinstance(mode, ast.Constant)
                                             and mode.value in ("r", "rb")):
                    writes.append(self.func)
            self.generic_visit(node)

    Calls().visit(module)
    assert writes == ["_write_text"]


def test_config_validation_lists_fields():
    cfg = ExperimentConfig(mode="topology", trials=0, n=1)
    with pytest.raises(ValueError) as err:
        cfg.validate()
    assert "trials" in str(err.value) and "n" in str(err.value)


def test_cli_rejects_n0_above_the_cap(tmp_path, monkeypatch, capsys):
    # exit 2 before any trial runs: n0 = 9 at n = 9 would enumerate
    # 2,027,025 topologies
    def enumerate_all(m):
        raise AssertionError(f"enumerated every topology on {m} leaves")

    monkeypatch.setattr(topology_mod, "_topology_tables", enumerate_all)
    assert main(["--mode", "topology", "--n", "9", "--n0", "9", "--trials",
                 "1", "--jobs", "1", "--out", str(tmp_path)]) == 2
    assert "n0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------- #
# calibrate                                                               #
# ---------------------------------------------------------------------- #


def test_calibrate_noiseless_accepts_smallest_cell(tmp_path):
    cfg = ExperimentConfig(
        mode="calibrate", n=12, model="noiseless", trials=3, seed=1,
        sweep_weights=(0.02, 0.05), sweep_c_thr=(0.0,), target=0.9,
        out=str(tmp_path), jobs=1,
    )
    result = calibrate(cfg)
    assert result["recommended"] == {
        "min_edge_weight": 0.02, "c_thr": 0.0, "success_rate": 1.0,
    }
    table = (tmp_path / "sweep.csv").read_text().splitlines()
    assert table[0].startswith("min_edge_weight,c_thr,trials,successes")
    assert len(table) == 3
    # success monotone in min edge weight for the noiseless model
    rates = [float(line.split(",")[4]) for line in table[1:]]
    assert rates == sorted(rates)


def test_calibrate_tree_in_reports_its_leaf_count(tmp_path):
    tree_in = tmp_path / "in.nwk"
    tree_in.write_text(to_newick(random_tree(40, seed=2)) + "\n")
    result = calibrate(ExperimentConfig(
        mode="calibrate", model="noiseless", trials=1, seed=0, jobs=1,
        sweep_weights=(0.02,), sweep_c_thr=(0.0,), tree_in=str(tree_in),
        out=str(tmp_path),
    ))
    assert result["n"] == 40
    assert json.loads((tmp_path / "calibration.json").read_text())["n"] == 40


# ---------------------------------------------------------------------- #
# lower-bound mode                                                        #
# ---------------------------------------------------------------------- #


def test_lower_bound_report_checks():
    rep, ok = lower_bound_report(10_000, 0.01)
    assert ok
    jsonschema.validate(rep, _schema("lower_bound_report.schema.json"))


def test_cli_entrypoint_lower_bound(tmp_path, capsys):
    rc = main([
        "--mode", "lower-bound", "--n", "10000", "--rho", "0.01",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    rep = json.loads((tmp_path / "lower_bound.json").read_text())
    assert rep["tvd_bound"] <= 0.01


def test_cli_lower_bound_zero_rho_is_infeasible(capsys):
    assert main(["--mode", "lower-bound", "--n", "10000", "--rho", "0"]) == 2
    capsys.readouterr()
    assert (
        main(["--mode", "lower-bound", "--n", "10000", "--rho", "0",
              "--allow-zero-inner"]) == 0
    )
    rep = json.loads(capsys.readouterr().out)
    assert all(c["h2_max"] == 0.0 for c in rep["classes"])


# ---------------------------------------------------------------------- #
# flags and environment                                                   #
# ---------------------------------------------------------------------- #


def test_env_override(tmp_path):
    env = dict(os.environ)
    env["TRIPLETREE_TRIALS"] = "2"
    env["TRIPLETREE_MODE"] = "topology"
    env["TRIPLETREE_N"] = "8"
    env["TRIPLETREE_MODEL"] = "noiseless"
    env["TRIPLETREE_OUT"] = str(tmp_path)
    env["TRIPLETREE_JOBS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "tripletree.cli"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "trials.jsonl").read_text().splitlines()
    assert len(rows) == 2


def test_env_sweep_weights_reach_calibrate(tmp_path):
    # argparse parses the environment's string default as it parses the flag
    env = dict(os.environ)
    env["TRIPLETREE_MODE"] = "calibrate"
    env["TRIPLETREE_SWEEP_WEIGHTS"] = "0.05,0.1"
    env["TRIPLETREE_N"] = "8"
    env["TRIPLETREE_MODEL"] = "noiseless"
    env["TRIPLETREE_TRIALS"] = "1"
    env["TRIPLETREE_OUT"] = str(tmp_path)
    env["TRIPLETREE_JOBS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "tripletree.cli"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    table = json.loads((tmp_path / "calibration.json").read_text())["table"]
    assert [row["min_edge_weight"] for row in table] == [0.05, 0.1]


@pytest.mark.parametrize("source,epsilon", [
    ("def p_correct(d1, d2):\n"
     "    return 1.0/3.0 + (d2 - d1) / (6.0 * d2)\n"
     "epsilon = 1.0/13.0\n", 1.0 / 13.0),
    # a zero constant is defined, and the lower-case name comes first
    ("def p_correct(d1, d2):\n"
     "    return 0.5\n"
     "epsilon = 0.0\n"
     "EPSILON = 0.05\n", 0.0),
], ids=["steep", "zero-epsilon"])
def test_custom_model_file(tmp_path, source, epsilon):
    model_file = tmp_path / "model.py"
    model_file.write_text(source)
    assert cli._load_custom_model(str(model_file)).epsilon == epsilon
    cfg = ExperimentConfig(
        mode="topology", n=8, model=f"custom:{model_file}", trials=2,
        seed=0, min_edge_weight=0.1, jobs=1, c_thr=1.0,
    )
    out = run_experiment(cfg)  # runs through; success not required
    assert len(out["results"]) == 2
