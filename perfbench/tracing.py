"""
Spans and counters recorded from outside the tripletree package.

The traced run wraps public entry points of each layer (``OracleState.wins``,
``ExpectationOracle.wins``, ``noise_oracle.keyed_uniform``,
``Tree.distance_matrix`` and the names ``cli`` imports from the other
modules) and records, per span name, the number of calls, the total time and
the self time (total minus the time covered by child spans).  Spans are kept
in memory as these aggregates; nothing is written to disk.

Nothing here is imported by the package, and the untraced run installs none
of the wrappers.  numpy is imported inside functions, so that run.py's timed
import of tripletree includes numpy's own import.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

REPEAT_BATCH_ROWS = 1 << 16


class Tracer:
    """Aggregated spans (calls, total and self seconds) and row counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._open = []  # child seconds accumulated by each open span
        self.last_oracle = None
        self.repeat_rows = []  # first answered rows, for the repeat probe
        self._repeat_have = 0

    @contextlib.contextmanager
    def span(self, name):
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            child = self._open.pop()
            self.calls[name] += 1
            self.total[name] += dt
            self.self_s[name] += dt - child
            if self._open:
                self._open[-1] += dt

    def snapshot(self):
        """Plain-dict copy of the aggregates (picklable)."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def reset_trial_state(self):
        self.last_oracle = None
        self.repeat_rows = []
        self._repeat_have = 0

    def note_rows(self, oracle, A, B, C, rows):
        """Keep the oracle and its first answered rows for the repeat probe."""
        self.last_oracle = oracle
        if self._repeat_have >= REPEAT_BATCH_ROWS:
            return
        import numpy as np

        take = min(rows, REPEAT_BATCH_ROWS - self._repeat_have)
        arrs = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(x, dtype=np.int64)) for x in (A, B, C))
        )
        self.repeat_rows.append(tuple(a[:take].copy() for a in arrs))
        self._repeat_have += take


class NullTracer:
    """Stand-in for the untraced run: spans cost one no-op context."""

    def span(self, name):
        return contextlib.nullcontext()


def merge(dst, snap):
    """Add a snapshot (from ``Tracer.snapshot``) into another snapshot."""
    for key in ("calls", "total", "self_s", "counts"):
        for name, v in snap[key].items():
            dst[key][name] = dst[key].get(name, 0) + v
    return dst


def empty_snapshot():
    return {"calls": {}, "total": {}, "self_s": {}, "counts": {}}


def diff(after, before):
    """Snapshot of what happened between two snapshots."""
    out = empty_snapshot()
    for key in out:
        for name, v in after[key].items():
            out[key][name] = v - before[key].get(name, 0)
    return out


# ---------------------------------------------------------------------- #
# Wrappers around the package's public entry points                       #
# ---------------------------------------------------------------------- #

_ACTIVE = None  # the tracer the installed wrappers report to


def _wrap_wins(orig):
    def wins(self, A, B, C):
        tr = _ACTIVE
        with tr.span("noise_oracle.wins"):
            out = orig(self, A, B, C)
        tr.counts["noise_oracle.rows"] += len(out)
        tr.note_rows(self, A, B, C, len(out))
        return out

    wins.__wrapped__ = orig
    return wins


def _wrap_keyed_uniform(orig):
    def keyed_uniform(seed, triple_ids):
        out = orig(seed, triple_ids)
        _ACTIVE.counts["noise_oracle.keyed_uniform_rows"] += len(out)
        return out

    keyed_uniform.__wrapped__ = orig
    return keyed_uniform


def _wrap_span(name, orig):
    def spanned(*args, **kwargs):
        with _ACTIVE.span(name):
            return orig(*args, **kwargs)

    spanned.__wrapped__ = orig
    return spanned


def traced_run_trial(cfg_dict, trial):
    """
    ``cli.run_trial`` under the tracer.  Pool workers are forked from the
    traced process, so they inherit the wrappers; the worker's aggregates
    travel back on the returned TrialResult as ``bench_trace``.
    """
    tr = _ACTIVE
    before = tr.snapshot()
    tr.reset_trial_state()
    with tr.span("cli.run_trial"):
        res = _ORIGINALS["run_trial"](cfg_dict, trial)
    res.bench_trace = diff(tr.snapshot(), before)
    res.bench_repeat_ns = repeat_probe(tr)
    tr.reset_trial_state()
    return res


_ORIGINALS = {}


def install(tracer):
    """
    Install the wrappers, reporting to ``tracer``.  Returns a callable that
    removes them again.
    """
    global _ACTIVE
    import tripletree.cli as cli
    import tripletree.noise_oracle as no
    import tripletree.tree_core as tc

    _ACTIVE = tracer
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for cls in (no.OracleState, no.ExpectationOracle):
        patch(cls, "wins", _wrap_wins(cls.__dict__["wins"]))
    patch(no, "keyed_uniform", _wrap_keyed_uniform(no.keyed_uniform))
    patch(tc.Tree, "distance_matrix",
          _wrap_span("tree_core.distance_matrix", tc.Tree.__dict__["distance_matrix"]))
    patch(cli, "reconstruct_topology",
          _wrap_span("topology.reconstruct", cli.reconstruct_topology))
    patch(cli, "reconstruct_weights",
          _wrap_span("weights.reconstruct", cli.reconstruct_weights))
    patch(cli, "topology_equal",
          _wrap_span("tree_core.topology_equal", cli.topology_equal))
    _ORIGINALS["run_trial"] = cli.run_trial
    patch(cli, "run_trial", traced_run_trial)

    def remove():
        global _ACTIVE
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
        _ACTIVE = None

    return remove


def repeat_probe(tr, repeats=5):
    """
    Median ns per row of the unwrapped ``wins`` on the trial's first answered
    rows, asked again on the trial's own oracle at the end of the trial.
    """
    import numpy as np

    if tr.last_oracle is None or not tr.repeat_rows:
        return 0.0
    A, B, C = (np.concatenate([r[i] for r in tr.repeat_rows]) for i in range(3))
    wins = type(tr.last_oracle).wins
    wins = getattr(wins, "__wrapped__", wins)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        wins(tr.last_oracle, A, B, C)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2] / len(A) * 1e9


def keyed_uniform_probe(tp_noise_oracle, seed, rows=1 << 20, repeats=5):
    """Median ns per row of ``keyed_uniform`` on a fixed batch of ids."""
    import numpy as np

    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 1 << 40, size=rows, dtype=np.int64).astype(np.uint64)
    ku = tp_noise_oracle.keyed_uniform
    ku = getattr(ku, "__wrapped__", ku)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ku(seed, ids)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2] / rows * 1e9


def distinct_triples(tp, run):
    """
    Distinct canonical triples asked of an ExpectationOracle (whose
    ``query_count`` stays 0): replays ``run()`` untimed with an id collector
    on ``ExpectationOracle.wins``.
    """
    import numpy as np

    cls = tp.ExpectationOracle
    orig = cls.__dict__["wins"]
    base = getattr(orig, "__wrapped__", orig)
    seen = []

    def wins(self, A, B, C):
        n = self.n_leaves
        A, B, C = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(x, dtype=np.int64)) for x in (A, B, C))
        )
        i = np.minimum(np.minimum(A, B), C)
        k = np.maximum(np.maximum(A, B), C)
        j = A + B + C - i - k
        seen.append(np.unique((i * n + j) * n + k))
        return base(self, A, B, C)

    cls.wins = wins
    try:
        run()
    finally:
        cls.wins = orig
    if not seen:
        return 0
    return int(len(np.unique(np.concatenate(seen))))
