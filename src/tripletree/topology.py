"""
Topology reconstruction from the results of noisy closest-pair experiments.

The pipeline resolves small subtrees first and stitches them together:

1. build a "base" subtree of about sqrt(n) leaves bottom-up by repeatedly
   merging the highest-scoring pair of current subtrees;
2. build a "pivot" subtree among the remaining leaves the same way;
3. split the remaining leaves into the buckets below the pivot, the
   pivot's own bucket, and the buckets above, using paired counting tests;
4. resolve every small part directly from score tests against leaves
   outside it (or inside the resolved part, for the quotient direction)
   and recurse on the single part that may stay unresolved, collapsing the
   pivot to a representative leaf when the recursion descends into its
   bucket.

All count comparisons use the threshold c_thr * sqrt(n * ln n).  Every
decision is made from aggregated counts, whatever the answer source:
clusters are scored by average linkage on the triplet votes, the
partition and the bucket order count all three answers of each
experiment, and buckets are ordered by rank aggregation.  Under a tree's
answers sibling clusters have equal score rows, so average linkage there
is the paper's merging on representative rows.  One routine does all the
average linkage (``_agglomerate``, O(m) a merge on an m-cluster matrix
updated in place): the base and the pivot stop at the size band with ties
to the smallest positions, and every assembly runs to one cluster with the
tie rule of its source (``_assemble_by_scores``).

An exact answer source (the noiseless model, or expectation mode, which
the driver asks for each triple's most likely pair) selects two things
only.  Its margins are exact, so it runs with c_thr = 0; and its counts
over any leaf set S fix the induced topology of every subset of S: the
pair (i, j) scores |S| - |S & clade(lca(i, j))|.  So the completions
assemble their members on the driver's triple counts (the kept
all-triples pass restricted to them, or a pass over the members) and
read no outside witnesses; any tie rule then gives the same plan (see
``_assemble_by_scores``).  Under noise the completions score against
leaves outside the members, and an assembly's tied scores go to a
deterministic key over the score matrix (``_tie_key``): no single noisy
answer is right with probability above 1/2.  A run ends in a tree;
ReconstructionFailure is left for what no aggregation can settle (two
parts too large to coexist, or a noisy completion with no leaf outside
its members).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .noise_oracle import ExpectationOracle
from .tree_core import _closest_codes, map_plan, tree_from_topology

# Rows per block of ``_pair_tallies`` and ``_wins_sum_pairs``; bounds their
# temporaries (about 90 bytes a row, so some 23 MB a block).
_CHUNK = 1 << 18


class ReconstructionFailure(Exception):
    """A reconstruction step could not produce a consistent answer."""

    def __init__(self, stage, detail, witness=None):
        super().__init__(f"[{stage}] {detail}")
        self.stage = stage
        self.detail = detail
        self.witness = witness


@dataclass
class ScoreVerdict:
    outcome: str  # "left" | "right" | "tie"
    margin: float
    threshold: float


@dataclass
class ReconstructionConfig:
    """
    Tunables of the reconstruction pipeline.  Defaults follow the analysis
    constants; noiseless or expectation-mode runs should use c_thr = 0
    since their score margins are exact.
    """

    c_thr: float = 24.0
    subtree_band: tuple | None = None  # explicit (lo, hi) leaf-count band
    large_fraction: float = 11.0 / 12.0
    small_fraction: float = 1.0 / 12.0
    n0: int = 8

    def threshold(self, n):
        return self.c_thr * math.sqrt(n * math.log(n)) if n > 1 else 0.0

    def band(self, n):
        if self.subtree_band is not None:
            return self.subtree_band
        lo = math.ceil(math.sqrt(n))
        return lo, 2 * lo

    @classmethod
    def for_oracle(cls, oracle, **overrides):
        """
        Config with c_thr zeroed for noise-free answer sources (the
        noiseless model, or an expectation oracle): with no noise, any
        positive margin is decisive.
        """
        cfg = cls(**overrides)
        if "c_thr" not in overrides and _exact_source(oracle):
            cfg.c_thr = 0.0
        return cfg


def _exact_source(oracle):
    """
    True for answer sources without sampling noise: expectation mode, or a
    model that draws nothing (the noiseless model).
    """
    return isinstance(oracle, ExpectationOracle) or not oracle.model.sampled


def compare_sums(x, y, n, cfg=None):
    """Verdict on two indicator sums at threshold c_thr * sqrt(n ln n)."""
    cfg = cfg or ReconstructionConfig()
    thr = cfg.threshold(n)
    margin = float(x) - float(y)
    if margin > thr:
        outcome = "left"
    elif -margin > thr:
        outcome = "right"
    else:
        outcome = "tie"
    return ScoreVerdict(outcome=outcome, margin=margin, threshold=thr)


@dataclass
class RunStats:
    """Bookkeeping of one reconstruction run, for tests and diagnostics."""

    n: int = 0
    band: tuple = (0, 0)  # subtree size band in force during the run
    bases: list = field(default_factory=list)  # leaf counts of built subtrees
    collapses: list = field(default_factory=list)  # leaf counts of collapsed pivots
    events: list = field(default_factory=list)  # ordered ("base"|"collapse", size)
    stages: list = field(default_factory=list)

    def check_accounting(self, n=None):
        """
        Every pivot collapse must stay within the size band's top and be
        followed either by a fresh base of at least the band's bottom or
        by a direct completion of the collapsed bucket (against leaves
        outside it under noise, whose existence the completion call itself
        enforces).
        """
        lo, hi = self.band
        pending = 0
        for kind, size in self.events:
            if kind == "collapse":
                if size > hi:
                    return False
                pending += 1
            elif kind == "base" and pending:
                if size < lo:
                    return False
                pending -= 1
            elif kind == "direct" and pending:
                pending -= 1
        return pending == 0


# ---------------------------------------------------------------------- #
# Batched score helpers (leaf indices throughout)                         #
# ---------------------------------------------------------------------- #


def _wins_sum_pairs(oracle, A, B, xs, part_of, pa, pb):
    """
    For each pair (A[p], B[p]): sum of oracle.wins(A[p], B[p], x) over all
    x in ``xs`` outside the pair's own parts pa[p] and pb[p] (membership
    via ``part_of``).
    """
    P = len(A)
    m = len(xs)
    out = np.zeros(P, dtype=np.float64)
    if m == 0 or P == 0:
        return out
    rows_per = max(1, _CHUNK // m)
    xs = np.asarray(xs, dtype=np.int64)
    for lo in range(0, P, rows_per):
        hi = min(P, lo + rows_per)
        Ab = np.repeat(A[lo:hi], m)
        Bb = np.repeat(B[lo:hi], m)
        Xb = np.tile(xs, hi - lo)
        mask = (part_of[Xb] != np.repeat(pa[lo:hi], m)) & (
            part_of[Xb] != np.repeat(pb[lo:hi], m)
        )
        w = oracle.wins(Ab[mask], Bb[mask], Xb[mask])
        rows = np.repeat(np.arange(lo, hi), m)[mask]
        out += np.bincount(rows, weights=w, minlength=P)
    return out


def _pair_tallies(oracle, X, Y, W):
    """
    Three-way answer counts per pair (X[p], Y[p]) over the witnesses ``W``
    (leaf ids outside every pair): row 0 counts the experiments
    (X[p], Y[p], w) that answered (X[p], Y[p]), row 1 those that answered
    (X[p], w) and row 2 those that answered (Y[p], w).  Asked pair-major in
    blocks of about ``_CHUNK`` rows; returns a (3, P) int64 array.
    """
    P, m = len(X), len(W)
    out = np.zeros((3, P), dtype=np.int64)
    per = max(1, _CHUNK // max(1, m))
    for lo in range(0, P, per):
        hi = min(P, lo + per)
        code = oracle.answers(
            np.repeat(X[lo:hi], m), np.repeat(Y[lo:hi], m), np.tile(W, hi - lo)
        ).reshape(hi - lo, m)
        out[0, lo:hi] = np.count_nonzero(code == 0, axis=1)
        out[1, lo:hi] = np.count_nonzero(code == 1, axis=1)
    out[2] = m - out[0] - out[1]
    return out


def _triple_scores(oracle, S):
    """
    Score matrix over the positions of the sorted leaf ids ``S``: ``M[a, b]``
    (a < b) counts the other members x whose experiment (S[a], S[b], x)
    answered (S[a], S[b]), and every other entry is -inf.  One pass over
    the triples a < b < c in rank order (``oracle.pass_slots``) reads one
    answer code per triple and counts each layer c at once: answers (a, b)
    by the pair's tril position, answers (a, c) and (b, c) into column c.
    The counts are integers, so the matrix over a subset of ``S`` is this
    one restricted to the subset, minus the counts over the dropped
    members, bit for bit (see ``_Driver._scores``).
    """
    l = len(S)
    M = np.zeros((l, l))
    tb, ta = np.tril_indices(l, k=-1)
    same = np.zeros(len(tb), dtype=np.int64)  # answers (a, b) at (b, a)
    c2 = np.arange(l) * np.arange(-1, l - 1) // 2  # C(b, 2): b-row starts
    for c, b0, b1, slot in oracle.pass_slots(S):
        lo = c2[b0]
        hi = lo + len(slot)
        same[lo:hi] += slot == 0
        M[:c, c] += np.bincount(ta[lo:hi][slot == 1], minlength=c)
        M[b0:b1, c] += np.add.reduceat(slot == 2, c2[b0:b1] - lo,
                                       dtype=np.int64)
    M[ta, tb] += same
    M[np.tril_indices(l)] = -np.inf
    return M


def sibling_scores(oracle, forest, ambient, n=None, cfg=None):
    """
    Score matrix over a leaf-disjoint forest: s[i][j] counts, over ambient
    leaves x outside parts i and j, the experiments (rep_i, rep_j, x) that
    answered (rep_i, rep_j).  Representatives are each part's
    lexicographically smallest leaf.  Returns (reps, matrix).
    """
    parts = [sorted(oracle.index_of[lab] for lab in p) for p in forest]
    amb = np.array(sorted(oracle.index_of[lab] for lab in ambient), dtype=np.int64)
    n = n or oracle.n_leaves
    cfg = cfg or ReconstructionConfig()
    if len(amb) < n * cfg.small_fraction:
        raise ValueError(
            f"ambient set too small: {len(amb)} < n/12 = {n * cfg.small_fraction:.1f}"
        )
    part_of = np.full(oracle.n_leaves, -1, dtype=np.int64)
    for pid, members in enumerate(parts):
        part_of[members] = pid
    reps = np.array([p[0] for p in parts], dtype=np.int64)
    l = len(parts)
    ii, jj = np.triu_indices(l, k=1)
    scores = _wins_sum_pairs(oracle, reps[ii], reps[jj], amb, part_of, ii, jj)
    M = np.zeros((l, l), dtype=np.float64)
    M[ii, jj] = scores
    M[jj, ii] = scores
    rep_labels = [oracle.labels[int(r)] for r in reps]
    return rep_labels, M


# ---------------------------------------------------------------------- #
# Assembly: repeated sibling-pair merging by score                        #
# ---------------------------------------------------------------------- #


def _find_sibling_pair(a, b, reps, closest, stage):
    """
    Starting from the candidate pair (a, b), let closest-pair answers
    displace it until no representative does; raises with a witness when
    the answers cycle instead of settling (they admit no tree).
    ``closest(a, b, C)`` gives a code per c in ``C``: 0 keeps (a, b), 1
    names (a, c) and 2 names (b, c).  Only for answers taken as exact and
    read one triple at a time: ``assemble_from_triples``' closest-pair
    function, and ``small_exhaustive``'s try of the direct answers.  A
    noisy answer is right with probability at most 1/2, and the walk would
    cycle on it.
    """
    guard = 0
    c = None
    reps = np.asarray(reps, dtype=np.int64)
    while True:
        others = reps[(reps != a) & (reps != b)]
        if len(others) == 0:
            return a, b
        codes = closest(a, b, others)
        moved = np.nonzero(codes != 0)[0]
        if len(moved) == 0:
            return a, b
        i = int(moved[0])
        c = int(others[i])
        a, b = (a, c) if codes[i] == 1 else (b, c)
        guard += 1
        if guard > 2 * len(reps) + 4:
            raise ReconstructionFailure(
                stage,
                "closest-pair answers do not stabilize to a sibling pair",
                witness=(a, b, c),
            )


def _agglomerate(M, size, band=None, tie=None):
    """
    Average linkage in place: merge the top-scoring pair of live clusters
    of the symmetric float64 score matrix ``M`` (-inf on the diagonal)
    until one cluster is left or, with ``band``, until the merged cluster
    holds ``band`` members (no merge at all when one already does).
    ``size`` holds each position's member count and is updated in place.
    Returns the merges in order as position pairs (i, j), i < j: j is
    merged into i, whose row and column become the size-weighted mean of
    the two (``_mean_row``), while row and column j become -inf.

    The top pair is the first maximum of ``M`` in row-major order, so tied
    pairs go to the smallest positions.  When more than one pair ties and
    ``tie`` is given, ``tie(M, p, q, live)`` names the pair to merge, with
    (p, q) the smallest top pair and ``live`` the live positions in order
    (``_key_tie``, or the walk of ``_assemble_by_scores``).

    Each row's best value and first column are kept (``rowmax``,
    ``rowarg``), so the top pair is read in O(m).  A merge changes only
    columns i and j of the other rows: a row whose best was i or j is
    scanned again, and every other row keeps its best unless the new
    entry in column i beats it (an equal value goes to the smaller
    column).  A merge costs O(m) plus O(m) for each row scanned again.
    """
    m = len(M)
    merges = []
    if m < 2 or (band is not None and size.max() >= band):
        return merges
    rowarg = M.argmax(axis=1)
    rowmax = M.max(axis=1)
    alive = np.ones(m, dtype=bool)
    for _ in range(m - 1):
        p = int(rowmax.argmax())
        i, j = p, int(rowarg[p])
        if tie is not None and np.count_nonzero(rowmax == rowmax[p]) > 2:
            i, j = sorted(int(v) for v in tie(M, i, j, np.flatnonzero(alive)))
        merges.append((i, j))
        mean = _mean_row(M, size, i, j)  # -inf at i and j
        size[i] += size[j]
        alive[j] = False
        M[i] = M[:, i] = mean
        M[j] = M[:, j] = -np.inf
        rowarg[i] = rowarg[j] = i
        stale = np.flatnonzero((rowarg == i) | (rowarg == j))
        up = mean > rowmax
        up |= (mean == rowmax) & (rowarg > i)
        np.copyto(rowmax, mean, where=up)
        rowarg[up] = i
        rows = M[stale]
        rowarg[stale] = rows.argmax(axis=1)
        rowmax[stale] = rows.max(axis=1)
        if band is not None and size[i] >= band:
            break
    return merges


def _mean_row(M, size, i, j):
    """Average-linkage row of clusters i and j merged (symmetric ``M``)."""
    return (size[i] * M[i] + size[j] * M[j]) / (size[i] + size[j])


def _key_tie(M, p, q, live):
    """
    Tie rule of ``_agglomerate`` under noise: the tied top pair that
    ``_tie_key`` picks over the live rows and columns of ``M``.
    """
    sub = M[np.ix_(live, live)]
    P, Q = np.nonzero(np.triu(sub == M[p, q], k=1))  # triu order
    t = _tie_key(sub, P, Q)
    return live[P[t]], live[Q[t]]


# ``closest`` of ``_assemble_by_scores`` for an exact source: tied top pairs
# go to the smallest positions
_FIRST = "first"


def _assemble_by_scores(ids, plans, M, closest, stage):
    """
    Plan over the ascending leaf ids ``ids`` (``plans`` their leaf plans)
    by average linkage on the symmetric scores ``M`` (``_agglomerate`` to
    one cluster): the expected score is strictly decreasing in the pair
    distance against an equidistant witness set, so the best-supported pair
    is a sibling pair.  A merged cluster scores with the size-weighted mean
    of its two parts' rows, so each decision draws on every leaf pair
    across two clusters.

    ``closest`` sets the tie rule of the top pairs.  With ``closest`` None
    they go to ``_tie_key`` (``_key_tie``): under noise a tie is a chance
    coincidence of counts, and a single direct answer is right with
    probability at most 1/2.  With ``_FIRST`` they go to the smallest
    positions; that is for a tree's counts (an exact source's, over any set
    S that holds ``ids``), on which any tie rule gives the same plan.
    There the pair (i, j) scores |S| - |S & clade(lca(i, j))|.  A top pair
    is then a sibling pair of the topology induced on ``ids``: were a
    member k nearer to i than j is, (i, k) would score higher, since j lies
    in clade(lca(i, j)) but not in clade(lca(i, k)).  Sibling clusters have
    equal rows of integer counts, so their mean is that row bit for bit and
    the merged cluster scores as one leaf.  So every merge is a sibling
    merge whichever tied pair goes first, and since each merged plan puts
    its smaller representative's part first, any tie rule gives the same
    plan.

    Any other ``closest(a, b, C)`` settles tied top pairs by the
    displacement walk from the smallest tied pair over its answers
    (``_find_sibling_pair``).  With an all-zero ``M`` every pair ties, so
    each merge is that walk: a BUILD-style assembly from closest-pair
    answers alone.
    """
    ids = np.asarray(ids, dtype=np.int64)
    plans = list(plans)
    M = np.array(M, dtype=np.float64)
    np.fill_diagonal(M, -np.inf)
    if closest is None:
        tie = _key_tie
    elif closest is _FIRST:
        tie = None
    else:
        def tie(M, p, q, live):
            a, b = _find_sibling_pair(int(ids[p]), int(ids[q]), ids[live],
                                      closest, stage)
            return np.searchsorted(ids, [a, b])
    for i, j in _agglomerate(M, np.ones(len(ids)), tie=tie):
        plans[i] = (plans[i], plans[j])
    return plans[0]


def _tie_key(sub, P, Q):
    """
    Index into the tied pairs (P[t], Q[t]) of the score matrix ``sub`` (rows
    in representative order, diagonal -inf) of the pair to merge: the one
    whose two rows differ least over the other clusters (siblings have
    equal expected rows), then the first in representative order.
    """
    finite = np.isfinite(sub)
    diff = np.where(finite[P] & finite[Q], np.abs(sub[P] - sub[Q]), 0.0)
    spread = diff.sum(axis=1)
    return int(np.argmin(spread))


def _order_buckets(lower, same, thr):
    """
    Ordered bucket partition of m candidates from three-way counts over the
    anchors: ``lower[x, y]`` answers put x in a lower bucket than y, and
    ``same[x, y]`` answers put x and y in one bucket.  Returns blocks of
    candidate indices, lowest bucket first.

    Bucket order from permanent noisy comparisons is noisy sorting without
    resampling, so no single comparison is trusted: the candidates are
    ranked by their aggregate margin (a Borda count, ties by index), and
    that ranking is cut into the contiguous blocks that maximize, summed
    over the pairs inside a block, same-bucket evidence minus order
    evidence plus the threshold (a dynamic program over cut points).  With
    exact counts every same-bucket pair gains and every other pair loses,
    so the blocks are the true buckets.
    """
    m = len(lower)
    borda = (lower - lower.T).sum(axis=1)
    order = np.argsort(-borda, kind="stable")
    gain = np.triu(same[np.ix_(order, order)] - lower[np.ix_(order, order)]
                   + thr, k=1)
    # inside[i, j]: summed gain over the pairs of the block order[i..j]
    inside = np.cumsum(np.cumsum(gain, axis=1)[::-1], axis=0)[::-1]
    best = np.zeros(m + 1)
    cut = np.zeros(m + 1, dtype=np.int64)
    for j in range(m):
        total = best[: j + 1] + inside[: j + 1, j]
        cut[j + 1] = int(np.argmax(total))
        best[j + 1] = total[cut[j + 1]]
    blocks = []
    j = m
    while j > 0:
        blocks.append(order[cut[j]:j].tolist())
        j = int(cut[j])
    return blocks[::-1]


def assemble_from_triples(closest_pair_fn, leaves, verify=True):
    """
    Build the unique tree consistent with a total closest-pair function on
    triples of the given leaf labels.  With ``verify`` (default), every
    triple of the finished tree is checked against the function and the
    first disagreement raises ReconstructionFailure with that witness.
    """
    leaves = sorted(leaves)
    if len(leaves) < 2:
        raise ValueError("need at least two leaves")
    m = len(leaves)

    def closest(a, b, C):
        codes = []
        for c in C:
            trip = (leaves[a], leaves[b], leaves[int(c)])
            pairs = [{trip[0], trip[1]}, {trip[0], trip[2]}, {trip[1], trip[2]}]
            win = set(closest_pair_fn(*trip))
            if win not in pairs:
                raise ReconstructionFailure(
                    "triple-assembly",
                    f"closest-pair function returned {win} for {trip}",
                    witness=trip,
                )
            codes.append(pairs.index(win))
        return np.array(codes, dtype=np.int64)

    plan = _assemble_by_scores(range(m), leaves, np.zeros((m, m)), closest,
                               "triple-assembly")
    tree = tree_from_topology(plan)
    if verify:
        trips = _position_triples(m)
        want = _plan_codes(plan, {lab: i for i, lab in enumerate(leaves)},
                           trips)
        for (i, j, k), code in zip(trips.tolist(), want.tolist()):
            a, b, c = leaves[i], leaves[j], leaves[k]
            got = tuple(sorted(closest_pair_fn(a, b, c)))
            want_pair = ((a, b), (a, c), (b, c))[code]
            if got != want_pair:
                raise ReconstructionFailure(
                    "triple-assembly",
                    f"answers admit no tree: triple ({a},{b},{c}) wants {got}, "
                    f"assembled tree implies {want_pair}",
                    witness=(a, b, c),
                )
    return tree


def _pair_lca_depths(plan, idx):
    """
    Matrix over the leaf positions of a nested plan that orders each pair's
    LCA as its depth does: minus the LCA's postorder merge rank (a node
    merges after every node below it).
    """
    m = len(idx)
    depth = np.zeros((m, m), dtype=np.int64)
    rank = itertools.count()

    def node(left, right):
        depth[np.ix_(left, right)] = depth[np.ix_(right, left)] = -next(rank)
        return left + right

    map_plan(plan, lambda x: [idx[x]], node)
    return depth


def _position_triples(m):
    """Every position triple i < j < k < m, in combinations order, as rows."""
    return np.array(list(itertools.combinations(range(m), 3)),
                    dtype=np.int64).reshape(-1, 3)


def _plan_codes(plan, idx, trips):
    """
    Closest-pair code of each position triple (i, j, k), i < j < k, in the
    rows of ``trips`` under a nested plan whose leaf ``x`` sits at position
    ``idx[x]``: 0 (i, j), 1 (i, k), 2 (j, k).  The closest pair is the one
    whose LCA merges first.
    """
    return _closest_codes(-_pair_lca_depths(plan, idx), *trips.T)


# ---------------------------------------------------------------------- #
# Plans (nested index tuples)                                             #
# ---------------------------------------------------------------------- #


def graft_plan(plan, target, subplan):
    """Replace the leaf ``target`` in ``plan`` with ``subplan``."""
    return map_plan(plan, lambda x: subplan if x == target else x,
                    lambda l, r: (l, r))


def _relabel(plan, names):
    """The plan with every leaf id ``x`` replaced by ``names[x]``."""
    return map_plan(plan, lambda x: names[int(x)], lambda l, r: (l, r))


# ---------------------------------------------------------------------- #
# The reconstruction driver                                               #
# ---------------------------------------------------------------------- #


class _Driver:
    """
    One reconstruction over ``oracle``.  ``n`` (default: the oracle's leaf
    count) scales the thresholds, the size band and the large-part cap;
    ``cfg`` defaults to ``ReconstructionConfig.for_oracle(oracle)``.  Every
    answer is read from ``oracle`` itself: an expectation oracle answers
    each triple with its most likely pair (the closest, under a validated
    model), computed on each read, so an expectation run keeps no answer
    store.  ``exact`` marks an exact source, whose completions assemble on
    the triple counts (``_exact_scores``) instead of outside witnesses.
    """

    def __init__(self, oracle, cfg=None, n=None):
        self.oracle = oracle
        self.n = n or oracle.n_leaves
        self.cfg = cfg or ReconstructionConfig.for_oracle(oracle)
        self.expansion = {}  # virtual id -> np.array of physical ids
        self.stats = RunStats(n=self.n, band=self.cfg.band(self.n))
        self._all = np.arange(oracle.n_leaves, dtype=np.int64)
        self.exact = _exact_source(oracle)
        self._scored = None  # (sorted ids, matrix) of the last _triple_scores

    def tree(self, plan):
        """Tree over leaf labels with the topology of a plan over leaf ids."""
        return tree_from_topology(_relabel(plan, self.oracle.labels))

    # -- expansion bookkeeping ------------------------------------------ #

    def exp_ids(self, members):
        chunks = []
        for v in members:
            arr = self.expansion.get(int(v))
            chunks.append(arr if arr is not None else np.array([v], dtype=np.int64))
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)

    def exp_size(self, members):
        return sum(
            len(self.expansion[int(v)]) if int(v) in self.expansion else 1
            for v in members
        )

    def outside(self, members):
        mask = np.ones(len(self._all), dtype=bool)
        mask[self.exp_ids(members)] = False
        return self._all[mask]

    def collapse(self, members, rep):
        self.expansion[int(rep)] = self.exp_ids(members)
        self.stats.collapses.append(self.exp_size([rep]))
        self.stats.events.append(("collapse", self.exp_size([rep])))

    # -- build-subtree --------------------------------------------------- #

    def _scores(self, S):
        """
        ``_triple_scores(self.oracle, S)`` for sorted leaf ids ``S``: a
        fresh pass asks every triple of ``S`` once, one layer at a time
        (``pass_slots``), and is kept as the last full pass.  When
        ``S`` lies inside the ids ``S0`` of the last full pass and the
        C(|S|,2) * |drop| rows over the dropped ids ``drop`` (``S0`` less
        ``S``) are fewer than C(|S|,3), the matrix is the kept one
        restricted to ``S`` minus the counts over ``drop``: integer counts,
        so bit-equal to a fresh pass, and every row it reads is already
        answered, so ``query_count`` does not move.
        """
        l = len(S)
        if self._scored is not None:
            S0, M0 = self._scored
            drop = np.setdiff1d(S0, S, assume_unique=True)
            if (len(drop) == len(S0) - l
                    and math.comb(l, 2) * len(drop) < math.comb(l, 3)):
                pos = np.searchsorted(S0, S)
                M = M0[np.ix_(pos, pos)]
                ii, jj = np.triu_indices(l, k=1)
                M[ii, jj] -= _pair_tallies(self.oracle, S[ii], S[jj], drop)[0]
                return M
        M = _triple_scores(self.oracle, S)
        self._scored = (S, M.copy())
        return M

    def _exact_scores(self, ids):
        """
        Symmetric score matrix over the sorted leaf ids ``ids`` from an
        exact source's triple counts.  When the ids of the kept pass cover
        ``ids`` it is that pass's matrix restricted to them, and no oracle
        row is read; otherwise it is a fresh ``_triple_scores`` pass over
        ``ids``, which does not replace the kept one, so ``_scores`` decides
        as before.  Either fixes the topology induced on ``ids`` (see
        ``_assemble_by_scores``).
        """
        if self._scored is not None and np.isin(ids, self._scored[0]).all():
            S0, M0 = self._scored
            pos = np.searchsorted(S0, ids)
            M = M0[np.ix_(pos, pos)]
        else:
            M = _triple_scores(self.oracle, ids)
        return np.maximum(M, M.T)

    def build_subtree(self, members):
        """
        Bottom-up sibling merging inside ``members`` until the largest
        cluster enters the size band; returns (leaf ids, plan).  Clusters
        are indexed by the position of their smallest member.  The first
        matrix is one pass over the member triples (see ``_triple_scores``);
        the pivot's, over members inside the first pass's, is derived from
        that pass's matrix when that reads fewer rows (see ``_scores``).
        The merging is ``_agglomerate`` on the symmetrised matrix with the
        band stop: a merged cluster scores with the size-weighted mean of
        its two parts' rows (average linkage, see ``_assemble_by_scores``),
        and ties go to the smallest positions, under every source.

        Under a tree's answers each merge is a sibling merge, and sibling
        clusters p and q have equal rows of integer counts, so the mean is
        the row of either part bit for bit: the counts of the experiments
        (rep_p, rep_t, x) over the members x outside both parts, as the
        paper's representative rows give them.
        """
        lo_band, _ = self.cfg.band(self.n)
        S = np.array(sorted(int(v) for v in members), dtype=np.int64)
        M = self._scores(S)
        plans = S.tolist()
        leaves = [[v] for v in plans]
        size = np.ones(len(S))
        alive = np.ones(len(S), dtype=bool)
        for i, j in _agglomerate(np.maximum(M, M.T), size, band=lo_band):
            plans[i] = (plans[i], plans[j])
            leaves[i] += leaves[j]
            alive[j] = False
        winner = max(np.flatnonzero(alive), key=lambda t: (size[t], -t))
        leaf_ids = sorted(leaves[winner])
        self.stats.bases.append(len(leaf_ids))
        self.stats.events.append(("base", len(leaf_ids)))
        return leaf_ids, plans[winner]

    # -- partition -------------------------------------------------------- #

    def partition(self, base, pivot, candidates):
        """
        Split candidates into below / same bucket / above the pivot.  Each
        experiment (x, a, b), a in the base and b in the pivot, counts for
        one of the three: answer (x, a) says below, (a, b) above, and (x, b)
        same bucket.  The counts are ``_pair_tallies`` of the pairs (x, a)
        over the pivot witnesses, summed per candidate.  A candidate goes
        below or above only when that count beats both others by more than
        the threshold.
        """
        base = np.asarray(sorted(base), dtype=np.int64)
        pivot = np.asarray(sorted(pivot), dtype=np.int64)
        cands = np.array(sorted(int(x) for x in candidates), dtype=np.int64)
        if not len(cands):
            return [], [], []
        # pairs candidate-major, so each candidate's pairs are contiguous
        tally = _pair_tallies(self.oracle, np.repeat(cands, len(base)),
                              np.tile(base, len(cands)), pivot)
        xv, zv, yv = tally.reshape(3, len(cands), len(base)).sum(axis=2)
        thr = self.cfg.threshold(self.n)
        below = xv - np.maximum(yv, zv) > thr
        above = ~below & (yv - np.maximum(xv, zv) > thr)
        same = ~below & ~above
        return cands[below].tolist(), cands[same].tolist(), cands[above].tolist()

    # -- completions ------------------------------------------------------ #

    def completion_induced(self, members, stage="completion-induced"):
        """
        Resolve the induced topology on ``members``: from the triple counts
        for an exact source, which need no other leaf, and under noise from
        the pair counts over the leaves outside ``members``, of which there
        must be one.
        """
        members = sorted(int(v) for v in members)
        if len(members) == 1:
            return members[0]
        if len(members) == 2:
            return (members[0], members[1])
        ids = np.asarray(members, dtype=np.int64)
        if self.exact:
            M = self._exact_scores(ids)
        else:
            xs = self.outside(members)
            if len(xs) == 0:
                raise ReconstructionFailure(stage,
                                            "no leaves outside the target set")
            ii, jj = np.triu_indices(len(ids), k=1)
            M = np.zeros((len(ids), len(ids)))
            M[ii, jj] = M[jj, ii] = _pair_tallies(self.oracle, ids[ii],
                                                  ids[jj], xs)[0]
        return _assemble_by_scores(members, list(members), M,
                                   _FIRST if self.exact else None, stage)

    def completion_quotient(self, inside, candidates):
        """
        Resolve the quotient structure above the subtree on ``inside``:
        order the candidates' buckets from the three-way counts of the
        experiments (x, y, anchor) by rank aggregation (``_order_buckets``),
        resolve each bucket's interior, and return (plan over candidates
        plus the inside representative, rep).  An exact source's bucket
        interiors assemble on the triple counts (``_exact_scores``); under
        noise, on the same-bucket counts (the answers (x, y) over the
        anchors, already asked for the order).
        """
        inside = sorted(int(v) for v in inside)
        anchors = np.asarray(inside, dtype=np.int64)
        rep = inside[0]
        cands = sorted(int(x) for x in candidates)
        m = len(cands)
        if m == 0:
            return rep, rep
        if m == 1:
            return (rep, cands[0]), rep

        # three-way counts per candidate pair (x, y) over anchors a:
        # lower[x, y] answers (x, a), i.e. x in a lower bucket than y, and
        # same[x, y] answers (x, y), i.e. x and y share a bucket
        ii, jj = np.triu_indices(m, k=1)
        ci = np.array(cands, dtype=np.int64)
        same_v, x_low, y_low = _pair_tallies(self.oracle, ci[ii], ci[jj],
                                             anchors)
        lower = np.zeros((m, m))
        lower[ii, jj] = x_low
        lower[jj, ii] = y_low
        same = np.zeros((m, m))
        same[ii, jj] = same[jj, ii] = same_v

        plan = rep
        for block in _order_buckets(lower, same, self.cfg.threshold(self.n)):
            pos = sorted(block)
            bucket = [cands[v] for v in pos]
            if len(bucket) == 1:
                bplan = bucket[0]
            else:
                M = (self._exact_scores(np.array(bucket, dtype=np.int64))
                     if self.exact else same[np.ix_(pos, pos)])
                bplan = _assemble_by_scores(bucket, list(bucket), M,
                                            _FIRST if self.exact else None,
                                            "within-bucket")
            plan = (plan, bplan)
        return plan, rep

    # -- small-n exhaustive ------------------------------------------------ #

    def small_exhaustive(self, members):
        """
        Maximum-consistency search over all topologies on a handful of
        leaves, scored against the direct answers of their triples.  The
        direct answers are tried first: when they are mutually consistent
        the assembled tree agrees with every triple and no enumeration can
        beat it.
        """
        members = sorted(int(v) for v in members)
        m = len(members)
        trips = _position_triples(m)
        ids = np.array(members, dtype=np.int64)
        direct = self.oracle.answers
        answers = direct(ids[trips[:, 0]], ids[trips[:, 1]], ids[trips[:, 2]])

        # all-tie scores: every merge walks on the direct answers
        try:
            plan = _assemble_by_scores(members, members, np.zeros((m, m)),
                                       direct, "small-direct")
            idx = {v: i for i, v in enumerate(members)}
            if (_plan_codes(plan, idx, trips) == answers).all():
                return plan
        except ReconstructionFailure:
            pass
        plans, codes = _topology_tables(m)
        scores = np.sum(codes == answers.astype(np.int8), axis=1)
        best = int(np.argmax(scores))  # enumeration order is deterministic
        return _relabel(plans[best], members)

    # -- the recursion ------------------------------------------------------ #

    def resolve(self, universe):
        V = sorted(int(v) for v in universe)
        if len(V) == 1:
            self.stats.events.append(("direct", 1))
            return V[0]
        if len(V) == 2:
            self.stats.events.append(("direct", 2))
            return (V[0], V[1])
        xs = self.outside(V)
        large_cap = self.n * self.cfg.large_fraction
        if len(xs) == 0 and len(V) <= self.cfg.n0:
            self.stats.stages.append("small-exhaustive")
            self.stats.events.append(("direct", len(V)))
            return self.small_exhaustive(V)
        if len(xs) > 0 and self.exp_size(V) <= large_cap:
            self.stats.stages.append("completion-induced")
            self.stats.events.append(("direct", len(V)))
            return self.completion_induced(V)

        self.stats.stages.append("peel")
        base_set, base_plan = self.build_subtree(V)
        W = list(base_set)
        W_plan = base_plan
        base0 = list(base_set)
        R = sorted(set(V) - set(W))
        pending = []

        result = None
        while True:
            if not R:
                result = W_plan
                break
            if self.exp_size(R) <= large_cap:
                qplan, rep = self.completion_quotient(W, R)
                result = graft_plan(qplan, rep, W_plan)
                break
            P_set, P_plan = self.build_subtree(R)
            P1, P2, P3 = self.partition(base0, P_set, sorted(set(R) - set(P_set)))
            assert sorted(P1 + P2 + P3) == sorted(set(R) - set(P_set))
            e1, e2, e3 = (self.exp_size(p) for p in (P1, P2, P3))
            n_large = sum(e > large_cap for e in (e1, e2, e3))
            if n_large >= 2:
                raise ReconstructionFailure(
                    "partition", f"two large parts ({e1}, {e2}, {e3})"
                )
            if (not P1 and not P2) or e3 > large_cap:
                # the pivot swallowed an initial interval of buckets, or
                # the part above it is large: grow the lower part
                W = sorted(set(W) | set(P1) | set(P2) | set(P_set))
                W_plan = self.completion_induced(W, stage="grow-lower")
                R = P3
                continue
            if e1 > large_cap:
                upper_cands = sorted(set(P2) | set(P_set) | set(P3))
                inside = sorted(set(W) | set(P1))
                qplan, rep = self.completion_quotient(inside, upper_cands)
                pending.append((qplan, rep))
                R = P1
                continue
            # pivot bucket resolution (P2 large, or nothing large)
            low_set = sorted(set(W) | set(P1))
            low_plan = (
                W_plan if not P1
                else self.completion_induced(low_set, stage="lower-interval")
            )
            if P2:
                rep_p = min(P_set)
                self.collapse(P_set, rep_p)
                sub_universe = sorted(set(P2) | {rep_p})
                sub_plan = self.resolve(sub_universe)
                bucket_plan = graft_plan(sub_plan, rep_p, P_plan)
            else:
                bucket_plan = P_plan
            mid_plan = (low_plan, bucket_plan)
            if P3:
                inside = sorted(set(low_set) | set(P2) | set(P_set))
                qplan, rep = self.completion_quotient(inside, P3)
                result = graft_plan(qplan, rep, mid_plan)
            else:
                result = mid_plan
            break

        for qplan, rep in reversed(pending):
            result = graft_plan(qplan, rep, result)
        return result


# ---------------------------------------------------------------------- #
# Public entry points                                                     #
# ---------------------------------------------------------------------- #


def build_subtree(oracle, leaves, n=None, cfg=None):
    """
    Find a subtree of the topology induced on ``leaves`` (labels) whose
    size lies in the configured band; returns a Tree carrying its merge
    topology.
    """
    drv = _Driver(oracle, cfg, n)
    _, plan = drv.build_subtree([oracle.index_of[lab] for lab in leaves])
    return drv.tree(plan)


def partition(oracle, base_leaves, pivot_leaves, candidates, n=None, cfg=None):
    """Split candidate labels into (below, same-bucket, above) the pivot."""
    drv = _Driver(oracle, cfg, n)
    conv = lambda ls: [oracle.index_of[x] for x in ls]
    parts = drv.partition(conv(base_leaves), conv(pivot_leaves), conv(candidates))
    return tuple([oracle.labels[i] for i in ids] for ids in parts)


def completion_induced(oracle, leaves, n=None, cfg=None):
    """Resolve the induced topology on ``leaves`` from outside scores."""
    drv = _Driver(oracle, cfg, n)
    return drv.tree(drv.completion_induced([oracle.index_of[x] for x in leaves]))


def completion_quotient(oracle, subtree_leaves, n=None, cfg=None):
    """
    Resolve the quotient of the whole tree with respect to the subtree on
    ``subtree_leaves``: the collapsed part appears as its representative
    (smallest) leaf label.
    """
    drv = _Driver(oracle, cfg, n)
    inside = [oracle.index_of[x] for x in subtree_leaves]
    cands = sorted(set(range(oracle.n_leaves)) - set(inside))
    plan, _rep = drv.completion_quotient(inside, cands)
    return drv.tree(plan)


def reconstruct_topology(oracle, cfg=None, return_stats=False):
    """
    Reconstruct the full leaf-labeled topology behind ``oracle``.

    Returns a Tree (heights set proportionally to level depth; only the
    topology is meaningful).  Its decisions aggregate counts and never
    test the answers for consistency.  Raises ReconstructionFailure,
    naming the stage, when two parts of a partition are too large to
    coexist, or when a noisy completion is left with no leaf outside its
    members.
    Raises ValueError for fewer than two leaves.
    """
    if oracle.n_leaves < 2:
        raise ValueError("need at least two leaves")
    drv = _Driver(oracle, cfg)
    tree = drv.tree(drv.resolve(range(oracle.n_leaves)))
    if return_stats:
        return tree, drv.stats
    return tree


@functools.lru_cache(maxsize=4)
def _topology_tables(m):
    """
    All leaf-labeled rooted binary topologies over positions 0..m-1, plus
    one row per topology of the closest-pair codes of the position triples
    i<j<k in combinations order (0:(i,j), 1:(i,k), 2:(j,k); the row
    ``_plan_codes`` gives the topology).  Cached per size; feasible up to
    the small-n cutoff (m = 8 gives 135135 topologies).
    """
    plans = list(_all_plans(list(range(m))))
    P = len(plans)
    depth = bytearray(m * m * P)  # [a, b, plan]: depth of lca(a, b)

    def fill(row, node, d=0):
        if not isinstance(node, tuple):
            return [node]
        left = fill(row, node[0], d + 1)
        right = fill(row, node[1], d + 1)
        for a in left:
            for b in right:
                depth[(a * m + b) * P + row] = depth[(b * m + a) * P + row] = d
        return left + right

    for row, plan in enumerate(plans):
        fill(row, plan)

    # the closest pair has the deepest LCA; blocks of plans bound the
    # temporaries of _closest_codes
    neg_depth = -np.frombuffer(depth, dtype=np.int8).reshape(m, m, P)
    trips = _position_triples(m)
    codes = np.empty((P, len(trips)), dtype=np.int8)
    block = 1 << 14
    for lo in range(0, P, block):
        codes[lo:lo + block] = _closest_codes(neg_depth[:, :, lo:lo + block],
                                              *trips.T).T
    return plans, codes


def _all_plans(members):
    """Every leaf-labeled rooted binary topology over ``members``."""
    if len(members) == 1:
        yield members[0]
        return
    first, rest = members[0], members[1:]

    def insert_everywhere(plan, leaf):
        yield (plan, leaf)
        if isinstance(plan, tuple):
            for i in (0, 1):
                for sub in insert_everywhere(plan[i], leaf):
                    yield (sub, plan[1]) if i == 0 else (plan[0], sub)

    def rec(built, remaining):
        if not remaining:
            yield built
            return
        leaf, rest2 = remaining[0], remaining[1:]
        for p in insert_everywhere(built, leaf):
            yield from rec(p, rest2)

    yield from rec(first, rest)
