import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripletree import (
    CustomModel,
    ExpectationOracle,
    NoiselessModel,
    OracleState,
    ReconstructionConfig,
    ReconstructionFailure,
    assemble_from_triples,
    bucket_partition,
    build_subtree,
    closest_pair,
    compare_sums,
    completion_induced,
    completion_quotient,
    induced_topology,
    partition,
    quotient,
    reconstruct_topology,
    sibling_scores,
    to_newick,
    topology_equal,
    tree_from_topology,
)
import tripletree.noise_oracle as noise_oracle
import tripletree.topology as topology_mod
from tripletree.noise_oracle import _OracleBase
from tripletree.topology import (
    _FIRST,
    _Driver,
    _agglomerate,
    _find_sibling_pair,
    _key_tie,
    _mean_row,
    _pair_tallies,
    _plan_codes,
    _position_triples,
    _relabel,
    _tie_key,
    _topology_tables,
    _triple_scores,
    _wins_sum_pairs,
)

from conftest import random_tree


def _subtree_leaf_sets(tree):
    return {
        frozenset(tree.subtree_leaf_labels(v)) for v in range(tree.n_nodes)
    }


# ---------------------------------------------------------------------- #
# compare_sums                                                            #
# ---------------------------------------------------------------------- #


def test_compare_sums_tie_on_zero_margin():
    v = compare_sums(100, 100, 100)
    assert v.outcome == "tie" and v.margin == 0.0


def test_compare_sums_threshold_value():
    cfg = ReconstructionConfig(c_thr=24.0)
    v = compare_sums(700, 100, 100, cfg)
    assert v.threshold == pytest.approx(24 * math.sqrt(100 * math.log(100)))
    assert v.threshold == pytest.approx(515.03, abs=0.01)
    assert v.outcome == "left"  # margin 600 clears the threshold


def test_compare_sums_symmetry():
    cfg = ReconstructionConfig(c_thr=1.0)
    a = compare_sums(500, 100, 64, cfg)
    b = compare_sums(100, 500, 64, cfg)
    assert a.outcome == "left" and b.outcome == "right"
    assert a.margin == -b.margin


# ---------------------------------------------------------------------- #
# sibling_scores                                                          #
# ---------------------------------------------------------------------- #


def test_sibling_scores_noiseless_full_count():
    t = random_tree(16, seed=1)
    o = OracleState(t, "noiseless", seed=0)
    labs = t.leaf_labels
    forest = [[lab] for lab in labs]
    reps, M = sibling_scores(o, forest, labs, n=16)
    assert reps == labs  # singleton parts: representative is the leaf itself
    # a true sibling leaf pair scores |S| - 2 exactly
    cherry = next(
        tuple(sorted(t.subtree_leaf_labels(v)))
        for v in range(t.n_nodes)
        if not t.is_leaf(v) and len(t.subtree_leaf_labels(v)) == 2
    )
    i, j = labs.index(cherry[0]), labs.index(cherry[1])
    assert M[i, j] == len(labs) - 2
    assert M.max() == len(labs) - 2


def test_sibling_scores_expectation_ranks_closest_pair_top():
    t = random_tree(12, seed=4)
    eo = ExpectationOracle(t, "homogeneous")
    labs = t.leaf_labels
    reps, M = sibling_scores(eo, [[lab] for lab in labs], labs, n=12)
    iu = np.triu_indices(len(labs), k=1)
    best = int(np.argmax(M[iu]))
    a, b = labs[iu[0][best]], labs[iu[1][best]]
    dmin = min(
        t.leaf_distance(x, y) for x, y in itertools.combinations(labs, 2)
    )
    assert t.leaf_distance(a, b) == pytest.approx(dmin)


def test_sibling_scores_representatives_are_smallest_labels():
    t = random_tree(12, seed=8)
    o = OracleState(t, "noiseless", seed=0)
    labs = t.leaf_labels
    forest = [labs[0:3], labs[3:5], labs[5:6], labs[6:12]]
    reps, M = sibling_scores(o, forest, labs, n=12)
    assert reps == [labs[0], labs[3], labs[5], labs[6]]
    assert np.array_equal(M, M.T)


def test_sibling_scores_rejects_small_ambient():
    t = random_tree(8, seed=0)
    o = OracleState(t, "noiseless", seed=0)
    labs = t.leaf_labels
    with pytest.raises(ValueError):
        sibling_scores(o, [[labs[0]], [labs[1]]], labs, n=1000)


# ---------------------------------------------------------------------- #
# average-linkage agglomeration                                           #
# ---------------------------------------------------------------------- #


def _reference_band_loop(M, sizes, lo_band):
    """
    The merge loop ``_Driver.build_subtree`` ran before ``_agglomerate``:
    the first maximum of an upper-triangular matrix in row-major order
    merges, and the merged row is written back into that triangle, until a
    merged cluster reaches ``lo_band`` or one cluster is left.  Returns
    (plans, sizes, merges) over positions.
    """
    l = len(M)
    M = np.where(np.triu(np.ones((l, l), dtype=bool), k=1), M, -np.inf)
    plans = list(range(l))
    sizes = list(sizes)
    alive = np.ones(l, dtype=bool)
    merges = []
    n_alive = l
    while n_alive > 1 and max(sizes) < lo_band:
        p, q = divmod(int(np.argmax(M)), l)
        rows = np.maximum(M[[p, q]], M[:, [p, q]].T)
        mean = _mean_row(rows, [sizes[p], sizes[q]], 0, 1)
        merges.append((p, q))
        plans[p] = (plans[p], plans[q])
        sizes[p] += sizes[q]
        alive[q] = False
        M[q, :] = -np.inf
        M[:, q] = -np.inf
        n_alive -= 1
        if n_alive == 1 or sizes[p] >= lo_band:
            break
        ot = np.flatnonzero(alive)
        ot = ot[ot != p]
        M[np.minimum(ot, p), np.maximum(ot, p)] = mean[ot]
    return plans, sizes, merges


def _reference_assembly_loop(M, sizes, rule, band=None, closest=None):
    """
    The merge loop ``_assemble_by_scores`` ran before ``_agglomerate``,
    over positions: every merge rebuilds the live submatrix and its triu
    indices, and tied top pairs go to the smallest pair (``rule`` "first"),
    to ``_tie_key`` ("key") or to the walk over ``closest`` ("walk").  With
    ``band``, it stops once a merged cluster holds ``band`` members.
    Returns (plans, sizes, merges) over positions.
    """
    M = np.array(M, dtype=np.float64)
    np.fill_diagonal(M, -np.inf)
    size = np.array(sizes, dtype=np.float64)
    plans = list(range(len(M)))
    reps = list(range(len(M)))
    merges = []
    while len(reps) > 1 and (band is None or size.max() < band):
        live = np.array(reps, dtype=np.int64)
        sub = M[np.ix_(live, live)]
        iu = np.triu_indices(len(reps), k=1)
        vals = sub[iu]
        tied = np.flatnonzero(vals == np.max(vals))
        t = tied[0]
        if len(tied) > 1 and rule == "key":
            t = tied[_tie_key(sub, iu[0][tied], iu[1][tied])]
        a, b = reps[iu[0][t]], reps[iu[1][t]]
        if len(tied) > 1 and rule == "walk":
            a, b = _find_sibling_pair(a, b, reps, closest, "walk")
        i, j = min(a, b), max(a, b)
        M[i, :] = M[:, i] = _mean_row(M, size, i, j)
        M[i, i] = -np.inf
        size[i] += size[j]
        merges.append((i, j))
        plans[i] = (plans[i], plans[j])
        reps.remove(j)
    return plans, size.tolist(), merges


def _random_closest(m, rng):
    """
    A closest-pair function over positions 0..m-1 that names a random pair
    of each triple (the walk may cycle on it).
    """
    win = {trip: rng.integers(3) for trip in itertools.combinations(range(m), 3)}

    def closest(a, b, C):
        codes = []
        for c in C.tolist():
            x, y, z = sorted((a, b, c))
            pair = ((x, y), (x, z), (y, z))[win[x, y, z]]
            codes.append(0 if set(pair) == {a, b} else 1 if a in pair else 2)
        return np.array(codes, dtype=np.int64)

    return closest


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(2, 60),
    values=st.integers(2, 4),
    seed=st.integers(0, 2**16),
    rule=st.sampled_from(["first", "key", "walk"]),
    banded=st.booleans(),
)
def test_agglomerate_matches_the_reference_loops(m, values, seed, rule, banded):
    # integer scores from 2-4 values tie often; clusters start at sizes 1-3,
    # so merged rows are means of unequal weights
    rng = np.random.default_rng(seed)
    M = np.triu(rng.integers(0, values, size=(m, m)), k=1).astype(np.float64)
    M += M.T
    np.fill_diagonal(M, -np.inf)
    sizes = rng.integers(1, 4, size=m).tolist()
    band = int(rng.integers(2, 2 * m + 2)) if banded else None
    closest = _random_closest(m, rng) if rule == "walk" else None

    def run(loop):
        try:
            return loop()
        except ReconstructionFailure as exc:
            return exc.stage, exc.detail, exc.witness

    def new():
        tie = {"first": None, "key": _key_tie,
               "walk": lambda M, p, q, live: _find_sibling_pair(
                   p, q, live, closest, "walk")}[rule]
        size = np.array(sizes, dtype=np.float64)
        merges = _agglomerate(M.copy(), size, band=band, tie=tie)
        plans = list(range(m))
        for i, j in merges:
            plans[i] = (plans[i], plans[j])
        return plans, size.tolist(), merges

    got = run(new)
    assert got == run(lambda: _reference_assembly_loop(M, sizes, rule, band,
                                                       closest))
    if rule == "first":
        assert got == _reference_band_loop(M, sizes,
                                           band if banded else sum(sizes) + 1)


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(2, 40),
    values=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    rule=st.sampled_from(["first", "key", "walk"]),
)
def test_assemble_by_scores_wires_each_tie_rule(m, values, seed, rule):
    # over ascending leaf ids: ``_FIRST`` takes the smallest tied pair, None
    # keys ties by ``_tie_key``, and a closest-pair function walks on ids
    rng = np.random.default_rng(seed)
    M = np.triu(rng.integers(0, values, size=(m, m)), k=1).astype(np.float64)
    M += M.T
    ids = np.sort(rng.choice(10 * m, size=m, replace=False))
    walk = _random_closest(m, rng)

    def closest(a, b, C):
        return walk(*np.searchsorted(ids, [a, b]).tolist(),
                    np.searchsorted(ids, C))

    arg = {"first": _FIRST, "key": None, "walk": closest}[rule]
    names = [f"p{v}" for v in ids]
    try:
        got = topology_mod._assemble_by_scores(ids.tolist(), names, M, arg,
                                               "walk")
    except ReconstructionFailure as exc:
        got = exc.stage, exc.witness
    try:
        want = _relabel(_reference_assembly_loop(M, [1] * m, rule,
                                                 closest=walk)[0][0], names)
    except ReconstructionFailure as exc:
        want = exc.stage, tuple(int(ids[x]) for x in exc.witness)
    assert got == want


# ---------------------------------------------------------------------- #
# build_subtree                                                           #
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("n,seed", [(16, 0), (16, 3), (48, 1), (64, 2), (64, 9)])
def test_build_subtree_noiseless_finds_true_subtree(n, seed):
    t = random_tree(n, seed=seed)
    o = OracleState(t, "noiseless", seed=seed)
    sub = build_subtree(o, t.leaf_labels, n=n)
    lo = math.ceil(math.sqrt(n))
    assert lo <= sub.n_leaves <= 2 * lo
    assert frozenset(sub.leaf_labels) in _subtree_leaf_sets(t)
    # the merge history resolves the internal topology too
    assert topology_equal(sub, induced_topology(t, sub.leaf_labels))


def test_build_subtree_band_for_16():
    t = random_tree(16, seed=5)
    o = OracleState(t, "noiseless", seed=0)
    sub = build_subtree(o, t.leaf_labels, n=16)
    assert 4 <= sub.n_leaves <= 8


def test_build_subtree_on_leaf_subset():
    t = random_tree(48, seed=7)
    o = OracleState(t, "noiseless", seed=0)
    subset = t.leaf_labels[: 40]
    sub = build_subtree(o, subset, n=48)
    induced = induced_topology(t, subset)
    assert frozenset(sub.leaf_labels) in _subtree_leaf_sets(induced)


def _reference_build_subtree(drv, members):
    """
    ``_Driver.build_subtree`` scored from scratch: on an exact source each
    merge re-scores the merged cluster's representative against every
    member outside both parts (the paper's representative rows), under
    noise the merged row is the size-weighted mean, and tied pairs go to
    the smallest representatives by a scan.
    """
    oracle = drv.oracle
    lo_band, _ = drv.cfg.band(drv.n)
    S = np.array(sorted(int(v) for v in members), dtype=np.int64)
    l = len(S)
    part_of = np.full(oracle.n_leaves, -1, dtype=np.int64)
    part_of[S] = np.arange(l)
    reps = S.tolist()
    plans = S.tolist()
    sizes = [1] * l
    alive = [True] * l
    M = np.full((l, l), -np.inf)
    ii, jj = np.triu_indices(l, k=1)
    M[ii, jj] = _wins_sum_pairs(oracle, S[ii], S[jj], S, part_of, ii, jj)
    n_alive = l
    while n_alive > 1 and max(z for z, a in zip(sizes, alive) if a) < lo_band:
        p, q = divmod(int(np.argmax(M)), l)
        tied = np.argwhere(M == M[p, q])
        if len(tied) > 1:
            key = min((min(reps[i], reps[j]), max(reps[i], reps[j]), i, j)
                      for i, j in tied)
            p, q = key[2], key[3]
        if not drv.exact:
            mean = _mean_row(np.maximum(M, M.T), sizes, p, q)
        plans[p] = (plans[min(p, q)], plans[max(p, q)])
        reps[p] = min(reps[p], reps[q])
        sizes[p] += sizes[q]
        alive[q] = False
        part_of[part_of == q] = p
        M[q, :] = M[:, q] = -np.inf
        n_alive -= 1
        if n_alive == 1 or sizes[p] >= lo_band:
            break
        others = np.array([t for t in range(l) if alive[t] and t != p])
        if drv.exact:
            vals = _wins_sum_pairs(
                oracle, np.full(len(others), reps[p]),
                np.array([reps[t] for t in others]), S, part_of,
                np.full(len(others), p), others)
        else:
            vals = mean[others]
        M[p, :] = M[:, p] = -np.inf
        for t, v in zip(others, vals):
            M[min(p, t), max(p, t)] = v
    winner = max((sizes[t], -reps[t], t) for t in range(l) if alive[t])[2]
    return [int(v) for v in S[part_of[S] == winner]], plans[winner]


def _oracle(kind, tree, seed):
    if kind == "expectation":
        return ExpectationOracle(tree, "homogeneous")
    return OracleState(tree, kind, seed=seed)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["noiseless", "homogeneous"]),
    n=st.integers(12, 80),
    seed=st.integers(0, 2**16),
    keep=st.floats(0.5, 1.0),
    band=st.floats(0.0, 1.0),
)
@example(kind="noiseless", n=63, seed=0, keep=1.0, band=1.0)  # many merges
def test_build_subtree_incremental_scores_match_rescoring(kind, n, seed, keep,
                                                          band):
    # the incremental scores must make every decision and ask every
    # question that scoring each merge from scratch does; on a tree's
    # answers, average linkage must merge as representative rows do
    t = random_tree(n, w=0.2 / n, seed=seed)
    rng = np.random.default_rng(seed)
    members = rng.choice(n, size=max(3, int(keep * n)), replace=False)
    lo = 2 + int(band * (len(members) - 2))
    runs = []
    for build in (lambda d: d.build_subtree(members),
                  lambda d: _reference_build_subtree(d, members)):
        o = _oracle(kind, t, seed)
        cfg = ReconstructionConfig.for_oracle(o, subtree_band=(lo, 2 * lo))
        runs.append((build(_Driver(o, cfg)), o.query_count))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("l", [0, 1, 2, 3, 4, 7, 40])
@pytest.mark.parametrize("rows", [1, 2, 5, 37, 1 << 21])
def test_triple_blocks_ask_each_triple_once_in_rank_order(l, rows):
    # the blocks of ``pass_slots`` (runs of whole b-rows of a layer c, at
    # most ``_BLOCK_ROWS`` rows unless one b-row is longer) answer every
    # position triple once, in rank order, as a row-wise ``codes`` does
    t = random_tree(40, w=0.005, seed=l)
    S = np.sort(np.random.default_rng(rows).choice(40, size=l, replace=False))
    o = OracleState(t, "homogeneous", seed=rows)
    with mock.patch.object(noise_oracle, "_BLOCK_ROWS", rows):
        blocks = list(o.pass_slots(S))
    trips, slots = [], []
    for c, b0, b1, slot in blocks:
        assert 1 <= b0 < b1 <= c
        assert len(slot) <= rows or b1 - b0 == 1
        run = [(a, b, c) for b in range(b0, b1) for a in range(b)]
        assert len(slot) == len(run)
        trips += run
        slots += slot.tolist()
    assert trips == sorted(itertools.combinations(range(l), 3),
                           key=lambda t: (t[2], t[1], t[0]))
    ranks = [math.comb(S[c], 3) + math.comb(S[b], 2) + S[a] for a, b, c in trips]
    assert all(x < y for x, y in zip(ranks, ranks[1:]))
    assert o.query_count == len(trips)
    ref = OracleState(t, "homogeneous", seed=rows)
    T = S[np.array(trips, dtype=np.int64).reshape(-1, 3)]
    np.testing.assert_array_equal(slots, ref.codes(T[:, 0], T[:, 1], T[:, 2]))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["noiseless", "homogeneous"]),
    n=st.integers(12, 80),
    seed=st.integers(0, 2**16),
    keep=st.floats(0.3, 1.0),
    sub=st.floats(0.0, 1.0),
)
def test_scores_on_a_subset_match_a_fresh_pass(kind, n, seed, keep, sub):
    # the driver's matrix over a subset of the last pass's leaves, derived
    # or read afresh as its row count decides, equals a pass from scratch
    # bit for bit and asks nothing new
    t = random_tree(n, w=0.2 / n, seed=seed)
    rng = np.random.default_rng(seed)
    S0 = np.sort(rng.choice(n, size=max(3, int(keep * n)), replace=False))
    l = max(3, int(len(S0) * (0.6 + 0.4 * sub)))
    S = np.sort(rng.choice(S0, size=l, replace=False))
    o = OracleState(t, kind, seed=seed)
    drv = _Driver(o)
    drv._scores(S0)
    kept = drv._scored
    asked = o.query_count
    got = drv._scores(S)
    assert o.query_count == asked
    derived = math.comb(l, 2) * (len(S0) - l) < math.comb(l, 3)
    assert (drv._scored is kept) == derived
    ref = OracleState(t, kind, seed=seed)
    np.testing.assert_array_equal(got, _triple_scores(ref, S))
    # and equals the pair-by-pair sums over every other member
    part_of = np.full(n, -1, dtype=np.int64)
    part_of[S] = np.arange(l)
    ii, jj = np.triu_indices(l, k=1)
    want = np.full((l, l), -np.inf)
    want[ii, jj] = _wins_sum_pairs(ref, S[ii], S[jj], S, part_of, ii, jj)
    np.testing.assert_array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["noiseless", "homogeneous"]),
    n=st.integers(4, 40),
    seed=st.integers(0, 2**16),
    n_pairs=st.integers(1, 30),
    n_wit=st.integers(0, 12),
    chunk=st.sampled_from([1, 7, 40, 1 << 21]),
)
def test_pair_tallies_count_per_row_query_answers(kind, n, seed, n_pairs,
                                                  n_wit, chunk):
    # witnesses disjoint from the pairs; pairs may repeat and share leaves;
    # small chunks split the pairs over many blocks
    t = random_tree(n, w=0.2 / n, seed=seed)
    rng = np.random.default_rng(seed)
    leaves = rng.permutation(n)
    W = np.sort(leaves[: min(n_wit, n - 2)])
    pool = leaves[len(W):]
    XY = np.array([rng.choice(pool, size=2, replace=False)
                   for _ in range(n_pairs)], dtype=np.int64)
    o, ref = OracleState(t, kind, seed=seed), OracleState(t, kind, seed=seed)
    with mock.patch.object(topology_mod, "_CHUNK", chunk):
        got = _pair_tallies(o, XY[:, 0], XY[:, 1], W)
    lab = t.leaf_labels
    want = np.zeros((3, n_pairs), dtype=np.int64)
    for p, (x, y) in enumerate(XY):
        for w in W:
            pair = set(ref.query(lab[x], lab[y], lab[w]))
            want[[{lab[x], lab[y]}, {lab[x], lab[w]},
                  {lab[y], lab[w]}].index(pair), p] += 1
    np.testing.assert_array_equal(got, want)
    assert o.query_count == ref.query_count


# ---------------------------------------------------------------------- #
# partition                                                               #
# ---------------------------------------------------------------------- #


def _ground_truth_parts(tree, base_root, pivot_leaves, candidates):
    part = bucket_partition(tree, base_root)
    pivot_buckets = {part.index_of[x] for x in pivot_leaves}
    lo, hi = min(pivot_buckets), max(pivot_buckets)
    below, same, above = [], [], []
    for x in candidates:
        i = part.index_of[x]
        if i < lo:
            below.append(x)
        elif i > hi:
            above.append(x)
        else:
            same.append(x)
    return below, same, above


@pytest.mark.parametrize("seed", range(6))
def test_partition_matches_ground_truth_noiseless(seed):
    n = 48
    t = random_tree(n, seed=seed)
    o = OracleState(t, "noiseless", seed=seed)
    # base: a true subtree with >= sqrt(n) leaves and a nonempty complement
    nl = t.leaf_counts()
    base_root = next(
        v for v in t.topo_order()
        if v != t.root and nl[v] >= 8 and nl[v] <= n - 12
    )
    base = t.subtree_leaf_labels(base_root)
    part = bucket_partition(t, base_root)
    # pivot: a subtree inside one bucket
    rest = [lab for lab in t.leaf_labels if lab not in base]
    induced = induced_topology(t, rest)
    pivot = None
    for v in induced.topo_order():
        labs = induced.subtree_leaf_labels(v)
        if 3 <= len(labs) <= 10 and len({part.index_of[x] for x in labs}) == 1:
            pivot = labs
            break
    if pivot is None:
        pytest.skip("no single-bucket pivot of usable size in this draw")
    cands = [x for x in rest if x not in pivot]
    got = partition(o, base, pivot, cands, n=n)
    want = _ground_truth_parts(t, base_root, pivot, cands)
    assert tuple(map(sorted, got)) == tuple(map(sorted, want))
    # a true 3-partition
    assert sorted(got[0] + got[1] + got[2]) == sorted(cands)


def test_partition_same_bucket_expectation_exact_tie():
    # x in the pivot's bucket: both counted answers are incorrect answers
    # of every experiment, so their expectations match exactly
    t = tree_from_topology(
        ((("a1", "a2"), ("b1", "b2")), (("c1", "c2"), ("d1", "d2")))
    )
    eo = ExpectationOracle(t, "homogeneous")
    base = ["a1", "a2"]
    pivot = ["b1"]
    got = partition(eo, base, pivot, ["b2"], n=8)
    assert got == ([], ["b2"], [])
    A = np.array([eo.index_of["a1"], eo.index_of["a2"]])
    B = np.array([eo.index_of["b1"], eo.index_of["b1"]])
    X = np.array([eo.index_of["b2"], eo.index_of["b2"]])
    xv = float(np.sum(eo.wins(A, X, B)))
    yv = float(np.sum(eo.wins(A, B, X)))
    assert xv == yv  # exact equality of expectations


def test_partition_multibucket_pivot_empties_p1_p2():
    t = tree_from_topology(("a", ("b", ("c", ("d", "e")))))
    o = OracleState(t, "noiseless", seed=0)
    # base {d, e}; buckets: [c], [b], [a]; pivot {b, c} spans buckets 1-2
    got = partition(o, ["d", "e"], ["c", "b"], ["a"], n=5)
    assert got == ([], [], ["a"])


# ---------------------------------------------------------------------- #
# completions                                                             #
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(5))
def test_completion_induced_noiseless_exact(seed):
    n = 48
    t = random_tree(n, seed=seed)
    o = OracleState(t, "noiseless", seed=seed)
    nl = t.leaf_counts()
    target = next(
        v for v in t.topo_order() if v != t.root and 4 <= nl[v] <= 40
    )
    labs = t.subtree_leaf_labels(target)
    got = completion_induced(o, labs, n=n)
    assert topology_equal(got, induced_topology(t, labs))


def test_completion_induced_pair_needs_no_queries():
    t = random_tree(12, seed=2)
    o = OracleState(t, "noiseless", seed=0)
    got = completion_induced(o, t.leaf_labels[:2], n=12)
    assert got.n_leaves == 2
    assert o.query_count == 0


@pytest.mark.parametrize("seed", range(5))
def test_completion_quotient_noiseless_exact(seed):
    n = 40
    t = random_tree(n, seed=seed)
    o = OracleState(t, "noiseless", seed=seed)
    nl = t.leaf_counts()
    target = next(
        v for v in t.topo_order() if v != t.root and 6 <= nl[v] <= 20
    )
    labs = t.subtree_leaf_labels(target)
    got = completion_quotient(o, labs, n=n)
    want, rep_map = quotient(t, target)
    assert topology_equal(got, want)


def test_completion_quotient_bucket_order_matches_truth():
    t = random_tree(32, seed=11)
    o = OracleState(t, "noiseless", seed=0)
    nl = t.leaf_counts()
    target = next(v for v in t.topo_order() if v != t.root and nl[v] >= 6)
    labs = t.subtree_leaf_labels(target)
    got = completion_quotient(o, labs, n=32)
    want, _ = quotient(t, target)
    assert topology_equal(got, want)


def _score_first_assemble(ids, plans, M, closest, stage):
    """
    The assembly exact sources took before average linkage: a merged
    cluster keeps its smallest member's row, and the walk from a tied top
    pair reads each triple's three scores first, asking ``closest`` for the
    direct answer only where the top score ties.
    """
    ids = [int(v) for v in ids]
    pos = {v: i for i, v in enumerate(ids)}
    M = np.array(M, dtype=np.float64)
    np.fill_diagonal(M, -np.inf)

    def score_first(a, b, C):
        ic = np.array([pos[int(c)] for c in C], dtype=np.int64)
        s = np.stack([np.full(len(C), M[pos[a], pos[b]]), M[pos[a], ic],
                      M[pos[b], ic]])
        best = np.argmax(s, axis=0)
        tied = np.sum(s == s[best, np.arange(len(C))], axis=0) > 1
        if np.any(tied):
            best[tied] = closest(a, b, C[tied])
        return best

    plans = dict(zip(ids, plans))
    reps = sorted(ids)
    while len(reps) > 1:
        live = [pos[r] for r in reps]
        sub = M[np.ix_(live, live)]
        iu = np.triu_indices(len(reps), k=1)
        tied = np.flatnonzero(sub[iu] == np.max(sub[iu]))
        a, b = reps[iu[0][tied[0]]], reps[iu[1][tied[0]]]
        if len(tied) > 1:
            a, b = _find_sibling_pair(a, b, reps, score_first, stage)
        lo, hi = min(a, b), max(a, b)
        plans[lo] = (plans[lo], plans.pop(hi))
        reps.remove(hi)
    return plans[reps[0]]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(6, 64),
    seed=st.integers(0, 2**16),
    keep=st.floats(0.1, 0.9),
)
def test_completions_match_score_first_walk(n, seed, keep):
    # on a tree's answers, average linkage on the triple counts must
    # assemble what representative rows and a walk that compares scores
    # before it asks an answer assembled
    t = random_tree(n, w=0.2 / n, seed=seed)
    rng = np.random.default_rng(seed)
    ids = sorted(rng.choice(n, size=max(2, int(keep * n)), replace=False).tolist())
    rest = sorted(set(range(n)) - set(ids))
    plans = []
    for assemble in (topology_mod._assemble_by_scores, _score_first_assemble):
        with mock.patch.object(topology_mod, "_assemble_by_scores", assemble):
            drv = _Driver(OracleState(t, "noiseless", seed=seed))
            plans.append((drv.completion_induced(ids),
                          drv.completion_quotient(ids, rest)))
    assert plans[0] == plans[1]


def _walked_completions(drv, run):
    """
    ``run(drv)`` on the path exact sources took before the completions read
    the triple counts: pair counts over the leaves outside the members
    (over the anchors, within a bucket), with tied top pairs walked on the
    oracle's direct answers.
    """
    assemble = topology_mod._assemble_by_scores

    def walked(ids, plans, M, closest, stage):
        return assemble(ids, plans, M, drv.oracle.answers, stage)

    drv.exact = False
    with mock.patch.object(topology_mod, "_assemble_by_scores", walked):
        return run(drv)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["noiseless", "expectation"]),
    n=st.integers(6, 80),
    seed=st.integers(0, 2**16),
    keep=st.floats(0.1, 0.9),
    small_band=st.booleans(),
)
def test_exact_completions_match_the_walked_reference(kind, n, seed, keep,
                                                      small_band):
    # an exact source's counts fix the induced topology of any members, so
    # the kept pass restricted to them and a pass over them alone must both
    # assemble what outside counts and the walk on direct answers did; the
    # restriction reads no row, and the fallback pass keeps no matrix
    t = random_tree(n, w=0.2 / n, seed=seed)
    band = (dict(subtree_band=(3, 6), large_fraction=0.5, n0=3)
            if small_band else {})
    rng = np.random.default_rng(seed)
    members = sorted(rng.choice(n, size=max(3, int(keep * n)),
                                replace=False).tolist())
    rest = sorted(set(range(n)) - set(members))

    def run(drv):
        return (drv.completion_induced(members),
                drv.completion_quotient(members, rest))

    def driver():
        o = _oracle(kind, t, seed)
        return _Driver(o, ReconstructionConfig.for_oracle(o, **band))

    want = _walked_completions(driver(), run)

    covered = driver()
    covered.build_subtree(range(n))
    kept = covered._scored
    rows = []
    slots = _OracleBase._slots

    def counted(self, i, j, k):
        rows.append(i.size)
        return slots(self, i, j, k)

    with mock.patch.object(_OracleBase, "_slots", counted):
        induced = covered.completion_induced(members)
    assert rows == []
    assert (induced, covered.completion_quotient(members, rest)) == want
    assert covered._scored is kept

    fresh = driver()
    assert run(fresh) == want
    assert fresh._scored is None


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["noiseless", "expectation"]),
    n=st.integers(6, 80),
    seed=st.integers(0, 2**16),
    keep=st.floats(0.1, 0.9),
    small_band=st.booleans(),
)
def test_exact_assemblies_need_no_tie_key(kind, n, seed, keep, small_band):
    # on a tree's counts any tie rule gives one plan (``_assemble_by_scores``),
    # so an exact source's assemblies take the smallest tied pair: pinned on
    # every assembly of a run, on the kept pass restricted to some members
    # and on a fresh pass over them
    t = random_tree(n, w=0.2 / n, seed=seed)
    band = (dict(subtree_band=(3, 6), large_fraction=0.5, n0=3)
            if small_band else {})
    assemble = topology_mod._assemble_by_scores
    seen = []

    def recorded(ids, plans, M, closest, stage):
        if closest is _FIRST:
            seen.append((list(ids), np.array(M)))
        return assemble(ids, plans, M, closest, stage)

    def driver():
        o = _oracle(kind, t, seed)
        return _Driver(o, ReconstructionConfig.for_oracle(o, **band))

    drv = driver()
    with mock.patch.object(topology_mod, "_assemble_by_scores", recorded):
        drv.resolve(range(n))
    rng = np.random.default_rng(seed)
    members = np.sort(rng.choice(n, size=max(3, int(keep * n)), replace=False))
    for d in (drv, driver()):
        seen.append((members.tolist(), d._exact_scores(members)))
    for ids, M in seen:
        assert (assemble(ids, ids, M, _FIRST, "first")
                == assemble(ids, ids, M, None, "key"))


# ---------------------------------------------------------------------- #
# assemble_from_triples                                                   #
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("n,seed", [(8, 0), (32, 1), (64, 2), (128, 3)])
def test_assemble_ground_truth_closest_pair(n, seed):
    t = random_tree(n, seed=seed)
    got = assemble_from_triples(
        lambda a, b, c: closest_pair(t, a, b, c),
        t.leaf_labels,
        verify=(n <= 32),
    )
    assert topology_equal(got, t)


def test_assemble_three_leaves():
    t = tree_from_topology((("a", "b"), "c"))
    got = assemble_from_triples(lambda a, b, c: closest_pair(t, a, b, c), ["a", "b", "c"])
    assert topology_equal(got, t)


@pytest.mark.parametrize(
    "shape",
    [(("a", "b"), ("c", "d")), ("a", ("b", ("c", "d")))],
)
def test_assemble_flipped_triple_detected_or_reinterpreted(shape):
    # enumeration over every single-triple flip on four leaves: almost all
    # flips admit no tree and must raise a witness; the rare consistent
    # flip (rewiring the deepest cherry of a caterpillar) must instead
    # produce a verified tree with a different topology
    t = tree_from_topology(shape)
    labs = sorted(t.leaf_labels)
    raised = 0
    consistent = 0
    for flip_at in itertools.combinations(labs, 3):
        truth = closest_pair(t, *flip_at)
        wrong_answers = [
            tuple(sorted(p))
            for p in itertools.combinations(flip_at, 2)
            if tuple(sorted(p)) != truth
        ]
        for wrong in wrong_answers:
            def cp(a, b, c, _flip=flip_at, _wrong=wrong):
                if tuple(sorted((a, b, c))) == _flip:
                    return _wrong
                return closest_pair(t, a, b, c)

            try:
                other = assemble_from_triples(cp, labs, verify=True)
            except ReconstructionFailure as err:
                assert err.witness is not None
                raised += 1
            else:
                assert not topology_equal(other, t)
                consistent += 1
    assert raised >= 6  # the vast majority of flips are witnessed
    assert raised + consistent == 8


def _random_plan(leaves, rng):
    """A random nested plan over ``leaves``: merge two random parts at a time."""
    parts = list(leaves)
    while len(parts) > 1:
        a, b = sorted(rng.choice(len(parts), size=2, replace=False))
        parts.append((parts.pop(b), parts.pop(a)))
    return parts[0]


@settings(max_examples=80, deadline=None)
@given(m=st.integers(3, 12), seed=st.integers(0, 2**16))
def test_plan_codes_name_each_triples_closest_pair(m, seed):
    rng = np.random.default_rng(seed)
    leaves = sorted(rng.choice(100, size=m, replace=False).tolist())
    plan = _random_plan(leaves, rng)
    tree = tree_from_topology(plan)
    trips = _position_triples(m)
    codes = _plan_codes(plan, {x: p for p, x in enumerate(leaves)}, trips)
    for (i, j, k), code in zip(trips.tolist(), codes.tolist()):
        a, b, c = leaves[i], leaves[j], leaves[k]
        pair = {int(x) for x in closest_pair(tree, str(a), str(b), str(c))}
        assert pair == [{a, b}, {a, c}, {b, c}][code]


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_topology_tables_rows_are_plan_codes(m):
    plans, codes = _topology_tables(m)
    trips = _position_triples(m)
    identity = {x: x for x in range(m)}
    for plan, row in zip(plans, codes):
        np.testing.assert_array_equal(row, _plan_codes(plan, identity, trips))


# ---------------------------------------------------------------------- #
# reconstruct_topology                                                    #
# ---------------------------------------------------------------------- #


def test_reconstruct_two_leaves_without_queries():
    t = random_tree(2, w=0.5, seed=0)
    o = OracleState(t, "noiseless", seed=0)
    got = reconstruct_topology(o)
    assert topology_equal(got, t)
    assert o.query_count == 0


@pytest.mark.parametrize("n", [8, 32])
def test_reconstruct_noiseless_exact(n):
    for seed in range(8):
        t = random_tree(n, w=0.01, seed=seed)
        o = OracleState(t, "noiseless", seed=seed)
        got = reconstruct_topology(o)
        assert topology_equal(got, t), (n, seed)


@pytest.mark.parametrize("n,w", [(16, 0.02), (64, 0.02), (100, 0.01),
                                 (160, 0.01)])
def test_reconstruct_expectation_exact(n, w):
    # expectation mode is the infinite-sample stand-in: the driver asks it
    # for each triple's most likely pair, and the tree comes out exact
    missed = []
    for seed in range(10):
        t = random_tree(n, w=w, seed=seed)
        got = reconstruct_topology(ExpectationOracle(t, "homogeneous"))
        if not topology_equal(got, t):
            missed.append(seed)
    assert missed == []


_STEEP = CustomModel(lambda d1, d2: 1.0 / 3.0 + (d2 - d1) / (6.0 * d2),
                     epsilon=1.0 / 13.0)


def _run_record(oracle, cfg):
    try:
        got, stats = reconstruct_topology(oracle, cfg, return_stats=True)
    except ReconstructionFailure as exc:
        return exc.stage, exc.detail, exc.witness
    return to_newick(got), stats.events, stats.stages


@settings(max_examples=30, deadline=None)
@given(
    model=st.sampled_from(["homogeneous", _STEEP]),
    n=st.integers(5, 80),
    seed=st.integers(0, 2**16),
    small_band=st.booleans(),
)
def test_expectation_runs_as_the_noiseless_store_does(model, n, seed,
                                                      small_band):
    # the driver reads an expectation oracle's most likely answers directly;
    # they are the noiseless answers of the same tree, so the run is the one
    # a noiseless answer store gives, and the expectation oracle counts none
    t = random_tree(n, w=0.2 / n, seed=seed)
    band = (dict(subtree_band=(3, 6), large_fraction=0.5, n0=3)
            if small_band else {})
    eo = ExpectationOracle(t, model)
    ref = OracleState(t, "noiseless", 0)
    got = _run_record(eo, ReconstructionConfig.for_oracle(eo, **band))
    want = _run_record(ref, ReconstructionConfig.for_oracle(ref, **band))
    assert got == want
    assert eo.query_count == 0


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("source", ["noiseless", "homogeneous", "steep"])
def test_exact_grow_lower_needs_no_outside_leaf(source, seed):
    # with the small band at n=7 the pivot and the lower parts take every
    # leaf, so "grow-lower" completes the whole universe: an exact source
    # assembles it on its triple counts, which need no outside leaf
    t = random_tree(7, w=0.01, seed=seed)
    o = (OracleState(t, "noiseless", 0) if source == "noiseless"
         else ExpectationOracle(t, "homogeneous" if source == "homogeneous"
                                else _STEEP))
    cfg = ReconstructionConfig.for_oracle(o, subtree_band=(3, 6),
                                          large_fraction=0.5, n0=3)
    got, stats = reconstruct_topology(o, cfg, return_stats=True)
    assert topology_equal(got, t)
    assert "peel" in stats.stages
    # a noisy source still needs a leaf outside the members
    noisy = _Driver(OracleState(t, "homogeneous", 1))
    with pytest.raises(ReconstructionFailure, match="no leaves outside"):
        noisy.completion_induced(range(7), stage="grow-lower")


def test_reconstruct_rerun_same_oracle_identical():
    t = random_tree(24, seed=6)
    o = OracleState(t, "homogeneous", seed=42)
    cfg = ReconstructionConfig(c_thr=2.0)
    try:
        first = to_newick(reconstruct_topology(o, cfg))
        second = to_newick(reconstruct_topology(o, cfg))
        assert first == second
    except ReconstructionFailure:
        with pytest.raises(ReconstructionFailure):
            reconstruct_topology(o, cfg)
    assert o.query_count <= math.comb(24, 3)


def test_reconstruct_exercises_peel_and_bucket_recursion():
    # shrink the thresholds so the partition / pivot-collapse machinery
    # runs even at a desk-size n, and check it stays exact without noise.
    # (large_fraction must stay >= 1/2: above that, two oversized parts
    # cannot coexist and the driver's two-large-parts check stays valid)
    cfg = ReconstructionConfig(
        c_thr=0.0, large_fraction=0.5, subtree_band=(4, 8), n0=3
    )
    hits = {"collapse": 0, "peel": 0}
    for seed in range(6):
        t = random_tree(48, w=0.005, seed=seed)
        o = OracleState(t, "noiseless", seed=seed)
        got, stats = reconstruct_topology(o, cfg, return_stats=True)
        assert topology_equal(got, t), seed
        hits["peel"] += stats.stages.count("peel")
        hits["collapse"] += len(stats.collapses)
        assert stats.check_accounting(48)
    assert hits["peel"] >= 6
    assert hits["collapse"] >= 1  # the pivot-bucket recursion really ran


@pytest.mark.parametrize("c_thr", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("n", [16, 64])
def test_reconstruct_noisy_ends_in_a_tree(n, c_thr):
    # permanent noise makes score ties and bucket comparisons that no tree
    # satisfies; reconstruction must aggregate them into a tree instead of
    # raising ReconstructionFailure at the first inconsistency
    w = 1.0 / math.ceil(math.log2(n))  # the largest feasible min edge weight
    for seed in range(3):
        t = random_tree(n, w=w, seed=seed)
        o = OracleState(t, "homogeneous", seed=seed)
        got = reconstruct_topology(o, ReconstructionConfig(c_thr=c_thr))
        assert got.leaf_labels == t.leaf_labels
        assert got.n_nodes == 2 * n - 1


# sha256 of the Newick output, the query count and the stage events of
# reconstructions at n=160 (w=0.01): every one peels with two subtree
# builds, a partition and a pivot collapse
RECONSTRUCT_160 = {
    ("noiseless", 0):
        "0375c6c144c7676a50ff0017231cdf5547bc56d7fdc63ee922dc0c157236247e",
    ("noiseless", 1):
        "68b774a14b2cd6f7f519f248975499caf79be1575d4ec657bd3d74b36e7e349a",
    ("expectation", 8):
        "1306c880a6601b452c8f60e990d616247f362c2b5303f746cba27684376a03d4",
    ("expectation", 12):
        "6656a07333a0f6988cfeb3b4075644e2331b3124169f47e330b712325152a03d",
    ("homogeneous", 1):
        "94bb29daecec822f21d7ca131bd4203ff143f42ba3d129b60a9f696c0ec7108a",
    ("homogeneous", 6):
        "1be19c2d21eec2e7d360884d78ace845ad82ce5b022fc097d3d216d657889fd0",
}


@pytest.mark.parametrize("kind,seed", sorted(RECONSTRUCT_160))
def test_reconstruct_160_matches_digest(kind, seed):
    t = random_tree(160, w=0.01, seed=seed)
    o = _oracle(kind, t, seed)
    got, stats = reconstruct_topology(o, return_stats=True)
    assert len(stats.bases) >= 2 and stats.collapses
    text = f"{to_newick(got)}\n{o.query_count}\n{stats.events}"
    assert hashlib.sha256(text.encode()).hexdigest() == RECONSTRUCT_160[kind, seed]


def test_reconstruct_small_n_exhaustive_path():
    for n in (3, 4, 5):
        for seed in range(4):
            t = random_tree(n, w=0.05, seed=seed)
            o = OracleState(t, "noiseless", seed=seed)
            assert topology_equal(reconstruct_topology(o), t)


def test_exact_source_predicate_is_shared():
    # a model that draws nothing is an exact source whatever its kind: the
    # config zeroes c_thr for it and the driver treats its ties as systematic
    class Drawless(NoiselessModel):
        kind = "custom"

    t = random_tree(24, seed=3)
    cases = [(OracleState(t, Drawless(), seed=0), True),
             (ExpectationOracle(t, "homogeneous"), True),
             (OracleState(t, "homogeneous", seed=0), False)]
    for oracle, exact in cases:
        assert (ReconstructionConfig.for_oracle(oracle).c_thr == 0.0) is exact
        assert _Driver(oracle, None).exact is exact
    assert topology_equal(reconstruct_topology(cases[0][0]), t)


def test_reconstruct_query_budget():
    n = 32
    t = random_tree(n, seed=1)
    o = OracleState(t, "noiseless", seed=1)
    reconstruct_topology(o)
    assert o.query_count <= math.comb(n, 3)
