import functools
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
    HomogeneousModel,
    OracleState,
    build_lower_bound_pair,
    closest_pair,
    expectation_query,
    generate_random_ultrametric,
    make_model,
    p_correct_homogeneous,
    query,
    reconstruct_weights,
    triple_distribution,
    tree_from_topology,
)
import tripletree.noise_oracle as noise_oracle
from tripletree.noise_oracle import (_BLOCK_ROWS, _WIN_BLOCK_ROWS, _splitmix64,
                                    keyed_uniform)

from conftest import random_tree


# ---------------------------------------------------------------------- #
# p_correct of the homogeneous model                                      #
# ---------------------------------------------------------------------- #


def test_p_correct_homogeneous_limits():
    assert p_correct_homogeneous(1.0, 1.0) == pytest.approx(1.0 / 3.0)
    assert p_correct_homogeneous(0.0, 2.0) == pytest.approx(0.5)


@pytest.mark.parametrize("h", [0.1, 0.25, 0.5, 1.0])
def test_p_correct_homogeneous_vertex_height_form(h):
    # closest pair below a height-h vertex, witness across the unit root
    assert p_correct_homogeneous(2 * h, 2.0) == pytest.approx(1.0 / (2.0 + h))


def test_p_correct_homogeneous_rejects_bad_inputs():
    with pytest.raises(ValueError):
        p_correct_homogeneous(3.0, 2.0)
    with pytest.raises(ValueError):
        p_correct_homogeneous(0.1, 0.0)


def test_p_correct_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d2 = rng.uniform(0.05, 2.0)
        d1 = rng.uniform(0.0, d2)
        p = p_correct_homogeneous(d1, d2)
        assert 1.0 / 3.0 - 1e-12 <= p <= 0.5 + 1e-12


# ---------------------------------------------------------------------- #
# triple_distribution                                                     #
# ---------------------------------------------------------------------- #


def test_triple_distribution_noiseless_one_hot(three_leaf):
    assert triple_distribution(three_leaf, "noiseless", "a", "b", "c") == (1.0, 0.0, 0.0)
    assert triple_distribution(three_leaf, "noiseless", "b", "c", "a") == (0.0, 0.0, 1.0)


def test_triple_distribution_normalizes():
    t = random_tree(20, seed=1)
    labs = t.leaf_labels
    rng = np.random.default_rng(2)
    for _ in range(100):
        a, b, c = (labs[i] for i in rng.choice(len(labs), 3, replace=False))
        p = triple_distribution(t, "homogeneous", a, b, c)
        assert abs(sum(p) - 1.0) <= 1e-15
        assert all(x >= 0 for x in p)


def test_triple_distribution_near_equidistant_approaches_third():
    from tripletree import from_newick

    t = from_newick("((a:0.999999,b:0.999999):0.000001,c:1);")
    p = triple_distribution(t, "homogeneous", "a", "b", "c")
    assert all(abs(x - 1 / 3) < 1e-6 for x in p)


def test_triple_distribution_matches_lower_bound_closed_form():
    pair = build_lower_bound_pair(400, 0.01)
    t1 = pair.t1
    alpha = t1.leaf_distance("a", "b")
    beta = t1.leaf_distance("a", "c")
    p = triple_distribution(t1, "homogeneous", "a", "b", "c")
    assert p[0] == pytest.approx(2 * beta / (2 * (alpha + 2 * beta)), abs=1e-15)


def test_expectation_query_identical_to_distribution():
    t = random_tree(10, seed=5)
    labs = t.leaf_labels
    for a, b, c in itertools.combinations(labs[:6], 3):
        assert expectation_query(t, "homogeneous", a, b, c) == triple_distribution(
            t, "homogeneous", a, b, c
        )


# ---------------------------------------------------------------------- #
# Permanent noise oracle                                                  #
# ---------------------------------------------------------------------- #


def test_query_permanence_and_order_invariance():
    t = random_tree(12, seed=7)
    o = OracleState(t, "homogeneous", seed=99)
    labs = t.leaf_labels
    rng = np.random.default_rng(1)
    for _ in range(500):
        a, b, c = (labs[i] for i in rng.choice(len(labs), 3, replace=False))
        first = o.query(a, b, c)
        for perm in itertools.permutations((a, b, c)):
            assert o.query(*perm) == first


def test_query_counts_distinct_triples_once():
    t = random_tree(8, seed=0)
    o = OracleState(t, "homogeneous", seed=5)
    labs = t.leaf_labels
    o.query(labs[0], labs[1], labs[2])
    o.query(labs[2], labs[0], labs[1])
    assert o.query_count == 1
    for a, b, c in itertools.combinations(labs, 3):
        o.query(a, b, c)
    assert o.query_count == math.comb(8, 3)


def test_query_deterministic_across_instances():
    t = random_tree(10, seed=4)
    labs = t.leaf_labels
    answers1 = [
        OracleState(t, "homogeneous", seed=s).query(labs[0], labs[3], labs[7])
        for s in range(20)
    ]
    answers2 = [
        OracleState(t, "homogeneous", seed=s).query(labs[0], labs[3], labs[7])
        for s in range(20)
    ]
    assert answers1 == answers2
    assert len(set(answers1)) > 1  # different seeds do differ


def test_keyed_uniform_reference_values():
    # pinned outputs guard the cross-platform determinism contract
    u = keyed_uniform(0, np.arange(4, dtype=np.uint64))
    assert np.allclose(
        u,
        [0.6524484863740322, 0.03401170130434639,
         0.8429655109060831, 0.781499285280747],
        atol=1e-15,
    )


def test_wins_agrees_with_query():
    t = random_tree(12, seed=6)
    o = OracleState(t, "homogeneous", seed=11)
    labs = t.leaf_labels
    rng = np.random.default_rng(3)
    for _ in range(200):
        i, j, k = rng.choice(len(labs), 3, replace=False)
        a, b, c = labs[int(i)], labs[int(j)], labs[int(k)]
        won = o.wins(int(i), int(j), int(k))[0] == 1.0
        assert won == (set(o.query(a, b, c)) == {a, b})


def test_empirical_frequency_matches_distribution():
    # fresh-seed answers at one triple vs the exact distribution
    t = tree_from_topology((("x1", "x2"), "x3"), height=0.8)
    p = triple_distribution(t, "homogeneous", "x1", "x2", "x3")[0]
    trials = 100_000
    seeds = np.arange(trials, dtype=np.uint64)
    o = OracleState(t, "homogeneous", seed=0)
    i, j, k = (o.index_of[x] for x in ("x1", "x2", "x3"))
    tid = np.uint64(i * o._n2 + j * o.n_leaves + k)
    base = _splitmix64(seeds)
    u = (_splitmix64(np.full(trials, tid, dtype=np.uint64) ^ base)
         >> np.uint64(11)) * 2.0 ** -53
    d = t.distance_matrix()
    p0 = (d[i, k] + d[j, k]) / (2 * (d[i, j] + d[i, k] + d[j, k]))
    freq = float(np.mean(u < p0))
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(freq - p) <= 3 * sigma


# ---------------------------------------------------------------------- #
# The answer store against a store-free reference                         #
# ---------------------------------------------------------------------- #

_PERMS = np.array(list(itertools.permutations(range(3))), dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _store_tree(n):
    return generate_random_ultrametric(n, 0.002, seed=n)


def _reference_slots(tree, model, seed, i, j, k):
    """Answer slot of canonical rows drawn afresh, with no answer store."""
    n = tree.n_leaves
    D = tree.distance_matrix()
    p0, p1, _ = model.slot_probs(D[i, j], D[i, k], D[j, k])
    if not model.sampled:
        return np.where(p0 == 1.0, 0, np.where(p1 == 1.0, 1, 2))
    u = keyed_uniform(seed, (i * n * n + j * n + k).astype(np.uint64))
    return (u >= p0).astype(np.int64) + (u >= p0 + p1)


def _reference_wins(tree, model, seed, A, B, C):
    T = np.sort(np.stack([A, B, C], axis=1), axis=1)
    i, j, k = T[:, 0], T[:, 1], T[:, 2]
    slot = _reference_slots(tree, model, seed, i, j, k)
    lo, hi = np.minimum(A, B), np.maximum(A, B)
    target = np.where(hi == j, 0, np.where(lo == i, 1, 2))
    return (slot == target).astype(np.float64)


def _triple_pool(rng, n, size):
    """``size`` random canonical triples of distinct leaves (with repeats)."""
    return np.sort(np.argsort(rng.random((size, n)), axis=1)[:, :3], axis=1)


def _unrank(rank, n):
    """Canonical rows (i, j, k) of triple ranks ``C(k,3) + C(j,2) + i``."""
    m = np.arange(n, dtype=np.int64)
    c2 = m * (m - 1) // 2
    c3 = c2 * (m - 2) // 3
    k = np.searchsorted(c3, rank, side="right") - 1
    rest = rank - c3[k]
    j = np.searchsorted(c2, rest, side="right") - 1
    return rest - c2[j], j, k


_OPS = st.one_of(
    st.tuples(st.sampled_from(["wins", "answers"]),
              st.sampled_from([1, 7, 300, _BLOCK_ROWS - 1, _BLOCK_ROWS + 5,
                               2 * _BLOCK_ROWS + 3]),
              st.sampled_from([1, 5, 60, 4000])),
    st.tuples(st.just("query"), st.just(1), st.just(1)),
    # a run of consecutive ranks through ``answers`` or ``wins``, which take
    # the general path of ``_read`` like any other rows (the scoring
    # pass asks its runs through ``pass_slots``); the pool size is how many
    # ranks are asked beforehand: none, the rank before the run, or that
    # one and four of the run's first block
    st.tuples(st.sampled_from(["wins-ranks", "answers-ranks"]),
              st.sampled_from([1, 7, 300, _BLOCK_ROWS + 5,
                               2 * _BLOCK_ROWS + 3]),
              st.sampled_from([0, 1, 5])),
)


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([3, 9, 40, 322, 323, 341]),
    model=st.sampled_from(["homogeneous", "noiseless"]),
    seed=st.integers(0, 2 ** 64 - 1),
    data_seed=st.integers(0, 2 ** 32 - 1),
    ops=st.lists(_OPS, min_size=1, max_size=6),
)
def test_answer_store_matches_store_free_reference(n, model, seed, data_seed, ops):
    # one triple up to 341 leaves, batches longer than one block, repeats
    # inside a block and across blocks and calls, any argument order, runs
    # of consecutive ranks partly asked before, and answers, wins and query
    # mixed in any order on one store
    tree = _store_tree(n)
    model = make_model(model)
    labs = tree.leaf_labels
    o = OracleState(tree, model, seed=seed)
    assert len(o._store) == math.ceil(math.comb(n, 3) / 4)
    rng = np.random.default_rng(data_seed)
    asked = set()
    n3 = math.comb(n, 3)
    for kind, rows, pool_size in ops:
        if kind.endswith("-ranks"):
            # start off a byte boundary, so the run's first byte is shared
            # with the rank before it: answering that rank first makes the
            # run write into a byte already in use, and ranks of the first
            # block answered first make a later block share its first byte
            # with the rows already written
            rows = min(rows, n3)
            start = int(rng.integers(0, n3 - rows + 1))
            if start % 4 == 0 and start + rows < n3:
                start += 1
            pre = np.concatenate([
                [start - 1],
                start + rng.integers(0, min(rows, _BLOCK_ROWS), size=4),
            ])[:pool_size]
            i, j, k = _unrank(np.unique(pre[pre >= 0]), n)
            o.answers(i, j, k)
            asked.update(zip(i.tolist(), j.tolist(), k.tolist()))
            i, j, k = _unrank(np.arange(start, start + rows), n)
            T = np.stack([i, j, k], axis=1)
            asked.update(map(tuple, T.tolist()))
            kind = kind[:-len("-ranks")]
            if kind == "wins":
                T = np.take_along_axis(
                    T, _PERMS[rng.integers(0, 6, size=rows)], axis=1)
                A, B, C = T[:, 0], T[:, 1], T[:, 2]
                np.testing.assert_array_equal(
                    o.wins(A, B, C),
                    _reference_wins(tree, model, seed, A, B, C))
            else:
                np.testing.assert_array_equal(
                    o.answers(i, j, k), _reference_slots(tree, model, seed, i, j, k))
            assert o.query_count == len(asked)
            # read back: every code of the run is in the store
            np.testing.assert_array_equal(
                o.answers(i, j, k), _reference_slots(tree, model, seed, i, j, k))
            assert o.query_count == len(asked)
            continue
        T = _triple_pool(rng, n, pool_size)
        T = T[rng.integers(0, len(T), size=rows)]
        asked.update(map(tuple, T.tolist()))
        if kind == "answers":
            i, j, k = T[:, 0], T[:, 1], T[:, 2]
            np.testing.assert_array_equal(
                o.answers(i, j, k), _reference_slots(tree, model, seed, i, j, k)
            )
            assert o.query_count == len(asked)
            continue
        T = np.take_along_axis(T, _PERMS[rng.integers(0, 6, size=rows)], axis=1)
        A, B, C = T[:, 0], T[:, 1], T[:, 2]
        if kind == "wins":
            np.testing.assert_array_equal(
                o.wins(A, B, C), _reference_wins(tree, model, seed, A, B, C)
            )
        else:
            i, j, k = sorted(int(x) for x in T[0])
            slot = int(_reference_slots(
                tree, model, seed, np.array([i]), np.array([j]), np.array([k])
            )[0])
            a, b, c = labs[i], labs[j], labs[k]
            assert o.query(labs[int(A[0])], labs[int(B[0])], labs[int(C[0])]) == (
                ((a, b), (a, c), (b, c))[slot]
            )
        assert o.query_count == len(asked)


def _pass_source(source, tree, seed):
    if source == "expectation-homogeneous":
        return ExpectationOracle(tree, "homogeneous")
    if source == "expectation-noiseless":
        return ExpectationOracle(tree, "noiseless")
    if source == "expectation-custom":
        return ExpectationOracle(tree, CustomModel(_linear_p_correct,
                                                   epsilon=1.0 / 13.0))
    return OracleState(tree, source, seed=seed)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 60),
    source=st.sampled_from(["noiseless", "homogeneous",
                            "expectation-homogeneous", "expectation-custom"]),
    subset=st.booleans(),
    block=st.sampled_from([1, 3, 40, _BLOCK_ROWS]),
    seed=st.integers(0, 2 ** 64 - 1),
    data_seed=st.integers(0, 2 ** 32 - 1),
)
# layers 4 and 5 each end in an answered triple; layer 5 starts mid-byte,
# in the byte of layer 4's last triple
@example(n=9, source="noiseless", subset=False, block=_BLOCK_ROWS, seed=0,
         data_seed=0)
def test_pass_slots_match_row_wise_codes(n, source, subset, block, seed,
                                         data_seed):
    # the layer pass answers, stores and counts what ``answers`` does on the
    # same rows in rank order.  Asked first: the last triple of some layers,
    # so that those layers hold an answered triple (``_draw_slots``) and
    # the fresh layer after each shares its first store byte with it when
    # C(c,3) is not a multiple of 4, plus a few triples anywhere
    tree = _store_tree(n)
    rng = np.random.default_rng(data_seed)
    S = np.arange(n)
    if subset:
        S = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)),
                               replace=False))
    l = len(S)
    ends = np.arange(2, l)[rng.random(max(0, l - 2)) < 0.3]
    pre = np.concatenate([np.stack([S[ends - 2], S[ends - 1], S[ends]], axis=1),
                          _triple_pool(rng, n, int(rng.integers(0, 6)))])
    trips = np.array(sorted(itertools.combinations(range(l), 3),
                            key=lambda t: t[::-1]), dtype=np.int64)
    T = S[trips.reshape(-1, 3)]
    o, ref = _pass_source(source, tree, seed), _pass_source(source, tree, seed)
    for x in (o, ref):
        x.answers(pre[:, 0], pre[:, 1], pre[:, 2])
    with mock.patch.object(noise_oracle, "_BLOCK_ROWS", block):
        blocks = list(o.pass_slots(S))
    got = np.concatenate([slot for *_, slot in blocks] + [np.empty(0)])
    np.testing.assert_array_equal(got, ref.answers(T[:, 0], T[:, 1], T[:, 2]))
    assert o.query_count == ref.query_count
    np.testing.assert_array_equal(o._store, ref._store)


@pytest.mark.parametrize("source", ["noiseless", "expectation-homogeneous"])
@pytest.mark.parametrize("S", [[2, 1, 3], [0, 1, 1, 3], [-1, 2, 3],
                               [0, 1, 8], [[0, 1, 2]]])
def test_pass_slots_takes_sorted_distinct_ids_in_range(source, S):
    t = generate_random_ultrametric(8, 0.05, seed=0)
    o = _pass_source(source, t, 0)
    with pytest.raises(ValueError):
        next(o.pass_slots(S))
    assert o.query_count == 0


def test_rows_that_are_not_triples_raise_and_leave_the_store_alone():
    # (1, 1, 3) ranks as the triple (0, 2, 3); asking it must not answer it
    t = generate_random_ultrametric(8, 0.05, seed=0)
    o = OracleState(t, "noiseless", seed=0)
    for bad in [(1, 1, 3), (3, 1, 3), (2, 5, 5)]:
        with pytest.raises(ValueError):
            o.wins(*bad)
        with pytest.raises(ValueError):
            o.answers(*sorted(bad))
    with pytest.raises(ValueError):
        o.wins(-1, 2, 5)  # would rank as (0, 1, 5)
    assert o.query_count == 0
    # a long batch whose last row is (1, 1, 3): the rows are checked before
    # any is read, so the triple (0, 2, 3) of the others is not asked
    A = np.zeros(_BLOCK_ROWS + 5, dtype=np.int64)
    B, C = A + 2, A + 3
    A[-1] = B[-1] = 1
    with pytest.raises(ValueError):
        o.wins(A, B, C)
    assert o.query_count == 0
    assert "_store" not in o.__dict__
    assert o.query("L00", "L02", "L03") == (
        OracleState(t, "noiseless", seed=0).query("L00", "L02", "L03"))
    # expectation mode takes rows as the sampled store does, and a bad row
    # does not even allocate its store
    eo = ExpectationOracle(t, "homogeneous")
    for bad in [(1, 1, 3), (3, 1, 3), (2, 5, 5), (-1, 2, 5)]:
        with pytest.raises(ValueError):
            eo.wins(*bad)
        with pytest.raises(ValueError):
            eo.answers(*bad)
    assert "_store" not in eo.__dict__


@pytest.mark.parametrize("source", ["noiseless", "homogeneous",
                                    "expectation-homogeneous"])
def test_rows_past_the_last_leaf_raise(source):
    # a leaf id n would rank past the store's triples, and in expectation
    # mode its flat distance index i * n + k would read another row
    t = generate_random_ultrametric(12, 0.02, seed=1)
    o = _pass_source(source, t, 0)
    for read, args in [(o.wins, (1, 2, 12)), (o.wins, (12, 1, 2)),
                       (o.answers, (1, 2, 12)), (o.answers, (0, 5, 13)),
                       (o.answers, (13, 0, 5)),
                       (o.answers, ([0, 1], [2, 3], [4, 12]))]:
        with pytest.raises(ValueError):
            read(*args)
    assert o.query_count == 0
    assert "_store" not in o.__dict__


# ---------------------------------------------------------------------- #
# Pair tallies                                                            #
# ---------------------------------------------------------------------- #


def _pair_rows(X, Y, W):
    """The experiments (X[p], Y[p], w) as flat rows, pair-major."""
    return np.repeat(X, len(W)), np.repeat(Y, len(W)), np.tile(W, len(X))


def _reference_expectation_slot(oracle, lo, hi, w):
    """
    The most likely slot of each experiment (lo, hi, w), lo < hi, read with
    no answer store: the argmax of the model's ``slot_probs`` at d(lo, hi),
    d(lo, w) and d(hi, w) placed in canonical order by ``_place``.  On
    canonical rows (i, j, k) it is the slot of (i, j, k).
    """
    D = oracle.tree.distance_matrix()
    d = noise_oracle._place(D[lo, hi], D[lo, w], D[hi, w], w > hi, w > lo)
    return np.argmax(np.stack(oracle.model.slot_probs(*d)), axis=0)


def _reference_slots_of(oracle, i, j, k):
    """
    ``oracle``'s answer slot of canonical rows with no answer store: the
    draw of ``_reference_slots``, or in expectation mode the most likely.
    """
    if isinstance(oracle, ExpectationOracle):
        return _reference_expectation_slot(oracle, i, j, k)
    return _reference_slots(oracle.tree, oracle.model, oracle.seed, i, j, k)


def _reference_tallies(oracle, X, Y, W):
    """
    Pair tallies from rows sorted afresh, with no answer store: every
    experiment (X[p], Y[p], w) answered by ``_reference_slots_of``, the
    leaf its slot leaves out naming the pair.
    """
    P, m = len(X), len(W)
    out = np.zeros((3, P), dtype=np.int64)
    if P and m:
        A, B, C = _pair_rows(X, Y, W)
        i, j, k = np.sort(np.stack([A, B, C]), axis=0)
        slot = _reference_slots_of(oracle, i, j, k)
        left_out = np.where(slot == 0, k, np.where(slot == 1, j, i))
        code = np.where(left_out == C, 0,
                        np.where(left_out == B, 1, 2)).reshape(P, m)
        out[0] = np.count_nonzero(code == 0, axis=1)
        out[1] = np.count_nonzero(code == 1, axis=1)
    out[2] = m - out[0] - out[1]
    return out


def _assert_asked(o, ref, X, Y, W):
    """
    ``o`` holds the store of ``ref`` (asked the same rows before) with the
    experiments (X[p], Y[p], w) asked on top: each triple's store-free code
    slot + 1 ORed in at its rank C(k,3) + C(j,2) + i, which leaves an
    answered triple as it was; ``query_count`` counts the codes written,
    or stays 0 in expectation mode.
    """
    i, j, k = np.sort(np.stack(_pair_rows(X, Y, W)), axis=0)
    rank = k * (k - 1) * (k - 2) // 6 + j * (j - 1) // 2 + i
    code = _reference_slots_of(ref, i, j, k) + 1
    store = ref._store.copy()
    np.bitwise_or.at(store, rank >> 2, (code << 2 * (rank & 3)).astype(np.uint8))
    np.testing.assert_array_equal(o._store, store)
    written = (store[:, None] >> np.arange(0, 8, 2, dtype=np.uint8)) & 3
    assert o.query_count == (0 if isinstance(o, ExpectationOracle)
                             else np.count_nonzero(written))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 40),
    source=st.sampled_from(["noiseless", "homogeneous",
                            "expectation-homogeneous", "expectation-custom"]),
    asked=st.sampled_from(["fresh", "some", "all"]),
    n_pairs=st.integers(0, 30),
    n_wit=st.integers(0, 12),
    block=st.sampled_from([1, 7, 64, _BLOCK_ROWS]),
    seed=st.integers(0, 2 ** 64 - 1),
    data_seed=st.integers(0, 2 ** 32 - 1),
)
@example(n=20, source="homogeneous", asked="all", n_pairs=30, n_wit=12,
         block=_BLOCK_ROWS, seed=0, data_seed=0)
def test_tallies_match_the_general_reader(n, source, asked, n_pairs, n_wit,
                                          block, seed, data_seed):
    # the counts, and the triples asked, stored and counted, are those of
    # a store-free reference on the repeated rows: pairs in either order,
    # repeated or sharing leaves, witnesses unsorted and repeated, on a
    # fresh, a partly and a fully answered store, in blocks of one pair or
    # more
    tree = _store_tree(n)
    rng = np.random.default_rng(data_seed)
    leaves = rng.permutation(n)
    k = min(n - 2, int(rng.integers(1, n_wit + 1))) if n_wit else 0
    W = rng.choice(leaves[:k], size=n_wit) if k else leaves[:0]
    XY = np.array([rng.choice(leaves[k:], size=2, replace=False)
                   for _ in range(n_pairs)], dtype=np.int64).reshape(-1, 2)
    pre = _triple_pool(rng, n, int(rng.integers(1, 4 * n)))
    o, ref = _pass_source(source, tree, seed), _pass_source(source, tree, seed)
    for x in (o, ref):
        if asked == "all":
            for _ in x.pass_slots(np.arange(n)):
                pass
        elif asked == "some":
            x.answers(pre[:, 0], pre[:, 1], pre[:, 2])
    with mock.patch.object(noise_oracle, "_BLOCK_ROWS", block):
        got = o.tallies(XY[:, 0], XY[:, 1], W)
    assert got.dtype == np.int64 and got.shape == (3, n_pairs)
    np.testing.assert_array_equal(
        got, _reference_tallies(ref, XY[:, 0], XY[:, 1], W))
    _assert_asked(o, ref, XY[:, 0], XY[:, 1], W)


_NOT_EXPERIMENTS = pytest.mark.parametrize("X, Y, W", [
    ([0, -1], [1, 2], [3, 4]),  # a leaf id below 0
    ([0, 1], [1, 8], [3, 4]),  # a leaf id n
    ([0, 1], [1, 2], [3, -1]),
    ([0, 1], [1, 2], [8, 4]),
    ([0, 2], [1, 2], [3, 4]),  # X == Y
    ([0, 1], [1, 2], [4, 2]),  # a witness that is a pair's Y
    ([0, 5], [1, 2], [5, 4]),  # a witness that is a pair's X
    ([0, 1], [1], [3, 4]),  # more X than Y
], ids=["x-below-0", "y-is-n", "w-below-0", "w-is-n", "x-is-y", "w-is-y",
        "w-is-x", "unpaired"])


def _assert_rejected(read, source, X, Y, W, asked):
    """
    ``read(oracle)(X, Y, W)`` raises ``ValueError`` before any row is read:
    with one triple answered the first rows name fresh triples, none of
    which may be asked; with all of them answered a bad row would read
    another triple's answer.
    """
    t = generate_random_ultrametric(8, 0.05, seed=0)
    o = _pass_source(source, t, 0)
    if asked == "all":
        for _ in o.pass_slots(np.arange(8)):
            pass
    else:
        o.answers(0, 1, 3)
    count = o.query_count
    store = o._store.copy()
    with pytest.raises(ValueError):
        read(o)(X, Y, W)
    assert o.query_count == count
    np.testing.assert_array_equal(o._store, store)


@pytest.mark.parametrize("source", ["noiseless", "homogeneous",
                                    "expectation-homogeneous",
                                    "expectation-custom"])
@_NOT_EXPERIMENTS
@pytest.mark.parametrize("asked", ["one", "all"])
def test_tallies_reject_rows_that_are_not_experiments(source, X, Y, W, asked):
    _assert_rejected(lambda o: o.tallies, source, X, Y, W, asked)


@pytest.mark.parametrize("model", ["noiseless", "homogeneous"])
@pytest.mark.parametrize("n", [2345, 2346])
def test_tallies_at_the_edge_of_int32_ranks(n, model):
    # C(2345, 3) is the last triple count below 2**31: the store's rank
    # tables are int32 up to it and int64 past it.  Rows at the top of the
    # id range, read fresh (the general path) and then off the store
    t = generate_random_ultrametric(n, 1e-4, seed=0)
    X = np.array([n - 1, 0, n - 3, 5, n - 2])
    Y = np.array([n - 2, n - 1, 1, n - 4, 7])
    W = np.array([n - 5, 2, n - 6, 1000, 3, n - 5])
    o = OracleState(t, model, seed=n)
    assert o._c3.dtype == (np.int32 if n == 2345 else np.int64)
    want = _reference_tallies(o, X, Y, W)
    for _ in range(2):
        np.testing.assert_array_equal(o.tallies(X, Y, W), want)
        assert o.query_count == len(X) * 5


# ---------------------------------------------------------------------- #
# Pair wins                                                               #
# ---------------------------------------------------------------------- #


def _reference_probabilities(oracle, A, B, C):
    """
    Expectation-mode ``wins`` from canonical rows sorted afresh: the model's
    slot probabilities of (i, j, k), picked by where C sits.
    """
    i, j, k = np.sort(np.stack([A, B, C]), axis=0)
    D = oracle.tree.distance_matrix()
    p0, p1, p2 = oracle.model.slot_probs(D[i, j], D[i, k], D[j, k])
    return np.where(C == k, p0, np.where(C == j, p1, p2))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 40),
    source=st.sampled_from(["noiseless", "homogeneous",
                            "expectation-homogeneous", "expectation-noiseless",
                            "expectation-custom"]),
    asked=st.sampled_from(["fresh", "some"]),
    n_pairs=st.integers(0, 30),
    n_wit=st.integers(0, 12),
    block=st.sampled_from([1, 7, 64, _WIN_BLOCK_ROWS]),
    seed=st.integers(0, 2 ** 64 - 1),
    data_seed=st.integers(0, 2 ** 32 - 1),
)
@example(n=20, source="homogeneous", asked="some", n_pairs=30, n_wit=12,
         block=_WIN_BLOCK_ROWS, seed=0, data_seed=0)
def test_pair_wins_match_wins_on_repeated_rows(n, source, asked, n_pairs,
                                               n_wit, block, seed, data_seed):
    # entry (p, q) is the store-free reference's wins(X[p], Y[p], W[q]) bit
    # for bit (in expectation mode the probability of rows sorted afresh),
    # and the triples asked, stored and counted are those of the repeated
    # rows: pairs in either order, repeated or sharing leaves, witnesses
    # unsorted and repeated, on a fresh and a partly answered store, in
    # blocks of one pair or more; ``wins`` then reads the same values.  An
    # expectation oracle's probabilities read and write no answer, and a
    # fresh one allocates no store
    tree = _store_tree(n)
    rng = np.random.default_rng(data_seed)
    leaves = rng.permutation(n)
    k = min(n - 2, int(rng.integers(1, n_wit + 1))) if n_wit else 0
    W = rng.choice(leaves[:k], size=n_wit) if k else leaves[:0]
    XY = np.array([rng.choice(leaves[k:], size=2, replace=False)
                   for _ in range(n_pairs)], dtype=np.int64).reshape(-1, 2)
    pre = _triple_pool(rng, n, int(rng.integers(1, 4 * n)))
    o, ref = _pass_source(source, tree, seed), _pass_source(source, tree, seed)
    if asked == "some":
        for x in (o, ref):
            x.answers(pre[:, 0], pre[:, 1], pre[:, 2])
    with mock.patch.object(noise_oracle, "_WIN_BLOCK_ROWS", block):
        got = o.pair_wins(XY[:, 0], XY[:, 1], W)
    rows = _pair_rows(XY[:, 0], XY[:, 1], W)
    want = (_reference_probabilities(ref, *rows)
            if isinstance(ref, ExpectationOracle)
            else _reference_wins(tree, ref.model, seed, *rows))
    assert got.dtype == np.float64 and got.shape == (n_pairs, n_wit)
    assert got.tobytes() == want.tobytes()
    if isinstance(o, ExpectationOracle):
        assert ("_store" in o.__dict__) == (asked == "some")
        if asked == "some":
            np.testing.assert_array_equal(o._store, ref._store)
    else:
        _assert_asked(o, ref, XY[:, 0], XY[:, 1], W)
    assert o.wins(*rows).tobytes() == want.tobytes()


@pytest.mark.parametrize("source", ["noiseless", "homogeneous",
                                    "expectation-homogeneous",
                                    "expectation-custom"])
@_NOT_EXPERIMENTS
@pytest.mark.parametrize("asked", ["one", "all"])
def test_pair_wins_reject_rows_that_are_not_experiments(source, X, Y, W,
                                                        asked):
    _assert_rejected(lambda o: o.pair_wins, source, X, Y, W, asked)


class _HalvedHomogeneous(HomogeneousModel):
    """A homogeneous model whose slot probabilities are halved."""

    def slot_probs(self, d01, d02, d12):
        return tuple(0.5 * p for p in super().slot_probs(d01, d02, d12))


@settings(max_examples=150, deadline=None)
@given(
    pool=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=4),
    n_pairs=st.integers(0, 6),
    n_wit=st.integers(0, 9),
    flat=st.booleans(),
    data_seed=st.integers(0, 2 ** 32 - 1),
)
def test_homogeneous_pair_prob_is_the_placement_path(pool, n_pairs, n_wit,
                                                     flat, data_seed):
    # the closed form equals the generic placement, ``slot_probs`` and
    # pick bit for bit: distances from a small pool (so often tied), masks
    # with top => mid, in the (p, 1) / (p, m) blocks of ``pair_wins`` and
    # as flat rows; a subclass that overrides ``slot_probs`` is read
    # through it
    rng = np.random.default_rng(data_seed)
    pool = np.array(pool)
    shape = (n_pairs * n_wit,) if flat else (n_pairs, n_wit)
    dp = pool[rng.integers(len(pool), size=shape if flat else (n_pairs, 1))]
    dl, dh = (pool[rng.integers(len(pool), size=shape)] for _ in range(2))
    mid = rng.random(shape) < 0.6
    top = mid & (rng.random(shape) < 0.5)
    for model in (HomogeneousModel(), _HalvedHomogeneous()):
        want = noise_oracle.NoiseModel.pair_prob(model, dp, dl, dh, top, mid)
        got = model.pair_prob(dp, dl, dh, top, mid)
        assert got.shape == want.shape == shape
        assert got.tobytes() == want.tobytes()


def test_expectation_pair_wins_read_a_subclass_slot_probs():
    t = generate_random_ultrametric(12, 0.05, seed=3)
    X, Y, W = [0, 5, 11], [7, 2, 1], [3, 4, 6, 8, 9, 10]
    plain = ExpectationOracle(t, "homogeneous").pair_wins(X, Y, W)
    halved = ExpectationOracle(t, _HalvedHomogeneous()).pair_wins(X, Y, W)
    assert halved.tobytes() == (0.5 * plain).tobytes()


@pytest.mark.parametrize("model", ["homogeneous", "noiseless"])
def test_expectation_codes_are_the_most_likely_slot(model):
    t = generate_random_ultrametric(30, 0.02, seed=2)
    I, J, K = (np.array(x, dtype=np.int64)
               for x in zip(*itertools.combinations(range(30), 3)))
    eo = ExpectationOracle(t, model)
    want = np.argmax(np.stack([eo.wins(I, J, K), eo.wins(I, K, J),
                               eo.wins(J, K, I)]), axis=0)
    np.testing.assert_array_equal(eo.answers(I, J, K), want)
    # noise-free answers of a tree: the same answers as the noiseless store
    np.testing.assert_array_equal(
        eo.answers(I, J, K),
        OracleState(t, "noiseless", seed=0).answers(I, J, K))
    # in another order, read off the filled store or decided afresh
    np.testing.assert_array_equal(
        eo.answers(K, I, J), ExpectationOracle(t, model).answers(K, I, J))


class _Flat(noise_oracle.NoiseModel):
    """p_correct = 1/3: the three slots of every triple tie exactly."""

    def slot_probs(self, d01, d02, d12):
        p = np.full(np.shape(d01), 1.0 / 3.0)
        return p, p.copy(), p.copy()


def _expectation_model(name):
    return {
        "steep": lambda: CustomModel(_linear_p_correct, epsilon=1.0 / 13.0),
        # not validated: p_correct dips below 1/3, where the most likely
        # pair is not the closest
        "sin": lambda: CustomModel(
            lambda d1, d2: 0.5 + 0.4 * math.sin(9.0 * d1 / d2),
            epsilon=0.0, validate=False),
        "flat": _Flat,
        # (1 - 1/3) / 2 rounds above 1/3: the two pairs that are not
        # closest tie as the most likely
        "flat-custom": lambda: CustomModel(lambda d1, d2: 1.0 / 3.0,
                                           epsilon=0.0, validate=False),
    }.get(name, lambda: name)()


def test_expectation_decides_the_first_most_likely_slot():
    # every tie of a small pool: the rule is ``np.argmax`` over the slots
    eo = ExpectationOracle(tree_from_topology(("a", ("b", "c"))), "homogeneous")
    probs = np.array(list(itertools.product(
        [0.0, 0.25, 1.0 / 3.0, 0.5, 1.0], repeat=3))).T
    np.testing.assert_array_equal(eo._decide(tuple(probs), None),
                                  np.argmax(probs, axis=0))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 30),
    model=st.sampled_from(["homogeneous", "noiseless", "steep", "sin", "flat",
                           "flat-custom"]),
    asked=st.sampled_from(["fresh", "some", "all"]),
    data_seed=st.integers(0, 2 ** 32 - 1),
)
@example(n=12, model="flat", asked="fresh", data_seed=0)
def test_expectation_store_matches_the_store_free_readers(n, model, asked,
                                                         data_seed):
    # the stored most likely slots read what the store-free expectation
    # readers did on a fresh, a partly and a fully answered oracle, through
    # every reader; under the flat model slot 0 wins every triple.  Nothing
    # is counted
    tree = _store_tree(n)
    rng = np.random.default_rng(data_seed)
    eo = ExpectationOracle(tree, _expectation_model(model))
    if asked == "all":
        list(eo.pass_slots(np.arange(n)))
    elif asked == "some":
        pre = _triple_pool(rng, n, int(rng.integers(1, 4 * n)))
        eo.answers(pre[:, 0], pre[:, 1], pre[:, 2])
    assert eo.query_count == 0

    T = _triple_pool(rng, n, 3 * n)
    i, j, k = T.T
    slot = _reference_expectation_slot(eo, i, j, k)
    if model == "flat":
        assert not slot.any()
    T = np.take_along_axis(T, _PERMS[rng.integers(0, 6, size=len(T))], axis=1)
    A, B, C = T.T
    left_out = np.where(slot == 0, k, np.where(slot == 1, j, i))
    np.testing.assert_array_equal(
        eo.answers(A, B, C), np.where(left_out == C, 0,
                                      np.where(left_out == B, 1, 2)))

    S = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
    trips = np.array(sorted(itertools.combinations(range(len(S)), 3),
                            key=lambda t: t[::-1]), dtype=np.int64)
    layers = [s for *_, s in eo.pass_slots(S)]
    np.testing.assert_array_equal(
        np.concatenate(layers + [np.empty(0)]),
        _reference_expectation_slot(eo, *S[trips.reshape(-1, 3)].T))

    leaves = rng.permutation(n)
    m = int(rng.integers(1, n - 1))
    W = rng.choice(leaves[:m], size=int(rng.integers(0, 2 * m)))
    XY = np.array([rng.choice(leaves[m:], size=2, replace=False)
                   for _ in range(int(rng.integers(0, 12)))],
                  dtype=np.int64).reshape(-1, 2)
    np.testing.assert_array_equal(
        eo.tallies(XY[:, 0], XY[:, 1], W),
        _reference_tallies(eo, XY[:, 0], XY[:, 1], W))
    want = _reference_probabilities(eo, *_pair_rows(XY[:, 0], XY[:, 1], W))
    got = eo.pair_wins(XY[:, 0], XY[:, 1], W)
    assert got.tobytes() == want.tobytes()
    assert eo.query_count == 0


def test_expectation_weights_allocate_no_store():
    # the weight estimators read probabilities only: an n=2048 store would
    # take 357 MB
    t = generate_random_ultrametric(64, 0.02, seed=4)
    eo = ExpectationOracle(t, "homogeneous")
    he = reconstruct_weights(eo, t)
    assert he.max_abs_weight_error(t) <= 1e-9
    assert "_store" not in eo.__dict__ and eo.query_count == 0


@pytest.mark.parametrize("source", ["noiseless", "homogeneous", "expectation"])
def test_answers_match_a_store_free_reference_in_every_order(source):
    t = random_tree(24, w=0.05, seed=5)
    model = make_model("homogeneous" if source == "expectation" else source)
    D = t.distance_matrix()
    if source == "expectation":
        o = ExpectationOracle(t, model)

        def reference(A, B, C):
            return np.argmax(np.stack(
                model.slot_probs(D[A, B], D[A, C], D[B, C])), axis=0)
    else:
        o = OracleState(t, model, seed=7)

        def reference(A, B, C):
            wab = _reference_wins(t, model, 7, A, B, C)
            wac = _reference_wins(t, model, 7, A, C, B)
            return np.where(wab == 1.0, 0, np.where(wac == 1.0, 1, 2))

    T = np.array(list(itertools.combinations(range(24), 3)), dtype=np.int64)
    T = T[np.random.default_rng(0).permutation(len(T))]
    for perm in itertools.permutations(range(3)):
        A, B, C = (T[:, p] for p in perm)
        np.testing.assert_array_equal(o.answers(A, B, C), reference(A, B, C))
        assert o.query_count == (0 if source == "expectation" else len(T))


_READER_ARGS = [
    (0, 1, 5),
    (np.array(0), np.array(1), np.array(5)),
    (np.array(0), 1, np.int64(5)),
    (np.arange(0, 6), np.arange(6, 12), np.arange(12, 18)),
    (0, 1, np.arange(2, 9)),
    (np.array([[0], [1]]), 2, np.array([[3, 4, 5, 6]])),
    ([0, 1], np.array(2), [[3], [4], [7]]),
]


@pytest.mark.parametrize("source", ["noiseless", "homogeneous", "expectation"])
@pytest.mark.parametrize("args", _READER_ARGS)
def test_readers_broadcast_their_arguments(source, args):
    # scalars, 0-d, 1-d and mixed shapes give what the readers give on the
    # arguments broadcast in full beforehand: at least 1-d, in their shape
    t = random_tree(24, w=0.05, seed=5)
    o = (ExpectationOracle(t, "homogeneous") if source == "expectation"
         else OracleState(t, source, seed=7))
    full = [np.ascontiguousarray(x) for x in np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=np.int64)) for x in args))]
    I, J, K = args
    FI, FJ, FK = full
    for got, want in ((o.answers(I, J, K), o.answers(FI, FJ, FK)),
                      (o.answers(K, I, J), o.answers(FK, FI, FJ)),
                      (o.wins(J, K, I), o.wins(FJ, FK, FI))):
        assert got.shape == want.shape == FI.shape
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("model, seed, digest", [
    ("homogeneous", 17,
     "9d3be38fce1f1af4090a55f96bba3d5b241f871c5efdd190721031321693d7e2"),
    ("noiseless", 0,
     "c37fde43f0b6080dfb40d9acbc8f528be0462fe22f9d21ec0bee12024b194eae"),
])
def test_wins_pinned_over_all_triples(model, seed, digest):
    # pins the triple id -> answer slot mapping, not just the hash: the
    # three target pairs of every triple of a 40-leaf tree
    t = generate_random_ultrametric(40, 0.02, seed=3)
    I, J, K = (np.array(x, dtype=np.int64)
               for x in zip(*itertools.combinations(range(40), 3)))
    o = OracleState(t, model, seed=seed)
    w = np.concatenate([o.wins(I, J, K), o.wins(K, I, J), o.wins(J, K, I)])
    assert hashlib.sha256(w.tobytes()).hexdigest() == digest
    assert o.query_count == math.comb(40, 3)


def test_module_level_query_wrapper():
    t = random_tree(6, seed=2)
    o = OracleState(t, "noiseless", seed=0)
    labs = t.leaf_labels
    assert query(o, labs[0], labs[1], labs[2]) == o.query(labs[0], labs[1], labs[2])


# ---------------------------------------------------------------------- #
# Scale invariance                                                        #
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_homogeneous_scale_invariance(c):
    # power-of-two rescalings keep every distance exact, so the probability
    # vectors match bit-for-bit; other factors perturb the inputs in the
    # last place and the vectors agree to round-off
    t1 = tree_from_topology(((("a", "b"), "c"), "d"), height=1.0)
    t2 = tree_from_topology(((("a", "b"), "c"), "d"), height=c)
    exact = float(c).hex().startswith("0x1.0")
    for trip in itertools.combinations("abcd", 3):
        p1 = triple_distribution(t1, "homogeneous", *trip)
        p2 = triple_distribution(t2, "homogeneous", *trip)
        if exact:
            assert p1 == p2
        else:
            assert all(abs(x - y) <= 1e-15 for x, y in zip(p1, p2))


# ---------------------------------------------------------------------- #
# Custom models                                                           #
# ---------------------------------------------------------------------- #


def _linear_p_correct(d1, d2):
    return 1.0 / 3.0 + (d2 - d1) / (6.0 * d2)


def test_custom_model_accepted_and_used():
    m = CustomModel(_linear_p_correct, epsilon=1.0 / 13.0)
    t = random_tree(8, seed=1)
    labs = t.leaf_labels
    a, b, c = labs[0], labs[1], labs[2]
    p = triple_distribution(t, m, a, b, c)
    assert abs(sum(p) - 1.0) <= 1e-15
    o = OracleState(t, m, seed=3)
    assert o.query(a, b, c) == o.query(c, b, a)


@pytest.mark.parametrize("model", [
    "homogeneous", "noiseless", CustomModel(_linear_p_correct, epsilon=1.0 / 13.0),
])
def test_triple_distribution_argmax_is_closest_pair(model):
    # the premise of expectation-mode topology: a validated model's most
    # likely answer to every triple is its closest pair
    for seed in range(3):
        t = random_tree(12, w=0.05, seed=seed)
        for a, b, c in itertools.combinations(t.leaf_labels, 3):
            p = triple_distribution(t, model, a, b, c)
            top = ((a, b), (b, c), (c, a))[int(np.argmax(p))]
            assert tuple(sorted(top)) == closest_pair(t, a, b, c)


def test_custom_model_rejects_insensitive():
    with pytest.raises(ValueError):
        CustomModel(lambda d1, d2: 0.4, epsilon=0.05)


def test_custom_model_rejects_out_of_range():
    with pytest.raises(ValueError):
        CustomModel(lambda d1, d2: 0.2 + (d2 - d1) / (6 * d2), epsilon=0.05)


def test_custom_model_rejects_overdeclared_epsilon():
    with pytest.raises(ValueError):
        CustomModel(_linear_p_correct, epsilon=5.0)
