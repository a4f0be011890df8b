import functools
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    triple_distribution,
    tree_from_topology,
)
from tripletree.noise_oracle import _BLOCK_ROWS, _splitmix64, keyed_uniform

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
    st.tuples(st.sampled_from(["wins", "codes"]),
              st.sampled_from([1, 7, 300, _BLOCK_ROWS - 1, _BLOCK_ROWS + 5,
                               2 * _BLOCK_ROWS + 3]),
              st.sampled_from([1, 5, 60, 4000])),
    st.tuples(st.just("query"), st.just(1), st.just(1)),
    # a run of consecutive ranks, as the scoring pass asks them; the pool
    # size is how many ranks are asked beforehand: none, the rank before
    # the run, or that one and four of the run's first block
    st.tuples(st.sampled_from(["wins-ranks", "codes-ranks"]),
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
    # of consecutive ranks partly asked before, and codes, wins and query
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
            # with the rank before it.  Answering that rank first makes an
            # all-new first block write into a byte already in use; ranks
            # of the first block answered first send it down the general
            # path, and a later all-new block then shares its first byte
            # with the rows that path wrote
            rows = min(rows, n3)
            start = int(rng.integers(0, n3 - rows + 1))
            if start % 4 == 0 and start + rows < n3:
                start += 1
            pre = np.concatenate([
                [start - 1],
                start + rng.integers(0, min(rows, _BLOCK_ROWS), size=4),
            ])[:pool_size]
            i, j, k = _unrank(np.unique(pre[pre >= 0]), n)
            o.codes(i, j, k)
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
                    o.codes(i, j, k), _reference_slots(tree, model, seed, i, j, k))
            assert o.query_count == len(asked)
            # read back: every code of the run is in the store
            np.testing.assert_array_equal(
                o.codes(i, j, k), _reference_slots(tree, model, seed, i, j, k))
            assert o.query_count == len(asked)
            continue
        T = _triple_pool(rng, n, pool_size)
        T = T[rng.integers(0, len(T), size=rows)]
        asked.update(map(tuple, T.tolist()))
        if kind == "codes":
            i, j, k = T[:, 0], T[:, 1], T[:, 2]
            np.testing.assert_array_equal(
                o.codes(i, j, k), _reference_slots(tree, model, seed, i, j, k)
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


def test_rows_that_are_not_triples_raise_and_leave_the_store_alone():
    # (1, 1, 3) ranks as the triple (0, 2, 3); asking it must not answer it
    t = generate_random_ultrametric(8, 0.05, seed=0)
    o = OracleState(t, "noiseless", seed=0)
    for bad in [(1, 1, 3), (3, 1, 3), (2, 5, 5)]:
        with pytest.raises(ValueError):
            o.wins(*bad)
        with pytest.raises(ValueError):
            o.codes(*sorted(bad))
    with pytest.raises(ValueError):
        o.codes(1, 3, 2)  # codes takes canonical rows only
    with pytest.raises(ValueError):
        o.wins(-1, 2, 5)  # would rank as (0, 1, 5)
    assert o.query_count == 0
    # a batch whose second block holds (1, 1, 3): the first block's triple
    # (0, 2, 3) is answered, and answered as a fresh oracle answers it
    A = np.zeros(_BLOCK_ROWS + 5, dtype=np.int64)
    B, C = A + 2, A + 3
    A[-1] = B[-1] = 1
    with pytest.raises(ValueError):
        o.wins(A, B, C)
    assert o.query_count == 1
    assert o.query("L00", "L02", "L03") == (
        OracleState(t, "noiseless", seed=0).query("L00", "L02", "L03"))
    # expectation mode has no store, but takes rows as the store does
    eo = ExpectationOracle(t, "homogeneous")
    for bad in [(1, 1, 3), (3, 1, 3), (2, 5, 5), (-1, 2, 5)]:
        with pytest.raises(ValueError):
            eo.wins(*bad)
        with pytest.raises(ValueError):
            eo.codes(*sorted(bad))
        with pytest.raises(ValueError):
            eo.answers(*bad)
    with pytest.raises(ValueError):
        eo.codes(1, 3, 2)


@pytest.mark.parametrize("model", ["homogeneous", "noiseless"])
def test_expectation_codes_are_the_most_likely_slot(model):
    t = generate_random_ultrametric(30, 0.02, seed=2)
    I, J, K = (np.array(x, dtype=np.int64)
               for x in zip(*itertools.combinations(range(30), 3)))
    eo = ExpectationOracle(t, model)
    want = np.argmax(np.stack([eo.wins(I, J, K), eo.wins(I, K, J),
                               eo.wins(J, K, I)]), axis=0)
    np.testing.assert_array_equal(eo.codes(I, J, K), want)
    # noise-free answers of a tree: the same codes as the noiseless store
    np.testing.assert_array_equal(
        eo.codes(I, J, K), OracleState(t, "noiseless", seed=0).codes(I, J, K))


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
