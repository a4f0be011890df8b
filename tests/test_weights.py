import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletree import (
    EstimationFailure,
    ExpectationOracle,
    OracleState,
    aggregate_anchor_probs,
    anchor_estimate,
    classify_heavy,
    compute_light_tree,
    final_correction,
    from_newick,
    generate_random_ultrametric,
    height_from_prob,
    invert_F,
    reconstruct_left_heavy,
    reconstruct_right_path,
    reconstruct_weights,
    tree_from_topology,
)
from tripletree.noise_oracle import _splitmix64
from tripletree.tree_core import NO_NODE
from tripletree import weights
from tripletree.weights import WeightConfig, _WeightDriver, response_curve

from conftest import random_tree


def balanced_tree(n, prefix="t"):
    def nest(labels):
        if len(labels) == 1:
            return labels[0]
        m = len(labels) // 2
        return (nest(labels[:m]), nest(labels[m:]))

    return tree_from_topology(nest([f"{prefix}{i:03d}" for i in range(n)]))


# ---------------------------------------------------------------------- #
# Heavy classification                                                    #
# ---------------------------------------------------------------------- #


def test_classify_heavy_balanced_16():
    t = balanced_tree(16)
    info = classify_heavy(t)
    nl = t.leaf_counts()
    # alpha n + 1 = 16/6 + 1 = 3.67: every node with >= 4 leaves is heavy
    heavy_counts = sorted(int(nl[v]) for v in range(t.n_nodes) if info.heavy[v])
    assert heavy_counts == [4, 4, 4, 4, 8, 8, 16]
    assert info.path[0] == t.root
    assert info.f == 2  # root, a half, a quarter


def test_classify_heavy_two_leaves():
    t = tree_from_topology(("a", "b"))
    info = classify_heavy(t)
    assert info.f == 0
    assert len(info.path) == 2  # root then a leaf


def test_classify_heavy_caterpillar_spine():
    shape = "a0"
    for i in range(1, 12):
        shape = (f"a{i}", shape)
    t = tree_from_topology(shape)
    info = classify_heavy(t)
    nl = t.leaf_counts()
    # spine leaf counts 12, 11, ...: f is the last index with NL >= 3
    want_f = max(
        i for i, v in enumerate(info.path) if nl[v] >= 12 / 6 + 1 - 1e-9
    )
    assert info.f == want_f
    # anchors: spine vertices whose left subtree (a single leaf) passes the
    # n/(4(f+1)) cutoff; with n=12, f=9 the cutoff is 0.3, so all qualify
    assert all(size == 1 for size in info.anchor_sizes)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 300), seed=st.integers(0, 2 ** 16),
       balanced=st.booleans())
def test_no_leaf_is_heavy_and_the_path_passes_its_last_heavy_vertex(
        n, seed, balanced):
    # a leaf has nl = 1 < n/6 + 1, so path[f] is internal and the stage
    # below v_{f+1} always has a v_{f+1} to start from
    t = balanced_tree(n) if balanced else random_tree(n, w=0.001, seed=seed)
    info = classify_heavy(t)
    assert not info.heavy[t.child1 == NO_NODE].any()
    assert info.f + 1 < len(info.path)


def test_heavy_path_follows_big_child():
    t = random_tree(48, seed=2)
    info = classify_heavy(t)
    nl = t.leaf_counts()
    for parent, child in zip(info.path, info.path[1:]):
        c1, c2 = t.children(parent)
        assert nl[child] == max(nl[c1], nl[c2])


# ---------------------------------------------------------------------- #
# Primitive estimators                                                    #
# ---------------------------------------------------------------------- #


def test_height_from_prob_values():
    assert height_from_prob(1.0 / 3.0) == pytest.approx(1.0)
    assert height_from_prob(0.5) == pytest.approx(0.0)
    assert height_from_prob(0.4) == pytest.approx(0.5)


def test_height_from_prob_rejects_out_of_range():
    with pytest.raises(EstimationFailure):
        height_from_prob(0.0)
    with pytest.raises(EstimationFailure):
        height_from_prob(0.6)


def test_reconstruct_left_heavy_values():
    assert reconstruct_left_heavy(1.0 / 3.0, 0.7) == pytest.approx(0.7)
    assert reconstruct_left_heavy(0.5, 0.7) == pytest.approx(0.0)
    with pytest.raises(EstimationFailure):
        reconstruct_left_heavy(0.2, 0.7)
    with pytest.raises(EstimationFailure):
        reconstruct_left_heavy(0.4, 0.0)


def test_aggregate_anchor_probs():
    assert aggregate_anchor_probs([0.42], [17]) == pytest.approx(0.42)
    assert aggregate_anchor_probs([0.4, 0.5], [3, 3]) == pytest.approx(0.45)
    assert aggregate_anchor_probs([0.4, 0.5], [1, 3]) == pytest.approx(0.475)
    with pytest.raises(EstimationFailure):
        aggregate_anchor_probs([], [])


def test_invert_F_single_anchor():
    h, resid = invert_F(0.4, [0.5], [1.0])
    assert h == pytest.approx(0.25, abs=1e-10)
    assert resid <= 1e-12
    h, _ = invert_F(1.0 / 3.0, [0.37], [2.0])
    assert h == pytest.approx(0.37, abs=1e-10)


def test_invert_F_curve_monotone():
    b = [0.3, 0.5, 0.9]
    w = [2, 5, 1]
    assert response_curve(0.0, b, w) == pytest.approx(0.5)
    xs = np.linspace(0.0, 1.2, 25)
    vals = [response_curve(x, b, w) for x in xs]
    assert all(a > bb for a, bb in zip(vals, vals[1:]))


def test_invert_F_clamps_out_of_range_targets():
    h, _ = invert_F(0.6, [0.5], [1.0])  # above F(0) = 1/2
    assert h == 0.0
    h, _ = invert_F(0.05, [0.5], [1.0])  # below F(a_max)
    assert h == pytest.approx(2.0)  # 4 * min anchor


def test_invert_F_residual_on_random_anchor_sets():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        b = rng.uniform(0.05, 1.0, size=k)
        w = rng.integers(1, 50, size=k).astype(float)
        a_true = float(rng.uniform(0.0, 3.9 * b.min()))
        q = response_curve(a_true, b, w)
        h, resid = invert_F(q, b, w)
        assert resid <= 1e-12
        assert h == pytest.approx(a_true, abs=1e-9)


def _reference_bisect(q_hat, b, w, tol, max_iter):
    """The scalar bisection of ``invert_F``, one curve value per call."""
    def F(a):
        return response_curve(a, b, w)

    lo, hi = 0.0, 4.0 * float(np.min(b))
    f_lo = F(lo)
    f_hi = F(hi)
    if q_hat >= f_lo:
        return lo, abs(f_lo - q_hat)
    if q_hat <= f_hi:
        return hi, abs(f_hi - q_hat)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = F(mid)
        if abs(f_mid - q_hat) <= tol:
            return mid, abs(f_mid - q_hat)
        if f_mid > q_hat:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return mid, abs(F(mid) - q_hat)


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    b=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8),
    data=st.data(),
    picks=st.lists(st.tuples(
        st.sampled_from(["f0", "above", "ftop", "below", "hit", "inside"]),
        st.integers(0, 1 << 20), st.floats(0.0, 1.0)), max_size=12),
    stop=st.sampled_from([(1e-12, 200), (0.0, 0), (0.0, 1), (0.0, 7),
                          (0.0, 80), (1e-6, 30)]),
)
def test_batched_bisection_matches_the_scalar_loop(b, data, picks, stop):
    # one routine inverts every target of the aggregated stage at once; it
    # must stop where the scalar loop does, with the same bits: at both
    # clamps and beyond them, on exact hits of a midpoint, on repeats, with
    # no targets, and when ``max_iter`` runs out (tol = 0)
    w = data.draw(st.lists(st.integers(1, 500), min_size=len(b),
                           max_size=len(b)))
    tol, max_iter = stop
    top = 4.0 * min(b)
    q_hats = []
    for kind, k, u in picks:
        if kind == "f0":
            q = response_curve(0.0, b, w)
        elif kind == "above":
            q = response_curve(0.0, b, w) + u
        elif kind == "ftop":
            q = response_curve(top, b, w)
        elif kind == "below":
            q = response_curve(top, b, w) * u
        elif kind == "hit":  # the midpoint down the path of k's bits
            lo, hi = 0.0, top
            for bit in range(k % 12):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if k >> (4 + bit) & 1 else (lo, mid)
            q = response_curve(0.5 * (lo + hi), b, w)
        else:
            q = response_curve(top * u, b, w)
        q_hats += [q] * (1 + k % 2)
    got_a, got_r = weights._bisect(q_hats, *weights._curve(b, w), tol,
                                   max_iter)
    want = [_reference_bisect(q, b, w, tol, max_iter) for q in q_hats]
    assert _bits(got_a) == _bits([a for a, _ in want])
    assert _bits(got_r) == _bits([r for _, r in want])
    for q, ref in zip(q_hats[:3], want):
        assert _bits(invert_F(q, b, w, tol, max_iter)) == _bits(ref)


def test_final_correction():
    assert final_correction(0.2, [0.5, 0.4]) == 0.2
    assert final_correction(0.7, [0.5, 0.4]) == 0.4


# ---------------------------------------------------------------------- #
# Anchoring                                                               #
# ---------------------------------------------------------------------- #


@pytest.fixture()
def eight_leaf():
    nwk = (
        "(((a:0.25,b:0.25):0.25,(c:0.25,d:0.25):0.25):0.5,"
        "((e:0.25,f:0.25):0.25,(g:0.25,h:0.25):0.25):0.5);"
    )
    return from_newick(nwk)


def test_anchor_estimate_expectation_closed_form(eight_leaf):
    t = eight_leaf
    eo = ExpectationOracle(t, "homogeneous")
    v = next(
        u for u in range(t.n_nodes)
        if not t.is_leaf(u) and set(t.subtree_leaf_labels(u)) == {"a", "b"}
    )
    anchor = next(
        u for u in range(t.n_nodes)
        if set(t.subtree_leaf_labels(u)) == {"a", "b", "c", "d"}
    )
    p, k = anchor_estimate(eo, t, v, anchor)
    assert p == pytest.approx(0.5 / (2 * 0.5 + 0.25), abs=1e-15)  # = 0.4
    assert k == 2


def test_anchor_estimate_range_and_limit():
    for seed in range(4):
        t = random_tree(32, seed=seed)
        eo = ExpectationOracle(t, "homogeneous")
        nl = t.leaf_counts()
        anchor = next(
            v for v in t.topo_order()
            if not t.is_leaf(v) and v != t.root and nl[v] >= 6
        )
        c1, c2 = t.children(anchor)
        side = c1 if not t.is_leaf(c1) else c2
        if t.is_leaf(side):
            continue
        p, _ = anchor_estimate(eo, t, side, anchor)
        assert 1.0 / 3.0 - 1e-12 <= p <= 0.5 + 1e-12
    # h_v -> h_anchor makes the response approach 1/3
    t = from_newick("(((a:0.49,b:0.49):0.01,(c:0.49,d:0.49):0.01):0.5,"
                    "(e:0.75,f:0.75):0.25);")
    eo = ExpectationOracle(t, "homogeneous")
    v = next(u for u in range(t.n_nodes)
             if set(t.subtree_leaf_labels(u)) == {"a", "b"})
    anchor = next(u for u in range(t.n_nodes)
                  if set(t.subtree_leaf_labels(u)) == {"a", "b", "c", "d"})
    p, _ = anchor_estimate(eo, t, v, anchor)
    assert abs(p - 1.0 / 3.0) < 0.01


def test_anchor_unbiasedness_monte_carlo():
    # the anchored response over fresh-seed oracles averages to the exact
    # probability (the estimator is a plain mean of permanent indicators)
    t = balanced_tree(16)
    eo = ExpectationOracle(t, "homogeneous")
    v = next(u for u in range(t.n_nodes)
             if not t.is_leaf(u) and int(t.leaf_counts()[u]) == 4)
    anchor = t.root
    p_true, k = anchor_estimate(eo, t, v, anchor)
    trials = 10_000
    means = np.empty(trials)
    base_tree = t
    D = None
    for s in range(trials):
        o = OracleState(base_tree, "homogeneous", seed=s)
        if D is None:
            D = o.distances
        else:
            o._D = D  # reuse the metric; answers still depend on the seed
        p_hat, _ = anchor_estimate(o, base_tree, v, anchor)
        means[s] = p_hat
    sigma_mean = math.sqrt(p_true * (1 - p_true) / (k * trials))
    assert abs(float(means.mean()) - p_true) <= 3 * sigma_mean


@pytest.mark.parametrize("v, anchor", [
    (2, 21),  # under the root's other child: not an ancestor
    (2, 2),  # v itself
    (4, 2),  # below v
    (0, 22),  # a leaf v
    (2, 0),  # a leaf anchor
    (2, 23),  # past the last node
    (-1, 22),
], ids=["other-side", "itself", "below", "leaf-v", "leaf-anchor",
        "anchor-past-nodes", "v-below-0"])
def test_anchor_estimate_takes_a_proper_ancestor(v, anchor):
    # on this tree v=2 lies under the root's child 10 (via 4) and 21 is the
    # root's other child
    t = generate_random_ultrametric(12, 0.02, seed=1)
    assert t.children(t.root) == (10, 21) and t.parent[2] == 4
    eo = ExpectationOracle(t, "homogeneous")
    with pytest.raises(ValueError):
        anchor_estimate(eo, t, v, anchor)
    for above in (4, 10, t.root):
        p, k = anchor_estimate(eo, t, 2, above)
        assert 1.0 / 3.0 - 1e-12 <= p <= 0.5 + 1e-12 and k >= 1


# ---------------------------------------------------------------------- #
# Pipeline pieces                                                         #
# ---------------------------------------------------------------------- #


def test_compute_light_tree_expectation_exact():
    for seed in range(5):
        t = random_tree(32, w=0.03, seed=seed)
        eo = ExpectationOracle(t, "homogeneous")
        out = compute_light_tree(eo, t)
        light, _ = t.ordered_children(t.root)
        for v, est in out.items():
            assert est.value == pytest.approx(float(t.height[v]), abs=1e-12)
        # every internal vertex of the light side is covered, leaves skipped
        want = {
            u for u in range(t.n_nodes)
            if not t.is_leaf(u)
            and set(t.subtree_leaf_labels(u)) <= set(t.subtree_leaf_labels(light))
        }
        assert set(out) == want


def test_compute_light_tree_sampled_accuracy():
    n = 2048
    t = random_tree(n, w=0.004, seed=3)
    o = OracleState(t, "homogeneous", seed=3)
    out = compute_light_tree(o, t)
    if not out:
        pytest.skip("light side of this draw has no internal vertex")
    alpha = 1.0 / 6.0
    bound = 12 * 4 * math.sqrt(math.log(n) / (alpha * n))
    errors = np.array(
        [abs(est.value - float(t.height[v])) for v, est in out.items()]
    )
    assert float(np.mean(errors <= bound)) >= 0.99
    assert float(np.median(errors)) <= 0.1


def test_reconstruct_right_path_expectation_exact():
    for seed in (0, 5, 9):
        t = random_tree(48, w=0.02, seed=seed)
        eo = ExpectationOracle(t, "homogeneous")
        out = reconstruct_right_path(eo, t)
        assert out[t.root].value == 1.0
        for v, est in out.items():
            assert est.value == pytest.approx(float(t.height[v]), abs=1e-12)


def test_cross_pair_enumeration_covers_alpha_n():
    t = balanced_tree(64)
    info = classify_heavy(t)
    cfg = WeightConfig()
    nl = t.leaf_counts()
    n = 64
    for idx in range(1, info.f + 1):
        v = info.path[idx]
        c1, c2 = t.children(v)
        cap = max(4 * n, 64) if cfg.pair_cap is None else cfg.pair_cap
        pairs = min(int(nl[c1]) * int(nl[c2]), cap)
        assert pairs >= math.floor(1.0 / 6.0 * int(nl[v]))


# ---------------------------------------------------------------------- #
# Full weight reconstruction                                              #
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("n,seed", [(16, 0), (32, 3), (64, 6), (64, 11)])
def test_reconstruct_weights_expectation_exact(n, seed):
    t = random_tree(n, w=0.05, seed=seed)
    eo = ExpectationOracle(t, "homogeneous")
    he = reconstruct_weights(eo, t)
    assert he.max_abs_weight_error(t) <= 1e-9


def test_reconstruct_weights_two_leaves():
    t = random_tree(2, w=0.5, seed=0)
    o = OracleState(t, "homogeneous", seed=0)
    he = reconstruct_weights(o, t)
    assert he.max_abs_weight_error(t) == 0.0
    # the heavy path holds no internal vertex below the root
    assert list(reconstruct_right_path(o, t)) == [t.root]
    assert o.query_count == 0


def test_reconstruct_weights_balanced_is_all_fine_class():
    t = balanced_tree(32)
    eo = ExpectationOracle(t, "homogeneous")
    he = reconstruct_weights(eo, t)
    classes = {e.error_class for v, e in he.by_node.items()
               if not t.is_leaf(v) and v != t.root}
    assert classes == {"fine"}


def test_reconstruct_weights_coarse_class_when_path_ends_light():
    # a shape whose heavy path dives into a small subtree: vertices below
    # the last heavy vertex must carry the coarse error class
    found = False
    for seed in range(30):
        t = random_tree(64, w=0.01, seed=seed)
        info = classify_heavy(t)
        if info.f + 1 < len(info.path) and not t.is_leaf(info.path[info.f + 1]):
            eo = ExpectationOracle(t, "homogeneous")
            he = reconstruct_weights(eo, t)
            classes = [e.error_class for e in he.by_node.values()]
            if "coarse" in classes:
                found = True
                assert he.max_abs_weight_error(t) <= 1e-9
                break
    assert found


def test_reconstruct_weights_monotone_heights():
    for seed in range(4):
        t = random_tree(48, w=0.02, seed=seed)
        o = OracleState(t, "homogeneous", seed=seed)
        he = reconstruct_weights(o, t)
        for v in range(t.n_nodes):
            p = int(t.parent[v])
            if p >= 0:
                assert he.by_node[v].value <= he.by_node[p].value + 1e-15
                assert he.edge_weights[v] >= -1e-15
        leaves = [v for v in range(t.n_nodes) if t.is_leaf(v)]
        assert all(he.by_node[v].value == 0.0 for v in leaves)
        assert he.by_node[t.root].value == 1.0


def test_reconstruct_weights_sampled_error_report():
    # seed 0 at this size yields a heavy path that ends in a light subtree
    # with dozens of aggregated-anchor (coarse) vertices.  At desk scale
    # the asymptotic fine-vs-coarse ordering is not observable (coarse
    # vertices sit deep, with tiny heights and the anchor clamp), so this
    # checks the per-class empirical residuals are reported and bounded
    # rather than asserting the constant-regime ordering.
    n = 512
    t = random_tree(n, w=0.01, seed=0)
    o = OracleState(t, "homogeneous", seed=0)
    he = reconstruct_weights(o, t)
    fine = [abs(e.value - float(t.height[v]))
            for v, e in he.by_node.items() if e.error_class == "fine"]
    coarse = [abs(e.value - float(t.height[v]))
              for v, e in he.by_node.items() if e.error_class == "coarse"]
    assert len(coarse) >= 10 and len(fine) >= 100
    fine_bound = 12 * 4 * math.sqrt(math.log(n) / (n / 6.0))
    coarse_bound = 4 * math.log(n) / math.sqrt(n)
    assert float(np.quantile(fine, 0.95)) <= fine_bound
    assert float(np.quantile(coarse, 0.95)) <= coarse_bound


def test_estimated_tree_round_trip():
    t = random_tree(24, w=0.05, seed=2)
    eo = ExpectationOracle(t, "homogeneous")
    he = reconstruct_weights(eo, t)
    est = he.estimated_tree()
    from tripletree import topology_equal

    assert topology_equal(est, t)
    assert est.height[est.root] == pytest.approx(1.0)


@pytest.mark.parametrize("cap", [0, -5])
def test_pair_cap_below_one_raises(cap):
    t = random_tree(16, seed=0)
    eo = ExpectationOracle(t, "homogeneous")
    with pytest.raises(ValueError, match="pair_cap"):
        reconstruct_weights(eo, t, WeightConfig(pair_cap=cap))


def test_pair_cap_one_asks_one_pair_per_path_vertex():
    t = random_tree(48, w=0.02, seed=5)
    eo = ExpectationOracle(t, "homogeneous")
    rows = _count_rows(eo, "pair_wins")
    out = reconstruct_right_path(eo, t, WeightConfig(pair_cap=1))
    assert sum(rows) == len(out) - 1  # every estimate but the root's
    for v, est in out.items():
        assert est.value == pytest.approx(float(t.height[v]), abs=1e-12)


# ---------------------------------------------------------------------- #
# Block reads                                                             #
# ---------------------------------------------------------------------- #


class _PerRequest(_WeightDriver):
    """The weight driver with one ``wins`` call per vertex and anchor."""

    def _responses(self, vertices, witnesses, spans=None):
        spans = spans or [(0, len(witnesses))]
        out = np.empty((len(vertices), len(spans)))
        for r, v in enumerate(vertices):
            (a,), (b,) = self._rep_pairs([v])
            for s, (lo, hi) in enumerate(spans):
                far = np.asarray(witnesses[lo:hi], dtype=np.int64)
                L = len(far)
                out[r, s] = float(np.mean(
                    self.oracle.wins(np.full(L, a), np.full(L, b), far)))
        return out

    def _cross_responses(self, vertices, witness):
        out = []
        for v in vertices:
            A, B = self._cross_pairs(v)
            w = self.oracle.wins(A, B, np.full(len(A), witness))
            out.append(float(np.mean(w)))
        return out


def _count_rows(oracle, reader):
    """
    Wrap the oracle's ``wins`` or ``pair_wins``; the returned list gets
    each call's row count (pairs times witnesses for ``pair_wins``).
    """
    rows = []
    read = getattr(oracle, reader)

    def counted(*args):
        rows.append(np.broadcast(*args).size if reader == "wins"
                    else np.size(args[0]) * np.size(args[2]))
        return read(*args)

    setattr(oracle, reader, counted)
    return rows


def _make_oracle(tree, source, seed):
    if source == "expectation":
        return ExpectationOracle(tree, "homogeneous")
    return OracleState(tree, source, seed=seed)


def _caterpillar(n):
    plan = "L0"
    for i in range(1, n):
        plan = (f"L{i}", plan)
    return tree_from_topology(plan)


def _blocked_and_reference(tree, source, seed, cfg=None):
    """
    Every estimate field of the block-reading driver and of the
    per-request reference, each on a fresh oracle under ``cfg``, with their
    ``query_count`` and the calls of their readers: ``pair_wins`` for the
    driver (which makes no ``wins`` call), ``wins`` for the reference.
    """
    out = []
    for cls, reader in ((_WeightDriver, "pair_wins"), (_PerRequest, "wins")):
        o = _make_oracle(tree, source, seed)
        calls = _count_rows(o, reader)
        flat = _count_rows(o, "wins") if reader == "pair_wins" else []
        he = cls(o, tree, cfg or WeightConfig()).run()
        assert flat == []
        out.append((_estimate_fields(he), o.query_count, len(calls)))
    return out


def _estimate_fields(he):
    """Every field of every vertex estimate, with its edge weight."""
    return [
        (v, repr(e.value), e.error_class, e.method, e.warnings,
         repr(e.residual), repr(he.edge_weights.get(v)))
        for v, e in sorted(he.by_node.items())
    ]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(5, 120),
    shape=st.sampled_from(["random", "caterpillar"]),
    tree_seed=st.integers(0, 10_000),
    source=st.sampled_from(["expectation", "homogeneous", "noiseless"]),
    chunk=st.integers(1, 40),
    pair_cap=st.sampled_from([1, 7, None]),
)
def test_block_reads_match_per_request_reference(n, shape, tree_seed,
                                                 source, chunk, pair_cap):
    # a chunk of a few rows splits every stage's block between vertices;
    # the heavy path's one cross read holds pair_cap pairs a vertex
    tree = random_tree(n, w=0.01, seed=tree_seed) if shape == "random" \
        else _caterpillar(n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_CHUNK_ROWS", chunk)
        try:
            (got, got_q, _), (want, want_q, _) = _blocked_and_reference(
                tree, source, tree_seed, WeightConfig(pair_cap=pair_cap))
        except EstimationFailure:
            return
    assert got == want
    assert got_q == want_q


def _shuffled_tree(n, seed):
    """A random topology whose labels are out of depth-first order."""
    rng = np.random.default_rng(seed)
    labels = [f"x{i:02d}" for i in rng.permutation(n)]

    def split(part):
        if len(part) == 1:
            return part[0]
        cut = int(rng.integers(1, len(part)))
        return (split(part[:cut]), split(part[cut:]))

    return tree_from_topology(split(labels))


def test_driver_node_sets_match_the_topology():
    # the driver's leafsets, smallest leaves and internal nodes come from
    # one depth-first order; on labels out of that order they must still
    # be the sorted leaf indices, their first entry, and the sorted
    # internal nodes of each subtree
    for seed in range(4):
        t = _shuffled_tree(30, seed)
        o = ExpectationOracle(t, "homogeneous")
        drv = _WeightDriver(o, t, WeightConfig())
        for v in range(t.n_nodes):
            want = sorted(o.index_of[lab] for lab in t.subtree_leaf_labels(v))
            assert drv.leafset(v).tolist() == want
            assert drv.min_leaf[v] == want[0]
            under, stack = [], [v]
            while stack:
                u = stack.pop()
                if not t.is_leaf(u):
                    under.append(u)
                    stack.extend(t.children(u))
            assert drv._internal_under(v) == sorted(under)


def test_wins_calls_on_a_400_leaf_caterpillar():
    (got, _, calls), (want, _, ref_calls) = _blocked_and_reference(
        _caterpillar(400), "expectation", 0)
    assert got == want
    assert calls < 50
    assert ref_calls > 20_000


def test_wins_calls_on_the_sampled_323_tree():
    tree = generate_random_ultrametric(323, 0.004, seed=1)
    (got, got_q, calls), (want, want_q, ref_calls) = _blocked_and_reference(
        tree, "homogeneous", 1)
    assert got == want
    assert got_q == want_q
    assert calls <= 20
    assert ref_calls > 300


def test_expectation_weights_pinned_on_the_2048_leaf_tree():
    # every estimate field of the benchmark's n=2048 expectation cell, as
    # the per-row ``wins`` driver gave them
    t = generate_random_ultrametric(2048, 0.004, seed=0)
    he = reconstruct_weights(ExpectationOracle(t, "homogeneous"), t)
    digest = hashlib.sha256(repr(_estimate_fields(he)).encode()).hexdigest()
    assert digest == \
        "f82939deb41c370e0df835c0aedbfdd6c7cc61d45785955154cc533f4f23d3bd"


def test_aggregated_stage_evaluates_each_midpoint_once(monkeypatch):
    # every vertex below v_{f+1} bisects from the same bracket, all of them
    # together: each curve call (the bracket, then one per level) evaluates
    # distinct points, and each vertex gets what ``invert_F`` gives it
    points, curves, bisects = [], [], []
    curve, bisect = weights._curve, weights._bisect

    def counted_curve(heights, wts):
        F, top = curve(heights, wts)
        curves.append((list(heights), list(wts)))

        def G(a):
            points.append(a.copy())
            return F(a)

        return G, top

    def recorded_bisect(q_hats, *args):
        out = bisect(q_hats, *args)
        bisects.append((list(q_hats), args[2:], out))
        return out

    t = random_tree(200, w=0.002, seed=2)
    with monkeypatch.context() as mp:
        mp.setattr(weights, "_curve", counted_curve)
        mp.setattr(weights, "_bisect", recorded_bisect)
        got = reconstruct_weights(ExpectationOracle(t, "homogeneous"), t)
    coarse = [e for e in got.by_node.values()
              if e.method == "aggregated-anchors"]
    assert len(coarse) > 10
    (heights, wts), = curves
    (q_hats, (tol, max_iter), (a, resid)), = bisects
    assert len(q_hats) == len(coarse)
    # one call for the bracket and one per level, each point once
    assert len(points) <= 2 + max_iter
    assert all(len(np.unique(p)) == len(p) for p in points)
    assert sum(len(p) for p in points) < len(coarse) * (len(points) - 1)
    want = [invert_F(q, heights, wts, tol, max_iter) for q in q_hats]
    assert _bits(a) == _bits([h for h, _ in want])
    assert _bits(resid) == _bits([r for _, r in want])
    assert [e.residual for e in coarse] == [r for _, r in want]
    for e, (h, _) in zip(coarse, want):
        if "clamped-to-parent" not in e.warnings:
            assert e.value == final_correction(h, heights)
