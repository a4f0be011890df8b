import hashlib
import itertools
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletree import (
    CorruptTreeError,
    ExpectationOracle,
    InfeasibleTreeError,
    NewickParseError,
    OracleState,
    bucket_partition,
    closest_pair,
    from_newick,
    generate_random_ultrametric,
    induced_topology,
    quotient,
    to_newick,
    topology_equal,
    tree_from_topology,
    triplet_agreement,
    validate_ultrametric,
)
from tripletree import noise_oracle
from tripletree.topology import graft_plan
from tripletree.tree_core import (NO_NODE, Tree, _canonical_shape,
                                  _closest_codes, map_plan)

from conftest import random_tree


# ---------------------------------------------------------------------- #
# Generator                                                               #
# ---------------------------------------------------------------------- #


def test_generator_two_leaves_is_unit_cherry():
    t = generate_random_ultrametric(2, 0.5, seed=0)
    assert t.n_leaves == 2
    weights = sorted(float(t.weight[v]) for v in range(t.n_nodes) if v != t.root)
    assert weights == [1.0, 1.0]


def test_generator_infeasible_min_weight():
    # depth >= 2 forces some root-leaf path of weight >= 1.2
    for seed in range(3):
        with pytest.raises(InfeasibleTreeError):
            generate_random_ultrametric(4, 0.6, seed=seed)


def test_generator_output_validates():
    t = generate_random_ultrametric(64, 0.01, seed=7)
    report = validate_ultrametric(t, tol=1e-12)
    assert report.ok, report.violations


@pytest.mark.parametrize("n,w", [(16, 0.05), (33, 0.03), (128, 0.02), (256, 0.1)])
def test_generator_respects_min_weight(n, w):
    t = generate_random_ultrametric(n, w, seed=1)
    assert t.n_leaves == n
    non_root = [v for v in range(t.n_nodes) if v != t.root]
    assert float(t.weight[non_root].min()) >= w - 1e-12
    assert validate_ultrametric(t, tol=1e-9).ok


def test_generator_deterministic_per_seed():
    a = generate_random_ultrametric(32, 0.02, seed=5)
    b = generate_random_ultrametric(32, 0.02, seed=5)
    assert to_newick(a) == to_newick(b)
    c = generate_random_ultrametric(32, 0.02, seed=6)
    assert to_newick(a) != to_newick(c)


def test_generator_matches_the_pinned_digest():
    # the Newick, parent links and heights of every (n, w, seed) cell, or
    # its error text.  At w = (1 + 5e-11) / k the depth budget is k edges
    # but a path of k edges weighs more than 1, so draws of depth k are
    # rejected and retried; at n 15 and 16 with k = 5, and n 33 and 64
    # with k = 7, almost no draw is shallow enough and 1000 attempts run out.
    h = hashlib.sha256()
    ws = (0.001, 0.05, 0.125, 0.25, 0.34, 0.5) + tuple(
        (1 + 5e-11) / k for k in range(3, 8))
    for n in list(range(2, 21)) + [33, 64, 100]:
        for w in ws:
            for seed in range(3):
                try:
                    t = generate_random_ultrametric(n, w, seed)
                except InfeasibleTreeError as exc:
                    h.update(str(exc).encode())
                    continue
                h.update(to_newick(t).encode())
                h.update(t.parent.tobytes() + t.height.tobytes())
    assert h.hexdigest() == (
        "98d5e126a6d11c6cacec196f0dec41cfda15620ee82ce1f8f2604ef6da75aaeb")


# ---------------------------------------------------------------------- #
# Distances and closest pair                                              #
# ---------------------------------------------------------------------- #


def test_leaf_distance_cherry(cherry):
    assert cherry.leaf_distance("a", "b") == pytest.approx(2.0)
    with pytest.raises(ValueError):
        cherry.leaf_distance("a", "a")
    with pytest.raises(KeyError):
        cherry.leaf_distance("a", "zz")


def test_top_two_distances_equal_every_triple():
    t = random_tree(32, seed=3)
    labs = t.leaf_labels
    for a, b, c in itertools.combinations(labs, 3):
        d = sorted(
            (t.leaf_distance(a, b), t.leaf_distance(b, c), t.leaf_distance(c, a))
        )
        assert d[1] == pytest.approx(d[2], abs=1e-12)
        assert d[0] < d[1] - 1e-12


def test_closest_pair_examples(three_leaf):
    assert closest_pair(three_leaf, "a", "b", "c") == ("a", "b")
    # argument order irrelevant
    assert closest_pair(three_leaf, "c", "a", "b") == ("a", "b")
    with pytest.raises(ValueError):
        closest_pair(three_leaf, "a", "a", "b")


def test_closest_pair_matches_brute_force():
    t = random_tree(16, seed=2)
    for a, b, c in itertools.combinations(t.leaf_labels, 3):
        dists = {
            (x, y): t.leaf_distance(x, y)
            for x, y in itertools.combinations(sorted((a, b, c)), 2)
        }
        want = min(dists, key=dists.get)
        assert closest_pair(t, a, b, c) == want


def test_closest_pair_degenerate_tree_reports_corrupt():
    # a zero-weight edge puts one cherry at the root's own height, so all
    # three pairwise distances of (a, c, d) tie exactly
    t = from_newick("((a:1,b:1):0,(c:1,d:1):0);")
    with pytest.raises(CorruptTreeError):
        closest_pair(t, "a", "c", "d")


def test_node_orders_reject_a_node_reached_twice():
    # node 1's children are the root and node 2, so the walk from the root
    # would come back to it without end
    t = Tree([-1, 0, 0], [1, 0, -1], [2, 2, -1], [1.0, 0.5, 0.0],
             [0.0, 0.5, 1.0], [None, None, "a"])
    for order in (t.topo_order, t.leaf_counts, t.depths):
        with pytest.raises(CorruptTreeError):
            order()


def test_layout_readers_reject_a_corrupt_tree():
    twice = Tree([-1, 0, 0], [1, 0, -1], [2, 2, -1], [1.0, 0.5, 0.0],
                 [0.0, 0.5, 1.0], [None, None, "a"])
    # leaf c names the root as its parent, but the root's children are a, b
    apart = Tree([-1, 0, 0, 0], [1, -1, -1, -1], [2, -1, -1, -1],
                 [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 1.0],
                 [None, "a", "b", "c"])
    for t in (twice, apart):
        for read in (t.layout, t.distance_matrix,
                     lambda: t.subtree_leaf_labels(t.root)):
            with pytest.raises(CorruptTreeError):
                read()


def _reference_distance_matrix(tree):
    """The per-node fill: two ``np.ix_`` writes over concatenated leaf sets."""
    n = tree.n_leaves
    pos = np.full(tree.n_nodes, -1, dtype=np.int64)
    pos[tree.leaf_nodes] = np.arange(n)
    D = np.zeros((n, n), dtype=np.float64)
    sets = [None] * tree.n_nodes
    for v in tree.topo_order()[::-1]:
        v = int(v)
        if tree.is_leaf(v):
            sets[v] = np.array([pos[v]], dtype=np.int64)
        else:
            a, b = tree.children(v)
            sa, sb = sets[a], sets[b]
            D[np.ix_(sa, sb)] = 2.0 * tree.height[v]
            D[np.ix_(sb, sa)] = 2.0 * tree.height[v]
            sets[v] = np.concatenate([sa, sb])
            sets[a] = sets[b] = None
    return D


def _reference_leaf_labels(tree, v):
    out, stack = [], [int(v)]
    while stack:
        u = stack.pop()
        if tree.is_leaf(u):
            out.append(tree.labels[u])
        else:
            stack += tree.children(u)
    return sorted(out)


def _layout_tree(n, seed, form):
    """
    A generated tree (labels in depth-first order), the same tree with its
    labels permuted away from that order, or the tree with the children of
    a random set of nodes swapped and read back from its Newick string.
    """
    t = generate_random_ultrametric(n, 0.005, seed=seed)
    rng = np.random.default_rng(seed)
    if form == "shuffled":
        perm = rng.permutation(n)
        if (perm == np.arange(n)).all():
            perm = perm[::-1]
        labels = list(t.labels)
        for u, lab in zip(t.leaf_nodes.tolist(), np.array(t.leaf_labels)[perm]):
            labels[u] = str(lab)
        return Tree(t.parent, t.child1, t.child2, t.height, t.weight, labels)
    if form == "newick-swapped":
        swap = rng.random(t.n_nodes) < 0.5
        c1 = np.where(swap, t.child2, t.child1)
        c2 = np.where(swap, t.child1, t.child2)
        swapped = Tree(t.parent, c1, c2, t.height, t.weight, t.labels)
        return from_newick(to_newick(swapped))
    return t


_FORMS = st.sampled_from(["generated", "shuffled", "newick-swapped"])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 120), seed=st.integers(0, 2 ** 32 - 1), form=_FORMS)
def test_distance_matrix_is_byte_equal_to_the_per_node_fill(n, seed, form):
    t = _layout_tree(n, seed, form)
    if form == "shuffled":  # the gather to sorted label order runs
        assert (t.layout().ranks != np.arange(n)).any()
    D = t.distance_matrix()
    assert D.dtype == np.float64 and D.shape == (n, n)
    assert D.tobytes() == _reference_distance_matrix(t).tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 120), seed=st.integers(0, 2 ** 32 - 1), form=_FORMS)
def test_layout_slices_hold_each_clade_in_preorder(n, seed, form):
    t = _layout_tree(n, seed, form)
    pre, first, ranks = t.layout()
    nl = t.leaf_counts()
    assert sorted(ranks.tolist()) == list(range(n))
    assert pre[t.root] == 0 and sorted(pre.tolist()) == list(range(t.n_nodes))
    for v in range(t.n_nodes):
        below, stack = [], [v]
        while stack:
            u = stack.pop()
            below.append(u)
            if not t.is_leaf(u):
                stack += t.children(u)
        # v comes first and its subtree fills the places after it
        assert sorted(pre[below].tolist()) == list(range(pre[v], pre[v] + len(below)))
        if not t.is_leaf(v):
            a, b = t.children(v)
            assert pre[a] == pre[v] + 1 and pre[b] == pre[a] + 2 * nl[a] - 1
        want = sorted(t.leaf_labels.index(t.labels[u]) for u in below
                      if t.is_leaf(u))
        assert sorted(ranks[first[v]:first[v] + nl[v]].tolist()) == want
        assert t.subtree_leaf_labels(v) == _reference_leaf_labels(t, v)


def _reference_ordered_children(tree, v):
    """The label-list tie rule: the child with the smaller first label goes left."""
    a, b = tree.children(v)
    nl = tree.leaf_counts()
    if nl[a] != nl[b]:
        return (a, b) if nl[a] < nl[b] else (b, a)
    if min(tree.subtree_leaf_labels(a)) < min(tree.subtree_leaf_labels(b)):
        return a, b
    return b, a


def _reference_lca(tree, u, v):
    """Climb by edge depth: the deeper node first, then both together."""
    d = tree.depths()
    while d[u] > d[v]:
        u = tree.parent[u]
    while d[v] > d[u]:
        v = tree.parent[v]
    while u != v:
        u, v = tree.parent[u], tree.parent[v]
    return int(u)


def _reference_canonical_shape(tree):
    """The rows of ``_canonical_shape`` from a bottom-up loop over the nodes."""
    order = tree.topo_order()[::-1]
    inner = order[tree.child1[order] != NO_NODE]
    c1, c2 = tree.child1.tolist(), tree.child2.tolist()
    lo = [0] * tree.n_nodes
    size = [1] * tree.n_nodes
    for rank, v in enumerate(tree.leaf_nodes.tolist()):
        lo[v] = rank
    for v in inner.tolist():
        a, b = c1[v], c2[v]
        lo[v] = lo[a] if lo[a] < lo[b] else lo[b]
        size[v] = size[a] + size[b]
    lo, size = np.asarray(lo, dtype=np.int64), np.asarray(size, dtype=np.int64)
    lo2 = np.maximum(lo[tree.child1[inner]], lo[tree.child2[inner]])
    key = lo[inner] * (tree.n_leaves + 1) + size[inner]
    idx = np.argsort(key)
    return key[idx].tobytes() + lo2[idx].tobytes()


def _fact_tree(n, seed, form):
    """A ``_layout_tree``, or a balanced tree or caterpillar on permuted labels."""
    if form not in ("balanced", "caterpillar"):
        return _layout_tree(n, seed, form)
    names = [f"t{i}" for i in np.random.default_rng(seed).permutation(n)]
    if form == "caterpillar":
        return _caterpillar(names, alternate=seed % 2 == 1)

    def nest(labels):
        if len(labels) == 1:
            return labels[0]
        m = len(labels) // 2
        return (nest(labels[:m]), nest(labels[m:]))

    return tree_from_topology(nest(names))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 120), seed=st.integers(0, 2 ** 32 - 1),
       form=st.sampled_from(["generated", "shuffled", "newick-swapped",
                             "balanced", "caterpillar"]))
def test_per_node_facts_match_the_references(n, seed, form):
    t = _fact_tree(n, seed, form)
    rank = {lab: r for r, lab in enumerate(t.leaf_labels)}
    min_leaf = t.min_leaf()
    assert min_leaf.dtype == np.int64 and min_leaf.shape == (t.n_nodes,)
    for v in range(t.n_nodes):
        assert min_leaf[v] == rank[t.subtree_leaf_labels(v)[0]]
        if not t.is_leaf(v):
            assert t.ordered_children(v) == _reference_ordered_children(t, v)
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, t.n_nodes, size=(300, 2)).tolist()
    pairs += [(v, v) for v in range(0, t.n_nodes, 7)]
    pairs += [(v, int(t.parent[v])) for v in range(t.n_nodes) if v != t.root]
    for u, v in pairs:
        assert t.lca(u, v) == _reference_lca(t, u, v)
    assert _canonical_shape(t) == _reference_canonical_shape(t)


def test_a_pickled_tree_leaves_its_caches_behind():
    # trees come back from worker processes; their cached tables would
    # double the payload
    t = random_tree(40, seed=3)
    fresh = pickle.dumps(t)
    tables = (t.depths(), t.leaf_counts(), *t.layout(), t.min_leaf())
    assert pickle.dumps(t) == fresh
    copy = pickle.loads(fresh)
    assert copy._cache == {}
    again = (copy.depths(), copy.leaf_counts(), *copy.layout(), copy.min_leaf())
    for a, b in zip(tables, again):
        assert a.tobytes() == b.tobytes()


def test_distance_matrix_matches_leaf_distance():
    t = random_tree(24, seed=4)
    D = t.distance_matrix()
    labs = t.leaf_labels
    for i, j in itertools.combinations(range(len(labs)), 2):
        assert D[i, j] == pytest.approx(t.leaf_distance(labs[i], labs[j]), abs=1e-15)


# ---------------------------------------------------------------------- #
# Buckets                                                                 #
# ---------------------------------------------------------------------- #


def test_bucket_partition_root_child_single_bucket():
    t = tree_from_topology((("a", "b"), ("c", "d")))
    left = next(
        v for v in range(t.n_nodes)
        if not t.is_leaf(v) and set(t.subtree_leaf_labels(v)) == {"a", "b"}
    )
    part = bucket_partition(t, left)
    assert part.buckets == [["c", "d"]]


def test_bucket_partition_rejects_root():
    t = tree_from_topology(("a", "b"))
    with pytest.raises(ValueError):
        bucket_partition(t, t.root)


def test_bucket_count_equals_depth():
    t = random_tree(32, seed=9)
    depths = t.depths()
    for v in range(t.n_nodes):
        if v == t.root:
            continue
        part = bucket_partition(t, v)
        assert len(part.buckets) == int(depths[v])


def test_bucket_order_consistent_with_distances():
    t = random_tree(20, seed=11)
    for v in range(t.n_nodes):
        if v == t.root:
            continue
        part = bucket_partition(t, v)
        base = t.subtree_leaf_labels(v)
        for z in base[:2]:
            for i, j in itertools.combinations(range(len(part.buckets)), 2):
                for x in part.buckets[i][:2]:
                    for y in part.buckets[j][:2]:
                        assert t.leaf_distance(z, x) < t.leaf_distance(z, y)
        union = sorted(lab for b in part.buckets for lab in b)
        assert union == sorted(set(t.leaf_labels) - set(base))


# ---------------------------------------------------------------------- #
# Induced topology and quotient                                           #
# ---------------------------------------------------------------------- #


def test_induced_full_set_identity():
    t = random_tree(12, seed=1)
    assert topology_equal(t, induced_topology(t, t.leaf_labels))


def test_induced_pair_is_cherry_with_distance_preserved():
    t = random_tree(12, seed=1)
    a, b = t.leaf_labels[2], t.leaf_labels[7]
    sub = induced_topology(t, [a, b])
    assert sub.n_leaves == 2
    assert sub.leaf_distance(a, b) == pytest.approx(t.leaf_distance(a, b), abs=1e-15)


def test_induced_preserves_all_pairwise_distances():
    t = random_tree(32, seed=6)
    subset = t.leaf_labels[::3]
    sub = induced_topology(t, subset)
    for a, b in itertools.combinations(subset, 2):
        assert sub.leaf_distance(a, b) == pytest.approx(
            t.leaf_distance(a, b), abs=1e-12
        )
    assert validate_ultrametric(sub, tol=1e-9, expected_height=float(
        sub.height[sub.root])).ok


def test_induced_too_small():
    t = random_tree(8, seed=0)
    with pytest.raises(ValueError):
        induced_topology(t, [t.leaf_labels[0]])


def test_quotient_by_leaf_is_identity():
    t = random_tree(10, seed=3)
    leaf = t.node_of(t.leaf_labels[4])
    q, rep_map = quotient(t, leaf)
    assert topology_equal(t, q)
    assert rep_map == {t.leaf_labels[4]: [t.leaf_labels[4]]}


def test_quotient_of_cherry_in_balanced_four():
    t = tree_from_topology((("a", "b"), ("c", "d")))
    v = next(
        u for u in range(t.n_nodes)
        if not t.is_leaf(u) and set(t.subtree_leaf_labels(u)) == {"c", "d"}
    )
    q, rep_map = quotient(t, v)
    assert q.n_leaves == 3
    assert rep_map == {"c": ["c", "d"]}
    assert set(q.leaf_labels) == {"a", "b", "c"}


def test_quotient_preserves_surviving_distances():
    t = random_tree(24, seed=8)
    internal = [
        v for v in range(t.n_nodes) if not t.is_leaf(v) and v != t.root
    ]
    for v in internal[::4]:
        q, rep_map = quotient(t, v)
        rep = next(iter(rep_map))
        survivors = [lab for lab in q.leaf_labels if lab != rep]
        for a, b in itertools.combinations(survivors[:6], 2):
            assert q.leaf_distance(a, b) == pytest.approx(
                t.leaf_distance(a, b), abs=1e-12
            )
        # the representative keeps its own distances to outsiders too
        for b in survivors[:6]:
            assert q.leaf_distance(rep, b) == pytest.approx(
                t.leaf_distance(rep, b), abs=1e-12
            )


def test_quotient_rejects_root():
    t = random_tree(6, seed=0)
    with pytest.raises(ValueError):
        quotient(t, t.root)


def test_quotient_then_induced_commutes():
    t = random_tree(16, seed=13)
    internal = [
        v for v in range(t.n_nodes) if not t.is_leaf(v) and v != t.root
    ]
    for v in internal[::2]:
        q, rep_map = quotient(t, v)
        rep = next(iter(rep_map))
        direct = induced_topology(t, [rep] + [
            lab for lab in t.leaf_labels if lab not in rep_map[rep]
        ])
        assert topology_equal(q, direct)


# ---------------------------------------------------------------------- #
# Plans                                                                   #
# ---------------------------------------------------------------------- #


def test_map_plan_folds_left_child_first():
    seen = []

    def leaf(x):
        seen.append(x)
        return x

    def node(l, r):
        seen.append((l, r))
        return f"{l}{r}"

    assert map_plan((("a", "b"), ("c", ("d", "e"))), leaf, node) == "abcde"
    assert seen == ["a", "b", ("a", "b"), "c", "d", "e", ("d", "e"),
                    ("c", "de"), ("ab", "cde")]
    assert map_plan("a", leaf, node) == "a"


def test_tree_from_topology_labels_leaves_with_str():
    t = tree_from_topology(((0, 1), 2), height=2.0)
    assert t.leaf_labels == ["0", "1", "2"]
    assert t.leaf_distance("0", "1") == pytest.approx(2.0)
    assert t.leaf_distance("0", "2") == pytest.approx(4.0)
    with pytest.raises(ValueError):
        tree_from_topology("a")


def test_deep_caterpillar_plan_needs_no_recursion():
    # 1500 leaves nested 1499 deep: past the interpreter's recursion limit
    n = 1500
    names = [f"L{i:04d}" for i in range(n)]
    plan = names[0]
    for lab in names[1:]:
        plan = (lab, plan)
    t = tree_from_topology(plan)
    assert t.n_leaves == n
    assert int(t.depths().max()) == n - 1
    assert validate_ultrametric(t, tol=1e-9).ok
    assert t.leaf_distance(names[0], names[1]) == pytest.approx(2.0 / (n - 1))

    # collapse the clade of the 10 deepest leaves
    v = t.parent[t.node_of(names[9])]
    q, rep_map = quotient(t, v)
    assert rep_map == {names[0]: sorted(names[:10])}
    assert q.n_leaves == n - 9
    for a, b in [(names[0], names[10]), (names[0], names[-1]),
                 (names[10], names[11])]:
        assert q.leaf_distance(a, b) == pytest.approx(t.leaf_distance(a, b))

    grafted = tree_from_topology(graft_plan(plan, names[0], ("x", "y")))
    assert grafted.n_leaves == n + 1
    assert int(grafted.depths().max()) == n
    xy = grafted.parent[grafted.node_of("x")]
    assert grafted.parent[grafted.node_of("y")] == xy
    assert grafted.parent[xy] == grafted.parent[grafted.node_of(names[1])]


# ---------------------------------------------------------------------- #
# Topology equality                                                       #
# ---------------------------------------------------------------------- #


def test_topology_equal_self_and_mismatch():
    t1 = tree_from_topology((("a", "b"), "c"))
    t2 = tree_from_topology((("a", "c"), "b"))
    assert topology_equal(t1, t1)
    assert not topology_equal(t1, t2)
    with pytest.raises(ValueError):
        topology_equal(t1, tree_from_topology(("a", "b")))


def test_topology_equal_invariant_under_child_swaps():
    t = random_tree(20, seed=5)
    rng = np.random.default_rng(0)

    def shape(tree, v, rng):
        if tree.is_leaf(v):
            return tree.labels[v]
        c1, c2 = tree.children(v)
        kids = [shape(tree, c1, rng), shape(tree, c2, rng)]
        if rng.random() < 0.5:
            kids.reverse()
        return (kids[0], kids[1])

    for _ in range(5):
        swapped = tree_from_topology(shape(t, t.root, rng))
        assert topology_equal(t, swapped)


def _grafts(plan, lab):
    """Every plan that adds leaf ``lab`` on one edge of ``plan``."""
    out = [(plan, lab)]
    if isinstance(plan, tuple):
        left, right = plan
        out += [(x, right) for x in _grafts(left, lab)]
        out += [(left, x) for x in _grafts(right, lab)]
    return out


def _clades(plan):
    return map_plan(plan, lambda x: (frozenset([x]), frozenset()),
                    lambda l, r: (l[0] | r[0], l[1] | r[1] | {l[0] | r[0]}))[1]


def test_topology_equal_matches_clade_sets_on_five_leaves():
    plans = ["a"]
    for lab in "bcde":
        plans = [g for p in plans for g in _grafts(p, lab)]
    assert len(plans) == 105
    trees = [tree_from_topology(p) for p in plans]
    clades = [_clades(p) for p in plans]
    assert len(set(clades)) == 105
    for i, ti in enumerate(trees):
        for j, tj in enumerate(trees):
            assert topology_equal(ti, tj) == (i == j)


def _caterpillar(names, alternate=False):
    plan = names[0]
    for k, lab in enumerate(names[1:]):
        plan = (plan, lab) if alternate and k % 2 else (lab, plan)
    return tree_from_topology(plan)


def test_topology_equal_deep_caterpillar_needs_no_recursion():
    # 1499 nested clades: past the interpreter's recursion limit
    names = [f"L{i:04d}" for i in range(1500)]
    t = _caterpillar(names)
    assert topology_equal(t, t)
    assert topology_equal(t, _caterpillar(names, alternate=True))
    assert topology_equal(t, from_newick(to_newick(t)))
    assert topology_equal(t, _caterpillar([names[1], names[0]] + names[2:]))
    assert not topology_equal(t, _caterpillar([names[0], names[2], names[1]]
                                              + names[3:]))
    assert not topology_equal(t, _caterpillar(names[:-2] + names[:-3:-1]))


def test_triplet_agreement_grades_an_oracle_by_its_most_likely_answer():
    t = random_tree(24, w=0.05, seed=3)
    assert triplet_agreement(t, t) == 1.0
    assert triplet_agreement(t, OracleState(t, "noiseless", seed=0)) == 1.0
    # every probability is positive; the most likely pair is the closest
    assert triplet_agreement(t, ExpectationOracle(t, "homogeneous")) == 1.0
    other = random_tree(24, w=0.05, seed=4)
    assert triplet_agreement(t, ExpectationOracle(other, "homogeneous")) == (
        triplet_agreement(t, other))


def test_triplet_agreement_rejects_other_leaf_labels():
    t = tree_from_topology((("a", "b"), ("c", "d")))
    extra = tree_from_topology((("a", "b"), (("c", "d"), "e")))
    missing = tree_from_topology((("a", "b"), "c"))
    relabelled = tree_from_topology((("a", "b"), ("c", "x")))
    # an extra leaf once graded the shared leaves only (here 1.0), and a
    # missing one raised KeyError
    for other in (extra, missing, ExpectationOracle(relabelled, "homogeneous")):
        with pytest.raises(ValueError, match="leaf-label sets"):
            triplet_agreement(t, other)


def _reference_agreement(tree, oracle):
    """The per-leaf grading loop: one ``answers`` read per leaf i."""
    n = tree.n_leaves
    D = tree.distance_matrix()
    hits = 0
    for i in range(n - 2):
        J, K = np.triu_indices(n - i - 1, k=1)
        J += i + 1
        K += i + 1
        hits += int(np.count_nonzero(
            _closest_codes(D, i, J, K) == oracle.answers(i, J, K)))
    return hits / math.comb(n, 3)


def _graded_source(source, tree, seed):
    if source.startswith("expectation-"):
        return ExpectationOracle(tree, source.split("-", 1)[1])
    return OracleState(tree, source, seed=seed)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 40),
    source=st.sampled_from(["noiseless", "homogeneous",
                            "expectation-homogeneous", "expectation-noiseless"]),
    store=st.sampled_from(["fresh", "partly answered", "fully answered"]),
    other=st.booleans(),
    block=st.sampled_from([1, 7, noise_oracle._BLOCK_ROWS]),
    seed=st.integers(0, 2 ** 64 - 1),
)
def test_oracle_grading_matches_the_per_leaf_codes_loop(n, source, store, other,
                                                        block, seed):
    # grading reads the oracle's answers one pass_slots layer at a time: the
    # same value, store bytes and query_count as reading answers per leaf;
    # small blocks split the layers into runs of b-rows
    truth = generate_random_ultrametric(n, 0.02, seed=seed % 1000)
    tree = truth
    if other:  # an oracle over another tree on the same labels
        tree = generate_random_ultrametric(n, 0.02, seed=seed % 1000 + 1)
    o, ref = _graded_source(source, tree, seed), _graded_source(source, tree, seed)
    rng = np.random.default_rng(seed)
    T = np.sort(np.stack([rng.choice(n, 3, replace=False) for _ in range(2 * n)]),
                axis=1)
    for x in (o, ref):
        if store == "partly answered":
            x.answers(T[:, 0], T[:, 1], T[:, 2])
        elif store == "fully answered":
            list(x.pass_slots(np.arange(n)))
    with mock.patch.object(noise_oracle, "_BLOCK_ROWS", block):
        got = triplet_agreement(truth, o)
    assert got == _reference_agreement(truth, ref)
    assert o.query_count == ref.query_count
    assert o._store.tobytes() == ref._store.tobytes()


# ---------------------------------------------------------------------- #
# Newick                                                                  #
# ---------------------------------------------------------------------- #


def test_newick_two_leaf_form(cherry):
    assert to_newick(cherry) == "(a:1.0,b:1.0);"
    parsed = from_newick("(a:1,b:1);")
    assert topology_equal(parsed, cherry)
    assert parsed.leaf_distance("a", "b") == pytest.approx(2.0)


def test_newick_round_trip_identity():
    for seed in range(6):
        t = random_tree(20 + seed, w=0.01, seed=seed)
        back = from_newick(to_newick(t))
        assert topology_equal(t, back)
        assert to_newick(back) == to_newick(t)  # weights survive bit-exactly


def test_newick_parse_error_carries_offset():
    with pytest.raises(NewickParseError) as err:
        from_newick("(a:1,b")
    assert err.value.offset == 6
    with pytest.raises(NewickParseError):
        from_newick("(a:1,b:x);")
    with pytest.raises(NewickParseError):
        from_newick("(a:1,b:1);junk")


def test_newick_deep_caterpillar_round_trips():
    # 1499 nested clades: past the interpreter's recursion limit
    names = [f"L{i:04d}" for i in range(1500)]
    plan = names[0]
    for lab in names[1:]:
        plan = (lab, plan)
    text = to_newick(tree_from_topology(plan))
    back = from_newick(text)
    assert back.n_leaves == 1500
    assert int(back.depths().max()) == 1499
    assert to_newick(back) == text
    assert back.leaf_distance(names[0], names[1]) == pytest.approx(2.0 / 1499)


def test_newick_parse_errors_keep_messages_and_offsets():
    cases = {
        "(a:1,b": ("expected ':' before branch length", 6),
        "(a:1;b:1);": ("expected ',' in clade", 4),
        "(a:1,b:1,c:1);": ("expected ')'", 8),
        "(a:1,:1);": ("expected a leaf label", 5),
        "(a:1,b:1):2;": ("root must not carry a branch length", 9),
        "(a:1,b:1)": ("expected trailing ';'", 9),
        "a;": ("a tree needs at least two leaves", 2),
        "((a:1,b:1):1,c:y);": ("bad branch length 'y'", 16),
    }
    for text, (message, offset) in cases.items():
        with pytest.raises(NewickParseError) as err:
            from_newick(text)
        assert str(err.value) == f"{message} (at offset {offset})", text
        assert err.value.offset == offset


# ---------------------------------------------------------------------- #
# Validator                                                               #
# ---------------------------------------------------------------------- #


def test_validator_flags_perturbed_edge():
    t = random_tree(16, seed=7)
    v = next(u for u in range(t.n_nodes) if u != t.root and t.is_leaf(u))
    t.weight[v] += 0.1
    report = validate_ultrametric(t, tol=1e-9)
    assert not report.ok
    assert any("path" in msg or "inconsist" in msg for msg in report.violations)


def test_validator_exact_on_dyadic_tree():
    t = tree_from_topology(((("a", "b"), ("c", "d")), (("e", "f"), ("g", "h"))))
    assert validate_ultrametric(t, tol=0.0).ok


def test_validator_strong_triangle_on_generated_trees():
    for seed in range(4):
        t = random_tree(40, seed=seed)
        assert validate_ultrametric(t, tol=1e-9).ok
