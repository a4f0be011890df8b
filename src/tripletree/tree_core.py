"""
Weighted ultrametric full binary trees.

A tree is stored as parallel arrays indexed by node id: parent links, child
pairs, per-node height (total weight of any path from the node down to a leaf
in its subtree) and the weight of the edge to the parent.  Heights are the
source of truth; edge weights are kept in sync so that
``weight[v] == height[parent[v]] - height[v]`` at construction time and the
validator can cross-check both.

Leaf labels are nonempty strings without any of ``"():,;"``.  The canonical
leaf order used throughout (distance matrices, oracles) is sorted label
order.

Each tree also has one cached depth-first layout (``Tree.layout``), child1's
subtree first: node v sits at preorder place ``pre[v]`` with its subtree in
the next ``2 NL(v) - 1`` places, and its leaves take the places ``first[v]
: first[v] + NL(v)`` of the depth-first leaf order.  So every clade is one
slice, and the leaf distance matrix, whose entries between the two child
clades of a node all equal twice its height, is two slice writes per
internal node in layout order.  Generated trees, and trees read from a
Newick string whose leaves are written in label order, already have their
labels in depth-first order; any other tree pays one gather to sorted
label order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

NO_NODE = -1

_FORBIDDEN_LABEL_CHARS = set('():,; \t\n')


class TreeError(Exception):
    """Base class for tree construction / query errors."""


class InfeasibleTreeError(TreeError):
    """No ultrametric topology can satisfy the requested constraints."""


class CorruptTreeError(TreeError):
    """The tree violates an invariant required by an operation."""


class NewickParseError(TreeError):
    """Malformed Newick input; carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class Layout(NamedTuple):
    """
    The depth-first layout of a tree, child1's subtree first (int64 arrays).

    pre[v]    preorder place of node v; its subtree fills the places
              ``pre[v] : pre[v] + 2 NL(v) - 1``.
    first[v]  offset of v's leaves in the depth-first leaf order, which
              holds them at ``first[v] : first[v] + NL(v)``.
    ranks[p]  sorted-label rank of the leaf at place p of that order.
    """

    pre: np.ndarray
    first: np.ndarray
    ranks: np.ndarray


class Tree:
    """
    Rooted weighted full binary tree whose leaf metric is an ultrametric.

    Attributes
    ----------
    parent : int32[n_nodes]    Parent id, NO_NODE for the root.
    child1, child2 : int32[n_nodes]   Children ids, NO_NODE for leaves.
    height : float64[n_nodes]  Distance from the node down to any leaf below.
    weight : float64[n_nodes]  Weight of the edge to the parent; 0 for root.
    labels : list[str|None]    Leaf label per node, None for internal nodes.
    root : int

    ``depths``, ``leaf_counts`` and the depth-first ``layout`` (which
    makes every clade one slice of the leaf order) depend on the links
    only; each is computed once and cached, so the links must not change
    after the first read.
    """

    def __init__(self, parent, child1, child2, height, weight, labels):
        self.parent = np.asarray(parent, dtype=np.int32)
        self.child1 = np.asarray(child1, dtype=np.int32)
        self.child2 = np.asarray(child2, dtype=np.int32)
        self.height = np.asarray(height, dtype=np.float64)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.labels = list(labels)
        roots = np.nonzero(self.parent == NO_NODE)[0]
        if len(roots) != 1:
            raise CorruptTreeError(f"expected exactly one root, found {len(roots)}")
        self.root = int(roots[0])
        self._leaf_nodes = {}
        for v, lab in enumerate(self.labels):
            if lab is not None:
                if lab in self._leaf_nodes:
                    raise CorruptTreeError(f"duplicate leaf label {lab!r}")
                self._leaf_nodes[lab] = v
        self.leaf_labels = sorted(self._leaf_nodes)
        self.leaf_nodes = np.asarray(
            [self._leaf_nodes[lab] for lab in self.leaf_labels], dtype=np.int32
        )
        self._depth = None
        self._nl = None
        self._layout = None

    # ------------------------------------------------------------------ #
    # Basic structure                                                     #
    # ------------------------------------------------------------------ #

    @property
    def n_nodes(self):
        return len(self.labels)

    @property
    def n_leaves(self):
        return len(self.leaf_labels)

    def is_leaf(self, v):
        return self.child1[v] == NO_NODE

    def node_of(self, label):
        try:
            return self._leaf_nodes[label]
        except KeyError:
            raise KeyError(f"unknown leaf {label!r}") from None

    def children(self, v):
        return int(self.child1[v]), int(self.child2[v])

    def depths(self):
        """Edge depth of every node from the root (computed once, cached)."""
        if self._depth is None:
            parent = self.parent.tolist()
            d = [0] * self.n_nodes
            for v in self.topo_order().tolist()[1:]:
                d[v] = d[parent[v]] + 1
            self._depth = np.array(d, dtype=np.int32)
        return self._depth

    def topo_order(self):
        """Node ids in breadth-first order from the root (parents first)."""
        c1, c2 = self.child1.tolist(), self.child2.tolist()
        order = [self.root]
        for v in order:  # visits the children appended while it runs
            if c1[v] != NO_NODE:
                if len(order) + 2 > self.n_nodes:
                    raise CorruptTreeError("a node is reached twice")
                order += (c1[v], c2[v])
        if len(order) != self.n_nodes:
            raise CorruptTreeError("disconnected nodes present")
        return np.array(order, dtype=np.int32)

    def leaf_counts(self):
        """NL(v): number of leaves in the subtree of every node (cached)."""
        if self._nl is None:
            c1, c2 = self.child1.tolist(), self.child2.tolist()
            nl = [1] * self.n_nodes
            for v in reversed(self.topo_order().tolist()):
                if c1[v] != NO_NODE:
                    nl[v] = nl[c1[v]] + nl[c2[v]]
            self._nl = np.array(nl, dtype=np.int64)
        return self._nl

    def layout(self):
        """
        The depth-first ``Layout`` (pre, first, ranks), child1's subtree
        first (computed once, cached): one top-down pass over
        ``topo_order`` places child1 right after its parent and child2
        after child1's subtree.  Raises ``CorruptTreeError`` as
        ``topo_order`` does.
        """
        if self._layout is None:
            nl = self.leaf_counts().tolist()
            c1, c2 = self.child1.tolist(), self.child2.tolist()
            first, pre = [0] * self.n_nodes, [0] * self.n_nodes
            for v in self.topo_order().tolist():
                a = c1[v]
                if a != NO_NODE:
                    b = c2[v]
                    first[a], pre[a] = first[v], pre[v] + 1
                    first[b], pre[b] = first[v] + nl[a], pre[v] + 2 * nl[a]
            first = np.array(first, dtype=np.int64)
            ranks = np.empty(self.n_leaves, dtype=np.int64)
            ranks[first[self.leaf_nodes]] = np.arange(self.n_leaves)
            self._layout = Layout(np.array(pre, dtype=np.int64), first, ranks)
        return self._layout

    def subtree_leaf_labels(self, v):
        """Sorted labels of the leaves under node v (inclusive)."""
        _, first, ranks = self.layout()
        f = int(first[v])
        ranks = np.sort(ranks[f:f + int(self.leaf_counts()[v])])
        return [self.leaf_labels[r] for r in ranks.tolist()]

    def ordered_children(self, v):
        """
        (light, heavy) children of v: the heavy child has at least as many
        leaves as the light one.  Equal counts are broken deterministically
        so that the child containing the smallest leaf label goes left.
        """
        a, b = self.children(v)
        nl = self.leaf_counts()
        if nl[a] != nl[b]:
            return (a, b) if nl[a] < nl[b] else (b, a)
        if min(self.subtree_leaf_labels(a)) < min(self.subtree_leaf_labels(b)):
            return a, b
        return b, a

    # ------------------------------------------------------------------ #
    # Distances                                                           #
    # ------------------------------------------------------------------ #

    def lca(self, u, v):
        d = self.depths()
        u, v = int(u), int(v)
        while d[u] > d[v]:
            u = self.parent[u]
        while d[v] > d[u]:
            v = self.parent[v]
        while u != v:
            u = self.parent[u]
            v = self.parent[v]
        return u

    def leaf_distance(self, a, b):
        """Ultrametric distance between leaves a and b: 2 * h(LCA(a, b))."""
        if a == b:
            raise ValueError("leaf_distance requires two distinct leaves")
        va, vb = self.node_of(a), self.node_of(b)
        return 2.0 * float(self.height[self.lca(va, vb)])

    def distance_matrix(self):
        """
        Dense leaf-distance matrix in canonical (sorted label) leaf order.
        D[i, j] = 2 * h(LCA) with zeros on the diagonal.

        Filled in the depth-first leaf order of ``layout``, where the
        leaves of each internal node's children are the adjacent slices
        f:m and m:e, so each node writes its two constant blocks.  One
        gather then takes the matrix to sorted label order, only when the
        two orders differ.
        """
        n = self.n_leaves
        first, nl = self.layout().first, self.leaf_counts()
        inner = np.flatnonzero(self.child1 != NO_NODE)
        lo = first[inner]
        D = np.zeros((n, n), dtype=np.float64)
        for f, m, e, d in zip(lo.tolist(), (lo + nl[self.child1[inner]]).tolist(),
                              (lo + nl[inner]).tolist(),
                              (2.0 * self.height[inner]).tolist()):
            D[f:m, m:e] = D[m:e, f:m] = d
        at = first[self.leaf_nodes]  # place of each sorted leaf
        if (at != np.arange(n)).any():
            D = D[np.ix_(at, at)]
        return D

    def path_length_to_root(self, v):
        total = 0.0
        while self.parent[v] != NO_NODE:
            total += float(self.weight[v])
            v = self.parent[v]
        return total


def closest_pair(tree, a, b, c):
    """
    The unique closest pair among three distinct leaves, as a sorted tuple.

    In a valid full binary ultrametric tree the two largest of the three
    pairwise distances are equal and the smallest is strictly smaller; a
    three-way tie means the tree is corrupt.
    """
    if len({a, b, c}) != 3:
        raise ValueError("closest_pair requires three distinct leaves")
    pairs = [(a, b), (b, c), (c, a)]
    dists = [tree.leaf_distance(x, y) for x, y in pairs]
    i = int(np.argmin(dists))
    others = [dists[j] for j in range(3) if j != i]
    if not (dists[i] < min(others)):
        raise CorruptTreeError(
            f"no strictly closest pair among {(a, b, c)}: distances {dists}"
        )
    x, y = pairs[i]
    return tuple(sorted((x, y)))


# ---------------------------------------------------------------------- #
# Construction helpers                                                    #
# ---------------------------------------------------------------------- #


class _Builder:
    """Accumulates nodes; finish() emits a Tree."""

    def __init__(self):
        self.parent = []
        self.child1 = []
        self.child2 = []
        self.height = []
        self.weight = []
        self.labels = []

    def add_leaf(self, label):
        self.parent.append(NO_NODE)
        self.child1.append(NO_NODE)
        self.child2.append(NO_NODE)
        self.height.append(0.0)
        self.weight.append(0.0)
        self.labels.append(label)
        return len(self.labels) - 1

    def add_internal(self, left, right, height):
        v = len(self.labels)
        self.parent.append(NO_NODE)
        self.child1.append(left)
        self.child2.append(right)
        self.height.append(float(height))
        self.weight.append(0.0)
        self.labels.append(None)
        for c in (left, right):
            self.parent[c] = v
            self.weight[c] = float(height) - self.height[c]
        return v

    def finish(self):
        return Tree(self.parent, self.child1, self.child2,
                    self.height, self.weight, self.labels)


def map_plan(plan, leaf, node):
    """
    Fold a nested-pair plan bottom-up without recursion: ``leaf(x)`` on
    every non-tuple, ``node(l, r)`` on every pair with the results of its
    two children, left child first.  Returns the result at the top.
    """
    out = []
    stack = [(plan, False)]
    while stack:
        s, ready = stack.pop()
        if ready:
            r = out.pop()
            out.append(node(out.pop(), r))
        elif isinstance(s, tuple):
            stack += ((s, True), (s[1], False), (s[0], False))
        else:
            out.append(leaf(s))
    return out[0]


def tree_from_topology(shape, height=1.0):
    """
    Build a Tree from a nested-pair topology, e.g. ``(("a", "b"), "c")``;
    leaves are labelled ``str(x)``.

    Heights are assigned so every node sits at ``height * levels_below /
    levels_below_root`` where levels counts edges on the longest downward
    path; the result is a valid ultrametric of the requested height whose
    topology equals the given shape.  Useful for tests and for giving a
    reconstructed topology a concrete ultrametric embedding.
    """
    total = map_plan(shape, lambda x: 0, lambda l, r: 1 + max(l, r))
    if total == 0:
        raise ValueError("topology must contain at least two leaves")
    b = _Builder()

    def node(l, r):
        level = 1 + max(l[1], r[1])
        return b.add_internal(l[0], r[0], height * level / total), level

    map_plan(shape, lambda x: (b.add_leaf(str(x)), 0), node)
    return b.finish()


def generate_random_ultrametric(n, min_edge_weight, seed):
    """
    Random ultrametric full binary tree with ``n`` leaves, height exactly 1,
    and every edge weight at least ``min_edge_weight``.

    Topology comes from recursive uniform splits; internal heights are then
    drawn top-down uniformly inside the feasible interval left by the
    min-weight constraint.  Infeasible topology draws are rejected and
    retried up to 1000 times.  Deterministic per seed.
    """
    if n < 2:
        raise ValueError("need at least 2 leaves")
    w = float(min_edge_weight)
    if w <= 0:
        raise ValueError("min_edge_weight must be positive")
    min_depth = int(np.ceil(np.log2(n)))
    if w * min_depth > 1.0 + 1e-12:
        raise InfeasibleTreeError(
            f"min_edge_weight={w} impossible for n={n}: any topology has a "
            f"root-leaf path of >= {min_depth} edges"
        )
    rng = np.random.default_rng(seed)
    width = max(2, len(str(n - 1)))
    leaf_names = [f"L{i:0{width}d}" for i in range(n)]
    budget = int(math.floor(1.0 / w + 1e-9))  # max affordable edge depth

    for _ in range(1000):
        # random topology: split sizes drawn uniformly inside the window
        # that keeps every side within its remaining depth budget (the
        # window is the full 1..k-1 whenever the budget is slack)
        splits = {}

        def split(lo, hi, b):  # leaves lo..hi-1 under one node
            k = hi - lo
            if k == 1:
                return
            cap = 1 << (b - 1)
            j_lo, j_hi = max(1, k - cap), min(k - 1, cap)
            j = int(rng.integers(j_lo, j_hi + 1))
            splits[(lo, hi)] = j
            split(lo, lo + j, b - 1)
            split(lo + j, hi, b - 1)

        split(0, n, budget)

        depth_req = {}

        def depth(lo, hi):
            if hi - lo == 1:
                depth_req[(lo, hi)] = 0
                return 0
            j = splits[(lo, hi)]
            d = 1 + max(depth(lo, lo + j), depth(lo + j, hi))
            depth_req[(lo, hi)] = d
            return d

        if w * depth(0, n) > 1.0 + 1e-12:
            continue

        b = _Builder()

        def build(lo, hi, h):
            if hi - lo == 1:
                return b.add_leaf(leaf_names[lo])
            j = splits[(lo, hi)]
            kids = []
            for clo, chi in ((lo, lo + j), (lo + j, hi)):
                if chi - clo == 1:
                    kids.append(build(clo, chi, 0.0))
                else:
                    lo_h = w * depth_req[(clo, chi)]
                    hi_h = h - w
                    hc = float(rng.uniform(lo_h, hi_h)) if hi_h > lo_h else lo_h
                    kids.append(build(clo, chi, hc))
            return b.add_internal(kids[0], kids[1], h)

        build(0, n, 1.0)
        # each helper refers to itself through its closure: unbind them, or
        # the cycles keep this draw's dicts and builder until a collection
        del split, depth, build
        return b.finish()

    raise InfeasibleTreeError(
        f"no feasible topology found for n={n}, min_edge_weight={w} "
        f"after 1000 attempts"
    )


# ---------------------------------------------------------------------- #
# Buckets, induced topology, quotient                                     #
# ---------------------------------------------------------------------- #


@dataclass
class BucketPartition:
    """
    Partition of the leaves outside a base subtree into buckets ordered
    along the path from the base root to the tree root (bucket 1 nearest).
    """

    base_root: int
    buckets: list = field(default_factory=list)  # list of sorted label lists
    index_of: dict = field(default_factory=dict)  # leaf label -> bucket index (1-based)


def bucket_partition(tree, subtree_root):
    """Bucket the leaves outside the subtree at ``subtree_root``."""
    v = int(subtree_root)
    if v == tree.root:
        raise ValueError("bucket_partition is undefined for the whole tree")
    part = BucketPartition(base_root=v)
    while tree.parent[v] != NO_NODE:
        p = int(tree.parent[v])
        sib = int(tree.child1[p]) if int(tree.child2[p]) == v else int(tree.child2[p])
        labels = tree.subtree_leaf_labels(sib)
        part.buckets.append(labels)
        idx = len(part.buckets)
        for lab in labels:
            part.index_of[lab] = idx
        v = p
    return part


def induced_topology(tree, leaf_subset):
    """
    The topology induced on a subset of leaves: leaves outside are removed
    and one-child internal nodes are suppressed, merging their two incident
    edges.  Leaf distances within the subset are preserved exactly.
    """
    keep = set(leaf_subset)
    if len(keep) < 2:
        raise ValueError("induced topology needs at least 2 leaves")
    unknown = keep - set(tree.leaf_labels)
    if unknown:
        raise KeyError(f"unknown leaves {sorted(unknown)!r}")

    b = _Builder()
    done = {}  # node -> id of its pruned subtree in the new tree, or None
    for u in tree.topo_order()[::-1]:
        u = int(u)
        if tree.is_leaf(u):
            lab = tree.labels[u]
            done[u] = b.add_leaf(lab) if lab in keep else None
            continue
        k1, k2 = (done.pop(c) for c in tree.children(u))
        if k1 is not None and k2 is not None:
            done[u] = b.add_internal(k1, k2, float(tree.height[u]))
        else:
            done[u] = k1 if k1 is not None else k2
    return b.finish()


def quotient(tree, subtree_root):
    """
    Collapse the subtree at ``subtree_root`` into a single representative
    leaf (the lexicographically smallest collapsed label).  Returns
    ``(quotient_tree, rep_map)`` where ``rep_map`` maps the representative
    label to the sorted list of collapsed labels.

    The quotient is the topology induced on the outside leaves plus the
    representative, so all their distances are unchanged.
    """
    v = int(subtree_root)
    if v == tree.root:
        raise ValueError("cannot take the quotient by the whole tree")
    collapsed = tree.subtree_leaf_labels(v)
    rep = collapsed[0]
    keep = (set(tree.leaf_labels) - set(collapsed)) | {rep}
    return induced_topology(tree, keep), {rep: collapsed}


def topology_equal(t1, t2):
    """
    True iff the two trees have the same leaf-labeled rooted topology
    (edge weights ignored, child order ignored).
    """
    if set(t1.leaf_labels) != set(t2.leaf_labels):
        raise ValueError("topology_equal requires identical leaf-label sets")
    return _canonical_shape(t1) == _canonical_shape(t2)


def triplet_agreement(tree, other):
    """
    Fraction of the C(n,3) leaf triples on which ``other`` names the same
    closest pair as ``tree``: a graded score where ``topology_equal`` is
    all or nothing.  ``other`` is a tree on the same leaf labels, or an
    oracle over them, whose most likely answer to each triple is graded;
    other labels raise ``ValueError``.

    Both are read one layer at a time, the triples (a, b, c) of sorted leaf
    ranks a < b < c with top c: an oracle through ``pass_slots`` over every
    leaf, which fills an answer store as ``answers`` would, and a tree from
    its distances as ``_layer_codes`` reads ``tree``'s.
    """
    is_oracle = hasattr(other, "pass_slots")
    labels = other.labels if is_oracle else other.leaf_labels
    if list(labels) != tree.leaf_labels:
        raise ValueError("triplet_agreement requires identical leaf-label sets")
    n = tree.n_leaves
    if n < 3:
        return 1.0
    tb, ta = np.tril_indices(n, -1)
    truth = _layer_codes(tree.distance_matrix(), tb, ta)
    if is_oracle:
        runs = other.pass_slots(np.arange(n))
    else:
        theirs = _layer_codes(other.distance_matrix(), tb, ta)
        runs = ((c, 1, c, theirs(c, 0, c * (c - 1) // 2)) for c in range(2, n))
    hits = 0
    for c, b0, b1, slot in runs:
        lo, hi = b0 * (b0 - 1) // 2, b1 * (b1 - 1) // 2
        hits += int(np.count_nonzero(truth(c, lo, hi) == slot))
    return hits / math.comb(n, 3)


def _layer_codes(D, tb, ta):
    """
    ``layer(c, lo, hi)``: the closest pair of the triples (a, b, c) of
    layer c at the places ``lo:hi`` of ``np.tril_indices(n, -1)`` (whose
    rows and columns are ``tb`` and ``ta``), read from the distance matrix
    ``D``: 0 (a, b), 1 (a, c), 2 (b, c), the slots of ``pass_slots``.
    """
    d01 = D[tb, ta]  # d(a, b); a layer's rows are a prefix

    def layer(c, lo, hi):
        row = D[c, :c]  # d(a, c) and d(b, c)
        return _closest_slot(d01[lo:hi], row.take(ta[lo:hi]), row.take(tb[lo:hi]))

    return layer


def _closest_codes(D, i, J, K):
    """Closest pair of each triple (i, J, K): 0 (i, J), 1 (i, K), 2 (J, K)."""
    return _closest_slot(D[i, J], D[i, K], D[J, K])


def _closest_slot(d01, d02, d12):
    """0 where d01 is the strict minimum, else 1 where d02 < d12, else 2."""
    return np.where((d01 < d02) & (d01 < d12), 0, np.where(d02 < d12, 1, 2))


def _canonical_shape(tree):
    """
    The topology as rows (lo, size, lo2), one per internal node, sorted: lo
    is the smallest leaf rank under the node, size its leaf count and lo2
    the smallest leaf rank under the child that lacks lo.  Nodes sharing lo
    are nested, so (lo, size) names a node and orders each such chain
    bottom-up; lo2 names the clade that joins the chain there, and the
    rows rebuild the tree.  Ranks index the sorted leaf labels, so two
    trees on one label set compare row for row; the rows come back as
    bytes, the (lo, size) keys first and then lo2.
    """
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


# ---------------------------------------------------------------------- #
# Newick serialization                                                    #
# ---------------------------------------------------------------------- #


def to_newick(tree):
    """Serialize topology + branch lengths; lossless for float64 weights."""
    parts = {}
    for v in tree.topo_order()[::-1]:
        v = int(v)
        if tree.is_leaf(v):
            s = tree.labels[v]
        else:
            a, b = tree.children(v)
            s = f"({parts.pop(a)},{parts.pop(b)})"
        if tree.parent[v] != NO_NODE:
            s += f":{float(tree.weight[v])!r}"
        parts[v] = s
    return parts[tree.root] + ";"


def from_newick(text):
    """Parse a Newick string with branch lengths into a Tree."""
    s = text.strip()
    pos = 0

    def error(msg):
        raise NewickParseError(msg, pos)

    def peek():
        return s[pos] if pos < len(s) else ""

    def parse_label():
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos] not in '():,;':
            pos += 1
        label = s[start:pos].strip()
        if not label:
            error("expected a leaf label")
        if set(label) & _FORBIDDEN_LABEL_CHARS:
            error(f"invalid characters in label {label!r}")
        return label

    def parse_length():
        nonlocal pos
        if peek() != ":":
            error("expected ':' before branch length")
        pos += 1
        start = pos
        while pos < len(s) and s[pos] not in '(),;':
            pos += 1
        try:
            return float(s[start:pos])
        except ValueError:
            error(f"bad branch length {s[start:pos]!r}")

    # One left-to-right pass without recursion.  A node enters the builder
    # when it is complete, so leaves come first from the left and every
    # clade follows its two children (the postorder of the grammar).  Each
    # open clade holds its finished children as (node, height, length).
    b = _Builder()
    stack = []
    while True:
        while peek() == "(":
            pos += 1
            stack.append([])
        node, h = b.add_leaf(parse_label()), 0.0
        while stack:
            kids = stack[-1]
            kids.append((node, h, parse_length()))
            if len(kids) == 1:
                break
            if peek() != ")":
                error("expected ')'")
            pos += 1
            stack.pop()
            (k1, h1, w1), (k2, h2, w2) = kids
            h = max(h1 + w1, h2 + w2)
            node = b.add_internal(k1, k2, h)
            # keep the given branch lengths verbatim so serialization round
            # trips bit-exactly; heights absorb any last-place disagreement
            b.weight[k1] = w1
            b.weight[k2] = w2
        if not stack:
            break
        if peek() != ",":
            error("expected ',' in clade")
        pos += 1

    if peek() == ":":
        error("root must not carry a branch length")
    if peek() != ";":
        error("expected trailing ';'")
    pos += 1
    if pos != len(s):
        error("trailing characters after ';'")
    if len(b.labels) == 1:
        error("a tree needs at least two leaves")
    return b.finish()


# ---------------------------------------------------------------------- #
# Validation                                                              #
# ---------------------------------------------------------------------- #


@dataclass
class ValidationReport:
    ok: bool
    violations: list

    def __bool__(self):
        return self.ok


def validate_ultrametric(tree, tol=1e-9, expected_height=1.0, triangle_samples=500):
    """
    Check the ultrametric invariants and return a ValidationReport.

    Checks: full-binariness, strictly positive edge weights, leaf heights
    exactly 0, height/weight consistency, root-leaf path-weight sums within
    ``[expected_height - tol, expected_height + tol]``, and the strong
    triangle inequality on a deterministic sample of leaf triples.
    """
    bad = []
    for v in range(tree.n_nodes):
        kids = [c for c in tree.children(v) if c != NO_NODE]
        if len(kids) == 1:
            bad.append(f"node {v} has exactly one child")
        if v != tree.root and tree.weight[v] <= 0:
            bad.append(f"edge to node {v} has non-positive weight {tree.weight[v]}")
        for c in kids:
            drift = abs(tree.height[v] - tree.height[c] - tree.weight[c])
            if drift > tol:
                bad.append(
                    f"height inconsistency at node {v}->{c}: drift {drift:.3g}"
                )
    for lab in tree.leaf_labels:
        v = tree.node_of(lab)
        if tree.height[v] != 0.0:
            bad.append(f"leaf {lab} has nonzero height")
        total = tree.path_length_to_root(v)
        if abs(total - expected_height) > tol:
            bad.append(
                f"root path to leaf {lab} sums to {total!r}, "
                f"expected {expected_height}"
            )
    n = tree.n_leaves
    if n >= 3 and not bad:
        rng = np.random.default_rng(0)
        n_samples = min(triangle_samples, n * (n - 1) * (n - 2) // 6)
        for _ in range(n_samples):
            i, j, k = rng.choice(n, size=3, replace=False)
            a, b, c = (tree.leaf_labels[int(x)] for x in (i, j, k))
            dab = tree.leaf_distance(a, b)
            dbc = tree.leaf_distance(b, c)
            dca = tree.leaf_distance(c, a)
            if dca > max(dab, dbc) + tol:
                bad.append(
                    f"strong triangle violated on ({a},{b},{c}): "
                    f"{dca:.6g} > max({dab:.6g},{dbc:.6g})"
                )
                break
    return ValidationReport(ok=not bad, violations=bad)
