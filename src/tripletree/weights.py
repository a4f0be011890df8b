"""
Edge-weight estimation under the homogeneous noise model.

Given the (reconstructed or known) topology, every internal vertex gets a
height estimate from query probabilities:

* vertices in the light subtree of the root: the fraction of experiments
  (a, b, c_i) answering (a, b), with a and b spanning the vertex and c_i
  running over the heavy side, equals 1/(2 + h); invert it;
* vertices on the rightmost (heavy) path: the same inversion over pairs
  that span the vertex, against one far-side witness leaf;
* vertices hanging left of the heavy path: anchor to the path vertex
  above, whose answer probability is h_anchor / (2 h_anchor + h), and
  invert with the anchor's estimated height;
* vertices below the last heavy path vertex: aggregate anchored estimates
  over all big left subtrees of the path (weighted by their leaf counts),
  then invert the aggregate response curve by bisection and clamp by the
  smallest anchor height.

Heights are finally clamped to be monotone along root-leaf paths and edge
weights read off as height differences.  Leaves sit at height 0 and the
root at 1 exactly.

Each stage reads its answers in blocks with no repeated rows built: the
heavy path's cross pairs in one ``pair_wins`` call, and each other
stage's representative pairs (against all anchors' witnesses below the
heavy path) in runs of whole vertices of at most ``_CHUNK_ROWS`` rows.
Every response is then a row-wise ``mean`` over one vertex's (or one
anchor's) contiguous slice of a block: the pairwise sum ``np.mean`` takes
over that vertex's own ``wins`` rows, so the estimates are bit-equal to
asking each vertex and anchor on its own.  A segmented ``np.add.reduceat``
sums left to right instead and changes the low bits of expectation-mode
estimates.

A node's leaves are a slice of one depth-first leaf order; the sorted
leafset a stage reads is built from it on first read, and each vertex's
representative pair is the smallest leaf of each child.  Below the heavy
path every bisection starts from the same bracket, so the stage bisects
all its vertices together, one level at a time: each level evaluates the
shared response curve once per distinct midpoint, its rows in one numpy
operation, and each vertex stops where a bisection of its own would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tree_core import NO_NODE, Tree


class EstimationFailure(Exception):
    """An estimator received an input outside its valid range."""


@dataclass
class WeightConfig:
    pair_cap: int | None = None  # None: max(4n, 64) cross pairs per path vertex
    bisect_tol: float = 1e-12


# Bisection levels of the aggregated stage; the floor an out-of-range
# response clamps to; the witness count below which a response warns.
_BISECT_MAX_ITER = 200
_P_CLAMP_EPS = 1e-6
_ANCHOR_K_MIN = 100


@dataclass
class HeavyPath:
    """
    The rightmost path (following heavy children) of a topology.

    ``path`` runs from the root to the rightmost leaf; ``f`` is the index
    of its last heavy vertex (leaf count above alpha * n).  ``anchors``
    lists the path indices whose left subtrees are big enough to anchor
    against, with ``anchor_sizes`` their leaf counts.
    """

    path: list
    f: int
    heavy: np.ndarray
    anchors: list
    anchor_sizes: list
    left_child: list  # off-path child per path index (NO_NODE for the leaf)


@dataclass
class VertexEstimate:
    value: float
    error_class: str  # "exact" | "fine" | "coarse"
    method: str
    warnings: list = field(default_factory=list)
    residual: float = 0.0


@dataclass
class HeightEstimates:
    """Per-vertex height estimates plus derived edge weights."""

    topology: Tree
    by_node: dict  # node id -> VertexEstimate
    edge_weights: dict  # node id -> estimated weight of edge to parent

    def weight_errors(self, truth):
        """
        |estimated - true| weight of each edge, in ``edge_weights`` order,
        against the edge of ``truth`` above the same clade.  Raises
        ``ValueError`` when ``truth`` has no such edge.
        """
        true_w = {}
        for v in range(truth.n_nodes):
            if truth.parent[v] != NO_NODE:
                key = tuple(truth.subtree_leaf_labels(v))
                true_w[key] = float(truth.weight[v])
        errors = []
        for v, w in self.edge_weights.items():
            key = tuple(self.topology.subtree_leaf_labels(v))
            if key not in true_w:
                raise ValueError("topologies differ; weight errors undefined")
            errors.append(abs(w - true_w[key]))
        return errors

    def max_abs_weight_error(self, truth):
        return max(self.weight_errors(truth), default=0.0)

    def estimated_tree(self):
        """
        The topology with the estimated heights, each edge weighing its
        parent's height less its own (0 above the root).
        """
        topo = self.topology
        h = np.array([self.by_node[v].value for v in range(topo.n_nodes)])
        w = np.where(topo.parent == NO_NODE, 0.0, h[topo.parent] - h)
        return Tree(topo.parent, topo.child1, topo.child2, h, w, topo.labels)


def classify_heavy(topology, alpha=1.0 / 6.0):
    """Heavy flags, the rightmost path, its last heavy index and anchors."""
    n = topology.n_leaves
    nl = topology.leaf_counts()
    heavy = nl >= alpha * n + 1 - 1e-9
    path = [topology.root]
    left_child = []
    while not topology.is_leaf(path[-1]):
        light, heavy_child = topology.ordered_children(path[-1])
        path.append(heavy_child)
        left_child.append(light)
    left_child.append(NO_NODE)
    f = max(i for i, v in enumerate(path) if heavy[v])
    cutoff = n / (4.0 * (1 + f))
    anchors, sizes = [], []
    for i in range(f + 1):
        c = left_child[i]
        if c != NO_NODE and nl[c] >= cutoff:
            anchors.append(i)
            sizes.append(int(nl[c]))
    return HeavyPath(path=path, f=f, heavy=heavy, anchors=anchors,
                     anchor_sizes=sizes, left_child=left_child)


def height_from_prob(A):
    """Invert A = 1/(2 + h): h = 1/A - 2.  A must lie in (0, 1/2]."""
    if A <= 0.0 or A > 0.5 + 1e-9:
        raise EstimationFailure(f"response mean {A!r} outside (0, 1/2]")
    return 1.0 / min(A, 0.5) - 2.0


def reconstruct_left_heavy(p_hat, h_anchor):
    """Height from an anchored response: h = h_anchor * (1 - 2 p) / p."""
    if p_hat < 0.25:
        raise EstimationFailure(f"anchored response {p_hat!r} below 1/4")
    if h_anchor <= 0:
        raise EstimationFailure("anchor height must be positive")
    return h_anchor * (1.0 - 2.0 * p_hat) / p_hat


def aggregate_anchor_probs(p_hats, weights):
    """Leaf-count-weighted mean of the anchored responses."""
    p = np.asarray(p_hats, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if len(p) == 0 or len(p) != len(w):
        raise EstimationFailure("need matching, nonempty responses and weights")
    return float(np.dot(p, w) / np.sum(w))


def response_curve(a, anchor_heights, weights):
    """F(a): weighted mean of b_i / (2 b_i + a) over the anchors."""
    b = np.asarray(anchor_heights, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    return float(np.dot(w, b / (2.0 * b + a)) / np.sum(w))


def _curve(anchor_heights, weights):
    """
    The response curve F of ``response_curve`` over an array of points,
    with its constants computed once, and the top 4 min b of its bisection
    bracket.  F forms the rows b / (2 b + a) of all points in one
    operation and takes ``np.dot`` of the weights with each row on its
    own, so F(a) equals ``response_curve(a, ...)`` bit for bit (one
    matrix-vector product sums in another order and does not).
    """
    b = np.asarray(anchor_heights, dtype=np.float64)
    if len(b) == 0 or np.any(b <= 0):
        raise EstimationFailure("anchor heights must be positive")
    w = np.asarray(weights, dtype=np.float64)
    b2 = 2.0 * b
    sw = np.sum(w)

    def F(a):
        rows = b / (b2 + a[:, None])
        return np.array([w.dot(row) for row in rows]) / sw

    return F, 4.0 * float(np.min(b))


def _bisect(q_hats, F, top, tol, max_iter):
    """
    The bisection of ``invert_F`` for every target of ``q_hats`` at once,
    on the curve ``F`` of ``_curve`` over [0, top]: a target at or above
    F(0) clamps to 0 and one at or below F(top) to top.  The others halve
    their brackets one level at a time, F evaluated once per distinct
    midpoint of the level; a target stops at the first midpoint within
    ``tol`` of it, or at the midpoint of level ``max_iter``.  Returns
    the arrays (a, |F(a) - q|).
    """
    q = np.asarray(q_hats, dtype=np.float64).reshape(-1)
    f_lo, f_hi = F(np.array([0.0, top]))  # F(0) = 1/2
    a = np.where(q >= f_lo, 0.0, top)
    fa = np.where(q >= f_lo, f_lo, f_hi)
    run = np.flatnonzero(~(q >= f_lo) & ~(q <= f_hi))
    lo, hi = np.zeros(len(run)), np.full(len(run), top)
    for level in range(max_iter + 1):
        if not len(run):
            break
        mid = 0.5 * (lo + hi)
        pts, at = np.unique(mid, return_inverse=True)
        f_mid = F(pts)[at]
        done = (np.abs(f_mid - q[run]) <= tol) | (level == max_iter)
        a[run[done]], fa[run[done]] = mid[done], f_mid[done]
        up = f_mid > q[run]
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        run, lo, hi = run[~done], lo[~done], hi[~done]
    return a, np.abs(fa - q)


def invert_F(q_hat, anchor_heights, weights, tol=1e-12, max_iter=200):
    """
    The unique a >= 0 with F(a) = q_hat, by bisection on the strictly
    decreasing response curve.  Out-of-range targets clamp to the nearest
    bracket endpoint.  Returns (a, residual).  The one-target case of the
    batched ``_bisect`` that the aggregated stage runs.
    """
    a, resid = _bisect([q_hat], *_curve(anchor_heights, weights), tol,
                       max_iter)
    return float(a[0]), float(resid[0])


def final_correction(h_v, anchor_heights):
    """Clamp the estimate below every anchor height."""
    return min(h_v, min(anchor_heights))


# ---------------------------------------------------------------------- #
# Estimation driver                                                       #
# ---------------------------------------------------------------------- #


# Rows per ``pair_wins`` call of ``_responses``, in whole vertices; bounds
# the oracle's temporaries.  A vertex with more rows goes alone in its run.
_CHUNK_ROWS = 1 << 14


class _WeightDriver:
    def __init__(self, oracle, topology, cfg):
        self.oracle = oracle
        self.topo = topology
        self.cfg = cfg
        self.n = topology.n_leaves
        if cfg.pair_cap is not None and cfg.pair_cap < 1:
            raise ValueError(f"pair_cap must be at least 1, got {cfg.pair_cap}")
        self.pair_cap = (max(4 * self.n, 64) if cfg.pair_cap is None
                         else cfg.pair_cap)
        if set(topology.leaf_labels) != set(oracle.labels):
            raise ValueError("topology and oracle leaf sets differ")
        # the tree's depth-first layout, child1's subtree first: node v
        # sits at pre[v] with its subtree in the next 2 nl[v] - 1 places,
        # and its leaves' oracle indices are order[first[v]:first[v] + nl[v]]
        # (the oracle indexes the same sorted labels as the layout's ranks)
        self.nl = topology.leaf_counts()
        self.topdown = topology.topo_order().tolist()
        self.pre, self.first, self.order = topology.layout()
        self.preorder = np.empty(topology.n_nodes, dtype=np.int64)
        self.preorder[self.pre] = np.arange(topology.n_nodes)
        # smallest leaf under each node: the even entries of a reduceat
        # over the interleaved bounds [first, first + nl) (the appended 0
        # makes the bound n a valid index)
        bounds = np.stack([self.first, self.first + self.nl], axis=1).ravel()
        self.min_leaf = np.minimum.reduceat(np.append(self.order, 0),
                                            bounds)[::2]
        self._leafsets = {}

    def leafset(self, v):
        """Sorted oracle indices of the leaves under node v, built on first read."""
        s = self._leafsets.get(v)
        if s is None:
            f = self.first[v]
            s = self._leafsets[v] = np.sort(self.order[f:f + self.nl[v]])
        return s

    # -- primitive estimators ------------------------------------------- #

    def _rep_pairs(self, vertices):
        """Smallest-index leaf in each child subtree of internal vertices."""
        V = np.asarray(vertices, dtype=np.int64)
        return (self.min_leaf[self.topo.child1[V]],
                self.min_leaf[self.topo.child2[V]])

    def _responses(self, vertices, witnesses, spans=None):
        """
        Mean answers of each vertex's representative pair (a, b) against
        ``witnesses``, as a (vertices, spans) array: entry (r, s) is the
        mean of wins(a, b, c) over c in ``witnesses[lo:hi]`` for the s-th
        ``(lo, hi)`` of ``spans`` (default: one span over all of them).

        The pairs go to ``pair_wins`` in runs of whole vertices of at most
        ``_CHUNK_ROWS`` rows.  Each mean is a row-wise ``mean`` over one
        span of a run's (vertices, witnesses) matrix: the same pairwise sum
        as ``np.mean`` of that vertex's own ``wins`` call, so bit-equal to
        it.  ``np.add.reduceat`` sums in another order and is not.
        """
        C = np.asarray(witnesses, dtype=np.int64)
        spans = spans or [(0, len(C))]
        X, Y = self._rep_pairs(vertices)
        out = np.empty((len(X), len(spans)))
        step = max(1, _CHUNK_ROWS // len(C))
        for lo in range(0, len(X), step):
            W = self.oracle.pair_wins(X[lo:lo + step], Y[lo:lo + step], C)
            for s, (a, e) in enumerate(spans):
                out[lo:lo + step, s] = W[:, a:e].mean(axis=1)
        return out

    def _few_witnesses(self, k):
        """The warning for an anchored response over ``k`` witnesses."""
        return ([f"anchor-witnesses-below-{_ANCHOR_K_MIN}"]
                if k < _ANCHOR_K_MIN else [])

    def _safe_height_from_prob(self, p, warnings):
        if p <= 0 or p > 0.5:
            warnings.append(f"response-clamped({p:.4g})")
            p = min(max(p, _P_CLAMP_EPS), 0.5)
        return height_from_prob(p)

    def _cross_pairs(self, v):
        """The first pairs spanning v's children, at most ``pair_cap``."""
        L, R = (self.leafset(c) for c in self.topo.children(v))
        t = np.arange(min(len(L) * len(R), self.pair_cap), dtype=np.int64)
        return L[t // len(R)], R[t % len(R)]

    def _cross_responses(self, vertices, witness):
        """
        Mean answer of each vertex's cross pairs against one witness leaf,
        all read in one ``pair_wins`` call; each mean is ``np.mean`` over
        the vertex's slice of it.
        """
        if not vertices:
            return []
        rows = [self._cross_pairs(v) for v in vertices]
        W = self.oracle.pair_wins(np.concatenate([a for a, _ in rows]),
                                  np.concatenate([b for _, b in rows]),
                                  [witness])[:, 0]
        ends = np.cumsum([len(a) for a, _ in rows]).tolist()
        return [float(np.mean(W[e - len(a):e]))
                for (a, _), e in zip(rows, ends)]

    # -- the stages ------------------------------------------------------ #

    def light_tree(self, side, far):
        """
        Estimates for the internal vertices under ``side``, each inverted
        directly from its response against every leaf under ``far``.
        """
        wits = self.leafset(far)
        verts = self._internal_under(side)
        out = {}
        for v, p in zip(verts, self._responses(verts, wits)[:, 0].tolist()):
            warns = self._few_witnesses(len(wits))
            out[v] = VertexEstimate(self._safe_height_from_prob(p, warns),
                                    "fine", "light-tree", warns)
        return out

    def right_path(self, info):
        """
        Estimates for the heavy-path vertices v_1..v_f plus v_{f+1}, from
        the pairs spanning each (at most ``pair_cap`` of them) against one
        leaf of the root's light side.
        """
        light_r, _ = self.topo.ordered_children(self.topo.root)
        witness = int(self.min_leaf[light_r])
        verts = [v for v in info.path[1:info.f + 2] if not self.topo.is_leaf(v)]
        out = {}
        for v, p in zip(verts, self._cross_responses(verts, witness)):
            warns = []
            out[v] = VertexEstimate(self._safe_height_from_prob(p, warns),
                                    "fine", "right-path", warns)
        return out

    # -- the pipeline ---------------------------------------------------- #

    def run(self):
        topo = self.topo
        est = {}
        for v in np.flatnonzero(topo.child1 == NO_NODE).tolist():
            est[v] = VertexEstimate(0.0, "exact", "leaf")
        est[topo.root] = VertexEstimate(1.0, "exact", "root-normalization")

        info = classify_heavy(topo)
        light_r, heavy_r = topo.ordered_children(topo.root)

        # 1) light subtree of the root; with two heavy children at the
        # root, every vertex inverts directly against the opposite side
        est.update(self.light_tree(light_r, heavy_r))
        if info.heavy[light_r]:
            est.update(self.light_tree(heavy_r, light_r))
            return self._finish(est)

        # 2) the heavy path v_1..v_f, plus the first vertex below it
        est.update(self.right_path(info))
        path, f = info.path, info.f

        # 3) left subtrees hanging off the heavy path above v_f, one block
        # per path index
        for idx in range(1, f + 1):
            far = self.leafset(path[idx + 1])
            h_anchor = est[path[idx]].value
            verts = self._internal_under(info.left_child[idx])
            for v, p in zip(verts, self._responses(verts, far)[:, 0].tolist()):
                warns = self._few_witnesses(len(far))
                if p < 0.25:
                    warns.append(f"anchored-response-below-quarter({p:.4g})")
                    p = 0.25
                p = min(max(p, _P_CLAMP_EPS), 0.5)
                h = reconstruct_left_heavy(p, max(h_anchor, 1e-12))
                est[v] = VertexEstimate(h, "fine", "anchored-left", warns)

        # 4) vertices strictly below v_{f+1}: aggregate anchored estimates,
        # all read in one block whose witnesses are the anchors' far sets
        if f + 1 < len(path):
            below = [
                v for v in self._internal_under(path[f + 1]) if v != path[f + 1]
            ]
            if below:
                # an anchor clamped to height 0 makes h_a / (2 h_a + h)
                # degenerate: leave it out and say so on every vertex
                a_heights, a_weights, far_sets, dropped = [], [], [], []
                for i, size in zip(info.anchors, info.anchor_sizes):
                    if est[path[i]].value <= 0:
                        dropped.append(f"anchor-dropped({i})")
                        continue
                    a_heights.append(est[path[i]].value)
                    a_weights.append(size)
                    far_sets.append(self.leafset(info.left_child[i]))
                if not a_heights:
                    raise EstimationFailure("anchor heights must be positive")
                ends = np.cumsum([len(far) for far in far_sets]).tolist()
                spans = list(zip([0] + ends[:-1], ends))
                short = [w for far in far_sets
                         for w in self._few_witnesses(len(far))]
                p_hats = self._responses(below, np.concatenate(far_sets), spans)
                q_hats = [aggregate_anchor_probs(p_v, a_weights)
                          for p_v in p_hats.tolist()]
                hs, resids = _bisect(q_hats, *_curve(a_heights, a_weights),
                                     self.cfg.bisect_tol, _BISECT_MAX_ITER)
                for v, h, resid in zip(below, hs.tolist(), resids.tolist()):
                    warns = dropped + short
                    h = final_correction(h, a_heights)
                    est[v] = VertexEstimate(h, "coarse", "aggregated-anchors",
                                            warns, residual=resid)
        return self._finish(est)

    def _internal_under(self, top):
        """The internal nodes under ``top`` (itself included), sorted."""
        at = self.pre[top]
        nodes = self.preorder[at:at + 2 * self.nl[top] - 1]
        return np.sort(nodes[self.topo.child1[nodes] != NO_NODE]).tolist()

    def _finish(self, est):
        # top-down monotonicity clamp, then edge weights as differences
        parent = self.topo.parent.tolist()
        for v in self.topdown:
            p = parent[v]
            if p != NO_NODE and est[v].value > est[p].value:
                est[v].value = est[p].value
                est[v].warnings.append("clamped-to-parent")
        edges = {v: est[p].value - est[v].value
                 for v, p in enumerate(parent) if p != NO_NODE}
        return HeightEstimates(topology=self.topo, by_node=est,
                               edge_weights=edges)


def compute_light_tree(oracle, topology, cfg=None):
    """Height estimates for all internal vertices on the root's light side."""
    drv = _WeightDriver(oracle, topology, cfg or WeightConfig())
    return drv.light_tree(*topology.ordered_children(topology.root))


def reconstruct_right_path(oracle, topology, cfg=None):
    """Height estimates for the heavy-path vertices v_1..v_f (+ v_{f+1})."""
    drv = _WeightDriver(oracle, topology, cfg or WeightConfig())
    out = {topology.root: VertexEstimate(1.0, "exact", "root-normalization")}
    out.update(drv.right_path(classify_heavy(topology)))
    return out


def anchor_estimate(oracle, topology, v, anchor, cfg=None):
    """
    Anchored response of internal vertex ``v`` against ``anchor``, a proper
    ancestor of v: the fraction of experiments (a, b, c_i) answering (a, b)
    with c_i in the anchor's subtree away from v.  Returns (p_hat, k).
    Raises ``ValueError`` unless v is internal and ``anchor`` lies above it.
    """
    v, anchor = int(v), int(anchor)
    if not (0 <= v < topology.n_nodes and 0 <= anchor < topology.n_nodes) \
            or topology.is_leaf(v):
        raise ValueError("anchor_estimate takes an internal vertex v")
    near = v  # ends at the anchor's child on v's side
    while near != NO_NODE and topology.parent[near] != anchor:
        near = int(topology.parent[near])
    if near == NO_NODE:
        raise ValueError("anchor must be a proper ancestor of v")
    c1, c2 = topology.children(anchor)
    far = c2 if near == c1 else c1
    drv = _WeightDriver(oracle, topology, cfg or WeightConfig())
    return float(drv._responses([v], drv.leafset(far))[0, 0]), int(drv.nl[far])


def reconstruct_weights(oracle, topology, cfg=None):
    """
    Estimate every vertex height and edge weight of ``topology`` from the
    oracle's experiments.  Returns HeightEstimates; leaves are exactly 0,
    the root exactly 1, and heights are monotone along root-leaf paths.
    """
    return _WeightDriver(oracle, topology, cfg or WeightConfig()).run()
