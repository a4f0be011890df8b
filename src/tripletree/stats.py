"""
Concentration-bound helpers and the indistinguishable-tree-pair machinery.

The lower-bound construction builds two ultrametric trees that differ only
in the relative topology of three leaves a, b, c glued to a shared left
subtree; the inner edge separating the alternatives has weight rho/sqrt(n).
Each of the C(n,3) experiments falls into one of five classes by how its
answer distribution differs between the two trees, and the aggregate
total-variation bound is certified numerically from exact per-class
Hellinger distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise_oracle import make_model, triple_distribution
from .tree_core import InfeasibleTreeError, Tree, _Builder


def hoeffding_radius(k, n):
    """Deviation radius 4*sqrt(ln(n)/k) for a mean of k iid [0,1] variables."""
    if k <= 0 or n <= 1:
        raise ValueError("need k >= 1 and n >= 2")
    return 4.0 * math.sqrt(math.log(n) / k)


def generalized_hoeffding_tail(ranges, t):
    """
    Upper bound on P(|sum - E[sum]| >= t) for independent variables with
    the given [a_i, b_i] ranges: exp(-2 t^2 / sum (b_i - a_i)^2).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 1.0
    span = sum((b - a) ** 2 for a, b in ranges)
    if span == 0:
        return 0.0
    return float(math.exp(-2.0 * t * t / span))


@dataclass
class DiscreteDistribution:
    """A finite distribution: ordered support labels plus probabilities."""

    labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if len(self.labels) != len(self.probs):
            raise ValueError("labels and probabilities differ in length")
        if np.any(self.probs < 0):
            raise ValueError("negative probability")
        if abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {self.probs.sum()!r}, not 1")


def _aligned_probs(P, Q):
    if isinstance(P, DiscreteDistribution) and isinstance(Q, DiscreteDistribution):
        if P.labels != Q.labels:
            raise ValueError("distributions have different supports")
        return P.probs, Q.probs
    p = np.asarray(P, dtype=np.float64)
    q = np.asarray(Q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("distributions have different supports")
    return p, q


def hellinger(P, Q):
    """Hellinger distance sqrt(sum (sqrt(p)-sqrt(q))^2 / 2), in [0, 1]."""
    return math.sqrt(hellinger_sq(P, Q))


def hellinger_sq(P, Q):
    """
    Squared Hellinger distance, computed via (p-q)/(sqrt(p)+sqrt(q)) to
    keep precision when p and q are close.
    """
    p, q = _aligned_probs(P, Q)
    denom = np.sqrt(p) + np.sqrt(q)
    diff = np.zeros_like(p)
    nz = denom > 0
    diff[nz] = (p[nz] - q[nz]) / denom[nz]
    return float(0.5 * np.sum(diff * diff))


def tvd(P, Q):
    """Total variation distance: half the L1 distance between the vectors."""
    p, q = _aligned_probs(P, Q)
    return float(0.5 * np.sum(np.abs(p - q)))


# ---------------------------------------------------------------------- #
# The indistinguishable tree pair                                         #
# ---------------------------------------------------------------------- #

CLASS_NAMES = ("A1", "A2", "A3", "A4", "A5")


@dataclass
class LowerBoundPair:
    """
    Trees t1 and t2 differ only in which of b, c is the sibling of a.

    t1: cherry (a,b) under p, then (p,c) under q, q under the root.
    t2: cherry (a,c) under x, then (x,b) under y, y under the root.
    Corresponding edges carry identical weights; the inner edge has weight
    rho/sqrt(n) and the cherry edges weight 1/3.  The left subtree B is
    shared verbatim.
    """

    t1: Tree
    t2: Tree
    a: str
    b: str
    c: str
    rho: float
    n: int
    class_counts: dict


def _levels(m):
    """Edge count on the longest root-leaf path of a balanced m-leaf subtree."""
    return 0 if m <= 1 else 1 + _levels((m + 1) // 2)


def _balanced_subtree(builder, names, height):
    """Balanced ultrametric subtree over ``names`` with root at ``height``."""

    def build(lo, hi, h):
        if hi - lo == 1:
            return builder.add_leaf(names[lo])
        mid = (lo + hi + 1) // 2
        lev = _levels(hi - lo)
        left = build(lo, mid, h * _levels(mid - lo) / lev)
        right = build(mid, hi, h * _levels(hi - mid) / lev)
        return builder.add_internal(left, right, h)

    return build(0, len(names), height)


def build_lower_bound_pair(n, rho, allow_zero_inner=False):
    """
    Construct the two nearly indistinguishable trees for leaf count ``n``
    and inner-edge scale ``rho`` (every edge weight ends up >= rho/sqrt(n)).
    The shared subtree is balanced, with its root at height 2/3.
    """
    if n < 6:
        raise ValueError("need n >= 6 so the shared subtree has >= 3 leaves")
    if rho > 1.0 / 100.0 + 1e-15:
        raise ValueError("rho must be at most 1/100")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    inner = rho / math.sqrt(n)
    if rho == 0 and not allow_zero_inner:
        raise InfeasibleTreeError(
            "rho = 0 collapses the inner edge; pass allow_zero_inner=True "
            "to build the degenerate pair anyway"
        )
    h_base = 2.0 / 3.0
    if inner >= 1.0 / 3.0:
        raise InfeasibleTreeError("rho/sqrt(n) must stay below the cherry depth 1/3")

    m = n - 3
    width = max(4, len(str(m - 1)))
    base_names = [f"x{i:0{width}d}" for i in range(m)]
    min_base_edge = h_base / max(1, _levels(m))
    if rho > 0 and min_base_edge < inner:
        raise InfeasibleTreeError(
            f"balanced base of height {h_base} has edges of weight "
            f"{min_base_edge:.3g} < rho/sqrt(n) = {inner:.3g}"
        )

    def build_tree(sibling_of_a, outer_leaf):
        bld = _Builder()
        base_root = _balanced_subtree(bld, base_names, h_base)
        la = bld.add_leaf("a")
        ls = bld.add_leaf(sibling_of_a)
        cherry = bld.add_internal(la, ls, 1.0 / 3.0)
        lo = bld.add_leaf(outer_leaf)
        upper = bld.add_internal(cherry, lo, 1.0 / 3.0 + inner)
        bld.add_internal(base_root, upper, 1.0)
        return bld.finish()

    t1 = build_tree("b", "c")
    t2 = build_tree("c", "b")
    counts = {
        "A1": math.comb(m, 3) + 3 * math.comb(m, 2),
        "A2": m,
        "A3": 1,
        "A4": m,
        "A5": m,
    }
    return LowerBoundPair(t1=t1, t2=t2, a="a", b="b", c="c",
                          rho=float(rho), n=int(n), class_counts=counts)


def _class_representatives(pair):
    """
    Representative triples per class.  Within A2..A5 every triple has the
    same pairwise-distance profile, so one representative carries the exact
    per-triple Hellinger distance; A1 gets several witnesses, all of which
    must come out identical across the two trees.
    """
    x = sorted(lab for lab in pair.t1.leaf_labels if lab not in ("a", "b", "c"))
    reps = {
        "A1": [(x[0], x[1], x[2]), ("a", x[0], x[1]),
               ("b", x[0], x[1]), ("c", x[0], x[1])],
        "A2": [(x[0], "b", "c")],
        "A3": [("a", "b", "c")],
        "A4": [("a", "b", x[0])],
        "A5": [("a", "c", x[0])],
    }
    return reps


def distinguishability_report(pair, model="homogeneous"):
    """
    Exact per-class squared Hellinger distances between the answer
    distributions of the two trees, and the aggregate Hellinger / total
    variation bounds via product subadditivity (H^2 of the joint is at
    most the sum of per-experiment H^2).
    """
    model = make_model(model)
    reps = _class_representatives(pair)
    classes = []
    total_h2 = 0.0
    for name in CLASS_NAMES:
        h2_max = 0.0
        for trip in reps[name]:
            d1 = triple_distribution(pair.t1, model, *trip)
            d2 = triple_distribution(pair.t2, model, *trip)
            h2_max = max(h2_max, hellinger_sq(d1, d2))
        count = pair.class_counts[name]
        classes.append({"name": name, "count": count, "h2_max": h2_max})
        total_h2 += count * h2_max
    h_bound = math.sqrt(total_h2)
    return {
        "classes": classes,
        "hellinger_bound": min(1.0, h_bound),
        "tvd_bound": min(1.0, math.sqrt(2.0) * h_bound),
        "rho": pair.rho,
        "n": pair.n,
    }
