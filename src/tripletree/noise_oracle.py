"""
Distance-based noise models and the permanent-noise experiment sources.

An experiment on a leaf triple returns one of the three pairs.  The chance
of each pair depends only on the pairwise distances; the two pairs that are
not closest have equal probability.  Answers are *permanent*: the first
answer for a triple is fixed and every later query (in any argument order)
returns the same pair.

An oracle is one answer store plus a rule that decides a triple never
asked before.  The store keeps a 2-bit code per canonical triple
``i < j < k`` at rank ``C(k,3) + C(j,2) + i``, 0 for never asked and
``slot + 1`` for the answer.  A repeated triple is one gather, and the
number of distinct triples asked is the number of codes written.  The
store takes ``ceil(C(n,3)/4)`` bytes (1 MB at n=256, 1.4 MB at n=323,
357 MB at n=2048), allocated zeroed on the first read of an answer, so
that only the pages actually written are resident and an oracle whose
answers are never read allocates none.  ``OracleState`` decides a new
triple with a uniform variate from an integer hash of (oracle seed,
canonical triple id ``i*n*n + j*n + k``), so the answer is a pure
function of those inputs and is reproducible across runs and platforms;
under the noiseless model it takes the closest pair.
``ExpectationOracle`` stands in for infinitely many samples: it decides a
new triple with its first most likely slot.

Each oracle answers two read shapes, and every reader is a case of one of
them.  ``pass_slots(S)`` answers every triple of the sorted leaf ids
``S`` in rank order, one layer at a time, through ``_layer_reader``: the
triples whose top position is c are the first C(c,2) pairs (b, a) of
``np.tril_indices(l, -1)``, so each layer reads its distances from two
per-pass vectors and one row of the distances among ``S``, with no
per-row index gathers.  Every other reader asks masked experiments
through ``_pair_codes(lo, hi, w, top, mid)``: the experiment on a pair
lo < hi and a witness w, whose canonical order (lo, hi, w), (lo, w, hi)
or (w, lo, hi) is fixed by the masks ``top = w > hi`` and ``mid = w >
lo``, answers with the code slot + 1, so the pair (lo, hi) has code 3 -
top - mid and the pair (lo, w) code 1 + top.

``tallies(X, Y, W)`` (the three-way answer counts of pairs over
witnesses, which every decision of the topology driver after its first
pass reads) and ``pair_wins(X, Y, W)`` (the ``wins`` of pairs over
witnesses, which the weight estimators average and ``sibling_scores``
sums) read the experiments (X[p], Y[p], w) in blocks, through one front,
``_pair_blocks``.  The flat readers take one experiment per row, through
one front, ``_flat``: ``answers`` the answer in argument order (0:
(A,B), 1: (A,C), 2: (B,C)); ``wins`` the indicator of the pair (A, B)
(its probability in expectation mode; no package path reads it); and
``query`` the answer to one labelled triple.  Both fronts check every row
once, before any is read: a bad row (not three distinct leaves in [0, n))
raises ``ValueError``.

``_pair_codes`` builds the store ranks from the masks and gathers codes
with one reader, ``_read``, which decides each never-asked triple once
(``_decide``).  The layer reader checks with one masked read per store
byte that a layer is all new, decides it with the same rule and ORs one
value into each byte, and sends a layer that holds an answered triple,
or whose ranks are not consecutive (``S`` does not run 0, 1, 2, ... up to
it), through ``_read``.  Expectation mode's ``wins`` and ``pair_wins``
are probabilities, not answers, and read no store: the model's
``pair_prob`` at d(lo, hi), d(lo, w) and d(hi, w), which by default is
the pair's slot of ``slot_probs`` at those distances placed in canonical
order (``_place``).  ``HomogeneousModel`` overrides it with a closed form
that gives the same bits without the placement, (dl + dh) / (2 (dp + dl
+ dh)) summed in the placement's order.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_U64 = np.uint64
_MIX1 = _U64(0x9E3779B97F4A7C15)
_MIX2 = _U64(0xBF58476D1CE4E5B9)
_MIX3 = _U64(0x94D049BB133111EB)
_INV_2_53 = float(2.0 ** -53)


def _splitmix64(x):
    """Vectorized splitmix64 finalizer over uint64 arrays (wrapping)."""
    with np.errstate(over="ignore"):
        z = x + _MIX1
        z = (z ^ (z >> _U64(30))) * _MIX2
        z = (z ^ (z >> _U64(27))) * _MIX3
        return z ^ (z >> _U64(31))


def keyed_uniform(seed, triple_ids):
    """Deterministic uniforms in [0, 1) keyed by (seed, canonical triple id)."""
    base = _splitmix64(np.asarray(seed, dtype=np.uint64))
    h = _splitmix64(np.asarray(triple_ids, dtype=np.uint64) ^ base)
    return (h >> _U64(11)).astype(np.float64) * _INV_2_53


# ---------------------------------------------------------------------- #
# Noise models                                                            #
# ---------------------------------------------------------------------- #


def p_correct_homogeneous(d1, d2):
    """
    Probability that the closest pair is returned under the homogeneous
    model, with d1 the closest-pair distance and d2 the common distance of
    the two other pairs: d2 / (d1 + 2 d2).  Lies in [1/3, 1/2].
    """
    if d2 <= 0:
        raise ValueError("d2 must be positive")
    if d1 < 0 or d1 > d2:
        raise ValueError("need 0 <= d1 <= d2")
    return d2 / (d1 + 2.0 * d2)


def _place(dp, dl, dh, top, mid):
    """
    The distances (d01, d02, d12) of the canonical triple of each
    experiment on a pair lo < hi and a witness w, from dp = d(lo, hi),
    dl = d(lo, w) and dh = d(hi, w): the masks ``top = w > hi`` and
    ``mid = w > lo`` fix the order (lo, hi, w), (lo, w, hi) or (w, lo, hi).
    """
    return (np.where(top, dp, dl), np.where(top, dl, np.where(mid, dp, dh)),
            np.where(mid, dh, dp))


class NoiseModel:
    """
    A distance-based noise model.  Subclasses implement ``slot_probs``:
    given the three pairwise distances of a canonical triple (i < j < k),
    return the probabilities of answering (i,j), (i,k), (j,k).
    ``pair_prob`` reads the probability of one pair of an experiment
    through it, and a model may override it with a closed form.
    """

    kind = "abstract"
    sampled = True  # noiseless overrides: no random draw needed

    def slot_probs(self, d01, d02, d12):
        raise NotImplementedError

    def pair_prob(self, dp, dl, dh, top, mid):
        """
        Probability that the experiment on a pair lo < hi and a witness w
        answers (lo, hi), from the distances and masks of ``_place``: the
        pair's slot, 0 (top), 1 (mid) or 2, of ``slot_probs`` at the
        placed distances.
        """
        p0, p1, p2 = self.slot_probs(*_place(dp, dl, dh, top, mid))
        return np.where(top, p0, np.where(mid, p1, p2))


class HomogeneousModel(NoiseModel):
    """
    Each pair is returned with probability (sum of the two other distances)
    over twice the total.  Scale-invariant; the closest pair's probability
    is d2/(d1 + 2 d2) in [1/3, 1/2].  Distance sensitivity constant 1/6.
    """

    kind = "homogeneous"
    epsilon = 1.0 / 6.0

    def slot_probs(self, d01, d02, d12):
        s = 2.0 * (d01 + d02 + d12)
        return (d02 + d12) / s, (d01 + d12) / s, (d01 + d02) / s

    def pair_prob(self, dp, dl, dh, top, mid):
        """
        ``NoiseModel.pair_prob`` in closed form, bit for bit: in every
        placement the pair's numerator is dl + dh, and the total is
        (dp + dl) + dh where ``mid`` and (dl + dh) + dp where not (IEEE
        ``+`` commutes), so ``top`` is not needed.  A subclass that
        overrides ``slot_probs`` is read through it.
        """
        if type(self).slot_probs is not HomogeneousModel.slot_probs:
            return super().pair_prob(dp, dl, dh, top, mid)
        num = dl + dh
        return num / (2.0 * np.where(mid, (dp + dl) + dh, num + dp))


class NoiselessModel(NoiseModel):
    """Always returns the true closest pair."""

    kind = "noiseless"
    sampled = False

    def slot_probs(self, d01, d02, d12):
        p0 = ((d01 < d02) & (d01 < d12)).astype(np.float64)
        p1 = ((d02 < d01) & (d02 < d12)).astype(np.float64)
        return p0, p1, 1.0 - p0 - p1


class CustomModel(NoiseModel):
    """
    User-supplied p_correct(d1, d2) with a declared distance-sensitivity
    constant.  Registration validates, on a 20x20 grid with central
    differences, that p_correct stays in [1/3, 1] and that its slope in d1
    is at most -epsilon.
    """

    kind = "custom"

    def __init__(self, p_correct, epsilon, d_max=2.0, validate=True):
        self.p_correct = np.vectorize(p_correct, otypes=[np.float64])
        self.epsilon = float(epsilon)
        if validate:
            self._validate(d_max)

    def _validate(self, d_max):
        eps = self.epsilon
        for d2 in np.linspace(d_max / 20.0, d_max, 20):
            d1 = np.linspace(d2 / 40.0, d2 * 0.975, 20)
            step = d1[1] - d1[0]
            p = self.p_correct(d1, np.full_like(d1, d2))
            if np.any(p < 1.0 / 3.0 - 1e-12) or np.any(p > 1.0 + 1e-12):
                raise ValueError(
                    f"custom model out of range at d2={d2:.4g}: "
                    f"p_correct must lie in [1/3, 1]"
                )
            slope = (p[2:] - p[:-2]) / (2.0 * step)
            if np.any(slope > -eps + 1e-9):
                raise ValueError(
                    f"custom model violates the declared sensitivity "
                    f"{eps} at d2={d2:.4g} (max slope {slope.max():.4g})"
                )

    def slot_probs(self, d01, d02, d12):
        d01 = np.asarray(d01, dtype=np.float64)
        dmin = np.minimum(np.minimum(d01, d02), d12)
        dmax = np.maximum(np.maximum(d01, d02), d12)
        pc = self.p_correct(dmin, dmax)
        pi = (1.0 - pc) / 2.0
        p0 = np.where((d01 <= d02) & (d01 <= d12), pc, pi)
        p1 = np.where((d02 < d01) & (d02 <= d12), pc, pi)
        p2 = np.where((d12 < d01) & (d12 < d02), pc, pi)
        return p0, p1, p2


def make_model(spec):
    """'homogeneous' | 'noiseless' | a NoiseModel instance."""
    if isinstance(spec, NoiseModel):
        return spec
    if spec == "homogeneous":
        return HomogeneousModel()
    if spec == "noiseless":
        return NoiselessModel()
    raise ValueError(f"unknown noise model {spec!r}")


# ---------------------------------------------------------------------- #
# Distribution of a single experiment                                     #
# ---------------------------------------------------------------------- #


def triple_distribution(tree, model, a, b, c):
    """
    Exact probabilities (p_ab, p_bc, p_ca) of the three possible answers to
    an experiment on distinct leaves (a, b, c).
    """
    if len({a, b, c}) != 3:
        raise ValueError("triple_distribution requires three distinct leaves")
    model = make_model(model)
    dab = tree.leaf_distance(a, b)
    dbc = tree.leaf_distance(b, c)
    dca = tree.leaf_distance(c, a)
    p_ab, p_bc, p_ca = model.slot_probs(
        np.float64(dab), np.float64(dbc), np.float64(dca)
    )
    return float(p_ab), float(p_bc), float(p_ca)


# Infinite-sample stand-in for a noisy experiment: the exact distribution.
expectation_query = triple_distribution


# ---------------------------------------------------------------------- #
# Oracles                                                                 #
# ---------------------------------------------------------------------- #


# Rows per block of ``pass_slots`` and ``tallies``; bounds their temporaries.
_BLOCK_ROWS = 1 << 16
# Rows per block of ``pair_wins`` (float64 temporaries of 64 KiB): an
# n=2048 expectation ``reconstruct_weights`` took 0.084 s with it and
# 0.119 s with blocks of 16K rows.
_WIN_BLOCK_ROWS = 1 << 13


def _pack(codes):
    """Store bytes of 2-bit codes laid out four to a byte, lowest first."""
    v = codes.view("<u4")
    return (v | v >> 6 | v >> 12 | v >> 18).astype(np.uint8)


class _OracleBase:
    """
    Leaf indexing, distance plumbing, the answer store and its readers,
    shared by both oracles.  A class differs in how it decides a triple
    never asked before (``_draws``, see ``_decide``) and in what its
    ``wins`` and ``pair_wins`` read (``_pair_wins``).
    """

    _draws = False

    def __init__(self, tree, model):
        self.tree = tree
        self.model = make_model(model)
        self.labels = tree.leaf_labels
        self.n_leaves = n = len(self.labels)
        self.index_of = {lab: i for i, lab in enumerate(self.labels)}
        self._D = None
        self._count = 0
        self._n2 = n * n
        m = np.arange(n, dtype=np.int64)
        c2 = m * (m - 1) // 2
        # C(m, 2) and C(m, 3) in int32 while every rank fits, which halves
        # the bytes of the rank arithmetic in ``_pair_codes``
        dt = np.int32 if math.comb(n, 3) <= np.iinfo(np.int32).max else np.int64
        self._c2, self._c3 = c2.astype(dt), (c2 * (m - 2) // 3).astype(dt)

    @functools.cached_property
    def _store(self):
        """The answer store, allocated zeroed on the first read of a triple."""
        return np.zeros((math.comb(self.n_leaves, 3) + 3) // 4, dtype=np.uint8)

    @property
    def query_count(self):
        """Distinct triples asked so far."""
        return self._count

    def distribution(self, a, b, c):
        return triple_distribution(self.tree, self.model, a, b, c)

    @staticmethod
    def _rows(A, B, C):
        """
        Leaf-index arguments of the readers as int64 arrays of one shape
        (at least 1-d); only an argument of another shape is broadcast.
        """
        rows = [np.atleast_1d(np.asarray(x, dtype=np.int64)) for x in (A, B, C)]
        shapes = {x.shape for x in rows}
        if len(shapes) == 1:
            return rows
        shape = np.broadcast_shapes(*shapes)
        return [x if x.shape == shape else np.broadcast_to(x, shape)
                for x in rows]

    @property
    def distances(self):
        if self._D is None:
            self._D = self.tree.distance_matrix()
        return self._D

    def _dist(self, I, J):
        return self.distances.ravel().take(I * self.n_leaves + J)

    # -- the answer store ----------------------------------------------- #

    def _decide(self, probs, ids):
        """
        Fresh answer slot of canonical triples from the model's slot
        probabilities ``probs``: a keyed draw when the oracle ``_draws``
        (an ``OracleState`` over a sampled model), whose ids ``i*n*n + j*n
        + k`` ``ids()`` gives as uint64, else the first most likely slot,
        as ``np.argmax`` over the three picks it, ties included (under the
        noiseless model, the one slot of probability 1).  Taken without
        stacking the three: ``np.argmax`` over a stack took 11 times as
        long on a 12,720-row layer.
        """
        p0, p1, p2 = probs
        if not self._draws:
            return np.where(p2 > np.maximum(p0, p1), 2, p1 > p0)
        u = keyed_uniform(self.seed, ids())
        return (u >= p0).astype(np.int64) + (u >= p0 + p1)

    def _read(self, rank, rows):
        """
        Answer codes (slot + 1) of the triples at the store ranks ``rank``
        (any shape).  Each never-asked triple is decided and stored once:
        ``rows(sel)`` gives the canonical rows (i, j, k) at the flat
        positions ``sel`` of ``rank``, asked only for those triples, whose
        codes are read again after the write.
        """
        byte = rank >> 2
        shift = ((rank & 3) << 1).astype(np.uint8)
        code = (self._store.take(byte) >> shift) & 3
        if code.all():
            return code
        new = np.flatnonzero(code == 0)
        fresh, first = np.unique(rank.reshape(-1)[new], return_index=True)
        i, j, k = rows(new[first])
        slot = self._decide(
            self.model.slot_probs(self._dist(i, j), self._dist(i, k),
                                  self._dist(j, k)),
            lambda: (i * self._n2 + j * self.n_leaves + k).astype(np.uint64))
        shift = shift.reshape(-1)
        bits = (slot + 1).astype(np.uint8) << shift[new[first]]
        np.bitwise_or.at(self._store, fresh >> 2, bits)
        self._count += len(fresh)
        code.reshape(-1)[new] = (
            self._store.take(byte.reshape(-1)[new]) >> shift[new]) & 3
        return code

    def _layer_reader(self, S, tb, ta):
        """
        The answers of one run of a ``pass_slots`` layer: ``layer(c, lo,
        hi, d01, d02, d12)`` for the triples (a, b, c) at tril positions
        ``lo:hi``, whose ranks C(S[c],3) + C(S[b],2) + S[a] rise strictly.
        When they are consecutive (``S`` runs 0, 1, 2, ... up to the run's
        b-rows, as in a pass over every leaf) the run fills the store
        bytes ``B0:B1`` from the first rank's to the last's: a run with no
        answered triple is decided as given, and each byte is read and
        written once.  Any other run goes through ``_read``.
        """
        c2, c3 = self._c2, self._c3
        key2 = S[ta] * self._n2 + S[tb] * self.n_leaves if self._draws else None

        def layer(c, lo, hi, d01, d02, d12):
            k = S[c]
            first = c3[k] + c2[S[tb[lo]]] + S[ta[lo]]
            last = c3[k] + c2[S[tb[hi - 1]]] + S[ta[hi - 1]]
            if last - first == hi - lo - 1:
                B0, B1 = first >> 2, (last >> 2) + 1
                at = slice(first - 4 * B0, last + 1 - 4 * B0)
                codes = np.zeros(4 * (B1 - B0), dtype=np.uint8)
                codes[at] = 3
                # one masked read per byte: the run's own 2-bit codes only
                if not (self._store[B0:B1] & _pack(codes)).any():
                    slot = self._decide(
                        self.model.slot_probs(d01, d02, d12),
                        lambda: (key2[lo:hi] + k).astype(np.uint64))
                    codes[at] = slot + 1
                    # a byte may hold other answers: OR in, never assign
                    self._store[B0:B1] |= _pack(codes)
                    self._count += hi - lo
                    return slot
            i, j = S[ta[lo:hi]], S[tb[lo:hi]]
            return self._read(c3[k] + c2[j] + i, lambda sel: (
                i[sel], j[sel], np.full(len(sel), k))) - 1

        return layer

    def _pair_codes(self, lo, hi, W, top, mid):
        """
        Answer slot + 1 of each experiment (lo, hi, w) of the masks' shape,
        as uint8, read off the store: one ``_read`` at the ranks of the
        three canonical orders, C(hi,3) + C(lo,2) + w below the pair,
        C(hi,3) + C(w,2) + lo between its leaves and C(w,3) + C(hi,2) + lo
        above it, each built from the one before by the masks.
        """
        c2, c3 = self._c2, self._c3
        a, b, w = (x.astype(c2.dtype) for x in (lo, hi, W))
        rank = w + (c3[b] + c2[a])
        rank += mid * ((c2[w] - w) + (a - c2[a]))
        rank += top * ((c3[w] - c2[w]) + (c2[b] - c3[b]))

        def rows(sel):
            i = np.where(mid, lo, W)
            j = np.where(top, hi, np.where(mid, W, lo))
            k = np.where(top, W, hi)
            return [x.reshape(-1)[sel] for x in (i, j, k)]

        return self._read(rank, rows)

    # -- readers -------------------------------------------------------- #

    def pass_slots(self, S):
        """
        Answer slots of every triple of the sorted leaf ids ``S`` in rank
        order, one layer at a time.  Yields ``(c, b0, b1, slot)``: ``slot``
        answers the position triples (a, b, c) with b0 <= b < b1 and a < b,
        in ``np.tril_indices(len(S), -1)`` order (tril positions C(b0,2) on).
        A layer c of more than ``_BLOCK_ROWS`` rows comes in runs of whole
        b-rows.  Raises ``ValueError`` unless ``S`` is sorted, distinct and
        in range, which makes every row a canonical triple.
        """
        S = np.asarray(S, dtype=np.int64)
        if S.ndim != 1 or not ((S[1:] > S[:-1]).all() and (S[:1] >= 0).all()
                               and (S[-1:] < self.n_leaves).all()):
            raise ValueError("pass_slots takes sorted distinct leaf ids")
        l = len(S)
        tb, ta = np.tril_indices(l, -1)
        DS = self.distances[np.ix_(S, S)]
        d01 = DS[tb, ta]  # d(a, b); a layer's rows are a prefix
        layer = self._layer_reader(S, tb, ta)
        c2 = np.arange(l + 1) * np.arange(-1, l) // 2  # C(b, 2)
        for c in range(2, l):
            row = DS[c, :c]  # d(a, c) and d(b, c)
            b0 = 1
            while b0 < c:
                cut = int(np.searchsorted(c2, c2[b0] + _BLOCK_ROWS, side="right"))
                b1 = min(c, max(b0 + 1, cut - 1))
                lo, hi = int(c2[b0]), int(c2[b1])
                yield c, b0, b1, layer(c, lo, hi, d01[lo:hi],
                                       row.take(ta[lo:hi]), row.take(tb[lo:hi]))
                b0 = b1

    def _flat(self, A, B, C):
        """
        The front of the flat readers: the experiments (A, B, C) as
        ``_pair_codes`` reads them.  Returns ``A > B`` and ``(lo, hi, C,
        top, mid)``, with lo < hi the row's min and max of A and B and the
        masks ``top = C > hi`` and ``mid = C > lo``, all of the arguments'
        broadcast shape.  Raises ``ValueError`` unless every row names
        three distinct leaves in [0, n): checked once, before any row is
        read, since a bad row would alias another triple.
        """
        A, B, C = self._rows(A, B, C)
        if A.size and not (
                0 <= min(A.min(), B.min(), C.min())
                and max(A.max(), B.max(), C.max()) < self.n_leaves
                and ((A != B) & (A != C) & (B != C)).all()):
            raise ValueError("oracle rows must name three distinct leaves")
        lo, hi = np.minimum(A, B), np.maximum(A, B)
        return A > B, (lo, hi, C, C > hi, C > lo)

    def answers(self, A, B, C):
        """
        Answer to each experiment (A, B, C), the most likely one in
        expectation mode: 0 (A, B), 1 (A, C), 2 (B, C).  Arguments are leaf
        indices of three distinct leaves per row, in any order (arrays or
        scalars).  The code of the pair (lo, hi) is 3 - top - mid and that
        of (lo, C) is 1 + top (see ``tallies``); lo is B where ``A > B``.
        """
        swap, (lo, hi, C, top, mid) = self._flat(A, B, C)
        code = self._pair_codes(lo, hi, C, top, mid)
        return np.where(code + top + mid == 3, 0,
                        np.where((code - top == 1) != swap, 1, 2))

    def _pair_blocks(self, X, Y, W, reader, block, by_pair):
        """
        The shared front of ``tallies`` and ``pair_wins``, the readers of
        the experiments (X[p], Y[p], w) over witnesses ``W``.  Returns X, Y
        and W as 1-d int64 arrays and an iterator over blocks of about
        ``block`` rows of whole pairs, ``(rows, lo, hi, w, top, mid)``:
        ``rows`` slices the block's pairs, ``lo < hi`` are their leaves,
        and the masks ``top = w > hi`` and ``mid = w > lo`` fix each row's
        canonical order (lo, hi, w), (lo, w, hi) or (w, lo, hi).  The masks
        are (p, m), with ``lo`` and ``hi`` as columns, when ``by_pair``, and
        (m, p), with ``w`` as a column, when not: numpy's inner loops run
        along the last axis, which should be the longer.  Raises
        ``ValueError`` unless every id lies in [0, n), X[p] != Y[p], and
        no witness is a leaf of a pair: checked once, before any row is
        read, since a bad row would alias another triple.
        """
        X, Y, W = (np.asarray(v, dtype=np.int64).reshape(-1) for v in (X, Y, W))
        n = self.n_leaves
        ids = np.concatenate([X, Y, W])
        if len(X) != len(Y) or (ids.size and not 0 <= ids.min() <= ids.max() < n):
            raise ValueError(f"{reader} takes pairs and witnesses of leaf ids")
        witness = np.zeros(n, dtype=bool)
        witness[W] = True
        if (X == Y).any() or witness[X].any() or witness[Y].any():
            raise ValueError(f"{reader} takes pairs of two leaves and "
                             "witnesses outside every pair")
        LO, HI, w = np.minimum(X, Y), np.maximum(X, Y), W[:, None]
        if by_pair:
            LO, HI, w = LO[:, None], HI[:, None], W
        per = max(1, block // max(1, len(W)))
        blocks = ((slice(s, s + per), LO[s:s + per], HI[s:s + per], w,
                   w > HI[s:s + per], w > LO[s:s + per])
                  for s in range(0, len(X) if len(W) else 0, per))
        return X, Y, W, blocks

    def tallies(self, X, Y, W):
        """
        Three-way answer counts of the experiments (X[p], Y[p], w) over the
        witnesses ``W`` (leaf ids, repeats counted): a (3, P) int64 array
        whose row 0 counts the answers (X[p], Y[p]), row 1 the answers
        (X[p], w) and row 2 the answers (Y[p], w).  Read in the (m, p)
        blocks of ``_pair_blocks`` (the topology driver asks many pairs
        against few witnesses), whose masks make the pair's answer code 3 -
        top - mid and the answer (lo, w) code 1 + top (codes are slot + 1,
        from ``_pair_codes``); raises ``ValueError`` as ``_pair_blocks``
        does.
        """
        X, Y, W, blocks = self._pair_blocks(X, Y, W, "tallies", _BLOCK_ROWS,
                                            by_pair=False)
        out = np.zeros((3, len(X)), dtype=np.int64)
        for rows, lo, hi, w, top, mid in blocks:
            code = self._pair_codes(lo, hi, w, top, mid)
            out[0, rows] = np.count_nonzero(code + top + mid == 3, axis=0)
            out[1, rows] = np.count_nonzero(code - top == 1, axis=0)
        out[2] = len(W) - out[0] - out[1]
        swap = X > Y  # row 1 counted the answers (lo, w)
        out[1, swap], out[2, swap] = out[2, swap], out[1, swap]
        return out

    def pair_wins(self, X, Y, W):
        """
        ``wins`` of the experiments (X[p], Y[p], w) over the witnesses
        ``W``: a (P, m) float64 array whose entry (p, q) equals
        ``wins(X[p], Y[p], W[q])`` bit for bit, read in the (p, m) blocks
        of ``_pair_blocks`` (the weight estimators ask few pairs against
        many witnesses) with no repeated rows; raises ``ValueError`` as
        ``_pair_blocks`` does.
        """
        X, Y, W, blocks = self._pair_blocks(X, Y, W, "pair_wins",
                                            _WIN_BLOCK_ROWS, by_pair=True)
        out = np.empty((len(X), len(W)))
        for rows, lo, hi, w, top, mid in blocks:
            out[rows] = self._pair_wins(lo, hi, w, top, mid)
        return out


class OracleState(_OracleBase):
    """
    Seeded permanent-noise query source over one tree.

    ``query(a, b, c)`` returns the answer pair for three leaf labels;
    ``answers(A, B, C)`` is the vectorized answer of each row in argument
    order, ``wins(A, B, C)`` the indicator that the answer to each row's
    triple is the pair (A, B), ``tallies(X, Y, W)`` the answer counts of
    pairs over witnesses, ``pair_wins(X, Y, W)`` the indicators of pairs
    over witnesses, and ``pass_slots(S)`` the answers to every triple of
    sorted leaf ids.  All of them read and fill the answer store (see the
    module docstring); a never-asked triple gets the keyed draw, or under
    the noiseless model its closest pair.  ``query_count`` is the number
    of codes written, i.e. of distinct triples asked so far.

    Not safe for concurrent mutation; run one reconstruction per instance.
    """

    def __init__(self, tree, model, seed):
        super().__init__(tree, model)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._draws = self.model.sampled

    def _pair_wins(self, lo, hi, W, top, mid):
        """
        1.0 where the experiment (lo, hi, w) answered (lo, hi), whose code
        is 3 - top - mid.
        """
        code = self._pair_codes(lo, hi, W, top, mid)
        return (code + top + mid == 3).astype(np.float64)

    def wins(self, A, B, C):
        """
        Float indicator per row: 1.0 iff the experiment on (A, B, C)
        answered with the pair (A, B).  Arguments are leaf indices of three
        distinct leaves per row, in any order (arrays or scalars).
        """
        return self._pair_wins(*self._flat(A, B, C)[1])

    def query(self, a, b, c):
        """
        The permanent answer to the experiment on leaf labels (a, b, c),
        as a sorted label pair.  Repeats (in any order) return the same
        answer without counting again.
        """
        ans = int(self.answers(*(self.index_of[x] for x in (a, b, c)))[0])
        return tuple(sorted(((a, b), (a, c), (b, c))[ans]))


class ExpectationOracle(_OracleBase):
    """
    Drop-in oracle standing in for infinitely many samples.  Its
    ``answers``, ``tallies`` and ``pass_slots`` read the answer store,
    which gives a never-asked triple its first most likely slot (the
    closest pair, under a validated model); its ``wins`` and ``pair_wins``
    return the exact probability of each target pair, the model's
    ``pair_prob``, and read no store.  ``query_count`` stays 0: the
    infinitely many samples are not counted.

    Not safe for concurrent mutation; run one reconstruction per instance.
    """

    @property
    def query_count(self):
        """0: expectation mode counts no queries."""
        return 0

    def _pair_wins(self, lo, hi, W, top, mid):
        """
        Probability that the experiment (lo, hi, w) answers (lo, hi), the
        model's ``pair_prob`` at d(lo, hi), d(lo, w) and d(hi, w); in the
        blocks of ``pair_wins`` d(lo, hi) is one gather per pair.
        """
        return self.model.pair_prob(self._dist(lo, hi), self._dist(lo, W),
                                    self._dist(hi, W), top, mid)

    def wins(self, A, B, C):
        """
        Probability per row that the experiment on (A, B, C) answers the
        pair (A, B).  Arguments are leaf indices of three distinct leaves
        per row, in any order (arrays or scalars).
        """
        return self._pair_wins(*self._flat(A, B, C)[1])

    def query(self, a, b, c):
        """Expectation mode has no single answer; exposes the distribution."""
        return self.distribution(a, b, c)


def query(oracle, a, b, c):
    """Module-level convenience wrapper around ``oracle.query``."""
    return oracle.query(a, b, c)
