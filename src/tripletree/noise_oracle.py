"""
Distance-based noise models and the permanent-noise experiment source.

An experiment on a leaf triple returns one of the three pairs.  The chance
of each pair depends only on the pairwise distances; the two pairs that are
not closest have equal probability.  Answers are *permanent*: the first
draw for a triple is fixed and every later query (in any argument order)
returns the same pair.

The uniform variate behind a triple's draw comes from an integer hash of
(oracle seed, canonical triple id ``i*n*n + j*n + k``), so the answer is a
pure function of those inputs and is reproducible across runs and
platforms.  ``OracleState`` also keeps every answer it has drawn in one
packed store: a 2-bit code per canonical triple ``i < j < k`` at rank
``C(k,3) + C(j,2) + i``, 0 for never asked and ``slot + 1`` for the
answer.  A repeated triple is one gather, and the number of distinct
triples asked is the number of codes written.  The store takes
``ceil(C(n,3)/4)`` bytes (1.4 MB at n=323, 357 MB at n=2048), allocated
zeroed so that only the pages actually written are resident.

The vectorized readers share one flat reader of canonical rows
(``_slots``; in ``OracleState`` one block loop over the store): ``codes``
returns each canonical row's answer slot (0: (i,j), 1: (i,k), 2: (j,k)),
one gather for all three pairs of a triple; ``answers`` the answer in
argument order (0: (A,B), 1: (A,C), 2: (B,C)) from one ``_slots`` call on
its canonical rows; and ``wins`` the indicator of one target pair.  A row
that does not name three distinct leaves raises ``ValueError``, in both
oracles.

A block of rows that are all new and rise strictly in rank, as a pass
over the triples of sorted leaves in rank order asks them, is drawn as
given: no deduplication and no second read of the store.  Any other block
draws only its never-asked triples, once each.
"""

from __future__ import annotations

import numpy as np

from .tree_core import CorruptTreeError

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


class NoiseModel:
    """
    A distance-based noise model.  Subclasses implement ``slot_probs``:
    given the three pairwise distances of a canonical triple (i < j < k),
    return the probabilities of answering (i,j), (i,k), (j,k).
    """

    kind = "abstract"
    sampled = True  # noiseless overrides: no random draw needed

    def slot_probs(self, d01, d02, d12):
        raise NotImplementedError


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


# Rows per block in ``OracleState._slots``; bounds its temporaries.
_BLOCK_ROWS = 1 << 16


def _left_out(slot, i, j, k):
    """The leaf a canonical row's answer slot leaves out: k, j or i."""
    return np.where(slot == 0, k, np.where(slot == 1, j, i))


def _check_rows(i, j, k):
    """Raise ``ValueError`` unless every canonical row has 0 <= i < j < k."""
    if not ((i < j) & (j < k) & (i >= 0)).all():
        # in the store, (a, a, c) or (-1, j, k) would rank as another
        # triple and overwrite its answer
        raise ValueError("oracle rows must name three distinct leaves "
                         "(codes: in order i < j < k)")


class _OracleBase:
    """Shared leaf indexing / distance plumbing for both oracle flavours."""

    def __init__(self, tree, model):
        self.tree = tree
        self.model = make_model(model)
        self.labels = tree.leaf_labels
        self.n_leaves = len(self.labels)
        self.index_of = {lab: i for i, lab in enumerate(self.labels)}
        self._D = None
        self._count = 0

    @property
    def query_count(self):
        """Distinct triples asked so far (0 in expectation mode)."""
        return self._count

    def distribution(self, a, b, c):
        return triple_distribution(self.tree, self.model, a, b, c)

    @staticmethod
    def _rows(A, B, C):
        """Leaf-index arguments of the readers as int64 arrays of one shape."""
        return np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(x, dtype=np.int64)) for x in (A, B, C))
        )

    @property
    def distances(self):
        if self._D is None:
            self._D = self.tree.distance_matrix()
        return self._D

    def _dist(self, I, J):
        return self.distances.ravel().take(I * self.n_leaves + J)

    def _canonical(self, A, B, C):
        i = np.minimum(np.minimum(A, B), C)
        k = np.maximum(np.maximum(A, B), C)
        j = A + B + C - i - k
        return i, j, k

    def codes(self, I, J, K):
        """
        Answer slot per row, the most likely one in expectation mode: 0 for
        (I, J), 1 for (I, K), 2 for (J, K).  Arguments are leaf indices
        with I < J < K in every row (arrays or scalars); the answers are
        those ``wins`` and ``query`` give.
        """
        I, J, K = self._rows(I, J, K)
        return self._slots(*(x.reshape(-1) for x in (I, J, K))).reshape(I.shape)

    def answers(self, A, B, C):
        """
        Answer to each experiment (A, B, C), the most likely one in
        expectation mode: 0 (A, B), 1 (A, C), 2 (B, C).  Arguments are leaf
        indices of three distinct leaves per row, in any order (arrays or
        scalars).  One ``_slots`` call on the canonical rows i < j < k; the
        leaf its slot leaves out is C, B or A.
        """
        A, B, C = self._rows(A, B, C)
        shape = A.shape
        A, B, C = (x.reshape(-1) for x in (A, B, C))
        i, j, k = self._canonical(A, B, C)
        left_out = _left_out(self._slots(i, j, k), i, j, k)
        code = np.where(left_out == C, 0, np.where(left_out == B, 1, 2))
        return code.reshape(shape)


class OracleState(_OracleBase):
    """
    Seeded permanent-noise query source over one tree.

    ``query(a, b, c)`` returns the answer pair for three leaf labels;
    ``codes(I, J, K)`` is the vectorized answer slot of each canonical row
    I < J < K, ``answers(A, B, C)`` the answer of each row in argument
    order, and ``wins(A, B, C)`` the vectorized indicator that the answer
    to each row's triple is the pair (A, B).  All of them read and fill
    one answer store, a ``uint8`` array of ``ceil(C(n,3)/4)`` bytes
    holding a 2-bit code per canonical triple (see the module docstring).
    ``query_count`` is the number of codes written, i.e. of distinct
    triples asked so far.

    Not safe for concurrent mutation; run one reconstruction per instance.
    """

    def __init__(self, tree, model, seed):
        super().__init__(tree, model)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        n = self.n_leaves
        self._n2 = n * n
        m = np.arange(n, dtype=np.int64)
        self._c2 = m * (m - 1) // 2
        self._c3 = self._c2 * (m - 2) // 3
        n_triples = n * (n - 1) * (n - 2) // 6
        self._store = np.zeros((n_triples + 3) // 4, dtype=np.uint8)

    # -- answers ------------------------------------------------------- #

    def _decide(self, i, j, k):
        """Fresh draw of the answer slot for canonical triples (i, j, k)."""
        p0, p1, _ = self.model.slot_probs(
            self._dist(i, j), self._dist(i, k), self._dist(j, k)
        )
        if not self.model.sampled:
            return np.where(p0 == 1.0, 0, np.where(p1 == 1.0, 1, 2))
        ids = (i * self._n2 + j * self.n_leaves + k).astype(np.uint64)
        u = keyed_uniform(self.seed, ids)
        return (u >= p0).astype(np.int64) + (u >= p0 + p1)

    def _draw_slots(self, i, j, k):
        """
        Answer slots (0: (i,j), 1: (i,k), 2: (j,k)) for canonical rows,
        drawing and storing only the triples never asked before.  When
        every row is new and the ranks rise strictly, the rows are distinct
        and are drawn as given; otherwise the new rows are deduplicated
        first and the store is read again after the write.
        """
        _check_rows(i, j, k)
        rank = self._c3[k] + self._c2[j] + i
        byte = rank >> 2
        shift = ((rank & 3) << 1).astype(np.uint8)
        code = (self._store[byte] >> shift) & 3
        if not code.any() and (rank[1:] > rank[:-1]).all():
            slot = self._decide(i, j, k)
            # rows of one byte share it: OR each code in, never assign
            np.bitwise_or.at(self._store, byte,
                             (slot + 1).astype(np.uint8) << shift)
            self._count += len(rank)
            return slot
        new = np.flatnonzero(code == 0)
        if len(new):
            fresh, first = np.unique(rank[new], return_index=True)
            rows = new[first]
            slot = self._decide(i[rows], j[rows], k[rows])
            bits = (slot + 1).astype(np.uint8) << shift[rows]
            np.bitwise_or.at(self._store, fresh >> 2, bits)
            self._count += len(fresh)
            code[new] = (self._store[byte[new]] >> shift[new]) & 3
        return code - 1

    def _slots(self, i, j, k):
        """Answer slots of flat canonical rows, in blocks of ``_BLOCK_ROWS``."""
        out = np.empty(i.size, dtype=np.uint8)
        for lo in range(0, i.size, _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            out[lo:hi] = self._draw_slots(i[lo:hi], j[lo:hi], k[lo:hi])
        return out

    def wins(self, A, B, C):
        """
        Float indicator per row: 1.0 iff the experiment on (A, B, C)
        answered with the pair (A, B).  Arguments are leaf indices of three
        distinct leaves per row, in any order (arrays or scalars).
        """
        A, B, C = self._rows(A, B, C)
        shape = A.shape
        i, j, k = self._canonical(*(x.reshape(-1) for x in (A, B, C)))
        hit = _left_out(self._slots(i, j, k), i, j, k) == C.reshape(-1)
        return hit.astype(np.float64).reshape(shape)

    def query(self, a, b, c):
        """
        The permanent answer to the experiment on leaf labels (a, b, c),
        as a sorted label pair.  Repeats (in any order) return the same
        answer without counting again.
        """
        if len({a, b, c}) != 3:
            raise ValueError("query requires three distinct leaves")
        key = tuple(sorted((a, b, c)))
        i, j, k = (np.array([self.index_of[x]], dtype=np.int64) for x in key)
        slot = int(self._draw_slots(i, j, k)[0])
        return ((key[0], key[1]), (key[0], key[2]), (key[1], key[2]))[slot]


class ExpectationOracle(_OracleBase):
    """
    Drop-in oracle whose ``wins`` returns the exact probability of each
    target pair instead of a sampled indicator, and whose ``codes`` is each
    canonical row's most likely slot (the closest pair, under a validated
    model).  Topology reconstruction and grading ask for the most likely
    pair; the weight estimators read the probabilities.
    """

    def _slots(self, i, j, k):
        """Most likely answer slot of flat canonical rows."""
        _check_rows(i, j, k)
        return np.argmax(np.stack(self.model.slot_probs(
            self._dist(i, j), self._dist(i, k), self._dist(j, k)
        )), axis=0)

    def wins(self, A, B, C):
        A, B, C = self._rows(A, B, C)
        i, j, k = self._canonical(A, B, C)
        _check_rows(i, j, k)
        p0, p1, p2 = self.model.slot_probs(
            self._dist(i, j), self._dist(i, k), self._dist(j, k)
        )
        return np.where(C == k, p0, np.where(C == j, p1, p2))

    def query(self, a, b, c):
        """Expectation mode has no single answer; exposes the distribution."""
        return self.distribution(a, b, c)


def query(oracle, a, b, c):
    """Module-level convenience wrapper around ``oracle.query``."""
    return oracle.query(a, b, c)
