"""The Mulmuley-Vazirani-Vazirani randomized matching pipeline.

Give every edge (i, j) the value 2^w(i,j) and evaluate the graph's edge
matrix there.  Each perfect matching contributes ±2^(its weight) to the
determinant, so when the minimum-weight perfect matching is unique its
weight survives as the position of the determinant's least significant
1-bit: everything below it cancels nothing and everything else is
divisible by a higher power of two.  That single number drives the
whole pipeline: it recovers the minimum weight, decides per-edge
membership in the unique minimum matching from the cofactors of one
adjugate, and (with random weights to make uniqueness hold with
probability >= 1/2) finds a perfect matching.

:func:`exact_power_det_valuation` reads that number and the membership
set off one exact adjugate; it is the oracle of
:func:`~wmatch.linalg.power_det_valuation`, the kernel the finder runs,
and returns exactly what the kernel returns for the same weights.

The finder is Las Vegas here: the assembled edge set is verified to be
a perfect matching of the right weight before it is returned, so
non-isolating weights surface as explicit failure, never as a wrong
answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional

from .edmonds import ZeroDeterminantError, extract_diagonal
from .graphs import (
    BipartiteGraph,
    Matching,
    WeightAssignment,
    is_perfect_matching,
    matching_weight,
    random_weights,
)
from .linalg import (  # noqa: F401  (perfbench/tests wraps det_berkowitz here)
    IntMatrix,
    cofactors,
    det_berkowitz,
    power_det_valuation,
    trailing_zeros,
)


# The most bits the entries of a power matrix may hold in all: 2^30 bits
# are 128 MiB.
POWER_MATRIX_MAX_BITS = 1 << 30


def build_power_matrix(g: BipartiteGraph, w: WeightAssignment) -> IntMatrix:
    """Evaluation of g's edge matrix at 2^w: entry (i, j) is 2^w(i,j)
    on edges and 0 elsewhere.

    Raises ValueError, before building any entry, when the entries
    would hold more than :data:`POWER_MATRIX_MAX_BITS` bits (128 MiB)
    in all, the sum over the edges of w(i, j) + 1: one caller weight
    of 2^40 would otherwise ask for 128 GiB."""
    if w.n != g.n:
        raise ValueError(f"weights are {w.n}x{w.n}, graph is {g.n}x{g.n}")
    bits = g.num_edges + sum(map(sum, map(compress, w.grid, g.edges)))
    if bits > POWER_MATRIX_MAX_BITS:
        raise ValueError(
            f"2^w would hold {bits} bits, above the cap of {POWER_MATRIX_MAX_BITS}"
        )
    return IntMatrix._from_checked(
        tuple(
            tuple(1 << x if e else 0 for e, x in zip(er, wr))
            for er, wr in zip(g.edges, w.grid)
        )
    )


def fewest_trailing_zeros(prod: int, terms: list[tuple[int, int]]) -> int:
    """Choice rule of :func:`extract_pm_weight_bounded`: the column
    whose term times the running product has the fewest trailing zero
    bits, least column on ties."""
    return min(terms, key=lambda term: trailing_zeros(prod * term[1]))[0]


def extract_pm_weight_bounded(g: BipartiteGraph, w: WeightAssignment) -> Matching:
    """Extract a perfect matching of g of weight at most p, the
    position of the least significant 1-bit of det(2^w).

    Works like plain nonzero-diagonal extraction from the power matrix
    :func:`build_power_matrix`, but at each row picks the cofactor term
    whose running product (chosen entries so far, times the entry,
    times the minor determinant) has the fewest trailing zero bits,
    least column index on ties.  The sum of the nonzero terms equals
    the current running product times the current determinant, whose
    trailing zeros stay at most p; a sum cannot have fewer trailing
    zeros than all its terms, so the minimum term keeps the invariant.
    The final product of chosen entries is exactly 2^(matching weight),
    hence the weight bound.  This holds whether or not the
    minimum-weight perfect matching is unique.  The minors'
    determinants come from one adjugate updated row by row
    (:func:`~wmatch.edmonds.extract_diagonal`): O(n^3) exact operations
    in all.  Raises :class:`~wmatch.edmonds.ZeroDeterminantError` when
    det(2^w) = 0.
    """
    det, trace = extract_diagonal(build_power_matrix(g, w), fewest_trailing_zeros)
    m = trace.matching
    if matching_weight(m, w) > trailing_zeros(det):
        raise AssertionError("extraction exceeded the weight bound")
    return m


def exact_power_det_valuation(
    g: BipartiteGraph, w: WeightAssignment
) -> Optional[tuple[int, list[tuple[int, int]]]]:
    """The exact oracle of :func:`~wmatch.linalg.power_det_valuation`:
    the same result for the same weights, read off one
    :func:`~wmatch.linalg.cofactors` call on the power matrix 2^w.

    Returns None when det(2^w) = 0, else ``(p, tight)``: p is the
    determinant's trailing zero count, and ``tight`` lists, in
    row-major order, the edges (i, j) whose minor's determinant,
    ±adj[j][i], is nonzero with exactly p - w(i, j) trailing zeros.
    When the minimum-weight perfect matching is unique, p is its weight
    and these are exactly its edges.

    The count is read with one mask per edge: with s = p - w(i, j), y
    has exactly s trailing zeros iff s >= 0 and ``y & (2^(s + 1) - 1)
    == 2^s``, bits 0 to s - 1 clear and bit s set.  This holds for a
    negative y too, whose two's complement keeps the trailing zeros of
    |y| and the bit above them, and it fails for y = 0, which has no
    trailing zero count.
    """
    det, adj = cofactors(build_power_matrix(g, w))
    if det == 0:
        return None
    p = trailing_zeros(det)
    grid = w.grid
    return p, [
        (i, j)
        for i, j in g.edge_list()
        if (s := p - grid[i][j]) >= 0 and adj[j][i] & ((2 << s) - 1) == 1 << s
    ]


def edge_in_unique_min_pm(g: BipartiteGraph, w: WeightAssignment, i: int, j: int) -> bool:
    """Membership of edge (i, j) in the unique minimum-weight perfect
    matching: delete row i and column j and compare trailing zero
    counts: the edge is in iff the minor's count is defined and equals
    (minimum weight) - w(i,j), as :func:`exact_power_det_valuation`
    reads it.  Raises :class:`~wmatch.edmonds.ZeroDeterminantError`
    when det(2^w) = 0."""
    if not g.has_edge(i, j):
        raise ValueError(f"({i}, {j}) is not an edge")
    found = exact_power_det_valuation(g, w)
    if found is None:
        raise ZeroDeterminantError("determinant is zero; no unique minimum matching")
    return (i, j) in found[1]


# MvvTrial.reason values, one per way a trial can fail.
ZERO_DETERMINANT = "zero-determinant"
WRONG_SIZE = "wrong-size"
NOT_INJECTIVE = "not-injective"
NOT_PERFECT = "not-perfect-matching"
WEIGHT_MISMATCH = "weight-mismatch"


@dataclass(frozen=True)
class MvvTrial:
    """Full record of one randomized find attempt.

    ``reason`` is None on success and names the failure otherwise:
    ``"zero-determinant"`` (no perfect matching, or the weights
    canceled), ``"wrong-size"`` (the membership test collected other
    than n edges), ``"not-injective"`` (n edges, but two share a
    vertex), ``"not-perfect-matching"`` (the collected set fails the
    final perfect-matching check) or ``"weight-mismatch"`` (a perfect
    matching whose weight is not the determinant's trailing zero
    count).
    """

    seed: int
    weights: WeightAssignment
    min_weight: Optional[int]  # trailing zero count of det, None if det = 0
    matching: Optional[Matching]  # verified perfect matching, None on failure
    reason: Optional[str] = None

    @property
    def success(self) -> bool:
        return self.matching is not None


def mvv_trial(g: BipartiteGraph, seed: int) -> MvvTrial:
    """One attempt: draw uniform weights in [1, 2m] and collect the
    edges passing the membership test.

    A graph with no perfect matching is singular at every weight, so
    :meth:`~wmatch.graphs.BipartiteGraph.has_perfect_matching`, decided
    once per graph and kept on it, answers ``zero-determinant`` for it
    at once.  Otherwise one :func:`~wmatch.linalg.power_det_valuation`
    call reads, without building the power matrix 2^w, the
    determinant's trailing zero count p and every edge (i, j) whose
    minor has exactly p - w(i, j) of them: the same facts, exactly,
    that the adjugate from :func:`~wmatch.linalg.cofactors` gives
    (:func:`exact_power_det_valuation`).  The kernel reads them off 2^V
    times the inverse of the scaled power matrix, mod 2^(V + 1), V its
    largest pivot valuation, after factoring that matrix mod 2^K with
    K at most max(64, 2V + 1): residues of K bits whose products have
    up to 2K, the factorization's packed n to an integer while
    K <= 128, the inverse's at every K.  A zero
    determinant there is weight cancellation, proved by
    the kernel's Hadamard bound.  The collected set is only trusted
    after verification: it must be a perfect matching of g whose
    weight equals p.  Anything else is reported as failure, with its
    ``reason``.

    When g has a perfect matching, a trial succeeds with probability
    at least 1/2: weights drawn from [1, 2m] isolate with at least that
    probability.
    """
    n = g.n
    m = g.num_edges
    if m == 0:
        empty_w = WeightAssignment.from_grid([[0] * n for _ in range(n)])
        return MvvTrial(seed, empty_w, None, None, ZERO_DETERMINANT)
    w = random_weights(g, 2 * m, seed)
    found = g.has_perfect_matching() and power_det_valuation(
        [[x if e else None for e, x in zip(er, wr)] for er, wr in zip(g.edges, w.grid)]
    )
    if not found:
        return MvvTrial(seed, w, None, None, ZERO_DETERMINANT)
    p, pairs = found
    if len(pairs) != n:
        return MvvTrial(seed, w, p, None, WRONG_SIZE)
    lefts, rights = zip(*sorted(pairs))
    if len(set(lefts)) != n or len(set(rights)) != n:
        return MvvTrial(seed, w, p, None, NOT_INJECTIVE)
    # n distinct sorted lefts other than 0..n-1 put one outside [0, n).
    if lefts != tuple(range(n)):
        return MvvTrial(seed, w, p, None, NOT_PERFECT)
    candidate = Matching.from_columns(rights)
    if not is_perfect_matching(g, candidate):
        return MvvTrial(seed, w, p, None, NOT_PERFECT)
    if matching_weight(candidate, w) != p:
        return MvvTrial(seed, w, p, None, WEIGHT_MISMATCH)
    return MvvTrial(seed, w, p, candidate)

