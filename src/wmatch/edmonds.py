"""Perfect matchings from nonzero determinants.

A bipartite graph has a perfect matching iff its edge matrix admits an
integer assignment with nonzero determinant (any perfect matching's
permutation matrix works, with determinant ±1).  This module makes the
reverse direction constructive: :func:`extract_pm` turns any nonzero
evaluation into a nonzero diagonal, i.e. a perfect matching.  On top of
that sits the one-sided randomized decision test of Lovász:
evaluate at a uniform random assignment and test the determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graphs import BipartiteGraph, Matching, edmonds_eval, is_perfect_matching
from .linalg import (  # noqa: F401  (perfbench/tests wraps det_berkowitz here)
    IntMatrix,
    cofactors,
    det_bareiss,
    det_berkowitz,
    minor_cofactors,
)
from .rng import SplitMix64


class ZeroDeterminantError(ValueError):
    """Raised where a nonzero determinant is a precondition."""


@dataclass(frozen=True)
class ExtractionTrace:
    """Record of one nonzero-diagonal extraction.

    ``steps`` lists, from the bottom row upward, the row handled, the
    chosen column inside the shrinking submatrix, and the original
    column it labels (the column-label bookkeeping plays the role of
    deleting rows/columns from an index matrix in lockstep with the
    value matrix).  ``sigma`` is the resulting permutation: row i is
    matched to column sigma[i].
    """

    steps: tuple[tuple[int, int, int], ...]
    sigma: tuple[int, ...]

    @property
    def matching(self) -> Matching:
        return Matching.from_pairs(enumerate(self.sigma))


Rule = Callable[[int, list[tuple[int, int]]], int]


def least_column(prod: int, terms: list[tuple[int, int]]) -> int:
    """Choice rule of :func:`extract_pm_trace`: the least column whose
    entry and cofactor are both nonzero."""
    return terms[0][0]


def extract_diagonal(b: IntMatrix, det: int, adj: list[list[int]], rule: Rule) -> ExtractionTrace:
    """Nonzero-diagonal extraction from a nonsingular b, bottom-up.

    ``(det, adj)`` is ``cofactors(b)`` with det != 0.  For the last row
    i of the current submatrix, the cofactor expansion along that row
    has the nonzero terms ``(c, entry * adj[c][i])`` (up to sign, in
    increasing column c of the submatrix); at least one exists because
    they sum to ±det.  ``rule(prod, terms)`` picks the column, where
    prod is the product of the entries chosen so far.  Row i and that
    column are then deleted, and :func:`minor_cofactors` updates
    ``(det, adj)`` to the submatrix, so the whole extraction costs one
    O(n^3) elimination plus n - 1 O(n^2) steps.  Each chosen entry is
    nonzero, and the 1x1 block left at row 0 equals its nonzero
    determinant.
    """
    n = b.n
    cols = list(range(n))
    steps = []
    sigma = [0] * n
    prod = 1  # product of the entries chosen so far
    for i in range(n - 1, 0, -1):
        row = b.rows[i]
        terms = [(c, t) for c in range(i + 1) if (t := row[cols[c]] * adj[c][i])]
        if not terms:
            raise AssertionError("nonzero determinant but no nonzero cofactor term")
        c = rule(prod, terms)
        prod *= row[cols[c]]
        sigma[i] = cols[c]
        steps.append((i, c, cols[c]))
        det, adj = minor_cofactors(det, adj, i, c)
        del cols[c]
    # Row 0: a single 1x1 block remains and equals its own determinant.
    sigma[0] = cols[0]
    steps.append((0, 0, cols[0]))
    return ExtractionTrace(tuple(steps), tuple(sigma))


def extract_pm_trace(g: BipartiteGraph, b: IntMatrix) -> ExtractionTrace:
    """Extract a nonzero diagonal of b, recording every choice.

    b must be an evaluation of g's edge matrix with det(b) != 0.  Work
    bottom-up: for the last row of the current submatrix, pick the
    least column j whose entry times the determinant of its minor is
    nonzero (one exists, by cofactor expansion along that row), then
    delete that row and column and recurse.  Each chosen entry is
    nonzero, hence sits on an edge of g.  The minors' determinants are
    read off one adjugate updated row by row (:func:`extract_diagonal`):
    O(n^3) exact operations in all.
    """
    if b.n != g.n:
        raise ValueError(f"matrix is {b.n}x{b.n}, graph is {g.n}x{g.n}")
    det, adj = cofactors(b)
    if det == 0:
        raise ZeroDeterminantError("matrix has zero determinant; no diagonal to extract")
    return extract_pm_trace_from(g, b, det, adj)


def extract_pm_trace_from(
    g: BipartiteGraph, b: IntMatrix, det: int, adj: list[list[int]]
) -> ExtractionTrace:
    """:func:`extract_pm_trace` for a caller that already holds
    ``(det, adj) = cofactors(b)`` with det != 0, so no second
    elimination runs.  Raises ValueError unless the diagonal found is a
    perfect matching of g."""
    trace = extract_diagonal(b, det, adj, least_column)
    if not is_perfect_matching(g, trace.matching):
        raise ValueError("extracted diagonal is not a matching of the graph; "
                         "was the matrix evaluated from this graph?")
    return trace


def extract_pm(g: BipartiteGraph, b: IntMatrix) -> Matching:
    """Perfect matching of g read off a nonzero-determinant evaluation b."""
    return extract_pm_trace(g, b).matching


def lovasz_sample(g: BipartiteGraph, seed: int) -> IntMatrix:
    """Evaluate g's edge matrix at a uniform random assignment.

    Each edge position independently takes a value in [1, 2n]; non-edge
    positions are structurally 0.  Deterministic in (g, seed).
    """
    n = g.n
    stream = SplitMix64(seed)
    rows = [[0] * n for _ in range(n)]
    for i, j in g.edge_list():
        rows[i][j] = stream.randint(1, 2 * n)
    return edmonds_eval(g, rows)


def lovasz_decide(g: BipartiteGraph, seed: int) -> bool:
    """One-sided randomized perfect-matching test.

    True means a perfect matching certainly exists (extraction from the
    same evaluation produces one).  False may be wrong with probability
    at most 1/2 when a perfect matching exists, and is always right
    when none does, since then every evaluation has determinant zero.
    That case depends only on g, so the graph's
    :meth:`~wmatch.graphs.BipartiteGraph.has_perfect_matching`, decided
    once and kept on g, answers it with no sample drawn.  Otherwise the
    determinant of one sample is :func:`~wmatch.linalg.det_bareiss`,
    the forward pass alone, O(n^3) exact operations.  A caller that
    wants the matching too calls :func:`~wmatch.linalg.cofactors`
    instead, whose forward pass is the same test, and reads the
    matching off its output with :func:`extract_pm_trace_from`.
    """
    return g.has_perfect_matching() and det_bareiss(lovasz_sample(g, seed)) != 0
