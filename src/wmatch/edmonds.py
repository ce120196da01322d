"""Perfect matchings from nonzero determinants.

A bipartite graph has a perfect matching iff its edge matrix admits an
integer assignment with nonzero determinant (any perfect matching's
permutation matrix works, with determinant ±1).  This module makes the
reverse direction constructive: :func:`extract_pm` turns any nonzero
evaluation into a nonzero diagonal, i.e. a perfect matching.  The
one-sided randomized decision test of Lovász is the zero test of one
such evaluation, and the ``decide`` command runs it as the extraction
itself: :func:`extract_pm_trace` on a :func:`lovasz_sample` either
raises :class:`ZeroDeterminantError` (the answer no) or returns a
perfect matching (the answer yes, with its certificate).

:func:`extract_pm_trace` is the one extraction every caller runs.  It
works modulo the prime :data:`~wmatch.linalg.P` first
(:func:`extract_diagonal_mod`): a nonzero residue proves its integer
nonzero, and a zero cofactor residue counts only when the minor's
pattern has no perfect matching.  Where neither settles a choice, or
the determinant is 0 mod P, it reruns the extraction exactly
(:func:`extract_diagonal`), whose forward pass also decides a zero
determinant.  Both paths return the same answer and the same matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .classical import matches_every_row
from .graphs import (
    BipartiteGraph,
    Matching,
    is_perfect_matching,
    nonzero_masks,
    random_weights,
)
from .linalg import (  # noqa: F401  (perfbench/tests wraps det_berkowitz here)
    IntMatrix,
    cofactors,
    det_berkowitz,
    inverse_mod,
    inverse_residue,
    minor_cofactors,
    minor_inverse_mod,
)


class ZeroDeterminantError(ValueError):
    """Raised where a nonzero determinant is a precondition."""


@dataclass(frozen=True)
class ExtractionTrace:
    """Record of one nonzero-diagonal extraction: the permutation
    ``sigma`` it found, row i matched to column sigma[i].

    sigma is the whole record.  The extraction handles rows from the
    bottom up and deletes each chosen column, so the column that row i
    takes inside its shrinking submatrix is the rank of sigma[i] among
    sigma[0], ..., sigma[i]: the steps follow from sigma and are not
    kept beside it.
    """

    sigma: tuple[int, ...]

    @property
    def matching(self) -> Matching:
        return Matching.from_columns(self.sigma)


Rule = Callable[[int, list[tuple[int, int]]], int]


def least_column(prod: int, terms: list[tuple[int, int]]) -> int:
    """Choice rule of :func:`extract_pm_trace`: the least column whose
    entry and cofactor are both nonzero."""
    return terms[0][0]


def _walk(
    n: int, choose: Callable[[int, list[int]], Optional[int]]
) -> Optional[ExtractionTrace]:
    """The trace of a bottom-up extraction from an n x n matrix.

    For i = n - 1, ..., 1, ``choose(i, cols)`` picks the column c of the
    current submatrix (rows 0..i, original columns ``cols``) for its
    last row i, or returns None to give up, and the walk returns None
    too.  Row i takes original column ``cols[c]``, and row i and that
    column are then deleted; row 0 takes the one column left.
    """
    cols = list(range(n))
    sigma = [0] * n
    for i in range(n - 1, 0, -1):
        c = choose(i, cols)
        if c is None:
            return None
        sigma[i] = cols.pop(c)
    # Row 0: a single 1x1 block remains and equals its own determinant.
    sigma[0] = cols[0]
    return ExtractionTrace(tuple(sigma))


def extract_diagonal(b: IntMatrix, rule: Rule) -> tuple[int, ExtractionTrace]:
    """Nonzero-diagonal extraction from b, bottom-up, exactly:
    ``(det(b), trace)``, or :class:`ZeroDeterminantError` when
    det(b) = 0.

    One :func:`~wmatch.linalg.cofactors` call gives det and the
    adjugate adj.  For the last row i of the current submatrix, the
    cofactor expansion along that row has the nonzero terms
    ``(c, entry * adj[c][i])`` (up to sign, in increasing column c of
    the submatrix); at least one exists because they sum to ±det.
    ``rule(prod, terms)`` picks the column, where prod is the product
    of the entries chosen so far.  Row i and that column are then
    deleted, and :func:`minor_cofactors` updates ``(det, adj)`` to the
    submatrix, so the whole extraction costs one O(n^3) elimination
    plus n - 1 O(n^2) steps.  Each chosen entry is nonzero, and the 1x1
    block left at row 0 equals its nonzero determinant.
    """
    det, adj = cofactors(b)
    if det == 0:
        raise ZeroDeterminantError("matrix has zero determinant; no diagonal to extract")
    prod = 1  # product of the entries chosen so far
    cur = det  # determinant of the current submatrix

    def choose(i, cols):
        nonlocal cur, adj, prod
        row = b.rows[i]
        terms = [(c, t) for c, j in enumerate(cols) if (t := row[j] * adj[c][i])]
        if not terms:
            raise AssertionError("nonzero determinant but no nonzero cofactor term")
        c = rule(prod, terms)
        prod *= row[cols[c]]
        cur, adj = minor_cofactors(cur, adj, i, c)
        return c

    return det, _walk(b.n, choose)


def extract_diagonal_mod(b: IntMatrix) -> Optional[ExtractionTrace]:
    """:func:`extract_diagonal` under :func:`least_column`, run mod the
    prime :data:`~wmatch.linalg.P`, or None where a residue cannot
    settle a choice.

    The cofactors come from the packed inverse of
    :func:`~wmatch.linalg.inverse_mod`, as ``adj = det * inverse``, and
    each deletion updates it by :func:`~wmatch.linalg.minor_inverse_mod`,
    so the chain never unpacks a row: a cofactor at (i, c) is nonzero
    mod P exactly when :func:`~wmatch.linalg.inverse_residue` reads a
    nonzero entry (c, i).  The packed inverse carries its own field
    width, so this chain hands it from one call to the next and knows
    nothing of its layout.  For the last row i of the
    current submatrix, the columns whose entry is nonzero are tried in
    increasing order:

    * a nonzero cofactor residue proves the integer cofactor nonzero,
      so that column is the exact rule's pick;
    * a zero residue is taken as a zero only when it is proved one:
      the minor's pattern, rows 0..i - 1 of b without that column, has
      no perfect matching, so every evaluation of it is singular.  The
      pattern is never built as a graph: each row is b's nonzero mask
      for that row (:func:`~wmatch.graphs.nonzero_masks`, made once per
      call, at the first proof), ANDed with the columns still left less
      the tried one, and
      :func:`~wmatch.classical.matches_every_row` runs Kuhn's pass of
      :func:`~wmatch.classical.maximum_matching` on those masks.
      Otherwise the cofactor may be a nonzero multiple of P, and None
      is returned.

    None is also returned when det(b) is 0 mod P.  Every returned trace
    therefore equals the exact extraction's, at a few big-integer
    operations per packed row and step: about 0.8 ms per sample at
    n = 20 and 26 ms at n = 100 (see :mod:`wmatch.linalg`).
    """
    inv = inverse_mod(b)
    if inv is None:
        return None
    rows = b.rows
    nonzero = None  # each row's nonzero mask, made at the first proof

    def choose(i, cols):
        nonlocal inv, nonzero
        row = rows[i]
        for c, j in enumerate(cols):
            if not row[j]:
                continue
            if inverse_residue(inv, c, i):
                inv = minor_inverse_mod(inv, c)
                return c
            if nonzero is None:
                nonzero = nonzero_masks(rows)
            allowed = sum(1 << k for k in cols) ^ (1 << j)
            if matches_every_row([mask & allowed for mask in nonzero[:i]]):
                return None
        raise AssertionError("nonzero determinant residue but no nonzero cofactor term")

    return _walk(b.n, choose)


def extract_pm_trace(g: BipartiteGraph, b: IntMatrix) -> ExtractionTrace:
    """Extract a nonzero diagonal of b, recording every choice.

    b must be an evaluation of g's edge matrix.  Work bottom-up: for
    the last row of the current submatrix, pick the least column whose
    entry times the determinant of its minor is nonzero (one exists, by
    cofactor expansion along that row), then delete that row and column
    and recurse.  Each chosen entry is nonzero, hence sits on an edge
    of g.  :func:`extract_diagonal_mod` runs first; only its None runs
    the exact :func:`extract_diagonal`, so a zero determinant is always
    decided exactly and raises :class:`ZeroDeterminantError`.  Raises
    ValueError unless the diagonal found is a perfect matching of g.
    """
    if b.n != g.n:
        raise ValueError(f"matrix is {b.n}x{b.n}, graph is {g.n}x{g.n}")
    trace = extract_diagonal_mod(b)
    if trace is None:
        _, trace = extract_diagonal(b, least_column)
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
    positions are structurally 0.  The values are
    :func:`~wmatch.graphs.random_weights` with k = 2n, so the draws are
    deterministic in (g, seed).
    """
    return IntMatrix._from_checked(random_weights(g, 2 * g.n, seed).grid)
