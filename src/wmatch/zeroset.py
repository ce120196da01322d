"""Executable witnesses for the determinant zero-set bound.

For a bipartite graph with n vertices per side, consider evaluating its
edge matrix at assignments drawn from S = [0, s).  The *zero set* is
the set of assignments whose evaluation has determinant 0 (non-edge
positions are fixed to 0 throughout; they never influence the
determinant).  This module provides:

* :func:`zero_set`: exhaustive enumeration of the zero set, the
  ground-truth side of every check;
* :func:`zero_witness_graph`: an explicit map from
  [0, n) x S^(n^2 - 1) onto the zero set (:func:`zero_witness_graph_map`
  fixes the graph and s once), and :func:`zero_witness_complete`, the
  same map on the complete graph.

The maps being surjections is the whole point: the domain has
n * s^(n^2 - 1) elements, so the zero set can have at most that many,
i.e. a uniform random assignment evaluates to zero with probability at
most n/s.  Surjectivity is checked exhaustively at small sizes by the
verification suites rather than taken on faith.

Mechanism: a perfect matching sigma of the graph, the one its single
cached Kuhn pass finds
(:attr:`~wmatch.graphs.BipartiteGraph.matching_columns`; the identity
on the complete graph), fixes a nested chain of submatrices.  The step-k submatrix is the leading (k+1) x (k+1)
block of the grid with its columns taken in sigma's order, sigma(0),
..., sigma(k), so step k-1 is step k without its last row and column.
A zero determinant makes the last step singular; let i be the least
step from which every step on up is singular (:func:`vanishing_step`),
so that i = 0 or step i-1 is regular.  The entry x at (i, sigma(i))
sits on step i's diagonal with cofactor +det(step i-1), so step i's
determinant is d(0) + x * det(step i-1) (at i = 0 it is x itself).
Setting it to zero determines x *uniquely* from the rest of the
matrix, so dropping it loses no information.  The witness inverts
this: it receives the remaining n^2 - 1 entries plus the step index,
solves the linear equation for the missing entry, and returns the
completed assignment, or the all-zero assignment (always in the zero
set) when the reconstruction is inconsistent with the input.

Each point is checked (every value in [0, s), non-edge ones too) and
laid out as a grid with the unknown at 0 and non-edges zeroed.  Points
that differ only at non-edges lay out to the same grid, and the
completion is a function of (i, laid-out grid) alone, so
:func:`zero_witness_graph_map` computes each distinct one once and
keeps it in the map's own cache: the 3 x 3 graph with 7 edges at s = 3
maps 19,683 points through 2,187 distinct grids.
"""

from __future__ import annotations

from itertools import product
from operator import index, mul
from typing import Callable, Iterator, Optional, Sequence

from .graphs import BipartiteGraph, edge_grid
from .linalg import IntMatrix, det_bareiss
from .oracle import DEFAULT_BUDGET, BudgetExceededError

Grid = tuple[tuple[int, ...], ...]


def zero_set(g: BipartiteGraph, s: int, budget: int = DEFAULT_BUDGET) -> Iterator[Grid]:
    """Stream every edge assignment in [0, s)^m whose evaluation has
    determinant 0, as full n x n grids with 0 at non-edge positions, in
    lexicographic order over the row-major edge list."""
    if s < 1:
        raise ValueError(f"value range bound must be >= 1, got {s}")
    total = s ** g.num_edges
    if total > budget:
        raise BudgetExceededError(
            f"zero set enumeration needs {total} evaluations, budget is {budget}"
        )
    for values in product(range(s), repeat=g.num_edges):
        grid = edge_grid(g, values)
        if det_bareiss(IntMatrix._from_checked(grid)) == 0:
            yield grid


def _chain_det(grid: Sequence[Sequence[int]], sigma: Sequence[int], k: int) -> int:
    """Determinant of the step-k chain submatrix: rows 0..k of grid with
    columns sigma[0], ..., sigma[k], in that order."""
    cols = sigma[: k + 1]
    return det_bareiss(
        IntMatrix._from_checked(tuple(tuple(row[c] for c in cols) for row in grid[: k + 1]))
    )


def _lay_out(
    n: int, edge_flags: tuple[bool, ...], s: int, i: int, rest: Sequence[int],
    sigma: Sequence[int],
) -> tuple[int, ...]:
    """Check one witness point and lay it out as a row-major n x n
    grid, flattened: the values of ``rest`` in order around the unknown
    cell (i, sigma(i)), which holds 0, with every position whose flag
    in ``edge_flags`` is False structurally zero.  Every value is
    checked against [0, s), in order, non-edge ones too, after
    ``operator.index`` has converted it: an int or a bool passes, and
    a float or a str raises TypeError rather than being truncated or
    parsed."""
    if not 0 <= i < n:
        raise ValueError(f"step index {i} out of range [0, {n})")
    if len(rest) != n * n - 1:
        raise ValueError(f"expected {n * n - 1} values, got {len(rest)}")
    values = []
    # map is lazy, so a value is converted only once every value before
    # it has passed its range check.
    for v in map(index, rest):
        if not 0 <= v < s:
            raise ValueError(f"value {v} out of range [0, {s})")
        values.append(v)
    values.insert(i * n + sigma[i], 0)
    # A False flag times a value is 0, a True one the value.
    return tuple(map(mul, values, edge_flags))


def _complete(
    cells: tuple[int, ...], n: int, s: int, i: int, sigma: Sequence[int]
) -> Grid:
    """Solve a laid-out point (from :func:`_lay_out`) for its unknown x
    at (i, sigma(i)) and return the completed grid, or the all-zero grid
    (always in the zero set) when the reconstruction is inconsistent."""
    dummy: Grid = tuple((0,) * n for _ in range(n))
    if i:
        # Step i's determinant is d(0) + x * d_prev in the unknown x (the
        # cofactor carries no sign in sigma's column order).  At i = 0 it
        # is x itself, which must be 0, as laid out.
        rows = [cells[r * n:(r + 1) * n] for r in range(i + 1)]
        d_prev = _chain_det(rows, sigma, i - 1)
        if d_prev == 0:
            return dummy
        x, remainder = divmod(-_chain_det(rows, sigma, i), d_prev)
        if remainder or not 0 <= x < s:
            return dummy
        unknown = i * n + sigma[i]
        cells = cells[:unknown] + (x,) + cells[unknown + 1:]
    grid = tuple(cells[r * n:(r + 1) * n] for r in range(n))
    if det_bareiss(IntMatrix._from_checked(grid)) != 0:
        return dummy
    return grid


def zero_witness_complete(n: int, s: int, i: int, rest: Sequence[int]) -> Grid:
    """Witness for the complete graph: :func:`zero_witness_graph` on
    K_{n,n}, whose Kuhn pass matches each i to i, so the deletion chain
    runs down the main diagonal and the unknown sits at (i, i)."""
    return zero_witness_graph(BipartiteGraph.complete(n), s, i, rest)


def zero_witness_graph(g: BipartiteGraph, s: int, i: int, rest: Sequence[int]) -> Grid:
    """Witness for an arbitrary graph with a perfect matching: the
    matching sigma of :attr:`~wmatch.graphs.BipartiteGraph.matching_columns`
    fixes the deletion chain, so at step i the unknown sits at
    (i, sigma(i)), which is always an edge."""
    return zero_witness_graph_map(g, s)(i, rest)


def zero_witness_graph_map(g: BipartiteGraph, s: int) -> Callable[[int, Sequence[int]], Grid]:
    """:func:`zero_witness_graph` with g and s fixed, as a function of
    (i, rest).

    sigma is read once, here, off the graph's cached Kuhn pass; a graph
    without a perfect matching has no chain to invert and raises
    ValueError.  The returned map still checks and lays out each
    point's arguments, then caches completions: the chain determinants,
    the solve for the unknown and the full-grid check run once per
    distinct (i, laid-out grid), and the result is kept in a dict that
    lives as long as the map does.
    """
    if s < 1:
        raise ValueError(f"value range bound must be >= 1, got {s}")
    sigma = g.matching_columns
    if -1 in sigma:
        raise ValueError("graph has no perfect matching, so its zero set has no witness")

    n = g.n
    edge_flags = tuple(e for row in g.edges for e in row)
    completions: dict[tuple[int, tuple[int, ...]], Grid] = {}

    def witness(i: int, rest: Sequence[int]) -> Grid:
        cells = _lay_out(n, edge_flags, s, i, rest, sigma)
        key = (i, cells)
        out = completions.get(key)
        if out is None:
            out = completions[key] = _complete(cells, n, s, i, sigma)
        return out

    return witness


def vanishing_step(grid: Grid, sigma: Optional[Sequence[int]] = None) -> int:
    """Least step index i such that every chain submatrix from step i
    up through the full matrix is singular (the full grid must have
    determinant 0).  The chain is the one a witness with the same
    sigma (the identity by default) inverts: step k is the leading
    (k+1) x (k+1) block with columns sigma(0), ..., sigma(k).  At that
    i, either i = 0 or the step-(i-1) submatrix is regular, which is
    exactly the situation the witnesses invert, with the dropped entry
    at (i, sigma(i)).
    """
    n = len(grid)
    if sigma is None:
        sigma = tuple(range(n))
    if det_bareiss(IntMatrix(grid)) != 0:
        raise ValueError("grid has nonzero determinant; no vanishing step")
    i = n - 1
    while i > 0 and _chain_det(grid, sigma, i - 1) == 0:
        i -= 1
    return i
