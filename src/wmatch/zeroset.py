"""Executable witnesses for the determinant zero-set bound.

For a bipartite graph with n vertices per side, consider evaluating its
edge matrix at assignments drawn from S = [0, s).  The *zero set* is
the set of assignments whose evaluation has determinant 0 (non-edge
positions are fixed to 0 throughout; they never influence the
determinant).  This module provides:

* :func:`zero_set`: exhaustive enumeration of the zero set, the
  ground-truth side of every check;
* :func:`zero_witness_complete` / :func:`zero_witness_graph`: explicit
  maps from [0, n) x S^(n^2 - 1) onto the zero set
  (:func:`zero_witness_graph_map` fixes the graph's certificate once).

The maps being surjections is the whole point: the domain has
n * s^(n^2 - 1) elements, so the zero set can have at most that many,
i.e. a uniform random assignment evaluates to zero with probability at
most n/s.  Surjectivity is checked exhaustively at small sizes by the
verification suites rather than taken on faith.

Mechanism: a zero determinant forces a zero somewhere along the nested
chain of submatrices obtained by repeatedly deleting the last row and
its matched column.  At the first such step the deleted entry is
*uniquely determined* by the rest of the matrix (the determinant is
linear in that entry with a nonzero coefficient), so dropping it loses
no information.  The witness inverts this: it receives the remaining
n^2 - 1 entries plus the step index, solves the linear equation for the
missing entry, and returns the completed assignment, or the all-zero
assignment (always in the zero set) when the reconstruction is
inconsistent with the input.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterator, Optional, Sequence

from .edmonds import ZeroDeterminantError, extract_pm_trace_from
from .graphs import BipartiteGraph, GridLike, edmonds_eval
from .linalg import IntMatrix, cofactors, det_bareiss
from .oracle import DEFAULT_BUDGET, BudgetExceededError

Grid = tuple[tuple[int, ...], ...]


def zero_set(g: BipartiteGraph, s: int, budget: int = DEFAULT_BUDGET) -> Iterator[Grid]:
    """Stream every edge assignment in [0, s)^m whose evaluation has
    determinant 0, as full n x n grids with 0 at non-edge positions, in
    lexicographic order over the row-major edge list."""
    if s < 1:
        raise ValueError(f"value range bound must be >= 1, got {s}")
    edges = g.edge_list()
    total = s ** len(edges)
    if total > budget:
        raise BudgetExceededError(
            f"zero set enumeration needs {total} evaluations, budget is {budget}"
        )
    n = g.n
    for values in product(range(s), repeat=len(edges)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(edges, values):
            rows[i][j] = v
        grid = tuple(tuple(row) for row in rows)
        if det_bareiss(IntMatrix(grid)) == 0:
            yield grid


def _submatrix(grid: Grid, rows: Sequence[int], cols: Sequence[int]) -> IntMatrix:
    return IntMatrix(tuple(tuple(grid[r][c] for c in cols) for r in rows))


def _assemble(n: int, i: int, unknown_col: int, rest: Sequence[int], s: int) -> list[list[int]]:
    """Lay out the n^2 - 1 known values row-major around the unknown cell."""
    if len(rest) != n * n - 1:
        raise ValueError(f"expected {n * n - 1} values, got {len(rest)}")
    values = iter(rest)
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            if (r, c) == (i, unknown_col):
                row.append(0)  # placeholder, solved for below
            else:
                v = int(next(values))
                if not 0 <= v < s:
                    raise ValueError(f"value {v} out of range [0, {s})")
                row.append(v)
        rows.append(row)
    return rows


def _solve_unknown(
    grid: Grid, i: int, sigma: Sequence[int], s: int
) -> Optional[int]:
    """Value at (i, sigma[i]) making the chain submatrix at step i
    singular, if it exists, is integral, and lies in [0, s).

    The step-i submatrix keeps rows 0..i and columns sigma[0..i]; its
    determinant is linear in the unknown with coefficient
    ±det(step-(i-1) submatrix), so the equation is solvable exactly
    when that smaller determinant is nonzero.
    """
    if i == 0:
        return 0  # the 1x1 step matrix is the unknown itself
    cols = sorted(sigma[t] for t in range(i + 1))
    prev_cols = sorted(sigma[t] for t in range(i))
    d_prev = det_bareiss(_submatrix(grid, range(i), prev_cols))
    if d_prev == 0:
        return None
    loc_j = cols.index(sigma[i])
    sign = -1 if (i + loc_j) % 2 else 1
    d_rest = det_bareiss(_submatrix(grid, range(i + 1), cols))  # unknown cell holds 0
    denom = sign * d_prev
    if d_rest % denom != 0:
        return None
    candidate = -d_rest // denom
    if not 0 <= candidate < s:
        return None
    return candidate


def _witness(
    n: int, s: int, i: int, rest: Sequence[int], sigma: Sequence[int],
    g: Optional[BipartiteGraph],
) -> Grid:
    if not 0 <= i < n:
        raise ValueError(f"step index {i} out of range [0, {n})")
    dummy: Grid = tuple((0,) * n for _ in range(n))
    rows = _assemble(n, i, sigma[i], rest, s)
    if g is not None:
        # Non-edge positions are structurally zero in every evaluation.
        for r in range(n):
            for c in range(n):
                if not g.edges[r][c]:
                    rows[r][c] = 0
    grid = tuple(tuple(row) for row in rows)
    candidate = _solve_unknown(grid, i, sigma, s)
    if candidate is None:
        return dummy
    filled = list(list(row) for row in grid)
    filled[i][sigma[i]] = candidate
    out = tuple(tuple(row) for row in filled)
    if det_bareiss(IntMatrix(out)) != 0:
        return dummy
    return out


def zero_witness_complete(n: int, s: int, i: int, rest: Sequence[int]) -> Grid:
    """Witness for the complete graph: every position is in play and
    the deletion chain runs down the main diagonal, so the unknown sits
    at (i, i)."""
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1")
    return _witness(n, s, i, rest, tuple(range(n)), None)


def zero_witness_graph(
    g: BipartiteGraph, s: int, cert: GridLike, i: int, rest: Sequence[int]
) -> Grid:
    """Witness for an arbitrary graph with a perfect matching.

    ``cert`` is any assignment whose evaluation has nonzero determinant
    (a permutation matrix of a perfect matching works).  Extracting a
    nonzero diagonal from it fixes the deletion chain: at step i the
    unknown sits at (i, sigma(i)), which is always an edge.
    """
    return zero_witness_graph_map(g, s, cert)(i, rest)


def zero_witness_graph_map(
    g: BipartiteGraph, s: int, cert: GridLike
) -> Callable[[int, Sequence[int]], Grid]:
    """:func:`zero_witness_graph` with g, s and ``cert`` fixed, as a
    function of (i, rest).

    The certificate is evaluated, its determinant checked and sigma
    extracted once, here, so a caller that maps a whole domain pays for
    that once rather than per point; the returned map still checks each
    point's arguments.
    """
    if s < 1:
        raise ValueError(f"value range bound must be >= 1, got {s}")
    b = edmonds_eval(g, cert)
    det, adj = cofactors(b)
    if det == 0:
        raise ZeroDeterminantError(
            "certificate evaluates to zero determinant; cannot fix a deletion chain"
        )
    sigma = extract_pm_trace_from(g, b, det, adj).sigma

    def witness(i: int, rest: Sequence[int]) -> Grid:
        return _witness(g.n, s, i, rest, sigma, g)

    return witness


def vanishing_step(grid: Grid, sigma: Optional[Sequence[int]] = None) -> int:
    """Least step index i such that every chain submatrix from step i
    up through the full matrix is singular (the full grid must have
    determinant 0).  At that i, either i = 0 or the step-(i-1)
    submatrix is regular, which is exactly the situation the witnesses
    invert.
    """
    n = len(grid)
    if sigma is None:
        sigma = tuple(range(n))
    if det_bareiss(IntMatrix(grid)) != 0:
        raise ValueError("grid has nonzero determinant; no vanishing step")
    i = n - 1
    while i > 0:
        cols = sorted(sigma[t] for t in range(i))
        if det_bareiss(_submatrix(grid, range(i), cols)) != 0:
            return i
        i -= 1
    return 0
