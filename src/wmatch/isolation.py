"""Isolating weight assignments for perfect matchings.

A weight assignment on a graph's edges is *isolating* when the
minimum-weight perfect matching is unique.  Random weights isolate with
high probability: among assignments drawn from [1, k]^m (m edges), the
non-isolating ones admit an explicit map from [0, m) x [1, k]^(m-1)
onto them, so their fraction is at most m/k.  As with the zero-set
witnesses, the map's surjectivity is the executable content of that
bound and is checked exhaustively at small sizes.

The non-isolating predicate itself takes one exact minimum-weight
perfect matching solve, :func:`~wmatch.classical._mwpm_with_dual`: the
column M(i) of each left vertex i and an optimal dual (a, b).  By
complementary slackness the minimum-weight perfect matchings are
exactly the perfect matchings of the tight edges (a[i] + b[j] = w(i, j)),
and M is one of them.  Any other one differs from M on disjoint
M-alternating cycles, so the minimum ties iff the tight edges carry an
M-alternating cycle: a directed cycle in the graph on left vertices
with an arc i -> M^-1(j) for every tight non-matching edge (i, j).
The witness reads the same solve's columns to weigh a matching, with
no :class:`~wmatch.graphs.Matching` built.
"""

from __future__ import annotations

from itertools import product
from operator import getitem, index
from typing import Callable, Iterator, Sequence

from .classical import _mwpm_with_dual
from .graphs import BipartiteGraph, WeightAssignment, edge_grid
from .oracle import DEFAULT_BUDGET, BudgetExceededError


def _check_edge_weights(g: BipartiteGraph, w: WeightAssignment, k: int) -> None:
    if w.n != g.n:
        raise ValueError(f"weights are {w.n}x{w.n}, graph is {g.n}x{g.n}")
    for i, j in g.edge_list():
        if not 1 <= w.value(i, j) <= k:
            raise ValueError(
                f"edge ({i}, {j}) has weight {w.value(i, j)} outside [1, {k}]"
            )


def is_nonisolating(g: BipartiteGraph, w: WeightAssignment, k: int) -> bool:
    """True iff g has two distinct minimum-weight perfect matchings
    under w.  Graphs without any perfect matching have nothing to
    isolate, so the answer there is False for every assignment.

    One solve gives a minimum matching M and an optimal dual (a, b);
    the minimum ties iff the digraph of tight non-matching edges
    described in the module docstring has a cycle, that is, iff
    repeatedly deleting its vertices with no incoming arc leaves some.
    """
    _check_edge_weights(g, w, k)
    cols, (a, b) = _mwpm_with_dual(g, w)
    if cols is None:
        return False
    n = g.n
    mate_of_right = [0] * n
    for i, j in enumerate(cols):
        mate_of_right[j] = i
    arcs = [
        [mate_of_right[j] for j in g.neighbors(i) if j != cj and row[j] - b[j] == ai]
        for i, (row, ai, cj) in enumerate(zip(w.grid, a, cols))
    ]
    indegree = [0] * n
    for targets in arcs:
        for t in targets:
            indegree[t] += 1
    sources = [i for i in range(n) if indegree[i] == 0]
    deleted = 0
    while sources:
        i = sources.pop()
        deleted += 1
        for t in arcs[i]:
            indegree[t] -= 1
            if indegree[t] == 0:
                sources.append(t)
    return deleted < n


def nonisolating_witness(
    g: BipartiteGraph,
    k: int,
    i: int,
    w_rest: Sequence[int],
    dummy: WeightAssignment,
) -> WeightAssignment:
    """Map (edge index, weights for the other m-1 edges) to a
    non-isolating assignment.

    Let e_i = (a, b), weighted 0 for now, M' a minimum perfect matching
    of g minus the edge e_i, and M1 one of g minus both endpoints of
    e_i.  If both exist and d = w(M') - w(M1) lands in [1, k], splicing
    d in as e_i's weight makes M' and M1 + {e_i} two distinct
    minimum-weight perfect matchings, so the spliced assignment is
    non-isolating and is returned.  Otherwise the caller-supplied
    ``dummy`` (itself required to be non-isolating) is returned.

    M1 needs no subgraph of its own: a minimum perfect matching M of g
    either uses e_i or avoids it, so w(M) = min(w(M1), w(M')).  Hence
    w(M') - w(M) is d whenever d >= 1, and 0, which no k accepts, when
    d <= 0 or M1 does not exist.
    """
    return nonisolating_witness_map(g, k, dummy)(i, w_rest)


def nonisolating_witness_map(
    g: BipartiteGraph, k: int, dummy: WeightAssignment
) -> Callable[[int, Sequence[int]], WeightAssignment]:
    """:func:`nonisolating_witness` with g, k and ``dummy`` fixed, as a
    function of (i, w_rest).

    ``dummy`` is checked to be non-isolating once, here, and g minus
    each edge is built once, so a caller that maps a whole domain pays
    for them once rather than per point; the returned map still checks
    each point's arguments.
    """
    if not is_nonisolating(g, dummy, k):
        raise ValueError("dummy assignment is not non-isolating")
    edges = g.edge_list()
    m = len(edges)
    without = [g.without_edge(a, b) for a, b in edges]

    def witness(i: int, w_rest: Sequence[int]) -> WeightAssignment:
        if not 0 <= i < m:
            raise ValueError(f"edge index {i} out of range [0, {m})")
        if len(w_rest) != m - 1:
            raise ValueError(f"expected {m - 1} weights, got {len(w_rest)}")
        for v in w_rest:
            if not 1 <= v <= k:
                raise ValueError(f"weight {v} out of range [1, {k}]")
        # Each value is in [1, k] and, after index(), an int (a float
        # raises TypeError), so the grids skip WeightAssignment's checks.
        values = list(map(index, w_rest))
        values.insert(i, 0)  # 0 fills e_i's slot
        w_partial = WeightAssignment._from_checked(edge_grid(g, values))

        cols_prime = _mwpm_with_dual(without[i], w_partial)[0]
        if cols_prime is None:
            return dummy
        # g has a perfect matching (M'), so cols is not None.
        cols = _mwpm_with_dual(g, w_partial)[0]
        grid = w_partial.grid
        spliced = sum(map(getitem, grid, cols_prime)) - sum(map(getitem, grid, cols))
        if not 1 <= spliced <= k:
            return dummy
        values[i] = spliced
        return WeightAssignment._from_checked(edge_grid(g, values))

    return witness


def enumerate_nonisolating(
    g: BipartiteGraph, k: int, budget: int = DEFAULT_BUDGET
) -> Iterator[WeightAssignment]:
    """Stream the non-isolating assignments in [1, k]^m, lexicographic
    over the row-major edge list.  Their count over k^m is the exact
    fraction that fails to isolate, at most m/k."""
    if k < 1:
        raise ValueError(f"weight range bound must be >= 1, got {k}")
    m = g.num_edges
    total = k ** m
    if total > budget:
        raise BudgetExceededError(
            f"bad-set enumeration needs {total} evaluations, budget is {budget}"
        )
    for values in product(range(1, k + 1), repeat=m):
        w = WeightAssignment.from_edge_values(g, values)
        if is_nonisolating(g, w, k):
            yield w
