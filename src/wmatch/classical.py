"""Deterministic bipartite matching algorithms.

Augmenting-path search (Berge), maximum matching by one alternating
search per left vertex (Kuhn), Hall violators, the Hungarian algorithm
with its self-certifying weight cover, and the minimum-weight perfect
matching solver built on top of it.

Vertex encoding for paths: left vertex i is i, right vertex j is n + j,
so a path is a plain sequence of ints that alternates sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import inf
from operator import getitem, mul, neg, sub
from typing import NamedTuple, Optional, Sequence

from .graphs import BipartiteGraph, Matching, WeightAssignment


class PerfectMatchingExistsError(ValueError):
    """Raised when a Hall violator is requested for a graph that has a
    perfect matching (the violator cannot exist)."""


@dataclass(frozen=True)
class AlternatingPath:
    """Path alternating between matched and unmatched edges.

    ``vertices`` uses the left=i / right=n+j encoding; ``in_matching``
    has one flag per edge saying whether that edge lies in the matching
    the path was built against.
    """

    vertices: tuple[int, ...]
    in_matching: tuple[bool, ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("path needs at least one edge")
        if len(self.in_matching) != len(self.vertices) - 1:
            raise ValueError("need exactly one flag per edge")

    def edge_pairs(self, n: int) -> tuple[tuple[int, int], ...]:
        """Edges as (left, right) index pairs."""
        out = []
        for a, b in zip(self.vertices, self.vertices[1:]):
            left, right = (a, b) if a < n else (b, a)
            out.append((left, right - n))
        return tuple(out)

    def is_augmenting(self, g: BipartiteGraph, m: Matching) -> bool:
        """Check the defining conditions against g and m directly."""
        n = g.n
        matched = set(m.pairs)
        saturated = m.lefts() | {n + j for j in m.rights()}
        pairs = self.edge_pairs(n)
        # Consecutive vertices must alternate sides and be adjacent.
        for (a, b), pair in zip(zip(self.vertices, self.vertices[1:]), pairs):
            if (a < n) == (b < n):
                return False
            if not g.has_edge(*pair):
                return False
        flags = [pair in matched for pair in pairs]
        if tuple(flags) != self.in_matching:
            return False
        # Strict alternation, free endpoints, outer edges unmatched.
        for prev, cur in zip(flags, flags[1:]):
            if prev == cur:
                return False
        return (
            not flags[0]
            and not flags[-1]
            and self.vertices[0] not in saturated
            and self.vertices[-1] not in saturated
        )


def _alternating_reach(
    masks: Sequence[int], mate_of_right: dict[int, int], free: int, start: int
) -> tuple[list[int], dict[int, int]]:
    """Breadth-first search over the directed alternation graph from the
    free left vertex ``start``: unmatched edges go left to right,
    matched edges right to left.  ``free`` has bit j set for each right
    j outside ``mate_of_right``.  Returns the reached vertices in order
    of discovery, ``start`` first, and each later one's predecessor.

    The pattern is given by its row masks, bit j of ``masks[i]`` set
    iff left i sees right j (a graph's
    :attr:`~wmatch.graphs.BipartiteGraph.row_masks`), and the rights
    may sit at any bit position.  A left vertex's unreached
    neighbours are its mask less the reached rights, all at once, and
    its own mate is among the reached.  If any of them is free, the
    least one ends the search, the first free right that a search
    taking neighbours in increasing index discovers.  Otherwise each
    joins the order in increasing index, and once the layer is done
    their mates join it in the same order, so the order of a search
    that finds no free right is the breadth-first one: start, its
    rights, their mates, their new rights, and so on.  The order ends
    at a right vertex iff ``start`` has an augmenting path; following
    ``parent`` back from there to ``start`` recovers one.
    """
    n = len(masks)
    order = [start]
    parent: dict[int, int] = {}
    reached = 0
    lefts = [start]
    while lefts:
        rights = []
        for v in lefts:
            cand = masks[v] & ~reached
            if not cand:
                continue
            hit = cand & free
            if hit:
                t = n + (hit & -hit).bit_length() - 1
                parent[t] = v
                order.append(t)
                return order, parent
            reached |= cand
            while cand:
                low = cand & -cand
                t = n + low.bit_length() - 1
                parent[t] = v
                rights.append(t)
                cand ^= low
        lefts = []
        for t in rights:
            i = mate_of_right[t - n]
            parent[i] = t
            lefts.append(i)
        order += rights
        order += lefts
    return order, parent


def find_augmenting_path(
    g: BipartiteGraph, m: Matching
) -> Optional[AlternatingPath]:
    """Find an augmenting path for m in g, or None if none exists.

    Searches from each unsaturated left vertex in increasing index
    order; within a search, ends at the unsaturated right vertex that
    the breadth-first search discovers first (earliest layer, and
    within a layer the order of discovery).  The returned path is
    re-verified to be augmenting before it is handed out.
    """
    n = g.n
    mate_of_right = {j: i for i, j in m.pairs}
    free = ~sum(1 << j for j in mate_of_right)
    matched = m.lefts()
    for s in range(n):
        if s in matched:
            continue
        order, parent = _alternating_reach(g.row_masks, mate_of_right, free, s)
        v = order[-1]
        if v >= n:
            vertices = [v]
            while v != s:
                v = parent[v]
                vertices.append(v)
            vertices.reverse()
            # The edges alternate unmatched, matched, ..., unmatched.
            flags = tuple(k % 2 == 1 for k in range(len(vertices) - 1))
            path = AlternatingPath(tuple(vertices), flags)
            if not path.is_augmenting(g, m):
                raise AssertionError("traced path failed augmenting check")
            return path
    return None


def _kuhn(masks: Sequence[int]) -> list[int]:
    """Kuhn's single pass over the row masks of a pattern (as
    :func:`_alternating_reach` takes them): the right matched to each
    left vertex, or -1, after one :func:`_alternating_reach` from each
    left vertex in index order, flipping the path to the free right it
    ends at."""
    n = len(masks)
    mate_of_left = [-1] * n
    mate_of_right: dict[int, int] = {}
    free = -1  # every right, at whatever bit position
    for s in range(n):
        order, parent = _alternating_reach(masks, mate_of_right, free, s)
        j = order[-1] - n  # the free right, if the search ended at one
        if j >= 0:
            free ^= 1 << j
        # Flip the path: each left on it takes the right after it.
        while j >= 0:
            i = parent[n + j]
            mate_of_right[j] = i
            mate_of_left[i], j = j, mate_of_left[i]
    return mate_of_left


def maximum_matching(g: BipartiteGraph) -> Matching:
    """Maximum-cardinality matching by Kuhn's single pass: one
    alternating search from each left vertex in index order, flipping
    the path to the first free right vertex it discovers.  The search
    works on row bit masks (see :func:`_alternating_reach`) and finds
    the path a search over neighbour lists finds.

    A left vertex with no augmenting path never gains one as the
    matching grows elsewhere (Berge 1957; Kuhn 1955), so one search per
    left vertex is enough.  The pass augments along exactly the paths
    that restarting :func:`find_augmenting_path` from scratch after
    every augmentation finds, and returns the same matching.  The pass
    is the graph's own
    :attr:`~wmatch.graphs.BipartiteGraph.matching_columns`, run once
    per graph and shared with ``has_perfect_matching`` and
    :func:`hall_violator`.
    """
    return Matching(tuple((i, j) for i, j in enumerate(g.matching_columns) if j >= 0))


def matches_every_row(masks: Sequence[int]) -> bool:
    """Whether a matching covers every row of the pattern ``masks``
    (bit j of masks[i] set iff row i may take column j), by the Kuhn
    pass of :func:`maximum_matching` on the masks alone, for a pattern
    that is not a graph.  For a square pattern this is whether it has a
    perfect matching."""
    return -1 not in _kuhn(masks)


def neighborhood(g: BipartiteGraph, lefts: Sequence[int]) -> frozenset[int]:
    """Union of the right neighborhoods of the given left vertices."""
    out: set[int] = set()
    for i in lefts:
        out.update(g.neighbors(i))
    return frozenset(out)


def hall_violator(g: BipartiteGraph) -> tuple[int, ...]:
    """Left vertex set S with |S| > |N(S)|, for a graph with no perfect
    matching.  Raises PerfectMatchingExistsError otherwise.

    S is the least unsaturated left vertex of the graph's maximum
    matching (its :attr:`~wmatch.graphs.BipartiteGraph.matching_columns`,
    the pass :func:`maximum_matching` reads, not run again) plus every
    left vertex it reaches by alternating paths."""
    cols = g.matching_columns
    if -1 not in cols:
        raise PerfectMatchingExistsError(
            "graph has a perfect matching; no Hall violator exists"
        )
    start = cols.index(-1)
    mate_of_right = {j: i for i, j in enumerate(cols) if j >= 0}
    free = ~sum(1 << j for j in mate_of_right)
    # The matching is maximum, so the search finds no free right and
    # runs to the end.
    order, _ = _alternating_reach(g.row_masks, mate_of_right, free, start)
    s = tuple(sorted(v for v in order if v < g.n))
    if len(neighborhood(g, s)) >= len(s):
        raise AssertionError("constructed violator fails |S| > |N(S)|")
    return s


class WeightCover(NamedTuple):
    """Row/column potentials with w[i][j] <= u[i] + v[j] for all i, j."""

    u: tuple[int, ...]
    v: tuple[int, ...]


def cover_cost(cover: WeightCover) -> int:
    return sum(cover.u) + sum(cover.v)


def is_cover(w: Sequence[Sequence[int]], cover: WeightCover) -> bool:
    """Does the cover inequality hold at every position of w?"""
    n = len(w)
    if len(cover.u) != n or len(cover.v) != n:
        raise ValueError(f"cover must have {n} row and {n} column potentials")
    # Row i holds iff max over j of w[i][j] - v[j] is at most u[i].
    return all(max(map(sub, row, cover.v)) <= ui for row, ui in zip(w, cover.u))


def _dual_steps(
    w: Sequence[Sequence[int]],
) -> tuple[list[int], list[int], list[int], list[int]]:
    """The primal-dual Hungarian method on the n x n grid w, n = len(w).

    The grid must be square with n >= 1 and no negative entry; that is
    not checked here (see :func:`hungarian_max_weight`).  Returns
    ``(cols, u, v, deltas)``: the maximum-weight perfect matching as
    the column of each left vertex, the minimum-cost cover (u, v) that
    certifies it, and the size of every dual step in order.  The
    starting cover u[i] = max of row i, v = 0 costs sum(map(max, w));
    each step lowers the cost by its delta >= 1, so the final cost is
    that minus sum(deltas), and len(deltas) bounds the work.

    Invariants: the cover is feasible (w[i][j] <= u[i] + v[j]) and every
    matched pair is tight.  Each root grows one alternating tree of tight
    edges, lefts S and rights T, |S| = |T| + 1.  ``free`` holds the rights
    outside T in increasing order; for k in it, key[k] - shift is the
    least slack between S and k, attained first at parent[k].  A dual
    step by delta = least slack >= 1 lowers u on S, raises v on T and
    shift: tree edges stay tight, each slack from S to a free right
    falls by delta while its key stays put, and the cover cost falls by
    delta.  The first free right of least key joins T; the tree then
    augments (that right is free) or grows by its mate i.  Each left
    joining S (the root first) makes one pass over free, lowering key[k]
    to a strictly smaller u[i] + v[k] - w[i][k] + shift and finding the
    first least key: the steps, ties and flips of an argmin, slack sweep
    and slack update over all n columns, so the covers and matching are
    theirs, at O(n) per step, O(n^2) per root and O(n^3) in all.
    """
    n = len(w)
    u = list(map(max, w))
    v = [0] * n
    mate_of_left = [-1] * n
    mate_of_right = [-1] * n
    deltas = []
    for root in range(n):
        free = list(range(n))
        lefts, rights = [root], []
        key, parent = [inf] * n, [root] * n
        shift, i = 0, root
        while True:
            row, base = w[i], u[i] + shift
            low = inf
            for k in free:
                s = base + v[k] - row[k]
                kk = key[k]
                if s < kk:
                    key[k] = kk = s
                    parent[k] = i
                if kk < low:
                    low, j = kk, k
            delta = low - shift
            if delta:
                for i in lefts:
                    u[i] -= delta
                for k in rights:
                    v[k] += delta
                shift += delta
                deltas.append(delta)
            free.remove(j)
            rights.append(j)
            i = mate_of_right[j]
            if i < 0:
                break
            lefts.append(i)
        # Flip the tree path from the free right j back to the root.
        while j >= 0:
            i = parent[j]
            mate_of_right[j] = i
            mate_of_left[i], j = j, mate_of_left[i]
    return mate_of_left, u, v, deltas


def hungarian_max_weight(w: Sequence[Sequence[int]]) -> tuple[Matching, WeightCover]:
    """Maximum-weight matching of the complete n x n instance w,
    n = len(w), plus a minimum-cost weight cover certifying it.

    Checks that w is square with n >= 1 and no negative entry, then
    runs :func:`_dual_steps` once: primal-dual Kuhn-Munkres in O(n^3)
    arithmetic operations from the cover u[i] = max of row i, v = 0.
    The cover stays feasible throughout and every dual step lowers its
    cost by exactly its step size.  The returned matching is perfect
    and uses only tight positions (w[i][j] = u[i] + v[j]), so its
    weight equals the cover cost, which proves both optimal.
    """
    n = len(w)
    if n < 1:
        raise ValueError("instance dimension must be >= 1")
    if any(len(row) != n for row in w):
        raise ValueError(f"weight grid must be {n}x{n}")
    if min(map(min, w)) < 0:
        raise ValueError("negative weights are not accepted")
    cols, u, v, _ = _dual_steps(w)
    return Matching.from_columns(cols), WeightCover(tuple(u), tuple(v))


def _mwpm_with_dual(
    g: BipartiteGraph, w: WeightAssignment
) -> tuple[Optional[list[int]], tuple[tuple[int, ...], tuple[int, ...]]]:
    """A minimum-weight perfect matching of g under w, as the column of
    each left vertex (None when g has no perfect matching), together
    with potentials (a, b) such that a[i] + b[j] <= w(i, j) on every
    edge of g, with equality on the matched pairs.

    When there is a matching the potentials are an optimal dual, so by
    complementary slackness the minimum-weight perfect matchings of g
    are exactly the perfect matchings of its tight edges, those with
    a[i] + b[j] = w(i, j).

    Reduces to maximum-weight matching on the complete instance with
    transformed weights c - w on edges and 0 elsewhere, where
    c = n * max edge weight + 1.  Any perfect matching of g then beats
    every matching that uses a non-edge, so a non-edge in the result
    proves there is no perfect matching.  The transformed grid is
    square, n >= 1 and nonnegative by construction, so it goes to
    :func:`_dual_steps` unchecked, once.  The cover (u, v) of the
    transformed instance maps back to a = c - u, b = -v.
    """
    n = g.n
    if w.n != n:
        raise ValueError(f"weights are {w.n}x{w.n}, graph is {n}x{n}")
    rows = tuple(zip(w.grid, g.edges))
    max_w = max(max(compress(row, edges), default=0) for row, edges in rows)
    c = n * max_w + 1
    # (c - x) * True is c - x and (c - x) * False is 0.
    transformed = [list(map(mul, map(c.__sub__, row), edges)) for row, edges in rows]
    cols, u, v, _ = _dual_steps(transformed)
    dual = (tuple(map(c.__sub__, u)), tuple(map(neg, v)))
    return (cols if all(map(getitem, g.edges, cols)) else None), dual


def mwpm(g: BipartiteGraph, w: WeightAssignment) -> Matching:
    """Minimum-weight perfect matching of g, or the empty matching if g
    has no perfect matching: one :func:`_mwpm_with_dual` solve (see it
    for the reduction), its columns made a :class:`Matching`."""
    cols = _mwpm_with_dual(g, w)[0]
    return Matching.empty() if cols is None else Matching.from_columns(cols)
