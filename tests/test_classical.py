import random
from operator import sub

import pytest

from wmatch import classical
from wmatch.classical import (
    PerfectMatchingExistsError,
    WeightCover,
    _dual_steps,
    _mwpm_with_dual,
    cover_cost,
    find_augmenting_path,
    hall_violator,
    hungarian_max_weight,
    is_cover,
    maximum_matching,
    mwpm,
    neighborhood,
)
from wmatch.graphs import (
    BipartiteGraph,
    Matching,
    WeightAssignment,
    is_perfect_matching,
    matching_weight,
)
from wmatch.oracle import brute_max_weight_matching, enumerate_perfect_matchings


def all_graphs(n):
    for bits in range(1 << (n * n)):
        yield BipartiteGraph.from_rows(
            [[(bits >> (n * i + j)) & 1 for j in range(n)] for i in range(n)]
        )


def brute_max_size(g):
    def best(row, used):
        if row == g.n:
            return 0
        score = best(row + 1, used)
        for j in range(g.n):
            if g.edges[row][j] and not (used >> j) & 1:
                score = max(score, 1 + best(row + 1, used | (1 << j)))
        return score

    return best(0, 0)


def all_matchings(g):
    """Every valid matching of g (all sizes)."""
    out = [Matching.empty()]

    def walk(row, used, pairs):
        if row == g.n:
            return
        walk(row + 1, used, pairs)
        for j in range(g.n):
            if g.edges[row][j] and not (used >> j) & 1:
                chosen = pairs + [(row, j)]
                out.append(Matching.from_pairs(chosen))
                walk(row + 1, used | (1 << j), chosen)

    walk(0, 0, [])
    return out


def random_rows(rng, n, hi):
    return [[rng.randint(0, hi) for _ in range(n)] for _ in range(n)]


def planted_graph(rng, n, violator):
    """Density-1/2 graph with a planted perfect matching, or, with
    ``violator``, with three rows confined to two columns (so |S| = 3 >
    |N(S)| = 2 and no perfect matching exists)."""
    rows = [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
    if violator:
        for i in rng.sample(range(n), 3):
            rows[i] = [j < 2 and rows[i][j] for j in range(n)]
    else:
        perm = list(range(n))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            rows[i][j] = True
    return BipartiteGraph.from_rows(rows)


def has_negative_alternating_cycle(g, w, m):
    """Bellman-Ford on the residual digraph of the perfect matching m:
    a non-matching edge (i, j) is an arc from left i to right j of cost
    w(i, j), a matching edge an arc from right j to left i of cost
    -w(i, j).  Every vertex starts at distance 0 (a virtual source), so
    with no negative cycle the distances settle within 2n rounds."""
    n = g.n
    matched = set(m.pairs)
    arcs = [
        (n + j, i, -w.value(i, j)) if (i, j) in matched else (i, n + j, w.value(i, j))
        for i, j in g.edge_list()
    ]
    dist = [0] * (2 * n)
    for _ in range(2 * n):
        changed = False
        for a, b, cost in arcs:
            if dist[a] + cost < dist[b]:
                dist[b] = dist[a] + cost
                changed = True
        if not changed:
            return False
    return True


class TestAugmentingPath:
    def test_single_free_edge(self):
        g = BipartiteGraph.complete(1)
        path = find_augmenting_path(g, Matching.empty())
        assert path.vertices == (0, 1)  # left 0, right 0 encoded as n+0
        assert path.in_matching == (False,)

    def test_perfect_matching_has_none(self):
        g = BipartiteGraph.complete(2)
        m = Matching.from_dict({0: 0, 1: 1})
        assert find_augmenting_path(g, m) is None

    def test_saturated_bottleneck(self):
        # u0-v0 and u1-v0 only; with 0->0 matched, u1 has no way out.
        g = BipartiteGraph.from_rows([[1, 0], [1, 0]])
        assert find_augmenting_path(g, Matching.from_dict({0: 0})) is None

    def test_returned_path_is_augmenting(self):
        g = BipartiteGraph.from_rows([[1, 1], [1, 0]])
        m = Matching.from_dict({0: 0})
        path = find_augmenting_path(g, m)
        assert path is not None
        assert path.is_augmenting(g, m)

    def test_berge_exhaustive_2x2(self):
        # A matching is maximum iff no augmenting path exists.
        for g in all_graphs(2):
            best = brute_max_size(g)
            for m in all_matchings(g):
                path = find_augmenting_path(g, m)
                if m.size == best:
                    assert path is None
                else:
                    assert path is not None and path.is_augmenting(g, m)

    def test_berge_random_graphs(self):
        rng = random.Random(53)
        for _ in range(120):
            n = rng.randint(4, 6)
            g = BipartiteGraph.from_rows(
                [[rng.random() < 0.4 for _ in range(n)] for _ in range(n)]
            )
            best = brute_max_size(g)
            # grow a matching greedily, checking Berge at every stage
            m = Matching.empty()
            while True:
                path = find_augmenting_path(g, m)
                if path is None:
                    assert m.size == best
                    break
                assert m.size < best
                pairs = set(m.pairs) ^ set(path.edge_pairs(n))
                m = Matching.from_pairs(pairs)


class TestMaximumMatching:
    def test_empty_graph(self):
        assert maximum_matching(BipartiteGraph.empty(3)).is_empty

    def test_complete_graphs(self):
        for n in range(1, 7):
            assert maximum_matching(BipartiteGraph.complete(n)).size == n

    def test_exhaustive_3x3_vs_brute(self):
        for g in all_graphs(3):
            assert maximum_matching(g).size == brute_max_size(g)

    def test_output_is_valid_matching(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 6)
            g = BipartiteGraph.from_rows(
                [[rng.random() < 0.4 for _ in range(n)] for _ in range(n)]
            )
            m = maximum_matching(g)
            assert all(g.has_edge(i, j) for i, j in m.pairs)


def reference_maximum_matching(g):
    """Repeat until no augmenting path is left: search afresh from the
    least free left vertex and take the symmetric difference."""
    m = Matching.empty()
    while (path := find_augmenting_path(g, m)) is not None:
        m = Matching.from_pairs(set(m.pairs) ^ set(path.edge_pairs(g.n)))
    return m


def reference_hall_violator(g):
    """The least free left vertex of the reference matching, plus every
    left vertex it reaches along alternating paths (closed as a set).
    The matching is maximum, so each neighbour of a reached left vertex
    is matched."""
    m = reference_maximum_matching(g)
    mate_of_right = {j: i for i, j in m.pairs}
    reached = {next(i for i in range(g.n) if m.get(i) is None)}
    grown = True
    while grown:
        grown = False
        for i in list(reached):
            for j in g.neighbors(i):
                if mate_of_right[j] not in reached:
                    reached.add(mate_of_right[j])
                    grown = True
    return tuple(sorted(reached))


def reference_graphs():
    """Every graph with n <= 3, then 1,200 seeded graphs with n = 4..9
    at densities from sparse to nearly complete."""
    for n in (1, 2, 3):
        yield from all_graphs(n)
    rng = random.Random(71)
    for _ in range(1200):
        n = rng.randint(4, 9)
        p = rng.choice((0.15, 0.3, 0.5, 0.7, 0.9))
        yield BipartiteGraph.from_rows(
            [[rng.random() < p for _ in range(n)] for _ in range(n)]
        )


class TestSinglePassAgainstRestarts:
    def test_same_matching_and_violator(self):
        deficient = 0
        for g in reference_graphs():
            m = maximum_matching(g)
            assert m == reference_maximum_matching(g)
            if m.size < g.n:
                deficient += 1
                assert hall_violator(g) == reference_hall_violator(g)
        assert deficient >= 300

    def test_one_search_per_left_vertex(self, monkeypatch):
        calls = []
        reach = classical._alternating_reach

        def counted(masks, *args):
            calls.append(len(masks))
            return reach(masks, *args)

        monkeypatch.setattr(classical, "_alternating_reach", counted)
        rng = random.Random(73)
        for n in range(1, 10):
            for p in (0.0, 0.3, 1.0):
                g = BipartiteGraph.from_rows(
                    [[rng.random() < p for _ in range(n)] for _ in range(n)]
                )
                calls.clear()
                maximum_matching(g)
                assert len(calls) == n

    @pytest.mark.parametrize("first", range(3))
    def test_one_kuhn_pass_per_graph(self, monkeypatch, first):
        # has_perfect_matching, maximum_matching and hall_violator all
        # read the graph's one pass, whichever of them runs first.
        calls = []
        kuhn = classical._kuhn

        def counted(masks):
            calls.append(masks)
            return kuhn(masks)

        def violator(g):
            try:
                return hall_violator(g)
            except PerfectMatchingExistsError:
                return None

        asks = [lambda g: g.has_perfect_matching(), maximum_matching, violator]
        asks = asks[first:] + asks[:first]
        monkeypatch.setattr(classical, "_kuhn", counted)
        pm_free = 0
        for g in all_graphs(3):
            calls.clear()
            for ask in asks:
                ask(g)
                ask(g)
            assert calls == [g.row_masks]
            pm_free += violator(g) is not None
        assert pm_free == 512 - 247


def reference_alternating_reach(g, mate_of_left, mate_of_right, start):
    """The search over dicts and neighbour lists that the row-mask
    search replaced, kept as its reference: breadth-first from the free
    left ``start``, each left taking its neighbours but its mate in
    increasing index, each right its mate, until the first free right."""
    n = g.n
    order = [start]
    parent = {}
    for v in order:  # the loop also visits what it appends
        if v < n:
            mate = mate_of_left.get(v)
            targets = [n + j for j in g.neighbors(v) if j != mate]
        else:
            targets = [mate_of_right[v - n]]
        for t in targets:
            if t not in parent:
                parent[t] = v
                order.append(t)
                if t >= n and t - n not in mate_of_right:
                    return order, parent
    return order, parent


def reference_kuhn(g):
    """Kuhn's single pass on the reference search."""
    n = g.n
    mate_of_left, mate_of_right = {}, {}
    for s in range(n):
        order, parent = reference_alternating_reach(g, mate_of_left, mate_of_right, s)
        j = order[-1] - n
        while j >= 0:
            i = parent[n + j]
            mate_of_right[j] = i
            mate_of_left[i], j = j, mate_of_left.get(i, -1)
    return Matching.from_dict(mate_of_left)


def reference_search_violator(g):
    """hall_violator on the reference search: the lefts that the least
    free left of the reference matching reaches."""
    m = reference_kuhn(g)
    start = next(i for i in range(g.n) if m.get(i) is None)
    order, _ = reference_alternating_reach(g, m.as_dict(), {j: i for i, j in m.pairs}, start)
    return tuple(sorted(v for v in order if v < g.n))


def reference_path_vertices(g, m):
    """The vertices of find_augmenting_path on the reference search, or
    None."""
    n = g.n
    mate_of_left = m.as_dict()
    mate_of_right = {j: i for i, j in m.pairs}
    for s in range(n):
        if s in mate_of_left:
            continue
        order, parent = reference_alternating_reach(g, mate_of_left, mate_of_right, s)
        v = order[-1]
        if v >= n:
            vertices = [v]
            while v != s:
                v = parent[v]
                vertices.append(v)
            return tuple(reversed(vertices))
    return None


def sub_matchings(rng, g, count):
    """Up to ``count`` seeded matchings of g that are not maximum: random
    greedy maximal matchings, whose free lefts see only matched rights,
    so that every augmenting path runs through matched edges, and
    random subsets of them."""
    n, best = g.n, maximum_matching(g).size
    for k in range(count):
        used, pairs = set(), []
        for i in rng.sample(range(n), n):
            choices = [j for j in g.neighbors(i) if j not in used]
            if choices:
                used.add(j := rng.choice(choices))
                pairs.append((i, j))
        if k % 2:
            pairs = rng.sample(pairs, rng.randint(0, len(pairs)))
        if len(pairs) < best:
            yield Matching.from_pairs(pairs)


class TestMaskSearchAgainstReference:
    """The row-mask search against the dict-and-list search it replaced:
    the same matching, Hall violator and augmenting paths, and per
    search the same first free right, the same parents along the path
    to it and, where no free right is found, the same whole order."""

    @staticmethod
    def assert_same(g, matchings=()):
        m = maximum_matching(g)
        assert m == reference_kuhn(g)
        if m.size < g.n:
            assert hall_violator(g) == reference_search_violator(g)
        for sub in (m, *matchings):
            path = find_augmenting_path(g, sub)
            expected = reference_path_vertices(g, sub)
            assert (path and path.vertices) == expected
            assert (path is None) == (sub.size == m.size)
            TestMaskSearchAgainstReference.assert_same_searches(g, sub)

    @staticmethod
    def assert_same_searches(g, m):
        n = g.n
        mate_of_left = m.as_dict()
        mate_of_right = {j: i for i, j in m.pairs}
        free = ~sum(1 << j for j in mate_of_right)
        for s in range(n):
            if s in mate_of_left:
                continue
            order, parent = classical._alternating_reach(g.row_masks, mate_of_right, free, s)
            ref_order, ref_parent = reference_alternating_reach(
                g, mate_of_left, mate_of_right, s
            )
            assert order[-1] == ref_order[-1]
            if order[-1] < n:
                assert order == ref_order
            else:
                v = order[-1]
                while v != s:
                    assert parent[v] == ref_parent[v]
                    v = parent[v]

    def test_every_3x3_graph_and_matching(self):
        for g in all_graphs(3):
            self.assert_same(g, all_matchings(g))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_seeded_graphs(self, n):
        rng = random.Random(7000 + n)
        deficient = 0
        for k in range(300):
            p = (0.1, 0.3, 0.5, 0.7, 0.9)[k % 5]
            g = BipartiteGraph.from_rows(
                [[rng.random() < p for _ in range(n)] for _ in range(n)]
            )
            deficient += maximum_matching(g).size < n
            self.assert_same(g, sub_matchings(rng, g, 2))
        assert deficient >= 60

    @pytest.mark.parametrize("n", [20, 48, 200])
    @pytest.mark.parametrize("violator", [False, True])
    def test_production_sizes(self, n, violator):
        rng = random.Random(n + violator)
        for _ in range(6 if n < 200 else 2):
            g = planted_graph(rng, n, violator)
            assert (maximum_matching(g).size == n) != violator
            self.assert_same(g, sub_matchings(rng, g, 4))


class TestHallViolator:
    def test_isolated_vertex(self):
        g = BipartiteGraph.from_rows([[0, 0], [1, 1]])
        assert hall_violator(g) == (0,)

    def test_pigeonhole_pair(self):
        g = BipartiteGraph.from_rows([[1, 0], [1, 0]])
        s = hall_violator(g)
        assert s == (0, 1)
        assert len(neighborhood(g, s)) == 1

    def test_exhaustive_small(self):
        for n in (1, 2, 3):
            for g in all_graphs(n):
                if maximum_matching(g).size == n:
                    with pytest.raises(PerfectMatchingExistsError):
                        hall_violator(g)
                else:
                    s = hall_violator(g)
                    assert len(s) > len(neighborhood(g, s))

    def test_hall_equivalence_exhaustive(self):
        from itertools import combinations

        for n in (1, 2, 3):
            for g in all_graphs(n):
                has_pm = maximum_matching(g).size == n
                hall = all(
                    len(sub) <= len(neighborhood(g, sub))
                    for size in range(n + 1)
                    for sub in combinations(range(n), size)
                )
                assert has_pm == hall


class TestHungarian:
    def test_singleton(self):
        m, cover = hungarian_max_weight([[5]])
        assert m.pairs == ((0, 0),)
        assert cover_cost(cover) == 5

    def test_2x2_example(self):
        w = [[1, 2], [3, 1]]
        m, cover = hungarian_max_weight(w)
        weight = sum(w[i][j] for i, j in m.pairs)
        assert m.pairs == ((0, 1), (1, 0))
        assert weight == 5 == cover_cost(cover)
        assert is_cover(w, cover)

    def test_zero_weights(self):
        m, cover = hungarian_max_weight([[0, 0], [0, 0]])
        assert cover_cost(cover) == 0
        assert is_cover([[0, 0], [0, 0]], cover)

    def test_non_square_rejected(self):
        # n is len(w): a short or long row, and an empty grid.
        for w in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1], [2]]):
            with pytest.raises(ValueError, match=f"weight grid must be {len(w)}x{len(w)}"):
                hungarian_max_weight(w)
        with pytest.raises(ValueError, match="instance dimension must be >= 1"):
            hungarian_max_weight([])

    def test_negative_rejected(self):
        # Anywhere in the grid, the last row and last column included.
        for n, i, j in ((2, 0, 1), (4, 3, 0), (4, 0, 3), (4, 3, 3)):
            w = [[2] * n for _ in range(n)]
            w[i][j] = -1
            with pytest.raises(ValueError, match="negative weights are not accepted"):
                hungarian_max_weight(w)

    def test_random_vs_brute(self):
        rng = random.Random(17)
        for _ in range(150):
            n = rng.randint(1, 4)
            w = [[rng.randint(0, 10) for _ in range(n)] for _ in range(n)]
            m, cover = hungarian_max_weight(w)
            weight = sum(w[i][j] for i, j in m.pairs)
            assert is_cover(w, cover)
            assert weight == cover_cost(cover)
            assert weight == brute_max_weight_matching(w)

    def test_cost_strictly_decreases_and_round_bound(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randint(2, 4)
            w = [[rng.randint(0, 8) for _ in range(n)] for _ in range(n)]
            _, u, v, deltas = _dual_steps(w)
            start = sum(map(max, w))  # the starting cover's cost
            assert all(d >= 1 for d in deltas)
            assert len(deltas) <= start
            assert start - sum(deltas) == sum(u) + sum(v)

    def test_every_matching_below_any_cover(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(1, 3)
            w = [[rng.randint(0, 6) for _ in range(n)] for _ in range(n)]
            _, cover = hungarian_max_weight(w)
            g = BipartiteGraph.complete(n)
            for m in all_matchings(g):
                assert sum(w[i][j] for i, j in m.pairs) <= cover_cost(cover)


class TestHungarianAtScale:
    """The cover is a complete optimality proof at any n: a perfect
    matching whose weight equals the cost of a feasible cover is
    maximum, and the cover minimum.  Checked with the test's own
    arithmetic, at the sizes and weights the CLI takes."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_certificate(self, n):
        rng = random.Random(1000 + n)
        for exponent in (1, 6, 15):
            w = random_rows(rng, n, 10**exponent)
            m, (u, v) = hungarian_max_weight(w)
            assert sorted(i for i, _ in m.pairs) == list(range(n))
            assert sorted(j for _, j in m.pairs) == list(range(n))
            assert all(w[i][j] <= u[i] + v[j] for i in range(n) for j in range(n))
            assert sum(u) + sum(v) == sum(w[i][j] for i, j in m.pairs)

    def test_vs_oracles_up_to_n7(self):
        # brute_max_weight_matching stops at n = 5.  Beyond it, weights
        # are nonnegative, so some perfect matching of the complete
        # graph attains the maximum over all matchings.
        rng = random.Random(41)
        for n in range(1, 8):
            pms = enumerate_perfect_matchings(BipartiteGraph.complete(n))
            for hi in (3, 3, 10**15, 10**15):
                w = random_rows(rng, n, hi)
                m, cover = hungarian_max_weight(w)
                if n <= 5:
                    best = brute_max_weight_matching(w)
                else:
                    best = max(sum(w[i][j] for i, j in pm.pairs) for pm in pms)
                assert sum(w[i][j] for i, j in m.pairs) == best == cover_cost(cover)


def reference_dual_steps(n, w):
    """The three-scan kernel that _dual_steps replaced, kept as its
    reference: per tree step an argmin over all n columns, a slack
    sweep by delta over the columns outside the tree, and a slack update
    for the new left that tests in_tree on every column."""
    u = list(map(max, w))
    v = [0] * n
    mate_of_left = [-1] * n
    mate_of_right = [-1] * n
    cover = WeightCover(u, v)
    yield cover
    for root in range(n):
        in_tree = [False] * n
        lefts = [root]
        rights = []
        row, ui = w[root], u[root]
        slack = list(map(sub, map(ui.__add__, v), row))
        parent = [root] * n
        while True:
            delta = j = -1
            for k in range(n):
                if not in_tree[k] and (j < 0 or slack[k] < delta):
                    delta, j = slack[k], k
            if delta:
                for i in lefts:
                    u[i] -= delta
                for k in rights:
                    v[k] += delta
                for k in range(n):
                    if not in_tree[k]:
                        slack[k] -= delta
                yield cover
            in_tree[j] = True
            rights.append(j)
            i = mate_of_right[j]
            if i < 0:
                break
            lefts.append(i)
            row, ui = w[i], u[i]
            for k in range(n):
                if not in_tree[k]:
                    s = ui + v[k] - row[k]
                    if s < slack[k]:
                        slack[k] = s
                        parent[k] = i
        while j >= 0:
            i = parent[j]
            mate_of_right[j] = i
            mate_of_left[i], j = j, mate_of_left[i]
    return Matching.from_pairs(enumerate(mate_of_left))


def reference_trace(n, w):
    """The cost drop of every dual step of :func:`reference_dual_steps`
    in order, its final cover as (u, v) lists, and its matching."""
    steps = reference_dual_steps(n, w)
    costs = []
    while True:
        try:
            u, v = next(steps)
        except StopIteration as done:
            drops = [a - b for a, b in zip(costs, costs[1:])]
            return drops, (u, v), done.value
        costs.append(sum(u) + sum(v))


def mwpm_grid(g, w):
    """_mwpm_with_dual's transformed grid: c - w on edges, 0 elsewhere."""
    c = g.n * max((w[i][j] for i, j in g.edge_list()), default=0) + 1
    return [[c - x if e else 0 for x, e in zip(row, edges)]
            for row, edges in zip(w, g.edges)]


class TestDualStepsAgainstReference:
    """_dual_steps takes the reference's dual steps one for one (each
    delta is the reference's cost drop at that step) and ends at exactly
    its cover and matching: the running shift, the one pass over the
    free rights and its tie-breaks (strictly smaller keys, first least
    key by index) change none of them."""

    @staticmethod
    def assert_same(w):
        cols, u, v, deltas = _dual_steps(w)
        assert (deltas, (u, v), Matching.from_columns(cols)) == reference_trace(len(w), w)

    @pytest.mark.parametrize("hi", [1, 10, 10**6, 10**15])
    def test_random_up_to_n12(self, hi):
        rng = random.Random(hi)
        for n in range(1, 13):
            for _ in range(30):
                self.assert_same(random_rows(rng, n, hi))

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("hi", [10, 10**6, 10**15])
    def test_random_production_sizes(self, n, hi):
        rng = random.Random(n * hi)
        for _ in range(3):
            self.assert_same(random_rows(rng, n, hi))

    def test_sparse_rows(self):
        # Most entries 0, so many columns tie at every step.
        rng = random.Random(59)
        for n in (*range(1, 13), 32, 64):
            for density in (0.2, 0.5):
                self.assert_same([[rng.randint(0, 10) if rng.random() < density else 0
                                   for _ in range(n)] for _ in range(n)])

    @pytest.mark.parametrize("c", [0, 1, 10**15])
    def test_all_equal(self, c):
        for n in (*range(1, 13), 32, 64):
            self.assert_same([[c] * n for _ in range(n)])

    @pytest.mark.parametrize("hi", [10, 10**6, 10**15])
    def test_mwpm_grids(self, hi):
        rng = random.Random(61 + hi)
        for n in (*range(1, 13), 32, 64):
            for violator in (False, True) if n >= 3 else (False,):
                g = planted_graph(rng, n, violator)
                self.assert_same(mwpm_grid(g, random_rows(rng, n, hi)))


class TestCover:
    def test_trivial(self):
        c = WeightCover((0, 0), (0, 0))
        assert cover_cost(c) == 0
        assert is_cover([[0, 0], [0, 0]], c)

    def test_violation_detected(self):
        assert not is_cover([[5, 0], [0, 0]], WeightCover((1, 0), (1, 0)))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_violation_in_last_column(self, n):
        # w[i][j] = u[i] + v[j] everywhere: tight, so a cover, until one
        # entry of the last column, in the first or last row, grows by 1.
        cover = WeightCover(tuple(range(n)), tuple(range(0, 2 * n, 2)))
        w = [[i + 2 * j for j in range(n)] for i in range(n)]
        assert is_cover(w, cover)
        for i in (0, n - 1):
            bad = [row[:] for row in w]
            bad[i][n - 1] += 1
            assert not is_cover(bad, cover)

    def test_potentials_must_match_the_grid(self):
        # A short cover would leave rows or columns unchecked.
        w = [[0, 0], [0, 9]]
        for cover in (WeightCover((0,), (0, 9)), WeightCover((0, 9), (0,))):
            with pytest.raises(ValueError, match="cover must have 2 row and 2 column"):
                is_cover(w, cover)


class TestMwpm:
    def test_unique_pm_any_weights(self):
        g = BipartiteGraph.from_rows([[1, 0], [0, 1]])
        for grid in ([[9, 0], [0, 1]], [[0, 3], [3, 5]]):
            m = mwpm(g, WeightAssignment.from_grid(grid))
            assert m.pairs == ((0, 0), (1, 1))

    def test_pm_free_returns_empty(self):
        g = BipartiteGraph.from_rows([[0, 0], [1, 1]])
        assert mwpm(g, WeightAssignment.from_grid([[0, 0], [0, 0]])).is_empty

    def test_k33_row_major_weights(self):
        g = BipartiteGraph.complete(3)
        w = WeightAssignment.from_grid([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        m = mwpm(g, w)
        assert is_perfect_matching(g, m)
        assert matching_weight(m, w) == 15

    def test_random_vs_enumeration(self):
        rng = random.Random(31)
        for _ in range(120):
            n = rng.randint(1, 4)
            g = BipartiteGraph.from_rows(
                [[rng.random() < 0.6 for _ in range(n)] for _ in range(n)]
            )
            w = WeightAssignment.from_grid(
                [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)]
            )
            got = mwpm(g, w)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                assert got.is_empty
            else:
                assert is_perfect_matching(g, got)
                assert matching_weight(got, w) == min(
                    matching_weight(m, w) for m in pms
                )

    def test_n32_no_improving_cycle(self):
        rng = random.Random(43)
        for t in range(12):
            violator = t % 4 == 3
            g = planted_graph(rng, 32, violator)
            w = WeightAssignment.from_grid(random_rows(rng, 32, 10 ** (1 + t % 15)))
            got = mwpm(g, w)
            if violator:
                assert got.is_empty
            else:
                assert is_perfect_matching(g, got)
                assert not has_negative_alternating_cycle(g, w, got)

    def test_up_to_n7_vs_enumeration(self):
        rng = random.Random(47)
        for _ in range(60):
            n = rng.randint(5, 7)
            g = BipartiteGraph.from_rows(
                [[rng.random() < 0.6 for _ in range(n)] for _ in range(n)]
            )
            w = WeightAssignment.from_grid(random_rows(rng, n, rng.choice((3, 10**15))))
            got = mwpm(g, w)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                assert got.is_empty
            else:
                assert is_perfect_matching(g, got)
                assert matching_weight(got, w) == min(matching_weight(m, w) for m in pms)

    def test_heavy_non_edges_change_nothing(self):
        # Non-edge weights are read nowhere, however large: the
        # matching and the dual stay the same with or without a
        # perfect matching.
        rng = random.Random(53)
        for t in range(16):
            n = rng.randint(4, 8)
            g = planted_graph(rng, n, violator=t % 2 == 1)
            rows = random_rows(rng, n, 10 ** rng.randint(1, 15))
            heavy = [[x if e else 10**30 + x for x, e in zip(row, edges)]
                     for row, edges in zip(rows, g.edges)]
            assert any(not e for edges in g.edges for e in edges)
            assert _mwpm_with_dual(g, WeightAssignment.from_grid(heavy)) == _mwpm_with_dual(
                g, WeightAssignment.from_grid(rows)
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mwpm(BipartiteGraph.complete(2), WeightAssignment.from_grid([[1]]))


class TestMwpmDual:
    """The dual that the isolation predicate's complementary slackness
    argument rests on, checked with the test's own arithmetic at the
    sizes and weights the CLI takes."""

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16, 32])
    def test_feasible_tight_and_optimal(self, n):
        rng = random.Random(67 + n)
        for exponent in (1, 6, 15):
            for violator in (False, True) if n >= 3 else (False,):
                g = planted_graph(rng, n, violator)
                w = random_rows(rng, n, 10**exponent)
                cols, (a, b) = _mwpm_with_dual(g, WeightAssignment.from_grid(w))
                # a[i] + b[j] <= w(i, j) on every edge, PM or not.
                for i, j in g.edge_list():
                    assert a[i] + b[j] <= w[i][j]
                if violator:
                    assert cols is None
                    continue
                assert sorted(cols) == list(range(n))
                assert all(g.edges[i][j] for i, j in enumerate(cols))
                assert all(a[i] + b[j] == w[i][j] for i, j in enumerate(cols))
                assert sum(a) + sum(b) == sum(w[i][j] for i, j in enumerate(cols))
