import random
from fractions import Fraction
from itertools import product

import pytest

from wmatch.classical import mwpm
from wmatch.graphs import BipartiteGraph, WeightAssignment, matching_weight
from wmatch.isolation import (
    enumerate_nonisolating,
    is_nonisolating,
    nonisolating_witness,
    nonisolating_witness_map,
)
from wmatch.oracle import DEFAULT_BUDGET, BudgetExceededError, brute_min_weight_pms

K22 = BipartiteGraph.complete(2)
DIAG2 = BipartiteGraph.from_rows([[1, 0], [0, 1]])
# three-vertex graph with exactly two perfect matchings (identity and
# the 0<->1 swap); edge (2, 2) is in both.
SWAP3 = BipartiteGraph.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
SEVEN3 = BipartiteGraph.from_rows([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
# two perfect matchings, and edge (0, 2) lies in neither: g minus that
# edge has a perfect matching, g minus both its endpoints has none.
DEAD_EDGE3 = BipartiteGraph.from_rows([[1, 1, 1], [1, 1, 0], [0, 0, 1]])


def assignments(g, k):
    for values in product(range(1, k + 1), repeat=g.num_edges):
        yield WeightAssignment.from_edge_values(g, values)


def oracle_bad(g, w):
    return len(brute_min_weight_pms(g, w).matchings) >= 2


class TestIsNonisolating:
    def test_unique_pm_never_bad(self):
        for w in assignments(DIAG2, 2):
            assert not is_nonisolating(DIAG2, w)

    def test_equal_weights_tie(self):
        w = WeightAssignment.from_grid([[1, 1], [1, 1]])
        assert is_nonisolating(K22, w)

    def test_pm_free_graph_never_bad(self):
        g = BipartiteGraph.from_rows([[0, 0], [1, 1]])
        for w in assignments(g, 2):
            assert not is_nonisolating(g, w)

    def test_matches_oracle_exhaustively_k3(self):
        for w in assignments(K22, 3):
            assert is_nonisolating(K22, w) == oracle_bad(K22, w)

    def test_matches_oracle_on_random_graphs(self):
        # Weights in [1, k] with k <= 4 make ties common; non-edge
        # positions carry values too, which the predicate must ignore.
        rng = random.Random(59)
        outcomes = {"pm_free": 0, "tied": 0, "isolated": 0}
        for _ in range(300):
            n = rng.randint(1, 4)
            k = rng.choice((2, 3, 4))
            g = BipartiteGraph.from_rows(
                [[rng.random() < 0.6 for _ in range(n)] for _ in range(n)]
            )
            w = WeightAssignment.from_grid(
                [[rng.randint(1, k) for _ in range(n)] for _ in range(n)]
            )
            truth = brute_min_weight_pms(g, w)
            tied = len(truth.matchings) >= 2
            outcomes["pm_free" if truth.weight is None else "tied" if tied else "isolated"] += 1
            assert is_nonisolating(g, w) == tied
        assert min(outcomes.values()) >= 20, outcomes

    @pytest.mark.parametrize("k", [2, 10**15])
    def test_matches_oracle_at_n5_to_7(self, k):
        # With k = 2 ties are common.  With k = 10^15 every other
        # instance draws its weights from three values in [1, k], so the
        # predicate meets ties between 50-bit weights too.
        rng = random.Random(k)
        outcomes = {"pm_free": 0, "tied": 0, "isolated": 0}
        for t in range(90):
            n = rng.randint(5, 7)
            density = rng.choice((0.35, 0.5, 0.7))
            g = BipartiteGraph.from_rows(
                [[rng.random() < density for _ in range(n)] for _ in range(n)]
            )
            palette = [rng.randint(1, k) for _ in range(3)]
            draw = (lambda: rng.choice(palette)) if t % 2 else (lambda: rng.randint(1, k))
            w = WeightAssignment.from_grid([[draw() for _ in range(n)] for _ in range(n)])
            truth = brute_min_weight_pms(g, w)
            tied = len(truth.matchings) >= 2
            outcomes["pm_free" if truth.weight is None else "tied" if tied else "isolated"] += 1
            assert is_nonisolating(g, w) == tied
        assert min(outcomes.values()) >= 5, outcomes

    def test_weight_out_of_range(self):
        # The predicate takes no range: any nonnegative weights are read,
        # 0 included, as the witness's weight-0 splice slot is.  A grid
        # of another size is refused.
        for grid in ([[0, 1], [1, 1]], [[3, 1], [1, 1]], [[0, 5], [5, 10]]):
            w = WeightAssignment.from_grid(grid)
            assert is_nonisolating(K22, w) == oracle_bad(K22, w)
        assert is_nonisolating(K22, WeightAssignment.from_grid([[0, 5], [5, 10]]))
        with pytest.raises(ValueError, match=r"^weights are 3x3, graph is 2x2$"):
            is_nonisolating(K22, WeightAssignment.from_grid([[1] * 3] * 3))


ALL_ONES = WeightAssignment.from_grid([[1, 1], [1, 1]])


class TestWitness:
    def test_hand_example_splice(self):
        # e_0 = (0,0), remaining weights all 1: the minimum matching of
        # K22 minus e_0 weighs 2, the one left after deleting both
        # endpoints weighs 1, so weight 1 is spliced in.
        out = nonisolating_witness(K22, 2, 0, (1, 1, 1))
        assert out == ALL_ONES
        assert is_nonisolating(K22, out)

    def test_dummy_when_deletion_kills_pms(self):
        # The fallback is the all-ones assignment on SWAP3's edges.
        dummy = WeightAssignment.from_grid(
            [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
        )
        assert is_nonisolating(SWAP3, dummy)
        i = SWAP3.edge_list().index((2, 2))
        out = nonisolating_witness(SWAP3, 2, i, (2, 2, 2, 2))
        assert out == dummy

    def test_dummy_when_splice_out_of_range(self):
        # weights force w(M') - w(M1) = 0, outside [1, k].
        out = nonisolating_witness(K22, 2, 0, (1, 1, 2))
        assert out == ALL_ONES

    def test_bad_edge_index(self):
        with pytest.raises(ValueError):
            nonisolating_witness(K22, 2, 4, (1, 1, 1))

    def test_wrong_rest_length(self):
        with pytest.raises(ValueError):
            nonisolating_witness(K22, 2, 0, (1, 1))

    def test_rest_out_of_range(self):
        with pytest.raises(ValueError):
            nonisolating_witness(K22, 2, 0, (1, 3, 1))

    def test_float_weight_rejected(self):
        # 2.0 passes the range check, then is refused as a non-int
        # rather than truncated; 0.5 fails the range check first.
        with pytest.raises(TypeError):
            nonisolating_witness(K22, 2, 0, (1, 2.0, 1))
        with pytest.raises(ValueError):
            nonisolating_witness(K22, 2, 0, (1, 0.5, 1))
        # Bools pass as 0 and 1, as in WeightAssignment.from_edge_values.
        assert (nonisolating_witness(K22, 2, 1, (True, True, True))
                == nonisolating_witness(K22, 2, 1, (1, 1, 1)))

    def test_isolating_dummy_rejected(self):
        # On a graph with fewer than two perfect matchings the all-ones
        # fallback isolates, as every assignment does: no map is built.
        message = r"^graph has fewer than two perfect matchings"
        for g in (DIAG2, BipartiteGraph.from_rows([[0, 0], [1, 1]])):
            all_ones = WeightAssignment.from_edge_values(g, (1,) * g.num_edges)
            assert not is_nonisolating(g, all_ones)
            with pytest.raises(ValueError, match=message):
                nonisolating_witness(g, 2, 0, (1,) * (g.num_edges - 1))
            with pytest.raises(ValueError, match=message):
                nonisolating_witness_map(g, 2)

    def test_map_checks_dummy_once_and_points_always(self):
        # The range and the all-ones fallback are checked when the map
        # is built; each point when it is mapped.
        for k in (0, -1):
            with pytest.raises(ValueError, match=rf"^weight range bound must be >= 1, got {k}$"):
                nonisolating_witness_map(K22, k)
        witness = nonisolating_witness_map(K22, 2)
        for bad_point in ((4, (1, 1, 1)), (0, (1, 1)), (0, (1, 3, 1))):
            with pytest.raises(ValueError):
                witness(*bad_point)
        for i in range(4):
            for rest in product((1, 2), repeat=3):
                assert witness(i, rest) == nonisolating_witness(K22, 2, i, rest)

    def test_fallback_is_the_first_bad_assignment(self):
        # On each 3x3 graph with two perfect matchings the all-ones
        # fallback is the lexicographically first non-isolating point of
        # [1, 2]^m; on every other graph the map refuses to be built.
        with_two = 0
        for bits in product((0, 1), repeat=9):
            g = BipartiteGraph.from_rows([bits[r * 3:(r + 1) * 3] for r in range(3)])
            all_ones = WeightAssignment.from_edge_values(g, (1,) * g.num_edges)
            if len(brute_min_weight_pms(g, all_ones).matchings) >= 2:
                with_two += 1
                assert next(enumerate_nonisolating(g, 2)) == all_ones
                nonisolating_witness_map(g, 2)
            else:
                with pytest.raises(ValueError):
                    nonisolating_witness_map(g, 2)
        assert with_two == 97

    def test_soundness_every_output_bad(self):
        k = 3
        for i in range(4):
            for rest in product(range(1, k + 1), repeat=3):
                out = nonisolating_witness(K22, k, i, rest)
                assert is_nonisolating(K22, out)

    def test_surjective_k22(self):
        for k in (2, 3):
            bad = set(enumerate_nonisolating(K22, k))
            hits = {
                nonisolating_witness(K22, k, i, rest)
                for i in range(4)
                for rest in product(range(1, k + 1), repeat=3)
            }
            assert bad <= hits

    def test_surjective_noncomplete(self):
        k = 2
        bad = list(enumerate_nonisolating(SWAP3, k))
        assert bad
        m = SWAP3.num_edges
        hits = {
            nonisolating_witness(SWAP3, k, i, rest)
            for i in range(m)
            for rest in product(range(1, k + 1), repeat=m - 1)
        }
        assert set(bad) <= hits


def subgraph_witness(g, k, dummy, i, w_rest):
    """The witness as first written: M1 solved on g minus both
    endpoints of e_i, reindexed, under its own weight grid."""
    edges = g.edge_list()
    a, b = edges[i]
    grid = [[0] * g.n for _ in range(g.n)]
    for (r, c), v in zip(edges, list(w_rest[:i]) + [0] + list(w_rest[i:])):
        grid[r][c] = v
    w_partial = WeightAssignment.from_grid(grid)
    m_prime = mwpm(g.without_edge(a, b), w_partial)
    if m_prime.is_empty:
        return dummy
    if g.n == 1:
        m1_weight = 0
    else:
        rows = [r for r in range(g.n) if r != a]
        cols = [c for c in range(g.n) if c != b]
        sub = BipartiteGraph.from_rows([[g.edges[r][c] for c in cols] for r in rows])
        sub_w = WeightAssignment.from_grid([[grid[r][c] for c in cols] for r in rows])
        m1 = mwpm(sub, sub_w)
        if m1.is_empty:
            return dummy
        m1_weight = matching_weight(m1, sub_w)
    spliced = matching_weight(m_prime, w_partial) - m1_weight
    if not 1 <= spliced <= k:
        return dummy
    grid[a][b] = spliced
    return WeightAssignment.from_grid(grid)


class TestWitnessAgainstSubgraph:
    @pytest.mark.parametrize(
        "g, k",
        [(K22, 2), (K22, 3), (K22, 4), (SEVEN3, 2), (SWAP3, 3), (DEAD_EDGE3, 2)],
        ids=["k22-2", "k22-3", "k22-4", "seven3-2", "swap3-3", "dead-edge3-2"],
    )
    def test_pointwise_over_the_whole_domain(self, g, k):
        dummy = next(enumerate_nonisolating(g, k))
        witness = nonisolating_witness_map(g, k)
        m = g.num_edges
        spliced = 0
        for i in range(m):
            for rest in product(range(1, k + 1), repeat=m - 1):
                out = witness(i, rest)
                assert out == subgraph_witness(g, k, dummy, i, rest)
                spliced += out != dummy
        assert spliced > 0

    def test_single_vertex_pair(self):
        # K_1,1 has one perfect matching, so no assignment is
        # non-isolating and the map is never built; the old n = 1 branch
        # was never reached either, as g minus its one edge has no
        # perfect matching.
        g = BipartiteGraph.complete(1)
        for k in (1, 2, 3):
            with pytest.raises(ValueError):
                nonisolating_witness_map(g, k)
            for v in range(1, k + 1):
                w = WeightAssignment.from_grid([[v]])
                assert subgraph_witness(g, k, w, 0, ()) == w


class TestFraction:
    """The exact fraction of non-isolating assignments, counted off
    enumerate_nonisolating, against the m/k bound."""

    @staticmethod
    def fraction(g, k, budget=DEFAULT_BUDGET):
        return Fraction(sum(1 for _ in enumerate_nonisolating(g, k, budget)), k ** g.num_edges)

    def test_unique_pm_graph_zero(self):
        assert self.fraction(DIAG2, 3) == 0

    def test_k22_counts(self):
        # On K22 the minimum ties exactly when the two diagonals weigh
        # the same, giving sum-of-squares counts: frozen anchors below.
        expected = {2: 6, 3: 19, 4: 44}
        for k in (2, 3, 4):
            bad_count = sum(1 for w in assignments(K22, k) if oracle_bad(K22, w))
            assert bad_count == expected[k]
            frac = self.fraction(K22, k)
            assert frac == Fraction(bad_count, k**4)
            assert frac <= Fraction(4, k)
            assert bad_count <= 4 * k**3

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            self.fraction(K22, 100, budget=10)

    def test_enumeration_is_lexicographic(self):
        bad = [w.grid for w in enumerate_nonisolating(K22, 2)]
        assert bad == sorted(bad)
