import random
from itertools import count, permutations
from math import factorial

import pytest

from wmatch.classical import maximum_matching
from wmatch.graphs import BipartiteGraph, Matching, WeightAssignment, matching_weight
from wmatch.oracle import (
    BruteMinResult,
    BudgetExceededError,
    brute_max_matching_size,
    brute_max_weight_matching,
    brute_min_weight_pms,
    check_surjection,
    enumerate_perfect_matchings,
    min_weight_pms_map,
)


def random_graph(rng, n, density=0.6):
    return BipartiteGraph.from_rows([[rng.random() < density for _ in range(n)] for _ in range(n)])


class TestEnumeratePerfectMatchings:
    def test_k33_has_six(self):
        assert len(enumerate_perfect_matchings(BipartiteGraph.complete(3))) == 6

    def test_factorial_counts(self):
        for n in range(1, 7):
            pms = enumerate_perfect_matchings(BipartiteGraph.complete(n))
            assert len(pms) == factorial(n)

    def test_pm_free_graph(self):
        g = BipartiteGraph.from_rows([[0, 0], [1, 1]])
        assert enumerate_perfect_matchings(g) == []

    def test_diagonal_unique(self):
        g = BipartiteGraph.from_rows([[1, 0], [0, 1]])
        assert enumerate_perfect_matchings(g) == [Matching.from_dict({0: 0, 1: 1})]

    def test_lexicographic_and_stable(self):
        g = BipartiteGraph.complete(3)
        pms = enumerate_perfect_matchings(g)
        sigmas = [tuple(j for _, j in m.pairs) for m in pms]
        assert sigmas == sorted(sigmas)
        assert pms == enumerate_perfect_matchings(g)

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_perfect_matchings(BipartiteGraph.complete(9))


class TestBruteMaxWeight:
    def test_zero_weights(self):
        assert brute_max_weight_matching([[0, 0], [0, 0]]) == 0

    def test_2x2_example(self):
        assert brute_max_weight_matching([[1, 2], [3, 1]]) == 5

    def test_partial_matchings_considered(self):
        # leaving a row unmatched beats any perfect matching here
        assert brute_max_weight_matching([[9, 0], [9, 0]]) == 9

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_max_weight_matching([[0] * 6] * 6)

    def test_non_square_rejected(self):
        # n is len(w), and a row of any other length is an error, not a
        # grid read on its first n columns.
        for w in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1], [2]]):
            with pytest.raises(ValueError, match=f"weight grid must be {len(w)}x{len(w)}"):
                brute_max_weight_matching(w)

    def test_random_vs_permutations(self):
        # On a complete graph every matching lies inside a perfect one,
        # so the best matching keeps the positive entries of the best
        # permutation.
        rng = random.Random(67)
        for _ in range(200):
            n = rng.randint(1, 5)
            w = [[rng.randint(-5, 10) for _ in range(n)] for _ in range(n)]
            best = max(
                sum(max(0, w[i][p[i]]) for i in range(n)) for p in permutations(range(n))
            )
            assert brute_max_weight_matching(w) == best


class TestBruteMaxMatchingSize:
    def test_exhaustive_3x3_and_random_vs_augmenting_paths(self):
        graphs = [
            BipartiteGraph.from_rows([[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)])
            for bits in range(1 << 9)
        ]
        rng = random.Random(71)
        graphs += [random_graph(rng, rng.randint(4, 6), 0.4) for _ in range(100)]
        for g in graphs:
            assert brute_max_matching_size(g) == maximum_matching(g).size

    def test_exhaustive_3x3_and_seeded_vs_permutations(self):
        # Reference independent of both the sweep and augmenting paths:
        # the most edges any one permutation hits.  Every matching lies
        # inside some permutation.
        graphs = [
            BipartiteGraph.from_rows([[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)])
            for bits in range(1 << 9)
        ]
        rng = random.Random(79)
        graphs += [random_graph(rng, 4 + t % 3, rng.random()) for t in range(300)]
        sizes = set()
        for g in graphs:
            n = g.n
            best = max(
                sum(g.has_edge(i, p[i]) for i in range(n)) for p in permutations(range(n))
            )
            assert brute_max_matching_size(g) == best
            sizes.add((n, best))
        # Every size 0..3 at n = 3 and a spread of sizes at each larger n.
        assert {b for n, b in sizes if n == 3} == {0, 1, 2, 3}
        assert all(len({b for m, b in sizes if m == n}) >= 3 for n in (4, 5, 6))


class TestBruteMinPms:
    def test_unique(self):
        g = BipartiteGraph.from_rows([[1, 0], [0, 1]])
        res = brute_min_weight_pms(g, WeightAssignment.from_grid([[1, 0], [0, 1]]))
        assert res.weight == 2 and res.unique

    def test_tie(self):
        res = brute_min_weight_pms(
            BipartiteGraph.complete(2), WeightAssignment.from_grid([[1, 1], [1, 1]])
        )
        assert res.weight == 2 and len(res.matchings) == 2

    def test_asymmetric(self):
        res = brute_min_weight_pms(
            BipartiteGraph.complete(2), WeightAssignment.from_grid([[0, 1], [1, 1]])
        )
        assert res.weight == 1 and res.unique

    def test_no_pm(self):
        g = BipartiteGraph.from_rows([[0, 0], [1, 1]])
        res = brute_min_weight_pms(g, WeightAssignment.from_grid([[0, 0], [0, 0]]))
        assert res.weight is None and res.matchings == ()

    def test_map_matches_per_call_oracle(self):
        # One map per graph, weighed several times; the reference filters
        # itertools.permutations (lexicographic, as the enumeration is).
        rng = random.Random(73)
        for t in range(200):
            n = 1 + t % 5
            g = random_graph(rng, n)
            minimum = min_weight_pms_map(g)
            for _ in range(3):
                w = WeightAssignment.from_grid(
                    [[rng.randint(0, 4) for _ in range(n)] for _ in range(n)]
                )
                pms = [
                    Matching.from_pairs(enumerate(p))
                    for p in permutations(range(n))
                    if all(g.has_edge(i, p[i]) for i in range(n))
                ]
                weights = [sum(w.value(i, j) for i, j in m.pairs) for m in pms]
                best = min(weights, default=None)
                expected = tuple(m for m, x in zip(pms, weights) if x == best)
                got = minimum(w)
                assert got == brute_min_weight_pms(g, w)
                assert got.weight == best and got.matchings == expected


def reference_min_weight_pms(g, w):
    """Every enumerated perfect matching weighed with matching_weight."""
    pms = enumerate_perfect_matchings(g)
    weights = [matching_weight(m, w) for m in pms]
    best = min(weights, default=None)
    return BruteMinResult(best, tuple(m for m, x in zip(pms, weights) if x == best))


class TestMinWeightPmsMap:
    """The map's kept column sequences against weighing each matching
    pair by pair."""

    def test_every_3x3_graph(self):
        # Weights in [0, 2] on a 3x3 grid tie often; a third of the
        # graphs have no perfect matching.
        rng = random.Random(79)
        ties = pm_free = 0
        for bits in range(1 << 9):
            g = BipartiteGraph.from_rows(
                [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
            )
            minimum = min_weight_pms_map(g)
            for _ in range(4):
                w = WeightAssignment.from_grid(
                    [[rng.randint(0, 2) for _ in range(3)] for _ in range(3)]
                )
                expected = reference_min_weight_pms(g, w)
                assert minimum(w) == expected == brute_min_weight_pms(g, w)
                ties += len(expected.matchings) > 1
                pm_free += expected.weight is None
        assert ties > 100 and pm_free > 100

    @pytest.mark.parametrize("n", [4, 5])
    def test_seeded_graphs(self, n):
        rng = random.Random(83 + n)
        for _ in range(40):
            g = random_graph(rng, n)
            minimum = min_weight_pms_map(g)
            for hi in (1, 3, 50):
                w = WeightAssignment.from_grid(
                    [[rng.randint(0, hi) for _ in range(n)] for _ in range(n)]
                )
                assert minimum(w) == reference_min_weight_pms(g, w)


class TestCheckSurjection:
    def test_identity_surjective(self):
        report = check_surjection(range(10), lambda x: x, range(10))
        assert report.surjective
        assert report.domain_size == 10
        assert report.covered_count == report.target_size == 10

    def test_constant_map_uncovered(self):
        report = check_surjection(range(5), lambda x: 0, [0, 1])
        assert not report.surjective
        assert report.uncovered == (1,)
        assert report.covered_count == 1

    def test_domain_budget(self):
        with pytest.raises(BudgetExceededError):
            check_surjection(range(10**7 + 1), lambda x: x, [0], budget=1000)

    def test_target_budget(self):
        with pytest.raises(BudgetExceededError):
            check_surjection(range(2), lambda x: x, range(2000), budget=1000)

    def test_endless_target_stops_at_budget(self):
        with pytest.raises(BudgetExceededError, match="^target enumeration exceeded budget 10$"):
            check_surjection(range(2), lambda x: x, count(), budget=10)

    def test_target_read_no_further_than_budget_plus_one(self):
        drawn = []

        def target(size):
            for x in range(size):
                drawn.append(x)
                yield x

        with pytest.raises(BudgetExceededError):
            check_surjection(range(2), lambda x: x, target(3_000_000), budget=10)
        assert len(drawn) <= 11
        # A target of exactly budget elements is read whole and passes.
        drawn.clear()
        report = check_surjection(range(10), lambda x: x, target(10), budget=10)
        assert report.target_size == 10 and report.surjective and len(drawn) == 10

    def test_report_json_conversion(self):
        report = check_surjection(range(3), lambda x: x, range(4))
        d = report.to_dict()
        assert d["surjective"] is False
        assert d["uncovered"] == [3]
