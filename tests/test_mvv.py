import random
from itertools import product

import pytest

from wmatch import classical, mvv, verify
from wmatch.classical import hall_violator, mwpm
from wmatch.edmonds import ZeroDeterminantError
from wmatch.graphs import (
    BipartiteGraph,
    Matching,
    WeightAssignment,
    is_perfect_matching,
    matching_weight,
    random_weights,
)
from wmatch.isolation import is_nonisolating
from wmatch import linalg
from wmatch.linalg import IntMatrix, det_bareiss, det_berkowitz, minor, power_det_valuation, trailing_zeros
from wmatch.mvv import (
    MvvTrial,
    build_power_matrix,
    edge_in_unique_min_pm,
    exact_power_det_valuation,
    extract_pm_weight_bounded,
    mvv_trial,
)
from wmatch.oracle import brute_min_weight_pms

K22 = BipartiteGraph.complete(2)
# Found by search: the membership test collects five edges of this
# graph, one per row but two in column 1, under the weights of seed 91.
NON_INJECTIVE = (
    BipartiteGraph.from_rows(
        [[1, 1, 1, 1, 1], [1, 1, 1, 0, 1], [1, 0, 1, 1, 0], [0, 1, 1, 1, 1], [0, 1, 1, 0, 1]]
    ),
    91,
)


# The membership rule collects a perfect matching of the wrong weight
# here: four minimum matchings of weight 7 cancel, the trailing zero
# count is 8, and the collected matching weighs 9.
WEIGHT_MISMATCH = (
    BipartiteGraph.from_rows([[1, 1, 1, 1], [0, 1, 1, 1], [1, 0, 1, 0], [1, 1, 1, 1]]),
    WeightAssignment.from_grid([[2, 1, 2, 3], [2, 3, 3, 2], [2, 1, 1, 1], [3, 3, 2, 1]]),
)


def exact_trial(g, seed):
    """Reference for mvv_trial: the exact adjugate of the power matrix
    2^w from one cofactors call (exact_power_det_valuation), and the
    same verification steps and failure reasons.  It draws its weights through mvv.random_weights,
    as mvv_trial does, so a test can fix them for both."""
    n, m = g.n, g.num_edges
    if m == 0:
        w = WeightAssignment.from_grid([[0] * n for _ in range(n)])
        return MvvTrial(seed, w, None, None, "zero-determinant")
    w = mvv.random_weights(g, 2 * m, seed)
    found = exact_power_det_valuation(g, w)
    if found is None:
        return MvvTrial(seed, w, None, None, "zero-determinant")
    p, pairs = found
    if len(pairs) != n:
        return MvvTrial(seed, w, p, None, "wrong-size")
    if len({i for i, _ in pairs}) != n or len({j for _, j in pairs}) != n:
        return MvvTrial(seed, w, p, None, "not-injective")
    candidate = Matching.from_pairs(pairs)
    if not is_perfect_matching(g, candidate):
        return MvvTrial(seed, w, p, None, "not-perfect-matching")
    if matching_weight(candidate, w) != p:
        return MvvTrial(seed, w, p, None, "weight-mismatch")
    return MvvTrial(seed, w, p, candidate)


def planted_graph(rng, n, violator=False):
    """Density-1/2 graph on a random planted perfect matching or, with
    ``violator``, with 3 left vertices confined to 2 right ones."""
    rows = [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    for i, j in enumerate(perm):
        rows[i][j] = True
    if violator:
        cols = rng.sample(range(n), 2)
        for i in rng.sample(range(n), 3):
            rows[i] = [j in cols for j in range(n)]
    return BipartiteGraph.from_rows(rows)


def random_graph(rng, n):
    return BipartiteGraph.from_rows(
        [[rng.random() < 0.6 for _ in range(n)] for _ in range(n)]
    )


def random_assignment(rng, n, k):
    return WeightAssignment.from_grid(
        [[rng.randint(1, k) for _ in range(n)] for _ in range(n)]
    )


def per_minor_weight_bounded(g, w, b):
    """Reference for extract_pm_weight_bounded: the per-minor loop it
    replaced, one Berkowitz determinant per candidate minor."""
    cur = b
    cols = list(range(b.n))
    sigma = [0] * b.n
    prod = 1
    for i in range(b.n - 1, 0, -1):
        best_j = best_tz = None
        for j in range(i + 1):
            entry = cur.rows[i][j]
            d = det_berkowitz(minor(cur, i, j)) if entry else 0
            if d == 0:
                continue
            tz = trailing_zeros(prod * entry * d)
            if best_tz is None or tz < best_tz:
                best_j, best_tz = j, tz
        sigma[i] = cols[best_j]
        prod *= cur.rows[i][best_j]
        cur = minor(cur, i, best_j)
        del cols[best_j]
    sigma[0] = cols[0]
    return Matching.from_pairs(enumerate(sigma))


def per_minor_trial(g, seed):
    """Reference for mvv_trial: one Berkowitz determinant per edge's
    minor, and the same verification steps and failure reasons."""
    n, m = g.n, g.num_edges
    if m == 0:
        w = WeightAssignment.from_grid([[0] * n for _ in range(n)])
        return MvvTrial(seed, w, None, None, "zero-determinant")
    w = random_weights(g, 2 * m, seed)
    b = build_power_matrix(g, w)
    det = det_berkowitz(b)
    if det == 0:
        return MvvTrial(seed, w, None, None, "zero-determinant")
    p = trailing_zeros(det)
    pairs = [
        (i, j)
        for i, j in g.edge_list()
        if n == 1 or trailing_zeros(det_berkowitz(minor(b, i, j))) == p - w.value(i, j)
    ]
    if len(pairs) != n:
        return MvvTrial(seed, w, p, None, "wrong-size")
    if len({i for i, _ in pairs}) != n or len({j for _, j in pairs}) != n:
        return MvvTrial(seed, w, p, None, "not-injective")
    candidate = Matching.from_pairs(pairs)
    if not is_perfect_matching(g, candidate):
        return MvvTrial(seed, w, p, None, "not-perfect-matching")
    if matching_weight(candidate, w) != p:
        return MvvTrial(seed, w, p, None, "weight-mismatch")
    return MvvTrial(seed, w, p, candidate)


class TestPowerMatrix:
    def test_zero_weights_give_edge_indicator(self):
        g = BipartiteGraph.from_rows([[1, 0], [1, 1]])
        b = build_power_matrix(g, WeightAssignment.from_grid([[0, 0], [0, 0]]))
        assert b.rows == ((1, 0), (1, 1))

    def test_single_edge_weight_3(self):
        g = BipartiteGraph.from_rows([[1]])
        b = build_power_matrix(g, WeightAssignment.from_grid([[3]]))
        assert b.rows == ((8,),)

    def test_k22_grid(self):
        b = build_power_matrix(K22, WeightAssignment.from_grid([[1, 2], [3, 4]]))
        assert b.rows == ((2, 4), (8, 16))

    def test_equals_from_rows(self):
        g = BipartiteGraph.from_rows([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
        grid = [[3, 7, 0], [1, 4, 9], [5, 2, 6]]
        b = build_power_matrix(g, WeightAssignment.from_grid(grid))
        expected = IntMatrix.from_rows(
            [[1 << x if e else 0 for x, e in zip(row, edges)] for row, edges in zip(grid, g.edges)]
        )
        assert b == expected and hash(b) == hash(expected)

    def test_huge_weight_rejected_at_once(self):
        # 2^(2^40) alone would take 128 GiB.
        w = WeightAssignment.from_grid([[1, 2], [3, 1 << 40]])
        with pytest.raises(ValueError, match="cap"):
            build_power_matrix(K22, w)

    def test_weights_near_ten_thousand_build(self):
        grid = [[9_998, 10_000], [10_001, 9_999]]
        b = build_power_matrix(K22, WeightAssignment.from_grid(grid))
        assert b.rows == tuple(tuple(1 << x for x in row) for row in grid)

    def test_cap_counts_edge_bits_only(self, monkeypatch):
        # Entry 2^w holds w + 1 bits: the K_2,2 grid below holds 100.
        monkeypatch.setattr(mvv, "POWER_MATRIX_MAX_BITS", 100)
        grid = [[20, 30], [25, 21]]
        assert build_power_matrix(K22, WeightAssignment.from_grid(grid)).rows[0][0] == 1 << 20
        grid[1][1] += 1
        with pytest.raises(ValueError, match="101 bits"):
            build_power_matrix(K22, WeightAssignment.from_grid(grid))
        # A weight off the edges is never raised to a power.
        g = BipartiteGraph.from_rows([[1, 0], [0, 1]])
        w = WeightAssignment.from_grid([[20, 1 << 40], [30, 21]])
        assert build_power_matrix(g, w).rows == ((1 << 20, 0), (0, 1 << 21))


class TestWeightBoundedExtraction:
    def test_diagonal_graph(self):
        g = BipartiteGraph.from_rows([[1, 0], [0, 1]])
        w = WeightAssignment.from_grid([[5, 0], [0, 2]])
        p = trailing_zeros(det_berkowitz(build_power_matrix(g, w)))
        m = extract_pm_weight_bounded(g, w)
        assert m.pairs == ((0, 0), (1, 1))
        assert matching_weight(m, w) == p == 7

    def test_hand_2x2(self):
        w = WeightAssignment.from_grid([[0, 1], [1, 0]])
        b = build_power_matrix(K22, w)
        assert det_berkowitz(b) == -3
        m = extract_pm_weight_bounded(K22, w)
        assert m.pairs == ((0, 0), (1, 1))
        assert matching_weight(m, w) == 0

    def test_zero_det_rejected(self):
        w = WeightAssignment.from_grid([[1, 1], [1, 1]])
        with pytest.raises(ZeroDeterminantError):
            extract_pm_weight_bounded(K22, w)

    def test_wrong_size_weights_rejected(self):
        w = WeightAssignment.from_grid([[1, 2, 3]] * 3)
        with pytest.raises(ValueError, match="weights are 3x3, graph is 2x2"):
            extract_pm_weight_bounded(K22, w)

    def test_bound_holds_on_random_instances(self):
        rng = random.Random(41)
        done = 0
        while done < 300:
            n = rng.randint(2, 5)
            g = random_graph(rng, n)
            w = random_assignment(rng, n, 6)
            det = det_berkowitz(build_power_matrix(g, w))
            if det == 0:
                continue
            done += 1
            p = trailing_zeros(det)
            m = extract_pm_weight_bounded(g, w)
            assert is_perfect_matching(g, m)
            assert matching_weight(m, w) <= p


    def test_matches_per_minor_reference(self):
        # Up to n = 12, with weights from [1, 2] (many ties: the
        # minimum is rarely unique) and from [1, 2m].
        rng = random.Random(59)
        done = 0
        while done < 50:
            n = rng.randint(1, 12)
            g = BipartiteGraph.from_rows(
                [[i == j or rng.random() < 0.5 for j in range(n)] for i in range(n)]
            )
            k = 2 if done % 2 else 2 * g.num_edges
            w = random_assignment(rng, n, k)
            b = build_power_matrix(g, w)
            if det_berkowitz(b) == 0:
                continue
            done += 1
            assert extract_pm_weight_bounded(g, w) == per_minor_weight_bounded(g, w, b)


class TestMinWeight:
    """A unique minimum-weight perfect matching's weight is the
    power matrix determinant's trailing zero count."""

    def test_hand_2x2(self):
        w = WeightAssignment.from_grid([[0, 1], [1, 1]])
        b = build_power_matrix(K22, w)
        assert det_berkowitz(b) == -2
        assert trailing_zeros(det_bareiss(b)) == 1

    def test_unique_instances_match_oracle(self):
        for values in product(range(1, 4), repeat=4):
            w = WeightAssignment.from_edge_values(K22, values)
            truth = brute_min_weight_pms(K22, w)
            if not truth.unique:
                continue
            b = build_power_matrix(K22, w)
            assert trailing_zeros(det_bareiss(b)) == truth.weight


class TestEdgeMembership:
    def test_diagonal_graph_all_edges(self):
        g = BipartiteGraph.from_rows([[1, 0], [0, 1]])
        w = WeightAssignment.from_grid([[2, 0], [0, 3]])
        assert edge_in_unique_min_pm(g, w, 0, 0)
        assert edge_in_unique_min_pm(g, w, 1, 1)

    def test_hand_2x2(self):
        w = WeightAssignment.from_grid([[0, 1], [1, 1]])
        assert edge_in_unique_min_pm(K22, w, 0, 0)
        assert not edge_in_unique_min_pm(K22, w, 0, 1)

    def test_non_edge_rejected(self):
        g = BipartiteGraph.from_rows([[1, 0], [0, 1]])
        w = WeightAssignment.from_grid([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            edge_in_unique_min_pm(g, w, 0, 1)

    def test_wrong_size_weights_rejected(self):
        w = WeightAssignment.from_grid([[1, 2, 3]] * 3)
        with pytest.raises(ValueError, match="weights are 3x3, graph is 2x2"):
            edge_in_unique_min_pm(K22, w, 0, 1)

    def test_zero_det_rejected(self):
        w = WeightAssignment.from_grid([[1, 1], [1, 1]])
        with pytest.raises(ZeroDeterminantError):
            edge_in_unique_min_pm(K22, w, 0, 1)

    def test_agrees_with_oracle_when_isolating(self):
        rng = random.Random(43)
        checked = 0
        while checked < 60:
            n = rng.randint(2, 4)
            g = random_graph(rng, n)
            w = random_assignment(rng, n, 5)
            truth = brute_min_weight_pms(g, w)
            if truth.weight is None or not truth.unique:
                continue
            checked += 1
            pm = truth.matchings[0]
            for i, j in g.edge_list():
                assert edge_in_unique_min_pm(g, w, i, j) == ((i, j) in pm.pairs)


class TestExactPowerDetValuation:
    def test_equals_kernel_on_verify_instances(self):
        # Every instance the mvv suite's unique-minimum check visits,
        # PM-free graphs included: the exact reading and the kernel that
        # find runs return the same (p, tight), or both None.
        fixed = random = pm_free = 0
        for label, _, g, w, truth in verify._unique_min_instances():
            grid = [[x if e else None for e, x in zip(er, wr)] for er, wr in zip(g.edges, w.grid)]
            found = exact_power_det_valuation(g, w)
            assert found == power_det_valuation(grid)
            if truth.weight is None:
                assert found is None
                pm_free += 1
            if label == "random":
                random += 1
            else:
                fixed += 1
        assert (fixed, random) == (7623, 300)
        assert pm_free > 0

    def test_hand_2x2(self):
        # det(2^w) = 2^1 - 2^2 = -2: p = 1, and the tight edges are the
        # minimum matching's.
        w = WeightAssignment.from_grid([[0, 1], [1, 1]])
        assert exact_power_det_valuation(K22, w) == (1, [(0, 0), (1, 1)])

    def test_zero_determinant_is_none(self):
        w = WeightAssignment.from_grid([[1, 1], [1, 1]])
        assert exact_power_det_valuation(K22, w) is None
        g = BipartiteGraph.from_rows([[0, 0], [1, 1]])
        assert exact_power_det_valuation(g, w) is None

    def test_wrong_size_weights_rejected(self):
        w = WeightAssignment.from_grid([[1, 2, 3]] * 3)
        with pytest.raises(ValueError, match="weights are 3x3, graph is 2x2"):
            exact_power_det_valuation(K22, w)

    def test_mask_reads_trailing_zeros(self, monkeypatch):
        # Each edge is read with one mask, y & (2^(s + 1) - 1) == 2^s for
        # s = p - w(i, j): it must say exactly trailing_zeros(y) == s, for
        # y = 0, for y = ±z 2^t (z odd, t <= 80) and for s in [-3, 90].
        # The cofactors of the 1 x 1 graph are patched to (±3 2^p, [[y]]),
        # with w = 3 and p = s + 3.
        rng = random.Random(347)
        odd = (1, 3, 5, (1 << 70) + 1, rng.getrandbits(90) | 1)
        ys = [0] + [sign * z << t for z in odd for t in range(81) for sign in (1, -1)]
        g = BipartiteGraph.complete(1)
        w = WeightAssignment.from_grid([[3]])
        given = {}
        monkeypatch.setattr(mvv, "cofactors", lambda m: (given["det"], [[given["y"]]]))
        for s in range(-3, 91):
            for sign in (1, -1):
                given["det"] = sign * 3 << s + 3
                for y in ys:
                    given["y"] = y
                    tight = [(0, 0)] if trailing_zeros(y) == s else []
                    assert exact_power_det_valuation(g, w) == (s + 3, tight), (s, y)


class TestFinder:
    def test_pm_free_always_fails(self):
        g = BipartiteGraph.from_rows([[0, 0], [1, 1]])
        assert all(mvv_trial(g, seed).matching is None for seed in range(100))

    def test_k11_always_succeeds(self):
        g = BipartiteGraph.complete(1)
        for seed in range(20):
            m = mvv_trial(g, seed).matching
            assert m is not None and m.pairs == ((0, 0),)

    def test_no_edges_fails(self):
        assert mvv_trial(BipartiteGraph.empty(2), 1).matching is None

    def test_las_vegas_soundness(self):
        rng = random.Random(47)
        successes = 0
        for seed in range(200):
            n = rng.randint(1, 5)
            g = random_graph(rng, n)
            trial = mvv_trial(g, seed)
            if trial.success:
                successes += 1
                assert is_perfect_matching(g, trial.matching)
                assert matching_weight(trial.matching, trial.weights) == trial.min_weight
        assert successes > 0

    def test_trial_weights_reproducible(self):
        g = BipartiteGraph.complete(3)
        t1, t2 = mvv_trial(g, 123), mvv_trial(g, 123)
        assert t1.weights == t2.weights
        assert t1.matching == t2.matching

    def test_every_field_matches_per_minor_reference(self):
        rng = random.Random(61)
        reasons = set()
        cases = [(BipartiteGraph.empty(3), 0), NON_INJECTIVE]
        for _ in range(48):
            n = rng.randint(1, 12)
            cases.append((random_graph(rng, n), rng.randrange(1 << 32)))
        # Small dense graphs draw from [1, 2m] with few edges, so ties
        # (and wrong collections) are common there.
        cases += [(BipartiteGraph.complete(3), seed) for seed in range(20)]
        for g, seed in cases:
            trial = mvv_trial(g, seed)
            assert trial == per_minor_trial(g, seed)
            reasons.add(trial.reason)
        assert {None, "zero-determinant", "wrong-size", "not-injective"} <= reasons

    def test_reason_zero_determinant(self):
        g = BipartiteGraph.from_rows([[0, 0], [1, 1]])
        trial = mvv_trial(g, 5)
        assert (trial.reason, trial.min_weight, trial.matching) == ("zero-determinant", None, None)
        assert mvv_trial(BipartiteGraph.empty(2), 5).reason == "zero-determinant"

    def test_reason_wrong_size(self):
        g = BipartiteGraph.complete(3)
        failures = [mvv_trial(g, seed) for seed in range(200)]
        failures = [t for t in failures if t.reason == "wrong-size"]
        assert failures
        for t in failures:
            assert t.matching is None and t.min_weight is not None
            assert is_nonisolating(g, t.weights)

    def test_reason_not_injective(self):
        g, seed = NON_INJECTIVE
        trial = mvv_trial(g, seed)
        assert trial.reason == "not-injective" and trial.matching is None
        assert is_nonisolating(g, trial.weights)

    def test_weight_mismatch_collection_exists(self):
        # No seeded trial searched drew weights like these, so the
        # "weight-mismatch" branch is shown on the membership rule that
        # mvv_trial shares with edge_in_unique_min_pm: four minimum
        # matchings of weight 7 cancel, the trailing zero count is 8,
        # and the collected set is a perfect matching of weight 9.
        g, w = WEIGHT_MISMATCH
        p = trailing_zeros(det_bareiss(build_power_matrix(g, w)))
        collected = Matching.from_pairs(
            e for e in g.edge_list() if edge_in_unique_min_pm(g, w, *e)
        )
        truth = brute_min_weight_pms(g, w)
        assert (p, truth.weight, len(truth.matchings)) == (8, 7, 4)
        assert is_perfect_matching(g, collected)
        assert matching_weight(collected, w) == 9

    def test_pairs_in_any_order(self, monkeypatch):
        # A trial sorts the tight pairs and builds its candidate from
        # their columns, so pairs in any order give the same trial.
        g = BipartiteGraph.complete(3)
        expected = [mvv_trial(g, seed) for seed in range(30)]
        assert {t.reason for t in expected} >= {None, "wrong-size"}
        kernel = mvv.power_det_valuation

        def reversed_pairs(e):
            found = kernel(e)
            return found and (found[0], found[1][::-1])

        monkeypatch.setattr(mvv, "power_det_valuation", reversed_pairs)
        assert [mvv_trial(g, seed) for seed in range(30)] == expected
        # Lefts not 0..n-1, or a column outside [0, n): no perfect matching.
        for pairs in ([(0, 0), (1, 1), (5, 2)], [(0, 0), (1, 1), (2, 7)]):
            monkeypatch.setattr(mvv, "power_det_valuation", lambda e: (4, pairs))
            assert mvv_trial(g, 0).reason == "not-perfect-matching"

    def test_success_has_no_reason(self):
        trial = mvv_trial(BipartiteGraph.complete(1), 3)
        assert trial.success and trial.reason is None

    def test_collection_equals_min_pm_when_isolating(self):
        # Whenever the drawn weights isolate, the assembled edge set is
        # exactly the unique minimum-weight perfect matching.
        g = BipartiteGraph.complete(3)
        for seed in range(40):
            trial = mvv_trial(g, seed)
            if trial.min_weight is None or is_nonisolating(g, trial.weights):
                continue
            truth = brute_min_weight_pms(g, trial.weights)
            assert trial.success
            assert trial.matching == truth.matchings[0]

    def test_every_field_matches_exact_reference(self, monkeypatch):
        rng = random.Random(67)
        reasons = []
        cases = [(BipartiteGraph.empty(3), 0), NON_INJECTIVE]
        for _ in range(400):
            n = rng.randint(1, 12)
            g = random_graph(rng, n) if rng.random() < 0.5 else planted_graph(rng, n)
            cases.append((g, rng.randrange(1 << 32)))
        cases += [(BipartiteGraph.complete(3), seed) for seed in range(30)]
        for g, seed in cases:
            trial = mvv_trial(g, seed)
            assert trial == exact_trial(g, seed)
            reasons.append(trial.reason)
        # No seed is known to draw a weight mismatch, so fix the weights.
        g, w = WEIGHT_MISMATCH
        monkeypatch.setattr(mvv, "random_weights", lambda g, k, seed: w)
        trial = mvv_trial(g, 0)
        assert trial == exact_trial(g, 0)
        assert (trial.reason, trial.min_weight) == ("weight-mismatch", 8)
        assert {None, "zero-determinant", "wrong-size", "not-injective"} <= set(reasons)
        assert reasons.count("zero-determinant") > 20

    def test_no_exact_elimination_per_trial(self, monkeypatch):
        # A trial reads p and the membership set off the valuation
        # kernel, never an exact elimination; the graph's perfect
        # matching test runs once per graph, however many trials.
        def forbidden(*args):
            raise AssertionError("exact elimination in mvv_trial")

        matchings = []
        kuhn = classical._kuhn

        def counting_matching(masks):
            matchings.append(masks)
            return kuhn(masks)

        monkeypatch.setattr(linalg, "_eliminate", forbidden)
        monkeypatch.setattr(mvv, "cofactors", forbidden)
        monkeypatch.setattr(classical, "_kuhn", counting_matching)
        rng = random.Random(83)
        reasons = set()
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8))
            for seed in range(3):
                reasons.add(mvv_trial(g, seed).reason)
            assert matchings == ([g.row_masks] if g.num_edges else [])
            matchings.clear()
        assert {None, "zero-determinant"} <= reasons


class TestProductionSize:
    """mvv_trial at the sizes find runs, against the isolation oracle:
    whenever the drawn weights isolate (one Hungarian solve and a cycle
    search, milliseconds), the trial must succeed with the minimum
    matching that mwpm finds."""

    @pytest.mark.parametrize("n", [24, 32])
    def test_isolating_trials_find_the_mwpm(self, n):
        rng = random.Random(f"production:{n}")
        isolating = 0
        for t in range(3):
            g = planted_graph(rng, n)
            for seed in range(2):
                trial = mvv_trial(g, rng.randrange(1 << 32))
                if trial.success:
                    assert is_perfect_matching(g, trial.matching)
                    assert matching_weight(trial.matching, trial.weights) == trial.min_weight
                if is_nonisolating(g, trial.weights):
                    continue
                isolating += 1
                best = mwpm(g, trial.weights)
                assert trial.success
                assert trial.matching == best
                assert trial.min_weight == matching_weight(best, trial.weights)
        assert isolating >= 3

    @pytest.mark.parametrize("n", [24, 32])
    def test_hall_violator_is_always_zero(self, n):
        rng = random.Random(f"violator:{n}")
        g = planted_graph(rng, n, violator=True)
        assert hall_violator(g)
        for seed in range(5):
            trial = mvv_trial(g, seed)
            assert (trial.reason, trial.min_weight, trial.matching) == (
                "zero-determinant", None, None)
