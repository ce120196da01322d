import random
from itertools import product

import pytest

from wmatch import classical
from wmatch import edmonds, linalg
from wmatch.edmonds import (
    ZeroDeterminantError,
    extract_diagonal,
    extract_diagonal_mod,
    extract_pm,
    extract_pm_trace,
    least_column,
    lovasz_sample,
)
from wmatch.graphs import BipartiteGraph, is_perfect_matching, random_weights
from wmatch.graphs import nonzero_masks
from wmatch.linalg import P, IntMatrix, cofactors, det_bareiss, det_berkowitz, inverse_mod, minor
from wmatch.rng import derive_seed


def per_minor_steps(b):
    """Reference for extract_pm_trace: the per-minor loop it replaced,
    one Berkowitz determinant for every candidate minor (O(n^6))."""
    cur = b
    cols = list(range(b.n))
    steps = []
    for i in range(b.n - 1, 0, -1):
        chosen = next(
            j for j in range(i + 1) if cur.rows[i][j] != 0 and det_berkowitz(minor(cur, i, j)) != 0
        )
        steps.append((i, chosen, cols[chosen]))
        cur = minor(cur, i, chosen)
        del cols[chosen]
    steps.append((0, 0, cols[0]))
    return tuple(steps)


def sigma_of(steps):
    """The permutation that per_minor_steps' steps pick: row i takes the
    original column each step labels.  The steps run bottom-up and
    delete each chosen column, so sigma fixes every step in turn."""
    sigma = [None] * len(steps)
    for i, _, label in steps:
        sigma[i] = label
    return tuple(sigma)


def exact_trial(g, b):
    """The exact path alone, the reference for extract_pm_trace: the
    trace from cofactors(b), or None when det(b) = 0."""
    try:
        det, trace = extract_diagonal(b, least_column)
    except ZeroDeterminantError:
        assert det_bareiss(b) == 0
        return None
    assert det == det_bareiss(b)
    assert is_perfect_matching(g, trace.matching)
    return trace


def trial(g, b):
    """extract_pm_trace as one decide trial: None on a zero determinant."""
    try:
        return extract_pm_trace(g, b)
    except ZeroDeterminantError:
        return None


class TestExtract:
    def test_1x1(self):
        g = BipartiteGraph.complete(1)
        assert extract_pm(g, IntMatrix.from_rows([[3]])).pairs == ((0, 0),)

    def test_identity_matrices(self):
        for n in range(1, 6):
            g = BipartiteGraph.complete(n)
            m = extract_pm(g, IntMatrix.identity(n))
            assert m.pairs == tuple((i, i) for i in range(n))

    def test_zero_determinant_rejected(self):
        g = BipartiteGraph.complete(2)
        with pytest.raises(ZeroDeterminantError):
            extract_pm(g, IntMatrix.from_rows([[1, 1], [1, 1]]))

    def test_random_sign_matrices_nonzero_diagonal(self):
        rng = random.Random(5)
        done = 0
        while done < 500:
            n = rng.randint(1, 5)
            b = IntMatrix.from_rows(
                [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
            )
            if det_berkowitz(b) == 0:
                continue
            done += 1
            g = BipartiteGraph.complete(n)
            m = extract_pm(g, b)
            assert is_perfect_matching(g, m)
            assert all(b.rows[i][j] != 0 for i, j in m.pairs)

    def test_deterministic_least_index(self):
        b = IntMatrix.from_rows([[1, 1], [1, 2]])
        g = BipartiteGraph.complete(2)
        # bottom row: column 0 gives entry 1 * minor det 1 != 0, so it wins.
        assert extract_pm(g, b).pairs == ((0, 1), (1, 0))
        assert extract_pm(g, b) == extract_pm(g, b)

    def test_trace_records_permutation(self):
        b = IntMatrix.from_rows([[0, 2], [3, 0]])
        trace = extract_pm_trace(BipartiteGraph.complete(2), b)
        assert trace.sigma == (1, 0)
        assert trace.matching.pairs == ((0, 1), (1, 0))

    def test_steps_match_per_minor_reference(self):
        # Lovasz samples and 0/±1 evaluations up to n = 12; the sparse
        # ones force choices past column 0.
        rng = random.Random(53)
        done = 0
        while done < 50:
            n = rng.randint(1, 12)
            density = rng.choice((0.3, 0.5, 0.8))
            g = BipartiteGraph.from_rows(
                [[i == j or rng.random() < density for j in range(n)] for i in range(n)]
            )
            if done % 2:
                b = lovasz_sample(g, done)
            else:
                b = IntMatrix.from_rows(
                    [[rng.choice((-1, 1)) if g.has_edge(i, j) else 0 for j in range(n)]
                     for i in range(n)]
                )
            if det_berkowitz(b) == 0:
                continue
            done += 1
            assert extract_pm_trace(g, b).sigma == sigma_of(per_minor_steps(b))
            assert exact_trial(g, b) == extract_pm_trace(g, b)

    def test_trace_stores_only_sigma(self):
        g = BipartiteGraph.from_rows([[1, 0, 0], [1, 0, 1], [1, 1, 1]])
        trace = extract_pm_trace(g, IntMatrix.from_rows(g.edges))
        assert vars(trace) == {"sigma": (0, 2, 1)}

    def test_foreign_matrix_rejected(self):
        g = BipartiteGraph.from_rows([[1, 0], [0, 1]])  # diagonal edges only
        b = IntMatrix.from_rows([[0, 1], [1, 0]])  # anti-diagonal support
        with pytest.raises(ValueError):
            extract_pm(g, b)
        # The exact fallback's diagonal is checked too: det [[P + 1, 1],
        # [1, 1]] = P, and its sigma (1, 0) is no matching of g.
        b = IntMatrix.from_rows([[P + 1, 1], [1, 1]])
        assert extract_diagonal_mod(b) is None
        with pytest.raises(ValueError, match="not a matching"):
            extract_pm_trace(g, b)


def lovasz_yes(g, seed):
    """One trial of Lovász's test as decide runs it: the extraction from
    one sample, whose zero determinant is the answer no."""
    try:
        extract_pm_trace(g, edmonds.lovasz_sample(g, seed))
    except ZeroDeterminantError:
        return False
    return True


class TestLovasz:
    def test_pm_free_always_no(self):
        g = BipartiteGraph.from_rows([[0, 0], [1, 1]])
        assert not any(lovasz_yes(g, seed) for seed in range(50))
        assert all(det_bareiss(lovasz_sample(g, seed)) == 0 for seed in range(50))

    def test_k11_always_yes(self):
        g = BipartiteGraph.complete(1)
        assert all(lovasz_yes(g, seed) for seed in range(20))

    def test_k33_rate_at_least_half(self):
        g = BipartiteGraph.complete(3)
        hits = sum(1 for seed in range(1000) if lovasz_yes(g, seed))
        assert hits >= 500

    def test_sample_values_in_range(self):
        g = BipartiteGraph.from_rows([[1, 1], [0, 1]])
        b = lovasz_sample(g, 7)
        for i in range(2):
            for j in range(2):
                if g.has_edge(i, j):
                    assert 1 <= b.rows[i][j] <= 4
                else:
                    assert b.rows[i][j] == 0

    def test_sample_deterministic(self):
        g = BipartiteGraph.complete(3)
        assert lovasz_sample(g, 9).rows == lovasz_sample(g, 9).rows
        g = BipartiteGraph.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert lovasz_sample(g, 9).rows == random_weights(g, 6, 9).grid

    def test_sample_equals_from_rows(self):
        g = BipartiteGraph.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        b = lovasz_sample(g, 9)
        expected = IntMatrix.from_rows(random_weights(g, 6, 9).grid)
        assert b == expected and hash(b) == hash(expected)

    def test_yes_answers_certified(self):
        rng = random.Random(77)
        for case in range(100):
            n = rng.randint(1, 5)
            g = BipartiteGraph.from_rows(
                [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
            )
            b = lovasz_sample(g, case)
            if det_berkowitz(b) != 0:
                assert is_perfect_matching(g, extract_pm(g, b))


def planted_graph(rng, n, density):
    perm = list(range(n))
    rng.shuffle(perm)
    return BipartiteGraph.from_rows(
        [[j == perm[i] or rng.random() < density for j in range(n)] for i in range(n)]
    )


@pytest.fixture
def no_elimination(monkeypatch):
    """Make every exact forward pass fail the test."""

    def refuse(m):
        raise AssertionError("exact elimination ran")

    monkeypatch.setattr(linalg, "_eliminate", refuse)


class TestExtractModP:
    """The mod-P extraction and its fallbacks against the exact path."""

    def test_trial_and_sigma_equal_exact_path(self):
        # decide's trial loop, mod P against exact, on planted-matching
        # graphs at three densities for n = 1..32 and once at n = 48.
        rng = random.Random(59)
        cases = [(n, d) for n in range(1, 33) for d in (0.15, 0.5, 0.9)] + [(48, 0.5)]
        for case, (n, density) in enumerate(cases):
            g = planted_graph(rng, n, density)
            for t in range(20):
                b = lovasz_sample(g, derive_seed(case, t))
                exact = exact_trial(g, b)
                fast = extract_diagonal_mod(b)
                assert fast is None or fast == exact
                assert trial(g, b) == exact
                if exact is not None:
                    break
            assert exact is not None

    @pytest.mark.parametrize("n, density", [(64, 0.5), (64, 0.15), (100, 0.5)])
    def test_trial_and_sigma_at_large_n(self, n, density):
        # decide's trial at the largest sizes the tests reach, where a
        # packed field too narrow for n carries into its neighbour: the
        # first sample of each graph is a YES, and the mod-P path must
        # find it with the exact trace.
        g = planted_graph(random.Random(f"large:{n}:{density}"), n, density)
        b = lovasz_sample(g, derive_seed(n, 0))
        exact = exact_trial(g, b)
        assert exact is not None
        assert extract_diagonal_mod(b) == exact
        assert trial(g, b) == exact

    @pytest.mark.parametrize("n", [20, 48])
    def test_yes_sample_runs_no_exact_pass(self, n, no_elimination):
        # decide's trial at its usual sizes: a YES sample with a nonzero
        # determinant residue is extracted mod P alone.
        g = planted_graph(random.Random(f"yes:{n}"), n, 0.5)
        b = lovasz_sample(g, derive_seed(n, 0))
        trace = extract_pm_trace(g, b)
        assert is_perfect_matching(g, trace.matching)
        assert trace == extract_diagonal_mod(b)

    def test_det_multiple_of_p_falls_back(self):
        # det = P: the residue is 0, the determinant is not.
        g = BipartiteGraph.complete(2)
        b = IntMatrix.from_rows([[P + 1, 1], [1, 1]])
        assert det_bareiss(b) == P
        assert inverse_mod(b) is None and extract_diagonal_mod(b) is None
        assert trial(g, b) == exact_trial(g, b)
        assert trial(g, b).sigma == (1, 0)

    def test_singular_sample_is_no(self):
        g = BipartiteGraph.complete(2)
        assert trial(g, IntMatrix.from_rows([[1, 2], [2, 4]])) is None

    def test_nonstructural_zero_cofactor_falls_back(self, monkeypatch):
        # Complete 3x3, det = 1: the cofactor of (2, 0) is det [[1, 2],
        # [2, 4]] = 0 by cancellation, so the guard finds a perfect
        # matching in its pattern and the exact path decides.
        g = BipartiteGraph.complete(3)
        b = IntMatrix.from_rows([[1, 1, 2], [3, 2, 4], [1, 1, 1]])
        assert det_bareiss(b) == 1 and cofactors(b)[1][0][2] == 0
        assert extract_diagonal_mod(b) is None
        passes = []
        eliminate = linalg._eliminate
        monkeypatch.setattr(linalg, "_eliminate", lambda m: passes.append(m) or eliminate(m))
        trace = trial(g, b)
        assert len(passes) == 1
        assert trace == exact_trial(g, b)
        assert trace.sigma == (2, 0, 1)

    def test_cofactor_multiple_of_p_falls_back(self):
        # The cofactor of (1, 0) is -P: zero mod P, nonzero exactly, so
        # column 0 is the exact pick and no residue may skip it.
        g = BipartiteGraph.complete(2)
        b = IntMatrix.from_rows([[1, P], [1, 1]])
        assert cofactors(b)[1][0][1] == -P
        assert extract_diagonal_mod(b) is None
        assert trial(g, b).sigma == (1, 0) == exact_trial(g, b).sigma

    def test_structural_zero_proved_without_elimination(self, no_elimination):
        # The cofactor of (2, 0) is the determinant of rows 0..1 on
        # columns 1..2, [[0, 0], [0, 1]]: no perfect matching in its
        # pattern, so it is proved zero and column 1 is picked mod P.
        g = BipartiteGraph.from_rows([[1, 0, 0], [1, 0, 1], [1, 1, 1]])
        b = IntMatrix.from_rows([[1, 0, 0], [1, 0, 1], [1, 1, 1]])
        trace = trial(g, b)
        assert per_minor_steps(b) == ((2, 1, 1), (1, 1, 2), (0, 0, 0))
        assert trace.sigma == (0, 2, 1)
        assert trace.sigma == sigma_of(per_minor_steps(b))

    def test_lovasz_zero_test(self, monkeypatch):
        # A nonzero residue answers with no exact pass; only a zero
        # residue runs the exact elimination, which sees det = P.
        g = BipartiteGraph.complete(2)
        samples = {0: [[2, 1], [1, 1]], 1: [[P + 1, 1], [1, 1]], 2: [[1, 1], [1, 1]]}
        monkeypatch.setattr(edmonds, "lovasz_sample",
                            lambda g, seed: IntMatrix.from_rows(samples[seed]))
        passes = []
        eliminate = linalg._eliminate
        monkeypatch.setattr(linalg, "_eliminate", lambda m: passes.append(m) or eliminate(m))
        assert lovasz_yes(g, 0) and passes == []
        assert lovasz_yes(g, 1) and len(passes) == 1
        assert not lovasz_yes(g, 2) and len(passes) == 2


def reference_proofs(b):
    """extract_diagonal_mod with each zero residue's minor pattern built
    as a graph, rows 0..i - 1 of b without the tried column, and decided
    by its own has_perfect_matching: the trace, or None, and every
    proof's verdict in order."""
    inv = inverse_mod(b)
    if inv is None:
        return None, []
    rows = b.rows
    verdicts = []

    def choose(i, cols):
        nonlocal inv
        for c, j in enumerate(cols):
            if not rows[i][j]:
                continue
            if linalg.inverse_residue(inv, c, i):
                inv = linalg.minor_inverse_mod(inv, c)
                return c
            pattern = [[r[k] != 0 for k in cols if k != j] for r in rows[:i]]
            verdicts.append(BipartiteGraph.from_rows(pattern).has_perfect_matching())
            if verdicts[-1]:
                return None
        raise AssertionError("nonzero determinant residue but no nonzero cofactor term")

    return edmonds._walk(b.n, choose), verdicts


class TestProofsOnRowMasks:
    """The zero-residue proofs of extract_diagonal_mod, made by Kuhn's
    pass on row masks, against the same proofs made on a graph built
    for each minor's pattern: the same verdict for every proof, and the
    same trace."""

    @staticmethod
    def verdicts_of(monkeypatch, b):
        verdicts = []
        matches = edmonds.matches_every_row

        def recorded(masks):
            verdicts.append(matches(masks))
            return verdicts[-1]

        monkeypatch.setattr(edmonds, "matches_every_row", recorded)
        trace = extract_diagonal_mod(b)
        monkeypatch.setattr(edmonds, "matches_every_row", matches)
        return trace, verdicts

    def test_search_samples(self, monkeypatch):
        # decide's samples as the search workload draws them: n = 20,
        # density 1/2 with a planted perfect matching, twenty samples
        # per graph; and as many on sparser graphs, where more cofactors
        # are structural zeros.
        rng = random.Random(20)
        proofs = 0
        for density in (0.5, 0.5, 0.3, 0.15):
            for case in range(10):
                g = planted_graph(rng, 20, density)
                for t in range(20):
                    b = lovasz_sample(g, derive_seed(case, t))
                    trace, verdicts = self.verdicts_of(monkeypatch, b)
                    assert (trace, verdicts) == reference_proofs(b)
                    proofs += len(verdicts)
        assert proofs >= 500

    def test_nonstructural_zero(self, monkeypatch):
        # A cofactor that is 0 by cancellation on a pattern with a
        # perfect matching: the one proof says so, and the chain stops.
        b = IntMatrix.from_rows([[1, 1, 2], [3, 2, 4], [1, 1, 1]])
        assert self.verdicts_of(monkeypatch, b) == reference_proofs(b) == (None, [True])


def first_tier(b):
    """extract_pattern_mod as extract_pm_trace calls it: b's own row
    masks and their Kuhn pass."""
    masks = nonzero_masks(b.rows)
    return edmonds.extract_pattern_mod(b, masks, classical._kuhn(masks))


def leading_minors_exact(b, sigma):
    """Every leading principal minor of b with its columns in sigma's
    order, exactly."""
    return [
        det_bareiss(IntMatrix.from_rows([[row[c] for c in sigma[:k]] for row in b.rows[:k]]))
        for k in range(1, b.n + 1)
    ]


class TestPatternTier:
    """The first tier of extract_pm_trace, the least-column rule on the
    nonzero pattern certified by the leading minors mod P, against the
    exact extraction: it answers with the exact trace or not at all,
    and it answers exactly when the pattern's choice is the exact one
    and its minors are nonzero mod P."""

    @staticmethod
    def check(b):
        """first_tier(b) against the exact path; whether it answered."""
        exact = exact_trial(BipartiteGraph.from_rows(b.rows), b)
        trace = first_tier(b)
        if exact is None:
            assert trace is None
            return False
        masks = nonzero_masks(b.rows)
        sigma = edmonds.pattern_sigma(masks, classical._kuhn(masks))
        certified = all(x % P for x in leading_minors_exact(b, exact.sigma))
        assert (trace is not None) is (sigma == exact.sigma and certified)
        assert trace is None or trace == exact
        return trace is not None

    def test_every_3x3_sign_matrix(self):
        answered = 0
        for values in product((-1, 0, 1), repeat=9):
            b = IntMatrix.from_rows([values[0:3], values[3:6], values[6:9]])
            answered += self.check(b)
        # det != 0 on 11,808 of the 19,683; cancellation takes the rest.
        assert answered == 11040

    def test_seeded_small_matrices_with_cancellation(self):
        rng = random.Random(61)
        value_sets = ((-1, 0, 1), (0, 1, 2), (-2, -1, 0, 1, 2), (0, 1), (0, 0, 1, 1, 2, 3),
                      (0, 1, P, P + 1))
        answered = 0
        for _ in range(3000):
            n = rng.randint(1, 7)
            values = rng.choice(value_sets)
            b = IntMatrix.from_rows([[rng.choice(values) for _ in range(n)] for _ in range(n)])
            answered += self.check(b)
        assert answered > 1000

    def test_equals_mod_tier_on_lovasz_samples(self):
        # decide's samples on planted-matching graphs at three densities
        # for n = 1..48: the same trace as extract_diagonal_mod wherever
        # both answer, and an answer on nearly every sample.
        rng = random.Random(67)
        answered = samples = 0
        for n in range(1, 49):
            for density in (0.15, 0.5, 0.9):
                g = planted_graph(rng, n, density)
                for t in range(3):
                    b = lovasz_sample(g, derive_seed(n, t))
                    mod = extract_diagonal_mod(b)
                    trace = first_tier(b)
                    assert trace is None or mod is None or trace == mod
                    assert trace is None or is_perfect_matching(g, trace.matching)
                    answered += trace is not None
                    samples += 1
        assert answered >= samples - 20

    def test_pattern_without_perfect_matching(self):
        b = IntMatrix.from_rows([[1, 0], [2, 0]])
        assert first_tier(b) is None
        with pytest.raises(ZeroDeterminantError):
            extract_pm_trace(BipartiteGraph.from_rows(b.rows), b)


class TestPatternTierFallback:
    """What the first tier answers, the later tiers never see; what it
    rejects goes on to extract_diagonal_mod and then the exact path."""

    @pytest.mark.parametrize("n", [20, 48])
    def test_yes_sample_needs_no_inverse_and_no_elimination(self, n, monkeypatch):
        g = planted_graph(random.Random(f"certified:{n}"), n, 0.5)
        b = lovasz_sample(g, derive_seed(n, 0))
        expected = extract_diagonal_mod(b)
        assert expected is not None

        def refuse(*args):
            raise AssertionError("the inverse or the exact elimination ran")

        for module, name in ((linalg, "inverse_mod"), (edmonds, "inverse_mod"),
                             (linalg, "_eliminate")):
            monkeypatch.setattr(module, name, refuse)
        assert extract_pm_trace(g, b) == expected

    @staticmethod
    def reaching_mod_tier(monkeypatch, g, b):
        """extract_pm_trace(g, b) with extract_diagonal_mod counted."""
        calls = []
        mod = edmonds.extract_diagonal_mod
        monkeypatch.setattr(edmonds, "extract_diagonal_mod",
                            lambda m: calls.append(m) or mod(m))
        return extract_pm_trace(g, b), calls

    def test_leading_minor_zero_by_cancellation(self, monkeypatch):
        # The pattern is complete, so row 2 takes column 0 and row 1
        # column 1; in that order the order-2 leading minor is
        # det [[2, 1], [4, 2]] = 0, as is row 2's exact cofactor there.
        g = BipartiteGraph.complete(3)
        b = IntMatrix.from_rows([[1, 1, 2], [3, 2, 4], [1, 1, 1]])
        assert edmonds.pattern_sigma(g.row_masks, g.matching_columns) == (2, 1, 0)
        assert leading_minors_exact(b, (2, 1, 0)) == [2, 0, -1]
        assert first_tier(b) is None
        trace, calls = self.reaching_mod_tier(monkeypatch, g, b)
        assert calls == [b]
        assert trace == exact_trial(g, b)
        assert trace.sigma == (2, 0, 1)

    def test_leading_minor_a_multiple_of_p(self, monkeypatch):
        # Row 1 takes column 0, so the order-1 leading minor is the
        # entry P: zero mod P, nonzero exactly, and the pattern's choice
        # is the exact one.
        g = BipartiteGraph.complete(2)
        b = IntMatrix.from_rows([[1, P], [1, 1]])
        assert leading_minors_exact(b, (1, 0)) == [P, P - 1]
        assert first_tier(b) is None
        trace, calls = self.reaching_mod_tier(monkeypatch, g, b)
        assert calls == [b]
        assert trace == exact_trial(g, b)
        assert trace.sigma == (1, 0)

    def test_graph_masks_reused_only_for_the_same_pattern(self, monkeypatch):
        # A sample with every edge nonzero reuses the graph's Kuhn pass;
        # an evaluation with a zero on an edge runs its own.
        g = BipartiteGraph.complete(3)
        g.matching_columns
        passes = []
        kuhn = classical._kuhn
        monkeypatch.setattr(edmonds, "_kuhn", lambda masks: passes.append(masks) or kuhn(masks))
        extract_pm_trace(g, IntMatrix.from_rows([[2, 1, 1], [1, 2, 1], [1, 1, 2]]))
        assert passes == []
        b = IntMatrix.from_rows([[2, 0, 1], [1, 2, 1], [1, 1, 2]])
        assert extract_pm_trace(g, b) == exact_trial(g, b)
        assert passes == [(0b101, 0b111, 0b111)]
