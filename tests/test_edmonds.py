import random

import pytest

from wmatch import edmonds, linalg
from wmatch.edmonds import (
    ZeroDeterminantError,
    extract_diagonal_mod,
    extract_pm,
    extract_pm_trace,
    extract_pm_trace_from,
    lovasz_decide,
    lovasz_sample,
    lovasz_trial,
)
from wmatch.graphs import BipartiteGraph, is_perfect_matching
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
            assert extract_pm_trace(g, b).steps == per_minor_steps(b)
            assert extract_pm_trace_from(g, b, *cofactors(b)) == extract_pm_trace(g, b)

    def test_foreign_matrix_rejected(self):
        g = BipartiteGraph.from_rows([[1, 0], [0, 1]])  # diagonal edges only
        b = IntMatrix.from_rows([[0, 1], [1, 0]])  # anti-diagonal support
        with pytest.raises(ValueError):
            extract_pm(g, b)
        with pytest.raises(ValueError):
            extract_pm_trace_from(g, b, *cofactors(b))


class TestLovasz:
    def test_pm_free_always_no(self):
        # The test answers from the graph; every sample it would draw
        # is singular all the same.
        g = BipartiteGraph.from_rows([[0, 0], [1, 1]])
        assert not any(lovasz_decide(g, seed) for seed in range(50))
        assert all(det_bareiss(lovasz_sample(g, seed)) == 0 for seed in range(50))

    def test_k11_always_yes(self):
        g = BipartiteGraph.complete(1)
        assert all(lovasz_decide(g, seed) for seed in range(20))

    def test_k33_rate_at_least_half(self):
        g = BipartiteGraph.complete(3)
        hits = sum(1 for seed in range(1000) if lovasz_decide(g, seed))
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


def exact_trial(g, b):
    """The exact path alone: today's oracle for lovasz_trial."""
    det, adj = cofactors(b)
    return extract_pm_trace_from(g, b, det, adj) if det else None


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
                assert lovasz_trial(g, b) == exact
                if exact is not None:
                    break
            assert exact is not None

    def test_det_multiple_of_p_falls_back(self):
        # det = P: the residue is 0, the determinant is not.
        g = BipartiteGraph.complete(2)
        b = IntMatrix.from_rows([[P + 1, 1], [1, 1]])
        assert det_bareiss(b) == P
        assert inverse_mod(b) is None and extract_diagonal_mod(b) is None
        assert lovasz_trial(g, b) == exact_trial(g, b)
        assert lovasz_trial(g, b).sigma == (1, 0)

    def test_singular_sample_is_no(self):
        g = BipartiteGraph.complete(2)
        assert lovasz_trial(g, IntMatrix.from_rows([[1, 2], [2, 4]])) is None

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
        trace = lovasz_trial(g, b)
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
        assert lovasz_trial(g, b).sigma == (1, 0) == exact_trial(g, b).sigma

    def test_structural_zero_proved_without_elimination(self, no_elimination):
        # The cofactor of (2, 0) is the determinant of rows 0..1 on
        # columns 1..2, [[0, 0], [0, 1]]: no perfect matching in its
        # pattern, so it is proved zero and column 1 is picked mod P.
        g = BipartiteGraph.from_rows([[1, 0, 0], [1, 0, 1], [1, 1, 1]])
        b = IntMatrix.from_rows([[1, 0, 0], [1, 0, 1], [1, 1, 1]])
        trace = lovasz_trial(g, b)
        assert trace.steps == ((2, 1, 1), (1, 1, 2), (0, 0, 0))
        assert trace.sigma == (0, 2, 1)
        assert trace.steps == per_minor_steps(b)

    def test_lovasz_decide_zero_test(self, monkeypatch):
        # A nonzero residue answers with no exact pass; only a zero
        # residue runs det_bareiss, which sees det = P.
        g = BipartiteGraph.complete(2)
        samples = {0: [[2, 1], [1, 1]], 1: [[P + 1, 1], [1, 1]], 2: [[1, 1], [1, 1]]}
        monkeypatch.setattr(edmonds, "lovasz_sample",
                            lambda g, seed: IntMatrix.from_rows(samples[seed]))
        passes = []
        eliminate = linalg._eliminate
        monkeypatch.setattr(linalg, "_eliminate", lambda m: passes.append(m) or eliminate(m))
        assert lovasz_decide(g, 0) and passes == []
        assert lovasz_decide(g, 1) and len(passes) == 1
        assert not lovasz_decide(g, 2) and len(passes) == 2
