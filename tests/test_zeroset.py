from itertools import product

import pytest

from wmatch import zeroset
from wmatch.classical import maximum_matching
from wmatch.graphs import BipartiteGraph
from wmatch.edmonds import ZeroDeterminantError, extract_diagonal_mod
from wmatch.linalg import P, IntMatrix, det_bareiss, det_berkowitz, det_lagrange
from wmatch.oracle import BudgetExceededError
from wmatch.verify import _fixed_witness_graphs
from wmatch.zeroset import (
    vanishing_step,
    zero_set,
    zero_witness_complete,
    zero_witness_graph,
    zero_witness_graph_map,
)


def brute_zero_set(g, s):
    """Independent enumeration using the permutation-expansion
    determinant instead of the production one."""
    edges = g.edge_list()
    out = []
    for values in product(range(s), repeat=len(edges)):
        rows = [[0] * g.n for _ in range(g.n)]
        for (i, j), v in zip(edges, values):
            rows[i][j] = v
        if det_lagrange(IntMatrix.from_rows(rows)) == 0:
            out.append(tuple(tuple(r) for r in rows))
    return out


def complete_domain(n, s):
    return [
        (i, rest) for i in range(n) for rest in product(range(s), repeat=n * n - 1)
    ]


def graphs_with_pm(n):
    """Every n x n bipartite graph with a perfect matching, paired with
    that matching's sigma (row r matched to column sigma[r])."""
    out = []
    for bits in product((0, 1), repeat=n * n):
        g = BipartiteGraph.from_rows([bits[r * n:(r + 1) * n] for r in range(n)])
        m = maximum_matching(g)
        if m.size == n:
            out.append((g, tuple(m.get(r) for r in range(n))))
    return out


def sorted_column_witness(g, s, i, rest, sigma):
    """Reference witness that takes each chain submatrix's columns in
    sorted order, so the unknown sits at (i, cols.index(sigma[i])) with
    cofactor sign (-1)^(i + loc).  It solves the same linear equation
    as the production witness, so the two agree at every point, dummy
    outputs included."""
    n = g.n
    if not 0 <= i < n:
        raise ValueError(f"step index {i} out of range [0, {n})")
    if len(rest) != n * n - 1:
        raise ValueError(f"expected {n * n - 1} values, got {len(rest)}")
    values = iter(rest)
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            if (r, c) == (i, sigma[i]):
                row.append(0)
            else:
                v = int(next(values))
                if not 0 <= v < s:
                    raise ValueError(f"value {v} out of range [0, {s})")
                row.append(v if g.edges[r][c] else 0)
        rows.append(row)

    def det_sub(row_count, cols):
        return det_bareiss(IntMatrix(tuple(tuple(rows[r][c] for c in cols) for r in range(row_count))))

    dummy = tuple((0,) * n for _ in range(n))
    candidate = 0
    if i > 0:
        cols = sorted(sigma[: i + 1])
        d_prev = det_sub(i, sorted(sigma[:i]))
        if d_prev == 0:
            return dummy
        sign = -1 if (i + cols.index(sigma[i])) % 2 else 1
        d_rest = det_sub(i + 1, cols)
        if d_rest % (sign * d_prev) != 0:
            return dummy
        candidate = -d_rest // (sign * d_prev)
        if not 0 <= candidate < s:
            return dummy
    rows[i][sigma[i]] = candidate
    out = tuple(tuple(row) for row in rows)
    return dummy if det_bareiss(IntMatrix(out)) != 0 else out


class TestZeroSet:
    def test_single_edge(self):
        g = BipartiteGraph.from_rows([[1]])
        assert list(zero_set(g, 2)) == [((0,),)]

    def test_counts_against_independent_oracle(self):
        for n, s in ((2, 2), (2, 3), (2, 4)):
            g = BipartiteGraph.complete(n)
            assert list(zero_set(g, s)) == brute_zero_set(g, s)

    def test_known_cardinalities(self):
        g = BipartiteGraph.complete(2)
        assert len(list(zero_set(g, 2))) == 10
        assert len(list(zero_set(g, 4))) == 64

    def test_lexicographic_order(self):
        g = BipartiteGraph.complete(2)
        elems = list(zero_set(g, 2))
        flat = [tuple(x for row in e for x in row) for e in elems]
        assert flat == sorted(flat)

    def test_budget_guard(self):
        g = BipartiteGraph.complete(3)
        with pytest.raises(BudgetExceededError):
            list(zero_set(g, 3, budget=100))

    def test_non_edges_fixed_to_zero(self):
        g = BipartiteGraph.from_rows([[1, 0], [1, 1]])
        for e in zero_set(g, 3):
            assert e[0][1] == 0


class TestWitnessComplete:
    def test_n1_forced_zero(self):
        assert zero_witness_complete(1, 2, 0, ()) == ((0,),)

    def test_surjective_small(self):
        for n, s in ((2, 2), (2, 3)):
            target = set(zero_set(BipartiteGraph.complete(n), s))
            hits = {
                zero_witness_complete(n, s, i, rest)
                for i, rest in complete_domain(n, s)
            }
            assert target <= hits

    def test_range_closure_including_dummy(self):
        for i, rest in complete_domain(2, 3):
            out = zero_witness_complete(2, 3, i, rest)
            assert det_berkowitz(IntMatrix(out)) == 0

    def test_dummy_fallback_on_unsolvable(self):
        # rest gives B(0,0) = 0, so the step-0 determinant already
        # vanishes and the step-1 equation is unsolvable: dummy.
        out = zero_witness_complete(2, 2, 1, (0, 1, 1))
        assert out == ((0, 0), (0, 0))

    def test_reconstruction_fidelity(self):
        # Dropping the entry at the first vanishing step and handing the
        # rest to the witness reproduces every zero-set element.
        for n, s in ((2, 2), (2, 3), (3, 2)):
            for elem in zero_set(BipartiteGraph.complete(n), s):
                i = vanishing_step(elem)
                rest = tuple(
                    elem[r][c]
                    for r in range(n)
                    for c in range(n)
                    if (r, c) != (i, i)
                )
                assert zero_witness_complete(n, s, i, rest) == elem

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            zero_witness_complete(2, 2, 2, (0, 0, 0))
        with pytest.raises(ValueError):
            zero_witness_complete(2, 2, 0, (0, 0))  # wrong length
        with pytest.raises(ValueError):
            zero_witness_complete(2, 2, 0, (0, 2, 0))  # value out of range

    def test_non_integer_values_rejected(self):
        # A value is an int or a bool; a float or a str is refused, not
        # truncated or parsed into the grid of (1, 2, 0).
        assert zero_witness_complete(2, 3, 1, (True, 2, 0)) == zero_witness_complete(2, 3, 1, (1, 2, 0))
        for bad in (1.5, 1.0, "1"):
            with pytest.raises(TypeError):
                zero_witness_complete(2, 3, 1, (bad, 2, 0))
        # An int out of range keeps its ValueError and message.
        with pytest.raises(ValueError, match=r"^value 3 out of range \[0, 3\)$"):
            zero_witness_complete(2, 3, 1, (3, 2, 0))


class TestWitnessGraph:
    def test_coincides_with_complete_on_identity_certificate(self):
        g = BipartiteGraph.complete(2)
        cert = IntMatrix.identity(2)
        for i, rest in complete_domain(2, 3):
            assert zero_witness_graph(g, 3, cert, i, rest) == zero_witness_complete(
                2, 3, i, rest
            )

    def test_diagonal_graph_exhaustive(self):
        g = BipartiteGraph.from_rows([[1, 0], [0, 1]])
        cert = IntMatrix.identity(2)
        target = set(zero_set(g, 2))
        assert len(target) == 3  # r00 * r11 = 0 over {0,1}^2
        hits = {
            zero_witness_graph(g, 2, cert, i, rest)
            for i, rest in complete_domain(2, 2)
        }
        assert target <= hits
        for out in hits:
            assert det_berkowitz(IntMatrix(out)) == 0
            assert out[0][1] == 0 and out[1][0] == 0

    def test_missing_edge_graph_exhaustive(self):
        g = BipartiteGraph.from_rows([[1, 0], [1, 1]])
        cert = IntMatrix.identity(2)
        target = set(zero_set(g, 3))
        hits = {
            zero_witness_graph(g, 3, cert, i, rest)
            for i, rest in complete_domain(2, 3)
        }
        assert target <= hits

    def test_non_permutation_certificate_also_works(self):
        g = BipartiteGraph.from_rows([[1, 0], [1, 1]])
        cert = IntMatrix.from_rows([[2, 7], [1, 3]])  # evaluates to det 6
        target = set(zero_set(g, 3))
        hits = {
            zero_witness_graph(g, 3, cert, i, rest)
            for i, rest in complete_domain(2, 3)
        }
        assert target <= hits

    def test_certificate_with_det_p_fixes_the_exact_sigma(self):
        # det [[P + 1, 1], [1, 1]] = P is 0 mod P, so sigma comes from
        # the exact fallback: (1, 0), as for the anti-diagonal
        # permutation matrix, where the identity's sigma is (0, 1).
        g = BipartiteGraph.complete(2)
        cert = IntMatrix.from_rows([[P + 1, 1], [1, 1]])
        assert det_bareiss(cert) == P and extract_diagonal_mod(cert) is None
        witness = zero_witness_graph_map(g, 2, cert)
        anti = zero_witness_graph_map(g, 2, IntMatrix.from_rows([[0, 1], [1, 0]]))
        domain = complete_domain(2, 2)
        outs = [witness(i, rest) for i, rest in domain]
        assert outs == [anti(i, rest) for i, rest in domain]
        assert outs != [zero_witness_complete(2, 2, i, rest) for i, rest in domain]

    def test_zero_certificate_rejected(self):
        g = BipartiteGraph.complete(2)
        with pytest.raises(ZeroDeterminantError):
            zero_witness_graph(g, 2, IntMatrix.from_rows([[0, 0], [0, 0]]), 0, (0, 0, 0))

    def test_pm_free_certificate_rejected(self):
        g = BipartiteGraph.from_rows([[0, 0], [1, 1]])
        with pytest.raises(ZeroDeterminantError):
            zero_witness_graph(g, 2, IntMatrix.identity(2), 0, (0, 0, 0))

    def test_map_checks_certificate_once_and_points_always(self):
        g = BipartiteGraph.from_rows([[1, 0], [1, 1]])
        with pytest.raises(ZeroDeterminantError):
            zero_witness_graph_map(g, 3, IntMatrix.from_rows([[0, 0], [0, 0]]))
        with pytest.raises(ValueError):
            zero_witness_graph_map(g, 0, IntMatrix.identity(2))
        cert = IntMatrix.from_rows([[2, 7], [1, 3]])
        witness = zero_witness_graph_map(g, 3, cert)
        for bad_point in ((2, (0, 0, 0)), (0, (0, 0)), (0, (0, 3, 0))):
            with pytest.raises(ValueError):
                witness(*bad_point)
        # One map serves the whole domain, in any order.
        domain = list(complete_domain(2, 3))
        outs = [witness(i, rest) for i, rest in reversed(domain)][::-1]
        assert outs == [zero_witness_graph(g, 3, cert, i, rest) for i, rest in domain]
        assert set(zero_set(g, 3)) <= set(outs)


class TestWitnessGraphCache:
    """The map caches each completion by (i, laid-out grid); every point
    is still checked and laid out on its own."""

    G = BipartiteGraph.from_rows([[1, 1, 0], [1, 1, 1], [0, 1, 1]])

    def witness(self):
        return zero_witness_graph_map(self.G, 3, maximum_matching(self.G).permutation_matrix(3))

    def test_point_errors_pinned(self):
        witness = zero_witness_graph_map(
            BipartiteGraph.from_rows([[1, 0], [1, 1]]), 3, IntMatrix.identity(2)
        )
        cases = [
            ((2, (0, 0, 0)), r"^step index 2 out of range \[0, 2\)$"),
            ((-1, (0, 0, 0)), r"^step index -1 out of range \[0, 2\)$"),
            ((0, (0, 0)), r"^expected 3 values, got 2$"),
            # Values are checked in order, non-edge (0, 1) included, and a
            # value is converted only after every one before it passed.
            ((0, (0, 3, 0)), r"^value 3 out of range \[0, 3\)$"),
            ((1, (0, -1, 5)), r"^value -1 out of range \[0, 3\)$"),
            ((0, (1, 7, "x")), r"^value 7 out of range \[0, 3\)$"),
        ]
        for point, message in cases:
            with pytest.raises(ValueError, match=message):
                witness(*point)
        # A value that is not an int is refused when its turn comes, not
        # parsed or truncated; a bool is an int.
        for point in ((0, (1, "x", 7)), (0, ("0", 1, 2)), (0, (0, 1.0, 2))):
            with pytest.raises(TypeError):
                witness(*point)
        assert witness(0, (False, True, 2)) == witness(0, (0, 1, 2))

    def test_cached_grid_still_checks_non_edges(self):
        # (0, 2) and (2, 0) are non-edges: their values never reach the
        # grid, so these points share a laid-out grid with a valid one.
        witness = self.witness()
        assert witness(1, (0, 0, 1, 0, 0, 0, 1, 1)) == witness(1, (0, 0, 2, 0, 0, 2, 1, 1))
        with pytest.raises(ValueError, match=r"^value 3 out of range \[0, 3\)$"):
            witness(1, (0, 0, 3, 0, 0, 0, 1, 1))
        with pytest.raises(ValueError, match=r"^value 5 out of range \[0, 3\)$"):
            witness(1, (0, 0, 0, 0, 0, 5, 1, 1))

    def test_determinants_per_distinct_grid(self, monkeypatch):
        calls = 0
        real = zeroset.det_bareiss

        def counting(m):
            nonlocal calls
            calls += 1
            return real(m)

        witness = self.witness()
        monkeypatch.setattr(zeroset, "det_bareiss", counting)
        n, s = 3, 3
        sigma = dict(graphs_with_pm(3))[self.G]
        distinct = set()
        domain = complete_domain(n, s)
        for i, rest in domain:
            witness(i, rest)
            cells = list(rest)
            cells.insert(i * n + sigma[i], 0)
            distinct.add((i, tuple(v if self.G.edges[k // n][k % n] else 0
                                   for k, v in enumerate(cells))))
        # Two of the eight values always sit on non-edges, so 3^2 points
        # share each grid.
        assert (len(domain), len(distinct)) == (19683, 2187)
        assert 0 < calls <= 3 * len(distinct)


class TestVanishingStep:
    def test_requires_singular(self):
        with pytest.raises(ValueError):
            vanishing_step(((1, 0), (0, 1)))

    def test_zero_matrix(self):
        assert vanishing_step(((0, 0), (0, 0))) == 0

    def test_regular_prefix(self):
        # leading 1x1 is regular, full matrix singular: step 1.
        assert vanishing_step(((2, 3), (2, 3))) == 1

    def test_follows_sigma(self):
        # Under sigma = (1, 0) the step-0 block is the entry at (0, 1),
        # which is regular here, while under the identity it is the 0
        # at (0, 0).
        assert vanishing_step(((0, 2), (0, 3)), (1, 0)) == 1
        assert vanishing_step(((0, 2), (0, 3))) == 0
        # Under sigma = (1, 2, 0) the step-1 block has columns 1, 2 and
        # is singular; under the identity it has columns 0, 1 and is
        # regular.
        grid = ((0, 1, 0), (1, 1, 0), (0, 0, 0))
        assert vanishing_step(grid, (1, 2, 0)) == 1
        assert vanishing_step(grid) == 2


class TestWitnessAnySigma:
    def test_reconstruction_fidelity_every_small_graph(self):
        # On every 2x2 and 3x3 graph with a perfect matching, most of
        # them with a sigma that is not the identity: dropping the entry
        # at (i, sigma(i)) for the vanishing step i and handing the rest
        # to the witness reproduces every zero-set element.
        two, three = graphs_with_pm(2), graphs_with_pm(3)
        assert (len(two), len(three)) == (7, 247)
        assert sum(sigma != tuple(range(g.n)) for g, sigma in two + three) == 186
        elements = 0
        for graphs, s in ((two, 2), (two, 3), (three, 2)):
            for g, sigma in graphs:
                n = g.n
                cert = maximum_matching(g).permutation_matrix(n)
                witness = zero_witness_graph_map(g, s, cert)
                for elem in zero_set(g, s):
                    i = vanishing_step(elem, sigma)
                    rest = tuple(
                        elem[r][c]
                        for r in range(n)
                        for c in range(n)
                        if (r, c) != (i, sigma[i])
                    )
                    assert witness(i, rest) == elem
                    elements += 1
        assert elements == 12677

    def test_matches_sorted_column_reference_pointwise(self):
        cases = [(g, sigma, s) for g, sigma in graphs_with_pm(2) for s in (2, 3, 4)]
        g3 = _fixed_witness_graphs()[2]
        sigma3 = dict(graphs_with_pm(3))[g3]
        cases += [(g3, sigma3, s) for s in (2, 3)]
        dummies = 0
        for g, sigma, s in cases:
            n = g.n
            witness = zero_witness_graph_map(g, s, maximum_matching(g).permutation_matrix(n))
            for i, rest in complete_domain(n, s):
                out = witness(i, rest)
                assert out == sorted_column_witness(g, s, i, rest, sigma)
                dummies += out == tuple((0,) * n for _ in range(n))
        assert dummies > 0
        for s in (2, 3, 4):
            k2 = BipartiteGraph.complete(2)
            for i, rest in complete_domain(2, s):
                assert zero_witness_complete(2, s, i, rest) == sorted_column_witness(
                    k2, s, i, rest, (0, 1)
                )
