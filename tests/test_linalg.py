import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import permutations
from operator import mul

import pytest

from wmatch import cli, edmonds, linalg
from wmatch.graphs import BipartiteGraph, format_graph
from wmatch.linalg import (
    P,
    IntMatrix,
    cofactors,
    det_bareiss,
    det_berkowitz,
    det_cofactor,
    det_lagrange,
    inverse_mod,
    inverse_residue,
    leading_minors_mod,
    minor,
    minor_cofactors,
    minor_inverse_mod,
    power_det_valuation,
    trailing_zeros,
)


def all_01_matrices(n):
    for bits in range(1 << (n * n)):
        yield IntMatrix.from_rows(
            [[(bits >> (n * i + j)) & 1 for j in range(n)] for i in range(n)]
        )


def random_matrix(rng, n, lo=-9, hi=9):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


class TestIntMatrix:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IntMatrix(())

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    @pytest.mark.parametrize("entry", [2.5, 2.0, "3", Fraction(3), Decimal(3)])
    def test_non_integer_entries_rejected(self, entry):
        # int() would truncate 2.5 to 2 and parse "3": the oracles would
        # then compute another matrix's determinant.
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[entry, 1], [0, 1]])

    @pytest.mark.parametrize("entry", [0.5, 2.0, "3", Fraction(3), Decimal(3)])
    def test_constructor_rejects_non_integers(self, entry):
        # Unchecked, det_bareiss of ((0.5, 1), (1, 1)) would be -1.0.
        with pytest.raises(TypeError):
            IntMatrix(((entry, 1), (1, 1)))
        assert IntMatrix(((True, 1), (False, 1))).rows == ((1, 1), (0, 1))

    def test_ints_and_bools_accepted(self):
        m = IntMatrix.from_rows([[True, 2], (False, -3)])
        assert m.rows == ((1, 2), (0, -3))
        assert all(type(x) is int for row in m.rows for x in row)

    def test_from_checked_equals_from_rows(self):
        rows = ((1, 2), (0, -3))
        m = IntMatrix._from_checked(rows)
        assert m == IntMatrix.from_rows(rows) and hash(m) == hash(IntMatrix.from_rows(rows))
        assert m.rows is rows and m.n == 2


class TestMinor:
    def test_identity_2x2(self):
        assert minor(IntMatrix.identity(2), 0, 0).rows == ((1,),)

    def test_middle_deletion(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert minor(m, 1, 1).rows == ((1, 3), (7, 9))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            minor(IntMatrix.identity(3), 3, 0)

    def test_1x1_has_no_minor(self):
        with pytest.raises(ValueError):
            minor(IntMatrix.from_rows([[5]]), 0, 0)

    def test_input_unmodified(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        minor(m, 0, 0)
        assert m.rows == ((1, 2), (3, 4))


class TestDeterminants:
    def test_identity(self):
        assert det_berkowitz(IntMatrix.identity(3)) == 1
        assert det_bareiss(IntMatrix.identity(3)) == 1
        assert det_cofactor(IntMatrix.identity(4)) == 1

    def test_1x1(self):
        assert det_cofactor(IntMatrix.from_rows([[7]])) == 7
        assert det_berkowitz(IntMatrix.from_rows([[7]])) == 7
        assert det_bareiss(IntMatrix.from_rows([[7]])) == 7
        assert det_bareiss(IntMatrix.from_rows([[0]])) == 0

    def test_swap_matrix(self):
        m = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert det_cofactor(m) == -1
        assert det_berkowitz(m) == -1
        assert det_bareiss(m) == -1

    def test_2x2_products(self):
        assert det_berkowitz(IntMatrix.from_rows([[2, 3], [4, 5]])) == -2
        assert det_lagrange(IntMatrix.from_rows([[1, 2], [3, 4]])) == -2

    def test_zero_matrix(self):
        assert det_lagrange(IntMatrix.from_rows([[0, 0], [0, 0]])) == 0

    def test_three_way_agreement_exhaustive_3x3(self):
        for m in all_01_matrices(3):
            assert det_bareiss(m) == det_berkowitz(m) == det_cofactor(m) == det_lagrange(m)

    def test_three_way_agreement_random(self):
        rng = random.Random(7)
        for n in (4, 5, 6):
            for _ in range(60):
                m = random_matrix(rng, n)
                assert det_bareiss(m) == det_berkowitz(m) == det_cofactor(m) == det_lagrange(m)

    def test_big_entries_stay_exact(self):
        big = 10**30
        m = IntMatrix.from_rows([[big, 1], [1, big]])
        assert det_berkowitz(m) == det_bareiss(m) == big * big - 1

    def test_cofactor_guard(self):
        with pytest.raises(ValueError):
            det_cofactor(IntMatrix.identity(13))

    def test_lagrange_guard(self):
        with pytest.raises(ValueError):
            det_lagrange(IntMatrix.identity(10))

    def test_permutation_matrices_unit_determinant(self):
        for n in range(1, 6):
            for perm in permutations(range(n)):
                p = IntMatrix.from_rows(
                    [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
                )
                assert det_bareiss(p) == det_berkowitz(p) in (-1, 1)

    def test_cofactor_expansion_identity_any_row(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 5)
            m = random_matrix(rng, n)
            d = det_berkowitz(m)
            for i in range(n):
                expansion = sum(
                    (-1 if (i + j) % 2 else 1) * m.rows[i][j] * det_berkowitz(minor(m, i, j))
                    for j in range(n)
                )
                assert expansion == d


def det_by_minors(m):
    """The minor-by-minor last-row expansion det_cofactor replaced: one
    new IntMatrix per minor, nothing cached."""
    n = m.n
    if n == 1:
        return m.rows[0][0]
    i = n - 1
    total = 0
    for j in range(n):
        entry = m.rows[i][j]
        if entry == 0:
            continue
        term = entry * det_by_minors(minor(m, i, j))
        total += -term if (i + j) % 2 else term
    return total


def det_by_inversions(m):
    """The permutation sum det_lagrange replaced: lexicographic order,
    each sign recounted from the inversions."""
    n = m.n
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= m.rows[i][perm[i]]
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total += -prod if inversions % 2 else prod
    return total


def first_primes(count):
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def assert_all_agree(m):
    d = det_bareiss(m)
    assert det_cofactor(m) == det_by_minors(m) == d
    assert det_lagrange(m) == det_by_inversions(m) == d


class TestExpansionOracles:
    """The memoized expansion and the Heap-order sum against the
    implementations they replaced and the production determinant."""

    def test_exhaustive_01_3x3(self):
        for m in all_01_matrices(3):
            assert_all_agree(m)

    def test_random_entries_n1_to_7(self):
        rng = random.Random(53)
        for n in range(1, 8):
            for _ in range(40 if n < 7 else 8):
                assert_all_agree(random_matrix(rng, n))

    def test_distinct_primes_n1_to_8(self):
        # Every entry is a different prime, so the n! products are n!
        # different numbers: a permutation missed, repeated or given the
        # wrong sign changes the sum.
        primes = first_primes(64)
        for n in range(1, 9):
            m = IntMatrix.from_rows([[primes[n * i + j] for j in range(n)] for i in range(n)])
            assert det_bareiss(m) != 0
            assert_all_agree(m)
            assert_all_agree(IntMatrix.from_rows([row[::-1] for row in m.rows]))

    def test_zero_row_zero_column_repeated_row(self):
        rng = random.Random(59)
        for n in range(2, 7):
            rows = [list(row) for row in random_matrix(rng, n, 1, 9).rows]
            for r in (0, n - 1):
                zero_row = [row[:] for row in rows]
                zero_row[r] = [0] * n
                zero_col = [row[:r] + [0] + row[r + 1:] for row in rows]
                repeated = [row[:] for row in rows]
                repeated[n - 1 - r] = repeated[r][:]
                for bad in (zero_row, zero_col, repeated):
                    m = IntMatrix.from_rows(bad)
                    assert det_bareiss(m) == 0
                    assert_all_agree(m)

    def test_largest_allowed_sizes(self):
        # One past these sizes raises (test_cofactor_guard, test_lagrange_guard).
        rng = random.Random(61)
        m = random_matrix(rng, 12)
        assert det_cofactor(m) == det_bareiss(m) != 0
        m = random_matrix(rng, 9)
        assert det_lagrange(m) == det_bareiss(m) != 0
        assert 9 not in linalg._lagrange_tables

    def test_lagrange_n1_n2(self):
        # n = 1 has no table: a one-index itemgetter returns a scalar.
        rng = random.Random(67)
        for n in (1, 2):
            for _ in range(30):
                m = random_matrix(rng, n)
                assert det_lagrange(m) == det_by_inversions(m)

    def test_lagrange_tables_kept_up_to_six(self, monkeypatch):
        # Tables for n <= 6 are built once and kept (under 50 KB in all);
        # larger ones are dropped after their call.
        monkeypatch.setattr(linalg, "_lagrange_tables", {})
        rng = random.Random(71)
        tracemalloc.start()
        try:
            for n in range(2, 7):
                m = random_matrix(rng, n)
                assert det_lagrange(m) == det_by_inversions(m)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 50_000
        assert sorted(linalg._lagrange_tables) == [2, 3, 4, 5, 6]
        before = dict(linalg._lagrange_tables)
        for n in (7, 8):
            m = random_matrix(rng, n)
            assert det_lagrange(m) == det_bareiss(m)
        assert linalg._lagrange_tables == before


def power_matrix(rng, n):
    """The shape `find` gives the kernel: a density-1/2 graph with a
    planted diagonal, each edge (i, j) holding 2^w with w uniform in
    [1, 2m]."""
    edges = [[i == j or rng.random() < 0.5 for j in range(n)] for i in range(n)]
    m = sum(map(sum, edges))
    return IntMatrix.from_rows(
        [[1 << rng.randint(1, 2 * m) if edges[i][j] else 0 for j in range(n)] for i in range(n)]
    )


def lovasz_matrix(rng, n):
    """The shape `decide` gives extraction: entries in [1, 2n] on a
    density-1/2 graph with a planted diagonal."""
    return IntMatrix.from_rows(
        [
            [rng.randint(1, 2 * n) if i == j or rng.random() < 0.5 else 0 for j in range(n)]
            for i in range(n)
        ]
    )


class TestBareissAgainstBerkowitz:
    """The production determinant against the division-free oracle at
    the sizes and entry sizes production uses."""

    def test_power_matrices_n7_to_20(self):
        rng = random.Random(41)
        for n in range(7, 21):
            m = power_matrix(rng, n)
            assert det_bareiss(m) == det_berkowitz(m)

    def test_power_matrix_n32(self):
        m = power_matrix(random.Random(32), 32)
        assert max(abs(x).bit_length() for row in m.rows for x in row) > 1000
        assert det_bareiss(m) == det_berkowitz(m) != 0

    def test_lovasz_samples_n20_to_32(self):
        rng = random.Random(43)
        for n in range(20, 33):
            m = lovasz_matrix(rng, n)
            assert det_bareiss(m) == det_berkowitz(m)

    def test_row_swap_sign(self):
        # Column 0 has its first nonzero entry in row 2: one swap.
        m = IntMatrix.from_rows([[0, 1, 2], [0, 3, 5], [4, 1, 1]])
        assert det_bareiss(m) == det_lagrange(m) == -4
        rng = random.Random(47)
        for n in range(2, 13):
            rows = [list(row) for row in power_matrix(rng, n).rows]
            rows[0][0] = 0
            m = IntMatrix.from_rows(rows)
            assert det_bareiss(m) == det_berkowitz(m)

    def test_singular_inputs(self):
        rng = random.Random(53)
        for n in range(2, 17):
            rows = [list(row) for row in power_matrix(rng, n).rows]
            zero_col = [[0 if c == n // 2 else x for c, x in enumerate(row)] for row in rows]
            assert det_bareiss(IntMatrix.from_rows(zero_col)) == 0
            # Hall violator: rows 0 and 1 see only column 0.
            hall = [list(row) for row in rows]
            for r in (0, 1):
                hall[r] = [hall[r][0] or 1] + [0] * (n - 1)
            assert det_bareiss(IntMatrix.from_rows(hall)) == det_berkowitz(
                IntMatrix.from_rows(hall)) == 0
            # Rank n - 1 with every entry nonzero.
            left = [[rng.randint(1, 1 << 40) for _ in range(n - 1)] for _ in range(n)]
            right = [[rng.randint(1, 1 << 40) for _ in range(n)] for _ in range(n - 1)]
            prod = [
                [sum(left[r][t] * right[t][c] for t in range(n - 1)) for c in range(n)]
                for r in range(n)
            ]
            assert det_bareiss(IntMatrix.from_rows(prod)) == 0

    def test_singular_only_at_last_pivot(self):
        # The leading (n-1) x (n-1) block is nonsingular, so every
        # column but the last finds a pivot; the last row is a
        # combination of the others, so the final pivot is 0.
        rng = random.Random(59)
        done = 0
        while done < 10:
            n = rng.randint(2, 14)
            rows = [list(row) for row in power_matrix(rng, n).rows]
            lead = IntMatrix.from_rows([row[:-1] for row in rows[:-1]])
            if det_berkowitz(lead) == 0:
                continue
            done += 1
            rows[-1] = [3 * x - 2 * y for x, y in zip(rows[0], rows[-2])]
            assert det_bareiss(IntMatrix.from_rows(rows)) == 0

    def test_input_unmodified(self):
        m = IntMatrix.from_rows([[0, 2], [3, 4]])
        assert det_bareiss(m) == -6
        assert m.rows == ((0, 2), (3, 4))


def assert_cofactors_match_minors(m):
    det, adj = cofactors(m)
    assert det == det_berkowitz(m) != 0
    n = m.n
    if n == 1:
        assert adj == [[1]]
        return
    for i in range(n):
        for j in range(n):
            expected = det_berkowitz(minor(m, i, j))
            assert adj[j][i] == (-expected if (i + j) % 2 else expected), (i, j)


class TestCofactors:
    def test_small_hand_cases(self):
        assert cofactors(IntMatrix.from_rows([[7]])) == (7, [[1]])
        assert cofactors(IntMatrix.from_rows([[1, 2], [3, 4]])) == (-2, [[4, -2], [-3, 1]])
        # The first pivot is 0, so rows swap.
        assert cofactors(IntMatrix.from_rows([[0, 1], [1, 0]])) == (-1, [[0, -1], [-1, 0]])

    def test_random_small_matrices(self):
        rng = random.Random(17)
        done = 0
        while done < 200:
            m = random_matrix(rng, rng.randint(1, 6), -3, 3)
            if det_berkowitz(m) == 0:
                continue
            done += 1
            assert_cofactors_match_minors(m)

    @pytest.mark.parametrize("n,count", [(8, 4), (12, 2), (16, 1)])
    def test_power_matrices_at_find_size(self, n, count):
        rng = random.Random(1000 + n)
        done = 0
        while done < count:
            m = power_matrix(rng, n)
            if det_berkowitz(m) == 0:
                continue
            done += 1
            assert max(abs(x).bit_length() for row in m.rows for x in row) > 2 * n
            assert_cofactors_match_minors(m)

    def test_lovasz_sample_at_decide_size(self):
        rng = random.Random(20)
        m = lovasz_matrix(rng, 20)
        assert_cofactors_match_minors(m)

    def test_singular_inputs_report_zero(self):
        rng = random.Random(23)
        for n in range(1, 13):
            m = power_matrix(rng, n)
            rows = [list(row) for row in m.rows]
            zero_col = [[0 if c == n - 1 else x for c, x in enumerate(row)] for row in rows]
            assert cofactors(IntMatrix.from_rows(zero_col)) == (0, None)
            if n >= 2:
                rows[n - 1] = [3 * x - 2 * y for x, y in zip(rows[0], rows[n - 2])]
                assert cofactors(IntMatrix.from_rows(rows)) == (0, None)
                # Rank n - 1 with every entry nonzero: a product of an
                # n x (n-1) and an (n-1) x n matrix.
                left = [[rng.randint(1, 1 << 40) for _ in range(n - 1)] for _ in range(n)]
                right = [[rng.randint(1, 1 << 40) for _ in range(n)] for _ in range(n - 1)]
                prod = [
                    [sum(left[r][t] * right[t][c] for t in range(n - 1)) for c in range(n)]
                    for r in range(n)
                ]
                assert cofactors(IntMatrix.from_rows(prod)) == (0, None)

    def test_input_unmodified(self):
        m = IntMatrix.from_rows([[0, 2], [3, 4]])
        cofactors(m)
        assert m.rows == ((0, 2), (3, 4))


def gauss_jordan_cofactors(m):
    """Reference ``(det, adj)``, test-only: fraction-free Gauss-Jordan
    elimination on ``[A | I]`` with the production pivot rule.  At step
    k every other row becomes ``(p_k * row - row[k] * pivot_row) /
    p_(k-1)``; the left block ends as ``d * I`` and the right block as
    ``d * A^-1``.  Its elimination order shares nothing with the
    kernel's forward pass and back-substitution."""
    n = m.n
    rows = [list(row) + [1 if c == r else 0 for c in range(n)] for r, row in enumerate(m.rows)]
    sign = 1
    prev = 1
    for k in range(n):
        p = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if p is None:
            return 0, None
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for r in range(n):
            if r == k:
                continue
            row = rows[r]
            f = row[k]
            for c in range(k + 1, 2 * n):
                row[c] = (row[c] * pivot - f * pivot_row[c]) // prev
        prev = pivot
    return sign * prev, [[sign * x for x in row[n:]] for row in rows]


def staircase_matrix(rng, n, dense=3):
    """Rows D, S_0, ..., S_(n-1-dense), then dense - 1 rows that are
    zero in column 0 and nowhere else, where D is full and S_k is
    c_k * D plus a row that is zero left of column k + 2, with no zero
    entry.  Column 0 is the one sparsest line, every row has at most one
    zero, and the other columns none.  Step 0 pivots on D and leaves
    every S_k with a nonzero multiplier; from step 1 on, the row at
    (k, k) is zero and a later one is swapped in, at n - dense of the
    n - 1 steps."""
    def pick():
        return rng.choice([1, 2, 3, -1, -2, 1 << 40])

    def nonzero_sum(y):
        while True:
            x = pick() + y
            if x:
                return x

    first = [pick() for _ in range(n)]
    rows = [first]
    for k in range(n - dense):
        c = rng.choice([1, -1, 2, 5])
        rows.append(
            [nonzero_sum(c * x) if col >= k + 2 else c * x for col, x in enumerate(first)]
        )
    rows += [[0] + [pick() for _ in range(n - 1)] for _ in range(dense - 1)]
    return IntMatrix.from_rows(rows)


def singular_family(rng, n):
    """A zero column, a Hall violator, a rank n - 1 product and a matrix
    singular only at the last pivot, all n x n."""
    while True:
        rows = [list(row) for row in power_matrix(rng, n).rows]
        if det_berkowitz(IntMatrix.from_rows([row[:-1] for row in rows[:-1]])) != 0:
            break
    zero_col = [[0 if c == n // 2 else x for c, x in enumerate(row)] for row in rows]
    # Rows 0 and 1 see only column 0.
    hall = [[row[0] or 1] + [0] * (n - 1) if r < 2 else row for r, row in enumerate(rows)]
    left = [[rng.randint(1, 1 << 40) for _ in range(n - 1)] for _ in range(n)]
    right = [[rng.randint(1, 1 << 40) for _ in range(n)] for _ in range(n - 1)]
    prod = [
        [sum(left[r][t] * right[t][c] for t in range(n - 1)) for c in range(n)]
        for r in range(n)
    ]
    # The leading (n-1) x (n-1) block is nonsingular, so every column
    # but the last finds a pivot; the last row is a combination of two
    # others.
    last = rows[:-1] + [[3 * x - 2 * y for x, y in zip(rows[0], rows[-2])]]
    return [IntMatrix.from_rows(x) for x in (zero_col, hall, prod, last)]


class TestCofactorsAgainstGaussJordan:
    """The one-forward-pass kernel against the Gauss-Jordan reference at
    the sizes and entry sizes production uses."""

    @pytest.mark.parametrize("n,count", [(8, 3), (12, 2), (16, 2), (20, 1)])
    def test_power_matrices(self, n, count):
        rng = random.Random(2000 + n)
        for _ in range(count):
            m = power_matrix(rng, n)
            expected = gauss_jordan_cofactors(m)
            assert expected[0] != 0
            assert cofactors(m) == expected
            assert det_bareiss(m) == expected[0]

    def test_power_matrix_n24(self):
        m = power_matrix(random.Random(2024), 24)
        expected = gauss_jordan_cofactors(m)
        assert expected[0] != 0
        assert cofactors(m) == expected

    def test_lovasz_samples_n20_to_32(self):
        rng = random.Random(2032)
        for n in range(20, 33):
            m = lovasz_matrix(rng, n)
            expected = gauss_jordan_cofactors(m)
            assert cofactors(m) == expected
            assert det_bareiss(m) == expected[0]

    def test_swap_heavy(self):
        # The staircase itself makes n - 3 swaps; with its column 0
        # moved to column pos, or to row pos of the transpose, it is
        # one more nonsingular input with sparse lines.
        rng = random.Random(2041)
        for n in range(6, 17):
            staircase = staircase_matrix(rng, n)
            _, _, steps = linalg._eliminate(staircase)
            assert sum(1 for p, _ in steps if p) == n - 3
            assert sum(1 for _, fs in steps for f in fs if f) >= n - 1
            cols = list(zip(*staircase.rows))
            pos = rng.randrange(1, n)
            cols.insert(pos, cols.pop(0))
            for m in (staircase, IntMatrix.from_rows(zip(*cols)), IntMatrix.from_rows(cols)):
                expected = gauss_jordan_cofactors(m)
                assert expected[0] != 0
                assert cofactors(m) == expected

    def test_one_by_one(self):
        for x in (7, -3, 1 << 70):
            assert cofactors(IntMatrix.from_rows([[x]])) == gauss_jordan_cofactors(
                IntMatrix.from_rows([[x]])) == (x, [[1]])
        assert cofactors(IntMatrix.from_rows([[0]])) == (0, None)

    def test_singular_inputs(self):
        rng = random.Random(2053)
        for n in range(2, 15):
            for m in singular_family(rng, n):
                assert gauss_jordan_cofactors(m) == (0, None)
                assert cofactors(m) == (0, None)
                assert det_bareiss(m) == 0


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def plant_left(rows, kind, rng):
    """Copy of the n x n ``rows`` (nonzero diagonal) with a structure
    planted on left vertices, that is rows: ``violator`` confines 3
    rows to 2 columns, ``isolated`` zeroes a row, and ``degree-1`` keeps
    only the diagonal entry of 2 rows."""
    n = len(rows)
    rows = [list(row) for row in rows]
    if kind == "violator":
        hits = rng.sample(range(n), 2)
        for i in rng.sample(range(n), 3):
            d = rows[i][i]
            rows[i] = [x if j in hits else 0 for j, x in enumerate(rows[i])]
            j = rng.choice(hits)
            rows[i][j] = rows[i][j] or d
    elif kind == "isolated":
        rows[rng.randrange(n)] = [0] * n
    else:
        for i in rng.sample(range(n), 2):
            rows[i] = [x if j == i else 0 for j, x in enumerate(rows[i])]
    return rows


def planted(rows, side, kind, rng):
    """plant_left on rows (side "left") or, mirrored, on columns."""
    if side == "left":
        return IntMatrix.from_rows(plant_left(rows, kind, rng))
    return IntMatrix.from_rows(transpose(plant_left(transpose(rows), kind, rng)))


def tied(rows, rng):
    """A degree-1 row and a degree-1 column (diagonal entries kept):
    the sparsest row and the sparsest column tie."""
    n = len(rows)
    i, j = rng.sample(range(n), 2)
    rows = [list(row) for row in rows]
    rows[i] = [x if c == i else 0 for c, x in enumerate(rows[i])]
    for r in range(n):
        if r != j:
            rows[r][j] = 0
    return IntMatrix.from_rows(rows)


SHAPES = [("power", 12), ("power", 20), ("lovasz", 12), ("lovasz", 20), ("lovasz", 32)]


def base_rows(shape, n, rng):
    make = power_matrix if shape == "power" else lovasz_matrix
    return make(rng, n).rows


class Counted(int):
    """An int that counts the products it takes part in; -, // and *
    keep the result Counted, so the count follows an elimination."""

    products = 0

    def __mul__(self, other):
        Counted.products += 1
        return Counted(int.__mul__(self, other))

    __rmul__ = __mul__

    def __sub__(self, other):
        return Counted(int.__sub__(self, other))

    def __floordiv__(self, other):
        return Counted(int.__floordiv__(self, other))


def forward_products(m):
    """Products made by the forward pass on m, and its result."""
    counted = IntMatrix(tuple(tuple(map(Counted, row)) for row in m.rows))
    Counted.products = 0
    fwd = linalg._eliminate(counted)
    return Counted.products, fwd


class TestSparsestLineFirst:
    """Elimination on planted sparse lines, the structure of a graph
    with no perfect matching or with degree-1 vertices, on either side,
    against the Gauss-Jordan reference and Berkowitz."""

    @pytest.mark.parametrize("shape,n", SHAPES)
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_singular_plants(self, shape, n, side):
        rng = random.Random(f"singular:{shape}:{n}:{side}")
        for kind in ("violator", "isolated"):
            m = planted(base_rows(shape, n, rng), side, kind, rng)
            assert linalg._eliminate(m) is None
            assert gauss_jordan_cofactors(m) == cofactors(m) == (0, None)
            assert det_bareiss(m) == det_berkowitz(m) == 0

    @pytest.mark.parametrize("shape,n", SHAPES)
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_degree_one_lines(self, shape, n, side):
        rng = random.Random(f"degree-1:{shape}:{n}:{side}")
        for _ in range(2):
            m = planted(base_rows(shape, n, rng), side, "degree-1", rng)
            expected = gauss_jordan_cofactors(m)
            assert expected[0] != 0
            assert cofactors(m) == expected
            assert det_bareiss(m) == det_berkowitz(m) == expected[0]

    @pytest.mark.parametrize("shape,n", SHAPES)
    def test_tied_degree_one_row_and_column(self, shape, n):
        rng = random.Random(f"tie:{shape}:{n}")
        m = tied(base_rows(shape, n, rng), rng)
        expected = gauss_jordan_cofactors(m)
        assert expected[0] != 0
        assert cofactors(m) == expected
        assert det_bareiss(m) == det_berkowitz(m) == expected[0]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_power_matrix_n32_violator(self, side):
        # On a power matrix at n = 32 Berkowitz takes seconds and
        # Gauss-Jordan half a minute, so only Berkowitz runs, once.
        rng = random.Random(f"n32:{side}")
        m = planted(power_matrix(rng, 32).rows, side, "violator", rng)
        assert max(abs(x).bit_length() for row in m.rows for x in row) > 1000
        assert cofactors(m) == (0, None)
        assert det_bareiss(m) == 0
        if side == "left":
            assert det_berkowitz(m) == 0

    @pytest.mark.parametrize("n", [20, 32])
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("shape", ["power", "lovasz"])
    def test_violator_stops_after_few_pivots(self, shape, n, side, monkeypatch, tmp_path, capsys):
        # The forward pass on the planted matrix may run to the
        # violator's last line; decide on its graph makes no pivot at
        # all, since the graph's own matching verdict answers it before
        # any sample is drawn.
        rng = random.Random(f"work:{shape}:{n}:{side}")
        passes = []
        monkeypatch.setattr(linalg, "_eliminate", passes.append)
        for module in (cli, edmonds):
            monkeypatch.setattr(module, "lovasz_sample", lambda g, seed: passes.append(seed))
        path = tmp_path / "pattern.graph"
        for kind in ("violator", "isolated"):
            m = planted(base_rows(shape, n, rng), side, kind, rng)
            path.write_text(format_graph(BipartiteGraph.from_rows(m.rows)), encoding="utf-8")
            assert cli.main(["decide", str(path), "--trials", "3"]) == 1
            assert capsys.readouterr().out.splitlines()[0] == "NO"
            assert passes == []

    def test_counted_products_of_a_full_pass(self):
        rng = random.Random(7)
        m = lovasz_matrix(rng, 20)
        products, fwd = forward_products(m)
        assert fwd[0] * fwd[1][-1][0] == det_berkowitz(m) != 0
        assert products == sum(2 * k * k for k in range(1, 20))


class TestMinorCofactors:
    def test_chain_from_n12_to_1x1(self):
        rng = random.Random(29)
        for _ in range(3):
            cur = power_matrix(rng, 12)
            det, adj = cofactors(cur)
            if det == 0:
                continue
            while cur.n > 1:
                n = cur.n
                i, j = rng.choice(
                    [(i, j) for i in range(n) for j in range(n) if adj[j][i] != 0]
                )
                det, adj = minor_cofactors(det, adj, i, j)
                cur = minor(cur, i, j)
                assert (det, adj) == cofactors(cur)

    def test_chain_on_lovasz_samples(self):
        rng = random.Random(31)
        cur = lovasz_matrix(rng, 12)
        det, adj = cofactors(cur)
        assert det != 0
        while cur.n > 1:
            # Always the last row, as extraction deletes it.
            i = cur.n - 1
            j = next(j for j in range(cur.n) if adj[j][i] != 0)
            det, adj = minor_cofactors(det, adj, i, j)
            cur = minor(cur, i, j)
            assert (det, adj) == cofactors(cur)

    def test_rejects_vanishing_minor(self):
        det, adj = cofactors(IntMatrix.from_rows([[1, 1], [1, 2]]))
        assert adj == [[2, -1], [-1, 1]]
        with pytest.raises(ValueError):
            minor_cofactors(det, [[2, 0], [-1, 1]], 1, 0)
        with pytest.raises(ValueError):
            minor_cofactors(1, [[1]], 0, 0)
        with pytest.raises(IndexError):
            minor_cofactors(det, adj, 2, 0)



def inverse_mod_list(m):
    """The list kernel that the packed inverse_mod replaced, kept as its
    reference: in-place Gauss-Jordan mod P, one operation per entry,
    row swaps undone as column swaps at the end."""
    n = m.n
    a = [list(row) for row in m.rows]
    swaps = []
    for k in range(n):
        for p in range(k, n):
            piv = a[p][k] % P
            if piv:
                break
        else:
            return None
        if p != k:
            a[k], a[p] = a[p], a[k]
        swaps.append(p)
        inv = pow(piv, -1, P)
        pr = a[k]
        pr[k] = 1  # scaled to inv: column k of the inverse starts here
        pr = a[k] = [x * inv % P for x in pr]
        for r, row in enumerate(a):
            if r != k and (f := row[k] % P):
                row[k] = 0
                a[r] = [x - f * y for x, y in zip(row, pr)]
    for k in range(n - 1, -1, -1):
        p = swaps[k]
        if p != k:
            for row in a:
                row[k], row[p] = row[p], row[k]
    return [[x % P for x in row] for row in a]


def minor_inverse_mod_list(inv, i, j):
    """The list form of minor_inverse_mod, kept as its reference: the
    rank-one update to the inverse of minor(A, i, j), any i."""
    row_j = list(inv[j])
    t = pow(row_j.pop(i), -1, P)
    g = [y * t % P for y in row_j]
    out = []
    for r, row in enumerate(inv):
        if r == j:
            continue
        row = list(row)
        f = row.pop(i)
        out.append([(x - f * y) % P for x, y in zip(row, g)] if f else row)
    return out


def unpack(inv):
    """The residues of a packed inverse ``(rows, bits)``, one field per
    column; nothing may sit above the top field."""
    rows, bits = inv
    n = len(rows)
    assert all(0 <= row < 1 << n * bits for row in rows)
    return [[inverse_residue(inv, c, q) for q in range(n)] for c in range(n)]


def inverse_from_cofactors(m):
    """What inverse_mod must return, from the exact cofactors."""
    det, adj = cofactors(m)
    if det % P == 0:
        return None
    t = pow(det, -1, P)
    return [[x * t % P for x in row] for row in adj]


def packed_inverse(m):
    inv = inverse_mod(m)
    return None if inv is None else unpack(inv)


def residue_matrix(rng, n):
    """Entries uniform mod P, with a row order that makes the pivots
    arrive out of order: the widest rows the elimination can meet."""
    rows = [[rng.randrange(P) for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(rows):
        row[: n - 1 - i] = [0] * (n - 1 - i)
    return IntMatrix.from_rows(rows)


class TestInverseMod:
    def test_matches_exact_cofactors(self):
        # Small entries, negative ones, entries past P and past 2^64,
        # multiples of P, and singular 0/1 matrices.
        rng = random.Random(37)
        values = (0, 0, 1, 2, -3, 7, P - 1, P + 2, 10**40, 2**64 + 5, -(2**70), P, 3 * P, -P)
        for _ in range(200):
            n = rng.randint(1, 9)
            m = IntMatrix.from_rows(
                [[rng.choice(values) for _ in range(n)] for _ in range(n)]
            )
            assert packed_inverse(m) == inverse_mod_list(m) == inverse_from_cofactors(m)
        for m in all_01_matrices(3):
            assert packed_inverse(m) == inverse_mod_list(m) == inverse_from_cofactors(m)

    def test_lovasz_samples_up_to_n32(self):
        rng = random.Random(41)
        for n in (1, 2, 5, 12, 20, 32):
            m = lovasz_matrix(rng, n)
            assert packed_inverse(m) == inverse_mod_list(m) == inverse_from_cofactors(m)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64])
    def test_field_width_boundaries(self, n):
        # The field width, 62 + bitlen(n), steps up at each power of
        # two: n on both sides of each step, with residues uniform mod P
        # and the pivots out of row order, so every field takes its
        # largest terms and the rows their greatest width.
        rng = random.Random(f"width:{n}")
        for m in (residue_matrix(rng, n), lovasz_matrix(rng, n)):
            assert det_bareiss(m) % P != 0
            assert inverse_mod(m)[1] == 62 + n.bit_length()
            assert packed_inverse(m) == inverse_mod_list(m) == inverse_from_cofactors(m)

    @pytest.mark.parametrize("n", [48, 100])
    def test_lovasz_samples_at_large_n(self, n):
        rng = random.Random(f"large:{n}")
        m = lovasz_matrix(rng, n)
        expected = inverse_from_cofactors(m)
        assert expected is not None
        assert packed_inverse(m) == inverse_mod_list(m) == expected

    def test_det_equal_to_p_is_a_zero_residue(self):
        # No column is zero mod P, yet det = P (or 2P): the kernel
        # cannot tell it from a singular matrix, and says so.
        for rows in ([[P + 1, 1], [1, 1]], [[2 * P + 1, 1, 0], [1, 1, 0], [0, 0, 1]]):
            m = IntMatrix.from_rows(rows)
            assert det_bareiss(m) in (P, 2 * P)
            assert inverse_mod(m) is None and inverse_mod_list(m) is None

    def test_minor_chain_on_lovasz_samples(self):
        # Extraction's order: always the last row, in the first column
        # whose residue is nonzero, down to the 1x1 block; against the
        # exact cofactors up to n = 16 and the list update beyond.
        rng = random.Random(43)
        for n in (2, 7, 16, 48, 100):
            cur = lovasz_matrix(rng, n)
            inv = inverse_mod(cur)
            ref = inverse_mod_list(cur)
            while len(ref) > 1:
                i = len(ref) - 1
                j = next(j for j in range(i + 1) if ref[j][i])
                inv = minor_inverse_mod(inv, j)
                ref = minor_inverse_mod_list(ref, i, j)
                assert unpack(inv) == ref
                if n <= 16:
                    cur = minor(cur, i, j)
                    assert ref == inverse_from_cofactors(cur)

    def test_minor_any_row_and_column(self):
        # The packed update deletes the last row; moving row i to the
        # bottom first leaves minor(m, i, j) unchanged, so every (i, j)
        # is reached.
        rng = random.Random(47)
        m = random_matrix(rng, 6, 1, 50)
        ref = inverse_mod_list(m)
        for i in range(6):
            rows = m.rows[:i] + m.rows[i + 1:] + m.rows[i:i + 1]
            inv = inverse_mod(IntMatrix(rows))
            for j in range(6):
                if ref[j][i]:
                    expected = inverse_mod_list(minor(m, i, j))
                    assert unpack(minor_inverse_mod(inv, j)) == expected
                    assert minor_inverse_mod_list(ref, i, j) == expected


def leading_minors_list(m, order):
    """Reference for leading_minors_mod: Gaussian elimination mod P
    without pivoting, one operation per entry, on m's columns taken in
    ``order``; whether every pivot is nonzero mod P."""
    a = [[row[c] % P for c in order] for row in m.rows]
    for k in range(len(a)):
        if not a[k][k]:
            return False
        t = pow(a[k][k], -1, P)
        for row in a[k + 1:]:
            f = row[k] * t % P
            row[k:] = [(x - f * y) % P for x, y in zip(row[k:], a[k][k:])]
    return True


def exact_leading_minors(m, order):
    """What leading_minors_mod must return, from exact determinants."""
    return all(
        det_bareiss(IntMatrix.from_rows([[row[c] for c in order[:k]] for row in m.rows[:k]])) % P
        for k in range(1, m.n + 1)
    )


class TestLeadingMinorsMod:
    def test_matches_exact_minors(self):
        # The values of TestInverseMod, so minors cancel, vanish and
        # reach multiples of P, each matrix under a random column order.
        rng = random.Random(53)
        values = (0, 0, 1, 2, -3, 7, P - 1, P + 2, 10**40, 2**64 + 5, -(2**70), P, 3 * P, -P)
        answers = set()
        for _ in range(400):
            n = rng.randint(1, 8)
            m = IntMatrix.from_rows([[rng.choice(values) for _ in range(n)] for _ in range(n)])
            order = rng.sample(range(n), n)
            expected = exact_leading_minors(m, order)
            assert leading_minors_mod(m, order) is expected
            assert leading_minors_list(m, order) is expected
            answers.add(expected)
        assert answers == {True, False}

    def test_every_01_matrix_and_order_at_n3(self):
        for m in all_01_matrices(3):
            for order in permutations(range(3)):
                assert leading_minors_mod(m, order) is exact_leading_minors(m, order)

    def test_minor_a_multiple_of_p(self):
        # det [[P]] = P and det [[1, P + 1], [1, 1]] = -P: zero mod P,
        # nonzero exactly; the other order's minors are 1 and 1 - P.
        m = IntMatrix.from_rows([[1, P], [1, 1]])
        assert leading_minors_mod(m, (1, 0)) is False
        assert leading_minors_mod(m, (0, 1)) is True
        m = IntMatrix.from_rows([[1, P + 1], [1, 1]])
        assert leading_minors_mod(m, (0, 1)) is False

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 100])
    def test_field_width_boundaries(self, n):
        # inverse_mod's field width on both sides of each of its steps,
        # with residues uniform mod P, so every row step adds terms near
        # 2P^2, against the list elimination; and one minor made to
        # vanish mod P, the last, which the whole elimination reaches.
        rng = random.Random(f"minors:{n}")
        m = IntMatrix.from_rows([[rng.randrange(P) for _ in range(n)] for _ in range(n)])
        order = rng.sample(range(n), n)
        assert leading_minors_mod(m, order) is leading_minors_list(m, order) is True
        rows = [list(row) for row in m.rows]
        # Row n - 1 made 5 times row 0 keeps every smaller leading
        # minor and makes the determinant 0.
        if n > 1:
            rows[-1] = [x * 5 for x in rows[0]]
        else:
            rows[0] = [P]
        m = IntMatrix.from_rows(rows)
        assert leading_minors_mod(m, order) is leading_minors_list(m, order) is False


def exact_valuation(w):
    """What power_det_valuation must return, from cofactors of 2^w."""
    n = len(w)
    det, adj = cofactors(
        IntMatrix.from_rows([[0 if e is None else 1 << e for e in row] for row in w])
    )
    if det == 0:
        return None
    p = trailing_zeros(det)
    return p, [
        (i, j)
        for i in range(n)
        for j in range(n)
        if w[i][j] is not None and trailing_zeros(adj[j][i]) == p - w[i][j]
    ]


def random_exponents(rng, n, density, lo, hi):
    return [[rng.randint(lo, hi) if rng.random() < density else None for _ in range(n)]
            for _ in range(n)]


def find_exponents(rng, n, density=0.5):
    """The exponents `find` gives the kernel: a graph of the given
    density with a planted diagonal, w uniform in [1, 2m]."""
    edges = [[i == j or rng.random() < density for j in range(n)] for i in range(n)]
    m = sum(map(sum, edges))
    return [[rng.randint(1, 2 * m) if e else None for e in row] for row in edges]


def cancellation_gadget(a, b):
    """3 x 3 exponents whose two weight-0 permutations cancel, leaving
    det = 2^(a + b) from the one cycle through the exponents a and b;
    every line holds a 0, so scaling leaves p' = a + b."""
    return [[0, 0, None], [0, 0, a], [b, None, 0]]


def block_diagonal(blocks, rng, fill):
    """Blocks on the diagonal; a fraction ``fill`` of the entries above
    them gets a random exponent in [0, 300], which keeps det's
    valuation the blocks' sum but mixes every adjugate entry."""
    n = sum(map(len, blocks))
    w = [[None] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            w[at + i][at:at + len(row)] = row
            for j in range(at + len(row), n):
                if rng.random() < fill:
                    w[at + i][j] = rng.randint(0, 300)
        at += len(block)
    return w


@pytest.fixture
def ldu_calls(monkeypatch):
    """The precisions K of the kernel's factorizations, in order."""
    calls = []
    ldu = linalg._ldu_mod

    def counting(a, k_bits):
        calls.append(k_bits)
        return ldu(a, k_bits)

    monkeypatch.setattr(linalg, "_ldu_mod", counting)
    return calls


def reference_power_det_valuation(w):
    """The adjugate kernel that power_det_valuation replaced, kept as its
    reference: the same scaling and factorization, then X = adj(A') =
    U^-1 diag(prod_(t != k) d_t) L^-1 from prefix and suffix products of
    the pivots, formed mod 2^(p' + 1) after a rerun at K = p' + 1 when
    the doubling stopped at K <= p'.  It factors through linalg._ldu_mod
    on list entries at every K, so ldu_calls sees its precisions too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "PACKED_MAX_K", 0)
        return _adjugate_kernel(w)


def _adjugate_kernel(w):
    r = []
    for row in w:
        present = [e for e in row if e is not None]
        if not present:
            return None
        r.append(min(present))
    c = []
    for col in zip(*w):
        present = [e - ri for e, ri in zip(col, r) if e is not None]
        if not present:
            return None
        c.append(min(present))
    # The scaled exponents w', which linalg._ldu_mod factors, and A'.
    e = [
        [None if x is None else x - ri - cj for x, cj in zip(row, c)]
        for row, ri in zip(w, r)
    ]
    a = [[0 if x is None else 1 << x for x in row] for row in e]
    hadamard = sum((sum(map(mul, row, row)).bit_length() + 1) // 2 for row in a)
    k_bits = 64
    while (fac := linalg._ldu_mod(e, k_bits)) is None:
        if k_bits >= hadamard:
            return None
        k_bits *= 2
    p = sum(map(trailing_zeros, fac[3]))  # p', the valuation of det(A')
    if k_bits <= p:
        fac = linalg._ldu_mod(e, p + 1)
    rows, cols, lu, pivots = fac
    n = len(a)
    mask = (2 << p) - 1
    # after[k] = d_k ... d_(n-1), so prod_(l != k) d_l = before * after[k + 1].
    after = [1]
    for d in reversed(pivots):
        after.append((after[-1] * d) & mask)
    after.reverse()
    # Row k of L^-1, up to and including its diagonal, is e_k minus the
    # sum of L[k][t] times row t over t < k; scales[k] is the product of
    # the pivots but d_k.
    inv_l = []
    scales = []
    before = 1
    for k, (lk, d) in enumerate(zip(lu, pivots)):
        row = [0] * k + [1]
        for t in range(k):
            f = lk[t]
            if f:
                row[: t + 1] = [(x - f * z) & mask for x, z in zip(row, inv_l[t])]
        inv_l.append(row)
        scales.append(before * after[k + 1])
        before = (before * d) & mask
    # X = U^-1 diag(scales) L^-1 by back-substitution; xcols[c] holds
    # column c of X from the bottom up, so X[l][c] = xcols[c][n - 1 - l].
    xcols = [[] for _ in range(n)]
    for k in range(n - 1, -1, -1):
        ur = lu[k][:k:-1]  # U[k][n-1], ..., U[k][k+1]
        s = scales[k]
        for z, col in zip(inv_l[k], xcols):
            col.append((s * z - sum(map(mul, ur, col))) & mask)
        for col in xcols[k + 1:]:
            col.append(-sum(map(mul, ur, col)) & mask)
    # X[l][k] = ±adj(A')[cols[l]][rows[k]], and its valuation is
    # p' - w'[i][j] iff X[l][k] * 2^w'[i][j] has valuation exactly p'.
    # xcols[k] runs over the l from the bottom up, so it pairs with
    # cols reversed.
    top = 1 << p
    rcols = cols[::-1]
    tight = []
    for i, col in zip(rows, xcols):
        ai = a[i]
        tight += [(i, j) for j, x in zip(rcols, col) if (x * ai[j]) & mask == top]
    tight.sort()
    return p + sum(r) + sum(c), tight


class TestPowerDetValuation:
    """The valuation kernel against the exact adjugate of 2^w."""

    def test_random_exponents_n1_to_9(self):
        rng = random.Random(101)
        zero = nonzero = 0
        for _ in range(300):
            n = rng.randint(1, 9)
            w = random_exponents(rng, n, rng.choice([0.3, 0.6, 1.0]), rng.choice([0, 1]),
                                 rng.choice([5, 2 * n * n, 200]))
            expected = exact_valuation(w)
            assert power_det_valuation(w) == expected
            zero += expected is None
            nonzero += expected is not None
        assert zero > 20 and nonzero > 150

    def test_tie_heavy_exponents(self):
        # w in [1, 3]: many minimum permutations, so cancellation and
        # ties are the rule.
        rng = random.Random(103)
        tight_sizes = set()
        for _ in range(300):
            n = rng.randint(2, 8)
            w = random_exponents(rng, n, rng.choice([0.7, 1.0]), 1, 3)
            expected = exact_valuation(w)
            assert power_det_valuation(w) == expected
            if expected:
                tight_sizes.add(len(expected[1]) - n)
        assert {-1, 0, 1} <= tight_sizes

    @pytest.mark.parametrize("n", [12, 16, 20, 24])
    def test_find_size(self, n):
        # Exact cofactors take about a second at n = 24.
        rng = random.Random(f"find-size:{n}")
        for _ in range(4 if n == 12 else 1):
            w = find_exponents(rng, n)
            expected = exact_valuation(w)
            assert expected is not None
            assert power_det_valuation(w) == expected

    def test_precision_schedule(self, ldu_calls):
        # det(A') = 2^100 with one pivot of valuation 100: it vanishes mod
        # 2^64, and K = 128 > V + v_(n-2) = 100 reads everything.
        w = cancellation_gadget(50, 50)
        assert power_det_valuation(w) == exact_valuation(w)
        assert power_det_valuation(w)[0] == 100
        assert ldu_calls[:2] == [64, 128]
        # Two pivots of valuation 50: none vanishes mod 2^64, but
        # 64 <= V + v_(n-2) = 100, so the factorization is rerun at
        # K = 101.
        ldu_calls.clear()
        w = block_diagonal([cancellation_gadget(25, 25), cancellation_gadget(20, 30)],
                           random.Random(0), 0.0)
        assert power_det_valuation(w) == exact_valuation(w)
        assert power_det_valuation(w)[0] == 100
        assert ldu_calls[:2] == [64, 101]
        # V + v_(n-2) = 64 = K, still one bit short: rerun at K = 65.
        ldu_calls.clear()
        w = block_diagonal([cancellation_gadget(16, 16), cancellation_gadget(30, 2)],
                           random.Random(0), 0.0)
        assert power_det_valuation(w) == exact_valuation(w)
        assert ldu_calls == [64, 65]
        # V + v_(n-2) = 63 < 64: one pass.
        ldu_calls.clear()
        w = block_diagonal([cancellation_gadget(30, 1), cancellation_gadget(2, 30)],
                           random.Random(0), 0.0)
        assert power_det_valuation(w) == exact_valuation(w)
        assert ldu_calls == [64]

    def test_precision_from_two_largest_valuations(self, ldu_calls):
        # Three pivots of valuation 30: p' = 90, but V + v_(n-2) = 60 <
        # 64, so one pass reads everything, where the adjugate kernel
        # reruns at K = p' + 1 = 91.
        w = block_diagonal([cancellation_gadget(15, 15)] * 3, random.Random(0), 0.0)
        expected = exact_valuation(w)
        assert expected[0] == 90
        assert power_det_valuation(w) == expected
        assert ldu_calls == [64]
        ldu_calls.clear()
        assert reference_power_det_valuation(w) == expected
        assert ldu_calls == [64, 91]
        # Three pivots of valuation 40: the rerun is at K = V + v_(n-2)
        # + 1 = 81, not at p' + 1 = 121.
        ldu_calls.clear()
        w = block_diagonal([cancellation_gadget(20, 20)] * 3, random.Random(0), 0.0)
        expected = exact_valuation(w)
        assert expected[0] == 120
        assert power_det_valuation(w) == expected
        assert ldu_calls == [64, 81]
        ldu_calls.clear()
        assert reference_power_det_valuation(w) == expected
        assert ldu_calls == [64, 121]

    def test_high_valuation_blocks(self):
        rng = random.Random(107)
        for _ in range(12):
            blocks = [cancellation_gadget(rng.randint(20, 70), rng.randint(20, 70))
                      for _ in range(rng.randint(1, 3))]
            blocks.insert(rng.randint(0, len(blocks)),
                          random_exponents(rng, rng.randint(1, 3), 1.0, 0, 40))
            w = block_diagonal(blocks, rng, 0.5)
            expected = exact_valuation(w)
            assert expected is not None and expected[0] >= 40
            assert power_det_valuation(w) == expected

    def test_structurally_singular(self):
        rng = random.Random(109)
        for n in range(2, 10):
            w = find_exponents(rng, n)
            empty_row = [row[:] for row in w]
            empty_row[rng.randrange(n)] = [None] * n
            empty_col = [row[:] for row in w]
            j = rng.randrange(n)
            for row in empty_col:
                row[j] = None
            cases = [empty_row, empty_col]
            if n >= 3:
                # A Hall violator: 3 rows whose entries lie in 2 columns.
                hall = [row[:] for row in w]
                hits = rng.sample(range(n), 2)
                for i in rng.sample(range(n), 3):
                    hall[i] = [e if c in hits else None for c, e in enumerate(hall[i])]
                    hall[i][hits[0]] = hall[i][hits[0]] or 1
                cases.append(hall)
            for case in cases:
                assert exact_valuation(case) is None
                assert power_det_valuation(case) is None

    def test_cancellation_proved_by_hadamard_bound(self, ldu_calls):
        # The pattern has a perfect matching, and its six permutations
        # cancel in pairs: the two of weight 0, and the 3-cycle and the
        # transposition of weight 200.  Scaling changes nothing, the
        # Hadamard bound is 2^203, and the zero is proved at K = 256.
        w = [[0, 0, None], [0, 0, 100], [100, 100, 0]]
        assert exact_valuation(w) is None
        assert power_det_valuation(w) is None
        assert ldu_calls == [64, 128, 256]
        # K_2,2 with w00 + w11 = w01 + w10 scales to all zeros, so its
        # bound is 2^2 and the first pass proves it.
        ldu_calls.clear()
        for a, b, c in [(1, 2, 3), (5, 5, 5), (0, 100, 100)]:
            assert power_det_valuation([[a, b], [c, b + c - a]]) is None
        assert ldu_calls == [64, 64, 64]

    def test_one_by_one_and_shift(self):
        assert power_det_valuation([[7]]) == (7, [(0, 0)])
        assert power_det_valuation([[None]]) is None
        # Adding a constant to a row adds it to p and keeps the set.
        rng = random.Random(113)
        for _ in range(40):
            n = rng.randint(2, 6)
            w = random_exponents(rng, n, 0.8, 0, 30)
            base = power_det_valuation(w)
            i, s = rng.randrange(n), rng.randint(1, 500)
            shifted = [[e if e is None or r != i else e + s for e in row]
                       for r, row in enumerate(w)]
            got = power_det_valuation(shifted)
            assert got == (base and (base[0] + s, base[1]))

    def test_input_unmodified(self):
        w = [[3, None, 5], [1, 2, None], [None, 4, 6]]
        copy = [row[:] for row in w]
        power_det_valuation(w)
        assert w == copy

    def test_large_exponent_never_built(self):
        # 2^(2^24) takes 2 MiB; the kernel keeps the exponent and gives
        # each factorization 2^w' mod 2^K, 0 here.  det = 1 - 2^(2^24)
        # is odd, and only the diagonal's cofactors are odd.
        w = [[0, 1 << 24], [0, 0]]
        tracemalloc.start()
        try:
            got = power_det_valuation(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == (0, [(0, 0), (1, 1)])
        assert peak < 1 << 20


@pytest.fixture
def ldu_pivots(monkeypatch):
    """(K, pivot valuations) of each factorization that succeeds, in
    order."""
    found = []
    ldu = linalg._ldu_mod

    def recording(a, k_bits):
        fac = ldu(a, k_bits)
        if fac is not None:
            found.append((k_bits, [trailing_zeros(d) for d in fac[3]]))
        return fac

    monkeypatch.setattr(linalg, "_ldu_mod", recording)
    return found


class TestAgainstAdjugateKernel:
    """power_det_valuation against the adjugate kernel it replaced and
    the exact cofactors of 2^w."""

    def test_random_exponents(self):
        rng = random.Random(211)
        nonzero = 0
        for _ in range(400):
            n = rng.randint(1, 10)
            w = random_exponents(rng, n, rng.uniform(0.3, 1.0), 0, rng.randint(0, 200))
            expected = exact_valuation(w)
            assert reference_power_det_valuation(w) == expected
            assert power_det_valuation(w) == expected
            nonzero += expected is not None
        assert nonzero > 200

    @pytest.mark.parametrize("n, density", [(16, 0.5), (24, 0.5), (32, 0.15)])
    def test_find_grids(self, n, density):
        # Exact cofactors take about a second at n = 24, and at n = 32
        # with density 0.15; at density 1/2 they take 12 s there.
        rng = random.Random(f"adjugate-kernel:{n}")
        w = find_exponents(rng, n, density)
        expected = exact_valuation(w)
        assert expected is not None
        assert reference_power_det_valuation(w) == expected
        assert power_det_valuation(w) == expected

    def test_find_grid_n48(self):
        # Beyond exact cofactors; the adjugate kernel takes about 0.1 s.
        w = find_exponents(random.Random("adjugate-kernel:48"), 48)
        expected = reference_power_det_valuation(w)
        assert expected is not None
        assert power_det_valuation(w) == expected

    def test_last_unit_known_short(self, ldu_pivots):
        # Gadget blocks under random entries everywhere else, so L and U
        # are dense: in most grids the two largest pivot valuations V and
        # v_(n-2) differ by 2 or more and K <= 2V, so the last pivot's
        # unit is known only mod 2^(K - V), short of the 2^(V + 1) its
        # scale would need, and the docstring's case split is what makes
        # the answer exact.  About 1 in 20 of the reruns here gives a
        # wrong answer with K one bit short.
        rng = random.Random(223)
        short = reruns = 0
        for _ in range(300):
            blocks = [cancellation_gadget(rng.randint(0, 60), rng.randint(0, 60))
                      for _ in range(rng.randint(2, 3))]
            w = block_diagonal(blocks, rng, 1.0)
            for row in w:
                row[:] = [rng.randint(0, 200) if e is None and rng.random() < 0.5 else e
                          for e in row]
            ldu_pivots.clear()
            got = power_det_valuation(w)
            k_bits, vals = ldu_pivots[-1]
            expected = exact_valuation(w)
            assert reference_power_det_valuation(w) == expected
            assert got == expected
            if vals[-1] >= vals[-2] + 2 and k_bits <= 2 * vals[-1]:
                short += 1
                reruns += k_bits == vals[-1] + vals[-2] + 1
        assert short >= 200 and reruns >= 100


@pytest.fixture
def by_representation(monkeypatch):
    """power_det_valuation(w) with every factorization on packed rows,
    then with every one on list entries: the switch linalg.PACKED_MAX_K
    set above, then below, every precision K.  The Y phase is packed
    either way."""
    default = linalg.PACKED_MAX_K

    def run(w):
        out = []
        for switch in (1 << 30, 0):
            monkeypatch.setattr(linalg, "PACKED_MAX_K", switch)
            out.append(power_det_valuation(w))
        monkeypatch.setattr(linalg, "PACKED_MAX_K", default)
        return out

    return run


def assert_ldu(a, k_bits, fac):
    """B = L diag(pivots) U mod 2^K with B[k][l] = a[rows[k]][cols[l]],
    as linalg._ldu_mod promises of either representation: ``lu[k]``
    holds L's strict part, pivot k and U's strict part, n residues mod
    2^K.  L's column t and U's row t are known mod 2^(K - v_t), so each
    product L[k][t] d_t U[t][l] is known mod 2^K."""
    rows, cols, lu, pivots = fac
    n = len(a)
    assert sorted(rows) == sorted(cols) == list(range(n))
    assert [len(row) for row in lu] == [n] * n
    assert [row[k] for k, row in enumerate(lu)] == pivots
    assert all(0 <= x < 1 << k_bits for row in lu for x in row)
    mask = (1 << k_bits) - 1
    for k in range(n):
        for l in range(n):
            total = sum(
                (lu[k][t] if t < k else 1) * pivots[t] * (lu[t][l] if t < l else 1)
                for t in range(min(k, l) + 1)
            )
            assert (total - a[rows[k]][cols[l]]) & mask == 0, (k, l)


def ldu_rows_of_residues(a, k_bits):
    """linalg._ldu_rows on any integer matrix a: its rows are packed
    field by field mod 2^K (linalg._pack) in place of the exponent rows
    of linalg._pack_powers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_pack_powers", lambda row, bits, k: linalg._pack(row, bits, 1 << k))
        return linalg._ldu_rows(a, k_bits)


class TestPackedRows:
    """Both representations of power_det_valuation's factorization and Y
    phase against each other and, up to n = 16, against exact cofactors
    of 2^w."""

    def test_random_exponents_n1_to_16(self, by_representation):
        rng = random.Random(307)
        nonzero = 0
        for _ in range(160):
            n = rng.randint(1, 16)
            w = random_exponents(rng, n, rng.choice([0.3, 0.6, 1.0]), rng.choice([0, 1]),
                                 rng.choice([1, 2, 3, 2 * n * n]))
            expected = exact_valuation(w)
            assert by_representation(w) == [expected, expected]
            nonzero += expected is not None
        assert nonzero > 80

    @pytest.mark.parametrize("n, count", [(12, 6), (16, 2)])
    def test_find_grids(self, n, count, by_representation):
        rng = random.Random(f"packed-rows:{n}")
        for _ in range(count):
            w = find_exponents(rng, n)
            expected = exact_valuation(w)
            assert expected is not None
            assert by_representation(w) == [expected, expected]

    def test_find_grids_up_to_n32(self, by_representation):
        # Beyond the exact oracle's budget: the two representations
        # agree with each other, and the finder's answer is a matching.
        rng = random.Random("packed-rows:large")
        for n in (20, 24, 32):
            w = find_exponents(rng, n)
            packed, entries = by_representation(w)
            assert packed == entries
            assert len(packed[1]) == n

    def test_gadget_blocks(self, by_representation):
        # The grids of TestAgainstAdjugateKernel.test_last_unit_known_short:
        # high pivot valuations whose last unit is known short.
        rng = random.Random(311)
        for _ in range(60):
            blocks = [cancellation_gadget(rng.randint(0, 60), rng.randint(0, 60))
                      for _ in range(rng.randint(2, 3))]
            w = block_diagonal(blocks, rng, 1.0)
            for row in w:
                row[:] = [rng.randint(0, 200) if e is None and rng.random() < 0.5 else e
                          for e in row]
            expected = exact_valuation(w)
            assert by_representation(w) == [expected, expected]

    def test_no_perfect_matching_and_one_by_one(self, by_representation):
        rng = random.Random(313)
        for n in range(2, 9):
            w = find_exponents(rng, n)
            w[rng.randrange(n)] = [None] * n
            assert by_representation(w) == [None, None]
            # A Hall violator: 3 rows whose entries lie in 2 columns.
            if n >= 3:
                w = find_exponents(rng, n)
                for i in rng.sample(range(n), 3):
                    w[i] = [e if c < 2 else None for c, e in enumerate(w[i])]
                    w[i][0] = w[i][0] or 1
                assert by_representation(w) == [None, None]
        # Cancellation proved by the Hadamard bound at K = 256.
        assert by_representation([[0, 0, None], [0, 0, 100], [100, 100, 0]]) == [None, None]
        assert by_representation([[7]]) == [(7, [(0, 0)])] * 2
        assert by_representation([[None]]) == [None, None]

    def test_field_edge_entries(self):
        for k_bits in (64, 128):
            top = (1 << k_bits) - 1
            # Row 0's one odd entry is the pivot, 1; row 1's multiplier
            # is 2^K - 1, and its field in column 1, under the pivot
            # row's 0, reaches (2^K - 1) + (2^K - 1) 2^K = 2^(2K) - 1,
            # the largest a row step can make.
            a = [[1, 0, 2], [top, top, top - 1], [top, 1, top]]
            for fac in (ldu_rows_of_residues(a, k_bits), linalg._ldu_entries(a, k_bits)):
                assert fac[1][0] == 0 and fac[2][1][0] == top
                assert_ldu(a, k_bits, fac)
            rng = random.Random(f"field-edge:{k_bits}")
            edges = [0, 1, 2, top, top - 1, 1 << k_bits - 1, (1 << k_bits - 1) + 1]
            for _ in range(60):
                n = rng.randint(1, 8)
                a = [[rng.choice(edges) if rng.random() < 0.8 else rng.getrandbits(k_bits)
                      for _ in range(n)] for _ in range(n)]
                facs = [ldu_rows_of_residues(a, k_bits), linalg._ldu_entries(a, k_bits)]
                assert (facs[0] is None) == (facs[1] is None)
                if facs[0] is not None:
                    assert ([trailing_zeros(d) for d in facs[0][3]]
                            == [trailing_zeros(d) for d in facs[1][3]])
                    assert_ldu(a, k_bits, facs[0])
                    assert_ldu(a, k_bits, facs[1])

    def test_rows_packed_from_exponents(self):
        # The packed factorization sets one bit per exponent below K.  Its
        # rows must be _pack of the residues 2^e mod 2^K bit for bit, at
        # the narrowest width and at the factorization's, and _ldu_mod on
        # the exponents must return what the factorization of the
        # residues returns.  Exponents run over None, 0, K - 1, K and up
        # to 2K.
        rng = random.Random(337)
        nonzero = 0
        for k_bits in (64, 101, 128):
            for _ in range(60):
                n = rng.randint(1, 10)
                e = [[rng.choice([None, 0, 1, k_bits - 1, k_bits, rng.randint(0, 2 * k_bits)])
                      for _ in range(n)] for _ in range(n)]
                a = linalg._power_mod(e, k_bits)
                for bits in (k_bits, 2 * k_bits + 1):
                    for row, residues in zip(e, a):
                        assert (linalg._pack_powers(row, bits, k_bits)
                                == linalg._pack(residues, bits, 1 << k_bits))
                fac = linalg._ldu_mod(e, k_bits)
                assert fac == ldu_rows_of_residues(a, k_bits)
                nonzero += fac is not None
        assert nonzero > 40

    def test_y_phases_on_one_factorization(self):
        # The one Y phase takes lu from either factorization, at K = 64
        # and above the switch.  Its rows hold reduced fields of width G
        # and nothing above field n - 1, and U Y' L = diag(scales) mod
        # 2^(V + 1), so Y' = U^-1 diag(scales) L^-1 on every lu.  Where
        # K > 2V every unit is known to V + 1 bits, Y' B = 2^V I mod
        # 2^(V + 1) exactly, and both factorizations give the same Y
        # once un-permuted: Y[cols[l]][rows[m]] = Y'[l][m].
        rng = random.Random(331)
        checked = exact = 0
        for k_bits in (64, linalg.PACKED_MAX_K + 64):
            for _ in range(40):
                n = rng.randint(1, 10)
                e = random_exponents(rng, n, 0.8, 0, 40)
                a = linalg._power_mod(e, k_bits)
                # The packed factorization reads the exponents, the
                # per-entry one their residues.
                ys = []
                for fac in (linalg._ldu_rows(e, k_bits), linalg._ldu_entries(a, k_bits)):
                    if fac is None:
                        continue
                    rows, cols, lu, pivots = fac
                    vals = [trailing_zeros(d) for d in pivots]
                    vmax = vals[-1]
                    mask = (2 << vmax) - 1
                    scales = [pow(d >> v, -1, 2 << v) << (vmax - v)
                              for d, v in zip(pivots, vals)]
                    packed, g = linalg._y_rows(lu, scales, mask)
                    assert g == 2 * (vmax + 1) + (n + 1).bit_length()
                    y = [[row >> m * g & mask for m in range(n)] for row in packed]
                    assert packed == [sum(x << m * g for m, x in enumerate(yl)) for yl in y]
                    for k in range(n):
                        for c in range(n):
                            total = sum((lu[k][t] if t > k else t == k) * y[t][s]
                                        * (lu[s][c] if s > c else s == c)
                                        for t in range(k, n) for s in range(c, n))
                            assert total & mask == (k == c) * scales[k] & mask, (k, c)
                    checked += 1
                    if k_bits > 2 * vmax:
                        for l in range(n):
                            for c in range(n):
                                total = sum(y[l][m] * a[rows[m]][cols[c]] for m in range(n))
                                assert total & mask == (l == c) << vmax, (l, c)
                        ys.append({(cols[l], rows[m]): y[l][m]
                                   for l in range(n) for m in range(n)})
                        exact += 1
                assert ys == [] or ys[0] == ys[1]
        assert checked > 100 and exact > 80

    def test_multipliers_of_all_ones(self, by_representation, monkeypatch):
        # Exponents 0 and 1 make entries -1 mod 2^K after one step, so
        # multipliers 2^K - 1 are common.
        seen = []
        ldu = linalg._ldu_rows

        def recording(a, k_bits):
            fac = ldu(a, k_bits)
            if fac is not None:
                seen.extend(f == (1 << k_bits) - 1 for k, row in enumerate(fac[2])
                            for f in row[:k])
            return fac

        monkeypatch.setattr(linalg, "_ldu_rows", recording)
        rng = random.Random(317)
        for _ in range(40):
            w = random_exponents(rng, rng.randint(2, 10), 1.0, 0, 1)
            expected = exact_valuation(w)
            assert by_representation(w) == [expected, expected]
        assert sum(seen) > 40

    def test_rerun_on_each_side_of_switch(self, ldu_calls, by_representation):
        # Two pivots of valuation 50: none vanishes mod 2^64, and the
        # rerun at K = 101 is packed like the factorization before it.
        w = block_diagonal([cancellation_gadget(25, 25), cancellation_gadget(20, 30)],
                           random.Random(0), 0.3)
        expected = exact_valuation(w)
        assert power_det_valuation(w) == expected
        assert ldu_calls == [64, 101]
        assert ldu_calls[-1] <= linalg.PACKED_MAX_K
        assert by_representation(w) == [expected, expected]
        # Two pivots of valuation 70: one vanishes mod 2^64, K = 128
        # finds both, and the rerun at K = 141 is above the switch.
        ldu_calls.clear()
        w = block_diagonal([cancellation_gadget(35, 35), cancellation_gadget(30, 40)],
                           random.Random(0), 0.3)
        expected = exact_valuation(w)
        assert power_det_valuation(w) == expected
        assert ldu_calls == [64, 128, 141]
        assert ldu_calls[-2] <= linalg.PACKED_MAX_K < ldu_calls[-1]
        assert by_representation(w) == [expected, expected]


class TestTrailingZeros:
    def test_examples(self):
        assert trailing_zeros(12) == 2
        assert trailing_zeros(-8) == 3
        assert trailing_zeros(0) is None
        assert trailing_zeros(1) == 0

    def test_powers_of_two(self):
        for w in range(0, 70):
            assert trailing_zeros(1 << w) == w

    def test_factorization_property(self):
        rng = random.Random(13)
        for _ in range(500):
            y = rng.randint(-(10**12), 10**12)
            if y == 0:
                continue
            q = trailing_zeros(y)
            assert y % (1 << q) == 0
            assert (abs(y) >> q) % 2 == 1
