import random
from itertools import permutations

import pytest

from wmatch import edmonds, linalg
from wmatch.edmonds import lovasz_decide
from wmatch.graphs import BipartiteGraph
from wmatch.linalg import (
    P,
    IntMatrix,
    cofactors,
    det_bareiss,
    det_berkowitz,
    det_cofactor,
    det_lagrange,
    inverse_mod,
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
    def test_ties_go_to_columns(self, shape, n):
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
    def test_violator_stops_after_few_pivots(self, shape, n, side, monkeypatch):
        # The forward pass on the planted matrix may run to the
        # violator's last line; the decision on its graph makes no
        # pivot at all, since the graph's own matching verdict answers
        # it before any sample is drawn.
        rng = random.Random(f"work:{shape}:{n}:{side}")
        passes = []
        monkeypatch.setattr(linalg, "_eliminate", passes.append)
        monkeypatch.setattr(edmonds, "lovasz_sample", lambda g, seed: passes.append(seed))
        for kind in ("violator", "isolated"):
            m = planted(base_rows(shape, n, rng), side, kind, rng)
            g = BipartiteGraph.from_rows([[x != 0 for x in row] for row in m.rows])
            assert not any(lovasz_decide(g, seed) for seed in range(3))
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



def inverse_from_cofactors(m):
    """What inverse_mod must return, from the exact cofactors."""
    det, adj = cofactors(m)
    if det % P == 0:
        return None
    t = pow(det, -1, P)
    return [[x * t % P for x in row] for row in adj]


class TestInverseMod:
    def test_matches_exact_cofactors(self):
        # Small entries, entries past P, and singular 0/1 matrices.
        rng = random.Random(37)
        for _ in range(200):
            n = rng.randint(1, 9)
            m = IntMatrix.from_rows(
                [[rng.choice((0, 0, 1, 2, -3, 7, P - 1, P + 2, 10**40)) for _ in range(n)]
                 for _ in range(n)]
            )
            assert inverse_mod(m) == inverse_from_cofactors(m)
        for m in all_01_matrices(3):
            assert inverse_mod(m) == inverse_from_cofactors(m)

    def test_lovasz_samples_up_to_n32(self):
        rng = random.Random(41)
        for n in (1, 2, 5, 12, 20, 32):
            m = lovasz_matrix(rng, n)
            assert inverse_mod(m) == inverse_from_cofactors(m)

    def test_det_equal_to_p_is_a_zero_residue(self):
        # No column is zero mod P, yet det = P (or 2P): the kernel
        # cannot tell it from a singular matrix, and says so.
        for rows in ([[P + 1, 1], [1, 1]], [[2 * P + 1, 1, 0], [1, 1, 0], [0, 0, 1]]):
            m = IntMatrix.from_rows(rows)
            assert det_bareiss(m) in (P, 2 * P)
            assert inverse_mod(m) is None

    def test_minor_chain_on_lovasz_samples(self):
        # Extraction's order: always the last row, in the first column
        # whose residue is nonzero, down to the 1x1 block.
        rng = random.Random(43)
        for n in (2, 7, 16):
            cur = lovasz_matrix(rng, n)
            inv = inverse_mod(cur)
            while cur.n > 1:
                i = cur.n - 1
                j = next(j for j in range(cur.n) if inv[j][i])
                inv = minor_inverse_mod(inv, i, j)
                cur = minor(cur, i, j)
                assert inv == inverse_from_cofactors(cur)

    def test_minor_any_row_and_column(self):
        rng = random.Random(47)
        m = random_matrix(rng, 6, 1, 50)
        inv = inverse_mod(m)
        for i in range(6):
            for j in range(6):
                if inv[j][i]:
                    assert minor_inverse_mod(inv, i, j) == inverse_mod(minor(m, i, j))


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


def find_exponents(rng, n):
    """The exponents `find` gives the kernel: a density-1/2 graph with a
    planted diagonal, w uniform in [1, 2m]."""
    edges = [[i == j or rng.random() < 0.5 for j in range(n)] for i in range(n)]
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
        # 2^64, and K = 128 > p' reads everything.
        w = cancellation_gadget(50, 50)
        assert power_det_valuation(w) == exact_valuation(w)
        assert power_det_valuation(w)[0] == 100
        assert ldu_calls[:2] == [64, 128]
        # Two pivots of valuation 50: none vanishes mod 2^64, but
        # 64 <= p' = 100, so the factorization is rerun at K = 101.
        ldu_calls.clear()
        w = block_diagonal([cancellation_gadget(25, 25), cancellation_gadget(20, 30)],
                           random.Random(0), 0.0)
        assert power_det_valuation(w) == exact_valuation(w)
        assert power_det_valuation(w)[0] == 100
        assert ldu_calls[:2] == [64, 101]
        # p' = 64 = K, still one bit short: rerun at K = 65.
        ldu_calls.clear()
        w = block_diagonal([cancellation_gadget(16, 16), cancellation_gadget(30, 2)],
                           random.Random(0), 0.0)
        assert power_det_valuation(w) == exact_valuation(w)
        assert ldu_calls == [64, 65]
        # p' = 63 < 64: one pass.
        ldu_calls.clear()
        w = block_diagonal([cancellation_gadget(30, 1), cancellation_gadget(2, 30)],
                           random.Random(0), 0.0)
        assert power_det_valuation(w) == exact_valuation(w)
        assert ldu_calls == [64]

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
