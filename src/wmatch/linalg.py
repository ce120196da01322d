"""Exact integer matrices, determinants and cofactors.

All arithmetic is over Python's built-in arbitrary-precision integers,
so nothing here overflows or rounds.  One production determinant and
three oracles are provided on purpose:

* :func:`det_bareiss` is the production determinant: fraction-free
  (Bareiss) forward elimination, O(n^3) exact operations, every
  division exact.  It stops at the first column without a pivot.
* :func:`det_berkowitz` is the division-free oracle: the
  Samuelson-Berkowitz algorithm, O(n^4) multiplications, no size cap,
  so it checks the production determinant at the sizes production uses.
* :func:`det_cofactor` is recursive last-row cofactor expansion that
  computes each minor's determinant once: O(2^n * n) products,
  guarded to n <= 12.
* :func:`det_lagrange` is the full signed permutation expansion, the
  n! permutations listed in Heap's order so each sign costs O(1):
  O(n * n!) products, guarded to n <= 9.

The oracles exist so the production path can be cross-checked without
trusting any shared code: elimination, expansion by minors and the
permutation sum share nothing.  On the ``verify det`` inputs (entries
in [-9, 9], n = 6; CPU time per matrix, best of 7, 2-core x86-64 VM,
CPython 3.11.7), ``det_bareiss`` takes 0.021 ms, ``det_cofactor``
0.09 ms and ``det_lagrange`` 0.50 ms.

Measured against Berkowitz (mean time per matrix, same machine and
interpreter), Bareiss wins on small-entry matrices and on power
matrices up to n ~ 17; past that its exact divisions of numbers of
thousands of bits cost more than Berkowitz's extra multiplications:

==============================================  ========  =========
input                                           Bareiss   Berkowitz
==============================================  ========  =========
entries in [-9, 9], n = 3..6 (``verify det``)   0.020 ms  0.070 ms
Lovasz sample, n = 20, entries in [1, 2n]       0.93 ms   7.5 ms
power matrix, n = 12 (``find``)                 0.90 ms   1.58 ms
power matrix, n = 16                            8.8 ms    10.1 ms
power matrix, n = 18                            24 ms     23 ms
power matrix, n = 20                            44 ms     34 ms
power matrix, n = 24                            188 ms    152 ms
power matrix, n = 24, singular                  127 ms    96 ms
power matrix, n = 32                            2.66 s    2.07 s
power matrix, n = 32, singular                  1.87 s    1.31 s
==============================================  ========  =========

(Power matrices: density 1/2 plus a planted diagonal, entries 2^w with
w uniform in [1, 2m]; the singular ones have two rows that see only
column 0.)  No benchmark workload reaches the slower side, and there a
successful MVV trial's adjugate costs far more than the zero check.

Every loop that needs the determinants of many minors (edge membership
in the MVV finder, nonzero-diagonal extraction) reads them off one
adjugate instead:

* :func:`cofactors` returns ``(det, adj)`` by fraction-free Gauss-Jordan
  elimination (Bareiss) on ``[A | I]``: O(n^3) exact divisions, and
  ``adj[j][i] = (-1)^(i+j) * det(minor(A, i, j))``.
* :func:`minor_cofactors` turns the kernel's output for A into the
  kernel's output for ``minor(A, i, j)`` in O(n^2), by the
  Desnanot-Jacobi (Sylvester) identity, so deleting one row and column
  after another costs O(n^3) in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

COFACTOR_MAX_N = 12
LAGRANGE_MAX_N = 9


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense n x n matrix of exact integers.

    Indexing is 0-based throughout.  Rows are stored as a tuple of
    tuples, so instances are hashable and safe to share.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise ValueError("matrix must have dimension >= 1")
        for r, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError(f"row {r} has {len(row)} entries, expected {n}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, n: int) -> "IntMatrix":
        return cls(tuple((0,) * n for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def at(self, i: int, j: int) -> int:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) out of range for n={self.n}")
        return self.rows[i][j]

    def minor(self, i: int, j: int) -> "IntMatrix":
        """Matrix with row i and column j deleted."""
        return minor(self, i, j)

    def with_entry(self, i: int, j: int, value: int) -> "IntMatrix":
        """Copy with entry (i, j) replaced."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) out of range for n={self.n}")
        rows = list(self.rows)
        row = list(rows[i])
        row[j] = value
        rows[i] = tuple(row)
        return IntMatrix(tuple(rows))


def minor(m: IntMatrix, i: int, j: int) -> IntMatrix:
    """Delete row i and column j of m; requires n >= 2."""
    n = m.n
    if n < 2:
        raise ValueError("minor of a 1x1 matrix is empty")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"minor index ({i}, {j}) out of range for n={n}")
    return IntMatrix(
        tuple(
            tuple(row[c] for c in range(n) if c != j)
            for r, row in enumerate(m.rows)
            if r != i
        )
    )


def det_berkowitz(m: IntMatrix) -> int:
    """Exact determinant by the Samuelson-Berkowitz algorithm.

    Computes the characteristic polynomial of the trailing principal
    submatrices bottom-up; each step multiplies the coefficient vector
    by a lower-triangular Toeplitz matrix whose first column collects
    the products row * M^t * column.  No divisions anywhere and no size
    cap, which makes it the large-n oracle for :func:`det_bareiss`;
    O(n^4) multiplications, so no production path calls it.
    """
    n = m.n
    rows = m.rows
    # coeffs of det(xI - A) for the trailing principal submatrix, most
    # significant first; starts from the 1x1 block at (n-1, n-1).
    coeffs = [1, -rows[n - 1][n - 1]]
    for k in range(n - 2, -1, -1):
        size = n - k  # dimension of the submatrix rooted at (k, k)
        a = rows[k][k]
        r_vec = rows[k][k + 1:]
        c_vec = [rows[i][k] for i in range(k + 1, n)]
        sub = [rows[i][k + 1:] for i in range(k + 1, n)]
        # First column of the Toeplitz factor: 1, -a, -(R C), -(R M C), ...
        items = [1, -a]
        v = c_vec
        items.append(-sum(r_vec[t] * v[t] for t in range(size - 1)))
        for _ in range(size - 2):
            v = [sum(sub[r][t] * v[t] for t in range(size - 1)) for r in range(size - 1)]
            items.append(-sum(r_vec[t] * v[t] for t in range(size - 1)))
        coeffs = [
            sum(items[i - j] * coeffs[j] for j in range(len(coeffs)) if 0 <= i - j < len(items))
            for i in range(size + 1)
        ]
    det = coeffs[n]
    return det if n % 2 == 0 else -det


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) forward elimination.

    At step k the pivot is the first nonzero entry of column k at or
    below row k (a row swap flips the sign); every later row becomes
    ``row[c] = (row[c] * piv - f * pr[c]) // prev`` with ``f = row[k]``,
    pr the pivot row and prev the previous pivot (1 at the start).
    Each entry is then a minor of m, so every division is exact.
    Returns 0 at the first column without a pivot; O(n^3) exact
    operations.
    """
    rows = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    # rows holds the trailing (n - k) x (n - k) block; the finished
    # pivot row and column are dropped each step.
    while len(rows) > 1:
        p = next((r for r, row in enumerate(rows) if row[0] != 0), None)
        if p is None:
            return 0
        if p != 0:
            rows[0], rows[p] = rows[p], rows[0]
            sign = -sign
        pr = rows[0]
        piv = pr[0]
        tail = pr[1:]
        block = []
        for row in rows[1:]:
            f = row[0]
            block.append([(x * piv - f * y) // prev for x, y in zip(row[1:], tail)])
        rows = block
        prev = piv
    return sign * rows[0][0]


def cofactors(m: IntMatrix) -> tuple[int, Optional[list[list[int]]]]:
    """Determinant and adjugate of m, exactly.

    Fraction-free Gauss-Jordan elimination on ``[A | I]`` with row
    pivoting: at step k every other row becomes
    ``(p_k * row - row[k] * pivot_row) / p_(k-1)``, where p_k is the
    pivot, and every division is exact.  After the last step the left
    block is ``d * I`` with d = ±det(A) and the right block is
    ``d * A^-1``; the sign is that of the row swaps.  The result is
    ``(det, adj)`` with ``adj[j][i] = (-1)^(i+j) * det(minor(m, i, j))``
    (``[[1]]`` for a 1x1 matrix), or ``(0, None)`` when m is singular.
    Nothing is retained between calls.
    """
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
        # Left columns <= k now hold their final d * I values and are
        # never read again, so only the later columns are updated.
        for r in range(n):
            if r == k:
                continue
            row = rows[r]
            f = row[k]
            for c in range(k + 1, 2 * n):
                row[c] = (row[c] * pivot - f * pivot_row[c]) // prev
        prev = pivot
    return sign * prev, [[sign * x for x in row[n:]] for row in rows]


def minor_cofactors(
    det: int, adj: Sequence[Sequence[int]], i: int, j: int
) -> tuple[int, list[list[int]]]:
    """Cofactors of ``minor(A, i, j)`` from those of A.

    ``(det, adj)`` is the output of :func:`cofactors` for a nonsingular
    A, and ``det(minor(A, i, j)) = (-1)^(i+j) * adj[j][i]`` must be
    nonzero.  With B = A^-1, the inverse of the minor is B without row
    j and column i, minus ``B[r][i] * B[j][s] / B[j][i]`` (a rank-one
    Schur complement update); scaled to adjugates this is the
    Desnanot-Jacobi identity::

        adj'[r][s] = (-1)^(i+j) * (adj[j][i] * adj[r][s] - adj[r][i] * adj[j][s]) / det

    over the rows r != j and columns s != i of adj, an exact division.
    Returns ``(det', adj')``, exactly what :func:`cofactors` returns
    for the minor, in O(n^2).
    """
    n = len(adj)
    if n < 2:
        raise ValueError("minor of a 1x1 matrix is empty")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"minor index ({i}, {j}) out of range for n={n}")
    pivot = adj[j][i]
    if pivot == 0 or det == 0:
        raise ValueError("minor_cofactors needs a nonsingular matrix and minor")
    sign = -1 if (i + j) % 2 else 1
    row_j = adj[j]
    out = []
    for r in range(n):
        if r == j:
            continue
        row = adj[r]
        f = row[i]
        out.append(
            [sign * ((pivot * row[s] - f * row_j[s]) // det) for s in range(n) if s != i]
        )
    return sign * pivot, out


def det_cofactor(m: IntMatrix) -> int:
    """Exact determinant by cofactor expansion along the last row.

    Oracle only, refuses n > 12.  Every minor met in the recursion
    keeps the leading rows of m, as many as it has columns, so its
    column set alone names it: each minor's determinant is computed
    once and looked up afterwards: O(2^n * n) products rather than the
    n! of plain recursion.  The cache lives for one call only.
    """
    if m.n > COFACTOR_MAX_N:
        raise ValueError(f"det_cofactor limited to n <= {COFACTOR_MAX_N}, got n={m.n}")
    rows = m.rows
    dets: dict[tuple[int, ...], int] = {}

    def expand(cols: tuple[int, ...]) -> int:
        # det of rows[:len(cols)] restricted to cols, along its last row
        i = len(cols) - 1
        if i == 0:
            return rows[0][cols[0]]
        known = dets.get(cols)
        if known is not None:
            return known
        row = rows[i]
        total = 0
        for j, c in enumerate(cols):
            entry = row[c]
            if entry == 0:
                continue
            term = entry * expand(cols[:j] + cols[j + 1:])
            total += -term if (i + j) % 2 else term
        dets[cols] = total
        return total

    return expand(tuple(range(m.n)))


def det_lagrange(m: IntMatrix) -> int:
    """Exact determinant as the signed sum over all n! permutations.

    Oracle only, refuses n > 9.  The permutations come in Heap's order
    (B. R. Heap, 1963), where each differs from the one before by a
    single transposition, so the sign flips once per step instead of
    being recounted: O(n * n!) products.
    """
    n = m.n
    if n > LAGRANGE_MAX_N:
        raise ValueError(f"det_lagrange limited to n <= {LAGRANGE_MAX_N}, got n={n}")
    rows = m.rows
    perm = list(range(n))
    # counters[i] counts the swaps made at level i since it was last reset
    counters = [0] * n
    sign = 1
    total = 0
    i = 1
    while True:
        prod = sign
        for row, c in zip(rows, perm):
            prod *= row[c]
            if prod == 0:
                break
        total += prod
        while i < n and counters[i] == i:
            counters[i] = 0
            i += 1
        if i == n:
            return total
        k = counters[i] if i % 2 else 0
        perm[k], perm[i] = perm[i], perm[k]
        sign = -sign
        counters[i] += 1
        i = 1


def trailing_zeros(y: int) -> Optional[int]:
    """Position of the least significant 1-bit of y, or None for y = 0.

    For y != 0 this is the unique q with y = ±(2**q) * z, z odd.  The
    sign of y is irrelevant.  Zero has no 1-bit, so the result is the
    distinct value None; callers treat it as "value vanished", never
    as position 0.
    """
    if y == 0:
        return None
    y = abs(y)
    return (y & -y).bit_length() - 1
