"""Exact integer matrices, determinants and cofactors.

All arithmetic is over Python's built-in arbitrary-precision integers,
so nothing here overflows or rounds.  One production determinant and
three oracles are provided on purpose:

* :func:`det_bareiss` is the production determinant: fraction-free
  (Bareiss) forward elimination, O(n^3) exact operations, every
  division exact.  It stops at the first column without a pivot.  Its
  elimination routine is the forward pass of :func:`cofactors` too.
* :func:`det_berkowitz` is the division-free oracle: the
  Samuelson-Berkowitz algorithm, O(n^4) multiplications, no size cap,
  so it checks the production determinant at the sizes production uses.
* :func:`det_cofactor` is last-row cofactor expansion computed bottom
  up over column bit masks, each minor's determinant once: O(2^n * n)
  products, guarded to n <= 12.
* :func:`det_lagrange` is the full signed permutation expansion, the
  n! permutations listed in Heap's order so each sign costs O(1):
  O(n * n!) products, guarded to n <= 9.  Which entries each term
  multiplies depends on n alone, so it gathers them through one index
  table per n, kept for the sizes ``verify`` runs.

The oracles exist so the production path can be cross-checked without
trusting any shared code: elimination, expansion by minors and the
permutation sum share nothing.  On the ``verify det`` inputs (entries
in [-9, 9], n = 6; CPU time per matrix, the best of 7 repetitions in
each of 4 processes, 2-core x86-64 VM, CPython 3.11.7), ``det_bareiss``
takes 0.017 ms, ``det_cofactor`` 0.085 ms and ``det_lagrange``
0.15 ms.

Every loop that needs the determinants of many minors (nonzero-diagonal
extraction, the membership oracles of ``verify``) reads them off one
adjugate instead:

* :func:`cofactors` returns ``(det, adj)``, with
  ``adj[j][i] = (-1)^(i+j) * det(minor(A, i, j))``, from one
  fraction-free LU (Bareiss 1968; Nakos, Turner and Williams 1997):
  the forward pass of :func:`det_bareiss`, then, only if every column
  found a pivot, a replay of its recorded steps on the identity and a
  back-substitution.  Every division is exact: the forward pass and
  the replay produce minors of ``[PA | P]`` (P the row swaps), and the
  back-substitution solves ``U X = det * F`` for ``X = adj(A) P^-1``,
  an integer matrix, so each numerator is its pivot times an entry of
  X.  A caller that needs the determinant and, when it is nonzero, the
  adjugate makes this one call: its forward pass is the zero test.
  Gauss-Jordan elimination on ``[A | I]``, about 1.5 n^3 products
  against about n^3, is kept in the tests as the reference.
* :func:`minor_cofactors` turns the kernel's output for A into the
  kernel's output for ``minor(A, i, j)`` in O(n^2), by the
  Desnanot-Jacobi (Sylvester) identity, so deleting one row and column
  after another costs O(n^3) in all.

Extracting a matching (``edmonds.extract_pm_trace``, which ``decide``
and ``verify`` both run) needs only which
cofactors are zero, and a nonzero residue proves an integer nonzero.
Its first tier reads the choices off the matrix's nonzero pattern and
needs only :func:`leading_minors_mod`: whether every leading principal
minor, with the columns in the order chosen, is nonzero modulo the
prime P = 1,073,741,789, by one Gaussian elimination without pivoting.
Where that fails, :func:`inverse_mod` inverts A mod P by Gauss-Jordan
elimination, and :func:`minor_inverse_mod` is :func:`minor_cofactors`
in inverse form, mod P.  A zero residue proves nothing: ``edmonds``
proves it zero another way or falls back to :func:`cofactors`, so the
results are exact whatever P is.

All three keep each row of the working matrix packed in one integer of
F-bit fields, one field per column, and update it whole: a row step is
a few big-integer operations, not one interpreter operation per entry
(residues packed into one wide integer: Dumas, Fousse and Salvy,
"Simultaneous modular reduction and Kronecker substitution for small
finite fields", J. Symbolic Computation 46, 2011).  Fields are never
subtracted from, so no borrow crosses them, and only the row a step
divides by is reduced, all its fields at once (:func:`_fold`);
:func:`inverse_mod` proves that no field reaches 2^F for
F = 62 + bitlen(n), n the size of the matrix it inverts.  It returns
the rows with F, as ``(rows, F)``, and :func:`minor_inverse_mod` and
:func:`inverse_residue` read F from there, so a caller hands the packed
inverse on and never names a width.
P is the largest prime below 2^30, so a product of two residues stays
below 2^60 and a multiplier is one CPython digit.  CPU time on one
Lovász sample of a density-1/2 graph (2-core x86-64 VM, CPython
3.11.7, best of five): the inverse and the whole extraction chain take
0.41 ms at n = 20, 2.0 ms at n = 48, 12.4 ms at n = 100 and 78 ms at
n = 200 (one operation per entry took 2.1 ms, 24 ms, 180 ms and 1.4 s
when packed rows replaced it), and the pattern tier, certificate
included, 0.23, 1.1, 5.6 and 31 ms.

The MVV finder reads only 2-adic valuations off the power matrix 2^w,
whose determinant has about 30,000 bits at n = 32.
:func:`power_det_valuation` reads them exactly without building 2^w:
it scales the exponents, factors over Z/2^K with pivots of least
valuation, and reads 2^V times the inverse mod 2^(V + 1), V the
largest pivot valuation, one modular inverse per pivot.  K need only
exceed the sum of the two largest pivot valuations (Dixon's p-adic
precision argument, proved in its docstring).  Up to K = 128
(:data:`PACKED_MAX_K`) each row of the factorization is one integer of
fields, updated whole as in :func:`inverse_mod`, packed straight from
the scaled exponents, one bit set per entry below 2^K; above it, one
list entry per matrix entry.  Either factorization returns ``lu``, each
row a list of L's strict part, the pivot and U's strict part in pivot
order (:func:`_ldu_rows` reads U out of its packed rows once, at its
end).  The Y phase, :func:`_y_rows`, takes ``lu`` from either and keeps
each row of the inverse in one integer at every K: its fields have
2V + 2 + bitlen(n + 1) bits, set by V, not K.  It returns the rows with
that width, as :func:`inverse_mod` does, and the tight test reads one
field for each entry that can pass.  So each field width is chosen
inside the one function that packs with it: 2K + 1 bits in
:func:`_ldu_rows`, 2V + 2 + bitlen(n + 1) in :func:`_y_rows`.

Both factorizations stay because each wins where it runs.  On the
exponents ``find`` draws for a density-1/2 graph with a planted
perfect matching (CPU time, 2-core x86-64 VM, CPython 3.11.7), one
factorization at a fixed K takes, packed, 0.5-0.9 of the per-entry time
at K = 64 and K = 128 for n = 6 to 100.  At the K where ``find``'s
calls end, the packed factorization takes 1.5-3 times the per-entry
time at n = 48 (K = 512 to 607) and 5.5-6.5 times at n = 100
(K = 1,559 to 1,854), where the digit work of the (2K + 1)-bit fields
outgrows the interpreter work it saves.  The Y phase does not follow
that split, as its fields do not grow with K.  On ``find``'s draws
for CI's graphs (the first at n = 16, 32, 48 and 200, the first four at
n = 100), the Y phase and the tight test on packed rows, read only
where the test can pass, take 0.45-0.75 of the time that one list
entry per matrix entry took at n = 16 to 48 and 0.8 at n = 200; at
n = 100 they take 0.93-1.25 of it per draw, 4% more over the four.
A call takes 0.36 ms at n = 12, 8.6 ms at n = 32, 66 ms at n = 64 and
0.68 s at n = 100, where :func:`cofactors` takes seconds at n = 32.
:func:`cofactors` and :func:`det_bareiss` stay its exact oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice
from math import prod
from operator import add, index, itemgetter, mul, or_
from typing import Iterable, Optional, Sequence

COFACTOR_MAX_N = 12
LAGRANGE_MAX_N = 9
# det_lagrange keeps its table for every n up to this, the largest n
# that `verify det` runs.
LAGRANGE_KEPT_N = 6
_lagrange_tables: dict[int, itemgetter] = {}
# The largest prime below 2^30: a product of two residues is below 2^60.
P = 1_073_741_789
# 2^30 = _FOLD mod P, so a field h * 2^30 + l is congruent to _FOLD * h + l.
_FOLD = (1 << 30) - P
# The largest precision K, in bits, at which power_det_valuation keeps
# each row of its factorization in one integer: up to it packed rows
# beat one list entry per matrix entry at every n measured, above it
# the packed factorization loses at n >= 48 (the module docstring has
# the times).  It picks nothing else: the Y phase is packed at every K.
PACKED_MAX_K = 128


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
            for x in row:
                index(x)  # TypeError on a float, str, Fraction, ...; bools pass

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        """The matrix of a grid of ints; bools pass as 0 and 1, and any
        other entry (a float, str, Fraction, ...) raises TypeError
        rather than being truncated or parsed."""
        return cls(tuple(tuple(map(index, row)) for row in rows))

    @classmethod
    def _from_checked(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """The matrix of rows that their caller built square (n x n,
        n >= 1) from checked data, built without checking them again."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)


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


def _eliminate(m: IntMatrix):
    """Fraction-free (Bareiss) forward elimination of m, recorded.

    At step k the pivot is the first nonzero entry of column k at or
    below row k; a row swap flips the sign.  Every later row becomes
    ``row[c] = (row[c] * piv - f * pr[c]) // prev`` with ``f = row[k]``,
    pr the pivot row and prev the previous pivot (1 at the start).
    Each entry is then a minor of m, so every division is exact.

    Returns None at the first column without a pivot: that column of
    the remaining block is zero, so m is singular.  Otherwise returns
    ``(sign, upper, steps)``: ``sign`` is the sign of the row swaps;
    ``upper[k]`` is the pivot row of step k from column k on, so
    ``upper[k][0]`` is its pivot (the previous pivot of step k + 1) and
    the last pivot is ``sign * det(m)``; ``steps[k] = (p, fs)`` records,
    for each step but the last, that row k + p was swapped into row k
    (p = 0: no swap) and the multipliers f of rows k + 1, ..., n - 1
    after it.
    """
    rows = list(m.rows)
    sign = 1
    prev = 1
    upper = []
    steps = []
    # rows holds the trailing (n - k) x (n - k) block; the finished
    # pivot row and column are dropped each step.
    while True:
        for p, pr in enumerate(rows):
            if pr[0]:
                break
        else:
            return None
        if p:
            # Swap; row 0 itself is dropped below, so it is not rewritten.
            rows[p] = rows[0]
            sign = -sign
        upper.append(pr)
        if len(rows) == 1:
            return sign, upper, steps
        piv = pr[0]
        tail = pr[1:]
        fs = []
        block = []
        for row in rows[1:]:
            f = row[0]
            fs.append(f)
            block.append([(x * piv - f * y) // prev for x, y in zip(row[1:], tail)])
        steps.append((p, fs))
        rows = block
        prev = piv


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) forward elimination.

    The sign of the row swaps times the last pivot of
    :func:`_eliminate`, or 0 as soon as a column has no pivot: O(n^3)
    exact operations, every division exact.  :func:`cofactors` runs the
    same elimination, so the two never disagree on singularity.
    """
    fwd = _eliminate(m)
    if fwd is None:
        return 0
    sign, upper, _ = fwd
    return sign * upper[-1][0]


def cofactors(m: IntMatrix) -> tuple[int, Optional[list[list[int]]]]:
    """Determinant and adjugate of m, exactly: one fraction-free LU.

    The forward pass is :func:`_eliminate`, so a singular m costs what
    :func:`det_bareiss` costs and returns ``(0, None)``.  On a
    nonsingular m the forward pass has turned PA into the upper
    triangle U by row operations E (``E @ P @ A = U``), with P the row
    swaps and d = sign * det(m) the last pivot.  The adjugate phase
    then

    * replays the recorded steps, swaps included, on the identity.  In
      the final pivot order this gives F = E: lower triangular, with
      the previous pivot of step i at (i, i), so only its strict lower
      triangle is computed.  Its entries are minors of ``[PA | P]``, so
      every division of the replay is exact;
    * back-substitutes ``U @ X = det * F`` from the bottom row up:
      ``X[i] = (det * F[i] - sum_(j > i) U[i][j] * X[j]) // U[i][i]``.
      ``X = det * (PA)^-1 = adj(m) @ P^-1`` is an integer matrix, so
      each numerator is exactly ``U[i][i] * X[i]``: every division is
      exact;
    * returns ``adj(m) = X @ P``: column k of X becomes the column of
      the row that step k pivoted on.

    The result is ``(det, adj)`` with
    ``adj[j][i] = (-1)^(i+j) * det(minor(m, i, j))`` (``[[1]]`` for a
    1x1 matrix).  About n^3 / 3 products in the forward pass, n^3 / 6
    in the replay and n^3 / 2 in the back-substitution, against about
    1.5 n^3 for Gauss-Jordan elimination on ``[A | I]``.  Nothing is
    retained between calls.
    """
    fwd = _eliminate(m)
    if fwd is None:
        return 0, None
    sign, upper, steps = fwd
    n = len(upper)
    pivots = [row[0] for row in upper]
    d = pivots[-1]
    if n == 1:
        return sign * d, [[1]]
    # low[r]: strict lower triangle of row r of F, in the current row
    # order; perm[r]: the row of m now at row r.  Step 0 leaves -f in
    # column 0, since F's diagonal entry there is 1.
    p, fs = steps[0]
    perm = list(range(n))
    perm[0], perm[p] = p, 0
    low = [[]] + [[-f] for f in fs]
    for k in range(1, n - 1):
        p, fs = steps[k]
        if p:
            low[k], low[k + p] = low[k + p], low[k]
            perm[k], perm[k + p] = perm[k + p], perm[k]
        pr = low[k]
        piv = pivots[k]
        prev = pivots[k - 1]
        for r, f in enumerate(fs, k + 1):
            # F[k][k] = prev and F[r][k] = 0, so F[r][k] becomes -f.
            row = [(x * piv - f * y) // prev for x, y in zip(low[r], pr)]
            row.append(-f)
            low[r] = row
    # cols[c] holds column c of X from the bottom up.  U's last pivot
    # is d, so X's last row is sign times F's: low[-1] and F's diagonal
    # entry there, the previous pivot.
    det = sign * d
    cols = [[sign * x] for x in low[-1]]
    cols.append([sign * pivots[-2]])
    for i in range(n - 2, -1, -1):
        ur = upper[i][:0:-1]  # U[i][n-1], ..., U[i][i+1]
        pv = pivots[i]
        dfi = [det * x for x in low[i]]
        dfi.append(det * pivots[i - 1] if i else det)
        for fd, col in zip(dfi, cols):
            col.append((fd - sum(map(mul, ur, col))) // pv)
        for col in cols[i + 1:]:
            col.append(-sum(map(mul, ur, col)) // pv)
    adj_cols = [None] * n
    for c, col in enumerate(cols):
        adj_cols[perm[c]] = col
    adj = list(map(list, zip(*adj_cols)))
    adj.reverse()
    return det, adj


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


def _ones(bits: int, width: int) -> int:
    """``width`` fields of ``bits`` bits, each holding 1: times x, x in
    every field."""
    return ((1 << bits * width) - 1) // ((1 << bits) - 1)


def _pack(row: Sequence[int], bits: int, modulus: int) -> int:
    """One integer whose field t, bits ``t * bits`` up to
    ``(t + 1) * bits``, holds ``row[t] % modulus``, for a modulus of at
    most 2^bits."""
    x = 0
    for v, s in zip(row, range(0, len(row) * bits, bits)):
        if v:
            x |= v % modulus << s
    return x


def _pack_powers(row: Sequence[Optional[int]], bits: int, k_bits: int) -> int:
    """:func:`_pack` of the row 2^row mod 2^K, K = ``k_bits`` at most
    ``bits``, read off the exponents: an exponent x < K in field t sets
    bit ``t * bits + x`` and nothing else, and None or x >= K leaves
    field t 0."""
    x = 0
    for v, s in zip(row, range(0, len(row) * bits, bits)):
        if v is not None and v < k_bits:
            x |= 1 << s + v
    return x


def _masks(bits: int, width: int) -> tuple[int, int, int]:
    """``width`` fields of ``bits`` bits holding, in every field,
    2^30 - 1, then 2^(bits - 30) - 1, then 2P."""
    ones = _ones(bits, width)
    return ones * ((1 << 30) - 1), ones * ((1 << (bits - 30)) - 1), ones * (2 * P)


def _fold(x: int, bound: int, lo: int, hi: int) -> int:
    """x with every field, each below ``bound``, made congruent mod P and
    below 2P, all at once; ``lo`` and ``hi`` come from :func:`_masks`.

    A field ``h * 2^30 + l`` with l < 2^30 becomes ``l + 35 h``, as
    2^30 = 35 mod P: ``x & lo`` keeps every l and ``(x >> 30) & hi``
    every h, and the new field is below ``2^30 + 35 (bound >> 30)``,
    so no field grows.  A round takes about 25 bits off the bound; from
    a bound of 2^31 or less it leaves 2^30 + 35 < 2P.
    """
    while bound > 2 * P:
        x = (x & lo) + _FOLD * ((x >> 30) & hi)
        bound = (1 << 30) + _FOLD * ((bound - 1) >> 30)
    return x


def _scale(x: int, t: int, bits: int, lo: int, hi: int) -> int:
    """x, every field below 2^bits, folded below 2P, times the residue
    t and folded below 2P again: the scaled pivot row of every packed
    elimination mod P, each of its fields in [0, 2P)."""
    return _fold(_fold(x, 1 << bits, lo, hi) * t, 2 * P * P, lo, hi)


def inverse_mod(m: IntMatrix) -> Optional[tuple[list[int], int]]:
    """Inverse of m modulo the prime :data:`P`, packed, or None when
    det(m) is 0 mod P.

    Returns ``(rows, F)``: ``rows[c]`` is row c of the inverse, one
    integer whose field i, bits ``i * F`` to ``(i + 1) * F - 1``, is
    congruent mod P to ``inverse[c][i]``; fields are not reduced.  The
    field width F = 62 + bitlen(n) is the bound proved below, and it
    travels with the rows, so :func:`inverse_residue` and
    :func:`minor_inverse_mod` read it from there.

    *Elimination.*  Gauss-Jordan elimination of ``[m | I]``, every row
    one integer: the columns of m not yet eliminated in the low fields,
    column k lowest at step k, then the n columns of I in order.  At
    step k the pivot is the first row at or below row k whose lowest
    field is nonzero mod P; it is swapped into row k.  Column k then
    leaves every row by one shift, ``row >> F``, so after step n - 1
    the fields hold the inverse in its own column order and the swaps
    need no undoing.  The 1 of I in row q is added when row q becomes
    the pivot: until then no pivot row is nonzero in that column mod P,
    so it would only gather multiples of P, and the rows stay about n
    fields wide, not 2n, while the pivots come near row order.

    *Update.*  The pivot row is folded below 2P (:func:`_fold`), scaled
    by the inverse of its pivot and folded again; it is the only row
    reduced.  Every other row becomes ``(row >> F) + f * (2P - y)``,
    field by field, with f the residue of its lowest field and y the
    pivot row's field.  Adding ``f * (2P - y)`` where f * y is due
    keeps every field nonnegative, so no borrow crosses a field.

    *Field bound.*  Every field starts below P (entries enter reduced)
    and gains 1 at most once (the 1 of I) before its row is folded
    below 2P as a pivot.  Each step adds less than ``P * 2P`` to a
    field of every other row, and a row meets at most n - 1 steps
    since it was last folded, so after the elimination every field is
    below ``2P + 2 (n - 1) P^2``.  Each of the at most n - 1 steps of
    :func:`minor_inverse_mod` adds one more term below 2P^2.  So every
    field stays below ``2P + 4 (n - 1) P^2 < 4n * 2^60 <= 2^F``, and
    nothing ever carries into the next field.

    n steps of n rows, each a shift, a one-digit multiply and an add on
    a row of about n fields.  None means some column had no nonzero
    residue left: det(m) is 0 mod P, which a nonzero det divisible by
    P also gives.
    """
    n = m.n
    bits = 62 + n.bit_length()
    mask = (1 << bits) - 1
    lo, hi, pp = _masks(bits, 2 * n)
    rows = [_pack(row, bits, P) for row in m.rows]
    # orig[r]: the row of m now at row r, for r >= k.
    orig = list(range(n))
    for k in range(n):
        for p in range(k, n):
            if (rows[p] & mask) % P:
                break
        else:
            return None
        # The pivot takes its 1 of I, at field n - k + orig[p].
        pr = rows[p] + (1 << (n - k + orig[p]) * bits)
        rows[p], orig[p] = rows[k], orig[k]
        t = pow(pr & mask, -1, P)
        pr = _scale(pr >> bits, t, bits, lo, hi)
        width = -(-pr.bit_length() // bits)
        neg = (pp >> (2 * n - width) * bits) - pr
        rows = [(row >> bits) + (row & mask) % P * neg for row in rows]
        rows[k] = pr
    return rows, bits


def leading_minors_mod(m: IntMatrix, order: Sequence[int]) -> bool:
    """Whether every leading principal minor of m with its columns taken
    in ``order`` is nonzero modulo the prime :data:`P`: for each k, the
    determinant of rows 0..k - 1 of m on columns ``order[:k]``.

    Gaussian elimination without pivoting on the rows of that column
    permutation of m, each packed as in :func:`inverse_mod` in fields of
    the same width F = 62 + bitlen(n), column ``order[k]`` in field k.
    The leading minors are the products of the first pivots, so they
    are all nonzero mod P exactly when every pivot, the lowest field of
    row k at step k, is; the first that is not answers False.  The pivot
    row is folded, scaled and folded as in :func:`inverse_mod`, and
    every row below it becomes ``(row >> F) + f * (2P - y)``, so each
    row loses a field per step.  A row meets at most n - 1 steps before
    it is the pivot row, so every field stays below
    ``P + 2 (n - 1) P^2``, within :func:`inverse_mod`'s bound.
    n (n - 1) / 2 row steps, against the n^2 of :func:`inverse_mod` on
    rows of up to 2n fields.
    """
    n = m.n
    bits = 62 + n.bit_length()
    mask = (1 << bits) - 1
    lo, hi, pp = _masks(bits, n)
    rows = [_pack([row[c] for c in order], bits, P) for row in m.rows]
    for k in range(n):
        pr = rows[k]
        piv = (pr & mask) % P
        if not piv:
            return False
        if k + 1 < n:
            neg = (pp >> (k + 1) * bits) - _scale(pr >> bits, pow(piv, -1, P), bits, lo, hi)
            rows[k + 1:] = [(row >> bits) + (row & mask) % P * neg for row in rows[k + 1:]]
    return True


def inverse_residue(inv: tuple[Sequence[int], int], c: int, i: int) -> int:
    """``inverse[c][i] mod P``, read off the packed inverse ``inv`` of
    :func:`inverse_mod` or :func:`minor_inverse_mod`."""
    rows, bits = inv
    return (rows[c] >> i * bits & ((1 << bits) - 1)) % P


def minor_inverse_mod(inv: tuple[Sequence[int], int], j: int) -> tuple[list[int], int]:
    """Packed inverse mod P of ``minor(A, n - 1, j)`` from ``inv``, the
    packed inverse of the n x n matrix A, in the same ``(rows, F)``
    form and field width.

    ``inv`` comes from :func:`inverse_mod`, or from this function.  Row
    j's top field, ``inverse[j][n - 1] = det(minor) / det(A)``, must be
    nonzero mod P.
    This is :func:`minor_cofactors` in inverse form (Desnanot-Jacobi):
    the minor's inverse is the inverse without row j and column n - 1,
    minus ``inverse[r][n - 1] * inverse[j][s] / inverse[j][n - 1]``, a
    rank-one update.  Column n - 1 is every row's top field, so one
    mask drops it, and row j leaves the list.  Row j is folded, scaled
    and folded as a pivot row is, and every other row becomes
    ``(row & low) + f * (2P - g)``, f the residue of its top field:
    one more term below 2P^2 per field, within :func:`inverse_mod`'s
    bound.  n rows of a few big-integer operations each.
    """
    rows, bits = inv
    i = len(rows) - 1
    shift = i * bits
    low = (1 << shift) - 1
    lo, hi, pp = _masks(bits, i)
    row_j = rows[j]
    t = pow((row_j >> shift) % P, -1, P)
    neg = pp - _scale(row_j & low, t, bits, lo, hi)
    return [(row & low) + (row >> shift) % P * neg for r, row in enumerate(rows) if r != j], bits


def _ldu_mod(e: Sequence[Sequence[Optional[int]]], k_bits: int):
    """LDU factorization of the power matrix 2^e over Z/2^K, K =
    ``k_bits``, with full pivoting on the least 2-adic valuation.

    ``e`` holds integer exponents, None where the matrix is 0; an entry
    2^x with x >= K is 0 mod 2^K.  Each step takes a pivot of least
    valuation in the trailing block: an odd entry of the first
    remaining row when it has one, as 0 is the least valuation.  With
    the pivot d = 2^v u (u odd), every entry x below it becomes the
    multiplier ``(x >> v) * u^-1``, the trailing block takes its Schur
    complement, and the pivot row's tail is divided by d the same way.
    Up to K = :data:`PACKED_MAX_K` this is :func:`_ldu_rows`, one
    integer per row, packed straight from the exponents; above it,
    :func:`_ldu_entries` on the residues :func:`_power_mod`, one list
    entry per matrix entry.  Which least-valuation entry each picks may
    differ, but not the pivot valuations (:func:`power_det_valuation`).

    Returns None when the trailing block of some step is 0 mod 2^K, else
    ``(rows, cols, lu, pivots)``: with ``B[k][l] = 2^e[rows[k]][cols[l]]``
    (0 where None), ``B = L diag(pivots) U`` mod 2^K, L and U unit
    triangular.  Both representations return the same layout:
    ``lu[k]`` is a list of n residues mod 2^K, entry (k, l) of L's
    strict part at l < k, pivot k at l = k and entry (k, l) of U's
    strict part at l > k, all in pivot order.  L's column k and U's row
    k are known mod 2^(K - v_k), v_k the valuation of pivot k.
    """
    if k_bits <= PACKED_MAX_K:
        return _ldu_rows(e, k_bits)
    return _ldu_entries(_power_mod(e, k_bits), k_bits)


def _ldu_entries(a: Sequence[Sequence[int]], k_bits: int):
    """:func:`_ldu_mod` on lists, one list entry per matrix entry, of
    the integer matrix a (the power matrix's residues, or any other).

    The working array starts as a mod 2^K and is factored in place.  At
    step k the pivot is the first odd entry of row k's trailing part, or
    else the first entry of least valuation in the trailing block
    (row-major).  It is moved to (k, k) by swapping two whole rows and
    two whole columns, so L's finished columns travel with the rows and
    U's finished rows with the columns.
    """
    n = len(a)
    mask = (1 << k_bits) - 1
    lu = [[x & mask for x in row] for row in a]
    rows = list(range(n))
    cols = list(range(n))
    pivots = []
    for k in range(n):
        # An odd entry of row k has the least valuation, 0.
        r = k
        c = next((t for t, x in enumerate(lu[k][k:], k) if x & 1), None)
        if c is None:
            ors = [reduce(or_, row[k:]) for row in lu[k:]]
            low = reduce(or_, ors)
            if not low:
                return None
            low &= -low
            r = k + next(t for t, x in enumerate(ors) if x & low)
            c = k + next(t for t, x in enumerate(lu[r][k:]) if x & low)
        else:
            low = 1
        if r != k:
            lu[k], lu[r] = lu[r], lu[k]
            rows[k], rows[r] = rows[r], rows[k]
        if c != k:
            for row in lu:
                row[k], row[c] = row[c], row[k]
            cols[k], cols[c] = cols[c], cols[k]
        pr = lu[k]
        d = pr[k]
        pivots.append(d)
        if k == n - 1:
            break
        v = low.bit_length() - 1
        inv = pow(d >> v, -1, mask + 1)
        tail = pr[k + 1:]
        for row in lu[k + 1:]:
            f = ((row[k] >> v) * inv) & mask
            row[k] = f
            if f:
                row[k + 1:] = [(x - f * y) & mask for x, y in zip(row[k + 1:], tail)]
        pr[k + 1:] = [((y >> v) * inv) & mask for y in tail]
    return rows, cols, lu, pivots


def _ldu_rows(e: Sequence[Sequence[Optional[int]]], k_bits: int):
    """:func:`_ldu_mod` on packed rows: each row of the working matrix
    is one integer of F-bit fields, F = 2K + 1, field c (bits ``c * F``
    up to ``(c + 1) * F``) holding column c of the matrix.  L's rows are
    lists from the start; U's row k stays packed until the end, when its
    fields ``cols[k + 1:]`` are read once into ``lu[k]``.

    ``e`` holds exponents, as :func:`_ldu_mod` takes them, and each row
    is packed straight from them (:func:`_pack_powers`), so no residue
    grid is built.

    Columns never move, so a field names its column, and rows are
    swapped whole.  Once a column is pivoted on, its field is 0 in every
    row below the pivot.  At step k the pivot is the highest odd field
    of row k (``row & ones``), or else, with v the least valuation of
    any field of the remaining rows (their OR, folded onto one field),
    the highest field with bit v set in the first row that has one.
    Taking the highest leaves the zero fields of pivoted columns mostly
    at the top, so the remaining rows shrink as the elimination goes on.

    A row below the pivot becomes ``(row + f * neg) & mask``, f its
    multiplier, where ``neg`` holds 2^K - y in the field of every column
    not yet pivoted, y the pivot row's entry there, and 0 elsewhere.  No
    field is subtracted from, so none borrows; a field becomes x + f
    (2^K - y) <= (2^K - 1) + (2^K - 1) 2^K < 2^(2K), so none carries;
    and the AND reduces every field mod 2^K at once, which leaves x - f
    d = 0 in the pivot column.  The pivot row's other fields become
    ``((row >> v) * u^-1) & mask``: one shift divides every field by
    2^v, as each has valuation at least v.
    """
    n = len(e)
    bits = 2 * k_bits + 1
    mask = (1 << k_bits) - 1
    ones = _ones(bits, n)
    full = ones * mask
    packed = [_pack_powers(row, bits, k_bits) for row in e]
    lower = [[] for _ in range(n)]
    rows = list(range(n))
    cols = []
    pivots = []
    # 2^K in the field of every column not yet pivoted.
    top = ones << k_bits
    for k in range(n):
        r = k
        hit = packed[k] & ones
        if hit:
            v = 0
        else:
            rest = reduce(or_, packed[k:])
            if not rest:
                return None
            # OR the fields onto the lowest: its lowest bit is then v.
            span = n
            while span > 1:
                span = (span + 1) // 2
                rest = rest & (1 << span * bits) - 1 | rest >> span * bits
            v = (rest & -rest).bit_length() - 1
            sel = ones << v
            r = next(t for t in range(k, n) if packed[t] & sel)
            hit = packed[r] & sel
        if r != k:
            packed[k], packed[r] = packed[r], packed[k]
            lower[k], lower[r] = lower[r], lower[k]
            rows[k], rows[r] = rows[r], rows[k]
        pr = packed[k]
        pos = (hit.bit_length() - 1) // bits * bits
        d = pr >> pos & mask
        cols.append(pos // bits)
        pivots.append(d)
        # U's row k: the pivot row's other fields, divided by d below.
        packed[k] = pr ^ d << pos
        if k == n - 1:
            break
        inv = pow(d >> v, -1, mask + 1)
        neg = top - pr
        top ^= 1 << pos + k_bits
        at = pos + v
        low = mask >> v
        for t, row in enumerate(packed[k + 1:], k + 1):
            f = row >> at & low
            if f:
                f = f * inv & mask
                packed[t] = (row + f * neg) & full
            lower[t].append(f)
        packed[k] = (packed[k] >> v) * inv & full
    at = [c * bits for c in cols]
    lu = [lk + [d] + [uk >> s & mask for s in at[k + 1:]]
          for k, (lk, d, uk) in enumerate(zip(lower, pivots, packed))]
    return rows, cols, lu, pivots


def _y_rows(lu, scales, mask):
    """Y' = U^-1 diag(scales) L^-1 mod ``mask + 1``, ``mask = 2^(V + 1)
    - 1``, from the ``lu`` of :func:`_ldu_mod`, packed: returns
    ``(rows, G)``, ``rows[l]`` row l of Y' as one integer whose field m,
    bits ``m * G`` up to ``(m + 1) * G``, holds ``Y'[l][m]`` reduced mod
    2^(V + 1), with G = 2 (V + 1) + bitlen(n + 1).

    Each row of L^-1 is packed the same way.  Row k of L^-1 is e_k plus
    ``(-L[k][t]) & mask`` times row t over t < k, and row l of Y' is
    ``scales[l]`` times row l of L^-1 plus ``(-U[l][t]) & mask`` times
    row t of Y' over t > l: at most n products of two numbers below
    2^(V + 1) per field, below 2^G, so no field carries and one AND per
    row reduces them all.
    """
    n = len(lu)
    bits = 2 * mask.bit_length() + (n + 1).bit_length()
    full = _ones(bits, n) * mask
    inv_l = []
    for k, lk in enumerate(lu):
        x = 1 << k * bits
        for f, z in zip(lk, inv_l):
            if f:
                x += (-f & mask) * z
        inv_l.append(x & full)
    # y holds the rows of Y' from the bottom up.  Row l of L^-1 is read
    # only for row l of Y', so it is dropped there.
    y = []
    for l in range(n - 1, -1, -1):
        x = scales[l] * inv_l.pop()
        for u, z in zip(lu[l][:l:-1], y):
            f = -u & mask
            if f:
                x += f * z
        y.append(x & full)
    y.reverse()
    return y, bits


def _power_mod(e: Sequence[Sequence[Optional[int]]], k_bits: int) -> list[list[int]]:
    """The power matrix 2^e mod 2^K, K = ``k_bits``: 2^x where an
    exponent x is below K, and 0 where it is at least K or None.  Only
    :func:`_ldu_entries` reads it; :func:`_ldu_rows` packs 2^x
    itself."""
    return [[0 if x is None or x >= k_bits else 1 << x for x in row] for row in e]


def power_det_valuation(
    w: Sequence[Sequence[Optional[int]]],
) -> Optional[tuple[int, list[tuple[int, int]]]]:
    """2-adic data of the power matrix ``A = 2^w``, exactly, without
    building A: the valuation p of det(A), and the entries whose
    cofactor has valuation exactly p minus their exponent.

    ``w[i][j]`` is an integer exponent, or None where A is 0.  Returns
    None when det(A) = 0, else ``(p, tight)``: ``tight`` lists, in
    row-major order, the (i, j) with ``trailing_zeros(adj(A)[j][i]) ==
    p - w[i][j]``.  These are the only facts about A that the MVV finder
    reads (Mulmuley, Vazirani and Vazirani 1987), and they agree exactly
    with :func:`cofactors` on A: this is not a Monte Carlo shortcut.

    *Scale* (Kuhn 1955: the Hungarian method's reduction, on exponents).
    r_i is the least exponent in row i and c_j the least in column j
    after the rows are reduced, so ``w' = w - r_i - c_j >= 0`` and every
    line of ``A' = 2^w'`` holds a 1.  With ``s = sum(r) + sum(c)``,
    ``det(A) = 2^s det(A')`` and ``adj(A)[j][i] = 2^(s - r_i - c_j)
    adj(A')[j][i]``, so ``p = p' + s`` and the rule keeps its form on
    A': ``v(adj(A')[j][i]) == p' - w'[i][j]``.  Scaling removes the part
    of every valuation that no cancellation can touch; the numbers below
    carry O(p') bits instead of the thousands that 2^w has at n = 32.
    A' is not held either, only w': each factorization reads A' mod
    2^K, which is 2^w' where w' < K and 0 elsewhere, and takes w'
    itself (:func:`_ldu_mod`), as do Hadamard's bound and the tight
    test below.

    *Factor over Z/2^K* (:func:`_ldu_mod`).  A pivot of least valuation
    v divides its whole row and column 2-adically, so every multiplier
    and Schur complement entry is a 2-adic integer, and elimination mod
    2^K is the exact elimination read mod 2^K (the p-adic precision
    argument of Dixon, "Exact solution of linear equations using p-adic
    expansions", 1982).  Each entry of the next Schur complement, x - f
    y, has valuation at least v, so the pivot valuations are
    nondecreasing: ``v_0 <= ... <= v_(n-2) <= v_(n-1) = V``.  Once every
    pivot ``d_k = 2^v_k u_k`` (u_k odd) is nonzero mod 2^K its
    valuation is exact, ``det(A') = ±prod(d_k)`` and ``p' = sum(v_k)``.

    *Read Y = 2^V A'^-1.*  As ``adj(A') = det(A') A'^-1``, the rule on
    A' reads ``v(Y[j][i]) == V - w'[i][j]``, that is
    ``Y[j][i] * 2^w'[i][j] == 2^V`` mod 2^(V + 1).  Undoing the row and
    column swaps, ``Y[cols[l]][rows[m]] = Y'[l][m]`` with
    ``Y' = U^-1 D L^-1``, D the diagonal of the scales
    ``2^V / d_k = 2^(V - v_k) u_k^-1``.  Every factor is a 2-adic
    integer, so Y is one too, and it is formed mod 2^(V + 1) only; a
    scale mod 2^(V + 1) needs u_k^-1 only mod 2^(v_k + 1).

    *Precision: K = V + v_(n-2) + 1 suffices* (v_(n-2) = 0 when n = 1).
    Term k of Y'[l][m] is ``x_k * 2^(V - v_k) u_k^-1 * y_k`` with
    ``x_k = U^-1[l][k]`` and ``y_k = L^-1[k][m]``.  These outer factors
    are sums of products of U's rows l..k-1 and L's columns m..k-1
    only, and U's row t and L's column t are known mod 2^(K - v_t), so
    ``x_k y_k`` is known mod 2^(K - v_(k-1)), at least mod
    ``2^(K - v_(n-2)) = 2^(V + 1)``; d_k is known mod 2^K, so u_k is
    known mod 2^(K - v_k).  For k < n - 1, ``K - v_k >= v_k + 1`` as
    ``2 v_k <= v_(n-2) + V``, so term k is exact mod 2^(V + 1).  The
    last term has scale u^-1, u = u_(n-1), and u is known only mod
    ``2^(K - V) = 2^(v_(n-2) + 1)``: the term is read as
    ``x y u^-1 (1 + δ)``, ``v(δ) >= v_(n-2) + 1``, and x and y (column
    n - 1 of U^-1, row n - 1 of L^-1) are exact mod 2^(V + 1).  Let
    ``a = v(x y)``.

    * If ``a >= V - v_(n-2)``, the error ``x y u^-1 δ`` has valuation at
      least ``a + v_(n-2) + 1 >= V + 1``: it lies above bit V, and the
      entry is exact mod 2^(V + 1).
    * If ``a < V - v_(n-2)``, every other term has valuation at least
      ``V - v_k >= V - v_(n-2) > a``, so the entry's valuation is a, read
      or exact: the unit factor does not change it.  Both fail the test
      or pass it alike, since ``z * 2^w' == 2^V`` mod 2^(V + 1) says only
      that ``v(z) + w' == V``.

    *Precision schedule.*  K starts at 64 and doubles while a pivot
    vanishes mod 2^K; if then ``K <= V + v_(n-2)``, the factorization
    is rerun at K = V + v_(n-2) + 1, where no pivot vanishes as every
    ``v_k <= V``.  The rerun may take other pivots than the pass before
    it, on the same representation or the other, but not other
    valuations: with a pivot of least valuation at every step,
    ``v_0 <= ... <= v_(n-1)`` are the valuations of the invariant
    factors of A' (its Smith form over the 2-adic integers), whichever
    entry of least valuation a step takes, and each Schur complement is
    exact mod 2^K, so the factorization mod 2^K reads every ``v_k < K``
    and fails exactly when some ``v_k >= K``.  So V and v_(n-2), and
    the precision proof with them, depend on neither the representation
    nor the tie-break.

    *Representation.*  Up to K = :data:`PACKED_MAX_K` the factorization
    keeps each row of the working matrix in one integer, a field of
    2K + 1 bits per column (:func:`_ldu_rows`): a row step leaves every
    field below 2^(2K), so none carries into the next.  Each row starts
    as the bits ``c (2K + 1) + w'`` set for the w' < K of its columns
    c, read off w' with no grid of residues in between.  Above that K,
    one list entry per matrix entry is faster (:func:`_ldu_entries`, on
    the residues :func:`_power_mod`; the module docstring has the
    times).  Both return the same ``lu`` layout, so the code below picks
    the factorization by K alone and hands on no K, column order or
    field width.  The Y phase after either keeps each row of L^-1 and
    of Y' in one integer with fields of G = 2V + 2 + bitlen(n + 1) bits
    (:func:`_y_rows`): a row is a sum of at most n products of two
    residues below 2^(V + 1), below n 2^(2V + 2) per field.  It returns
    the rows with G, and each field is reduced mod 2^(V + 1), so one
    shift and one AND read an entry.  Both factorizations give the same
    ``(p, tight)``.

    *Proof of zero* (Hadamard's bound).  If det(A') != 0, then
    ``2^p' <= |det(A')| <= prod_i ||row_i|| < 2^h`` with
    ``h = sum_i ceil(bitlen(sum_j 4^w'[i][j]) / 2)``, so every
    ``v_k <= p' < h`` and no pivot vanishes mod 2^K once K >= h.  A
    pivot that vanishes at K >= h therefore proves det(A) = 0.  A caller
    that first rules out a structurally singular A (no perfect matching
    in its pattern) meets this only through exact cancellation.

    The factorization and the Y phase make O(n^3) operations on
    residues mod 2^K and their products, numbers of at most 2K +
    bitlen(n) bits, where K <= max(64, 2V + 1) once det(A) != 0: K
    doubles past 64 only after a pivot of valuation at least K / 2
    vanished.  Packed, they make O(n^2) operations on rows of n fields.
    """
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
    # The scaled exponents w', None where A' is 0.
    e = [
        [None if x is None else x - ri - cj for x, cj in zip(row, c)]
        for row, ri in zip(w, r)
    ]
    k_bits = 64
    hadamard = None  # Hadamard's bound, read only once a pivot vanishes
    while (fac := _ldu_mod(e, k_bits)) is None:
        if hadamard is None:
            hadamard = sum(
                (sum(1 << 2 * x for x in row if x is not None).bit_length() + 1) // 2
                for row in e
            )
        if k_bits >= hadamard:
            return None
        k_bits *= 2
    vals = [trailing_zeros(d) for d in fac[3]]  # nondecreasing
    vmax = vals[-1]
    if k_bits <= sum(vals[-2:]):
        k_bits = sum(vals[-2:]) + 1
        fac = _ldu_mod(e, k_bits)
    rows, cols, lu, pivots = fac
    mask = (2 << vmax) - 1
    scales = [pow(d >> v, -1, 2 << v) << (vmax - v) for d, v in zip(pivots, vals)]
    yrows, bits = _y_rows(lu, scales, mask)
    # Field m of yrows[l] is Y'[l][m] = 2^V A'^-1[j][i] with (i, j) =
    # (rows[m], cols[l]), and its valuation is V - w'[i][j] iff Y'[l][m]
    # * 2^w'[i][j] has valuation exactly V.  Where w'[i][j] > V the
    # product's low V + 1 bits are 0, so only w'[i][j] <= V can pass.
    # Walking w' row-major reads Y' only there, one field per entry, and
    # lists the tight entries in order.
    n = len(e)
    y_of = [None] * n  # y_of[j]: row l of Y' with cols[l] = j
    for j, yl in zip(cols, yrows):
        y_of[j] = yl
    at = [0] * n  # at[i]: the offset of field m, rows[m] = i
    for m, i in enumerate(rows):
        at[i] = m * bits
    top = 1 << vmax
    tight = [
        (i, j)
        for i, row in enumerate(e)
        for j, x in enumerate(row)
        if x is not None and x <= vmax and (y_of[j] >> at[i] & mask) << x & mask == top
    ]
    return sum(vals) + sum(r) + sum(c), tight


def det_cofactor(m: IntMatrix) -> int:
    """Exact determinant by cofactor expansion along the last row.

    Oracle only, refuses n > 12.  Every minor the expansion meets keeps
    the leading rows of m, as many as it has columns, so its column set
    alone names it.  The minors are computed bottom up over column bit
    masks in increasing order, each once: ``dets[mask]`` expands row
    popcount(mask) - 1 over the columns in ``mask``, each term reading
    the smaller ``dets[mask ^ bit]``.  That is O(2^n * n) products
    rather than the n! of plain recursion.
    """
    n = m.n
    if n > COFACTOR_MAX_N:
        raise ValueError(f"det_cofactor limited to n <= {COFACTOR_MAX_N}, got n={n}")
    rows = m.rows
    dets = [1] * (1 << n)  # dets[0]: the empty minor
    for mask in range(1, 1 << n):
        row = rows[mask.bit_count() - 1]
        total, sign, rest = 0, 1, mask
        # Columns from the highest down: the last one's cofactor sign is +.
        while rest:
            bit = 1 << (rest.bit_length() - 1)
            entry = row[bit.bit_length() - 1]
            if entry:
                total += sign * entry * dets[mask ^ bit]
            sign, rest = -sign, rest ^ bit
        dets[mask] = total
    return dets[-1]


def _lagrange_table(n: int) -> itemgetter:
    """The flat indices ``r * n + sigma(r)`` of every permutation sigma
    of range(n), n >= 2, as one ``itemgetter``: the even permutations'
    first, then the odd ones'.  Applied to the row-major entries of an
    n x n matrix it returns the factors of every term of the
    determinant, n per term.

    The permutations come in Heap's order (B. R. Heap, 1963), where each
    differs from the one before by a single transposition, so the
    parity flips once per step instead of being recounted."""
    perm = list(range(n))
    starts = range(0, n * n, n)
    # counters[i] counts the swaps made at level i since it was last reset
    counters = [0] * n
    blocks = ([], [])  # even, odd
    parity = 0
    i = 1
    while True:
        blocks[parity].extend(map(add, starts, perm))
        while i < n and counters[i] == i:
            counters[i] = 0
            i += 1
        if i == n:
            return itemgetter(*blocks[0], *blocks[1])
        k = counters[i] if i % 2 else 0
        perm[k], perm[i] = perm[i], perm[k]
        parity ^= 1
        counters[i] += 1
        i = 1


def det_lagrange(m: IntMatrix) -> int:
    """Exact determinant as the signed sum over all n! permutations.

    Oracle only, refuses n > 9.  One :func:`_lagrange_table` call takes
    every factor of every term off the flattened rows, ``math.prod``
    multiplies them n at a time, and the odd terms' sum is subtracted
    from the even terms': O(n * n!) products.  The table depends on n
    alone, so the tables for n <= :data:`LAGRANGE_KEPT_N` (40 KB in
    all) are built once and kept; a larger one (3.3 million indices
    at n = 9) is built for its call and dropped.
    """
    n = m.n
    if n > LAGRANGE_MAX_N:
        raise ValueError(f"det_lagrange limited to n <= {LAGRANGE_MAX_N}, got n={n}")
    if n == 1:
        # A one-index itemgetter returns the entry, not a tuple.
        return m.rows[0][0]
    take = _lagrange_tables.get(n)
    if take is None:
        take = _lagrange_table(n)
        if n <= LAGRANGE_KEPT_N:
            _lagrange_tables[n] = take
    factors = take(list(chain.from_iterable(m.rows)))
    terms = map(prod, zip(*[iter(factors)] * n))
    even = sum(islice(terms, len(factors) // (2 * n)))
    return even - sum(terms)


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
