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
CPython 3.11.7), ``det_bareiss`` takes 0.032 ms, ``det_cofactor``
0.14 ms and ``det_lagrange`` 0.74 ms.

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

Lovász's test in ``decide`` needs only which cofactors are zero, and a
nonzero residue proves an integer nonzero.  :func:`inverse_mod` inverts
A modulo the prime P = 1,073,741,789 by Gauss-Jordan elimination, about
n^3 multiply-adds, and :func:`minor_inverse_mod` is
:func:`minor_cofactors` in inverse form, mod P.  A zero residue proves
nothing: ``edmonds`` proves it zero another way or falls back to
:func:`cofactors`, so the results are exact whatever P is.  P is the
largest prime below 2^30 for speed alone: CPython stores an integer in
30-bit digits, so every residue is one digit and takes the
interpreter's small-integer fast paths.  Modulo 2^61 - 1 residues
span three digits: on one n = 20 Lovász sample (CPU time, 2-core
x86-64 VM, CPython 3.11.7) the same extraction took 3.3-3.5 ms against
2.1 ms, no faster than the exact path's 2.7-3.9 ms.

The MVV finder reads only 2-adic valuations off the power matrix 2^w,
whose determinant has about 30,000 bits at n = 32.
:func:`power_det_valuation` reads them exactly without building 2^w:
it scales the exponents, factors over Z/2^K with pivots of least
valuation, and needs K just above the scaled valuation, so a trial
at n = 32 costs tens of milliseconds where :func:`cofactors` takes
seconds.  :func:`cofactors` and :func:`det_bareiss` stay its exact
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul, or_
from typing import Iterable, Optional, Sequence

COFACTOR_MAX_N = 12
LAGRANGE_MAX_N = 9
# The largest prime below 2^30: every residue is one CPython digit.
P = 1_073_741_789


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


def inverse_mod(m: IntMatrix) -> Optional[list[list[int]]]:
    """Inverse of m modulo the prime :data:`P`, or None when det(m) is
    0 mod P.

    In-place Gauss-Jordan elimination, about n^3 multiply-adds: at step
    k the pivot is the first entry of column k, at or below row k, that
    is nonzero mod P; its row is scaled by the pivot's inverse and
    subtracted from every other row, and column k takes the inverse's
    column in its place.  Only the pivot row and the multipliers are
    reduced during the elimination, so every other entry is reduced
    once at the end.  The row swaps become column swaps of the result,
    undone in reverse order.  None means some column has no nonzero
    residue left: det(m) is 0 mod P, which a nonzero det divisible by P
    also gives.
    """
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


def minor_inverse_mod(inv: Sequence[Sequence[int]], i: int, j: int) -> list[list[int]]:
    """Inverse mod P of ``minor(A, i, j)`` from ``inv``, the inverse of
    A mod P, in O(n^2).

    ``inv[j][i]``, det(minor) / det(A) mod P, must be nonzero.  This is
    :func:`minor_cofactors` in inverse form (Desnanot-Jacobi): the
    minor's inverse is inv without row j and column i, minus
    ``inv[r][i] * inv[j][s] / inv[j][i]``, a rank-one update.
    """
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


def _ldu_mod(a: Sequence[Sequence[int]], k_bits: int):
    """LDU factorization of the integer matrix a over Z/2^K, K =
    ``k_bits``, with full pivoting on the least 2-adic valuation.

    The working array starts as a mod 2^K and is factored in place.  At
    step k the pivot is the first odd entry of row k's trailing part, as
    0 is the least valuation, or else the first entry of least valuation
    in the trailing block (row-major).  It is moved to (k, k) by
    swapping two whole rows and two whole columns, so L's finished
    columns travel with the rows and U's finished rows with the
    columns.  With the pivot d = 2^v u (u odd), the entries x below it
    become the multipliers ``(x >> v) * u^-1``, the trailing block takes
    its Schur complement, and the pivot row's tail is divided by d the
    same way.

    Returns None when the trailing block of some step is 0 mod 2^K, else
    ``(rows, cols, lu, pivots)``: with ``B[k][l] = a[rows[k]][cols[l]]``,
    ``B = L diag(pivots) U`` mod 2^K, L and U unit triangular with their
    strict parts in ``lu``; L's column k and U's row k are known mod
    2^(K - v_k), v_k the valuation of pivot k.
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

    *Factor over Z/2^K* (:func:`_ldu_mod`).  A pivot of least valuation
    v divides its whole row and column 2-adically, so every multiplier
    and Schur complement entry is a 2-adic integer, and elimination mod
    2^K is the exact elimination read mod 2^K (the p-adic precision
    argument of Dixon, "Exact solution of linear equations using p-adic
    expansions", 1982).  Once every pivot d_k is nonzero mod 2^K its
    valuation v_k is exact, ``det(A') = ±prod(d_k)`` and
    ``p' = sum(v_k)``.  Then ``adj(A') = ±Q X P`` with
    ``X = U^-1 diag(prod_(t != k) d_t) L^-1``, P and Q the row and
    column swaps.  L's column t and U's row t are known mod
    2^(K - v_t), so X is at least known mod 2^(K - max v_k), and
    K = 2p' + 2 would do.  Term by term X is exact mod 2^K: term k of
    X[l][m] is ``U^-1[l][k] * prod_(t != k) d_t * L^-1[k][m]``, whose
    middle factor has valuation p' - v_k, and whose outer factors are
    sums of products of U's rows l..k-1 and L's columns m..k-1 only,
    known mod 2^(K - max_(t != k) v_t) with
    ``max_(t != k) v_t <= p' - v_k``.  The rule reads valuations up to
    p', so K = p' + 1 suffices, and X is formed mod 2^(p' + 1).

    *Precision schedule.*  K starts at 64 and doubles while a pivot
    vanishes mod 2^K; if then ``K <= p'``, the factorization is rerun
    at K = p' + 1, where no pivot vanishes as every ``v_k <= p'``.

    *Proof of zero* (Hadamard's bound).  If det(A') != 0, then
    ``2^p' <= |det(A')| <= prod_i ||row_i|| < 2^h`` with
    ``h = sum_i ceil(bitlen(sum_j 4^w'[i][j]) / 2)``, so every
    ``v_k <= p' < h`` and no pivot vanishes mod 2^K once K >= h.  A
    pivot that vanishes at K >= h therefore proves det(A) = 0.  A caller
    that first rules out a structurally singular A (no perfect matching
    in its pattern) meets this only through exact cancellation.

    O(n^3) operations on numbers of O(p') bits.
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
    a = [
        [0 if e is None else 1 << (e - ri - cj) for e, cj in zip(row, c)]
        for row, ri in zip(w, r)
    ]
    hadamard = sum((sum(map(mul, row, row)).bit_length() + 1) // 2 for row in a)
    k_bits = 64
    while (fac := _ldu_mod(a, k_bits)) is None:
        if k_bits >= hadamard:
            return None
        k_bits *= 2
    p = sum(map(trailing_zeros, fac[3]))  # p', the valuation of det(A')
    if k_bits <= p:
        fac = _ldu_mod(a, p + 1)
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
