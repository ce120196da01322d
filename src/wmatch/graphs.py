"""Bipartite graphs, matchings, and edge weights.

A graph on n + n vertices is a boolean n x n edge matrix: entry (i, j)
is True iff left vertex i is adjacent to right vertex j.  Matchings are
injective partial maps from left to right indices.  All indices are
0-based (file formats and internal APIs alike).

The module also owns the text file formats used by the CLI and the
evaluation of a graph's edge matrix at an integer assignment: position
(i, j) takes the assigned value on edges and is structurally 0 off
edges, so the resulting determinant depends only on edge positions.

A file in the canonical layout, unsigned ASCII decimal tokens with one
space between tokens and LF or CRLF line ends (as :func:`format_graph`,
:func:`format_weights`, the benchmark and CI write them), is read in
one pass over its n data rows.  Any other file is read row by row,
token by token, and that per-token pass alone raises a
:class:`FileFormatError` for a row, so a file is refused with the same
line and message whichever way it would have been read.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, product
from operator import index, mul
from typing import Iterable, Mapping, Optional, Sequence, Union

from .linalg import IntMatrix
from .rng import SplitMix64


def nonzero_masks(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """One int per row of a square grid, with bit j set iff entry j of
    that row is nonzero (or True)."""
    bits = [1 << j for j in range(len(rows))]
    return tuple(sum(compress(bits, row)) for row in rows)


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with n vertices per side and an n x n edge matrix."""

    edges: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        n = len(self.edges)
        if n == 0:
            raise ValueError("graph must have n >= 1")
        for i, row in enumerate(self.edges):
            if len(row) != n:
                raise ValueError(f"edge row {i} has {len(row)} entries, expected {n}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Union[bool, int]]]) -> "BipartiteGraph":
        return cls(tuple(tuple(map(bool, row)) for row in rows))

    @classmethod
    def complete(cls, n: int) -> "BipartiteGraph":
        return cls(tuple((True,) * n for _ in range(n)))

    @classmethod
    def empty(cls, n: int) -> "BipartiteGraph":
        return cls(tuple((False,) * n for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return self.edges[i][j]

    @cached_property
    def _edge_list(self) -> tuple[tuple[int, int], ...]:
        cells = product(range(len(self.edges)), repeat=2)
        return tuple(compress(cells, chain.from_iterable(self.edges)))

    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """All edges (i, j) in row-major order; fixes the enumeration
        e_0 ... e_{m-1} used wherever edges are indexed.  Built on first
        use, by one ``compress`` of the row-major cells (i, j) by the
        flattened edge flags, and kept, like :meth:`neighbors`,
        :attr:`row_masks` and :attr:`matching_columns`: the graph is
        immutable, and a ``cached_property`` is no dataclass field, so it
        takes no part in ==, hash or repr.  No table of cells is kept
        between graphs: in a ``wmatch`` process, which reads one graph,
        it would be built for that graph alone."""
        return self._edge_list

    @property
    def num_edges(self) -> int:
        return len(self._edge_list)

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(j for j, e in enumerate(row) if e) for row in self.edges
        )

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Right neighbors of left vertex i."""
        return self._adjacency[i]

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        """One int per left vertex i, with bit j set iff (i, j) is an
        edge."""
        return nonzero_masks(self.edges)

    @cached_property
    def matching_columns(self) -> tuple[int, ...]:
        """The right matched to each left vertex, or -1, by one
        :func:`~wmatch.classical._kuhn` pass over :attr:`row_masks`:
        the one pass behind :meth:`has_perfect_matching`,
        :func:`~wmatch.classical.maximum_matching`,
        :func:`~wmatch.classical.hall_violator` and the zero-set
        witness's chain, run on first use and kept."""
        from .classical import _kuhn  # classical imports this module

        return tuple(_kuhn(self.row_masks))

    def has_perfect_matching(self) -> bool:
        """Whether the graph has a perfect matching: whether
        :attr:`matching_columns` matches every left vertex, with no
        :class:`Matching` built."""
        return -1 not in self.matching_columns

    def without_edge(self, i: int, j: int) -> "BipartiteGraph":
        rows = [list(row) for row in self.edges]
        rows[i][j] = False
        return BipartiteGraph.from_rows(rows)


def edge_grid(g: BipartiteGraph, values: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The n x n grid with the k-th value at the k-th edge of
    :meth:`BipartiteGraph.edge_list` (row-major edge order) and 0 at
    every non-edge; values past the last edge are not read."""
    n = g.n
    rows = [[0] * n for _ in range(n)]
    for (i, j), v in zip(g.edge_list(), values):
        rows[i][j] = v
    return tuple(map(tuple, rows))


@dataclass(frozen=True)
class Matching:
    """Injective partial map from left to right vertex indices.

    Stored as pairs sorted by left index, and as nothing else:
    :meth:`get` and every other view reads the pairs.  Perfect means
    total on [0, n) for the n of the graph it is validated against.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        right_of = dict(self.pairs)
        if len(right_of) != len(self.pairs):
            raise ValueError("matching maps a left vertex twice")
        if len(set(right_of.values())) != len(right_of):
            raise ValueError("matching is not injective")
        if list(self.pairs) != sorted(self.pairs):
            raise ValueError("matching pairs must be sorted by left index")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Matching":
        return cls(tuple(sorted((index(i), index(j)) for i, j in pairs)))

    @classmethod
    def from_columns(cls, cols: Sequence[int]) -> "Matching":
        """The matching {(0, cols[0]), ..., (n - 1, cols[n - 1])}, n =
        len(cols), for int columns.  Its lefts are 0 ... n - 1 in order
        by construction, so only the columns are checked: a repeated one
        raises ValueError, as :meth:`from_pairs` does."""
        if len(set(cols)) != len(cols):
            raise ValueError("matching is not injective")
        m = object.__new__(cls)
        object.__setattr__(m, "pairs", tuple(enumerate(cols)))
        return m

    @classmethod
    def from_dict(cls, mapping: Mapping[int, int]) -> "Matching":
        return cls.from_pairs(mapping.items())

    @classmethod
    def empty(cls) -> "Matching":
        return cls(())

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def is_empty(self) -> bool:
        return not self.pairs

    def get(self, left: int) -> Optional[int]:
        """Right partner of ``left``, or None when it is unmatched, read
        off the pairs."""
        return next((j for i, j in self.pairs if i == left), None)

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def lefts(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.pairs)

    def rights(self) -> frozenset[int]:
        return frozenset(j for _, j in self.pairs)

    def permutation_matrix(self, n: int) -> IntMatrix:
        """0/1 matrix with a 1 at each matched pair; a permutation
        matrix exactly when the matching is perfect."""
        rows = [[0] * n for _ in range(n)]
        for i, j in self.pairs:
            rows[i][j] = 1
        return IntMatrix.from_rows(rows)


@dataclass(frozen=True)
class WeightAssignment:
    """Nonnegative integer weights on an n x n grid.

    Entries at non-edge positions are carried but ignored by every
    consumer; edge identity is positional, so subgraphs keep reading
    weights through the original coordinates.
    """

    grid: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.grid)
        if n == 0:
            raise ValueError("weight grid must have n >= 1")
        for i, row in enumerate(self.grid):
            if len(row) != n:
                raise ValueError(f"weight row {i} has {len(row)} entries, expected {n}")
            # operator.index raises TypeError on a float, str, Fraction,
            # ...; an int or a bool passes.
            if min(map(index, row)) < 0:
                x = next(x for x in row if x < 0)
                raise ValueError(f"negative weight {x} at row {i}")

    @classmethod
    def from_grid(cls, rows: Iterable[Iterable[int]]) -> "WeightAssignment":
        """The assignment of a grid of ints; bools pass as 0 and 1, and
        any other entry (a float, str, Fraction, ...) raises TypeError
        rather than being truncated or parsed."""
        return cls(tuple(tuple(map(index, row)) for row in rows))

    @classmethod
    def _from_checked(cls, grid: tuple[tuple[int, ...], ...]) -> "WeightAssignment":
        """The assignment of a grid that its caller has already checked
        as ``__post_init__`` would (n x n with n >= 1, int entries, none
        negative), built without checking it again."""
        w = object.__new__(cls)
        object.__setattr__(w, "grid", grid)
        return w

    @classmethod
    def from_edge_values(
        cls, g: BipartiteGraph, values: Sequence[int]
    ) -> "WeightAssignment":
        """Place one value per edge (row-major edge order); non-edges get 0.

        The m values are checked once, flat, as :meth:`from_grid` checks
        a grid's entries (ints or bools, else TypeError; none negative),
        and the grid is built from them with no second pass over its n^2
        entries.  The first negative value in edge order lies in the
        first row that holds one, so the error names the row that
        ``from_grid`` would name."""
        if len(values) != g.num_edges:
            raise ValueError(f"expected {g.num_edges} edge values, got {len(values)}")
        values = list(map(index, values))
        if values and min(values) < 0:
            k, x = next((k, x) for k, x in enumerate(values) if x < 0)
            raise ValueError(f"negative weight {x} at row {g.edge_list()[k][0]}")
        return cls._from_checked(edge_grid(g, values))

    @property
    def n(self) -> int:
        return len(self.grid)

    def value(self, i: int, j: int) -> int:
        return self.grid[i][j]


GridLike = Union[IntMatrix, Sequence[Sequence[int]]]


def _as_rows(values: GridLike, n: int) -> tuple[tuple[int, ...], ...]:
    rows = values.rows if isinstance(values, IntMatrix) else tuple(
        tuple(map(index, row)) for row in values
    )
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"value grid must be {n}x{n}")
    return rows


def edmonds_eval(g: BipartiteGraph, values: GridLike) -> IntMatrix:
    """Evaluate the graph's edge matrix at an integer assignment.

    Entry (i, j) of the result is values[i][j] when (i, j) is an edge
    and 0 otherwise, so non-edge positions never influence anything
    computed from the result.  An :class:`IntMatrix` of g's n is read
    as it is; any other grid goes through ``_as_rows``, which raises
    ValueError unless it is n x n.
    """
    n = g.n
    if isinstance(values, IntMatrix) and values.n == n:
        rows = values.rows
    else:
        rows = _as_rows(values, n)
    # x * True is x and x * False is 0.
    return IntMatrix._from_checked(
        tuple(tuple(map(mul, row, edges)) for row, edges in zip(rows, g.edges))
    )


def is_perfect_matching(g: BipartiteGraph, m: Matching) -> bool:
    """True iff m matches left vertex i to some right vertex in [0, n)
    for every i in [0, n), injectively, using only edges of g.

    An index outside [0, n) gives False: the indices are compared with
    the range before they are used, so a negative one cannot wrap."""
    n = g.n
    if m.size != n:
        return False
    edges = g.edges
    # Pairs are sorted by distinct lefts, so the lefts are 0..n-1
    # exactly when pair k has left k; the rights are distinct already.
    return all(
        i == k and 0 <= j < n and edges[i][j] for k, (i, j) in enumerate(m.pairs)
    )


def matching_weight(m: Matching, w: WeightAssignment) -> int:
    """Sum of w over the pairs of m; 0 for the empty matching."""
    return sum(w.value(i, j) for i, j in m.pairs)


def random_weights(g: BipartiteGraph, k: int, seed: int) -> WeightAssignment:
    """Independent uniform weights in [1, k] on every edge, 0 off edges.

    Draws come from SplitMix64 seeded with ``seed``, one draw per edge
    in row-major edge order, so the same (g, k, seed) always yields the
    same assignment on every platform.  All of them are drawn in one
    :meth:`~wmatch.rng.SplitMix64.randints` call, the same values that
    one ``randint`` per edge would give, and laid out by
    :func:`edge_grid`.  A k above 2^64 raises ValueError, like k < 1.
    """
    if k < 1:
        raise ValueError(f"weight range bound must be >= 1, got {k}")
    draws = SplitMix64(seed).randints(1, k, g.num_edges)
    return WeightAssignment._from_checked(edge_grid(g, draws))


class FileFormatError(ValueError):
    """Malformed graph or weight file; carries the offending 1-based line
    (0 when the problem is not tied to a line, e.g. an unreadable file)
    and optionally the file it came from."""

    def __init__(self, line: int, message: str, source: Optional[str] = None):
        self.line = line
        self.message = message
        self.source = source
        prefix = f"{source}: " if source else ""
        where = f"line {line}: " if line else ""
        super().__init__(f"{prefix}{where}{message}")


_DECIMAL = re.compile(r"-?[0-9]+")
_BLANKS = " \t"


def _decimal(token: str) -> int:
    """An ASCII decimal integer, ``-?[0-9]+``.  ``int()`` alone also
    takes ``1_000``, ``+2``, non-ASCII digits (Arabic-Indic,
    fullwidth, ...) and surrounding Unicode whitespace; this raises
    ``ValueError`` for them."""
    if not _DECIMAL.fullmatch(token):
        raise ValueError(token)
    return int(token)


# Longest refused token that an error message quotes whole.
_QUOTED = 20


def _not_integer(token: str, what: str) -> str:
    """Message for a token that ``int()`` refused.  A well-formed one
    was refused for its length (CPython reads at most
    ``sys.get_int_max_str_digits()`` digits, 4,300 by default), so it
    is reported by its digit count and a short prefix, not echoed.  A
    malformed one longer than 20 characters is likewise reported by its
    length and prefix."""
    prefix = repr(token[:_QUOTED])
    if _DECIMAL.fullmatch(token):
        digits = len(token.lstrip("-"))
        return f"integer {what} too long: {digits} digits, starting {prefix}"
    if len(token) > _QUOTED:
        return f"expected integer {what}, got a {len(token)}-character token starting {prefix}"
    return f"expected integer {what}, got {token!r}"


def _lines(text: str) -> list[str]:
    r"""Split at "\n" only, as a line-oriented reader does, so that
    U+2028, "\x0b", "\x1c" and the like stay inside their line; each
    line loses one trailing "\r", so CRLF files parse too."""
    lines = text.removesuffix("\n").split("\n") if text else []
    return [line.removesuffix("\r") for line in lines]


def _parse_header(lines: list[str]) -> int:
    if not lines:
        raise FileFormatError(1, "empty file, expected dimension n on line 1")
    header = lines[0].strip(_BLANKS)
    try:
        n = _decimal(header)
    except ValueError:
        raise FileFormatError(1, _not_integer(header, "dimension")) from None
    if n < 1:
        raise FileFormatError(1, f"dimension must be >= 1, got {n}")
    if len(lines) < n + 1:
        raise FileFormatError(len(lines) + 1, f"expected {n} data rows, file ends after {len(lines) - 1}")
    for extra in range(n + 1, len(lines)):
        if lines[extra].strip(_BLANKS):
            raise FileFormatError(extra + 1, "unexpected trailing content")
    return n


def _parse_row(line: str, lineno: int, n: int) -> tuple[int, ...]:
    """The per-token pass over one data row: split at spaces and tabs,
    each token read by :func:`_decimal`.  It is the only place that
    raises a :class:`FileFormatError` for a row's tokens."""
    fields = [f for f in line.replace("\t", " ").split(" ") if f]
    if len(fields) != n:
        raise FileFormatError(lineno, f"expected {n} entries, got {len(fields)}")
    out = []
    for f in fields:
        try:
            out.append(_decimal(f))
        except ValueError:
            raise FileFormatError(lineno, _not_integer(f, "entry")) from None
    return tuple(out)


def parse_graph(text: str) -> BipartiteGraph:
    """Parse the graph text format: line 1 is n, then n rows of n 0/1
    entries (row i lists the right neighbors of left vertex i).  Lines
    end at LF or CRLF only, and entries are separated by spaces and tabs
    only.

    A file in the canonical layout, every row n cells ``0`` or ``1``
    with one space between cells, is read in one pass over its rows
    joined by spaces: each row is 2n - 1 characters long, so the cells
    sit at the even offsets and the spaces at the odd ones, and one
    byte translation of the cells gives the edge matrix.  Any other
    file, one with ``00``, ``-0``, a tab, a doubled space or rows of
    uneven length, goes row by row through :func:`_parse_row`'s
    per-token pass and the 0/1 check, the only path that raises a
    :class:`FileFormatError` for a row, so each error names the same
    line and message as a per-token parser.  On a 2-core VM under
    CPython 3.11.7 (median of five best-of-seven timings) a 32-vertex
    graph takes 23 us, against 125 us row by row, and a 100-vertex
    graph 0.20 ms against 1.15 ms.
    """
    lines = _lines(text)
    n = _parse_header(lines)
    rows = lines[1:n + 1]
    body = " ".join(rows)
    if body.isascii() and set(map(len, rows)) == {2 * n - 1} and body[1::2] == " " * (n * n - 1):
        cells = body[::2].encode()
        if not cells.translate(None, b"01"):
            # Bytes 0 and 1, which a "?" (bool) view reads as False and True.
            bits = memoryview(cells.translate(bytes.maketrans(b"01", b"\0\1")))
            return BipartiteGraph(tuple(map(tuple, bits.cast("?", (n, n)).tolist())))
    edges = []
    for i, line in enumerate(rows):
        row = _parse_row(line, 2 + i, n)
        for x in row:
            if x not in (0, 1):
                raise FileFormatError(2 + i, f"edge entries must be 0 or 1, got {x}")
        edges.append(tuple(map(bool, row)))
    return BipartiteGraph(tuple(edges))


def parse_weights(text: str) -> WeightAssignment:
    """Parse the weight text format: line 1 is n, then n rows of n
    nonnegative decimal integers (non-edge entries present, ignored),
    with lines and entries separated as in :func:`parse_graph`.

    A file in the canonical layout, every row n unsigned decimal
    tokens with one space between tokens, is read by one
    :func:`json.loads` of its rows as an array of arrays.  One check
    first lets through only rows of ASCII digits and spaces, so that no
    comma, bracket, sign, exponent or letter can make JSON read a token
    that :func:`_decimal` refuses or split one that it reads.  JSON
    refuses a leading zero, an empty token and an overlong token, which
    the format takes or reports by length; such a file, like any other
    that the check, JSON or the row lengths turn away, goes row by row
    through :func:`_parse_row`'s per-token pass and the sign check, the
    only path that raises a :class:`FileFormatError` for a row.  On a
    2-core VM under CPython 3.11.7 (median of five best-of-seven
    timings) a 32-vertex grid of 15-digit weights takes 0.15 ms,
    against 0.29 ms row by row, and a 100-vertex one 1.5 ms against
    2.5 ms.  A 100-vertex one re-spaced with tabs, doubled spaces, zero
    padding and CRLF takes 5.7 ms token by token.
    """
    lines = _lines(text)
    n = _parse_header(lines)
    rows = lines[1:n + 1]
    body = "\n".join(rows)
    if body.isascii() and not body.encode().translate(None, b"0123456789 \n"):
        try:
            grid = json.loads("[[" + body.replace(" ", ",").replace("\n", "],[") + "]]")
        except ValueError:
            grid = ()
        if set(map(len, grid)) == {n}:
            return WeightAssignment._from_checked(tuple(map(tuple, grid)))
    checked = []
    for i, line in enumerate(rows):
        row = _parse_row(line, 2 + i, n)
        if min(row) < 0:
            x = next(x for x in row if x < 0)
            raise FileFormatError(2 + i, f"weights must be nonnegative, got {x}")
        checked.append(row)
    return WeightAssignment._from_checked(tuple(checked))


def format_graph(g: BipartiteGraph) -> str:
    body = "\n".join(" ".join("1" if x else "0" for x in row) for row in g.edges)
    return f"{g.n}\n{body}\n"


def format_weights(w: WeightAssignment) -> str:
    body = "\n".join(" ".join(str(x) for x in row) for row in w.grid)
    return f"{w.n}\n{body}\n"
