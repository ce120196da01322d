"""Bipartite graphs, matchings, and edge weights.

A graph on n + n vertices is a boolean n x n edge matrix: entry (i, j)
is True iff left vertex i is adjacent to right vertex j.  Matchings are
injective partial maps from left to right indices.  All indices are
0-based (file formats and internal APIs alike).

The module also owns the text file formats used by the CLI and the
evaluation of a graph's edge matrix at an integer assignment: position
(i, j) takes the assigned value on edges and is structurally 0 off
edges, so the resulting determinant depends only on edge positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence, Union

from .linalg import IntMatrix
from .rng import SplitMix64


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
        return cls(tuple(tuple(bool(x) for x in row) for row in rows))

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

    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """All edges (i, j) in row-major order; fixes the enumeration
        e_0 ... e_{m-1} used wherever edges are indexed."""
        # Built on first use and kept, as the graph is immutable.  It is
        # not a dataclass field, so it takes no part in ==, hash or repr.
        edges = self.__dict__.get("_edge_list")
        if edges is None:
            edges = tuple(
                (i, j) for i, row in enumerate(self.edges) for j, e in enumerate(row) if e
            )
            object.__setattr__(self, "_edge_list", edges)
        return edges

    @property
    def num_edges(self) -> int:
        return sum(row.count(True) for row in self.edges)

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Right neighbors of left vertex i."""
        # Built for every vertex on first use and kept, like edge_list,
        # and like it outside ==, hash and repr.
        adjacency = self.__dict__.get("_neighbors")
        if adjacency is None:
            adjacency = tuple(
                tuple(j for j, e in enumerate(row) if e) for row in self.edges
            )
            object.__setattr__(self, "_neighbors", adjacency)
        return adjacency[i]

    def has_perfect_matching(self) -> bool:
        """Whether the graph has a perfect matching, decided exactly by
        :func:`~wmatch.classical.maximum_matching` on first use and kept,
        like :meth:`neighbors`."""
        known = self.__dict__.get("_has_perfect_matching")
        if known is None:
            from .classical import maximum_matching  # classical imports this module

            known = maximum_matching(self).size == self.n
            object.__setattr__(self, "_has_perfect_matching", known)
        return known

    def without_edge(self, i: int, j: int) -> "BipartiteGraph":
        rows = [list(row) for row in self.edges]
        rows[i][j] = False
        return BipartiteGraph.from_rows(rows)


@dataclass(frozen=True)
class Matching:
    """Injective partial map from left to right vertex indices.

    Stored as pairs sorted by left index.  Perfect means total on
    [0, n) for the n of the graph it is validated against.
    """

    pairs: tuple[tuple[int, int], ...]
    # left -> right, for get(); not compared, hashed or shown.
    _right_of: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        right_of = dict(self.pairs)
        if len(right_of) != len(self.pairs):
            raise ValueError("matching maps a left vertex twice")
        if len(set(right_of.values())) != len(right_of):
            raise ValueError("matching is not injective")
        if list(self.pairs) != sorted(self.pairs):
            raise ValueError("matching pairs must be sorted by left index")
        object.__setattr__(self, "_right_of", right_of)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Matching":
        return cls(tuple(sorted((int(i), int(j)) for i, j in pairs)))

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
        """Right partner of ``left``, or None when it is unmatched."""
        return self._right_of.get(left)

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
            if min(row) < 0:
                x = next(x for x in row if x < 0)
                raise ValueError(f"negative weight {x} at row {i}")

    @classmethod
    def from_grid(cls, rows: Iterable[Iterable[int]]) -> "WeightAssignment":
        return cls(tuple(tuple(map(int, row)) for row in rows))

    @classmethod
    def from_edge_values(
        cls, g: BipartiteGraph, values: Sequence[int]
    ) -> "WeightAssignment":
        """Place one value per edge (row-major edge order); non-edges get 0."""
        edges = g.edge_list()
        if len(values) != len(edges):
            raise ValueError(f"expected {len(edges)} edge values, got {len(values)}")
        rows = [[0] * g.n for _ in range(g.n)]
        for (i, j), v in zip(edges, values):
            rows[i][j] = v
        return cls.from_grid(rows)

    @property
    def n(self) -> int:
        return len(self.grid)

    def value(self, i: int, j: int) -> int:
        return self.grid[i][j]


GridLike = Union[IntMatrix, Sequence[Sequence[int]]]


def _as_rows(values: GridLike, n: int) -> tuple[tuple[int, ...], ...]:
    rows = values.rows if isinstance(values, IntMatrix) else tuple(
        tuple(map(int, row)) for row in values
    )
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"value grid must be {n}x{n}")
    return rows


def edmonds_eval(g: BipartiteGraph, values: GridLike) -> IntMatrix:
    """Evaluate the graph's edge matrix at an integer assignment.

    Entry (i, j) of the result is values[i][j] when (i, j) is an edge
    and 0 otherwise, so non-edge positions never influence anything
    computed from the result.
    """
    rows = _as_rows(values, g.n)
    # x * True is x and x * False is 0.
    return IntMatrix(
        tuple(tuple(map(mul, row, edges)) for row, edges in zip(rows, g.edges))
    )


def is_perfect_matching(g: BipartiteGraph, m: Matching) -> bool:
    """True iff m is total on [0, n), injective, and uses only edges of g."""
    if m.size != g.n:
        return False
    return all(g.has_edge(i, j) for i, j in m.pairs)


def matching_weight(m: Matching, w: WeightAssignment) -> int:
    """Sum of w over the pairs of m; 0 for the empty matching."""
    return sum(w.value(i, j) for i, j in m.pairs)


def random_weights(g: BipartiteGraph, k: int, seed: int) -> WeightAssignment:
    """Independent uniform weights in [1, k] on every edge, 0 off edges.

    Draws come from SplitMix64 seeded with ``seed``, one draw per edge
    in row-major edge order, so the same (g, k, seed) always yields the
    same assignment on every platform.
    """
    if k < 1:
        raise ValueError(f"weight range bound must be >= 1, got {k}")
    stream = SplitMix64(seed)
    rows = [[0] * g.n for _ in range(g.n)]
    for i, j in g.edge_list():
        rows[i][j] = stream.randint(1, k)
    return WeightAssignment.from_grid(rows)


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
# A row of ASCII digits, minus signs, spaces and tabs; on such a row
# int() accepts exactly the tokens that match _DECIMAL.
_PLAIN_ROW = re.compile(r"[0-9 \t-]*")
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


def _parse_row(line: str, lineno: int, n: int) -> list[int]:
    fields = [f for f in line.replace("\t", " ").split(" ") if f]
    if len(fields) != n:
        raise FileFormatError(lineno, f"expected {n} entries, got {len(fields)}")
    # Only a row with some other character pays for the per-token match.
    parse = int if _PLAIN_ROW.fullmatch(line) else _decimal
    out = []
    for f in fields:
        try:
            out.append(parse(f))
        except ValueError:
            raise FileFormatError(lineno, _not_integer(f, "entry")) from None
    return out


def parse_graph(text: str) -> BipartiteGraph:
    """Parse the graph text format: line 1 is n, then n rows of n 0/1
    entries (row i lists the right neighbors of left vertex i).  Lines
    end at LF or CRLF only, and entries are separated by spaces and tabs
    only."""
    lines = _lines(text)
    n = _parse_header(lines)
    rows = []
    for i in range(n):
        row = _parse_row(lines[1 + i], 2 + i, n)
        for x in row:
            if x not in (0, 1):
                raise FileFormatError(2 + i, f"edge entries must be 0 or 1, got {x}")
        rows.append([bool(x) for x in row])
    return BipartiteGraph.from_rows(rows)


def parse_weights(text: str) -> WeightAssignment:
    """Parse the weight text format: line 1 is n, then n rows of n
    nonnegative decimal integers (non-edge entries present, ignored),
    with lines and entries separated as in :func:`parse_graph`."""
    lines = _lines(text)
    n = _parse_header(lines)
    rows = []
    for i in range(n):
        row = _parse_row(lines[1 + i], 2 + i, n)
        for x in row:
            if x < 0:
                raise FileFormatError(2 + i, f"weights must be nonnegative, got {x}")
        rows.append(row)
    return WeightAssignment.from_grid(rows)


def format_graph(g: BipartiteGraph) -> str:
    body = "\n".join(" ".join("1" if x else "0" for x in row) for row in g.edges)
    return f"{g.n}\n{body}\n"


def format_weights(w: WeightAssignment) -> str:
    body = "\n".join(" ".join(str(x) for x in row) for row in w.grid)
    return f"{w.n}\n{body}\n"
