"""Brute-force ground truth and exhaustive verification helpers.

Everything here is deliberately naive: enumerations are complete,
deterministic, and order-stable, so they can serve as independent
oracles for the clever algorithms.  Budgets are explicit and enforced;
an oracle that silently samples is not an oracle.

``SUITE_NAMES`` lists the verification suites of :mod:`wmatch.verify`
in the order that ``verify all`` runs them.  It lives here, among the
harness's other constants, so that the CLI's parser can list the
suites without running that module; each name must be a branch of
:func:`wmatch.verify.run_suite` (``tests/test_verify.py`` runs every
one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, NamedTuple, Optional

from .graphs import BipartiteGraph, Matching, WeightAssignment, matching_weight

DEFAULT_BUDGET = 10_000_000

SUITE_NAMES = ("det", "classical", "sz", "iso", "mvv")

ENUM_PM_MAX_N = 8
BRUTE_WEIGHT_MAX_N = 5


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its evaluation budget."""


def enumerate_perfect_matchings(g: BipartiteGraph) -> list[Matching]:
    """All perfect matchings of g, in lexicographic order of the column
    sequence (row 0's partner varies slowest)."""
    n = g.n
    if n > ENUM_PM_MAX_N:
        raise ValueError(f"enumerate_perfect_matchings limited to n <= {ENUM_PM_MAX_N}, got {n}")
    out: list[Matching] = []
    assignment = [0] * n

    def walk(row: int, used: int):
        if row == n:
            out.append(Matching.from_pairs(enumerate(assignment)))
            return
        for j in range(n):
            if g.edges[row][j] and not (used >> j) & 1:
                assignment[row] = j
                walk(row + 1, used | (1 << j))

    walk(0, 0)
    return out


def brute_max_weight_matching(n: int, w) -> int:
    """Maximum total weight over *all* matchings (any size) of the
    complete n x n instance, by a sweep over the rows: after row r it
    holds, for each set of used columns (a bit mask), the best weight
    of rows 0..r that uses exactly those columns, so each (row, used
    columns) state is computed once."""
    if n > BRUTE_WEIGHT_MAX_N:
        raise ValueError(f"brute_max_weight_matching limited to n <= {BRUTE_WEIGHT_MAX_N}, got {n}")
    best = {0: 0}
    for r in range(n):
        row = w[r]
        after = dict(best)  # row r left unmatched
        for used, score in best.items():
            for j in range(n):
                if not (used >> j) & 1:
                    key = used | (1 << j)
                    candidate = score + row[j]
                    if key not in after or candidate > after[key]:
                        after[key] = candidate
        best = after
    return max(best.values())


def brute_max_matching_size(g: BipartiteGraph) -> int:
    """Maximum matching cardinality by a sweep over the rows,
    independent of the augmenting-path machinery: after row r it holds
    every set of columns (a bit mask) that rows 0..r can match exactly,
    each computed once, and a set's matching size is its bit count."""
    reachable = {0}
    for edge_row in g.edges:
        bits = [1 << j for j, edge in enumerate(edge_row) if edge]
        reachable |= {used | bit for used in reachable for bit in bits if not used & bit}
    return max(used.bit_count() for used in reachable)


class BruteMinResult(NamedTuple):
    """Minimum perfect-matching weight and every matching achieving it.
    weight is None (and matchings empty) when no perfect matching exists."""

    weight: Optional[int]
    matchings: tuple[Matching, ...]

    @property
    def unique(self) -> bool:
        return len(self.matchings) == 1


def min_weight_pms_map(g: BipartiteGraph) -> Callable[[WeightAssignment], BruteMinResult]:
    """Enumerate g's perfect matchings once and return the map
    ``w -> brute_min_weight_pms(g, w)`` over them, for callers that
    weigh one graph many times."""
    pms = enumerate_perfect_matchings(g)

    def minimum(w: WeightAssignment) -> BruteMinResult:
        if not pms:
            return BruteMinResult(None, ())
        weighted = [(matching_weight(m, w), m) for m in pms]
        best = min(weight for weight, _ in weighted)
        return BruteMinResult(best, tuple(m for weight, m in weighted if weight == best))

    return minimum


def brute_min_weight_pms(g: BipartiteGraph, w: WeightAssignment) -> BruteMinResult:
    """Minimum-weight perfect matchings by full enumeration."""
    return min_weight_pms_map(g)(w)


@dataclass
class SurjectivityReport:
    """Verdict of an exhaustive surjectivity check.

    ``uncovered`` lists the target elements with no preimage; the map
    is surjective exactly when it is empty.
    """

    domain_size: int
    target_size: int
    covered_count: int
    uncovered: tuple = field(default_factory=tuple)

    @property
    def surjective(self) -> bool:
        return not self.uncovered

    def to_dict(self) -> dict:
        return {
            "domain_size": self.domain_size,
            "target_size": self.target_size,
            "covered_count": self.covered_count,
            "surjective": self.surjective,
            "uncovered": [_jsonify(x) for x in self.uncovered],
        }


def _jsonify(x):
    if isinstance(x, WeightAssignment):
        return [list(row) for row in x.grid]
    if isinstance(x, tuple):
        return [_jsonify(e) for e in x]
    return x


def check_surjection(
    domain: Iterable,
    fn: Callable,
    target: Iterable,
    budget: int = DEFAULT_BUDGET,
) -> SurjectivityReport:
    """Exhaustively check that ``fn`` maps ``domain`` onto ``target``.

    Images and target elements must be hashable; two are the same
    element when they compare equal.  The domain is consumed in order,
    and enumeration stops with :class:`BudgetExceededError` at its
    (budget + 1)-th element.  The target is read first, and likewise
    no further than its (budget + 1)-th element.
    """
    target_list = list(islice(target, budget + 1))
    if len(target_list) > budget:
        raise BudgetExceededError(f"target enumeration exceeded budget {budget}")

    hit: set = set()
    domain_size = 0
    for x in domain:
        domain_size += 1
        if domain_size > budget:
            raise BudgetExceededError(f"domain enumeration exceeded budget {budget}")
        hit.add(fn(x))

    uncovered = tuple(t for t in target_list if t not in hit)
    return SurjectivityReport(
        domain_size=domain_size,
        target_size=len(target_list),
        covered_count=len(target_list) - len(uncovered),
        uncovered=uncovered,
    )
