"""Verification suites: exhaustive and randomized checks of every
advertised property, shared by the CLI ``verify`` command and the
acceptance test module.

Each check returns a :class:`CheckResult` with a JSON-able details
dict; suites group the checks the way the CLI exposes them.  All
randomness is drawn from seeded SplitMix64 streams, and every sample
count is fixed, so a suite's report is a pure function of its
arguments.  Each check writes its own case list once and drops the
cases above the caps (``max_n``, ``max_s``, ``max_k``) that
:func:`run_suite` hands it unchanged.

Both error bounds are checked through one driver, :func:`_coverage`:
an error set is at most as large as a padded sample space
[0, count) x values^arity that a witness map covers.  The zero-set
checks cover Z from [0, n) x [0, s)^(n^2 - 1), the isolation check
covers the non-isolating weights from [0, m) x [1, k]^(m - 1).  A new
coverage case is one call to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from math import inf

from .classical import (
    hall_violator,
    hungarian_max_weight,
    cover_cost,
    is_cover,
    maximum_matching,
    mwpm,
    neighborhood,
)
from .edmonds import ZeroDeterminantError, extract_pm_trace, lovasz_sample
from .graphs import (
    BipartiteGraph,
    WeightAssignment,
    edmonds_eval,
    is_perfect_matching,
    matching_weight,
)
from .isolation import enumerate_nonisolating, nonisolating_witness_map
from .linalg import IntMatrix, det_bareiss, det_cofactor, det_lagrange
from .mvv import exact_power_det_valuation, extract_pm_weight_bounded, mvv_trial
from .oracle import (
    DEFAULT_BUDGET,
    SUITE_NAMES,
    brute_max_matching_size,
    brute_max_weight_matching,
    brute_min_weight_pms,
    check_surjection,
    min_weight_pms_map,
)
from .rng import DEFAULT_SEED, SplitMix64, derive_seed
from .zeroset import zero_set, zero_witness_graph_map


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


# ---------------------------------------------------------------------------
# shared generators


def _random_rows(stream: SplitMix64, n: int, lo: int, hi: int) -> list[list[int]]:
    """n rows of n draws from [lo, hi], drawn row by row in one call:
    the values of n * n randint calls."""
    draws = stream.randints(lo, hi, n * n)
    return [draws[r : r + n] for r in range(0, n * n, n)]


def _random_matrix(stream: SplitMix64, n: int, lo: int, hi: int) -> IntMatrix:
    return IntMatrix.from_rows(_random_rows(stream, n, lo, hi))


def _random_graph(stream: SplitMix64, n: int) -> BipartiteGraph:
    return BipartiteGraph.from_rows(_random_rows(stream, n, 0, 1))


def _all_graphs(n: int):
    """Every bipartite graph on n + n vertices (2^(n^2) of them)."""
    for bits in range(1 << (n * n)):
        yield BipartiteGraph.from_rows(
            [[(bits >> (i * n + j)) & 1 == 1 for j in range(n)] for i in range(n)]
        )


def _random_graphs(stream: SplitMix64, count: int, sizes: tuple[int, ...]) -> list[BipartiteGraph]:
    """``count`` random graphs drawn from ``stream``, the t-th with
    n = sizes[t % len(sizes)]."""
    return [_random_graph(stream, sizes[t % len(sizes)]) for t in range(count)]


def _permutation_matrices(n: int):
    for perm in permutations(range(n)):
        yield IntMatrix.from_rows(
            [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        )


# ---------------------------------------------------------------------------
# det suite


def _det_sizes(max_n: float) -> range:
    """The det suite's matrix sizes: n = 1 .. 6, none above max_n."""
    return range(1, min(max_n, 6) + 1)


def check_det_agreement(seed: int = DEFAULT_SEED, max_n: float = inf) -> CheckResult:
    """Three-way determinant agreement of the production determinant
    (:func:`~wmatch.linalg.det_bareiss`) with both expansion oracles:
    exhaustive over all 0/1 3x3 matrices, and 200 random matrices with
    entries in [-9, 9] for each n >= 4 of :func:`_det_sizes`."""
    mismatches = []
    for bits in range(1 << 9):
        m = IntMatrix.from_rows(
            [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        )
        if not det_bareiss(m) == det_cofactor(m) == det_lagrange(m):
            mismatches.append([list(r) for r in m.rows])
    random_cases = 0
    for n in _det_sizes(max_n)[3:]:
        stream = SplitMix64(derive_seed(seed, n))
        for _ in range(200):
            m = _random_matrix(stream, n, -9, 9)
            random_cases += 1
            if not det_bareiss(m) == det_cofactor(m) == det_lagrange(m):
                mismatches.append([list(r) for r in m.rows])
    return CheckResult(
        "determinant 3-way agreement",
        not mismatches,
        {
            "exhaustive_3x3": 512,
            "random_cases": random_cases,
            "mismatches": mismatches[:5],
        },
    )


def check_permutation_determinants(max_n: float = inf) -> CheckResult:
    """det of every permutation matrix of each n of :func:`_det_sizes`
    is +1 or -1."""
    checked = 0
    bad = []
    for n in _det_sizes(max_n):
        for p in _permutation_matrices(n):
            checked += 1
            if det_bareiss(p) not in (-1, 1):
                bad.append([list(r) for r in p.rows])
    return CheckResult(
        "permutation matrix determinants in {-1,1}",
        not bad,
        {"matrices_checked": checked, "failures": bad[:5]},
    )


def check_matching_determinant_equivalence(seed: int = DEFAULT_SEED) -> CheckResult:
    """A perfect matching exists iff some evaluation of the edge matrix
    has nonzero determinant; any nonzero evaluation yields a verified
    perfect matching via extraction.  Every 3x3 graph, and 500 random
    graphs with n in {4, 5}."""
    failures = []
    stream = SplitMix64(derive_seed(seed, 101))
    graphs = [*_all_graphs(3), *_random_graphs(stream, 500, (4, 5))]
    perms = {n: list(zip(permutations(range(n)), _permutation_matrices(n)))
             for n in {g.n for g in graphs}}
    # The evaluation of a graph with no perfect matching at sigma's
    # permutation matrix is that matrix on the rows i where (i, sigma(i))
    # is an edge, named by sigma(i) on those rows and -1 on the others;
    # each name's determinant is computed once.
    dets: dict[tuple[int, ...], int] = {}
    with_pm = without_pm = 0
    for idx, g in enumerate(graphs):
        n = g.n
        mm = maximum_matching(g)
        if mm.size == n:
            with_pm += 1
            b = edmonds_eval(g, mm.permutation_matrix(n))
            if det_bareiss(b) not in (-1, 1):
                failures.append({"graph": idx, "reason": "PM evaluation det not ±1"})
                continue
            # extract_pm_trace raises unless it returns a perfect matching
            # of g, so a raise is the failure.
            try:
                extract_pm_trace(g, b)
            except (ValueError, AssertionError):
                failures.append({"graph": idx, "reason": "extraction invalid"})
            sample = lovasz_sample(g, derive_seed(seed, 7000 + idx))
            try:
                extract_pm_trace(g, sample)
            except ZeroDeterminantError:
                pass
            except (ValueError, AssertionError):
                failures.append({"graph": idx, "reason": "random extraction invalid"})
        else:
            without_pm += 1
            if any(
                _perm_eval_det(dets, g, perm, p) != 0 for perm, p in perms[n]
            ):
                failures.append({"graph": idx, "reason": "no PM but nonzero perm det"})
            if any(
                det_bareiss(lovasz_sample(g, derive_seed(seed, 9000 + 8 * idx + r))) != 0
                for r in range(5)
            ):
                failures.append({"graph": idx, "reason": "no PM but nonzero sample det"})
    return CheckResult(
        "perfect matching <-> nonzero determinant, with extraction",
        not failures,
        {
            "graphs_with_pm": with_pm,
            "graphs_without_pm": without_pm,
            "failures": failures[:5],
        },
    )


def _perm_eval_det(dets: dict, g: BipartiteGraph, perm: tuple[int, ...],
                   p: IntMatrix) -> int:
    """det of g's evaluation at the permutation matrix p of perm, read
    from ``dets`` under the evaluation's name, or computed and kept."""
    name = tuple(j if m >> j & 1 else -1 for j, m in zip(perm, g.row_masks))
    det = dets.get(name)
    if det is None:
        det = dets[name] = det_bareiss(edmonds_eval(g, p))
    return det


# ---------------------------------------------------------------------------
# classical suite


def _classical_size(stream: SplitMix64, max_n: float) -> int:
    """One classical-suite instance's n, drawn uniform in [1, 5], or in
    [1, max_n] below that."""
    return stream.randint(1, min(max_n, 5))


def check_hungarian_against_brute(seed: int = DEFAULT_SEED, max_n: float = inf) -> CheckResult:
    """Certificate (weight = cover cost, cover valid) and optimality
    against full matching enumeration on 500 random small instances,
    each n from :func:`_classical_size`."""
    samples = 500
    stream = SplitMix64(derive_seed(seed, 201))
    failures = []
    for t in range(samples):
        n = _classical_size(stream, max_n)
        w = _random_rows(stream, n, 0, 10)
        m, cover = hungarian_max_weight(w)
        weight = sum(w[i][j] for i, j in m.pairs)
        if not is_cover(w, cover):
            failures.append({"case": t, "reason": "cover inequality violated"})
        elif weight != cover_cost(cover):
            failures.append({"case": t, "reason": "weight != cover cost"})
        elif weight != brute_max_weight_matching(w):
            failures.append({"case": t, "reason": "not maximum weight"})
    return CheckResult(
        "Hungarian optimality and certificate",
        not failures,
        {"cases": samples, "failures": failures[:5]},
    )


def check_mwpm_against_brute(seed: int = DEFAULT_SEED, max_n: float = inf) -> CheckResult:
    """Empty result iff no perfect matching; otherwise the weight
    matches exhaustive enumeration.  500 random instances, each n from
    :func:`_classical_size`."""
    samples = 500
    stream = SplitMix64(derive_seed(seed, 301))
    failures = []
    for t in range(samples):
        n = _classical_size(stream, max_n)
        g = _random_graph(stream, n)
        w = WeightAssignment.from_grid(_random_rows(stream, n, 0, 10))
        got = mwpm(g, w)
        truth = brute_min_weight_pms(g, w)
        if truth.weight is None:
            if not got.is_empty:
                failures.append({"case": t, "reason": "returned matching, none exists"})
        else:
            if got.is_empty:
                failures.append({"case": t, "reason": "missed existing matching"})
            elif not is_perfect_matching(g, got):
                failures.append({"case": t, "reason": "result not a perfect matching"})
            elif matching_weight(got, w) != truth.weight:
                failures.append({"case": t, "reason": "not minimum weight"})
    return CheckResult(
        "minimum-weight perfect matching vs brute force",
        not failures,
        {"cases": samples, "failures": failures[:5]},
    )


def _hall_holds(masks: tuple[int, ...]) -> bool:
    """Hall's condition |S| <= |N(S)| for every left subset S of the
    graph with these row masks.  The subsets S are bit masks in
    increasing order, so S without its lowest vertex comes before S and
    N(S) is one OR; the first violator stops the walk."""
    reach = [0] * (1 << len(masks))
    for s in range(1, len(reach)):
        low = s & -s
        reach[s] = r = reach[s ^ low] | masks[low.bit_length() - 1]
        if s.bit_count() > r.bit_count():
            return False
    return True


def check_berge_hall(seed: int = DEFAULT_SEED) -> CheckResult:
    """Maximum matching size vs brute force; Hall violators on every
    perfect-matching-free instance; Hall's condition equivalent to
    perfect matching existence on small graphs.  Every 3x3 graph, and
    500 random graphs with n in {4, 5, 6}.

    Each graph keeps its one Kuhn pass
    (:attr:`~wmatch.graphs.BipartiteGraph.matching_columns`), which
    ``maximum_matching`` and ``hall_violator`` both read, so the Hall
    loop's 3x3 graphs, the Berge loop's own objects, run no second
    one and their row masks are not rebuilt."""
    failures = []
    stream = SplitMix64(derive_seed(seed, 401))
    # Both corpora start with every 3x3 graph, built once: the Hall loop
    # reads the same graph objects.
    small = list(_all_graphs(3))
    graphs = small + _random_graphs(stream, 500, (4, 5, 6))
    pm_free = 0
    for idx, g in enumerate(graphs):
        m = maximum_matching(g)
        if m.size != brute_max_matching_size(g):
            failures.append({"graph": idx, "reason": "maximum matching size wrong"})
            continue
        if m.size < g.n:
            pm_free += 1
            s = hall_violator(g)
            if len(s) <= len(neighborhood(g, s)):
                failures.append({"graph": idx, "reason": "violator fails |S| > |N(S)|"})
    # Hall equivalence, exhaustive subsets.
    hall_graphs = small + _random_graphs(stream, 200, (4,))
    for idx, g in enumerate(hall_graphs):
        if (maximum_matching(g).size == g.n) != _hall_holds(g.row_masks):
            failures.append({"graph": idx, "reason": "Hall equivalence broken"})
    return CheckResult(
        "Berge maximum matching, Hall violators and equivalence",
        not failures,
        {
            "graphs_checked": len(graphs),
            "pm_free_instances": pm_free,
            "hall_equivalence_graphs": len(hall_graphs),
            "failures": failures[:5],
        },
    )


# ---------------------------------------------------------------------------
# coverage driver (sz and iso suites)


def _coverage(witness, count: int, values: range, arity: int, target: list,
              budget: int) -> tuple[bool, dict]:
    """One case of the counting argument behind both error bounds:
    ``witness(i, rest)`` maps the padded sample space
    [0, count) x values^arity onto ``target``, so |target| is at most
    bound = count * |values|^arity.

    The domain is enumerated in that order under ``budget``.  Returns
    whether the case holds (the map is onto, the whole space was
    enumerated and the target fits the bound) and the case's
    ``"bound"`` and ``"surjectivity"`` entries."""
    domain = ((i, rest) for i in range(count) for rest in product(values, repeat=arity))
    report = check_surjection(domain, lambda x: witness(*x), target, budget=budget)
    bound = count * len(values) ** arity
    holds = report.surjective and report.domain_size == bound and len(target) <= bound
    return holds, {"bound": bound, "surjectivity": report.to_dict()}


def _all_passed(cases: list[dict]) -> bool:
    # A check that ran no case shows nothing, so it fails.
    return bool(cases) and all(case["passed"] for case in cases)


def _zero_witness_case(head: dict, g: BipartiteGraph, s: int, cert, budget: int,
                       anchor=None) -> dict:
    """One zero-set coverage case: ``head``, then the size of g's zero
    set over [0, s), the :func:`_coverage` entries of the witness map
    that ``cert`` fixes, and whether the case holds and the size equals
    ``anchor`` where one is given."""
    n = g.n
    target = list(zero_set(g, s, budget))
    witness = zero_witness_graph_map(g, s, cert)
    holds, entries = _coverage(witness, n, range(s), n * n - 1, target, budget)
    return (
        head
        | {"zero_set_size": len(target)}
        | entries
        | {"passed": holds and anchor in (None, len(target))}
    )


def check_zero_witness_complete(
    max_n: float = inf, max_s: float = inf, budget: int = DEFAULT_BUDGET
) -> CheckResult:
    """Exhaustive surjectivity of the complete-graph witness onto the
    zero set, plus the frozen cardinality anchors and the counting
    bound |Z| <= n * s^(n^2 - 1), for each case (n, s) of
    (2, 2), (2, 3), (2, 4) and (3, 2) with n <= max_n and s <= max_s.
    The witness is the general-graph map on K_{n,n} certified by the
    identity."""
    anchors = {(2, 2): 10, (2, 4): 64}
    per_case = [
        _zero_witness_case({"n": n, "s": s}, BipartiteGraph.complete(n), s,
                           IntMatrix.identity(n), budget, anchors.get((n, s)))
        for n, s in ((2, 2), (2, 3), (2, 4), (3, 2))
        if n <= max_n and s <= max_s
    ]
    return CheckResult(
        "complete-graph zero-set witness surjective",
        _all_passed(per_case),
        {"cases": per_case},
    )


def _fixed_witness_graphs() -> list[BipartiteGraph]:
    return [
        BipartiteGraph.from_rows([[1, 0], [0, 1]]),  # diagonal only
        BipartiteGraph.from_rows([[1, 0], [1, 1]]),  # one edge missing
        BipartiteGraph.from_rows([[1, 1, 0], [1, 1, 1], [0, 1, 1]]),
    ]


def check_zero_witness_graph(max_s: float = inf, budget: int = DEFAULT_BUDGET) -> CheckResult:
    """Exhaustive surjectivity of the general-graph witness on fixed
    non-complete graphs, certified by a perfect matching's permutation
    matrix, at s = 2 and 3 where s <= max_s."""
    per_case = []
    for g in _fixed_witness_graphs():
        cert = maximum_matching(g).permutation_matrix(g.n)
        for s in (s for s in (2, 3) if s <= max_s):
            head = {"n": g.n, "edges": g.num_edges, "s": s}
            per_case.append(_zero_witness_case(head, g, s, cert, budget))
    return CheckResult(
        "general-graph zero-set witness surjective",
        _all_passed(per_case),
        {"cases": per_case},
    )


def check_isolation(max_k: float = inf, budget: int = DEFAULT_BUDGET) -> CheckResult:
    """On the complete 2x2 graph, for each weight range [1, k] with k in
    2, 3, 4 and 8 and k <= max_k: the non-isolating predicate matches
    brute force on every assignment, the witness covers the whole bad
    set, and the counting bounds hold."""
    g = BipartiteGraph.complete(2)
    m = g.num_edges
    min_weight_pms = min_weight_pms_map(g)
    per_k = []
    for k in (k for k in (2, 3, 4, 8) if k <= max_k):
        # The target reuses the module's lexicographic bad-set
        # enumeration; an independent brute-force sweep checks the
        # predicate behind it assignment by assignment.
        bad = list(enumerate_nonisolating(g, k, budget))
        oracle_bad = [
            w
            for values in product(range(1, k + 1), repeat=m)
            for w in [WeightAssignment.from_edge_values(g, values)]
            if len(min_weight_pms(w).matchings) >= 2
        ]
        mismatches = len(set(bad) ^ set(oracle_bad))
        witness = nonisolating_witness_map(g, k, bad[0])
        holds, entries = _coverage(witness, m, range(1, k + 1), m - 1, bad, budget)
        fraction = Fraction(len(bad), k ** m)
        per_k.append(
            {
                "k": k,
                "assignments": k ** m,
                "bad_count": len(bad),
                "oracle_mismatches": mismatches,
                "fraction": f"{fraction.numerator}/{fraction.denominator}",
                "fraction_bound": f"{m}/{k}",
            }
            | entries
            | {"passed": holds and mismatches == 0 and fraction <= Fraction(m, k)}
        )
    return CheckResult(
        "isolating weights: predicate, witness coverage, bounds",
        _all_passed(per_k),
        {"graph": "complete 2x2", "cases": per_k},
    )


# ---------------------------------------------------------------------------
# mvv suite


def _fixed_unique_min_graphs() -> list[BipartiteGraph]:
    return [
        BipartiteGraph.from_rows([[1, 0], [0, 1]]),
        BipartiteGraph.complete(2),
        BipartiteGraph.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]]),
        BipartiteGraph.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
        BipartiteGraph.from_rows(
            [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
        ),
    ]


UNIQUE_MIN_RANDOM_SAMPLES = 300


def _unique_min_instances(seed: int = DEFAULT_SEED):
    """The instances of :func:`check_unique_min_theorems`, in order, as
    ``(label, key, g, w, truth)`` with ``truth`` the oracle's minimum:
    every weighting in [1, 3] of each fixed graph, then 300 n = 5 graphs
    with weights in [1, 6] from one seeded stream."""
    for gi, g in enumerate(_fixed_unique_min_graphs()):
        min_weight_pms = min_weight_pms_map(g)
        for values in product(range(1, 4), repeat=g.num_edges):
            w = WeightAssignment.from_edge_values(g, values)
            yield f"fixed{gi}:", values, g, w, min_weight_pms(w)
    stream = SplitMix64(derive_seed(seed, 501))
    for t in range(UNIQUE_MIN_RANDOM_SAMPLES):
        g = _random_graph(stream, 5)
        w = WeightAssignment.from_grid(_random_rows(stream, 5, 1, 6))
        yield "random", t, g, w, brute_min_weight_pms(g, w)


def check_unique_min_theorems(seed: int = DEFAULT_SEED) -> tuple[CheckResult, CheckResult]:
    """On every instance whose minimum-weight perfect matching the
    oracle confirms unique: the determinant's trailing zero count
    equals the minimum weight, and the per-edge membership test agrees
    with the oracle's matching edge by edge; on every instance with no
    perfect matching, the determinant is 0.  Both read the power
    matrix through :func:`~wmatch.mvv.exact_power_det_valuation`.
    Weights are exhaustive in [1, 3] on fixed graphs and random in
    [1, 6] on 300 n = 5 graphs (:func:`_unique_min_instances`)."""
    weight_failures = []
    membership_failures = []
    cases = unique_cases = 0

    def fail(failures: list, label: str, key, **entry):
        # An instance's tag is formatted only when it records a failure.
        failures.append({"instance": f"{label}{key}"} | entry)

    for label, key, g, w, truth in _unique_min_instances(seed):
        # The power matrix is read only on the branches that need it, so
        # not at all when the minimum is not unique.
        cases += 1
        if truth.weight is None:
            if exact_power_det_valuation(g, w) is not None:
                fail(weight_failures, label, key, reason="no PM but det != 0")
            continue
        if not truth.unique:
            continue
        unique_cases += 1
        found = exact_power_det_valuation(g, w)
        if found is None:
            fail(weight_failures, label, key, reason="unique min but det = 0")
            continue
        p, tight = found
        if p != truth.weight:
            fail(weight_failures, label, key, reason="trailing zeros != min weight")
        # Both sets hold edges only, so they are equal exactly when no
        # edge is recorded below.
        members = set(tight)
        pm = set(truth.matchings[0].pairs)
        if members != pm:
            for edge in g.edge_list():
                if (edge in members) != (edge in pm):
                    fail(membership_failures, label, key, edge=list(edge),
                         reason="membership mismatch")

    details = {
        "exhaustive_cases": cases - UNIQUE_MIN_RANDOM_SAMPLES,
        "random_cases": UNIQUE_MIN_RANDOM_SAMPLES,
        "unique_min_cases": unique_cases,
    }
    return (
        CheckResult(
            "unique minimum weight = determinant trailing zeros",
            not weight_failures,
            details | {"failures": weight_failures[:5]},
        ),
        CheckResult(
            "edge membership test matches the unique minimum matching",
            not membership_failures,
            details | {"failures": membership_failures[:5]},
        ),
    )


def check_weight_bounded_extraction(seed: int = DEFAULT_SEED) -> CheckResult:
    """On 300 random nonzero-determinant instances (unique or not),
    the extracted matching is valid and weighs at most the
    determinant's trailing zero count."""
    samples = 300
    stream = SplitMix64(derive_seed(seed, 601))
    failures = []
    done = attempts = 0
    while done < samples and attempts < 50 * samples:
        attempts += 1
        n = stream.randint(2, 5)
        g = _random_graph(stream, n)
        w = WeightAssignment.from_grid(_random_rows(stream, n, 1, 6))
        # extract_pm_weight_bounded raises AssertionError when the
        # matching it extracts weighs more than the bound.
        try:
            m = extract_pm_weight_bounded(g, w)
        except ZeroDeterminantError:
            continue
        except AssertionError:
            m = None
        done += 1
        if m is None:
            failures.append({"case": done, "reason": "weight bound violated"})
        elif not is_perfect_matching(g, m):
            failures.append({"case": done, "reason": "extraction not a PM"})
    return CheckResult(
        "weight-bounded extraction on nonzero determinants",
        done >= samples and not failures,
        {"cases": done, "failures": failures[:5]},
    )


def check_mvv_success_rate(seed: int = DEFAULT_SEED, trials: int = 1000) -> CheckResult:
    """Empirical success of the randomized finder: at least min_rate on
    graphs with a perfect matching, exactly zero on graphs without.  The
    guarantee is 1/2; the 0.45 floor absorbs sampling noise."""
    min_rate = 0.45

    def ring(n):
        return BipartiteGraph.from_rows(
            [[1 if j in (i, (i + 1) % n) else 0 for j in range(n)] for i in range(n)]
        )

    with_pm = [("K44", BipartiteGraph.complete(4)), ("ring5", ring(5)), ("ring6", ring(6))]
    no_pm = [
        ("isolated_left", BipartiteGraph.from_rows([[0, 0, 0], [1, 1, 1], [1, 1, 1]])),
        (
            "pigeonhole",
            BipartiteGraph.from_rows(
                [[1, 1, 0, 0], [1, 1, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1]]
            ),
        ),
    ]
    rates = {}
    ok = True
    for base, has_pm, graphs in ((100_000, True, with_pm), (900_000, False, no_pm)):
        for gi, (label, g) in enumerate(graphs):
            successes = 0
            for t in range(trials):
                trial = mvv_trial(g, derive_seed(seed, base * (gi + 1) + t))
                if trial.success:
                    ok = ok and is_perfect_matching(g, trial.matching)
                    successes += 1
            rates[label] = {"successes": successes, "trials": trials}
            ok = ok and (successes >= min_rate * trials if has_pm else successes == 0)
    return CheckResult(
        "randomized finder success rates",
        ok,
        {"min_rate": min_rate, "rates": rates},
    )


# ---------------------------------------------------------------------------
# suite assembly


def run_suite(
    name: str,
    seed: int = DEFAULT_SEED,
    trials: int = 1000,
    max_n: float = inf,
    max_s: float = inf,
    max_k: float = inf,
    budget: int = DEFAULT_BUDGET,
) -> SuiteReport:
    """Run one named verification suite (or every suite for "all").

    ``max_n``, ``max_s`` and ``max_k`` go to the checks unchanged; each
    check keeps its own case list and drops the cases above a cap.  The
    defaults drop none."""
    if name not in SUITE_NAMES + ("all",):
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    checks = []
    for suite in SUITE_NAMES if name == "all" else (name,):
        if suite == "det":
            checks += [
                check_det_agreement(seed=seed, max_n=max_n),
                check_permutation_determinants(max_n=max_n),
                check_matching_determinant_equivalence(seed=seed),
            ]
        elif suite == "classical":
            checks += [
                check_hungarian_against_brute(seed=seed, max_n=max_n),
                check_mwpm_against_brute(seed=seed, max_n=max_n),
                check_berge_hall(seed=seed),
            ]
        elif suite == "sz":
            checks += [
                check_zero_witness_complete(max_n=max_n, max_s=max_s, budget=budget),
                check_zero_witness_graph(max_s=max_s, budget=budget),
            ]
        elif suite == "iso":
            checks.append(check_isolation(max_k=max_k, budget=budget))
        elif suite == "mvv":
            checks += [
                *check_unique_min_theorems(seed=seed),
                check_weight_bounded_extraction(seed=seed),
                check_mvv_success_rate(seed=seed, trials=trials),
            ]
    return SuiteReport(name, checks)
