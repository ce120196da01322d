"""The checks fail when the code they check is wrong.

Each coverage witness is replaced by a map that returns one constant
element of its error set, so every case with more than one error leaves
some of it uncovered; other checks get one wrong value patched in.  No
correct run of the package reaches these failures.
"""

from itertools import combinations

from wmatch import verify
from wmatch.classical import neighborhood
from wmatch.graphs import BipartiteGraph, Matching


def zero_grid(n):
    return tuple((0,) * n for _ in range(n))


def assert_fails_uncovered(result):
    assert result.passed is False
    cases = result.details["cases"]
    assert cases
    for case in cases:
        report = case["surjectivity"]
        assert case["passed"] is False
        assert report["surjective"] is False
        assert report["uncovered"]
        assert report["covered_count"] == 1
        assert report["target_size"] == report["covered_count"] + len(report["uncovered"])


def constant_zero_map(g, s, cert):
    return lambda i, rest: zero_grid(g.n)


def test_complete_witness_constant(monkeypatch):
    monkeypatch.setattr(verify, "zero_witness_graph_map", constant_zero_map)
    assert_fails_uncovered(verify.check_zero_witness_complete())


def test_graph_witness_constant(monkeypatch):
    monkeypatch.setattr(verify, "zero_witness_graph_map", constant_zero_map)
    assert_fails_uncovered(verify.check_zero_witness_graph())


def test_nonisolating_witness_constant(monkeypatch):
    def constant_map(g, k, dummy):
        return lambda i, rest: dummy

    monkeypatch.setattr(verify, "nonisolating_witness_map", constant_map)
    result = verify.check_isolation()
    assert_fails_uncovered(result)
    # The predicate sweep still agrees; only the coverage fails.
    assert all(case["oracle_mismatches"] == 0 for case in result.details["cases"])


def test_unique_min_failure_tags(monkeypatch):
    # Tags are formatted only when a failure is recorded; they keep the
    # instance's label and key, byte for byte, and entries keep their
    # key order.  The reading is patched only where det != 0, so the
    # PM-free branch still sees None.
    reading = verify.exact_power_det_valuation
    monkeypatch.setattr(verify, "exact_power_det_valuation",
                        lambda g, w: reading(g, w) and (-1, []))
    weight, membership = verify.check_unique_min_theorems()
    assert not weight.passed and not membership.passed
    assert weight.details["failures"][0] == {
        "instance": "fixed0:(1, 1)", "reason": "trailing zeros != min weight"
    }
    assert list(membership.details["failures"][0].items()) == [
        ("instance", "fixed0:(1, 1)"), ("edge", [0, 0]), ("reason", "membership mismatch")
    ]


def test_unique_min_pm_free_failure_tags(monkeypatch):
    # Every fixed graph has a perfect matching, so only random instances
    # reach the PM-free branch.  The reading is patched only on graphs
    # with no perfect matching.
    reading = verify.exact_power_det_valuation

    def nonzero_without_pm(g, w):
        return reading(g, w) if g.has_perfect_matching() else (0, [])

    monkeypatch.setattr(verify, "exact_power_det_valuation", nonzero_without_pm)
    weight, membership = verify.check_unique_min_theorems()
    assert membership.passed and not weight.passed
    failures = weight.details["failures"]
    assert len(failures) == 5
    for failure in failures:
        assert failure["reason"] == "no PM but det != 0"
        assert failure["instance"].startswith("random")
        assert failure["instance"][len("random"):].isdigit()


def extraction_failures(monkeypatch, error):
    # Every extraction raises ``error``; the check records it instead of
    # ending with a traceback.
    def raising(g, b):
        raise error("bad extraction")

    monkeypatch.setattr(verify, "extract_pm_trace", raising)
    result = verify.check_matching_determinant_equivalence()
    assert result.passed is False
    return [failure["reason"] for failure in result.details["failures"]]


def test_extraction_errors_are_failures(monkeypatch):
    for error in (ValueError, AssertionError):
        assert extraction_failures(monkeypatch, error)[:2] == [
            "extraction invalid", "random extraction invalid"
        ]


def test_zero_determinant_sample_is_skipped(monkeypatch):
    # A ZeroDeterminantError is a ValueError: on the perfect matching's
    # evaluation (det = ±1) it is a failure, on a random sample a skip.
    reasons = extraction_failures(monkeypatch, verify.ZeroDeterminantError)
    assert reasons == ["extraction invalid"] * 5


# The Berge-Hall and matching-determinant checks compute each distinct
# state once; a wrong value must still fail every graph that reads it.


def test_memoized_perm_det_failure_is_reported(monkeypatch):
    # One evaluation of PM-free graphs gets det 1.  It is computed on the
    # first graph that holds it and read from the memo after that, so
    # every holder fails, as when each evaluation is recomputed.
    target = ((0, 1, 0), (1, 0, 0), (0, 0, 0))
    det = verify.det_bareiss
    monkeypatch.setattr(verify, "det_bareiss", lambda m: 1 if m.rows == target else det(m))
    result = verify.check_matching_determinant_equivalence()
    holders = [
        idx for idx, g in enumerate(verify._all_graphs(3))
        if not g.has_perfect_matching()
        and any(verify.edmonds_eval(g, p).rows == target for p in verify._permutation_matrices(3))
    ]
    assert result.passed is False
    assert result.details["failures"] == [
        {"graph": idx, "reason": "no PM but nonzero perm det"} for idx in holders[:5]
    ]


def test_memoized_matching_size_failure_is_reported(monkeypatch):
    # The diagonal 3x3 graph gets a maximum matching one edge short.  The
    # Berge loop reports it, and the Hall loop, which calls
    # maximum_matching again on the same graph object (whose Kuhn pass
    # the graph keeps), reports the broken equivalence.
    diagonal = BipartiteGraph.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    idx = list(verify._all_graphs(3)).index(diagonal)
    real = verify.maximum_matching

    def one_short(g):
        m = real(g)
        return Matching(m.pairs[:-1]) if g == diagonal else m

    monkeypatch.setattr(verify, "maximum_matching", one_short)
    result = verify.check_berge_hall()
    assert result.passed is False
    assert result.details["failures"] == [
        {"graph": idx, "reason": "maximum matching size wrong"},
        {"graph": idx, "reason": "Hall equivalence broken"},
    ]


def test_hall_holds_matches_subset_enumeration():
    # The diagonal graph has |S| = |N(S)| for every S, so a test that
    # took equality for a violation would fail it.
    assert verify._hall_holds((1, 2, 4)) is True
    assert verify._hall_holds((3, 3, 3)) is False
    for g in verify._all_graphs(3):
        expected = all(
            len(s) <= len(neighborhood(g, s))
            for size in range(4)
            for s in combinations(range(3), size)
        )
        assert verify._hall_holds(g.row_masks) is expected
    assert verify.check_berge_hall().passed
