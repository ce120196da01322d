"""The coverage checks fail when their witness does not cover.

Each witness is replaced by a map that returns one constant element of
its error set, so every case with more than one error leaves some of
it uncovered.  No correct run of the package reaches these failures.
"""

from wmatch import verify


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
