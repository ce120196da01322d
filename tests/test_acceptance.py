"""Acceptance suite: one test per advertised correctness criterion.

Every criterion is exact (no tolerances) except the randomized finder's
success rate, which uses a 0.45 floor to absorb sampling noise around
the 1/2 guarantee.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one PASS/FAIL line per criterion.
"""

import pytest

from wmatch.verify import (
    check_berge_hall,
    check_det_agreement,
    check_hungarian_against_brute,
    check_isolation,
    check_matching_determinant_equivalence,
    check_mvv_success_rate,
    check_mwpm_against_brute,
    check_permutation_determinants,
    check_unique_min_theorems,
    check_weight_bounded_extraction,
    check_zero_witness_complete,
    check_zero_witness_graph,
)


def report(number, description, *results):
    passed = all(r.passed for r in results)
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}")
    for r in results:
        assert r.passed, (r.name, r.details)


@pytest.fixture(scope="module")
def unique_min_results():
    # criteria 8 and 9 share one instance sweep
    return check_unique_min_theorems()


def test_criterion_1_determinant_oracle_agreement():
    report(
        1,
        "det_berkowitz = det_cofactor = det_lagrange, exhaustive 3x3 "
        "and 200 random cases each for n in {4,5,6}",
        check_det_agreement(max_n=6),
    )


def test_criterion_2_permutation_determinants():
    report(
        2,
        "every permutation matrix up to n = 6 has determinant ±1",
        check_permutation_determinants(max_n=6),
    )


def test_criterion_3_matching_determinant_equivalence():
    report(
        3,
        "perfect matching exists iff an evaluation has nonzero "
        "determinant; extraction certifies every nonzero evaluation",
        check_matching_determinant_equivalence(),
    )


def test_criterion_4_zero_set_witnesses():
    report(
        4,
        "zero-set witnesses exhaustively surjective (complete cases "
        "(2,2),(2,3),(2,4),(3,2); three non-complete graphs at s in "
        "{2,3}); |Z(2,2)| = 10, |Z(2,4)| = 64; |Z| <= n*s^(n^2-1)",
        check_zero_witness_complete(),
        check_zero_witness_graph(),
    )


def test_criterion_5_isolation():
    report(
        5,
        "non-isolating predicate matches brute force on [1,k]^4 for "
        "k in {2,3,4,8}; witness covers the bad set; |Phi| <= m*k^(m-1); "
        "failure fraction <= m/k",
        check_isolation(max_k=8),
    )


def test_criterion_6_hungarian():
    report(
        6,
        "Hungarian: w(M) = cover cost, cover valid, and w(M) matches "
        "brute force on 500 random instances (n <= 5, weights <= 10)",
        check_hungarian_against_brute(),
    )


def test_criterion_7_mwpm():
    report(
        7,
        "minimum-weight perfect matching: empty iff no PM, else "
        "minimum weight, on 500 random weighted graphs (n <= 5)",
        check_mwpm_against_brute(),
    )


def test_criterion_8_trailing_zero_weight(unique_min_results):
    report(
        8,
        "on every oracle-confirmed unique-minimum instance, the "
        "determinant's trailing zero count equals the minimum weight",
        unique_min_results[0],
    )


def test_criterion_9_edge_membership(unique_min_results):
    report(
        9,
        "edge membership test agrees edge-by-edge with the oracle's "
        "unique minimum matching on the same instances",
        unique_min_results[1],
    )


def test_criterion_10_weight_bounded_extraction():
    report(
        10,
        "on 300 random nonzero-determinant instances (unique or not), "
        "the extracted matching is valid with weight <= trailing zeros",
        check_weight_bounded_extraction(),
    )


def test_criterion_11_mvv_success_rate():
    report(
        11,
        "randomized finder: success rate >= 0.45 over 1000 seeded "
        "trials on three PM graphs; zero successes on PM-free graphs",
        check_mvv_success_rate(trials=1000),
    )


def test_criterion_12_berge_hall():
    report(
        12,
        "maximum matching size matches brute force (exhaustive n = 3, "
        "500 random n in {4,5,6}); Hall violators valid on every "
        "PM-free instance; Hall equivalence exhaustive",
        check_berge_hall(),
    )
