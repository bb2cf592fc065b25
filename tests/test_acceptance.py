"""Acceptance suite: one test per criterion, desk scale, exact (tolerance 0).

Each test prints a PASS/FAIL line (visible with `pytest -s` or on failure).
Criteria whose literal quantifier spans millions of pairs run exhaustively on
sizes <= 3 plus a fixed stratum of the size-4 classes by default; set
HOMCOUNT_ACCEPTANCE_FULL=1 for the unabridged quantifier (much slower).
"""

import pytest

from homcount.selftest import full_acceptance, run_criterion

# What each criterion checked at desk level.  A change that checks fewer
# pairs, squares or instances fails here instead of passing silently.
DESK_DETAILS = {
    1: "3160 classes; right: split by 3049 tests (242640 counts); "
       "left: split by 146 tests (93864 counts)",
    2: "34148 pair/system checks, exact",
    3: "34148 decompositions + FinSet table to 6",
    4: "34148 pair/system checks, exact",
    5: "1326 graph pairs on <= 5 vertices + named instance",
    6: "17 trees pairwise distinguished; chain law on all trees <= 7 nodes",
    7: "6 towers vs family of 7 groups",
    8: "5972 pushout squares, 122413 amalgamation instances",
}


def _check(number):
    result = run_criterion(number, "desk")
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{status} criterion {result.number}: {result.name} "
          f"[{result.detail}] ({result.seconds:.1f}s)")
    assert result.passed, f"criterion {result.number}: {result.detail}"
    if not full_acceptance():
        assert result.detail == DESK_DETAILS[number]


def test_criterion_1_lovasz_completeness_both_sides():
    _check(1)


def test_criterion_2_mobius_embedding_oracle():
    _check(2)


def test_criterion_3_stirling_decomposition():
    _check(3)


def test_criterion_4_generic_equals_embedding():
    _check(4)


def test_criterion_5_counting_logic_k2():
    _check(5)


def test_criterion_6_trees():
    _check(6)


def test_criterion_7_profinite_towers():
    _check(7)


def test_criterion_8_representable_amalgamation():
    _check(8)
