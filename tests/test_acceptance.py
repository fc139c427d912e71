"""Acceptance suite: the eleven checks that gate a release.

Each test runs the `verify` suites at their contractual sizes and prints
one always-visible line, ACCEPTANCE NN <name>: PASS or FAIL, with timing
or findings in parentheses.  Everything is exact rational arithmetic;
there are no tolerances to tune.
"""

import time

import pytest

from forestinv.trees import enumerate_trees
from forestinv.verify import (
    suite_automorphisms,
    suite_cayley,
    suite_census,
    suite_collisions,
    suite_functional_equation,
    suite_grafting,
    suite_order_oracle,
    suite_planar,
    suite_qsym_oracle,
    suite_recurrence,
    suite_shift_identities,
    suite_specialization,
)


TREE_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115]


@pytest.fixture
def announce(capsys):
    def report(number, name, ok, detail=""):
        line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line
    return report


def test_01_census_matches_independent_enumerator(announce):
    started = time.monotonic()
    ok = [len(enumerate_trees(n)) for n in range(1, 9)] == TREE_COUNTS
    ok = suite_census(8).passed and ok
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10
    announce(1, "tree census vs level-sequence oracle", ok, f"{elapsed:.2f}s")


def test_02_cayley_sums_exact_through_twelve(announce):
    started = time.monotonic()
    ok = suite_cayley(12).passed
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60
    announce(2, "automorphism-weighted sums equal n^(n-1)/n!", ok, f"{elapsed:.2f}s")


def test_03_recurrence_equals_enumeration_order_eight(announce):
    started = time.monotonic()
    ok = suite_recurrence(8).passed
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 120
    announce(3, "generating function: recurrence equals enumeration", ok, f"{elapsed:.2f}s")


def test_04_fixed_point_residuals_vanish_order_eight(announce):
    announce(4, "fixed-point equation residuals vanish", suite_functional_equation(8).passed)


def test_05_order_polynomials_match_map_counts(announce):
    announce(5, "order polynomials vs labeling brute force", suite_order_oracle(6, 5).passed)


def test_06_qsym_values_match_monomial_expansion(announce):
    ok = suite_qsym_oracle(5).passed
    announce(6, "quasi-symmetric values vs monomial brute force", ok)


def test_07_specialization_bridge(announce):
    ok = suite_specialization(6, 6).passed
    announce(7, "principal specialization recovers order polynomials", ok)


def test_08_collision_search_reports_findings(announce):
    # collisions are findings to report, never failures; the alpha flag
    # records whether the colliding trees also share automorphism order
    result = suite_collisions(7)
    announce(8, "collision search", result.passed, "; ".join(result.lines))


def test_09_planar_recurrence_matches_enumeration_and_census(announce):
    ok = suite_planar(6).passed
    announce(9, "planar recurrence, enumeration, and census agree", ok)


def test_10_tensor_grafting_identity_on_small_forests(announce):
    result = suite_grafting(4)
    announce(10, "tensor operators commute with grafting", result.passed, "; ".join(result.lines))


def test_11_automorphism_and_shift_identities(announce):
    # six variables put the suite's fixed shift inputs at the window edge
    ok = suite_automorphisms(7).passed and suite_shift_identities(6).passed
    announce(11, "automorphism counts and shift identities", ok)
