"""Named verification suites.

Each suite cross-checks one layer of the package against an independent
oracle or a closed-form identity.  It is written as a generator of
(ok, line) pairs, one pair per reported line, and `_suite(name)`
registers it in `SUITES`, in definition order, as a function of the same
arguments that returns one `SuiteResult`: its lines, passed when every
ok is true.  The whole generator runs inside that call, so a suite's
guards, which come first in its body, refuse before any work, and an
error leaves no partial result.  The CLI `verify` subcommand runs these;
the acceptance tests run the same routines at their contractual sizes,
on the shared built-in specs; a suite over the classes n <= max_n asks
each limit about max_n first.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb
from operator import mul
from typing import NamedTuple

from . import oracles
from .engine import (
    BUILT_IN_NAMES,
    _Grid,
    built_in_spec,
    check_class_cache,
    collision_report,
    qsym_strict,
    qsym_weak,
)
from .errors import DomainError, ResourceLimitError, _count_text
from .genfun import cayley_check, u_by_enumeration, u_by_recurrence, verify_functional_equation
from .oracles import (
    FiniteVarPoly,
    brute_force_order_count,
    brute_force_qsym,
    check_labeling_brute_force,
    finite_lambda_bar,
    qsym_to_finite,
    shift_s,
)
from .planar import (
    check_planar_count,
    enumerate_planar,
    enumerate_planar_forests,
    free_word_family,
    check_tensor_grafting,
    planar_equation_residual,
    planar_tree_count,
    u_planar_by_enumeration,
    u_planar_by_recurrence,
)
from .trees import automorphism_order, check_enumeration, enumerate_forests, enumerate_trees

# the largest label count m at which each suite checks its polynomials;
# the specialization suite compares them whole, so holds at every m
ORDER_ORACLE_M_MAX = 5
SPECIALIZATION_M_MAX = 6

# Most variables of the shift-identities suite, whose time is about their
# square: 0.52 s at 256, 2.1 s at 512 (Python 3.11, a 2-vCPU machine).
SHIFT_VARIABLE_LIMIT = 256

# Most planar trees the planar suite builds and evaluates, every tree on
# one and on two labels with at most max_n vertices, at about 20-30 us a
# tree: --max-n 8 is 130584 trees, 2.4-4 s, and --max-n 9 is 864174
# trees, 21.5 s (Python 3.11, a 2-vCPU machine).
PLANAR_SUITE_TREE_LIMIT = 200_000


class SuiteResult(NamedTuple):
    suite: str
    passed: bool
    lines: list

    def to_jsonable(self) -> dict:
        return {"suite": self.suite, "passed": self.passed, "lines": self.lines}


# every suite by name, in definition order; `_suite` fills it
SUITES: dict = {}


def _suite(name: str):
    """Register a generator of (ok, line) pairs as the suite `name`."""

    def register(checks):
        @functools.wraps(checks)
        def run(*args, **kwargs) -> SuiteResult:
            pairs = list(checks(*args, **kwargs))
            return SuiteResult(name, all(ok for ok, _ in pairs), [line for _, line in pairs])

        SUITES[name] = run
        return run

    return register


@_suite("census")
def suite_census(max_n: int = 8):
    """Tree and forest counts against the level-sequence oracle and the
    Euler transform."""
    # largest first: the forests on max_n need the trees on max_n + 1
    forest_counts = [len(enumerate_forests(n)) for n in range(max_n, 0, -1)][::-1]
    tree_counts = []
    for n in range(1, max_n + 1):
        trees = enumerate_trees(n)
        count = len(trees)
        tree_counts.append(count)
        independent = oracles.count_trees_by_level_sequence(n)
        same_keys = sorted(t.key for t in trees) == sorted(
            oracles.tree_from_level_sequence(seq).key for seq in oracles.level_sequences(n)
        )
        yield count == independent and same_keys, (
            f"trees n={n}: {count} canonical vs {independent} by level sequences "
            f"({'same classes' if same_keys else 'CLASS MISMATCH'})"
        )
    expected = oracles.euler_transform(tree_counts)
    yield forest_counts == expected, (
        f"forests n=1..{max_n}: {forest_counts} vs Euler transform {expected}"
    )


@_suite("cayley")
def suite_cayley(max_n: int = 12):
    """Automorphism-weighted tree counts against n^(n-1)/n!."""
    report = cayley_check(max_n)
    for row in report.rows:
        yield row["equal"], (
            f"n={row['n']}: sum 1/alpha = {row['tree_sum']} vs {row['closed_form']}"
        )
    yield report.residual_zero, f"series residual q*exp(u) - u zero: {report.residual_zero}"


def _check_class_caches(largest: int) -> None:
    """Ask `check_class_cache` of every built-in spec about caching the
    classes 1 .. largest, none of them past the enumeration cap."""
    for name in BUILT_IN_NAMES:
        check_class_cache(built_in_spec(name), largest)


@_suite("recurrence")
def suite_recurrence(max_n: int = 8):
    """Fixed-point recurrence against direct enumeration, all four
    shipped invariants."""
    check_enumeration(max_n)
    _check_class_caches(max_n - 1)
    for spec in map(built_in_spec, BUILT_IN_NAMES):
        ok = u_by_recurrence(spec, max_n).terms == u_by_enumeration(spec, max_n).terms
        yield ok, f"{spec.name}: recurrence == enumeration through n={max_n}: {ok}"


@_suite("functional-equation")
def suite_functional_equation(max_n: int = 8):
    """Residual of q * X(exp U(q)) - U(q) with U built by enumeration."""
    check_enumeration(max_n)
    _check_class_caches(max_n - 1)
    for spec in map(built_in_spec, BUILT_IN_NAMES):
        ok = verify_functional_equation(spec, max_n).is_zero()
        yield ok, f"{spec.name}: residual zero through q^{max_n}: {ok}"


def _order_walks(m: int) -> list:
    """One grid walk each of the strict and weak counts at t = 0 .. m."""
    return [_Grid(built_in_spec(name).grid_model, m).walk for name in ("delta-inv", "nabla-inv")]


@_suite("order-oracle")
def suite_order_oracle(max_n: int = 6):
    """Order polynomials against brute-force labeling counts."""
    # strict and weak, each over every label count m = 0 .. m_max
    m_max = ORDER_ORACLE_M_MAX
    check_labeling_brute_force(max_n, lambda n: 2 * sum(m**n for m in range(m_max + 1)))
    walks = tuple(zip(_order_walks(m_max), (True, False)))
    for n in range(1, max_n + 1):
        ok = all(
            walk(tree)[m] == brute_force_order_count(tree, m, strict)
            for tree in enumerate_trees(n)
            for walk, strict in walks
            for m in range(m_max + 1)
        )
        yield ok, f"n={n}: strict and weak counts match brute force for m<={m_max}: {ok}"


@_suite("qsym-oracle")
def suite_qsym_oracle(max_n: int = 5):
    """Quasi-symmetric values against brute-force monomial sums in
    m = n + 2 variables."""
    # strict and weak, each over n + 2 labels
    check_labeling_brute_force(max_n, lambda n: 2 * (n + 2) ** n)
    for n in range(1, max_n + 1):
        m = n + 2
        ok = all(
            qsym_to_finite(refine(tree), m) == brute_force_qsym(tree, m, strict)
            for tree in enumerate_trees(n)
            for refine, strict in ((qsym_strict, True), (qsym_weak, False))
        )
        yield ok, f"n={n}: strict and weak expansions match brute force in {m} vars: {ok}"


@_suite("specialization")
def suite_specialization(max_n: int = 6):
    """Principal specialization of the quasi-symmetric refinements
    against the order polynomials, as polynomials in the label count t:
    M_alpha specializes to C(t, l(alpha)), so a value whose numerators
    sum to s_l over its compositions of l parts specializes to the sum of
    s_l C(t, l) over its denominator.  On n vertices both sides have
    degree n, so they are compared at t = 0 .. n."""
    check_enumeration(max_n)
    _check_class_caches(max_n)
    binomials = [[comb(t, parts) for parts in range(max_n + 1)] for t in range(max_n + 1)]
    walks = tuple(zip((qsym_strict, qsym_weak), _order_walks(max_n)))
    for n in range(1, max_n + 1):
        ok = True
        for tree, (refine, walk) in itertools.product(enumerate_trees(n), walks):
            value, sums = refine(tree), [0] * (n + 1)
            for key, numerator in value.numerators.items():
                sums[len(key)] += numerator
            values = [value.denominator * count for count in walk(tree)[: n + 1]]
            ok &= values == [sum(map(mul, sums, row)) for row in binomials[: n + 1]]
        yield ok, (
            f"n={n}: specializations match order polynomials for m<={SPECIALIZATION_M_MAX}: {ok}"
        )


@_suite("collisions")
def suite_collisions(max_n: int = 7):
    """Distinguishing-power survey of the strict quasi-symmetric
    invariant.  Collisions are findings to report, not failures."""
    pairs = collision_report(max_n, built_in_spec("lambda-bar"))
    yield True, (
        f"lambda-bar invariant over all trees with n <= {max_n}: {len(pairs)} collision pairs"
    )
    for pair in pairs:
        yield True, (
            f"n={pair.n}: {pair.tree_a} vs {pair.tree_b} "
            f"(alpha {pair.alpha_a} vs {pair.alpha_b}, "
            f"alpha collides: {pair.alpha_collision})"
        )


@_suite("planar")
def suite_planar(max_n: int = 6):
    """Planar recurrence against planar enumeration and the census, for
    one and two labels, plus the geometric fixed-point residual."""
    # before any work: the two-label census, every tree the suite
    # evaluates, then the balanced-word scan
    check_planar_count(max_n, 2, "trees")
    trees = sum(planar_tree_count(n, k) for k in (1, 2) for n in range(1, max_n + 1))
    if trees > PLANAR_SUITE_TREE_LIMIT:
        raise ResourceLimitError(
            f"the planar suite evaluates {_count_text(trees)} planar trees on at most "
            f"{max_n} vertices, over the limit of {PLANAR_SUITE_TREE_LIMIT}",
            trees, PLANAR_SUITE_TREE_LIMIT,
        )
    oracles.check_dyck_scan(max_n - 1)
    for labels in (("a",), ("a", "b")):
        family = free_word_family(labels)
        rec = u_planar_by_recurrence(family, max_n)
        enu = u_planar_by_enumeration(family, max_n)
        ok = rec.per_label == enu.per_label
        yield ok, f"labels {list(labels)}: recurrence == enumeration through n={max_n}: {ok}"
        ok = planar_equation_residual(family, max_n, sequence=enu).is_zero()
        yield ok, f"labels {list(labels)}: fixed-point residual zero: {ok}"
        census_ok = all(
            len(enumerate_planar(n, labels)) == planar_tree_count(n, len(labels))
            for n in range(1, max_n + 1)
        )
        dyck_ok = all(
            planar_tree_count(n, 1) == oracles.count_dyck_words(n - 1)
            for n in range(1, max_n + 1)
        )
        ok = census_ok and dyck_ok
        yield ok, (
            f"labels {list(labels)}: census matches Catalan * labelings "
            f"(and brute-force balanced words): {ok}"
        )


@_suite("grafting")
def suite_grafting(max_n: int = 4):
    """Tensor-valued grafting identity and multiplicativity over every
    two-label planar forest with at most max_n vertices."""
    # the largest size first, so that a size past the planar guard is
    # refused before any forest is built
    levels = [enumerate_planar_forests(n, ("a", "b")) for n in range(max_n, -1, -1)]
    samples = [forest for level in reversed(levels) for forest in level]
    base = free_word_family(("a", "b"))
    report = check_tensor_grafting(samples, base, product_vertex_cap=max_n)
    graft_ok = all(c["ok"] for c in report.graft_checks)
    product_ok = all(c["ok"] for c in report.product_checks)
    yield graft_ok, (
        f"graft split identity on {len(report.graft_checks)} forest/label pairs: {graft_ok}"
    )
    yield product_ok, (
        f"multiplicativity on {len(report.product_checks)} ordered pairs: {product_ok}"
    )


@_suite("automorphisms")
def suite_automorphisms(max_n: int = 7):
    """Automorphism orders against permutation brute force."""
    oracles.check_permutation_brute_force(max_n)
    for n in range(1, max_n + 1):
        ok = all(
            automorphism_order(tree) == oracles.count_root_automorphisms(tree)
            for tree in enumerate_trees(n)
        )
        yield ok, f"n={n}: recursive alpha == permutation count for all trees: {ok}"


# fixed basis monomials beside the random inputs; with max_n <= 6 the
# window is six variables wide and the shifts push x_6 out of it
_FIXED_SHIFT_INPUTS = [
    (0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (1, 1, 0, 0, 1, 0),
    (0, 2, 0, 1, 0, 0),
    (2, 0, 0, 0, 0, 1),
]


@_suite("shift-identities")
def suite_shift_identities(max_n: int = 10):
    """Operator identities in the finite-variable model: the variable and
    shift commutation x_m S^k = S^k x_{m-k}, and (1 - S) after the strict
    prepend operator equals multiplication by x_1 after one shift."""
    import random

    num_vars = max(max_n, 6)
    if num_vars > SHIFT_VARIABLE_LIMIT:
        raise ResourceLimitError(
            f"the shift-identities suite works in {num_vars} variables, "
            f"over the limit of {SHIFT_VARIABLE_LIMIT}",
            num_vars, SHIFT_VARIABLE_LIMIT,
        )
    rng = random.Random(20260815)

    def random_poly():
        terms = {}
        for _ in range(rng.randint(1, 6)):
            expo = [0] * num_vars
            for _ in range(rng.randint(0, 4)):
                expo[rng.randrange(num_vars)] += 1
            terms[tuple(expo)] = Fraction(rng.randint(-5, 5))
        return FiniteVarPoly(terms, num_vars, 4)

    fixed = [
        FiniteVarPoly({expo + (0,) * (num_vars - 6): Fraction(1)}, num_vars, 4)
        for expo in _FIXED_SHIFT_INPUTS
    ]
    commute_ok = True
    for m in range(2, 7):
        for k in range(1, m):
            for p in fixed + [random_poly() for _ in range(8)]:
                left = FiniteVarPoly.variable(m, num_vars, 4 + 1)
                lhs = left * _iterate_shift(p, k)
                rhs = _iterate_shift(
                    FiniteVarPoly.variable(m - k, num_vars, 4 + 1) * p, k
                )
                if lhs != rhs:
                    commute_ok = False
    yield commute_ok, f"x_m S^k == S^k x_(m-k) for 1 <= k < m <= 6: {commute_ok}"

    telescope_ok = True
    for p in fixed + [random_poly() for _ in range(40)]:
        image = finite_lambda_bar(p)
        lhs = image - shift_s(image)
        rhs = FiniteVarPoly.variable(1, num_vars, 4 + 1) * shift_s(p)
        if lhs != rhs:
            telescope_ok = False
    yield telescope_ok, f"(1 - S) after the strict prepend equals x_1 S: {telescope_ok}"


def _iterate_shift(p: FiniteVarPoly, k: int) -> FiniteVarPoly:
    for _ in range(k):
        p = shift_s(p)
    return p


def available_suites() -> list:
    return list(SUITES)


def run_suite(name: str, max_n=None) -> list[SuiteResult]:
    """Run one suite (or 'all'); max_n overrides the default size."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise DomainError(
            f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'"
        )
    args = () if max_n is None else (max_n,)
    return [SUITES[suite_name](*args) for suite_name in names]
