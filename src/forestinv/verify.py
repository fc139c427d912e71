"""Named verification suites.

Each suite cross-checks one layer of the package against an independent
oracle or a closed-form identity and reports pass/fail lines.  The CLI
`verify` subcommand runs these; the acceptance tests run the same
routines at their contractual sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import oracles
from .algebra import (
    FiniteVarPoly,
    QSym,
    principal_specialization,
    qsym_to_finite,
)
from .engine import (
    brute_force_order_count,
    brute_force_qsym,
    collision_report,
    evaluate,
    order_poly,
    qsym_strict,
    qsym_strict_spec,
    qsym_weak,
    qsym_weak_spec,
    strict_order_poly,
    strict_order_spec,
    weak_order_spec,
)
from .errors import DomainError
from .genfun import cayley_check, u_by_enumeration, u_by_recurrence, verify_functional_equation
from .operators import finite_lambda_bar, lambda_, lambda_bar, shift_s
from .planar import (
    enumerate_planar,
    enumerate_planar_forests,
    free_word_family,
    check_tensor_grafting,
    planar_equation_residual,
    planar_tree_count,
    u_planar_by_enumeration,
    u_planar_by_recurrence,
)
from .trees import automorphism_order, enumerate_forests, enumerate_trees


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    lines: list

    def to_jsonable(self) -> dict:
        return {"suite": self.suite, "passed": self.passed, "lines": self.lines}


def _result(suite, checks, lines):
    return SuiteResult(suite=suite, passed=all(checks), lines=lines)


def suite_census(max_n: int = 8) -> SuiteResult:
    """Tree and forest counts against the level-sequence oracle and the
    Euler transform."""
    lines, checks = [], []
    tree_counts = []
    for n in range(1, max_n + 1):
        count = len(enumerate_trees(n))
        tree_counts.append(count)
        independent = oracles.count_trees_by_level_sequence(n)
        same_keys = sorted(t.key for t in enumerate_trees(n)) == sorted(
            oracles.tree_from_level_sequence(seq).key for seq in oracles.level_sequences(n)
        )
        ok = count == independent and same_keys
        checks.append(ok)
        lines.append(
            f"trees n={n}: {count} canonical vs {independent} by level sequences "
            f"({'same classes' if same_keys else 'CLASS MISMATCH'})"
        )
    forest_counts = [len(enumerate_forests(n)) for n in range(1, max_n + 1)]
    expected = oracles.euler_transform(tree_counts)
    ok = forest_counts == expected
    checks.append(ok)
    lines.append(f"forests n=1..{max_n}: {forest_counts} vs Euler transform {expected}")
    return _result("census", checks, lines)


def suite_cayley(max_n: int = 12) -> SuiteResult:
    """Automorphism-weighted tree counts against n^(n-1)/n!."""
    report = cayley_check(max_n)
    lines = [
        f"n={row['n']}: sum 1/alpha = {row['tree_sum']} vs {row['closed_form']}"
        for row in report.rows
    ]
    lines.append(f"series residual q*exp(u) - u zero: {report.residual_zero}")
    return _result("cayley", [report.ok], lines)


def _four_specs(order: int):
    return (
        ("delta-inv", strict_order_spec()),
        ("nabla-inv", weak_order_spec()),
        ("lambda-bar", qsym_strict_spec(order)),
        ("lambda", qsym_weak_spec(order)),
    )


def suite_recurrence(max_n: int = 8) -> SuiteResult:
    """Fixed-point recurrence against direct enumeration, all four
    shipped invariants."""
    lines, checks = [], []
    for name, spec in _four_specs(max_n):
        rec = u_by_recurrence(spec, max_n)
        enu = u_by_enumeration(spec, max_n)
        ok = rec.terms == enu.terms
        checks.append(ok)
        lines.append(f"{name}: recurrence == enumeration through n={max_n}: {ok}")
    return _result("recurrence", checks, lines)


def suite_functional_equation(max_n: int = 8) -> SuiteResult:
    """Residual of q * X(exp U(q)) - U(q) with U built by enumeration."""
    lines, checks = [], []
    for name, spec in _four_specs(max_n):
        residual = verify_functional_equation(spec, max_n)
        ok = residual.is_zero()
        checks.append(ok)
        lines.append(f"{name}: residual zero through q^{max_n}: {ok}")
    return _result("functional-equation", checks, lines)


def suite_order_oracle(max_n: int = 6, m_max: int = 5) -> SuiteResult:
    """Order polynomials against brute-force labeling counts."""
    lines, checks = [], []
    for n in range(1, max_n + 1):
        ok = True
        for tree in enumerate_trees(n):
            strict_poly = strict_order_poly(tree)
            weak_poly = order_poly(tree)
            for m in range(0, m_max + 1):
                if strict_poly(m) != brute_force_order_count(tree, m, strict=True):
                    ok = False
                if weak_poly(m) != brute_force_order_count(tree, m, strict=False):
                    ok = False
        checks.append(ok)
        lines.append(f"n={n}: strict and weak counts match brute force for m<={m_max}: {ok}")
    return _result("order-oracle", checks, lines)


def suite_qsym_oracle(max_n: int = 5) -> SuiteResult:
    """Quasi-symmetric values against brute-force monomial sums in
    m = n + 2 variables."""
    lines, checks = [], []
    for n in range(1, max_n + 1):
        m = n + 2
        ok = True
        for tree in enumerate_trees(n):
            if qsym_to_finite(qsym_strict(tree), m) != brute_force_qsym(tree, m, True):
                ok = False
            if qsym_to_finite(qsym_weak(tree), m) != brute_force_qsym(tree, m, False):
                ok = False
        checks.append(ok)
        lines.append(f"n={n}: strict and weak expansions match brute force in {m} vars: {ok}")
    return _result("qsym-oracle", checks, lines)


def suite_specialization(max_n: int = 6, m_max: int = 6) -> SuiteResult:
    """Principal specialization of the quasi-symmetric refinements
    against the order polynomials."""
    lines, checks = [], []
    for n in range(1, max_n + 1):
        ok = True
        for tree in enumerate_trees(n):
            ks = qsym_strict(tree)
            kw = qsym_weak(tree)
            sp = strict_order_poly(tree)
            wp = order_poly(tree)
            for m in range(0, m_max + 1):
                if principal_specialization(ks, m) != sp(m):
                    ok = False
                if principal_specialization(kw, m) != wp(m):
                    ok = False
        checks.append(ok)
        lines.append(f"n={n}: specializations match order polynomials for m<={m_max}: {ok}")
    return _result("specialization", checks, lines)


def suite_collisions(max_n: int = 7) -> SuiteResult:
    """Distinguishing-power survey of the strict quasi-symmetric
    invariant.  Collisions are findings to report, not failures."""
    pairs = collision_report(max_n, qsym_strict_spec(max_n))
    lines = [f"lambda-bar invariant over all trees with n <= {max_n}: {len(pairs)} collision pairs"]
    for pair in pairs:
        lines.append(
            f"n={pair.n}: {pair.tree_a} vs {pair.tree_b} "
            f"(alpha {pair.alpha_a} vs {pair.alpha_b}, "
            f"alpha collides: {pair.alpha_collision})"
        )
    return _result("collisions", [True], lines)


def suite_planar(max_n: int = 6) -> SuiteResult:
    """Planar recurrence against planar enumeration and the census, for
    one and two labels, plus the geometric fixed-point residual."""
    lines, checks = [], []
    for labels in (("a",), ("a", "b")):
        family = free_word_family(labels)
        rec = u_planar_by_recurrence(family, max_n)
        enu = u_planar_by_enumeration(family, max_n)
        ok = rec.per_label == enu.per_label
        checks.append(ok)
        lines.append(f"labels {list(labels)}: recurrence == enumeration through n={max_n}: {ok}")
        residual = planar_equation_residual(family, max_n, sequence=enu)
        checks.append(residual.is_zero())
        lines.append(f"labels {list(labels)}: fixed-point residual zero: {residual.is_zero()}")
        census_ok = all(
            len(enumerate_planar(n, labels)) == planar_tree_count(n, len(labels))
            for n in range(1, max_n + 1)
        )
        dyck_ok = all(
            planar_tree_count(n, 1) == oracles.count_dyck_words(n - 1)
            for n in range(1, max_n + 1)
        )
        checks.append(census_ok and dyck_ok)
        lines.append(
            f"labels {list(labels)}: census matches Catalan * labelings "
            f"(and brute-force balanced words): {census_ok and dyck_ok}"
        )
    return _result("planar", checks, lines)


def suite_grafting(max_n: int = 4) -> SuiteResult:
    """Tensor-valued grafting identity and multiplicativity over every
    two-label planar forest with at most max_n vertices."""
    samples = []
    for n in range(0, max_n + 1):
        samples.extend(enumerate_planar_forests(n, ("a", "b")))
    base = free_word_family(("a", "b"))
    report = check_tensor_grafting(samples, base, product_vertex_cap=max_n)
    graft_ok = all(c["ok"] for c in report.graft_checks)
    product_ok = all(c["ok"] for c in report.product_checks)
    lines = [
        f"graft split identity on {len(report.graft_checks)} forest/label pairs: {graft_ok}",
        f"multiplicativity on {len(report.product_checks)} ordered pairs: {product_ok}",
    ]
    return _result("grafting", [report.ok], lines)


def suite_automorphisms(max_n: int = 7) -> SuiteResult:
    """Automorphism orders against permutation brute force."""
    lines, checks = [], []
    for n in range(1, max_n + 1):
        ok = all(
            automorphism_order(tree) == oracles.count_root_automorphisms(tree)
            for tree in enumerate_trees(n)
        )
        checks.append(ok)
        lines.append(f"n={n}: recursive alpha == permutation count for all trees: {ok}")
    return _result("automorphisms", checks, lines)


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


def suite_shift_identities(max_n: int = 10) -> SuiteResult:
    """Operator identities in the finite-variable model: the variable and
    shift commutation x_m S^k = S^k x_{m-k}, and (1 - S) after the strict
    prepend operator equals multiplication by x_1 after one shift."""
    import random

    num_vars = max(max_n, 6)
    rng = random.Random(20260815)
    lines, checks = [], []

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
    checks.append(commute_ok)
    lines.append(f"x_m S^k == S^k x_(m-k) for 1 <= k < m <= 6: {commute_ok}")

    telescope_ok = True
    for p in fixed + [random_poly() for _ in range(40)]:
        image = finite_lambda_bar(p)
        lhs = image - shift_s(image)
        rhs = FiniteVarPoly.variable(1, num_vars, 4 + 1) * shift_s(p)
        if lhs != rhs:
            telescope_ok = False
    checks.append(telescope_ok)
    lines.append(f"(1 - S) after the strict prepend equals x_1 S: {telescope_ok}")
    return _result("shift-identities", checks, lines)


def _iterate_shift(p: FiniteVarPoly, k: int) -> FiniteVarPoly:
    for _ in range(k):
        p = shift_s(p)
    return p


SUITES = {
    "census": suite_census,
    "cayley": suite_cayley,
    "recurrence": suite_recurrence,
    "functional-equation": suite_functional_equation,
    "order-oracle": suite_order_oracle,
    "qsym-oracle": suite_qsym_oracle,
    "specialization": suite_specialization,
    "collisions": suite_collisions,
    "planar": suite_planar,
    "grafting": suite_grafting,
    "automorphisms": suite_automorphisms,
    "shift-identities": suite_shift_identities,
}


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
    out = []
    for suite_name in names:
        runner = SUITES[suite_name]
        out.append(runner() if max_n is None else runner(max_n))
    return out
