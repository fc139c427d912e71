"""Command-line surface: output shapes, determinism, and exit codes.
Everything runs in process through main(argv)."""

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forestinv
from forestinv import cli
from forestinv.cli import main
from forestinv.engine import (
    BUILT_IN_NAMES,
    POLY_DEGREE_LIMIT,
    QSYM_PAIR_LIMIT,
    QSYM_TERM_LIMIT,
)
from forestinv.trees import DEPTH_LIMIT, KEY_CHAR_LIMIT
from forestinv.verify import SHIFT_VARIABLE_LIMIT, SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_json(capsys):
    code, out, err = run(capsys, "enumerate", "--vertices", "4")
    assert code == 0 and err == ""
    keys = json.loads(out)
    assert keys == ["(((())))", "((()()))", "(()(()))", "(()()())"]


def test_enumerate_is_deterministic(capsys):
    first = run(capsys, "enumerate", "--vertices", "6")
    second = run(capsys, "enumerate", "--vertices", "6")
    assert first == second


def test_enumerate_csv(capsys):
    code, out, err = run(capsys, "enumerate", "--vertices", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tree,alpha,vertex_count"
    assert lines[1:] == ["((())),1,3", "(()()),2,3"]


def test_enumerate_text(capsys):
    code, out, err = run(capsys, "enumerate", "--vertices", "2", "--format", "text")
    assert code == 0
    assert out == "(())\n"


def test_invariant_example(capsys):
    code, out, err = run(
        capsys, "invariant", "--tree", "(()())", "--operator", "delta-inv"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tree"] == "(()())"
    assert payload["operator"] == "delta-inv"
    assert payload["alpha"] == 2
    assert payload["value"] == ["0", "1/6", "-1/2", "1/3"]


def test_invariant_canonicalizes_input(capsys):
    code, out, err = run(
        capsys, "invariant", "--tree", "((())())", "--operator", "nabla-inv"
    )
    assert code == 0
    assert json.loads(out)["tree"] == "(()(()))"


def test_invariant_qsym_default_bound(capsys):
    code, out, err = run(
        capsys, "invariant", "--tree", "(())", "--operator", "lambda-bar"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == [{"composition": [1, 1], "coefficient": "1"}]


def test_invariant_text_and_csv(capsys):
    code, out, err = run(
        capsys, "invariant", "--tree", "(())", "--operator", "delta-inv",
        "--format", "text",
    )
    assert code == 0
    assert out.splitlines() == ["tree (())", "alpha 1", "value -1/2*t + 1/2*t^2"]
    code, out, err = run(
        capsys, "invariant", "--tree", "(())", "--operator", "delta-inv",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "tree,alpha,value"


def test_genfun_recurrence(capsys):
    code, out, err = run(
        capsys, "genfun", "--operator", "delta-inv", "--terms", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "recurrence"
    assert len(payload["terms"]) == 3
    assert payload["terms"][0] == ["0", "1"]
    assert payload["terms"][1] == ["0", "-1/2", "1/2"]


def test_genfun_modes_agree(capsys):
    _, rec, _ = run(capsys, "genfun", "--operator", "lambda", "--terms", "4")
    _, enum, _ = run(
        capsys, "genfun", "--operator", "lambda", "--terms", "4",
        "--mode", "enumerate",
    )
    assert json.loads(rec)["terms"] == json.loads(enum)["terms"]


def test_genfun_verify_mode(capsys):
    code, out, err = run(
        capsys, "genfun", "--operator", "nabla-inv", "--terms", "5",
        "--mode", "verify",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["residual_zero"] is True
    assert all(coeffs == [] for coeffs in payload["residual"])


def test_genfun_csv_writes_fraction_coefficients(capsys):
    code, out, err = run(
        capsys, "genfun", "--operator", "lambda-bar", "--terms", "4", "--format", "csv"
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "n,value",
        "1,M(1)",
        '2,"M(1,1)"',
        '3,"2*M(1,1,1) + 1/2*M(1,2)"',
        '4,"6*M(1,1,1,1) + 2*M(1,1,2) + 3/2*M(1,2,1) + 1/6*M(1,3)"',
    ]


def test_verify_cayley(capsys):
    code, out, err = run(capsys, "verify", "--suite", "cayley", "--max-n", "10")
    assert code == 0
    results = json.loads(out)
    assert len(results) == 1
    assert results[0]["suite"] == "cayley"
    assert results[0]["passed"] is True


def test_verify_census_text(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "census", "--format", "text"
    )
    assert code == 0
    assert out.startswith("[PASS] census")


def test_verify_census_csv(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "census", "--max-n", "3", "--format", "csv"
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "suite,passed,detail",
        "census,True,trees n=1: 1 canonical vs 1 by level sequences (same classes)",
        "census,True,trees n=2: 1 canonical vs 1 by level sequences (same classes)",
        "census,True,trees n=3: 2 canonical vs 2 by level sequences (same classes)",
        'census,True,"forests n=1..3: [1, 2, 4] vs Euler transform [1, 2, 4]"',
    ]


# one check per suite broken on the trees of 3 vertices: the module and
# name it is read through, the broken stand-in for it, and the indices of
# the lines that change (cayley's row feeds its series residual too)
BROKEN_CHECKS = {
    "census": (
        forestinv.oracles,
        "count_trees_by_level_sequence",
        lambda real: lambda n: real(n) + (n == 3),
        [2],
    ),
    "order-oracle": (
        forestinv.verify,
        "brute_force_order_count",
        lambda real: lambda tree, m, strict: real(tree, m, strict) + (tree.vertex_count == 3),
        [2],
    ),
    "automorphisms": (
        forestinv.oracles,
        "count_root_automorphisms",
        lambda real: lambda tree: real(tree) + (tree.vertex_count == 3),
        [2],
    ),
    "cayley": (
        forestinv.genfun,
        "automorphism_order",
        lambda real: lambda tree: real(tree) * (1 + (tree.vertex_count == 3)),
        [2, 5],
    ),
}


@pytest.mark.parametrize("suite", BROKEN_CHECKS)
def test_a_suite_with_a_broken_check_fails_on_its_lines_alone(suite, capsys, monkeypatch):
    module, name, broken, changed = BROKEN_CHECKS[suite]
    kept = SUITES[suite](5)
    assert kept.passed is True
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    failed = SUITES[suite](5)
    assert failed.passed is False
    assert len(failed.lines) == len(kept.lines)
    assert [i for i, (a, b) in enumerate(zip(kept.lines, failed.lines)) if a != b] == changed
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", "5", "--format", "text")
    assert (code, err) == (1, "")
    assert out.splitlines() == [f"[FAIL] {suite}", *("    " + line for line in failed.lines)]


def test_verify_automorphisms_refuses_before_its_first_class(capsys, monkeypatch):
    counted = []
    monkeypatch.setattr(
        forestinv.oracles, "count_root_automorphisms", lambda tree: counted.append(tree)
    )
    code, out, err = run(capsys, "verify", "--suite", "automorphisms", "--max-n", "11")
    assert (code, out, counted) == (2, "", [])
    assert err == (
        "resource limit: 11 vertices is too many for permutation brute force: "
        "10! = 3628800 permutations, over the limit of 1000000\n"
    )
    # past 20! the count is a lower bound, so no huge factorial is built
    for max_n in ("2000", "1000000"):
        code, out, err = run(capsys, "verify", "--suite", "automorphisms", "--max-n", max_n)
        assert (code, out, counted) == (2, "", [])
        assert err == (
            f"resource limit: {max_n} vertices is too many for permutation brute force: "
            f"{int(max_n) - 1}! = 2^61 or more permutations, over the limit of 1000000\n"
        )


def test_verify_all_runs_every_suite_in_order(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--max-n", "4", "--format", "csv")
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["suite", "passed", "detail"]
    assert list(dict.fromkeys(row[0] for row in rows[1:])) == list(SUITES)
    assert len(SUITES) == 12
    assert all(row[1] == "True" for row in rows[1:])


@pytest.mark.parametrize("max_n", ["0", "-1"])
@pytest.mark.parametrize("suite", [*SUITES, "all"])
def test_verify_refuses_sizes_below_one(suite, max_n, capsys):
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", max_n)
    assert (code, out, err) == (1, "", "error: --max-n must be at least 1\n")


# whole-class runs past a limit: library calls, and verify suites by argv
_PAST_A_LIMIT = {
    "collision_report": lambda: forestinv.collision_report(
        17, forestinv.built_in_spec("delta-inv")
    ),
    "u_by_enumeration": lambda: forestinv.u_by_enumeration(
        forestinv.built_in_spec("lambda"), 17
    ),
    # the values cached for the smaller classes pass the whole-class limit
    "u_by_enumeration lambda 13": lambda: forestinv.u_by_enumeration(
        forestinv.built_in_spec("lambda"), 13
    ),
    "u_by_enumeration lambda 14": lambda: forestinv.u_by_enumeration(
        forestinv.built_in_spec("lambda"), 14
    ),
    "u_by_enumeration lambda-bar 14": lambda: forestinv.u_by_enumeration(
        forestinv.built_in_spec("lambda-bar"), 14
    ),
    "cayley_check": lambda: forestinv.cayley_check(17),
    "u_planar_by_enumeration": lambda: forestinv.u_planar_by_enumeration(
        forestinv.free_word_family(("a", "b")), 10
    ),
    "census 16": ("census", "16"),
    "census 17": ("census", "17"),
    "specialization": ("specialization", "17"),
    "order-oracle": ("order-oracle", "11"),
    "qsym-oracle": ("qsym-oracle", "8"),
    # each class alone is admitted, but not all of them together
    "order-oracle 8": ("order-oracle", "8"),
    "qsym-oracle 7": ("qsym-oracle", "7"),
    # strict and weak scans, and the order oracle's every label count m
    "order-oracle 7": ("order-oracle", "7"),
    "qsym-oracle 6": ("qsym-oracle", "6"),
    "specialization 12": ("specialization", "12"),
    "recurrence 13": ("recurrence", "13"),
    "functional-equation 13": ("functional-equation", "13"),
    # the planar suite before its recurrence, and the suites whose sizes
    # are no tree classes
    "planar 9": ("planar", "9"),
    "planar 12": ("planar", "12"),
    "planar 14": ("planar", "14"),
    "planar 5000": ("planar", "5000"),
    "grafting 5000": ("grafting", "5000"),
    "grafting 1000000": ("grafting", "1000000"),
    "shift-identities 257": ("shift-identities", "257"),
    "shift-identities 10000": ("shift-identities", "10000"),
}


@pytest.mark.parametrize("case", list(_PAST_A_LIMIT))
def test_whole_class_runs_refuse_before_their_first_class(case, capsys, monkeypatch):
    # from an empty census, record every class grown, tree evaluated and
    # labeling brute force begun
    work = []
    trees, grow = forestinv.trees, forestinv.trees._grow_trees
    monkeypatch.setattr(trees, "_TREE_CACHE", {})
    monkeypatch.setattr(trees, "_grow_trees", lambda n: work.append(("grow", n)) or grow(n))
    for module in (forestinv.engine, forestinv.genfun):
        monkeypatch.setattr(module, "evaluate", lambda tree, spec: work.append(tree))
    monkeypatch.setattr(
        forestinv.planar, "evaluate_planar", lambda tree, family: work.append(tree)
    )
    monkeypatch.setattr(
        forestinv.oracles, "_order_preserving_labelings", lambda *args: work.append(args) or ()
    )
    # and every planar recurrence, planar level builder, balanced-word
    # scan and variable shift begun
    for module, name in (
        (forestinv.verify, "u_planar_by_recurrence"),
        (forestinv.planar, "_planar_levels"),
        (forestinv.oracles, "count_dyck_words"),
        (forestinv.verify, "shift_s"),
    ):
        monkeypatch.setattr(module, name, lambda *args, name=name: work.append((name, args)))
    call = _PAST_A_LIMIT[case]
    if callable(call):
        with pytest.raises(forestinv.ResourceLimitError):
            call()
    else:
        suite, max_n = call
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", max_n)
        assert (code, out) == (2, "") and err.startswith("resource limit: ")
    assert work == []


@pytest.mark.parametrize("suite, kind", [("grafting", "forests"), ("planar", "trees")])
@pytest.mark.parametrize("max_n", ["5000", "1000000"])
def test_planar_counts_past_every_limit_are_refused_at_once(suite, kind, max_n, capsys):
    # the count is no exact Catalan product, and is written as a power of two
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", max_n)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        f"resource limit: 2^64 or more planar {kind} on {max_n} vertices, "
        "over the limit of 1000000\n"
    )
    assert not re.search(r"\d{13}", err)


def test_planar_suite_refusals_name_the_count_and_the_limit(capsys):
    code, out, err = run(capsys, "verify", "--suite", "planar", "--max-n", "12")
    assert (code, out) == (2, "")
    # Catalan(11) 2^12 two-label trees
    assert err == (
        "resource limit: 240787456 planar trees on 12 vertices, over the limit of 1000000\n"
    )
    # under that limit at every size, but not in sum: Catalan(n - 1) (1 + 2^n)
    # trees for each n <= 9
    code, out, err = run(capsys, "verify", "--suite", "planar", "--max-n", "9")
    assert (code, out) == (2, "")
    assert err == (
        "resource limit: the planar suite evaluates 864174 planar trees on at most 9 "
        "vertices, over the limit of 200000\n"
    )
    with pytest.raises(forestinv.ResourceLimitError) as refused:
        forestinv.oracles.count_dyck_words(12)
    assert str(refused.value) == (
        "12 pairs is too many for a balanced-word scan: 4^12 = 16777216 candidate words, "
        "over the limit of 5000000"
    )
    forestinv.oracles.check_dyck_scan(11)  # 4^11 words, inside the limit


def test_shift_identities_refuse_past_the_variable_limit(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "shift-identities", "--max-n", str(SHIFT_VARIABLE_LIMIT + 1)
    )
    assert (code, out) == (2, "")
    assert err == (
        f"resource limit: the shift-identities suite works in {SHIFT_VARIABLE_LIMIT + 1} "
        f"variables, over the limit of {SHIFT_VARIABLE_LIMIT}\n"
    )


def test_verify_unknown_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 1
    assert "unknown suite" in err


def test_collisions_clean(capsys):
    code, out, err = run(
        capsys, "collisions", "--operator", "lambda-bar", "--max-n", "5"
    )
    assert code == 0
    assert json.loads(out) == []
    code, out, err = run(
        capsys, "collisions", "--operator", "lambda-bar", "--max-n", "4",
        "--format", "text",
    )
    assert code == 0
    assert out.strip() == "no collisions for lambda-bar with n <= 4"


def test_collisions_found_in_text_and_csv(capsys):
    argv = ("collisions", "--operator", "delta-inv", "--max-n", "5")
    code, out, err = run(capsys, *argv, "--format", "text")
    assert (code, err) == (0, "")
    assert out == "n=5: ((()()())) vs ((())(())) (alpha 6/2)\n"
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "n,invariant,tree_a,tree_b,alpha_a,alpha_b,alpha_collision",
        "5,delta-inv,((()()())),((())(())),6,2,False",
    ]


def test_planar_example(capsys):
    code, out, err = run(capsys, "planar", "--tree", "(a:(b:))")
    assert code == 0
    payload = json.loads(out)
    assert payload["tree"] == "(a:(b:))"
    assert payload["value"] == [{"word": ["a", "b"], "coefficient": "1"}]


def test_planar_with_labels_flag(capsys):
    code, out, err = run(
        capsys, "planar", "--tree", "(a:)", "--labels", "a,b", "--format", "text"
    )
    assert code == 0
    assert out.splitlines() == ["tree (a:)", "value a"]
    # tree uses a label missing from the declared set
    code, out, err = run(capsys, "planar", "--tree", "(z:)", "--labels", "a,b")
    assert code == 1
    assert "not in the family" in err


def test_planar_unknown_family(capsys):
    code, out, err = run(
        capsys, "planar", "--tree", "(a:)", "--operator", "mystery"
    )
    assert code == 1
    assert "unknown planar operator family" in err


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "invariant", "--tree", "((", "--operator", "delta-inv")
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "genfun", "--operator", "delta-inv", "--terms", "0")
    assert code == 1
    assert "at least 1" in err


def test_resource_guard_exit_code(capsys):
    code, out, err = run(
        capsys, "genfun", "--operator", "delta-inv", "--terms", "17",
        "--mode", "enumerate",
    )
    assert code == 2
    assert err.startswith("resource limit:")
    code, out, err = run(capsys, "enumerate", "--vertices", "30")
    assert code == 2


def test_exhausted_memory_exits_with_a_resource_limit_naming_the_subcommand(
    capsys, monkeypatch
):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "collisions", exhausted)
    code, out, err = run(capsys, "collisions", "--operator", "lambda", "--max-n", "13")
    assert (code, out) == (2, "")
    assert err == "resource limit: collisions ran out of memory\n"


def test_usage_errors(capsys):
    code, out, err = run(capsys, "enumerate", "--vertices", "3", "--bogus")
    assert code == 1
    code, out, err = run(capsys, "enumerate")
    assert code == 1
    code, out, err = run(capsys, "invariant", "--tree", "(())", "--operator", "noop")
    assert code == 1
    code, out, err = run(capsys, "enumerate", "--vertices", "3", "--format", "xml")
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert "enumerate" in out


# `verify --help` at 80 columns as it read when the parser named the
# suites as it was built; it names them only when the help is printed now
VERIFY_HELP = """\
usage: forestinv verify [-h] [--suite SUITE] [--max-n MAX_N]
                        [--format {json,csv,text}]

options:
  -h, --help            show this help message and exit
  --suite SUITE         suite name or 'all': census, cayley, recurrence,
                        functional-equation, order-oracle, qsym-oracle,
                        specialization, collisions, planar, grafting,
                        automorphisms, shift-identities
  --max-n MAX_N
  --format {json,csv,text}
"""


def test_verify_help_names_every_suite_in_registry_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "verify", "--help") == (0, VERIFY_HELP, "")
    listed = VERIFY_HELP.partition("'all': ")[2].partition("--max-n")[0]
    assert " ".join(listed.split()) == ", ".join(SUITES)


def test_all_formats_are_valid_json_when_asked(capsys):
    commands = [
        ("enumerate", "--vertices", "5"),
        ("invariant", "--tree", "(()(()))", "--operator", "lambda"),
        ("genfun", "--operator", "delta-inv", "--terms", "4"),
        ("collisions", "--operator", "delta-inv", "--max-n", "4"),
        ("planar", "--tree", "(a:(b:)(a:))"),
    ]
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, argv
        json.loads(out)


# subcommands, a usage error, a parse error, a resource guard and --help,
# mixed so that each call follows a different one
MIXED_CALLS = [
    ("invariant", "--tree", "(()(()))", "--operator", "lambda"),
    ("enumerate", "--vertices", "3", "--format", "xml"),
    ("genfun", "--operator", "nabla-inv", "--terms", "4", "--format", "text"),
    ("enumerate", "--vertices", "30"),
    ("planar", "--tree", "(a:(b:)(a:))", "--format", "csv"),
    ("--help",),
    ("invariant", "--tree", "((", "--operator", "delta-inv"),
    ("genfun", "--help"),
    ("collisions", "--operator", "delta-inv", "--max-n", "5"),
    ("enumerate", "--vertices", "4", "--format", "csv"),
]


def test_successive_calls_match_fresh_processes(capsys, monkeypatch):
    # --help wraps its text to the terminal width, so pin it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    in_process = [run(capsys, *argv) for argv in MIXED_CALLS]
    assert sorted({code for code, _, _ in in_process}) == [0, 1, 2]
    src = Path(forestinv.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    for argv, seen in zip(MIXED_CALLS, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "forestinv.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == seen, argv


# quasi-symmetric keys are str codes, whose hashes are salted per process;
# no output may depend on the salt
SALTED_CALLS = [
    ("collisions", "--operator", "lambda", "--max-n", "7"),
    ("invariant", "--tree", "(" + "()" * 8 + ")", "--operator", "lambda"),
    ("genfun", "--operator", "lambda-bar", "--terms", "7"),
]


@pytest.mark.parametrize("argv", SALTED_CALLS, ids=lambda argv: argv[0])
def test_output_does_not_depend_on_the_hash_seed(argv):
    src = Path(forestinv.__file__).resolve().parents[1]
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-m", "forestinv.cli", *argv],
            capture_output=True, env=env,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0]


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert run(capsys, "enumerate", "--vertices", "2") == (0, '["(())"]\n', "")
        assert run(capsys, "enumerate", "--bogus")[0] == 1
        assert run(capsys, "enumerate", "--vertices", "2") == (0, '["(())"]\n', "")
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


# the argv property: sizes below, at and past every guard
SIZES = st.sampled_from(("1", "2", "3", "4", "0", "-1", "30", "1000000"))
ROOTED_TREES = st.recursive(
    st.just("()"),
    lambda children: st.lists(children, max_size=3).map(lambda c: "(" + "".join(c) + ")"),
    max_leaves=5,
)
LABELS = st.sampled_from(("a", "b", "ab", 'q"t', "é"))
PLANAR_TREES = st.recursive(
    LABELS.map(lambda label: f"({label}:)"),
    lambda children: st.tuples(LABELS, st.lists(children, max_size=3)).map(
        lambda node: f"({node[0]}:" + "".join(node[1]) + ")"
    ),
    max_leaves=5,
)
# strings over the trees' letters, balanced or not
SCRAMBLED = st.text(alphabet="()a:", max_size=8)
OPERATORS = st.sampled_from((*BUILT_IN_NAMES, "noop"))
# each subcommand's options and the values drawn for them
SUBCOMMAND_OPTIONS = {
    "enumerate": {"--vertices": SIZES},
    "invariant": {"--tree": st.one_of(ROOTED_TREES, SCRAMBLED), "--operator": OPERATORS},
    "genfun": {
        "--operator": OPERATORS,
        "--terms": SIZES,
        "--mode": st.sampled_from(("recurrence", "enumerate", "verify", "bogus")),
    },
    "verify": {"--suite": st.sampled_from((*SUITES, "all", "bogus")), "--max-n": SIZES},
    "collisions": {"--operator": OPERATORS, "--max-n": SIZES},
    "planar": {
        "--tree": st.one_of(PLANAR_TREES, SCRAMBLED),
        # every label, or a few, which may leave some of the tree's out
        "--labels": st.one_of(st.just('a,b,ab,q"t,é'), st.lists(LABELS, max_size=3).map(",".join)),
        "--operator": st.sampled_from(("free-words", "free-words", "tensor")),
    },
}
FORMATS = st.sampled_from(("json", "csv", "text", "xml"))
# how one option is written: mostly as usual, else as --opt=value,
# abbreviated, twice, without its value, or left out (verify's --max-n is
# never left out: its default sizes take up to a second, and the digest
# pins them)
WRITINGS = ("usual",) * 4 + ("equals", "abbreviated", "twice", "no value", "left out")
# at most one unknown flag, stray positional or help flag after the subcommand
EXTRAS = ((),) * 6 + (("--bogus",), ("--bogus=1",), ("-x",), ("stray",), ("-h",), ("--help",))


@st.composite
def cli_argvs(draw):
    name = draw(st.sampled_from((*SUBCOMMAND_OPTIONS, "bogus")))
    options = {**SUBCOMMAND_OPTIONS.get(name, {}), "--format": FORMATS}
    chunks = []
    for flag, values in options.items():
        writings = WRITINGS[:-1] if (name, flag) == ("verify", "--max-n") else WRITINGS
        writing = draw(st.sampled_from(writings))
        value = draw(values)
        if writing == "usual":
            chunks.append([flag, value])
        elif writing == "equals":
            chunks.append([f"{flag}={value}"])
        elif writing == "abbreviated":
            chunks.append([flag[: draw(st.integers(3, len(flag) - 1))], value])
        elif writing == "twice":
            chunks += [[flag, draw(values)], [flag, value]]
        elif writing == "no value":
            chunks.append([flag])
    chunks.append(draw(st.sampled_from(EXTRAS)))
    chunks = draw(st.permutations(chunks))
    # the subcommand first, or after one of its options or a help flag
    lead = draw(st.sampled_from((0,) * 7 + (1,)))
    head = draw(st.sampled_from(((),) * 9 + (("--help",),)))
    # and now and then abbreviated, which no parser accepts
    written = draw(st.sampled_from((name,) * 9 + (name[:3],)))
    return [arg for chunk in [head, *chunks[:lead], [written], *chunks[lead:]] for arg in chunk]


# paths of one level fewer than, as many as, and one more than the depth limit
DEEP_LEVELS = st.sampled_from((DEPTH_LIMIT - 1, DEPTH_LIMIT, DEPTH_LIMIT + 1))
PAST_SIZES = st.sampled_from(("30", "1000000"))
# the values that take each subcommand to its guards
AT_THE_GUARDS = {
    ("enumerate", "--vertices"): PAST_SIZES,
    ("invariant", "--tree"): DEEP_LEVELS.map(lambda levels: "(" * levels + ")" * levels),
    ("genfun", "--terms"): PAST_SIZES,
    ("verify", "--max-n"): PAST_SIZES,
    ("collisions", "--max-n"): PAST_SIZES,
    ("planar", "--tree"): st.tuples(LABELS, DEEP_LEVELS).map(
        lambda path: f"({path[0]}:" * path[1] + ")" * path[1]
    ),
}


@st.composite
def guarded_argvs(draw):
    """A subcommand with each option written plainly, its sizes past the
    guards and its trees about the depth limit, so that many reach a refusal."""
    name = draw(st.sampled_from(tuple(SUBCOMMAND_OPTIONS)))
    argv = [name]
    for flag, values in SUBCOMMAND_OPTIONS[name].items():
        argv += [flag, draw(AT_THE_GUARDS.get((name, flag), values))]
    return argv


def parse_outcome(parse, argv):
    """What one parse of argv gives: its fields, its usage message, or
    its exit code and the help it printed."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            return "fields", vars(parse(argv))
    except cli._UsageError as err:
        return "usage error", str(err)
    except SystemExit as err:
        return "exit", err.code, printed.getvalue()


@settings(max_examples=180, deadline=None)
@given(st.one_of(cli_argvs(), guarded_argvs()))
def test_every_argv_exits_with_a_code_and_a_message_property(argv):
    dispatched = parse_outcome(cli._parse, argv)
    assert dispatched == parse_outcome(cli._parser().parse_args, argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ")
    elif code == 2:
        assert err.getvalue().startswith("resource limit: ")
        # counts are written in full only up to 12 digits, or as argv gave them
        written = " ".join(argv)
        assert all(digits in written for digits in re.findall(r"\d{13,}", err.getvalue()))
    elif dispatched[0] == "fields" and dispatched[1]["format"] == "json":
        json.loads(out.getvalue())


def path_text(vertices, label=None):
    opening = "(" if label is None else f"({label}:"
    return opening * vertices + ")" * vertices


def test_deep_trees_exit_with_the_depth_and_the_limit(capsys):
    for argv in (
        ("invariant", "--tree", path_text(1000), "--operator", "lambda-bar"),
        ("invariant", "--tree", path_text(1000), "--operator", "delta-inv"),
        ("planar", "--tree", path_text(1000, "a")),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv[:2]
        assert out == ""
        assert err.startswith("resource limit:")
        assert "1000" in err and str(DEPTH_LIMIT) in err


def test_trees_with_quadratic_keys_are_refused_before_they_are_built(capsys):
    # a path of n vertices writes n(n + 1) key characters; 20000 would be 400 M
    code, out, err = run(
        capsys, "invariant", "--tree", path_text(20000), "--operator", "lambda-bar"
    )
    assert (code, out) == (2, "")
    assert err.startswith("resource limit: the tree's keys would hold at least ")
    assert str(KEY_CHAR_LIMIT) in err and "depth" not in err
    # the longest path under the limit still reaches the depth check
    longest = max(n for n in range(8000, 8300) if n * (n + 1) <= KEY_CHAR_LIMIT)
    code, out, err = run(
        capsys, "invariant", "--tree", path_text(longest), "--operator", "delta-inv"
    )
    assert (code, out) == (2, "")
    assert f"depth {longest}" in err and str(DEPTH_LIMIT) in err


def test_trees_at_the_depth_limit_are_evaluated(capsys):
    code, out, err = run(
        capsys, "invariant", "--tree", path_text(DEPTH_LIMIT), "--operator", "lambda-bar"
    )
    assert (code, err) == (0, "")
    # a chain has one strictly increasing labeling pattern: M_(1, ..., 1)
    assert json.loads(out)["value"] == [{"composition": [1] * DEPTH_LIMIT, "coefficient": "1"}]
    code, out, err = run(capsys, "planar", "--tree", path_text(DEPTH_LIMIT, "a"))
    assert (code, err) == (0, "")
    assert json.loads(out)["tree"] == path_text(DEPTH_LIMIT, "a")
    code, out, err = run(
        capsys, "invariant", "--tree", path_text(DEPTH_LIMIT + 1), "--operator", "lambda-bar"
    )
    assert code == 2
    assert str(DEPTH_LIMIT + 1) in err and str(DEPTH_LIMIT) in err


def test_huge_quasi_symmetric_values_exit_with_the_estimate_and_the_limit(capsys):
    star = "(" + "()" * 20 + ")"
    for argv, estimate in (
        (("invariant", "--tree", path_text(40), "--operator", "lambda"), 2**39),
        (("invariant", "--tree", star, "--operator", "lambda-bar"), 2**19),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("resource limit:")
        assert str(estimate) in err and str(QSYM_TERM_LIMIT) in err


def test_long_term_estimates_print_as_a_power_of_two(capsys):
    star = "(" + "()" * 69 + ")"
    code, out, err = run(capsys, "invariant", "--tree", star, "--operator", "lambda")
    assert (code, out) == (2, "")
    assert err == (
        "resource limit: the lambda value of a tree on 70 vertices has an estimated "
        f"2^64 or more terms, over the limit of {QSYM_TERM_LIMIT}\n"
    )


def test_deep_and_wide_polynomial_values_exit_with_the_degree_and_the_limit(capsys):
    star = "(" + "()" * 1000 + ")"
    for tree, degree in ((path_text(400), 400), (star, 1001)):
        for operator in ("delta-inv", "nabla-inv"):
            code, out, err = run(capsys, "invariant", "--tree", tree, "--operator", operator)
            assert (code, out) == (2, "")
            assert err.startswith("resource limit:")
            assert f"degree {degree}" in err and str(POLY_DEGREE_LIMIT) in err


@pytest.mark.parametrize(
    "operator, terms, estimate, limit",
    [
        ("lambda", 24, 2**23, QSYM_TERM_LIMIT),
        ("lambda-bar", 26, 2**24, QSYM_TERM_LIMIT),
        ("delta-inv", 1500, 1500, POLY_DEGREE_LIMIT),
        ("nabla-inv", 257, 257, POLY_DEGREE_LIMIT),
        # U_N passes the term guard, the recurrence's products do not
        ("lambda", 15, 98305, QSYM_PAIR_LIMIT),
        ("lambda", 16, 212993, QSYM_PAIR_LIMIT),
        ("lambda-bar", 16, 114688, QSYM_PAIR_LIMIT),
        ("lambda-bar", 17, 245760, QSYM_PAIR_LIMIT),
    ],
)
def test_genfun_orders_past_the_guard_exit_with_the_estimate_and_the_limit(
    capsys, operator, terms, estimate, limit
):
    code, out, err = run(capsys, "genfun", "--operator", operator, "--terms", str(terms))
    assert (code, out) == (2, "")
    assert err.startswith("resource limit:")
    assert f"U_{terms}" in err and str(estimate) in err and str(limit) in err


DIGEST_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"


def load_digest():
    """tools/cli_digest.py as a module; importing it runs none of its calls."""
    spec = importlib.util.spec_from_file_location("cli_digest", DIGEST_SCRIPT)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_cli_digest_covers_every_subcommand_and_format():
    digest = load_digest()
    subparsers = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(subparsers.choices) == set(cli._COMMANDS)
    for name, parser in subparsers.choices.items():
        formats = next(action.choices for action in parser._actions if action.dest == "format")
        seen = {
            argv[argv.index("--format") + 1]
            for argv in digest.CALLS
            if argv[:1] == (name,) and "--format" in argv
        }
        assert seen >= set(formats), name


def test_cli_digest_matches_its_checked_in_output_under_two_hash_seeds():
    # in this process, and at the same time in a fresh interpreter under
    # a hash seed other than this process's
    expected = Path(__file__).with_name("cli_digest.txt").read_text()
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    child = subprocess.Popen(
        [sys.executable, str(DIGEST_SCRIPT)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONHASHSEED=seed),
    )
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert load_digest().main() == 0
    finally:
        child_out, child_err = child.communicate(timeout=300)
    assert out.getvalue() == expected
    assert (child.returncode, child_err, child_out) == (0, "", expected)
