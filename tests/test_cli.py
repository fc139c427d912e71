"""Command-line surface: output shapes, determinism, and exit codes.
Everything runs in process through main(argv)."""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import forestinv
from forestinv import cli
from forestinv.cli import main
from forestinv.engine import POLY_DEGREE_LIMIT, QSYM_TERM_LIMIT
from forestinv.trees import DEPTH_LIMIT


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
    ],
)
def test_genfun_orders_past_the_guard_exit_with_the_estimate_and_the_limit(
    capsys, operator, terms, estimate, limit
):
    code, out, err = run(capsys, "genfun", "--operator", operator, "--terms", str(terms))
    assert (code, out) == (2, "")
    assert err.startswith("resource limit:")
    assert f"U_{terms}" in err and str(estimate) in err and str(limit) in err


def test_cli_digest_covers_every_subcommand_and_format():
    # imports the call list of tools/cli_digest.py and runs none of it
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
    spec = importlib.util.spec_from_file_location("cli_digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
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
            if argv[0] == name and "--format" in argv
        }
        assert seen >= set(formats), name
