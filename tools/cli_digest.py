"""Digest of the command-line and demo outputs over a fixed list of runs.

Runs each call through `forestinv.cli.main` in one process and prints one
line per call: the exit code, the sha1 of stdout, the sha1 of stderr and
the argv.  Then runs each `demos/*.py` script in a fresh interpreter and
prints the same three fields and the script's path.  A change that must
leave every CLI and demo output byte-identical is checked by running
this script on both checkouts and diffing:

    python tools/cli_digest.py > after.txt
    (cd ../parent && python tools/cli_digest.py) > before.txt
    diff before.txt after.txt

The output is also checked in as `tests/cli_digest.txt`, which
`tests/test_cli.py` compares with a fresh digest under two hash
seeds.  A change that means to alter an output rewrites it:

    python tools/cli_digest.py > tests/cli_digest.txt

The package is imported from the `src` directory beside this script, and
the demos run beside it with that directory on PYTHONPATH, so each
checkout digests its own code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from forestinv import cli  # noqa: E402
from forestinv.engine import BUILT_IN_NAMES  # noqa: E402
from forestinv.trees import enumerate_trees  # noqa: E402

FORMATS = ("json", "csv", "text")
MAX_TREE_VERTICES = 6


def _path(vertices, label=None):
    opening = "(" if label is None else f"({label}:"
    return opening * vertices + ")" * vertices


def _star(vertices):
    return "(" + "()" * (vertices - 1) + ")"


def _caterpillar(vertices):
    # a spine of ceil(n/2) vertices with one leaf on each but the last
    legs = vertices // 2
    return "(()" * legs + "()" + ")" * legs


def _broom(vertices):
    # a handle of n/2 vertices whose end carries the rest as leaves
    handle = vertices // 2
    return "(" * handle + "()" * (vertices - handle) + ")" * handle


def _complete_binary(levels):
    return "()" if levels == 1 else "(" + _complete_binary(levels - 1) * 2 + ")"


def _per_format(argvs):
    return [argv + ("--format", fmt) for argv in argvs for fmt in FORMATS]


# each subcommand once in every format
_EVERY_FORMAT = _per_format([
    ("enumerate", "--vertices", "5"),
    ("invariant", "--tree", "(()(()))", "--operator", "lambda"),
    ("genfun", "--operator", "delta-inv", "--terms", "6"),
    ("genfun", "--operator", "lambda-bar", "--terms", "6"),
    ("verify", "--suite", "planar"),
    ("collisions", "--operator", "delta-inv", "--max-n", "6"),
    ("planar", "--tree", "(a:(b:)(a:(c:)))"),
])

_INVARIANTS = [
    ("invariant", "--tree", tree.key, "--operator", op)
    for n in range(1, MAX_TREE_VERTICES + 1)
    for tree in enumerate_trees(n)
    for op in BUILT_IN_NAMES
]

_GENFUN = [
    ("genfun", "--operator", op, "--terms", "5", "--mode", mode)
    for op in BUILT_IN_NAMES
    for mode in ("recurrence", "enumerate", "verify")
]

# the recurrence build at the large-order end, where one running exp and a
# fresh exp per term differ most in cost
_GENFUN_LARGE = [
    ("genfun", "--operator", op, "--terms", str(terms), "--mode", "recurrence")
    for op, terms in (("delta-inv", 30), ("nabla-inv", 20), ("lambda-bar", 9), ("lambda", 9))
] + [
    # the enumeration build where the largest tree class, summed before
    # the operator, holds most of the trees
    ("genfun", "--operator", op, "--terms", str(terms), "--mode", "enumerate")
    for op, terms in (
        ("delta-inv", 10), ("nabla-inv", 10), ("lambda-bar", 8), ("lambda", 8),
        ("lambda-bar", 10), ("lambda", 10),
    )
] + [
    # the largest class summed over child prefixes four or more deep
    ("genfun", "--operator", "nabla-inv", "--terms", "12", "--mode", "verify"),
] + [
    # the polynomial enumeration build on the values at t = 0 .. 12, each
    # U_n read back from its samples
    ("genfun", "--operator", op, "--terms", "12", "--mode", "enumerate")
    for op in ("delta-inv", "nabla-inv")
]

# many-term values, written term by term into the JSON text, up to the
# 1024- and 2048-term values of the 12-vertex trees
_MANY_TERMS = [
    ("invariant", "--tree", shape(9), "--operator", op)
    for shape in (_star, _caterpillar)
    for op in ("lambda", "lambda-bar")
] + [
    ("invariant", "--tree", shape(12), "--operator", "lambda")
    for shape in (_star, _caterpillar, _path)
] + [
    ("invariant", "--tree", _star(12), "--operator", "lambda-bar"),
    ("genfun", "--operator", "lambda", "--terms", "7"),
] + [
    # runs of leaves, each one closed-form power: the star and the broom
    # on 16 vertices, the most the lambda guard admits, a broom past both
    # guards, refused, and a tree whose root has leaves beside larger
    # children
    ("invariant", "--tree", tree, "--operator", op)
    for tree in (_star(16), _broom(16), _broom(24), "(()()()()(())(()())(()))")
    for op in ("lambda-bar", "lambda")
]

# whole classes with their automorphism orders, as the enumeration writes them,
# and the order the parser writes on a tree past the enumerated sizes: the
# complete binary tree on 31 vertices nests repeated blocks, alpha = 2^15
_ENUMERATE = [
    ("enumerate", "--vertices", "12", "--format", "csv"),
    ("enumerate", "--vertices", "14"),
    ("invariant", "--tree", _complete_binary(5), "--operator", "delta-inv", "--format", "csv"),
]

# whole-class searches: every pair of the polynomial invariants, and the
# quasi-symmetric ones' empty answers up to the sizes where their values are big
_COLLISIONS = [
    ("collisions", "--operator", op, "--max-n", max_n)
    for max_n in ("7", "9")
    for op in BUILT_IN_NAMES
] + [
    ("collisions", "--operator", "delta-inv", "--max-n", "9", "--format", fmt)
    for fmt in ("csv", "text")
] + [("collisions", "--operator", "lambda", "--max-n", "11")]

# past the default sizes: the suites on the shared specs, and the census
# that enumerates each class once
_VERIFY = [
    ("verify", "--suite", "all"),
    ("verify", "--suite", "all", "--max-n", "4", "--format", "csv"),
] + _per_format(
    [("verify", "--suite", "grafting", "--max-n", "3")]
) + [("verify", "--suite", "grafting", "--max-n", "4")] + [
    ("verify", "--suite", suite, "--max-n", max_n)
    for suite, max_n in (
        ("recurrence", "9"), ("functional-equation", "9"), ("collisions", "9"),
        ("specialization", "7"),
    )
] + [("verify", "--suite", "census", "--max-n", "10", "--format", "csv")]

_PLANAR = [
    ("planar", "--tree", "(a:)"),
    ("planar", "--tree", "(a:(a:(a:)))"),
    ("planar", "--tree", "(b:(a:)(b:(a:)(a:)))", "--labels", "a,b"),
    ("planar", "--tree", "(x:(y:)(z:))", "--labels", "x,y,z,w"),
    ("planar", "--tree", _path(40, "a")),
    # labels met in an order other than their sorted one, by the tree and
    # by the label list; multi-letter labels that sort as words otherwise
    # than letter by letter
    ("planar", "--tree", "(z:(y:(x:))(x:)(y:))"),
    ("planar", "--tree", "(n:(m:)(n:))", "--labels", "n,m"),
    ("planar", "--tree", "(b:(ab:)(a:))"),
    ("planar", "--tree", "(b:(ab:)(a:))", "--labels", "a,ab,b"),
    ("planar", "--tree", "(ab:(b:(a:))(ab:))", "--labels", "b,ab,a", "--format", "text"),
    # labels of different lengths, whose codes spell each length first: a
    # path of one three-letter label just under the depth limit, and three
    # lengths given out of sorted order
    ("planar", "--tree", _path(499, "abc")),
    ("planar", "--tree", "(abc:(a:)(bc:(abc:))(a:))", "--labels", "bc,a,abc"),
    # labels that JSON must escape: a quote, a backslash, a space, non-ASCII
    *_per_format([("planar", "--tree", '(q"t:(b\\s:)(s p:(é:)(b\\s:)))')]),
    # malformed trees and a label outside the family
    ("planar", "--tree", "(a:(b:)"),
    ("planar", "--tree", "(a(b:))"),
    ("planar", "--tree", "(:)"),
    ("planar", "--tree", "(a:)(b:)"),
    ("planar", "--tree", ""),
    ("planar", "--tree", "(a:(b:))", "--labels", "a"),
    ("planar", "--tree", "(a:)", "--operator", "tensor"),
]

# polynomial values up to the degree limit, built from their values at
# t = 0 .. n, and the path one vertex past it, refused
_DEEP_POLYNOMIALS = [
    ("invariant", "--tree", tree, "--operator", op)
    for tree in (_path(256), _path(257), _broom(200), _caterpillar(200), _star(200))
    for op in ("delta-inv", "nabla-inv")
]

_GUARDS = [
    # a path just under the depth limit: its lambda-bar estimate is one term
    ("invariant", "--tree", _path(499), "--operator", "lambda-bar"),
    ("invariant", "--tree", _path(501), "--operator", "lambda-bar"),
    ("invariant", "--tree", _path(501), "--operator", "delta-inv"),
    ("planar", "--tree", _path(501, "a")),
    ("enumerate", "--vertices", "30"),
    ("invariant", "--tree", "((", "--operator", "delta-inv"),
    ("genfun", "--operator", "lambda", "--terms", "0"),
    ("verify", "--suite", "no-such-suite"),
    # suites refused before any work, with counts too long to write out
    ("verify", "--suite", "grafting", "--max-n", "5000"),
    ("verify", "--suite", "planar", "--max-n", "12"),
    ("verify", "--suite", "shift-identities", "--max-n", "10000"),
    # usage errors
    ("enumerate", "--vertices", "3", "--bogus"),
    ("enumerate", "--vertices", "3", "--format", "xml"),
    ("invariant", "--tree", "(())", "--operator", "noop"),
]

# whole-class suites past their default sizes: the order oracle one class
# past the brute-force limit, refused, and the specialization suite, whose
# order polynomials come from one grid walk across the classes
_WHOLE_CLASS_GRID = [
    ("verify", "--suite", "order-oracle", "--max-n", "7"),
    ("verify", "--suite", "specialization", "--max-n", "9"),
]

# the planar suite one size past its default, whose recurrence runs the
# geometric inverse through q^6, and the first size refused on the trees
# it would evaluate
_PLANAR_SUITE = [
    ("verify", "--suite", "planar", "--max-n", "7"),
    ("verify", "--suite", "planar", "--max-n", "9"),
]

# the parser's paths: requests the top parser answers (no subcommand, an
# unknown one, an option before it) and ones handed to a subcommand's
# parser (a missing option, an abbreviation, --opt=value, a repeated
# option, a stray positional); --help is left out, since argparse wraps
# it to the terminal width
_PARSER_PATHS = [
    (),
    ("bogus",),
    ("invariant", "--tree", "(())"),
    ("enumerate", "--vert", "3"),
    ("enumerate", "--vertices=3"),
    ("enumerate", "--vertices", "2", "--vertices", "3"),
    ("invariant", "stray", "--tree", "(())", "--operator", "lambda"),
    ("--format", "json", "enumerate", "--vertices", "3"),
]

# requests the plain reader declines, so argparse alone answers them: values
# led by "-" (argparse reads "-1" as a value, "-x" as a flag), a missing
# value, a bad int, "--" before and after the options, and an unknown flag
# given a value
_PLAIN_BOUNDARY = [
    ("enumerate", "--vertices", "-1"),
    ("enumerate", "--vertices"),
    ("enumerate", "--vertices", "x"),
    ("genfun", "--operator", "lambda", "--terms", "x"),
    ("invariant", "--tree", "-x", "--operator", "lambda"),
    ("invariant", "--tree", "-1", "--operator", "lambda"),
    ("planar", "--tree", "(a:)", "--labels", "-x"),
    ("verify", "--suite", "-x"),
    ("enumerate", "--", "--vertices", "3"),
    ("enumerate", "--vertices", "3", "--"),
    ("enumerate", "--vertices", "3", "--bogus", "1"),
]

CALLS = (
    _EVERY_FORMAT + _INVARIANTS + _GENFUN + _GENFUN_LARGE + _MANY_TERMS + _ENUMERATE
    + _COLLISIONS + _VERIFY + _PLANAR + _DEEP_POLYNOMIALS + _GUARDS + _WHOLE_CLASS_GRID
    + _PLANAR_SUITE + _PARSER_PATHS + _PLAIN_BOUNDARY
)


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return f"{code} {_sha1(out.getvalue())} {_sha1(err.getvalue())} {shlex.join(argv)}"


def demo_digest(script: Path) -> str:
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    name = script.relative_to(ROOT).as_posix()
    return f"{done.returncode} {_sha1(done.stdout)} {_sha1(done.stderr)} {name}"


def main() -> int:
    for argv in CALLS:
        print(digest(argv), flush=True)
    for script in sorted((ROOT / "demos").glob("*.py")):
        print(demo_digest(script), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
