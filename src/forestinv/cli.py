"""Command-line surface over the library.

Subcommands: enumerate, invariant, genfun, verify, collisions, planar.
Output formats: json (default, deterministic ordering), csv, text.
Exit codes: 0 success, 1 domain or parse error (message on stderr),
2 resource-guard error or exhausted memory.  Rationals render as exact
"p/q" strings.
The JSON of invariant, genfun and planar, whose payloads hold algebra
values, is written by `render.render_payload` straight from the values'
terms; the other payloads go through `json.dumps`.

Parsing: a request is parsed once.  One in the plain form, a
subcommand's name followed only by `--option value` pairs (each flag in
full and once, each value non-empty, not led by "-", of its option's
type and among its choices, every required option given), is read
straight from that subcommand's declared options, without argparse.  Any
other request whose first argument names a subcommand goes to that
subcommand's parser, as the top parser would hand it on; the rest (no
arguments, --help, an unknown name, options before the subcommand) go
through the top parser.  So help, usage errors, abbreviations,
--opt=value, repeated options and values led by "-" are argparse's
alone.  This paragraph is left out of --help.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from functools import cache

from .engine import (
    BUILT_IN_NAMES,
    built_in_spec,
    collision_report,
    evaluate,
)
from .errors import DomainError, ParseError, ResourceLimitError
from .genfun import u_by_enumeration, u_by_recurrence, verify_functional_equation
from .planar import evaluate_planar, free_word_family, parse_planar_tree
from .render import pretty, render_payload
from .trees import automorphism_order, enumerate_trees, parse_tree


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # unknown flags and bad values are ordinary errors, exit code 1
    def error(self, message):
        raise _UsageError(message)


class _SuiteHelp(argparse.HelpFormatter):
    # names the suites in --suite's help, so `verify` loads only for it
    def _get_help_string(self, action):
        if action.dest != "suite":
            return action.help
        from .verify import available_suites

        return action.help + ", ".join(available_suites())


def build_parser() -> _Parser:
    parser = _Parser(prog="forestinv", description=__doc__.partition("\n\nParsing:")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # each subcommand's parser by name, for `_parse`
    parser.subcommands = sub.choices

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("enumerate", help="list canonical trees by size")
    p.add_argument("--vertices", type=int, required=True)
    add_format(p)

    p = sub.add_parser("invariant", help="evaluate one invariant on one tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--operator", choices=BUILT_IN_NAMES, required=True)
    add_format(p)

    p = sub.add_parser("genfun", help="leading terms of the tree generating function")
    p.add_argument("--operator", choices=BUILT_IN_NAMES, required=True)
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--mode", choices=("recurrence", "enumerate", "verify"), default="recurrence")
    add_format(p)

    p = sub.add_parser("verify", help="run a named verification suite", formatter_class=_SuiteHelp)
    p.add_argument("--suite", default="all", help="suite name or 'all': ")
    p.add_argument("--max-n", type=int, default=None)
    add_format(p)

    p = sub.add_parser("collisions", help="search for equal values on distinct trees")
    p.add_argument("--operator", choices=BUILT_IN_NAMES, required=True)
    p.add_argument("--max-n", type=int, required=True)
    add_format(p)

    p = sub.add_parser("planar", help="evaluate a labeled planar tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--labels", default=None, help="comma-separated label set")
    p.add_argument("--operator", default="free-words", help="operator family name")
    add_format(p)

    # each subparser's options that take one value, by flag, for `_read_plain`
    for p in sub.choices.values():
        p.plain_options = {
            flag: action
            for action in p._actions
            if isinstance(action, argparse._StoreAction) and action.nargs is None
            for flag in action.option_strings
        }
    return parser


@cache
def _parser() -> _Parser:
    # built on first use and shared by every later call: parse_args keeps no
    # state between calls, and building costs more than most commands
    return build_parser()


def _read_plain(sub, args):
    """The Namespace that `sub.parse_args(args)` returns when args are
    plain `--option value` pairs (see "Parsing:" above), else None."""
    if len(args) % 2:
        return None
    given = {}
    for flag, text in zip(args[::2], args[1::2]):
        action = sub.plain_options.get(flag)
        if action is None or action in given or not text or text[0] == "-":
            return None
        value = text
        if action.type is not None:
            try:
                value = action.type(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action] = value
    namespace = argparse.Namespace()
    for action in sub._actions:
        if action in given:
            setattr(namespace, action.dest, given[action])
        elif action.required:
            return None
        elif action.default is not argparse.SUPPRESS:
            setattr(namespace, action.dest, action.default)
    return namespace


def _parse(argv):
    """argv parsed once: read plainly, or in one argparse pass, where the
    top parser would scan every argument, then hand all after a
    subcommand's name, unchanged, to that subcommand's parser, and report
    what it leaves with the same message."""
    parser = _parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args = _read_plain(sub, argv[1:])
    if args is None:
        args = sub.parse_args(argv[1:])
    args.subcommand = argv[0]
    return args


def _emit_csv(header, rows) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _cmd_enumerate(args):
    trees = enumerate_trees(args.vertices)
    if args.format == "json":
        return json.dumps([t.key for t in trees])
    if args.format == "csv":
        return _emit_csv(
            ("tree", "alpha", "vertex_count"),
            [(t.key, automorphism_order(t), t.vertex_count) for t in trees],
        )
    return "\n".join(t.key for t in trees)


def _cmd_invariant(args):
    tree = parse_tree(args.tree)
    spec = built_in_spec(args.operator)
    value = evaluate(tree, spec)
    alpha = automorphism_order(tree)
    if args.format == "json":
        return render_payload(
            {"tree": tree.key, "operator": args.operator, "alpha": alpha, "value": value}
        )
    if args.format == "csv":
        return _emit_csv(("tree", "alpha", "value"), [(tree.key, alpha, pretty(value))])
    return f"tree {tree.key}\nalpha {alpha}\nvalue {pretty(value)}"


_U_BUILDERS = {"recurrence": u_by_recurrence, "enumerate": u_by_enumeration}


def _cmd_genfun(args):
    if args.terms < 1:
        raise DomainError("--terms must be at least 1")
    spec = built_in_spec(args.operator)
    build = _U_BUILDERS.get(args.mode)
    if build is not None:
        terms = build(spec, args.terms).terms
        payload = {"operator": args.operator, "mode": args.mode, "terms": terms}
        rows = [(n + 1, pretty(v)) for n, v in enumerate(terms)]
    else:
        residual = verify_functional_equation(spec, args.terms)
        payload = {"operator": args.operator, "mode": args.mode,
                   "residual": residual,
                   "residual_zero": residual.is_zero()}
        rows = [(k, pretty(c)) for k, c in enumerate(residual.coeffs)]
    if args.format == "json":
        return render_payload(payload)
    if args.format == "csv":
        return _emit_csv(("n", "value"), rows)
    return "\n".join(f"{n}: {text}" for n, text in rows)


def _cmd_verify(args):
    if args.max_n is not None and args.max_n < 1:
        raise DomainError("--max-n must be at least 1")
    from .verify import run_suite

    results = run_suite(args.suite, args.max_n)
    passed = all(r.passed for r in results)
    if args.format == "json":
        output = json.dumps([r.to_jsonable() for r in results])
    elif args.format == "csv":
        output = _emit_csv(
            ("suite", "passed", "detail"),
            [(r.suite, r.passed, line) for r in results for line in r.lines],
        )
    else:
        chunks = []
        for r in results:
            chunks.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.suite}")
            chunks.extend("    " + line for line in r.lines)
        output = "\n".join(chunks)
    return output, 0 if passed else 1


def _cmd_collisions(args):
    spec = built_in_spec(args.operator)
    pairs = collision_report(args.max_n, spec)
    if args.format == "json":
        return json.dumps([p.to_jsonable() for p in pairs])
    if args.format == "csv":
        return _emit_csv(
            ("n", "invariant", "tree_a", "tree_b", "alpha_a", "alpha_b", "alpha_collision"),
            [(p.n, p.invariant, p.tree_a, p.tree_b, p.alpha_a, p.alpha_b, p.alpha_collision)
             for p in pairs],
        )
    if not pairs:
        return f"no collisions for {args.operator} with n <= {args.max_n}"
    return "\n".join(
        f"n={p.n}: {p.tree_a} vs {p.tree_b} (alpha {p.alpha_a}/{p.alpha_b})"
        for p in pairs
    )


def _cmd_planar(args):
    if args.operator != "free-words":
        raise DomainError(f"unknown planar operator family: {args.operator!r}")
    tree = parse_planar_tree(args.tree)
    if args.labels is not None:
        labels = tuple(part for part in args.labels.split(",") if part)
    else:
        seen, stack = set(), [tree]
        while stack:
            node = stack.pop()
            seen.add(node.label)
            stack.extend(node.children)
        labels = tuple(sorted(seen))
    family = free_word_family(labels)
    value = evaluate_planar(tree, family)
    if args.format == "json":
        return render_payload({"tree": tree.serialize(), "value": value})
    if args.format == "csv":
        return _emit_csv(("tree", "value"), [(tree.serialize(), pretty(value))])
    return f"tree {tree.serialize()}\nvalue {pretty(value)}"


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "invariant": _cmd_invariant,
    "genfun": _cmd_genfun,
    "verify": _cmd_verify,
    "collisions": _cmd_collisions,
    "planar": _cmd_planar,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
        outcome = _COMMANDS[args.subcommand](args)
    except (_UsageError, ParseError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ResourceLimitError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        # the guards bound terms and degrees, not bytes, so a run within
        # them can still exhaust the memory the process is given
        print(f"resource limit: {args.subcommand} ran out of memory", file=sys.stderr)
        return 2
    except SystemExit as err:  # argparse --help
        return int(err.code or 0)
    if isinstance(outcome, tuple):
        output, code = outcome
    else:
        output, code = outcome, 0
    print(output)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
