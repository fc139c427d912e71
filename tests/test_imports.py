"""What importing the package costs and binds.

Every name a module imports is used in that module, so a deletion
leaves no stale import behind.  The package's `__init__.py` imports to
re-export, so it is left out.  `import forestinv, forestinv.cli` loads
neither the oracles nor the verify suites, nor `dataclasses` or `csv`,
and every name re-exported from a module it skips still resolves.
`forestinv.oracles` defines nothing that only the tests read: those
references live in `tests/references.py`.  The records are NamedTuples
that keep the fields, equality and hashes they had as dataclasses."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import forestinv
from forestinv.engine import _GUARDS
from forestinv.operators import DELTA_INV, LinearOperator

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/forestinv", "tests", "tools")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def imported_names(tree):
    """The name each import binds, with the line it is imported on."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((ROOT / module).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [(name, line) for name, line in imported_names(tree) if name not in used] == []


def named(tree):
    """Every name a tree of code reads, as a name, an attribute, an
    imported name or a whole string, such as the keys of `_LAZY`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_oracles_define_only_what_a_shipped_module_reads():
    package = ROOT / "src/forestinv"
    shipped = {
        name
        for path in package.glob("*.py")
        if path.name != "oracles.py"
        for name in named(ast.parse(path.read_text(encoding="utf-8")))
    }
    # each top-level function, class and table, with the code that defines it
    defined = {}
    for node in ast.parse((package / "oracles.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((target.id, node) for target in node.targets)
    # what another module names, then what those definitions name in turn
    read, reached = set(), [name for name in defined if name in shipped]
    while reached:
        name = reached.pop()
        if name not in read:
            read.add(name)
            reached.extend(other for other in named(defined[name]) if other in defined)
    assert sorted(defined.keys() - read) == []


# the names `forestinv` re-exports from the modules it loads on first use
LAZY_EXPORTS = {
    "oracles": ["FiniteVarPoly", "brute_force_order_count", "brute_force_qsym", "delta",
                "finite_lambda", "finite_lambda_bar", "nabla", "qsym_to_finite", "shift_s"],
    "verify": ["SuiteResult", "available_suites", "run_suite"],
}
NOT_LOADED = ["forestinv.oracles", "forestinv.verify", "dataclasses", "csv"]


def test_import_loads_neither_oracles_nor_suites_and_every_export_resolves():
    src = Path(forestinv.__file__).resolve().parents[1]
    code = f"""
import json, sys
import forestinv, forestinv.cli
loaded = [name for name in {NOT_LOADED!r} if name in sys.modules]
from forestinv import run_suite
resolved = {{
    module: [getattr(forestinv, name) is getattr(getattr(forestinv, module), name)
             for name in names]
    for module, names in {LAZY_EXPORTS!r}.items()
}}
modules = [getattr(forestinv, module) is sys.modules["forestinv." + module]
           for module in {list(LAZY_EXPORTS)!r}]
print(json.dumps([loaded, run_suite is forestinv.verify.run_suite, resolved, modules]))
"""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True,
    )
    loaded, from_import, resolved, modules = json.loads(done.stdout)
    assert loaded == []
    assert from_import and modules == [True, True]
    assert resolved == {module: [True] * len(names) for module, names in LAZY_EXPORTS.items()}
    star = {}
    exec("from forestinv import *", star)
    for names in LAZY_EXPORTS.values():
        assert set(names) <= set(dir(forestinv)) and set(names) <= star.keys()


# each record's fields, in order
RECORDS = {
    ("engine", "CollisionPair"):
        ("n", "invariant", "tree_a", "tree_b", "alpha_a", "alpha_b", "alpha_collision"),
    ("genfun", "USequence"): ("spec_name", "terms", "one"),
    ("genfun", "CayleyReport"): ("rows", "residual_zero"),
    ("operators", "LinearOperator"): ("name", "algebra", "apply"),
    ("planar", "PlanarUSequence"): ("per_label", "one"),
    ("planar", "GraftCheckReport"): ("graft_checks", "product_checks"),
    ("verify", "SuiteResult"): ("suite", "passed", "lines"),
}


def test_records_keep_their_fields_equality_repr_and_hash():
    for (module, name), fields in RECORDS.items():
        record = getattr(importlib.import_module(f"forestinv.{module}"), name)
        values = [object() for _ in fields]
        built = record(*values)
        assert [getattr(built, field) for field in fields] == values, name
        assert built == record(**dict(zip(fields, values))), name
        assert built != record(*values[:-1], object()), name
    assert repr(DELTA_INV) == "LinearOperator(name='delta-inv', algebra='polynomial')"
    assert hash(DELTA_INV) == hash(("delta-inv", DELTA_INV.algebra, DELTA_INV.apply))
    # an equal operator built anew still finds the built-in's cost guard
    assert _GUARDS[LinearOperator("delta-inv", DELTA_INV.algebra, DELTA_INV.apply)] is (
        _GUARDS[DELTA_INV]
    )
