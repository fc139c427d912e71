"""Per-layer tracing from outside the package.

`Tracer.install` wraps public functions and methods of each layer in
place: a module-level function is replaced in every forestinv module
that holds it (so `from .series import exp` bindings and recursive
calls see the wrapper too), and a method is replaced on its class.
Nothing in the package's files changes.  A probe whose module or name no
longer exists is skipped and its metrics are reported as absent, so a
refactor that deletes or renames a helper does not break the traced run.

Each wrapper records a span: calls, inclusive time (counted only for the
outermost of nested calls to the same probe, so recursion is not counted
twice), self time (inclusive minus the time of wrapped calls inside it)
and, for carrier products, the size of the result.  Span times are
buffered per job and scaled with the job's clock factor by `end_job`.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict

from clock import now

# (span name, module, attribute path, size of a result or None)
PROBES = (
    ("trees.parse", "forestinv.trees", "parse_tree", None),
    ("trees.parse", "forestinv.planar", "parse_planar_tree", None),
    ("trees.enumerate", "forestinv.trees", "enumerate_trees", len),
    ("trees.automorphism", "forestinv.trees", "automorphism_order", None),
    ("engine.evaluate", "forestinv.engine", "evaluate", None),
    ("algebra.poly_mul", "forestinv.algebra", "Polynomial.__mul__", lambda p: p.degree),
    ("algebra.qsym_mul", "forestinv.algebra", "QSym.__mul__", lambda q: len(q.terms)),
    ("operators", "forestinv.operators", "LinearOperator.__call__", None),
    ("series.mul", "forestinv.series", "Series.__mul__", None),
    ("series.exp", "forestinv.series", "exp", None),
    ("series.geometric_inverse", "forestinv.series", "geometric_inverse", None),
    ("words.freeword_mul", "forestinv.words", "FreeWord.__mul__", None),
    ("words.tensor_mul", "forestinv.words", "TensorElement.__mul__", None),
    ("planar.evaluate", "forestinv.planar", "evaluate_planar", None),
    ("render.render", "forestinv.render", "render_value", None),
    ("render.render", "forestinv.render", "canonical_render", None),
    ("cli.main", "forestinv.cli", "main", None),
)

# LinearOperator spans are named after the operator they apply
OPERATOR_SPANS = {
    "delta-inv": "operators.delta_inv",
    "nabla-inv": "operators.nabla_inv",
    "lambda-bar": "operators.lambda_bar",
    "lambda": "operators.lambda",
}
WORD_ALGEBRAS = ("free-word", "tensor")

# per-layer metric -> (unit, better, span name, statistic)
METRICS = {
    "trees.enumerate_s": ("s", "lower", "trees.enumerate", "time"),
    "trees.enumerated": ("count", "lower", "trees.enumerate", "size_sum"),
    "trees.automorphism_s": ("s", "lower", "trees.automorphism", "time"),
    "trees.parse_s": ("s", "lower", "trees.parse", "time"),
    "engine.evaluate_calls": ("count", "lower", "engine.evaluate", "calls"),
    "engine.evaluate_self_s": ("s", "lower", "engine.evaluate", "self"),
    "engine.cache_hit_ratio": ("ratio", "higher", "engine.evaluate", "hit_ratio"),
    "algebra.poly_mul_calls": ("count", "lower", "algebra.poly_mul", "calls"),
    "algebra.poly_mul_s": ("s", "lower", "algebra.poly_mul", "time"),
    "algebra.poly_max_degree": ("count", "lower", "algebra.poly_mul", "size_max"),
    "algebra.qsym_mul_calls": ("count", "lower", "algebra.qsym_mul", "calls"),
    "algebra.qsym_mul_s": ("s", "lower", "algebra.qsym_mul", "time"),
    "algebra.qsym_max_terms": ("count", "lower", "algebra.qsym_mul", "size_max"),
    "algebra.quasi_shuffle_entries": ("count", "lower", "quasi_shuffle", "entries"),
    "algebra.quasi_shuffle_hit_ratio": ("ratio", "higher", "quasi_shuffle", "hit_ratio"),
    "operators.delta_inv_s": ("s", "lower", "operators.delta_inv", "time"),
    "operators.nabla_inv_s": ("s", "lower", "operators.nabla_inv", "time"),
    "operators.lambda_bar_s": ("s", "lower", "operators.lambda_bar", "time"),
    "operators.lambda_s": ("s", "lower", "operators.lambda", "time"),
    "operators.words_s": ("s", "lower", "operators.words", "time"),
    "series.mul_calls": ("count", "lower", "series.mul", "calls"),
    "series.mul_s": ("s", "lower", "series.mul", "time"),
    "series.exp_calls": ("count", "lower", "series.exp", "calls"),
    "series.exp_s": ("s", "lower", "series.exp", "time"),
    "series.geometric_inverse_calls": ("count", "lower", "series.geometric_inverse", "calls"),
    "series.geometric_inverse_s": ("s", "lower", "series.geometric_inverse", "time"),
    "words.freeword_mul_calls": ("count", "lower", "words.freeword_mul", "calls"),
    "words.freeword_mul_s": ("s", "lower", "words.freeword_mul", "time"),
    "words.tensor_mul_s": ("s", "lower", "words.tensor_mul", "time"),
    "planar.evaluate_s": ("s", "lower", "planar.evaluate", "time"),
    "render.render_s": ("s", "lower", "render.render", "time"),
    "cli.self_s": ("s", "lower", "cli.main", "self"),
}


class Tracer:
    def __init__(self, probes=PROBES):
        self.probes = probes
        self.installed = set()  # span names with at least one wrapped target
        self._patched = []  # (owner, attribute, original) to undo
        self.stats = defaultdict(lambda: defaultdict(float))
        self._job_times = defaultdict(lambda: defaultdict(float))
        self._stack = []  # [span name, start, time inside wrapped children]
        self._depth = defaultdict(int)
        self._lookups = [0, 0]  # engine cache lookups, hits
        self.active = False  # spans are recorded only inside timed job calls

    # --- installation ---------------------------------------------------------

    def install(self):
        for name, module_name, path, size in self.probes:
            owner, attr, original = _resolve(module_name, path)
            if original is None:
                continue
            if name == "operators":
                wrapper = self._operator_wrapper(original)
            elif name == "engine.evaluate":
                wrapper = self._evaluate_wrapper(original)
            else:
                wrapper = self._wrapper(name, original, size)
            if isinstance(owner, type):
                targets = [(owner, attr)]
            else:
                targets = [
                    (module, key)
                    for module in list(sys.modules.values())
                    if getattr(module, "__name__", "").split(".")[0] == "forestinv"
                    for key, value in list(vars(module).items())
                    if value is original
                ]
            for target, key in targets:
                setattr(target, key, wrapper)
                self._patched.append((target, key, original))
            if name == "operators":
                self.installed.update(OPERATOR_SPANS.values())
                self.installed.add("operators.words")
            else:
                self.installed.add(name)

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def _span(self, name, func, args, kwargs, size=None):
        if not self.active:
            return func(*args, **kwargs)
        stack = self._stack
        depth = self._depth
        frame = [name, now(), 0.0]
        stack.append(frame)
        depth[name] += 1
        try:
            result = func(*args, **kwargs)
        finally:
            elapsed = now() - frame[1]
            stack.pop()
            depth[name] -= 1
            if stack:
                stack[-1][2] += elapsed
            times = self._job_times[name]
            if depth[name] == 0:
                times["time"] += elapsed
            times["self"] += elapsed - frame[2]
            self.stats[name]["calls"] += 1
        if size is not None:
            try:
                measured = size(result)
            except (AttributeError, TypeError):  # the result type changed shape
                return result
            stat = self.stats[name]
            stat["size_sum"] += measured
            stat["size_max"] = max(stat["size_max"], measured)
        return result

    def _wrapper(self, name, func, size):
        def traced(*args, **kwargs):
            return self._span(name, func, args, kwargs, size)

        return traced

    def _operator_wrapper(self, func):
        def traced(op, *args, **kwargs):
            name = OPERATOR_SPANS.get(op.name)
            if name is None:
                name = "operators.words" if op.algebra in WORD_ALGEBRAS else "operators.other"
            return self._span(name, func, (op,) + args, kwargs)

        return traced

    def _evaluate_wrapper(self, func):
        def traced(tree, spec, *args, **kwargs):
            cache = getattr(spec, "_cache", None)
            key = getattr(tree, "key", None)
            if self.active and isinstance(cache, dict) and key is not None:
                self._lookups[0] += 1
                self._lookups[1] += key in cache
            return self._span("engine.evaluate", func, (tree, spec) + args, kwargs)

        return traced

    # --- results --------------------------------------------------------------

    def end_job(self, factor):
        """Fold the finished job's span times, scaled by its clock factor."""
        for name, times in self._job_times.items():
            for stat, value in times.items():
                self.stats[name][stat] += value * factor
        self._job_times.clear()

    def report(self):
        """(per-layer values, names of metrics whose layer is absent)."""
        values, absent = {}, []
        shuffle = _quasi_shuffle_info()
        for metric, (_, _, name, stat) in METRICS.items():
            if name == "quasi_shuffle":
                if shuffle is None:
                    absent.append(metric)
                    values[metric] = 0
                elif stat == "entries":
                    values[metric] = shuffle.currsize
                else:
                    lookups = shuffle.hits + shuffle.misses
                    values[metric] = shuffle.hits / lookups if lookups else 0.0
                continue
            if name not in self.installed:
                absent.append(metric)
                values[metric] = 0
            elif stat == "hit_ratio":
                lookups, hits = self._lookups
                values[metric] = hits / lookups if lookups else 0.0
            else:
                values[metric] = self.stats[name][stat]
        return values, absent


def _resolve(module_name, path):
    """(owner, attribute, original) for a dotted path, or Nones if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    original = getattr(owner, parts[-1], None)
    return owner, parts[-1], original if callable(original) else None


def _quasi_shuffle_info():
    try:
        algebra = importlib.import_module("forestinv.algebra")
        return algebra.quasi_shuffle.cache_info()
    except (ImportError, AttributeError):
        return None
