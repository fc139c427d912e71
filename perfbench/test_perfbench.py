"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Every output check must accept the package's real output and reject a
deliberately corrupted copy of it; the traced run must survive a probe
whose target no longer exists; job lists must repeat for a seed.
"""

from __future__ import annotations

import copy
import json
from collections import Counter
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import jobs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

fi = worker.import_package()


def bump(text):
    """A rendered rational plus one."""
    return str(checks.Fraction(text) + 1)


class JobListTest(unittest.TestCase):
    def test_same_seed_same_list_other_seed_other_list(self):
        for workload in jobs.WORKLOADS:
            first = jobs.build(workload, 7)
            self.assertEqual(first, jobs.build(workload, 7))
            self.assertNotEqual(first, jobs.build(workload, 8))
            self.assertGreaterEqual(len(first), 100)

    def test_seed_changes_order_not_amount_of_library_work(self):
        def work(job):
            if "planar" in job.kind:
                return job.kind, len(job.args[0]), job.args[1]
            return job.kind, job.args

        for workload in ("census", "recurrence"):
            self.assertEqual(
                sorted(map(work, jobs.build(workload, 1))), sorted(map(work, jobs.build(workload, 2)))
            )
            # 25 shapes of 4 equal jobs: the median and the 90th percentile
            # of 100 job times each fall inside one block of equal jobs
            shapes = Counter(map(work, jobs.build(workload, 1)))
            self.assertEqual((len(shapes), set(shapes.values())), (25, {jobs.COPIES}))

    def test_residual_jobs_follow_their_build(self):
        built = set()
        for job in jobs.build("recurrence", 3):
            if job.kind in ("u_by_recurrence", "u_planar_by_recurrence"):
                built.add((job.kind,) + job.args)
            elif job.kind == "verify_functional_equation":
                self.assertIn(("u_by_recurrence",) + job.args, built)
            else:
                self.assertIn(("u_planar_by_recurrence",) + job.args[:2], built)


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_what_the_run_prints(self):
        import run

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {name: unit for name, (unit, _, _, _) in tracer.METRICS.items()} | run.TRACE_EXTRAS,
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(jobs.WORKLOADS))


class IndependentHelpersTest(unittest.TestCase):
    def test_tree_census_matches_a000081(self):
        for n in range(1, 9):
            self.assertEqual(len(checks.all_trees(n)), checks.A000081[n - 1])

    def test_labeling_counts_match_brute_force(self):
        from itertools import product

        tree = checks.parse_tree("((()())(()))")
        edges = [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5)]
        for strict in (True, False):
            counts = checks.labeling_counts(tree, 4, strict)
            for m in range(5):
                brute = sum(
                    all(f[a] < f[b] if strict else f[a] <= f[b] for a, b in edges)
                    for f in product(range(m), repeat=6)
                )
                self.assertEqual(counts[m], brute)

    def test_automorphisms(self):
        self.assertEqual(checks.automorphisms(checks.parse_tree("(()()())")), 6)
        self.assertEqual(checks.automorphisms(checks.parse_tree("((()())(()()))")), 8)


class CheckRejectsCorruptionTest(unittest.TestCase):
    def assertRejects(self, check, good, corrupt):
        self.assertIsNone(check(good))
        bad = copy.deepcopy(good)
        corrupt(bad)
        self.assertIsNotNone(check(bad))

    def test_tree_list(self):
        keys = [t.key for t in fi.enumerate_trees(6)]
        check = lambda k: checks.check_tree_list(6, k)
        self.assertRejects(check, keys, lambda k: k.pop())
        self.assertRejects(check, keys, lambda k: k.__setitem__(0, k[1]))
        self.assertRejects(check, keys, lambda k: k.__setitem__(-1, "(()(()()()))"))

    def test_generating_function_terms(self):
        for op in jobs.OPERATORS:
            spec = worker.new_spec(fi, op, 5)
            terms = [fi.render_value(t) for t in fi.u_by_recurrence(spec, 5).terms]
            check = lambda t: checks.check_u_terms(op, 5, t)
            if op in jobs.POLYNOMIAL_OPERATORS:
                # a perturbed leading coefficient, then a perturbed constant
                self.assertRejects(check, terms, lambda t: t[3].__setitem__(4, bump(t[3][4])))
                self.assertRejects(check, terms, lambda t: t[3].__setitem__(0, "1"))
            else:
                head = (1,) * 4 if op == "lambda-bar" else (4,)

                def corrupt(t):
                    for term in t[3]:
                        if tuple(term["composition"]) == head:
                            term["coefficient"] = bump(term["coefficient"])

                self.assertRejects(check, terms, corrupt)
            self.assertRejects(check, terms, lambda t: t.pop())

    def test_residuals(self):
        spec = worker.new_spec(fi, "lambda", 4)
        sequence = fi.u_by_recurrence(spec, 4)
        residual = fi.render_value(fi.verify_functional_equation(spec, 4, sequence))
        nonzero = fi.render_value(fi.QSym.monomial((1, 2), 4))
        check = lambda r: checks.check_zero_series(4, r)
        self.assertRejects(check, residual, lambda r: r.__setitem__(3, nonzero))
        family = fi.free_word_family("ab")
        planar = fi.render_value(
            fi.planar_equation_residual(family, 4, fi.u_planar_by_recurrence(family, 4), "a")
        )
        self.assertRejects(check, planar, lambda r: r.__setitem__(2, "1/2"))

    def test_planar_terms(self):
        seq = fi.u_planar_by_recurrence(fi.free_word_family("ab"), 4)
        per_label = {k: [fi.render_value(t) for t in v] for k, v in seq.per_label.items()}
        check = lambda p: checks.check_planar_terms("ab", 4, p)
        self.assertRejects(check, per_label, lambda p: p["a"][3][0].__setitem__("coefficient", "4"))
        self.assertRejects(check, per_label, lambda p: p["a"][2].append(p["b"][2].pop()))

    def test_cayley_report(self):
        report = fi.cayley_check(6).to_jsonable()
        check = lambda r: checks.check_cayley_report(6, r)
        self.assertRejects(check, report, lambda r: r["rows"][4].__setitem__("tree_sum", "7"))
        self.assertRejects(check, report, lambda r: r.__setitem__("residual_zero", False))

    def test_collisions(self):
        pairs = [p.to_jsonable() for p in fi.collision_report(6, fi.strict_order_spec())]
        self.assertTrue(pairs)
        check = lambda p: checks.check_collisions("delta-inv", 6, p)
        self.assertRejects(check, pairs, lambda p: p[0]["alpha"].__setitem__(0, p[0]["alpha"][0] + 1))
        self.assertRejects(check, pairs, lambda p: p.pop())
        self.assertRejects(check, pairs, lambda p: p[0].__setitem__("alpha_collision", not p[0]["alpha_collision"]))
        qsym_pairs = [p.to_jsonable() for p in fi.collision_report(6, fi.qsym_strict_spec(6))]
        fake = {"n": 4, "invariant": "lambda-bar", "colliding_trees": ["(((())))", "(()()())"],
                "alpha": [1, 6], "alpha_collision": False}
        self.assertRejects(lambda p: checks.check_collisions("lambda-bar", 6, p), qsym_pairs,
                           lambda p: p.append(fake))

    def cli(self, *argv):
        code, stdout, stderr = worker.Runner(fi, checks)._cli(argv)
        self.assertEqual((code, stderr), (0, ""))
        return json.loads(stdout)

    def test_invariant_replies(self):
        text = "((()())(())(()))"
        for op in jobs.OPERATORS:
            reply = self.cli("invariant", "--tree", text, "--operator", op)
            check = lambda r: checks.check_invariant_reply(op, text, r)
            self.assertRejects(check, reply, lambda r: r.__setitem__("alpha", r["alpha"] + 1))
            self.assertRejects(check, reply, lambda r: r.__setitem__("tree", text))
            if op in jobs.POLYNOMIAL_OPERATORS:
                self.assertRejects(check, reply, lambda r: r["value"].__setitem__(-1, bump(r["value"][-1])))
                self.assertRejects(check, reply, lambda r: r["value"].__setitem__(3, bump(r["value"][3])))
            else:
                for i in range(len(reply["value"])):
                    self.assertRejects(
                        check, reply,
                        lambda r: r["value"][i].__setitem__("coefficient", bump(r["value"][i]["coefficient"])),
                    )

    def test_planar_reply(self):
        text = "(a:(b:(a:))(c:))"
        reply = self.cli("planar", "--tree", text)
        check = lambda r: checks.check_planar_reply(text, r)
        self.assertRejects(check, reply, lambda r: r["value"][0].__setitem__("coefficient", "2"))
        self.assertRejects(check, reply, lambda r: r["value"][0]["word"].reverse())


class TracerTest(unittest.TestCase):
    def traced(self, probes, job_calls):
        trace = tracer.Tracer(probes)
        trace.install()
        try:
            for call in job_calls:
                trace.active = True
                call()
                trace.active = False
                trace.end_job(1.0)
        finally:
            trace.uninstall()
        return trace.report()

    def test_counts_layers_of_a_recurrence(self):
        values, absent = self.traced(tracer.PROBES, [lambda: fi.u_by_recurrence(fi.qsym_weak_spec(5), 5)])
        self.assertGreater(values["series.exp_calls"], 0)
        self.assertGreater(values["series.exp_s"], 0)
        self.assertGreater(values["algebra.qsym_mul_calls"], 0)
        self.assertEqual(values["trees.enumerate_s"], 0)
        self.assertNotIn("series.exp_s", absent)

    def test_engine_cache_hits_are_counted(self):
        values, absent = self.traced(tracer.PROBES, [lambda: fi.u_by_enumeration(fi.strict_order_spec(), 6)])
        self.assertGreater(values["engine.cache_hit_ratio"], 0.5)
        self.assertNotIn("engine.cache_hit_ratio", absent)

    def test_missing_name_is_reported_absent(self):
        probes = [p for p in tracer.PROBES if p[0] != "series.exp"]
        probes.append(("series.exp", "forestinv.series", "exp_renamed", None))
        probes.append(("series.mul", "forestinv.no_such_module", "Series.__mul__", None))
        probes.append(("series.mul", "forestinv.series", "NoSuchClass.__mul__", None))
        probes = [p for p in probes if p[1:3] != ("forestinv.series", "Series.__mul__")]
        values, absent = self.traced(probes, [lambda: fi.u_by_recurrence(fi.strict_order_spec(), 6)])
        for name in ("series.exp_s", "series.exp_calls", "series.mul_calls", "series.mul_s"):
            self.assertIn(name, absent)
            self.assertEqual(values[name], 0)
        self.assertGreater(values["algebra.poly_mul_calls"], 0)

    def test_uninstall_restores_the_package(self):
        original = fi.series.exp
        trace = tracer.Tracer()
        trace.install()
        self.assertIsNot(fi.series.exp, original)
        trace.uninstall()
        self.assertIs(fi.series.exp, original)
        self.assertIs(fi.genfun.exp, original)


if __name__ == "__main__":
    unittest.main()
