"""Seeded job lists for the three workloads.

A job is a kind plus plain arguments (numbers, operator names, labels,
CLI argv); the worker turns it into one call of the package's public
API.  The seed decides the order of the `census` and `recurrence` jobs,
the label alphabets, and the random trees behind CLI requests; the same
seed always yields the same list.

`census` and `recurrence` are 25 job shapes, each asked four times.
Every copy of a shape costs the same, so the sorted job times come in
blocks of four and, with 100 jobs, the median (between ranks 49 and 50)
and the 90th percentile (between ranks 89 and 90) each fall inside one
block whatever the speed of each shape: they do not jump between two
shapes from run to run.  The shapes are the same for every seed, so
every seed asks for the same amount of work.

Sizes stay inside what the package answers in well under a second and
away from the faults listed in CHANGES.md: no tree deeper than a few
dozen vertices (the parsers recurse once per level) and no
quasi-symmetric request above 12 vertices (no cost guard on stars).
"""

from __future__ import annotations

import random
from collections import namedtuple

Job = namedtuple("Job", "kind args")

WORKLOADS = ("census", "recurrence", "requests")
OPERATORS = ("delta-inv", "nabla-inv", "lambda-bar", "lambda")
POLYNOMIAL_OPERATORS = OPERATORS[:2]
ALPHABETS = ("abc", "xyz", "pqr", "uvw")
COPIES = 4
DEFAULT_SEED = 1


def build(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    return {"census": census, "recurrence": recurrence, "requests": requests}[workload](rng)


def _shuffled(units, rng):
    """Shuffle units (lists of jobs that must stay in order) and flatten."""
    rng.shuffle(units)
    return [job for unit in units for job in unit]


def census(rng):
    """Whole classes of small trees: enumerations, Cayley sums, U_n by
    enumeration and collision searches for all four operators."""
    shapes = [Job("enumerate_trees", (n,)) for n in (5, 7, 8)]
    shapes += [Job("cayley_check", (n,)) for n in (7, 10)]
    sizes = {
        "u_by_enumeration": {
            "delta-inv": (4, 5, 6, 8), "nabla-inv": (4, 5, 8),
            "lambda-bar": (4, 5, 7), "lambda": (4, 5, 6, 7),
        },
        "collision_report": {
            "delta-inv": (5,), "nabla-inv": (6,), "lambda-bar": (5, 6), "lambda": (5, 6),
        },
    }
    for kind, by_op in sizes.items():
        shapes += [Job(kind, (op, n)) for op, ns in by_op.items() for n in ns]
    return _shuffled([[job] for job in shapes * COPIES], rng)


def recurrence(rng):
    """Generating functions without trees: U_n by recurrence for all four
    operators, planar U_n on 1 to 3 labels, and the residuals of both
    fixed-point equations applied to the recurrence-built sequence.  A
    residual job follows the build whose sequence it checks."""
    def planar(size, n):
        return Job("u_planar_by_recurrence", (rng.choice(ALPHABETS)[:size], n))

    units = []
    for _ in range(COPIES):
        for op, n in (("delta-inv", 6), ("nabla-inv", 8), ("lambda-bar", 5), ("lambda", 6)):
            build_job = Job("u_by_recurrence", (op, n))
            units.append([build_job, Job("verify_functional_equation", (op, n))])
        # the per-label residual on 2 labels, the family-sum one on 3
        for size, n in ((2, 5), (3, 4)):
            build_job = planar(size, n)
            labels = build_job.args[0]
            label = rng.choice(labels) if size == 2 else None
            units.append([build_job, Job("planar_equation_residual", (labels, n, label))])
        for op, n in (
            ("delta-inv", 12), ("delta-inv", 16), ("nabla-inv", 4), ("nabla-inv", 11),
            ("lambda-bar", 7), ("lambda-bar", 8), ("lambda", 4), ("lambda", 9),
        ):
            units.append([Job("u_by_recurrence", (op, n))])
        for size, n in ((1, 8), (1, 12), (2, 6), (2, 8), (3, 6)):
            units.append([planar(size, n)])
    return _shuffled(units, rng)


# --- random trees for CLI requests ------------------------------------------------


def random_recursive(n, rng):
    return [-1] + [rng.randrange(i) for i in range(1, n)]


def path(n, rng):
    return [-1] + list(range(n - 1))


def caterpillar(n, rng):
    """A spine of ceil(n/2) vertices with one leg on each but the last."""
    spine = (n + 1) // 2
    return [-1] + list(range(spine - 1)) + list(range(n - spine))


def broom(n, rng):
    """A handle of n/2 vertices whose end carries the rest as bristles."""
    handle = n // 2
    return [-1] + list(range(handle - 1)) + [handle - 1] * (n - handle)


def star(n, rng):
    return [-1] + [0] * (n - 1)


SHAPES = {
    "rrt": random_recursive,
    "path": path,
    "caterpillar": caterpillar,
    "broom": broom,
    "star": star,
}


def tree_text(parents, rng, labels=None):
    """Parenthesis text of a parent array, children in random order; with
    labels, the planar form "(a:...)" with random labels."""
    children = [[] for _ in parents]
    for v, p in enumerate(parents):
        if p >= 0:
            children[p].append(v)
    tags = [rng.choice(labels) + ":" if labels else "" for _ in parents]

    def text(v):
        kids = children[v]
        rng.shuffle(kids)
        return "(" + tags[v] + "".join(text(c) for c in kids) + ")"

    return text(0)


# (shape, vertex counts) per operator class.  Only random recursive
# trees vary with the seed.  They stay small, so that the slowest tenth
# of requests, which sets job_p90_ms, is made of fixed shapes whose cost
# does not depend on the order of the requests either: one path and one
# caterpillar per operator, and brooms and stars whose leaf tufts all
# differ in size, so that no two of them share a subtree in the engine
# cache.  Quasi-symmetric values of random trees also swing widely in
# cost and memory from one tree to the next; the large many-term values
# come from the fixed shapes.
POLYNOMIAL_MIX = (
    ("rrt", (6, 8, 9, 10, 11, 12, 14, 16)),
    ("path", (16,)),
    ("caterpillar", (20,)),
    ("broom", (12, 16, 18, 20, 22, 24, 26, 28, 30)),
    ("star", (8, 30)),
)
QSYM_MIX = (
    ("rrt", (5, 6, 6, 7, 7, 8, 8)),
    ("path", (12,)),
    ("caterpillar", (12,)),
    ("broom", (8, 10, 12)),
    ("star", (8, 12)),
)
PLANAR_MIX = (
    ("rrt", (6, 10, 14, 18, 22, 26, 30)),
    ("path", (10, 20, 30)),
    ("caterpillar", (12, 20, 28)),
    ("broom", (12, 20, 28)),
    ("star", (8, 12)),
)


def requests(rng):
    """Interactive CLI queries: 21 `invariant` requests for each
    polynomial operator, 14 for each quasi-symmetric one and 18
    `planar --tree` requests on 1 to 3 labels (88 jobs), twice over
    with fresh random trees (176 jobs).  The order of the requests is
    the same for every seed, so the fixed shapes meet the same cache
    state in every run; the seed picks the random trees and labels."""
    slots = []
    for _ in range(2):
        for op in OPERATORS:
            mix = POLYNOMIAL_MIX if op in POLYNOMIAL_OPERATORS else QSYM_MIX
            slots += [(op, shape, n) for shape, sizes in mix for n in sizes]
        slots += [("planar", shape, n) for shape, sizes in PLANAR_MIX for n in sizes]
    random.Random("requests order").shuffle(slots)
    out = []
    for op, shape, n in slots:
        parents = SHAPES[shape](n, rng)
        if op == "planar":
            labels = rng.choice(ALPHABETS)[: rng.randint(1, 3)]
            out.append(Job("cli", ("planar", "--tree", tree_text(parents, rng, labels))))
        else:
            out.append(Job("cli", ("invariant", "--tree", tree_text(parents, rng), "--operator", op)))
    return out
