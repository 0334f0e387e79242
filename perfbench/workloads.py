"""Seeded job generation for the four benchmark workloads.

Every job is one CLI call: an argv list for ``binoidal.cli.main`` plus the
structured input the independent checks need.  Inputs are built here from
the seed alone, without calling the library, so the same seed yields the
same jobs on every commit.

A workload is consumed in passes.  Pass ``k`` of seed ``s`` is generated
from its own random stream, and every pass holds the same stratified mix
of job kinds and input sizes; only the concrete inputs vary.  That keeps
the cost mix of a run steady across seeds while every job stays fresh.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import oracles

LETTERS = "abcdefghijklmn"
GOLDEN = (5**0.5 - 1) / 2

Vec = tuple[int, ...]
Rel = tuple[Vec, Optional[Vec]]  # rhs None is the absorbing word


@dataclass(frozen=True)
class Pres:
    """A presentation as generator names plus dense relation vectors."""

    names: tuple[str, ...]
    rels: tuple[Rel, ...]

    @property
    def rank(self) -> int:
        return len(self.names)

    def dsl(self) -> str:
        head = f"free({','.join(self.names)})"
        if not self.rels:
            return head
        body = ", ".join(
            f"{word_text(l, self.names)}={word_text(r, self.names)}" for l, r in self.rels
        )
        return f"{head}/({body})"


@dataclass(frozen=True)
class Complex:
    names: tuple[str, ...]
    facets: tuple[frozenset[int], ...]  # maximal faces only

    def text(self) -> str:
        body = ",".join(
            "{" + ",".join(self.names[i] for i in sorted(f)) + "}" for f in self.facets
        )
        return "complex{" + ",".join(self.names) + "; " + body + "}"


@dataclass
class Job:
    kind: str
    argv: list[str]
    pres: Optional[Pres] = None
    data: dict = field(default_factory=dict)
    small: bool = False  # cheap enough for the cold-start sample


def word_text(v: Optional[Vec], names) -> str:
    """The library's own word spelling: ``2a+c``, ``0`` or ``inf``."""
    if v is None:
        return "inf"
    parts = [n if e == 1 else f"{e}{n}" for n, e in zip(names, v) if e]
    return "+".join(parts) if parts else "0"


def _random_word(rng: random.Random, r: int, degree: int, support: int) -> Vec:
    gens = rng.sample(range(r), min(support, r))
    v = [0] * r
    for _ in range(degree):
        v[rng.choice(gens)] += 1
    return tuple(v)


def _add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


# --------------------------------------------------------------------------
# spectrum-poset


# size class -> (fewest primes, most primes, lowest rank, highest rank)
SPEC_CLASSES = {
    "small": (40, 64, 6, 8),
    "medium": (112, 128, 8, 10),
    "large": (448, 512, 9, 11),
    "xl": (1792, 2048, 11, 11),
}

SPEC_MIX = [
    (["spec", "--json"], ("small", "medium", "large", "xl")),
    (["minimal-primes", "--json"], ("small", "medium", "large", "xl")),
    (["dim", "--json"], ("small", "medium", "large")),
    (["fvector", "--json"], ("small", "medium", "large")),
    (["predicates", "--json"], ("small", "medium", "large")),
    (["bool", "--json"], ("small", "medium", "large")),
    (["spec", "--dot"], ("small", "small")),
]


def _sparse_relation(rng: random.Random, r: int) -> Rel:
    while True:
        lhs = _random_word(rng, r, rng.randint(1, 3), rng.randint(1, 2))
        if rng.random() < 0.4:
            return lhs, None
        rhs = _random_word(rng, r, rng.randint(1, 3), rng.randint(1, 2))
        if rhs != lhs:
            return lhs, rhs


def spectrum_presentation(rng: random.Random, size_class: str) -> Pres:
    """Rank and 0-3 sparse relations, redrawn until |Spec| is in the class."""
    lo, hi, rmin, rmax = SPEC_CLASSES[size_class]
    while True:
        r = rng.randint(rmin, rmax)
        rels = tuple(_sparse_relation(rng, r) for _ in range(rng.randint(0, 3)))
        p = Pres(tuple(LETTERS[:r]), rels)
        if lo <= oracles.spectrum_size(p) <= hi:
            return p


def random_complex(rng: random.Random, n: int) -> Complex:
    facets = [
        frozenset(rng.sample(range(n), rng.randint(2, 5)))
        for _ in range(rng.randint(4, 9))
    ]
    for v in range(n):
        if not any(v in f for f in facets):
            k = rng.randrange(len(facets))
            facets[k] = facets[k] | {v}
    maximal = {f for f in facets if not any(f < g for g in facets)}
    ordered = sorted(maximal, key=lambda f: (len(f), sorted(f)))
    return Complex(tuple(LETTERS[:n]), tuple(ordered))


def simplicial_presentation(delta: Complex) -> Pres:
    r = len(delta.names)
    rels = []
    for nf in oracles.minimal_nonfaces(delta):
        rels.append((tuple(1 if i in nf else 0 for i in range(r)), None))
    return Pres(delta.names, tuple(rels))


def spectrum_pass(rng: random.Random, u: float) -> list[Job]:
    jobs = []
    for verb, classes in SPEC_MIX:
        for size_class in classes:
            p = spectrum_presentation(rng, size_class)
            argv = [verb[0], p.dsl(), *verb[1:]]
            kind = verb[0] if verb[1] == "--json" else "spec-dot"
            jobs.append(Job(kind, argv, p, small=size_class == "small"))
    for verb, lo, hi in (
        ("simplicial:nonfaces", 10, 14),
        ("simplicial:nonfaces", 10, 14),
        ("simplicial:binoid", 10, 14),
        ("simplicial:recognize", 10, 12),
    ):
        delta = random_complex(rng, rng.randint(lo, hi))
        if verb == "simplicial:recognize":
            p = simplicial_presentation(delta)
            jobs.append(Job(verb, [verb, p.dsl(), "--json"], p, {"complex": delta}))
        else:
            jobs.append(Job(verb, [verb, delta.text(), "--json"], None, {"complex": delta}))
    return jobs


# --------------------------------------------------------------------------
# word-problem

WORD_DEGREE = {2: 30, 3: 18, 4: 12, 5: 9}  # longest input word per rank
LARGE_FAMILY = ("x", "y", "z")


def word_presentation(rng: random.Random, r: int) -> Pres:
    rels: list[Rel] = []
    target = rng.randint(1, 4)
    while len(rels) < target:
        lhs = _random_word(rng, r, rng.randint(1, 3), rng.randint(1, 3))
        if rng.random() < 0.25:
            rhs = None
        else:
            rhs = _random_word(rng, r, rng.randint(1, 3), rng.randint(1, 3))
        if rhs != lhs and (lhs, rhs) not in rels:
            rels.append((lhs, rhs))
    return Pres(tuple(LETTERS[:r]), tuple(rels))


def _input_word(rng: random.Random, r: int) -> Vec:
    return _random_word(rng, r, rng.randint(1, WORD_DEGREE[r]), rng.randint(1, r))


def large_exponent_job(u: float, level: int, levels: int, rng: random.Random) -> Job:
    """``nf`` over ``free(x,y,z)/(2x = x, x + y = y)`` with huge exponents.

    The exponent of x sits at position ``u`` of stratum ``level`` of
    [10^3, 10^5] on a log scale; the closed form of the normal form is
    checked.
    """
    a = int(10 ** (3 + 2 * (level + u) / levels))
    b = 0 if rng.random() < 0.5 else int(10 ** (3 + 2 * rng.random()))
    c = rng.randint(0, 1000)
    p = Pres(LARGE_FAMILY, (((2, 0, 0), (1, 0, 0)), ((1, 1, 0), (0, 1, 0))))
    w = (a, b, c)
    return Job("nf-large", ["nf", p.dsl(), word_text(w, p.names), "--json"], p,
               {"word": w})


LARGE_LEVELS = 5  # an odd count keeps the p95 inside a stratum, not on an edge


def word_pass(rng: random.Random, u: float) -> list[Job]:
    jobs = []
    for k in range(13):
        r = 2 + k % 4
        p = word_presentation(rng, r)
        u_word = _input_word(rng, r)
        jobs.append(Job("gb", ["gb", p.dsl(), "--json"], p, small=True))
        jobs.append(Job("nf", ["nf", p.dsl(), word_text(u_word, p.names), "--json"], p,
                        {"word": u_word}, small=True))
        a = _input_word(rng, r)
        if rng.random() < 0.5:
            # one relation step apart, so most of these pairs are equal
            lhs, rhs = rng.choice(p.rels)
            if rhs is not None and sum(a) + max(sum(lhs), sum(rhs)) <= WORD_DEGREE[r]:
                a, b = _add(a, lhs), _add(a, rhs)
            else:
                b = _input_word(rng, r)
        else:
            b = _input_word(rng, r)
        jobs.append(Job("eq", ["eq", p.dsl(), word_text(a, p.names),
                               word_text(b, p.names), "--json"], p,
                        {"words": (a, b)}, small=True))
    for level in range(LARGE_LEVELS):
        jobs.append(large_exponent_job(u, level, LARGE_LEVELS, rng))
    return jobs


# --------------------------------------------------------------------------
# graded-analysis

FIELD_SIZES = [q for q in range(2, 126) if oracles.is_prime_power(q)]
COUNT_CAP = 20_000  # q^rank bound, so the point enumeration check stays cheap
ORACLE_CAP = 5_000  # q^rank bound for adding --oracle (prime q only)


def graded_presentation(rng: random.Random, r: int, gradable: bool) -> Pres:
    """Positive presentation with 1-3 binomial relations between nonzero words.

    Relations are drawn to balance hidden weights in 1..3.  The ungradable
    kind adds one relation ``u + g = u``, which rules out every positive
    grading and gives the witness search a short witness to find.
    """
    while True:
        weights = [rng.randint(1, 3) for _ in range(r)]
        rels: list[Rel] = []
        target = rng.randint(1, 3)
        for _ in range(200):
            lhs = _random_word(rng, r, rng.randint(1, 3), rng.randint(1, 2))
            rhs = _random_word(rng, r, rng.randint(1, 3), rng.randint(1, 2))
            wl = sum(w * e for w, e in zip(weights, lhs))
            wr = sum(w * e for w, e in zip(weights, rhs))
            if wl == wr and lhs != rhs and (lhs, rhs) not in rels and (rhs, lhs) not in rels:
                rels.append((lhs, rhs))
                if len(rels) == target:
                    break
        if rels:
            break
    if not gradable:
        u = _random_word(rng, r, rng.randint(1, 2), 2)
        g = _random_word(rng, r, 1, 1)
        rels[rng.randrange(len(rels))] = (_add(u, g), u)
    return Pres(tuple(LETTERS[:r]), tuple(rels))


def count_points_job(rng: random.Random, p: Pres) -> Job:
    qs = [q for q in FIELD_SIZES if q ** p.rank <= COUNT_CAP]
    q = rng.choice(qs)
    argv = ["count-points", p.dsl(), "--q", str(q), "--json"]
    if oracles.is_prime(q) and q ** p.rank <= ORACLE_CAP:
        argv.append("--oracle")
    return Job("count-points", argv, p, {"q": q}, small=True)


# per presentation slot: rank, gradable, hilbert n, sepdim witness budget.
# The two rank-4 sepdim jobs are the heaviest, 2 in 27, so p95 falls inside
# their group rather than on its edge.
GRADED_SLOTS = [
    (2, True, 7, 6),
    (2, False, 3, None),
    (3, True, 6, None),
    (3, False, 4, 6),
    (4, True, 5, 5),
    (4, False, 5, 5),
]


def graded_pass(rng: random.Random, u: float) -> list[Job]:
    jobs = []
    for r, gradable, n, budget in GRADED_SLOTS:
        p = graded_presentation(rng, r, gradable)
        text = p.dsl()
        jobs.append(Job("hilbert", ["hilbert", str(n), text, "--json"], p,
                        {"n": n}, small=n <= 4))
        jobs.append(Job("grading", ["grading", text, "--json"], p, small=True))
        jobs.append(Job("separated", ["separated", text, "--json"], p, small=True))
        if budget:
            jobs.append(Job("sepdim", ["sepdim", text, "--budget", str(budget), "--json"], p))
        if r < 4 or gradable:
            jobs.append(count_points_job(rng, p))
    return jobs


# --------------------------------------------------------------------------
# cli-cold


def cold_pass(rng: random.Random, u: float) -> list[Job]:
    """Four small jobs from each in-process workload, run as subprocesses."""
    jobs = []
    for make in (spectrum_pass, word_pass, graded_pass):
        small = [j for j in make(rng, u) if j.small]
        jobs.extend(rng.sample(small, 4))
    return jobs


# --------------------------------------------------------------------------

# fixed small jobs that run during set-up, the same for every seed
WARMUP = {
    "spectrum-poset": [
        ["dim", "free(a,b,c,d)/(a+b=inf)", "--json"],
        ["spec", "free(a,b,c)/(a=b)", "--json"],
        ["bool", "free(a,b)", "--json"],
        ["simplicial:nonfaces", "complex{a,b,c; {a,b},{b,c}}", "--json"],
    ],
    "word-problem": [
        ["gb", "free(a,b)/(2a=b)", "--json"],
        ["nf", "free(a,b)/(a+b=inf)", "3a+b", "--json"],
        ["eq", "free(a,b)/(2a=a)", "3a", "a", "--json"],
    ],
    "graded-analysis": [
        ["grading", "free(a,b)/(2a=3b)", "--json"],
        ["hilbert", "3", "free(a,b)", "--json"],
        ["count-points", "free(a,b)/(a=b)", "--q", "5", "--json"],
        ["separated", "free(a)/(2a=a)", "--json"],
    ],
    "cli-cold": [["dim", "free(a,b)", "--json"]],
}


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random, float], list[Job]]
    tail_pct: int  # latency percentile reported as job_tail_ms
    min_jobs: int  # jobs a run needs, so that tail_pct has ten samples beyond
    cold: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spectrum-poset", spectrum_pass, 95, 200),
        Workload("word-problem", word_pass, 95, 200),
        Workload("graded-analysis", graded_pass, 95, 200),
        Workload("cli-cold", cold_pass, 90, 100, cold=True),
    )
}


def make_pass(workload: str, seed: int, index: int) -> list[Job]:
    """Jobs of pass ``index``, shuffled.

    Besides its own random stream a pass gets ``u``, its point in a
    golden-ratio sequence that starts at a seeded offset.  Strata drawn at
    ``u`` are covered evenly by the passes of a run, so the run's median
    pass does not hang on a few random draws.
    """
    rng = random.Random(f"{workload}/{seed}/{index}")
    u = (random.Random(f"{workload}/{seed}").random() + index * GOLDEN) % 1.0
    jobs = WORKLOADS[workload].make(rng, u)
    rng.shuffle(jobs)
    return jobs

