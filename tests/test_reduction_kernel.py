"""The tuple reduction kernel and the integer simplex against the reference
loops in tests_support."""

from fractions import Fraction
from operator import mul
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binoidal import grading, rewrite, spectrum
from binoidal.bitmask import mask_of
from binoidal.errors import BudgetExceeded, ZeroBinoid
from binoidal.parser import parse_presentation
from binoidal.presentation import make_presentation
from binoidal.words import Word
from tests_support import (
    oracle_equal,
    oracle_hilbert_samuel,
    oracle_normal_forms,
    oracle_order_delta,
    oracle_reduce,
    oracle_sepdim,
    oracle_simplex_max,
    oracle_spectrum,
    oracle_witness_pairs,
    random_presentation,
    saturation_classes,
    weighted_level,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def vectors(rank, top):
    return st.tuples(*[st.integers(0, top)] * rank)


@st.composite
def rule_lists(draw, rank):
    """Grlex-oriented rules in any order, so usually not confluent."""
    rules = []
    for _ in range(draw(st.integers(0, 6))):
        a = draw(vectors(rank, 3))
        b = None if draw(st.integers(0, 4)) == 0 else draw(vectors(rank, 3))
        if a != b and a != (0,) * rank:
            rules.append(rewrite._orient(a, b))
    return rules


@st.composite
def reductions(draw):
    rank = draw(st.integers(1, 4))
    return draw(rule_lists(rank)), draw(vectors(rank, 40))


@SETTINGS
@given(reductions())
# x -> y may run only one step at a time, because x+y -> x matches after
# each; run 6 times in one step it would end at 6y instead of y
@example(([((1, 1), (1, 0)), ((1, 0), (0, 1))], (6, 0)))
def test_reduce_by_follows_the_one_step_path(case):
    rules, v = case
    assert rewrite._reduce_by(rules, v) == oracle_reduce(rules, v)


@st.composite
def presentations(draw, max_rank=5):
    rank = draw(st.integers(1, max_rank))

    def word():
        exps = st.tuples(st.integers(0, rank - 1), st.integers(1, 3))
        return Word(draw(st.lists(exps, max_size=3)))

    rels = []
    for _ in range(draw(st.integers(0, 4))):
        lhs = word()
        rhs = Word.inf() if draw(st.integers(0, 3)) == 0 else word()
        rels.append((lhs, rhs))
    return make_presentation([f"g{i}" for i in range(rank)], rels)


def _smallest_budget(p):
    """Candidates completion processes: the smallest budget it passes with.

    Passing is monotone in the budget, so every smaller budget raises
    BudgetExceeded and every larger one passes.
    """
    def passes(budget):
        try:
            rewrite.complete(p, budget=budget)
        except BudgetExceeded:
            return False
        return True

    if passes(0):
        return 0
    lo, hi = 0, 1
    while not passes(hi):
        lo, hi = hi, 2 * hi
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


@SETTINGS
@given(presentations())
# bulk steps without the cap complete this one with 120 candidates, not 114
@example(
    parse_presentation(
        "free(g0,g1,g2,g3)/(0=g0+g1+2g3, g2+2g3=2g0+g3,"
        " 2g0+2g3=g0+g2+g3, g2+3g3=g0+2g1)"
    )
)
def test_completion_matches_the_one_step_reducer(p):
    rules = rewrite.complete(p)._rules
    budget = _smallest_budget(p)
    with mock.patch.object(rewrite, "_reduce_by", oracle_reduce):
        assert rewrite.complete(p)._rules == rules
        assert _smallest_budget(p) == budget


def _check_sepdim(p, budget):
    """``sepdim`` against the word loops at this budget, whose value is an
    upper bound and exact where they certify it."""
    value, certified = grading.sepdim(p)
    bound, exact = oracle_sepdim(p, budget)
    dim = spectrum.dim(p)
    assert certified
    assert value <= bound and value <= dim
    if exact:
        assert value == bound
    if grading.find_positive_grading(p) is not None:
        assert value == dim


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(presentations(max_rank=4), st.integers(0, 4))
def test_witness_search_matches_the_word_loops(p, budget):
    pairs = oracle_witness_pairs(p, budget)
    assert grading.find_unseparated(p, budget) == (pairs[0] if pairs else None)
    if pairs is None:
        with pytest.raises(ZeroBinoid):
            grading.sepdim(p)
        return
    _check_sepdim(p, budget)


@SETTINGS
@given(presentations(max_rank=4))
# ungradable, and at budget 4 the word loops find the value but cannot certify it
@example(parse_presentation("free(x,y)/(2x=x+y, x+y=3y)"))
# its witness g0 = g0 + 7g0 lies past degree 4, so the loops say 1 and sepdim 0
@example(parse_presentation("free(g0)/(8g0=g0)"))
def test_sepdim_from_faces_against_the_word_loops(p):
    if spectrum.compute_spectrum(p).is_empty:
        with pytest.raises(ZeroBinoid):
            grading.sepdim(p)
        return
    _check_sepdim(p, 4)


@SETTINGS
@given(presentations(max_rank=4), st.integers(0, 4))
@example(parse_presentation("free(x,y)/(x+y=0, 2x=3x)"), 4)
@example(parse_presentation("free(a,b,c,d)/(2a+7c=4b+7d, 5c+a=4d, 7a=3d)"), 2)
@example(parse_presentation("free(x,y,z)/(x+y=inf, 8z=z)"), 4)
def test_separated_verdicts_check_out_without_is_separated(p, budget):
    """Gradings and certificates by integer arithmetic, witnesses by a fresh
    completion and the saturation closure, nonunits by the set-based
    spectrum."""
    report = grading.is_separated(p, budget)
    rs = rewrite.complete(p)
    rows = [
        [a - b for a, b in zip(rel.lhs.dense(p.rank), rel.rhs.dense(p.rank))]
        for rel in p.binomial_relations()
        if not rs.normal_form(rel.lhs).is_inf
    ]
    primes = oracle_spectrum(p)
    nonunit = max(primes, key=len) if primes else ()
    y = grading._certificate(rows, p.rank, mask_of(nonunit)) if primes else None
    if y is not None:
        g = [sum(yk * row[j] for yk, row in zip(y, rows)) for j in range(p.rank)]
        assert min(g) >= 0 and any(g[j] for j in nonunit)
    if report.grading is not None:
        w = report.grading.weights
        assert min(w) >= 1 and all(sum(map(mul, row, w)) == 0 for row in rows)
        assert y is None  # Stiemke: a grading rules out every certificate
    if spectrum.is_integral(p):
        assert report.verdict != grading.UNKNOWN
        assert (report.verdict == grading.SEPARATED) == (y is None)
    if report.verdict == grading.SEPARATED and report.grading is None:
        assert oracle_witness_pairs(p, 4) == []
    if report.verdict == grading.NOT_SEPARATED:
        f, g = report.witness
        assert not rs.normal_form(f).is_inf and rs.equal(f, f + g)
        assert set(g.support()) & set(nonunit)
        d = sum(e for _, e in (f + g).exps)
        if d <= 16:  # past that the closure's windows grow too large
            assert any(
                oracle_equal(saturation_classes(p, d + slack), f, f + g, p.rank)
                for slack in (0, 4, 8, 12)
            )


@st.composite
def graded_presentations(draw):
    """Relations homogeneous for random weights, so a positive grading exists."""
    rank = draw(st.integers(1, 4))
    weights = draw(st.tuples(*[st.integers(1, 2)] * rank))
    rels = []
    for _ in range(draw(st.integers(0, 3))):
        level = list(weighted_level(weights, draw(st.integers(1, 5))))
        if not level:
            continue
        lhs = Word.from_dense(draw(st.sampled_from(level)))
        if draw(st.integers(0, 3)) == 0:
            rhs = Word.inf()
        else:
            rhs = Word.from_dense(draw(st.sampled_from(level)))
        rels.append((lhs, rhs))
    return make_presentation([f"g{i}" for i in range(rank)], rels)


@SETTINGS
@given(graded_presentations(), st.integers(1, 6))
def test_hilbert_samuel_matches_the_per_element_loop(p, n):
    assert rewrite.hilbert_samuel(p, n) == oracle_hilbert_samuel(p, n)
    rs = rewrite.complete(p)
    weights = grading.find_positive_grading(p).weights
    for w in rewrite.enumerate_elements(rs, n - 1):
        assert rewrite.order_delta(p, weights, w) == oracle_order_delta(
            p, weights, w, rs
        )


@SETTINGS
@given(presentations(), st.integers(0, 8))
@example(parse_presentation("free(x,y)/(x+y=0, 2x=3x)"), 8)
@example(parse_presentation("free(x,y)/(x+y=inf, 3x=2y, 0=inf)"), 4)
def test_irreducible_words_are_the_reduced_words(p, d):
    # units, absorbing relations and ungradable binomials: grlex rules never
    # raise the degree, whatever the relations
    rs = rewrite.complete(p)
    assert rewrite._normal_forms(rs, d) == oracle_normal_forms(rs, d)


@SETTINGS
@given(graded_presentations(), st.integers(0, 4))
def test_witness_search_on_gradable_presentations(p, budget):
    # the word loops find no witness where a grading exists, so skipping the
    # scan there gives their answer
    pairs = oracle_witness_pairs(p, budget)
    assert pairs == []
    assert grading.find_unseparated(p, budget) is None
    _check_sepdim(p, budget)


def _solved(simplex, a, b, c):
    """The solution, or "unbounded"; the problem is copied first, since the
    simplex negates rows in place."""
    try:
        return simplex([row[:] for row in a], b[:], c[:])
    except ArithmeticError:
        return "unbounded"


def _rational(a, b, c):
    a = [[Fraction(x) for x in row] for row in a]
    return a, [Fraction(x) for x in b], [Fraction(x) for x in c]


@st.composite
def linear_programs(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    return a, [draw(entry) for _ in range(m)], [draw(entry) for _ in range(n)]


@SETTINGS
@given(linear_programs())
def test_integer_simplex_matches_the_rational_one(lp):
    assert _solved(grading._simplex_max, *lp) == _solved(
        oracle_simplex_max, *_rational(*lp)
    )


@SETTINGS
@given(st.randoms(use_true_random=False))
def test_grading_lp_matches_the_rational_simplex(rng):
    p = random_presentation(rng, max_rank=4, max_rels=4, max_degree=4)
    solve = grading._simplex_max
    seen = []

    def recorded(a, b, c):
        seen.append(([row[:] for row in a], b[:], c[:]))
        return solve(a, b, c)

    with mock.patch.object(grading, "_simplex_max", recorded):
        grading.find_positive_grading(p)
    (lp,) = seen
    assert all(type(x) is int for row in lp[0] for x in row + lp[1] + lp[2])
    assert _solved(solve, *lp) == _solved(oracle_simplex_max, *_rational(*lp))
