import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binoidal import rewrite
from binoidal.errors import (
    BudgetExceeded,
    InvalidGrading,
    IsInfinity,
    NoPositiveGrading,
    NotPositive,
)
from binoidal.grading import GradingVector
from binoidal.parser import parse_presentation, parse_term
from binoidal.presentation import make_presentation
from binoidal.words import Word
from tests_support import assert_equal_matches_oracle, random_presentation

def test_completion_single_binomial():
    p = parse_presentation("free(x,y)/(x+y=2x)")
    rs = rewrite.complete(p)
    assert [r.pretty(p.generators) for r in rs.rules] == ["2x -> x+y"]
    assert rs.normal_form(parse_term("3x", p)) == parse_term("x+2y", p)


def test_completion_loop():
    p = parse_presentation("free(x)/(3x=x)")
    rs = rewrite.complete(p)
    assert [r.pretty(p.generators) for r in rs.rules] == ["3x -> x"]
    for k in range(12):
        nf = rs.normal_form(Word.generator(0, k) if k else Word.zero())
        assert nf.degree() in (0, 1, 2)


def test_completion_monomial():
    p = parse_presentation("free(x,y)/(x+y=inf)")
    rs = rewrite.complete(p)
    assert [r.pretty(p.generators) for r in rs.rules] == ["x+y -> inf"]
    assert rs.normal_form(parse_term("2x+3y", p)).is_inf


def test_normal_form_idempotent_and_inf_fixed():
    p = parse_presentation("free(x,y)/(2x=x+y, x+y=3y)")
    rs = rewrite.complete(p)
    for text in ["0", "x", "4x+2y", "7y"]:
        w = parse_term(text, p)
        nf = rs.normal_form(w)
        assert rs.normal_form(nf) == nf
    assert rs.normal_form(Word.inf()).is_inf


def test_unit_collapse_rule_rewrites_to_zero_word():
    p = parse_presentation("free(x,y)/(x+y=0)")
    rs = rewrite.complete(p)
    assert rs.normal_form(parse_term("x+y", p)) == Word.zero()
    assert rs.equal(parse_term("2x+2y", p), Word.zero())


def test_equal_reflexive_and_free_generators_distinct():
    p = parse_presentation("free(x,y)")
    rs = rewrite.complete(p)
    assert rs.equal(parse_term("x+y", p), parse_term("x+y", p))
    assert not rs.equal(parse_term("x", p), parse_term("y", p))


def test_equal_on_derived_example():
    p = parse_presentation("free(x,y)/(x+y=2x)")
    rs = rewrite.complete(p)
    assert rs.equal(parse_term("3x", p), parse_term("x+2y", p))


def test_budget_is_a_hard_error():
    p = parse_presentation("free(x,y)/(x+y=2x, 2y=inf)")
    with pytest.raises(BudgetExceeded):
        rewrite.complete(p, budget=1)


def test_confluence_of_completed_systems():
    fixtures = [
        "free(x,y)/(x+y=2x)",
        "free(x,y)/(2x=x+y, x+y=3y)",
        "free(x,y,z)/(x+y=x+y+z, 2z=inf)",
        "free(x,y)/(2x=3y)",
        "free(x,y)/(x+y=0)",
        "free(x,y,z)/(2x=y+z, 3y=x+z, x+y+z=inf)",
    ]
    for text in fixtures:
        rs = rewrite.complete(parse_presentation(text))
        assert rs.critical_pairs_join(), text


def test_congruence_compatibility_of_normal_forms():
    p = parse_presentation("free(x,y)/(2x=x+y, x+y=3y)")
    rs = rewrite.complete(p)
    words = [Word.from_dense(v) for v in rewrite.iter_words(2, 4)]
    for u, v in itertools.product(words, repeat=2):
        lhs = rs.normal_form(u + v)
        rhs = rs.normal_form(rs.normal_form(u) + rs.normal_form(v))
        assert lhs == rhs


def test_equal_agrees_with_saturation_oracle_on_random_presentations():
    rng = random.Random(1349)
    for _ in range(60):
        p = random_presentation(rng)
        rs = rewrite.complete(p)
        assert_equal_matches_oracle(p, rs)


@st.composite
def small_presentations(draw):
    """Rank <= 3 and words of degree <= 3, inside the saturation windows."""
    rank = draw(st.integers(1, 3))
    word = st.lists(st.integers(0, rank - 1), max_size=3).map(
        lambda gens: Word((i, 1) for i in gens)
    )
    rhs = st.one_of(word, st.just(Word.inf()))
    rels = draw(st.lists(st.tuples(word, rhs), max_size=3))
    return make_presentation([f"g{i}" for i in range(rank)], rels)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_presentations())
def test_completion_agrees_with_saturation_oracle(p):
    assert_equal_matches_oracle(p, rewrite.complete(p))


def test_torsion_pair_stays_separated_below_its_multiple():
    p = parse_presentation("free(a,b,c,d)/(2a+2b=2c+2d)")
    rs = rewrite.complete(p)
    assert not rs.equal(parse_term("a+b", p), parse_term("c+d", p))
    assert rs.equal(parse_term("2a+2b", p), parse_term("2c+2d", p))
    assert rs.equal(parse_term("3a+3b", p), parse_term("a+b+2c+2d", p))


def test_enumerate_free_prefix():
    p = parse_presentation("free(x)")
    rs = rewrite.complete(p)
    out = [w.pretty(p.generators) for w in rewrite.enumerate_elements(rs, 3)]
    assert out == ["0", "x", "2x", "3x"]


def test_enumerate_loop_window():
    p = parse_presentation("free(x)/(3x=x)")
    rs = rewrite.complete(p)
    out = [w.pretty(p.generators) for w in rewrite.enumerate_elements(rs, 9)]
    assert out == ["0", "x", "2x"]


def test_enumerate_excludes_absorbing_classes():
    p = parse_presentation("free(x,y)/(x+y=inf)")
    rs = rewrite.complete(p)
    out = {w.pretty(p.generators) for w in rewrite.enumerate_elements(rs, 2)}
    assert out == {"0", "x", "y", "2x", "2y"}


def test_monomial_only_criterion_matches_class_sizes():
    semifree = parse_presentation("free(x,y)/(x+y=inf)")
    not_semifree = parse_presentation("free(x,y)/(2x=3y)")
    assert rewrite.complete(semifree).is_monomial_only()
    assert not rewrite.complete(not_semifree).is_monomial_only()


def test_order_delta_on_free_binoid_is_degree():
    p = parse_presentation("free(x,y)")
    g = GradingVector((1, 1))
    w = parse_term("x+2y", p)
    assert rewrite.order_delta(p, g, w) == 3
    assert rewrite.order_delta(p, g, Word.zero()) == 0


def test_order_delta_uses_longest_representation():
    p = parse_presentation("free(x,y)/(2x=3y)")
    g = GradingVector((3, 2))
    assert rewrite.order_delta(p, g, parse_term("2x", p)) == 3


def test_order_delta_errors():
    p = parse_presentation("free(x,y)/(2x=3y)")
    with pytest.raises(InvalidGrading):
        rewrite.order_delta(p, GradingVector((1, 1)), parse_term("x", p))
    with pytest.raises(IsInfinity):
        rewrite.order_delta(
            parse_presentation("free(x)/(2x=inf)"),
            GradingVector((1,)),
            parse_term("2x", parse_presentation("free(x)/(2x=inf)")),
        )
    with pytest.raises(NotPositive):
        rewrite.order_delta(
            parse_presentation("free(x,y)/(x+y=0)"),
            GradingVector((1, 1)),
            Word.zero(),
        )


def test_hilbert_samuel_counts_lattice_points():
    assert rewrite.hilbert_samuel(parse_presentation("free(x,y)"), 3) == 6
    assert rewrite.hilbert_samuel(parse_presentation("free(x)"), 5) == 5
    assert (
        rewrite.hilbert_samuel(parse_presentation("free(x,y)/(x+y=inf)"), 2) == 3
    )


def test_hilbert_samuel_binomial_identity():
    for d in range(1, 4):
        p = parse_presentation("free(" + ",".join(f"g{i}" for i in range(d)) + ")")
        for n in range(1, 7):
            assert rewrite.hilbert_samuel(p, n) == math.comb(n - 1 + d, d)


def test_hilbert_samuel_requires_positive_grading():
    with pytest.raises(NoPositiveGrading):
        rewrite.hilbert_samuel(parse_presentation("free(x)/(3x=x)"), 3)
    with pytest.raises(NotPositive):
        rewrite.hilbert_samuel(parse_presentation("free(x,y)/(x+y=0)"), 3)


# Absorbing rules whose derivations climb far above the degree of the
# relations.  Each derivation is written out word by word; ``_one_step``
# checks every step by integer arithmetic alone, so the expected rule rests
# on no part of the library.


def _vector(text, names):
    v = [0] * len(names)
    for part in text.split("+"):
        name = part.lstrip("0123456789")
        v[names.index(name)] += int(part[: len(part) - len(name)] or 1)
    return v


def _one_step(u, v, relations):
    """v arises from u by replacing one side of one relation by the other."""
    for lhs, rhs in relations:
        for a, b in ((lhs, rhs), (rhs, lhs)):
            rest = [x - y for x, y in zip(u, a)]
            if min(rest) >= 0 and [x + y for x, y in zip(rest, b)] == v:
                return True
    return False


def _assert_derivation(names, relations, absorbing, steps):
    finite = [(_vector(l, names), _vector(r, names)) for l, r in relations]
    words = [_vector(w, names) for w in steps]
    for u, v in zip(words, words[1:]):
        assert _one_step(u, v, finite), (u, v)
    # the last word contains the left side of an absorbing relation
    assert all(x >= y for x, y in zip(words[-1], _vector(absorbing, names)))


def test_gb_absorbs_a_along_a_29_word_derivation():
    names = ["a", "b", "c", "d"]
    # 2d -> a+b -> 3d+b adds d+b; 6d -> 2a -> 2b+c makes c, and 3c = inf
    _assert_derivation(
        names,
        [("3d", "a"), ("2a", "2b+c"), ("a+b", "2d")],
        "3c",
        [
            "a", "3d", "a+b+d", "b+4d", "a+2b+2d", "2b+5d", "a+3b+3d",
            "3b+6d", "a+4b+4d", "4b+7d", "a+5b+5d", "5b+8d", "a+6b+6d",
            "6b+9d", "a+7b+7d", "7b+10d", "a+8b+8d", "8b+11d", "a+9b+9d",
            "9b+12d", "a+10b+10d", "2a+11b+8d", "13b+c+8d", "a+14b+c+6d",
            "2a+15b+c+4d", "17b+2c+4d", "a+18b+2c+2d", "2a+19b+2c", "21b+3c",
        ],
    )
    p = parse_presentation("free(a,b,c,d)/(3d=a, 2a=2b+c, 3c=inf, a+b=2d)")
    assert "a -> inf" in [r.pretty(p.generators) for r in rewrite.complete(p).rules]


def test_gb_absorbs_d_along_a_13_word_derivation():
    names = ["a", "b", "c", "d", "e"]
    # d -> a+d+e adds a+e; 3e -> 2a+c makes c, and 3c = inf
    _assert_derivation(
        names,
        [("a+2b", "3c"), ("3e", "2a+c"), ("d", "a+d+e")],
        "3c",
        [
            "d", "a+d+e", "2a+d+2e", "3a+d+3e", "5a+c+d", "6a+c+d+e",
            "7a+c+d+2e", "8a+c+d+3e", "10a+2c+d", "11a+2c+d+e",
            "12a+2c+d+2e", "13a+2c+d+3e", "15a+3c+d",
        ],
    )
    p = parse_presentation("free(a,b,c,d,e)/(a+2b=3c, 3e=2a+c, 3c=inf, d=a+d+e)")
    assert "d -> inf" in [r.pretty(p.generators) for r in rewrite.complete(p).rules]
