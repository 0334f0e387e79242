import pytest

from binoidal import grading, rewrite, spectrum
from binoidal.errors import ZeroBinoid
from binoidal.grading import (
    NOT_SEPARATED,
    SEPARATED,
    UNKNOWN,
    find_positive_grading,
    find_unseparated,
    is_separated,
    sepdim,
)
from binoidal.parser import parse_presentation, parse_term
from binoidal.presentation import free, rees_quotient
from binoidal.words import Word


def test_grading_of_balanced_relation():
    p = parse_presentation("free(x,y)/(x+2y=2x+y)")
    assert find_positive_grading(p).weights == (1, 1)


def test_no_grading_when_relations_force_zero_weights():
    p = parse_presentation("free(x,y)/(2x=x+y, x+y=3y)")
    assert find_positive_grading(p) is None


def test_no_grading_with_unit_relation():
    assert find_positive_grading(parse_presentation("free(x,y)/(x+y=0)")) is None


def test_grading_unconstrained_free_binoid():
    assert find_positive_grading(free("x", "y")).weights == (1, 1)


def test_grading_scales_to_coprime_integers():
    p = parse_presentation("free(x,y)/(2x=3y)")
    g = find_positive_grading(p)
    assert g.weights == (3, 2)


def test_grading_respects_every_live_binomial_relation():
    cases = [
        "free(x,y)/(2x=3y)",
        "free(x,y,z)/(x+y=2z)",
        "free(x,y,z)/(2x+y=y+3z)",
    ]
    for text in cases:
        p = parse_presentation(text)
        g = find_positive_grading(p)
        rs = rewrite.complete(p)
        assert g is not None
        assert all(w >= 1 for w in g.weights)
        for rel in p.binomial_relations():
            if rs.normal_form(rel.lhs).is_inf:
                continue
            lhs = sum(g.weights[i] * e for i, e in rel.lhs.exps)
            rhs = sum(g.weights[i] * e for i, e in rel.rhs.exps)
            assert lhs == rhs


def test_grading_ignores_relations_whose_sides_collapse():
    # both sides of the binomial relation are absorbing, so no constraint
    p = parse_presentation("free(x,y,z)/(x+y=x+y+z, 2z=inf)")
    assert find_positive_grading(p) is not None


def test_lp_feasibility_matches_bounded_search():
    import itertools
    import random

    from tests_support import random_presentation

    rng = random.Random(8881)
    for _ in range(60):
        p = random_presentation(rng, max_rank=3, max_rels=3, max_degree=4)
        rs = rewrite.complete(p)
        g = find_positive_grading(p)
        rows = []
        for rel in p.binomial_relations():
            if rs.normal_form(rel.lhs).is_inf:
                continue
            row = [0] * p.rank
            for i, e in rel.lhs.exps:
                row[i] += e
            for i, e in rel.rhs.exps:
                row[i] -= e
            rows.append(row)
        boxed = None
        for w in itertools.product(range(1, 7), repeat=p.rank):
            if all(sum(a * b for a, b in zip(row, w)) == 0 for row in rows):
                boxed = w
                break
        if g is None:
            assert boxed is None, p.pretty()
        else:
            assert all(
                sum(a * b for a, b in zip(row, g.weights)) == 0 for row in rows
            )
            assert all(x >= 1 for x in g.weights)


def test_separated_with_grading():
    report = is_separated(parse_presentation("free(x,y)/(x+2y=2x+y)"))
    assert report.verdict == SEPARATED
    assert report.grading.weights == (1, 1)


def test_not_separated_with_witness_class():
    p = parse_presentation("free(x,y)/(2x=x+y, x+y=3y)")
    report = is_separated(p)
    assert report.verdict == NOT_SEPARATED
    f, g = report.witness
    rs = rewrite.complete(p)
    assert rs.equal(f, parse_term("2x+2y", p))
    assert g == parse_term("y", p)
    assert rs.equal(f, f + g)
    assert not rs.normal_form(f).is_inf


def test_loop_is_not_separated():
    p = parse_presentation("free(x)/(3x=x)")
    report = is_separated(p)
    assert report.verdict == NOT_SEPARATED
    assert report.witness == (parse_term("x", p), parse_term("2x", p))


def test_unknown_outside_the_theorem_scope():
    # not integral (x+y=inf) and ungradable (8z=z); the witness (z, 7z) lies
    # past the default budget: no grading, no witness, honest Unknown
    report = is_separated(parse_presentation("free(x,y,z)/(x+y=inf, 8z=z)"))
    assert report.verdict == UNKNOWN


def test_witnesses_verify_and_respect_budget_order():
    p = parse_presentation("free(x,y)/(y+x=y)")
    assert find_unseparated(p, 2) == (
        parse_term("y", p),
        parse_term("x", p),
    )


def test_find_unseparated_none_on_separated_fixtures():
    for text in ["free(x,y)", "free(x,y)/(x+2y=2x+y)", "free(x,y)/(2x=3y)"]:
        p = parse_presentation(text)
        for budget in (2, 4, 6):
            assert find_unseparated(p, budget) is None


def test_grading_excludes_witnesses_everywhere():
    # whenever a grading exists the witness search must come up empty
    fixtures = [
        "free(x)",
        "free(x,y)/(x+y=inf)",
        "free(x,y,z)/(x+y=2z)",
        "free(x,y,z)/(x+y=x+y+z, 2z=inf)",
    ]
    for text in fixtures:
        p = parse_presentation(text)
        if find_positive_grading(p) is not None:
            assert find_unseparated(p, 5) is None, text


def test_collapsed_relation_chain_is_separated():
    # adding z twice to x+y=x+y+z forces x+y to absorb, so the binoid with
    # the extra relation 2z=inf is separated outright
    p = parse_presentation("free(x,y,z)/(x+y=x+y+z, 2z=inf)")
    rs = rewrite.complete(p)
    assert rs.normal_form(parse_term("x+y", p)).is_inf
    assert is_separated(p).verdict == SEPARATED
    assert find_unseparated(p, 3) is None


def test_unseparated_witness_on_integral_variant():
    p = parse_presentation("free(x,y,z)/(x+y=x+y+z)")
    assert find_unseparated(p, 3) == (
        parse_term("x+y", p),
        parse_term("z", p),
    )


def test_sepdim_of_double_absorption():
    p = parse_presentation("free(x,y,z)/(y+x=y, z+x=z)")
    assert sepdim(p) == (1, True)
    assert spectrum.dim(p) == 3


def test_sepdim_certified_on_collapsed_example():
    p = parse_presentation("free(x,y,z)/(x+y=x+y+z, 2z=inf)")
    assert sepdim(p) == (1, True)
    assert spectrum.dim(p) == 1


def test_sepdim_on_integral_variant():
    p = parse_presentation("free(x,y,z)/(x+y=x+y+z)")
    assert sepdim(p) == (2, True)
    assert spectrum.dim(p) == 3


def test_sepdim_of_separated_input_is_dim():
    for text in ["free(x,y)", "free(x,y)/(x+y=inf)", "free(x,y)/(2x=3y)"]:
        p = parse_presentation(text)
        value, certified = sepdim(p)
        assert certified
        assert value == spectrum.dim(p)


def test_sepdim_never_exceeds_dim():
    for text in [
        "free(x)/(3x=x)",
        "free(x,y)/(y+x=y)",
        "free(x,y,z)/(x+y=x+y+z)",
        "free(x,y)/(2x=x+y, x+y=3y)",
    ]:
        p = parse_presentation(text)
        value, _ = sepdim(p)
        assert value <= spectrum.dim(p)


def test_sepdim_drops_the_unit_columns():
    # x + (x+v) = x, so the face {u,v,x} is unseparated; the face {u,v} is
    # not, although no weights >= 1 on u and v kill u + v
    p = parse_presentation("free(u,v,x)/(u+v=0, u+x=2x)")
    assert sepdim(p) == (0, True)
    assert spectrum.dim(p) == 1
    # x + u = x is no witness, u being a unit: only the faces with y are
    # unseparated
    p = parse_presentation("free(u,v,x,y)/(u+v=0, u+x=x, 2y=3y)")
    assert sepdim(p) == (1, True)
    assert spectrum.dim(p) == 2


def test_faces_with_the_same_inner_relations_share_one_lp(monkeypatch):
    # 3072 primes; one LP decides the grading and one every face holding
    # g0+g1=g0, while a face with no inner relation needs none
    calls = []
    solve = grading._simplex_max
    monkeypatch.setattr(grading, "_simplex_max", lambda *lp: calls.append(1) or solve(*lp))
    names = ",".join(f"g{i}" for i in range(12))
    assert sepdim(parse_presentation(f"free({names})/(g0+g1=g0)")) == (11, True)
    assert len(calls) == 2


def test_sepdim_zero_binoid_raises():
    with pytest.raises(ZeroBinoid):
        sepdim(rees_quotient(free("x"), [Word.zero()]))
