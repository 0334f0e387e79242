import random

import pytest

from binoidal.errors import NotPositive, PresentationError
from binoidal.presentation import (
    BINOMIAL,
    MONOMIAL,
    Relation,
    bipointed_union,
    classify_relation,
    free,
    make_presentation,
    product,
    rees_quotient,
    smash,
)
from binoidal.parser import parse_presentation
from binoidal.spectrum import compute_spectrum
from binoidal.words import Word


def nspec(p):
    return len(compute_spectrum(p).primes)


def test_free_binoid_on_one_generator():
    p = make_presentation(["x"])
    assert p.rank == 1 and not p.relations


def test_monomial_relation_stored_inf_last():
    p = make_presentation(
        ["x", "y"], [(Word.inf(), Word.generator(0) + Word.generator(1))]
    )
    assert len(p.relations) == 1
    rel = p.relations[0]
    assert rel.is_monomial and rel.lhs.support() == {0, 1}


def test_reflexive_and_double_inf_relations_dropped():
    p = make_presentation(
        ["x"],
        [(Word.generator(0), Word.generator(0)), (Word.inf(), Word.inf())],
    )
    assert p.relations == ()


def test_name_validation():
    with pytest.raises(PresentationError):
        make_presentation(["x", "x"])
    with pytest.raises(PresentationError):
        make_presentation([""])
    with pytest.raises(PresentationError):
        make_presentation(["inf"])
    with pytest.raises(PresentationError):
        make_presentation(["2bad"])


def test_trailing_newline_is_not_an_identifier():
    # "$" in a match also matches before a final newline
    with pytest.raises(PresentationError):
        free("x\n")
    with pytest.raises(PresentationError):
        free("x", "inf\n")


def test_word_out_of_range_rejected():
    with pytest.raises(PresentationError):
        make_presentation(["x"], [(Word.generator(3), Word.inf())])


@pytest.mark.parametrize(
    "lhs,rhs,kind,mixed",
    [
        ((("x", 2),), (("x", 1),), BINOMIAL, False),
        ((("x", 1), ("y", 1)), "inf", MONOMIAL, True),
        ((("x", 3),), "inf", MONOMIAL, False),
        ((("x", 1), ("y", 1)), (("x", 2),), BINOMIAL, True),
    ],
)
def test_classify_relation(lhs, rhs, kind, mixed):
    names = ["x", "y"]
    idx = {n: i for i, n in enumerate(names)}

    def build(spec):
        if spec == "inf":
            return Word.inf()
        w = Word.zero()
        for name, e in spec:
            w = w + Word.generator(idx[name], e)
        return w

    rel = Relation(build(lhs), build(rhs))
    cls = classify_relation(rel)
    assert cls.kind == kind and cls.mixed == mixed


def test_smash_is_disjoint_union_of_relations():
    p = smash(
        parse_presentation("free(x)/(2x=x)"), parse_presentation("free(y)/(y=inf)")
    )
    assert p.pretty() == "free(x,y)/(2x=x, y=inf)"


def test_smash_renames_collisions_deterministically():
    p = smash(free("x"), free("x"))
    assert p.generators == ("x_1", "x_2")


def test_smash_with_trivial_presentation_keeps_the_other_factor():
    p = smash(parse_presentation("free(x)/(2x=x)"), free())
    assert p.pretty() == "free(x)/(2x=x)"


def test_spec_count_of_smash_is_multiplicative():
    cases = [
        (free("x"), free("y")),
        (parse_presentation("free(x)/(3x=x)"), parse_presentation("free(y)/(2y=inf)")),
        (parse_presentation("free(x,y)/(x+y=inf)"), parse_presentation("free(z)")),
    ]
    for a, b in cases:
        assert nspec(smash(a, b)) == nspec(a) * nspec(b)


def test_spec_count_of_product_formula():
    cases = [
        (free("x"), free("y")),
        (parse_presentation("free(x,y)/(x+y=inf)"), free("z")),
        (parse_presentation("free(x)/(2x=inf)"), parse_presentation("free(y)/(3y=y)")),
    ]
    for a, b in cases:
        assert nspec(product([a, b])) == nspec(a) * nspec(b) + nspec(a) + nspec(b)


def test_product_of_single_collapsed_factor_has_one_prime():
    p = product([parse_presentation("free(x)/(x=inf)")])
    assert nspec(p) == 1


def test_product_element_count_matches_factor_pairs_up_to_degree_4():
    from binoidal import rewrite

    a = parse_presentation("free(x)/(3x=x)")
    b = parse_presentation("free(y)/(2y=inf)")
    prod = product([a, b])
    rs = rewrite.complete(prod)
    ra, rb = rewrite.complete(a), rewrite.complete(b)
    # elements of degree <= 4 in the product embed pairs (u, v) plus the
    # mixed points with one absorbing coordinate
    na = len(rewrite.enumerate_elements(ra, 4))
    nb = len(rewrite.enumerate_elements(rb, 4))
    pairs = {
        (ra.normal_form(u), rb.normal_form(v))
        for u in rewrite.enumerate_elements(ra, 4)
        for v in rewrite.enumerate_elements(rb, 4)
        if u.degree() + v.degree() <= 4
    }
    lifted = set()
    for w in rewrite.enumerate_elements(rs, 4):
        dense = w.dense(prod.rank)
        u = Word.from_dense(dense[:1])
        v = Word.from_dense(dense[1:2])
        flags = dense[2:]
        if flags == (0, 0):
            lifted.add(("both", ra.normal_form(u), rb.normal_form(v)))
        elif flags == (1, 0):
            lifted.add(("right", rb.normal_form(v)))
        elif flags == (0, 1):
            lifted.add(("left", ra.normal_form(u)))
    assert len([t for t in lifted if t[0] == "both"]) == len(pairs)
    assert len([t for t in lifted if t[0] == "left"]) <= na
    assert len([t for t in lifted if t[0] == "right"]) <= nb


def test_bipointed_union_glues_at_zero_and_infinity():
    p = bipointed_union(free("x"), free("y"))
    assert p.pretty() == "free(x,y)/(x+y=inf)"


def test_bipointed_union_spec_count():
    a = parse_presentation("free(x)/(4x=inf)")
    b = parse_presentation("free(y,z)/(y+z=inf)")
    assert nspec(bipointed_union(a, b)) == nspec(a) + nspec(b) - 1


def test_bipointed_union_rejects_units():
    with pytest.raises(NotPositive):
        bipointed_union(parse_presentation("free(x)/(2x=0)"), free("y"))


def test_bipointed_union_with_trivial_factor():
    p = bipointed_union(parse_presentation("free(x)/(2x=x)"), free())
    assert nspec(p) == nspec(parse_presentation("free(x)/(2x=x)"))


def test_rees_quotient_adds_monomial_relations():
    p = rees_quotient(free("x", "y"), [Word.generator(0) + Word.generator(1)])
    assert p.pretty() == "free(x,y)/(x+y=inf)"
    assert rees_quotient(free("x"), []).pretty() == "free(x)"


def test_rees_quotient_by_unit_ideal_gives_zero_binoid():
    p = rees_quotient(free("x"), [Word.zero()])
    assert nspec(p) == 0


def test_rees_quotient_spectrum_is_v_of_ideal():
    base = parse_presentation("free(x,y)/(x+y=2x)")
    w = Word.generator(1)
    q = rees_quotient(base, [w])
    expected = {
        prime.gens
        for prime in compute_spectrum(base).primes
        if prime.contains_word(w)
    }
    assert {prime.gens for prime in compute_spectrum(q).primes} == expected


from tests_support import random_presentation


def test_roundtrip_parse_of_pretty_on_random_presentations():
    rng = random.Random(20240817)
    for _ in range(100):
        p = random_presentation(rng)
        assert parse_presentation(p.pretty()) == p
