import itertools
import random

import pytest

from binoidal import rewrite, spectrum
from binoidal.errors import PresentationError, TooManyGenerators, ZeroBinoid
from binoidal.parser import parse_presentation, parse_term
from binoidal.presentation import free, make_presentation, product, rees_quotient
from binoidal.spectrum import (
    PrimeIdeal,
    booleanize,
    closure,
    compute_spectrum,
    d_set,
    dim,
    f_vector,
    is_nilpotent,
    minimal_primes,
    minimal_primes_over,
    predicates,
    radical_membership,
    v_set,
)
from binoidal.words import Word
from tests_support import minimal_transversals, random_presentation


def names_of(p, primes):
    return [tuple(p.generators[i] for i in q.gens) for q in primes]


def test_free_binoid_spectrum_is_the_power_set():
    p = free("x", "y")
    s = compute_spectrum(p)
    assert names_of(p, s.primes) == [(), ("x",), ("y",), ("x", "y")]


def test_krull_example_spectrum_heights_and_minimal_primes_over():
    p = parse_presentation("free(x,y)/(x+y=2x)")
    s = compute_spectrum(p)
    assert names_of(p, s.primes) == [(), ("x",), ("x", "y")]
    assert s.height(s.max_ideal) == 2
    over = minimal_primes_over(p, [parse_term("y", p)])
    assert names_of(p, over) == [("x", "y")]


def test_product_of_two_free_binoids_has_eight_primes():
    p = product([free("x"), free("y")])
    assert len(compute_spectrum(p)) == 8


def test_dim_table():
    assert dim(free("x", "y", "z")) == 3
    assert dim(product([free("x"), free("y")])) == 3
    assert dim(parse_presentation("free(x,y)/(x+y=inf)")) == 1


def test_zero_binoid_has_dim_minus_one_and_no_invariants():
    zero = rees_quotient(free("x"), [Word.zero()])
    assert dim(zero) == -1
    with pytest.raises(ZeroBinoid):
        f_vector(zero)
    with pytest.raises(ZeroBinoid):
        minimal_primes(zero)
    with pytest.raises(ZeroBinoid):
        booleanize(zero)


def test_heights_and_prime_dims():
    p = free("x", "y")
    s = compute_spectrum(p)
    x_prime = PrimeIdeal([0])
    assert s.height(x_prime) == 1
    assert s.prime_dim(x_prime) == 1
    assert all(s.height(m) == 0 for m in minimal_primes(p))
    with pytest.raises(ValueError):
        s.height(PrimeIdeal([5]))


def test_f_vector_examples():
    assert f_vector(free("x")).entries == (1, 1)
    p = parse_presentation("free(a,b,c)/(a+c=inf)")  # path complex binoid
    assert f_vector(p).entries == (1, 3, 2)


def test_f_vector_of_intersection_semilattice_sums_to_seven():
    p = parse_presentation("free(a,b,c)/(2a=a, 2b=b, 2c=c, a+b+c=inf)")
    assert sum(f_vector(p).entries) == 7


def test_f_vector_sums_to_spec_size_and_f0_is_one():
    for text in [
        "free(x,y)",
        "free(x,y)/(x+y=inf)",
        "free(x,y)/(x+y=2x)",
        "free(x,y,z)/(x+y=x+y+z, 2z=inf)",
    ]:
        p = parse_presentation(text)
        fv = f_vector(p)
        assert fv.entries[0] == 1
        assert sum(fv.entries) == len(compute_spectrum(p))
        assert fv.entries[-1] <= len(minimal_primes(p))


def test_dim_is_height_of_max_ideal():
    for text in [
        "free(x,y)",
        "free(x,y)/(x+y=2x)",
        "free(x,y)/(x+y=inf)",
        "free(a,b,c)/(a+c=inf)",
    ]:
        p = parse_presentation(text)
        s = compute_spectrum(p)
        assert dim(p) == s.height(s.max_ideal)


def test_product_of_empty_factor_list_rejected():
    with pytest.raises(PresentationError):
        product([])


def test_minimal_primes_of_edge_relation_are_vertex_covers():
    p = parse_presentation("free(x,y)/(x+y=inf)")
    assert names_of(p, minimal_primes(p)) == [("x",), ("y",)]


def test_minimal_primes_of_integral_presentation_is_zero_ideal():
    p = parse_presentation("free(x,y)/(2x=3y)")
    assert names_of(p, minimal_primes(p)) == [()]


def test_irreducible_components_partition_by_minimal_primes():
    from binoidal.spectrum import irreducible_components

    p = parse_presentation("free(x,y)/(x+y=inf)")
    components = irreducible_components(p)
    mins = minimal_primes(p)
    assert len(components) == len(mins)
    for m, comp in zip(mins, components):
        assert comp == [q for q in compute_spectrum(p).primes if m <= q]
    assert {q for comp in components for q in comp} == set(
        compute_spectrum(p).primes
    )


def test_d_set_of_zero_word_is_everything():
    p = parse_presentation("free(x,y)/(x+y=inf)")
    assert d_set(p, Word.zero()) == list(compute_spectrum(p).primes)


def test_d_set_of_nilpotent_is_empty():
    p = parse_presentation("free(x)/(2x=inf)")
    assert d_set(p, Word.generator(0)) == []


def test_closure_of_point_is_v_of_it():
    p = free("x", "y")
    target = PrimeIdeal([0])
    got = closure(p, [target])
    assert got == [q for q in compute_spectrum(p).primes if target <= q]


def test_v_set_supersets():
    p = free("x", "y")
    got = v_set(p, [Word.generator(0)])
    assert names_of(p, got) == [("x",), ("x", "y")]


def test_nilpotency_and_radical_membership():
    p = parse_presentation("free(x)/(2x=inf)")
    assert is_nilpotent(p, Word.generator(0))
    q = free("x", "y")
    assert not is_nilpotent(q, parse_term("x+y", q))
    edge = parse_presentation("free(x,y)/(x+y=inf)")
    assert is_nilpotent(edge, parse_term("x+y", edge))
    assert not is_nilpotent(edge, parse_term("x", edge))
    assert radical_membership(edge, parse_term("x", edge), [parse_term("2x", edge)])
    assert not radical_membership(edge, parse_term("y", edge), [parse_term("2x", edge)])


def test_radical_membership_reads_an_iterator_once_per_prime():
    edge = parse_presentation("free(x,y)/(x+y=inf)")
    x = parse_term("x", edge)
    assert radical_membership(edge, x, iter([x])) == radical_membership(edge, x, [x])


def test_union_of_primes_is_admissible():
    rng = random.Random(777)
    for _ in range(40):
        p = random_presentation(rng)
        primes = compute_spectrum(p).primes
        for a, b in itertools.combinations(primes, 2):
            union = frozenset(a.gens) | frozenset(b.gens)
            assert PrimeIdeal(union) in primes


def test_spectrum_cap_and_force():
    p = free(*[f"g{i}" for i in range(25)])
    with pytest.raises(TooManyGenerators):
        compute_spectrum(p)
    # force works on a trimmed variant to stay fast
    q = free(*[f"g{i}" for i in range(10)])
    assert len(compute_spectrum(q, force=True)) == 1024


def test_predicates_unit_relation():
    p = parse_presentation("free(x,y)/(x+y=0)")
    preds = predicates(p)
    assert preds.units == ("x", "y")
    assert not preds.positive
    assert preds.integral
    assert preds.binoid_group


def test_predicates_collapsed_sum_is_a_binoid_group():
    p = parse_presentation("free(x,y,z)/(x+y+z=0)")
    preds = predicates(p)
    assert preds.binoid_group and preds.integral
    assert preds.units == ("x", "y", "z")
    assert dim(p) == 0
    from binoidal.algebra import count_points

    for q in (2, 3, 5):
        assert count_points(p, q).count == (q - 1) ** 2


def test_predicates_cyclic_group():
    preds = predicates(parse_presentation("free(x)/(3x=0)"))
    assert preds.binoid_group
    assert preds.integral and preds.reduced


def test_predicates_nilpotent_generator():
    preds = predicates(parse_presentation("free(x)/(2x=inf)"))
    assert not preds.reduced
    assert not preds.integral
    assert preds.positive


def test_predicates_boolean():
    preds = predicates(parse_presentation("free(x,y)/(2x=x, 2y=y)"))
    assert preds.boolean
    assert preds.reduced and preds.positive


def test_spectrum_invariant_under_adjoining_derivable_monomials():
    cases = [
        ("free(x,y)/(2x=inf)", "3x"),
        ("free(x,y)/(x+y=inf, 2x=inf)", "x+2y"),
    ]
    for text, extra in cases:
        p = parse_presentation(text)
        rs = rewrite.complete(p)
        w = parse_term(extra, p)
        assert rs.normal_form(w).is_inf  # derivably absorbing
        enlarged = make_presentation(
            p.generators,
            [(rel.lhs, rel.rhs) for rel in p.relations] + [(w, Word.inf())],
        )
        assert compute_spectrum(p).primes == compute_spectrum(enlarged).primes


def test_minimal_transversals_examples():
    fam = [frozenset({0, 1}), frozenset({1, 2})]
    assert minimal_transversals(fam) == [frozenset({0, 2}), frozenset({1})]
    assert minimal_transversals([frozenset()]) == []
    assert minimal_transversals([]) == [frozenset()]


def test_minimal_transversals_match_brute_force():
    rng = random.Random(8882)
    for _ in range(60):
        n = rng.randint(1, 5)
        fam = [
            frozenset(rng.sample(range(n), rng.randint(1, n)))
            for _ in range(rng.randint(1, 4))
        ]
        got = set(minimal_transversals(fam))
        hitting = [
            frozenset(s)
            for size in range(n + 1)
            for s in itertools.combinations(range(n), size)
            if all(set(s) & f for f in fam)
        ]
        expected = {h for h in hitting if not any(g < h for g in hitting)}
        assert got == expected, fam


def test_booleanize_map_is_a_poset_isomorphism():
    rng = random.Random(8883)
    for _ in range(40):
        p = random_presentation(rng)
        s = compute_spectrum(p)
        if s.is_empty:
            continue
        mapping = booleanize(p).induced_spectrum_map()
        items = list(mapping.items())
        for (m1, t1), (m2, t2) in itertools.combinations(items, 2):
            assert (m1 <= m2) == (t1 <= t2)


def brute_force_d_sets(p):
    """All distinct basic open sets, scanning supports directly."""
    primes = compute_spectrum(p).primes
    seen = set()
    for size in range(p.rank + 1):
        for combo in itertools.combinations(range(p.rank), size):
            support = set(combo)
            seen.add(
                frozenset(q for q in primes if not (support & set(q.gens)))
            )
    seen.add(frozenset())
    return seen


def test_booleanize_matches_brute_forced_open_sets():
    for text in [
        "free(x)",
        "free(x)/(2x=x)",
        "free(x)/(2x=inf)",
        "free(x,y)/(x+y=inf)",
        "free(x,y)/(x+y=2x)",
        "free(a,b,c)/(a+c=inf)",
    ]:
        p = parse_presentation(text)
        b = booleanize(p)
        assert set(b.elements) == brute_force_d_sets(p), text


def test_booleanize_free_binoid_has_three_elements():
    b = booleanize(free("x"))
    assert b.cardinality == 3


def test_booleanize_idempotent_fixpoint():
    p = parse_presentation("free(x)/(2x=x)")
    b = booleanize(p)
    assert b.cardinality == 3
    rs = rewrite.complete(p)
    assert rs.equal(Word.generator(0, 2), Word.generator(0))


def test_booleanize_table_is_a_boolean_binoid():
    p = parse_presentation("free(x,y)/(x+y=2x)")
    b = booleanize(p)
    for e in b.elements:
        assert b.op(e, e) == e
        assert b.op(e, b.identity) == e
        assert b.op(e, b.absorbing) == b.absorbing
    table = b.table()
    n = b.cardinality
    assert len(table) == n and all(len(row) == n for row in table)


def test_booleanize_spectrum_bijection():
    for text in ["free(x,y)", "free(x,y)/(x+y=inf)", "free(a,b,c)/(a+c=inf)"]:
        p = parse_presentation(text)
        b = booleanize(p)
        table_primes = b.spec_elements()
        assert len(table_primes) == len(compute_spectrum(p))
        mapping = b.induced_spectrum_map()
        assert sorted(q.sort_key() for q in mapping.values()) == [
            q.sort_key() for q in compute_spectrum(p).primes
        ]
        for m, target in mapping.items():
            assert target in m  # the image is the largest prime of the open set
