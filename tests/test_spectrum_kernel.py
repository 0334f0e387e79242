"""The bitmask spectrum kernel against the set-based oracle in tests_support."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binoidal import rewrite, simplicial, spectrum
from binoidal.parser import parse_presentation
from binoidal.presentation import free, make_presentation, product, units
from binoidal.simplicial import from_facets, simplicial_binoid
from binoidal.bitmask import indices, union, word_mask
from binoidal.errors import ZeroBinoid
from binoidal.words import Word
from tests_support import (
    oracle_admissible,
    oracle_booleanize,
    oracle_covers,
    oracle_heights,
    oracle_longest_chains,
    oracle_minimal,
    oracle_minimal_nonfaces,
    oracle_prime_dims,
    oracle_recognize,
    oracle_reduced,
    oracle_scan,
    oracle_spectrum,
    random_presentation,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def presentations(draw, max_rank=7):
    rank = draw(st.integers(1, max_rank))

    def word():
        exps = draw(
            st.lists(
                st.tuples(st.integers(0, rank - 1), st.integers(1, 3)), max_size=3
            )
        )
        return Word(exps)

    rels = []
    for _ in range(draw(st.integers(0, 4))):
        lhs = word()
        rhs = Word.inf() if draw(st.booleans()) and draw(st.booleans()) else word()
        rels.append((lhs, rhs))
    return make_presentation([f"g{i}" for i in range(rank)], rels)


@st.composite
def complexes(draw, max_vertices=7):
    n = draw(st.integers(1, max_vertices))
    facets = draw(
        st.lists(
            st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n),
            min_size=1,
            max_size=6,
        )
    )
    covered = set().union(*facets)
    facets += [frozenset([v]) for v in range(n) if v not in covered]
    names = [f"v{i}" for i in range(n)]
    return from_facets(names, [[names[i] for i in f] for f in facets])


@st.composite
def relation_mixes(draw, max_rank=7):
    """Monomial, binomial, unit (w = 0) and zero (0 = inf) relations; one
    draw in three is monomial only, so the recognizer gets past semifree."""
    rank = draw(st.integers(1, max_rank))

    def word(min_size=0):
        exps = st.tuples(st.integers(0, rank - 1), st.integers(1, 2))
        return Word(draw(st.lists(exps, min_size=min_size, max_size=3)))

    monomial_only = draw(st.integers(0, 2)) == 0
    rels = []
    for _ in range(draw(st.integers(0, 5))):
        kind = 0 if monomial_only else draw(st.integers(0, 9))
        if kind == 9:
            rels.append((Word.zero(), Word.inf()))
        elif kind == 8:
            rels.append((word(min_size=1), Word.zero()))
        elif kind < 4:
            rels.append((word(min_size=1), Word.inf()))
        else:
            lhs, rhs = word(), word()
            if lhs != rhs:
                rels.append((lhs, rhs))
    return make_presentation([f"g{i}" for i in range(rank)], rels)


@settings(SETTINGS, max_examples=300)
@given(relation_mixes())
@example(parse_presentation("free(x,y,z)/(x+y=inf, 2z=inf)"))
@example(parse_presentation("free(x,y)/(0=inf)"))
@example(parse_presentation("free(x,y)/(x+y=0)"))
@example(parse_presentation("free(x,y,z)/(x=inf, y+z=inf)"))
def test_family_kernel_matches_the_per_subset_oracles(p):
    r, full = p.rank, (1 << p.rank) - 1
    masks = oracle_scan(p)
    s = spectrum.compute_spectrum(p)
    assert [q.mask for q in s.primes] == masks
    assert [q.gens for q in s.primes] == [indices(m) for m in masks]
    below = oracle_longest_chains(masks, r)
    above = oracle_longest_chains([full ^ m for m in masks], r)
    heights = {m: below[m] - 1 for m in masks}
    assert {q.mask: h for q, h in s.heights().items()} == heights
    dims = {m: above[full ^ m] - 1 for m in masks}
    assert {q.mask: d for q, d in s.prime_dims().items()} == dims
    assert spectrum.dim(p) == max((below[m] for m in masks), default=0) - 1
    if masks:
        top = max(dims.values())
        counts = tuple(list(dims.values()).count(i) for i in range(top + 1))
        assert spectrum.f_vector(p).entries == counts
        minimal = [m for m in masks if not any(o & m == o != m for o in masks)]
        assert [q.mask for q in spectrum.minimal_primes(p)] == minimal
    else:
        with pytest.raises(ZeroBinoid):
            spectrum.f_vector(p)
        with pytest.raises(ZeroBinoid):
            spectrum.minimal_primes(p)
    assert spectrum.predicates(p).reduced == oracle_reduced(p)
    assert simplicial.recognize_simplicial_report(p) == oracle_recognize(p)
    # the cells partition the primes by the live binomials they avoid: their
    # sizes sum to the size of their OR, which is the table
    live = rewrite.completion(p).live_binomials()
    supports = [word_mask(rel.lhs) | word_mask(rel.rhs) for rel in live]
    cells = list(spectrum._cells(p, live))
    assert sum(f.bit_count() for _, f in cells) == len(masks)
    assert union(f for _, f in cells) == spectrum._table(p)
    admissible = set(masks)
    for inner, family in cells:
        for q in spectrum._primes_of(family, r):
            assert q.mask in admissible
            assert inner == tuple(k for k, s in enumerate(supports) if not s & q.mask)


def gens_of(primes):
    return [q.gens for q in primes]


def assert_poset_matches(s):
    primes = gens_of(s.primes)
    assert {q.gens: h for q, h in s.heights().items()} == oracle_heights(primes)
    assert {q.gens: d for q, d in s.prime_dims().items()} == oracle_prime_dims(primes)
    assert [(a.gens, b.gens) for a, b in s.covers()] == oracle_covers(primes)
    assert gens_of(spectrum._minimal(s.primes)) == oracle_minimal(primes)


@SETTINGS
@given(presentations())
def test_scan_and_poset_invariants_match_oracle(p):
    s = spectrum.compute_spectrum(p)
    assert gens_of(s.primes) == oracle_spectrum(p)
    assert all(q.mask == sum(1 << i for i in q.gens) for q in s.primes)
    assert_poset_matches(s)


@SETTINGS
@given(presentations(), st.data())
def test_invariants_of_sub_spectra_match_oracle(p, data):
    # oracle_sepdim in tests_support builds a Spectrum from a subfamily of the primes
    s = spectrum.compute_spectrum(p)
    keep = data.draw(st.lists(st.booleans(), min_size=len(s), max_size=len(s)))
    sub = spectrum.Spectrum(p, tuple(q for q, k in zip(s.primes, keep) if k))
    assert_poset_matches(sub)


def assert_booleanize_matches(p):
    if spectrum.compute_spectrum(p).is_empty:
        return
    b = spectrum.booleanize(p)
    expected = oracle_booleanize(p)
    primes = gens_of(b.spectrum.primes)
    assert [[primes[k] for k in d] for d in b.positions] == expected
    assert [sorted(q.gens for q in e) for e in b.elements] == [
        sorted(e) for e in expected
    ]


@SETTINGS
@given(presentations())
@example(parse_presentation("free(a,b,c,d,e)/(c+2d=a+b+d)"))
def test_booleanize_matches_oracle(p):
    assert_booleanize_matches(p)


def test_booleanize_matches_oracle_on_random_presentations():
    # elements of equal size are ordered by their members, which is not the
    # spectrum order of their largest primes
    rng = random.Random(5)
    for _ in range(120):
        assert_booleanize_matches(random_presentation(rng, max_rank=6, max_rels=4))


@SETTINGS
@given(presentations())
def test_binoid_group_without_heights(p):
    s = spectrum.compute_spectrum(p)
    if s.is_empty:
        return
    preds = spectrum.predicates(p)
    dim = max(oracle_heights(gens_of(s.primes)).values())
    assert preds.binoid_group == (preds.integral and dim == 0)


@SETTINGS
@given(presentations())
def test_units_and_integrality_match_the_scan(p):
    primes = oracle_spectrum(p)
    if not primes:
        assert units(p) is None
    else:
        nonunits = set().union(*primes)
        assert units(p) == sum(1 << i for i in range(p.rank) if i not in nonunits)
    absorbed = frozenset(rewrite.completion(p).absorbed_generators())
    assert spectrum.is_integral(p) == oracle_admissible(absorbed, p.relations)
    preds = spectrum.predicates(p)
    assert preds.binoid_group == (preds.integral and len(primes) == 1)


def test_heights_of_products_of_free_binoids():
    for k in range(1, 5):
        s = spectrum.compute_spectrum(product([free("x")] * k))
        assert_poset_matches(s)
        assert max(s.heights().values()) == 2 * k - 1


@settings(SETTINGS, max_examples=50)
@given(complexes())
def test_simplicial_binoid_heights_and_nonfaces_match_oracle(delta):
    assert simplicial.minimal_nonfaces(delta) == oracle_minimal_nonfaces(delta)
    p = simplicial_binoid(delta)
    assert_poset_matches(spectrum.compute_spectrum(p))
    assert simplicial.recognize_simplicial(p) == delta
