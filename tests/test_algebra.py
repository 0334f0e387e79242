import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binoidal import rewrite
from binoidal.algebra import (
    CONNECTED,
    CYCLIC_GROUP,
    DISCONNECTED,
    DISJOINT_TOPS,
    LOOP,
    N_INFINITY,
    NILPOTENT,
    OUT_OF_SCOPE,
    SHARED_FACTOR,
    UNIT_RELATION,
    AbelianGroupData,
    _is_prime_power,
    brute_force_count,
    classify_one_generated,
    count_points,
    diff_group_at,
    export_algebra,
    hypersurface_connectedness,
    smith_normal_form,
    torsion_free_cancellative_quotient,
)
from binoidal.errors import NotIntegral, PresentationError
from binoidal.parser import parse_presentation, parse_term
from binoidal.presentation import free
from binoidal.spectrum import PrimeIdeal, compute_spectrum, predicates


def test_export_monomial_ideal():
    p = parse_presentation("free(x,y)/(x+y=inf)")
    assert export_algebra(p) == "ring K[X1,X2]; ideal (X1*X2)"


def test_export_binomial_ideal():
    p = parse_presentation("free(x,y)/(2x=3y)")
    assert export_algebra(p) == "ring K[X1,X2]; ideal (X1^2 - X2^3)"


def test_export_unit_relation():
    p = parse_presentation("free(x)/(3x=0)")
    assert export_algebra(p) == "ring K[X1]; ideal (X1^3 - 1)"


def test_export_other_dialects_and_empty_ideal():
    p = parse_presentation("free(x,y)")
    assert export_algebra(p) == "ring K[X1,X2]; ideal (0)"
    assert export_algebra(p, fmt="macaulay2") == "R = QQ[X1,X2];\nI = ideal(0_R);"
    assert export_algebra(p, fmt="singular") == "ring R = 0,(X1,X2),dp;\nideal I = 0;"
    with pytest.raises(ValueError):
        export_algebra(p, fmt="gap")


def test_export_generator_counts_match_relations():
    for text in [
        "free(x,y)/(x+y=inf, 2x=3y)",
        "free(a,b,c)/(a+c=inf, 2a=a, b=c)",
    ]:
        p = parse_presentation(text)
        body = export_algebra(p).split("ideal (")[1].rstrip(")")
        gens = [g for g in body.split(", ") if g]
        assert len(gens) == len(p.relations)
        monomials = [g for g in gens if " - " not in g]
        assert len(monomials) == len(p.monomial_relations())


def test_snf_coprime_row():
    assert smith_normal_form([(2, -3)], 2) == AbelianGroupData(1, ())


def test_snf_torsion_row():
    assert smith_normal_form([(2, -2)], 2) == AbelianGroupData(1, (2,))


def test_snf_empty_matrix():
    assert smith_normal_form([], 3) == AbelianGroupData(3, ())


def test_snf_divisibility_chain():
    got = smith_normal_form([(2, 0, 0), (0, 3, 0), (0, 0, 4)], 3)
    assert got.rank == 0
    assert got.invariant_factors == (2, 12)  # chain 1 | 2 | 12
    got2 = smith_normal_form([(2, 0), (0, 4)], 2)
    assert got2.invariant_factors == (2, 4)


def test_snf_known_matrix():
    got = smith_normal_form([(2, 4), (2, -2)], 2)
    assert got.rank == 0
    assert got.invariant_factors == (2, 6)  # minor gcds 2 and 12


def _minor_gcd_chain(rows, ncols):
    """Determinantal-divisor oracle for the Smith normal form."""
    import itertools
    import math

    def det(mat):
        n = len(mat)
        total = 0
        for perm in itertools.permutations(range(n)):
            inv = sum(
                1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
            )
            prod = 1
            for i in range(n):
                prod *= mat[i][perm[i]]
            total += (-1) ** inv * prod
        return total

    m = len(rows)
    chain = []
    prev = 1
    rank = 0
    for k in range(1, min(m, ncols) + 1):
        g = 0
        for rsel in itertools.combinations(range(m), k):
            for csel in itertools.combinations(range(ncols), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, abs(det(sub)))
        if g == 0:
            break
        chain.append(g // prev)
        prev = g
        rank = k
    return rank, tuple(d for d in chain if d > 1)


def test_snf_agrees_with_minor_gcd_oracle():
    import random

    rng = random.Random(5)
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        got = smith_normal_form(rows, n)
        rank, factors = _minor_gcd_chain(rows, n)
        assert got.rank == n - rank
        assert got.invariant_factors == factors


def test_diff_group_examples():
    edge = parse_presentation("free(x,y)/(x+y=inf)")
    assert diff_group_at(edge, PrimeIdeal([0])) == AbelianGroupData(1, ())
    unit = parse_presentation("free(x,y)/(x+y=0)")
    assert diff_group_at(unit, PrimeIdeal([])) == AbelianGroupData(1, ())
    cyc = parse_presentation("free(x)/(3x=0)")
    assert diff_group_at(cyc, PrimeIdeal([])) == AbelianGroupData(0, (3,))
    with pytest.raises(ValueError):
        diff_group_at(edge, PrimeIdeal([]))  # empty subset is not admissible


def test_count_points_examples():
    edge = parse_presentation("free(x,y)/(x+y=inf)")
    assert count_points(edge, 3).count == 5
    eight = parse_presentation("free(x)/(8x=0)")
    assert count_points(eight, 17).count == 8
    assert count_points(eight, 3).count == 2
    assert count_points(free("x", "y"), 5).count == 25


def test_count_points_prime_power_validation():
    with pytest.raises(ValueError):
        count_points(free("x"), 6)
    with pytest.raises(ValueError):
        count_points(free("x"), 1)
    assert count_points(free("x"), 4).count == 4


def test_brute_force_oracle_agrees():
    fixtures = [
        "free(x,y)/(x+y=inf)",
        "free(x)/(8x=0)",
        "free(x,y)/(2x=3y)",
        "free(x,y)/(x+y=2x)",
        "free(x)/(3x=x)",
        "free(a,b,c)/(a+c=inf)",
    ]
    for text in fixtures:
        p = parse_presentation(text)
        for q in (2, 3, 5):
            assert count_points(p, q).count == brute_force_count(p, q), (text, q)


def test_brute_force_oracle_agrees_on_random_presentations():
    import random

    from tests_support import random_presentation

    rng = random.Random(8885)
    for _ in range(400):
        p = random_presentation(rng, max_rank=5, max_rels=3, max_degree=4)
        for q in (2, 3, 5, 7):
            if q**p.rank <= 5000:
                assert count_points(p, q).count == brute_force_count(p, q), (p.pretty(), q)


def test_brute_force_guards():
    with pytest.raises(ValueError):
        brute_force_count(free("x"), 4)  # composite
    with pytest.raises(ValueError):
        brute_force_count(free(*[f"g{i}" for i in range(20)]), 5)  # cap


def test_brute_force_degenerate_presentations():
    from binoidal.presentation import rees_quotient
    from binoidal.words import Word

    zero = rees_quotient(free("x"), [Word.zero()])
    assert brute_force_count(zero, 3) == 0
    assert brute_force_count(free(), 3) == 1


def test_boolean_fixture_counts_spec_at_any_q():
    p = parse_presentation("free(x,y)/(2x=x, 2y=y, x+y=inf)")
    n = len(compute_spectrum(p))
    for q in (2, 3, 5):
        assert count_points(p, q).count == n


def test_hypersurface_shared_factor_connected():
    got = hypersurface_connectedness(parse_presentation("free(x,y)/(8x+y=y)"))
    assert got.verdict == CONNECTED and got.case == SHARED_FACTOR


def test_hypersurface_shared_factor_disconnected_with_witness():
    p = parse_presentation("free(x)/(3x=x)")
    got = hypersurface_connectedness(p)
    assert got.verdict == DISCONNECTED and got.case == SHARED_FACTOR
    witness = got.idempotent_witness
    assert witness == parse_term("2x", p)
    rs = rewrite.complete(p)
    assert rs.equal(witness + witness, witness)
    assert not rs.normal_form(witness).is_inf
    assert not rs.equal(witness, parse_term("0", p))


def test_hypersurface_disjoint_tops_connected():
    got = hypersurface_connectedness(parse_presentation("free(x,y)/(2x=3y)"))
    assert got.verdict == CONNECTED and got.case == DISJOINT_TOPS


def test_hypersurface_unit_relation_cases():
    coprime = hypersurface_connectedness(parse_presentation("free(x,y)/(x+y=0)"))
    assert coprime.verdict == CONNECTED and coprime.case == UNIT_RELATION
    torsion = hypersurface_connectedness(parse_presentation("free(x)/(2x=0)"))
    assert torsion.verdict == DISCONNECTED and torsion.case == UNIT_RELATION
    assert torsion.idempotent_witness is None


def test_hypersurface_monomial_out_of_scope():
    got = hypersurface_connectedness(parse_presentation("free(x,y)/(x+y=inf)"))
    assert got.verdict == OUT_OF_SCOPE


def test_hypersurface_requires_single_relation():
    with pytest.raises(PresentationError):
        hypersurface_connectedness(free("x"))
    with pytest.raises(PresentationError):
        hypersurface_connectedness(
            parse_presentation("free(x)/(2x=x, 3x=x)")
        )


def test_classify_one_generated_types():
    assert classify_one_generated(free("x")).kind == N_INFINITY
    got = classify_one_generated(parse_presentation("free(x)/(5x=2x)"))
    assert got.kind == LOOP and got.initial_pair == (2, 5) and got.loop_length == 3
    got = classify_one_generated(parse_presentation("free(x)/(4x=inf)"))
    assert got.kind == NILPOTENT and got.modulus == 4
    got = classify_one_generated(parse_presentation("free(x)/(3x=0)"))
    assert got.kind == CYCLIC_GROUP and got.modulus == 3
    with pytest.raises(PresentationError):
        classify_one_generated(free("x", "y"))


def test_classification_matches_enumeration_cardinality():
    cases = {
        "free(x)": 11,  # infinite type keeps growing with the bound
        "free(x)/(5x=2x)": 5,
        "free(x)/(4x=inf)": 4,
        "free(x)/(3x=0)": 3,
    }
    for text, expected in cases.items():
        p = parse_presentation(text)
        rs = rewrite.complete(p)
        assert len(rewrite.enumerate_elements(rs, 10)) == expected


def test_classifier_agrees_with_direct_walk():
    import random

    from binoidal.words import Word
    from tests_support import random_presentation

    rng = random.Random(8884)
    for _ in range(60):
        p = random_presentation(rng, max_rank=1, max_rels=3, max_degree=6)
        rs = rewrite.complete(p)
        c = classify_one_generated(p)
        nfs = []
        kind, param = N_INFINITY, None
        for k in range(40):
            nf = rs.normal_form(Word.generator(0, k) if k else Word.zero())
            if nf.is_inf:
                kind, param = NILPOTENT, k
                break
            if nf in nfs:
                j = nfs.index(nf)
                kind, param = (CYCLIC_GROUP, k) if j == 0 else (LOOP, (j, k))
                break
            nfs.append(nf)
        assert c.kind == kind, p.pretty()
        if kind == NILPOTENT or kind == CYCLIC_GROUP:
            assert c.modulus == param
        if kind == LOOP:
            assert c.initial_pair == param


def test_torsion_criterion_for_two_generator_loops():
    from math import gcd

    for k in range(2, 5):
        for l in range(2, 5):
            p = parse_presentation(f"free(x,y)/({k}x={l}y)")
            report = torsion_free_cancellative_quotient(p)
            assert report.torsion_free == (gcd(k, l) == 1), (k, l)
            assert "cancellative" in report.hypothesis


def test_torsion_quotient_of_unit_relation():
    p = parse_presentation("free(x,y)/(x+y=0)")
    report = torsion_free_cancellative_quotient(p)
    assert report.group == AbelianGroupData(1, ())


def test_torsion_quotient_requires_integral():
    with pytest.raises(NotIntegral):
        torsion_free_cancellative_quotient(
            parse_presentation("free(x,y)/(x+y=inf)")
        )


def test_count_points_per_prime_breakdown():
    p = parse_presentation("free(x,y)/(x+y=inf)")
    result = count_points(p, 3)
    assert [n for _, _, n in result.per_prime] == [2, 2, 1]
    assert predicates(p).positive


def _trial_division_prime_power(q):
    if q < 2:
        return False
    p = 2
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        p += 1
    return True


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.integers(-1, 10**5))
@example(2**16)
@example(3**10)
@example(7**5)
@example(2 * 3**9)
@example(99991)
def test_prime_power_test_matches_trial_division(q):
    assert _is_prime_power(q) == _trial_division_prime_power(q)


def test_prime_power_test_refuses_what_it_cannot_certify():
    assert _is_prime_power(2**127)
    assert not _is_prime_power(3 * (2**127 - 1))
    with pytest.raises(ValueError, match="cannot certify"):
        _is_prime_power(2**127 - 1)


def test_prime_power_test_rejects_strong_pseudoprimes_below_its_bound():
    # psi_12 passes every prime base up to 37; base 41 exposes it
    psi_12 = 318665857834031151167461
    assert not _is_prime_power(psi_12)
    assert not _is_prime_power(psi_12**2)
    # psi_13 also passes base 41 and lies at the bound, so it is refused
    with pytest.raises(ValueError, match="cannot certify"):
        _is_prime_power(3317044064679887385961981)
