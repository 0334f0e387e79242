"""Shared helpers for the test suite."""

import itertools
from fractions import Fraction
from typing import Optional

from binoidal import grading, rewrite, simplicial, spectrum
from binoidal.bitmask import bits, indices, mask_of, submasks, word_mask
from binoidal.errors import (
    IsInfinity,
    NoPositiveGrading,
    NotPositive,
    ZeroBinoid,
)
from binoidal.presentation import make_presentation, rees_quotient
from binoidal.words import Word

INF_NODE = "inf"


def saturation_classes(p, bound):
    """Independent word-problem oracle: one-step rewrite edges between all
    words of degree <= bound, closed by union-find."""
    r = p.rank

    def words_up_to(limit):
        out = []
        for d in range(limit + 1):
            for combo in itertools.combinations_with_replacement(range(r), d):
                v = [0] * r
                for i in combo:
                    v[i] += 1
                out.append(tuple(v))
        return out

    nodes = words_up_to(bound)
    parent = {w: w for w in nodes}
    parent[INF_NODE] = INF_NODE

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for rel in p.relations:
        u = rel.lhs.dense(r)
        v = None if rel.rhs.is_inf else rel.rhs.dense(r)
        for w in nodes:
            if all(a <= b for a, b in zip(u, w)):
                shifted = tuple(b - a for a, b in zip(u, w))
                if v is None:
                    union(w, INF_NODE)
                else:
                    target = tuple(a + b for a, b in zip(v, shifted))
                    if sum(target) <= bound:
                        union(w, target)
    return find


def oracle_equal(find, u, v, r):
    a = INF_NODE if u.is_inf else u.dense(r)
    b = INF_NODE if v.is_inf else v.dense(r)
    return find(a) == find(b)


def assert_equal_matches_oracle(p, rs, degree=4, windows=(9, 12, 15)):
    """Compare completion-based equality with the saturation closure.

    The closure only sees chains inside its degree window, so when the
    rewrite system claims equality the window is escalated before the claim
    is rejected; a closure equality missed by the rewrite system is always a
    hard failure.
    """
    from binoidal import rewrite

    finds = {windows[0]: saturation_classes(p, windows[0])}
    words = [Word.from_dense(v) for v in rewrite.iter_words(p.rank, degree)]
    for u, v in itertools.combinations(words, 2):
        claimed = rs.equal(u, v)
        seen = oracle_equal(finds[windows[0]], u, v, p.rank)
        if seen and not claimed:
            raise AssertionError(
                f"{p.pretty()}: oracle links {u!r} ~ {v!r}, rewrite system does not"
            )
        if claimed and not seen:
            for window in windows[1:]:
                if window not in finds:
                    finds[window] = saturation_classes(p, window)
                if oracle_equal(finds[window], u, v, p.rank):
                    break
            else:
                raise AssertionError(
                    f"{p.pretty()}: rewrite system links {u!r} ~ {v!r}, "
                    f"no saturation window up to {windows[-1]} confirms"
                )


def random_presentation(rng, max_rank=3, max_rels=3, max_degree=3):
    rank = rng.randint(1, max_rank)
    names = [f"g{i}" for i in range(rank)]
    rels = []
    for _ in range(rng.randint(0, max_rels)):

        def rand_word():
            degree = rng.randint(0, max_degree)
            w = Word.zero()
            for _ in range(degree):
                w = w + Word.generator(rng.randrange(rank))
            return w

        lhs = rand_word()
        rhs = Word.inf() if rng.random() < 0.25 else rand_word()
        rels.append((lhs, rhs))
    return make_presentation(names, rels)


# Set-based reference spectrum: the pairwise subset code that the bitmask
# kernel in binoidal.spectrum replaced.  Primes are sorted generator tuples;
# every comparison goes through Python sets, none through masks.


def oracle_admissible(subset, relations):
    for rel in relations:
        hits_lhs = bool(rel.lhs.support() & subset)
        if rel.is_monomial:
            if not hits_lhs:
                return False
        else:
            if hits_lhs != bool(rel.rhs.support() & subset):
                return False
    return True


def oracle_spectrum(p):
    """Admissible generator subsets, by cardinality then lexicographic."""
    primes = []
    for size in range(p.rank + 1):
        for combo in itertools.combinations(range(p.rank), size):
            if oracle_admissible(frozenset(combo), p.relations):
                primes.append(combo)
    return primes


def _below(a, b):
    return set(a) < set(b)


def oracle_heights(primes):
    out = {}
    for p in sorted(primes, key=len):  # subsets come first
        out[p] = max((out[q] + 1 for q in primes if _below(q, p)), default=0)
    return out


def oracle_prime_dims(primes):
    out = {}
    for p in sorted(primes, key=len, reverse=True):  # supersets come first
        out[p] = max((out[q] + 1 for q in primes if _below(p, q)), default=0)
    return out


def oracle_covers(primes):
    out = []
    for p, q in itertools.permutations(primes, 2):
        if _below(p, q) and not any(_below(p, m) and _below(m, q) for m in primes):
            out.append((p, q))
    return out


def oracle_minimal(primes):
    return [p for p in primes if not any(_below(q, p) for q in primes)]


# The per-subset scan and the longest-chain DP that the family kernel in
# binoidal.spectrum replaced: one admissibility test and one byte per subset.


def oracle_scan(p):
    """Masks of the admissible subsets, by cardinality then lexicographic."""
    compiled = [
        (word_mask(rel.lhs), None if rel.is_monomial else word_mask(rel.rhs))
        for rel in p.relations
    ]
    out = []
    for size in range(p.rank + 1):
        for gens in itertools.combinations(range(p.rank), size):
            mask = sum(1 << i for i in gens)
            if all(
                lhs & mask if rhs is None else bool(lhs & mask) == bool(rhs & mask)
                for lhs, rhs in compiled
            ):
                out.append(mask)
    return out


def oracle_longest_chains(masks, r):
    """Entry s: the most members of the family in one chain of subsets of s.

    A sum-over-subsets DP: subsets precede s in ascending order, and the
    longest chain inside s either ends at s or lies inside some s minus one
    bit.
    """
    table = bytearray(1 << r)
    for m in masks:
        table[m] = 1
    for s in range(1, 1 << r):
        table[s] += max((table[s ^ low] for low in bits(s)), default=0)
    return table


def minimal_transversals(sets):
    """Inclusion-minimal hitting sets of the given set family.

    Branch and bound on the first unhit set; supersets of found transversals
    are pruned by a final minimality filter.
    """
    if any(not s for s in sets):
        return []  # an empty member can never be hit
    found = []

    def search(partial, todo):
        if any(t <= partial for t in found):
            return
        unhit = [s for s in todo if not (s & partial)]
        if not unhit:
            found.append(partial)
            return
        for x in sorted(unhit[0]):
            search(partial | {x}, unhit[1:])

    search(frozenset(), list(sets))
    distinct = set(found)
    return sorted(
        (t for t in distinct if not any(u < t for u in distinct)),
        key=sorted,
    )


def oracle_reduced(p):
    """Every minimal transversal of the minimal primes is absorbing."""
    masks = oracle_scan(p)
    if not masks:
        return False  # the zero binoid
    rs = rewrite.completion(p)
    minimal = [m for m in masks if not any(o & m == o != m for o in masks)]
    for t in minimal_transversals([frozenset(indices(m)) for m in minimal]):
        w = Word.zero()
        for i in sorted(t):
            w = w + Word.generator(i)
        if not rs.normal_form(w).is_inf:
            return False
    return True


def oracle_recognize(p):
    """Semifree by the rules, reduced by ``oracle_reduced``, faces by a
    loop over all subsets of the live generators."""
    rs = rewrite.completion(p)
    if not rs.is_monomial_only():
        return None, simplicial.NOT_SEMIFREE
    if not oracle_reduced(p):
        return None, simplicial.NOT_REDUCED
    live = indices(((1 << p.rank) - 1) ^ mask_of(rs.absorbed_generators()))
    killers = [word_mask(rule.lhs) for rule in rs.rules]
    faces = {
        c for c in submasks(mask_of(live)) if not any(k & c == k for k in killers)
    }
    maximal = [
        f for f in faces if not any(f | 1 << i in faces for i in live if not f >> i & 1)
    ]
    return simplicial.from_facets(
        [p.generators[i] for i in live],
        [[p.generators[i] for i in indices(f)] for f in maximal],
    ), None


def oracle_booleanize(p):
    """Basic open sets by closing the generator D-sets under intersection,
    each as a tuple of primes in spectrum order, ordered by size then by
    their primes."""
    primes = oracle_spectrum(p)
    basic = [frozenset(q for q in primes if i not in q) for i in range(p.rank)]
    elements = {frozenset(primes)}
    worklist = [frozenset(primes)]
    while worklist:
        e = worklist.pop()
        for b in basic:
            c = e & b
            if c not in elements:
                elements.add(c)
                worklist.append(c)
    elements.add(frozenset())
    key = {q: (len(q), q) for q in primes}
    listed = [sorted(e, key=key.__getitem__) for e in elements]
    return sorted(listed, key=lambda e: (len(e), [key[q] for q in e]))


def oracle_minimal_nonfaces(delta):
    """Ascending by size; supersets of found nonfaces are skipped."""
    n = len(delta.vertices)
    found = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            c = frozenset(combo)
            if any(f <= c for f in found):
                continue
            if not any(c <= f for f in delta.facets):
                found.append(c)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


# Reference word-problem loops: the one-rule-per-step reducer, the
# reduce-every-word enumeration and the Word-based witness and weight-level
# Hilbert-Samuel loops that binoidal.rewrite and binoidal.grading replaced.


def oracle_reduce(rules, v):
    """Apply the first matching rule once, then rescan from the first rule."""
    if v is None:
        return None
    changed = True
    while changed:
        changed = False
        for l, r in rules:
            if all(a <= b for a, b in zip(l, v)):
                if r is None:
                    return None
                v = tuple(x - a + b for x, a, b in zip(v, l, r))
                changed = True
                break
    return v


def oracle_normal_forms(rs, degree_bound):
    """The distinct finite normal forms of all words of degree <= bound,
    sorted ascending in grlex."""
    seen = {rs._reduce(v) for v in rewrite.iter_words(rs.rank, degree_bound)}
    seen.discard(None)
    return sorted(seen, key=lambda v: (sum(v), v))


def weighted_level(weights, grade):
    """All exponent vectors v with sum(weights[i] * v[i]) == grade."""
    r = len(weights)

    def rec(i, remaining):
        if i == r:
            if remaining == 0:
                yield ()
            return
        w = weights[i]
        for e in range(remaining // w + 1):
            for rest in rec(i + 1, remaining - e * w):
                yield (e,) + rest

    return rec(0, grade)


def _oracle_nonunit_words(p, unit_gens, degree):
    for v in sorted(rewrite._words_of_degree(p.rank, degree)):
        w = Word.from_dense(v)
        if w.support() and not (w.support() <= unit_gens):
            yield w


def oracle_witness_pairs(p, degree_budget):
    """Every normal form f of degree <= budget with its first nonunit g,
    f = f + g, searched by (deg f, deg g, term order) as Words; None for the
    zero binoid."""
    rs = rewrite.complete(p)
    s = spectrum.compute_spectrum(p)
    if s.is_empty:
        return None
    unit_gens = frozenset(range(p.rank)) - frozenset(s.max_ideal.gens)
    pairs = []
    for f in map(Word.from_dense, oracle_normal_forms(rs, degree_budget)):
        nf = rs.normal_form(f)
        for dg in range(1, degree_budget + 1):
            g = next(
                (
                    g
                    for g in _oracle_nonunit_words(p, unit_gens, dg)
                    if rs.normal_form(f + g) == nf
                ),
                None,
            )
            if g is not None:
                pairs.append((f, g))
                break
    return pairs


def oracle_sepdim(p, degree_budget):
    pairs = oracle_witness_pairs(p, degree_budget)
    if pairs is None:
        raise ZeroBinoid("the zero binoid has no separated dimension")
    witnesses = [f for f, _ in pairs]
    s = spectrum.compute_spectrum(p)
    over = [q for q in s.primes if all(q.contains_word(w) for w in witnesses)]
    value = max(spectrum.Spectrum(p, tuple(over)).heights().values()) if over else -1
    quotient = rees_quotient(p, witnesses)
    verdict = grading.is_separated(quotient, degree_budget).verdict
    return value, verdict == grading.SEPARATED


def oracle_order_delta(p, weights, w, rs):
    """Largest degree of a word in the weight level of w that equals w."""
    if spectrum.predicates(p).units:
        raise NotPositive("order function requires a positive binoid")
    rewrite._validate_grading(p, weights)
    if rs.normal_form(w).is_inf:
        raise IsInfinity("the absorbing class has no order")
    grade = sum(weights[i] * e for i, e in w.exps)
    best = 0
    for v in weighted_level(weights, grade):
        if rs.equal(Word.from_dense(v), w):
            best = max(best, sum(v))
    return best


def oracle_hilbert_samuel(p, n):
    """Count the elements of degree < n whose order is < n, one order each."""
    rs = rewrite.complete(p)
    if spectrum.predicates(p).units:
        raise NotPositive("Hilbert-Samuel values require a positive binoid")
    found = grading.find_positive_grading(p)
    if found is None:
        raise NoPositiveGrading("no positive grading")
    return sum(
        oracle_order_delta(p, found.weights, Word.from_dense(v), rs) < n
        for v in oracle_normal_forms(rs, n - 1)
    )


# The rational simplex that grading._simplex_max replaced: the same tableau
# and pivot rule on Fraction entries.


def oracle_simplex_max(
    a: list[list[Fraction]], b: list[Fraction], c: list[Fraction]
) -> Optional[list[Fraction]]:
    """Maximize c.x subject to a.x == b, x >= 0; None when infeasible.

    Two-phase tableau simplex with Bland's rule.  The problem instances here
    are always bounded (the objective is capped by a convexity row), so an
    unbounded pivot search is treated as an error.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    # phase 1: artificial variables
    tab = [row[:] + [Fraction(1 if j == i else 0) for j in range(m)] + [b[i]]
           for i, row in enumerate(a)]
    basis = [n + i for i in range(m)]
    cost = [Fraction(0)] * (n + m + 1)
    for j in range(n):
        cost[j] = sum(tab[i][j] for i in range(m))
    cost[-1] = sum(b)

    def cleared(row: list, i: int) -> list:
        """``row`` minus the multiple of ``tab[i]`` that zeroes its column ``basis[i]``."""
        f = row[basis[i]]
        return [x - f * y for x, y in zip(row, tab[i])] if f else row

    def pivot_on(row: int, enter: int) -> None:
        piv = tab[row][enter]
        tab[row] = [x / piv for x in tab[row]]
        basis[row] = enter
        for i in range(m):
            if i != row:
                tab[i] = cleared(tab[i], row)

    def pivot(col_limit: int) -> bool:
        nonlocal cost
        enter = next((j for j in range(col_limit) if cost[j] > 0), None)
        if enter is None:
            return False
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            raise ArithmeticError("unbounded simplex problem")
        pivot_on(best[1], enter)
        cost = cleared(cost, best[1])
        return True

    while pivot(n + m):
        pass
    if cost[-1] != 0:
        return None  # artificial cost not driven to zero: infeasible
    # drive remaining artificial variables out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if tab[i][j] != 0), None)
            if enter is not None:  # else a redundant row
                pivot_on(i, enter)
    # phase 2
    cost = [Fraction(x) for x in c] + [Fraction(0)] * m + [Fraction(0)]
    for i in range(m):
        cost = cleared(cost, i)
    while pivot(n):
        pass
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    return x
