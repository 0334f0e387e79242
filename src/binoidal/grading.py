"""Positive gradings and separatedness.

A positive grading assigns a weight >= 1 to every generator so that both
sides of each non-absorbing binomial relation get the same weight.  Its
existence is decided exactly: the weight cone is probed with a two-phase
rational simplex (Bland's rule, no floating point), and a strictly positive
solution is scaled to coprime integers.

Separatedness: a positive grading certifies a separated binoid; for a
positive integral presentation the converse holds as well, so absence of a
grading is conclusive there and a witness pair f = f + g with g a nonunit
is produced.  Outside that regime a found witness still certifies
non-separatedness, while exhausting the search budget yields Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add
from typing import Optional

from . import rewrite, spectrum
from .errors import ZeroBinoid
from .presentation import Presentation, rees_quotient
from .words import Word

SEPARATED = "Separated"
NOT_SEPARATED = "NotSeparated"
UNKNOWN = "Unknown"

DEFAULT_WITNESS_BUDGET = 6


@dataclass(frozen=True)
class GradingVector:
    weights: tuple[int, ...]


@dataclass(frozen=True)
class SeparationReport:
    verdict: str
    witness: Optional[tuple[Word, Word]]
    grading: Optional[GradingVector]
    applicable_theorem: bool


def _simplex_max(
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


def find_positive_grading(p: Presentation) -> Optional[GradingVector]:
    """Coprime integer weights >= 1 respecting all live binomial relations.

    Relations whose sides are congruent to the absorbing element impose no
    constraint, exactly like monomial relations, so they are filtered out
    through the rewrite system first.
    """
    r = p.rank
    if r == 0:
        return GradingVector(())
    rows = []
    for rel in rewrite.completion(p).live_binomials():
        row = [Fraction(0)] * r
        for i, e in rel.lhs.exps:
            row[i] += e
        for i, e in rel.rhs.exps:
            row[i] -= e
        if any(row):
            rows.append(row)
    # variables: w_1..w_r, slack s_1..s_r, and t = t_plus - t_minus
    n = 2 * r + 2
    a: list[list[Fraction]] = []
    b: list[Fraction] = []
    for row in rows:
        a.append(row + [Fraction(0)] * (r + 2))
        b.append(Fraction(0))
    for i in range(r):
        cons = [Fraction(0)] * n
        cons[i] = Fraction(1)
        cons[r + i] = Fraction(-1)
        cons[2 * r] = Fraction(-1)
        cons[2 * r + 1] = Fraction(1)
        a.append(cons)
        b.append(Fraction(0))
    a.append([Fraction(1)] * r + [Fraction(0)] * (r + 2))
    b.append(Fraction(1))
    c = [Fraction(0)] * (2 * r) + [Fraction(1), Fraction(-1)]
    x = _simplex_max(a, b, c)
    if x is None:
        return None
    t = x[2 * r] - x[2 * r + 1]
    if t <= 0:
        return None
    w = x[:r]
    scale = 1
    for f in w:
        scale = scale * f.denominator // gcd(scale, f.denominator)
    ints = [int(f * scale) for f in w]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return GradingVector(tuple(v // g for v in ints))


def _witness_scan(
    p: Presentation, degree_budget: int, first_only: bool
) -> Optional[list[tuple[rewrite.Vec, rewrite.Vec]]]:
    """Pairs (f, g) with f = f + g, f a finite normal form, g a nonunit.

    f runs over the normal forms of degree <= budget in term order, and g
    over the words of degree 1..budget that involve a generator of the
    maximal ideal, lexicographically within each degree; each f contributes
    its first g.  With first_only the scan stops at the first pair.  None
    for the zero binoid, which has no maximal ideal.
    """
    rs = rewrite.completion(p)
    s = spectrum.spectrum_of(p)
    if s.is_empty:
        return None
    nonunit = s.max_ideal.gens
    gs = [
        v
        for d in range(1, degree_budget + 1)
        for v in sorted(rewrite._words_of_degree(p.rank, d))
        if any(v[i] for i in nonunit)
    ]
    pairs = []
    for f in rewrite._normal_forms(rs, degree_budget):
        g = next((g for g in gs if rs._reduce(tuple(map(add, f, g))) == f), None)
        if g is not None:
            pairs.append((f, g))
            if first_only:
                break
    return pairs


def find_unseparated(
    p: Presentation, degree_budget: int = DEFAULT_WITNESS_BUDGET
) -> Optional[tuple[Word, Word]]:
    """First pair (f, g) with f = f + g, f not absorbing, g a nonunit.

    Search order is lexicographic on (deg f, deg g, term order), so the
    returned witness is reproducible.
    """
    pairs = _witness_scan(p, degree_budget, first_only=True)
    if not pairs:
        return None
    f, g = pairs[0]
    return Word.from_dense(f), Word.from_dense(g)


def is_separated(
    p: Presentation, degree_budget: int = DEFAULT_WITNESS_BUDGET
) -> SeparationReport:
    rewrite.completion(p)  # before the spectrum, so its errors come first
    preds = spectrum.predicates(p)
    applicable = preds.positive and preds.integral
    grading = find_positive_grading(p)
    if grading is not None:
        return SeparationReport(SEPARATED, None, grading, applicable)
    if applicable:
        budget = max(degree_budget, 1)
        while budget <= 4096:  # the witness exists; widen until it appears
            witness = find_unseparated(p, budget)
            if witness is not None:
                return SeparationReport(NOT_SEPARATED, witness, None, applicable)
            budget *= 2
        raise RuntimeError(
            "ungradable positive integral binoid without a reachable witness"
        )
    witness = find_unseparated(p, degree_budget)
    if witness is not None:
        return SeparationReport(NOT_SEPARATED, witness, None, applicable)
    return SeparationReport(UNKNOWN, None, None, applicable)


def sepdim(
    p: Presentation, degree_budget: int = DEFAULT_WITNESS_BUDGET
) -> tuple[int, bool]:
    """Dimension of the quotient by the found unseparated classes.

    The value is exact when the quotient is certifiably separated (then the
    collected witnesses generate at least the separating ideal); otherwise
    it is an upper bound for the true separated dimension.
    """
    pairs = _witness_scan(p, degree_budget, first_only=False)
    if pairs is None:
        raise ZeroBinoid("the zero binoid has no separated dimension")
    witnesses = [Word.from_dense(f) for f, _ in pairs]
    over = spectrum.v_set(p, witnesses)
    sub = spectrum.Spectrum(p, tuple(over))
    value = max(sub.heights().values()) if over else -1
    quotient = rees_quotient(p, witnesses)
    certified = is_separated(quotient, degree_budget).verdict == SEPARATED
    return value, certified
