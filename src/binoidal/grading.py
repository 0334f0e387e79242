"""Positive gradings and separatedness.

A positive grading assigns a weight >= 1 to every generator so that both
sides of each non-absorbing binomial relation get the same weight.  Its
existence is decided exactly: the weight cone is probed with a two-phase
simplex on an integer tableau (Bland's rule, fraction-free pivoting, no
floating point), and a strictly positive solution is scaled to coprime
integers.  The result is memoized on the presentation, so each presentation
solves one LP.

Separatedness: a positive grading certifies a separated binoid, and the
witness search is skipped where one exists; for a positive integral
presentation the converse holds as well, so absence of a grading is
conclusive there and a witness pair f = f + g with g a nonunit is produced.
Outside that regime a found witness still certifies non-separatedness,
while exhausting the search budget yields Unknown.  The regime is read from
``presentation.units`` and ``spectrum.is_integral``, without the spectrum
scan; the witness search, exponential in the rank too, refuses the ranks
past ``spectrum.GENERATOR_CAP`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Optional

from . import rewrite, spectrum
from .bitmask import indices
from .errors import ZeroBinoid
from .presentation import Presentation, rees_quotient, units
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
    a: list[list[int]], b: list[int], c: list[int]
) -> Optional[list[Fraction]]:
    """Maximize c.x subject to a.x == b, x >= 0; None when infeasible.

    Two-phase tableau simplex with Bland's rule, on integer rows.  Row i
    stands for the rational row divided by its entry in column ``basis[i]``,
    which stays positive, and the cost row for a positive multiple of the
    rational one.  So every sign test reads the integer entries, the ratio
    test compares by cross-multiplication, and the pivots and the solution
    are those of the rational tableau.  The problem instances here are
    always bounded (the objective is capped by a convexity row), so an
    unbounded pivot search is treated as an error.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    # phase 1: artificial variables
    tab = [row[:] + [int(j == i) for j in range(m)] + [b[i]] for i, row in enumerate(a)]
    basis = [n + i for i in range(m)]
    cost = [sum(row[j] for row in tab) for j in range(n)] + [0] * m + [sum(b)]

    def cleared(row: list[int], i: int) -> list[int]:
        """A positive multiple of ``row`` minus one of ``tab[i]``, zero in column
        ``basis[i]``, divided by the gcd of its entries."""
        f = row[basis[i]]
        if not f:
            return row
        d = tab[i][basis[i]]
        out = [d * x - f * y for x, y in zip(row, tab[i])]
        g = gcd(*out)
        return [x // g for x in out] if g > 1 else out

    def pivot_on(row: int, enter: int) -> None:
        if tab[row][enter] < 0:
            tab[row] = [-x for x in tab[row]]
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
                if best is None:
                    best = i
                    continue
                # tab[i][-1] / tab[i][enter] against the same ratio of row best
                lhs = tab[i][-1] * tab[best][enter]
                rhs = tab[best][-1] * tab[i][enter]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best = i
        if best is None:
            raise ArithmeticError("unbounded simplex problem")
        pivot_on(best, enter)
        cost = cleared(cost, best)
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
    cost = list(c) + [0] * (m + 1)
    for i in range(m):
        cost = cleared(cost, i)
    while pivot(n):
        pass
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][-1], tab[i][basis[i]])
    return x


def find_positive_grading(p: Presentation) -> Optional[GradingVector]:
    """Coprime integer weights >= 1 respecting all live binomial relations.

    Relations whose sides are congruent to the absorbing element impose no
    constraint, exactly like monomial relations, so they are filtered out
    through the rewrite system first.  The weights, or None, are memoized on
    ``p``.
    """
    if "grading" not in p._memo:
        p._memo["grading"] = _grading_weights(p)
    weights = p._memo["grading"]
    return None if weights is None else GradingVector(weights)


def _grading_weights(p: Presentation) -> Optional[tuple[int, ...]]:
    r = p.rank
    if r == 0:
        return ()
    rows = []
    for rel in rewrite.completion(p).live_binomials():
        row = [0] * r
        for i, e in rel.lhs.exps:
            row[i] += e
        for i, e in rel.rhs.exps:
            row[i] -= e
        if any(row):
            rows.append(row)
    # variables: w_1..w_r, slack s_1..s_r, and t = t_plus - t_minus
    n = 2 * r + 2
    a = [row + [0] * (r + 2) for row in rows]
    for i in range(r):
        cons = [0] * n
        cons[i] = 1
        cons[r + i] = -1
        cons[2 * r] = -1
        cons[2 * r + 1] = 1
        a.append(cons)
    a.append([1] * r + [0] * (r + 2))
    b = [0] * (len(a) - 1) + [1]
    c = [0] * (2 * r) + [1, -1]
    x = _simplex_max(a, b, c)
    if x is None or x[2 * r] - x[2 * r + 1] <= 0:
        return None
    w = x[:r]
    scale = lcm(*(f.denominator for f in w))
    ints = [f.numerator * (scale // f.denominator) for f in w]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def _witness_scan(
    p: Presentation, degree_budget: int, first_only: bool
) -> Optional[list[tuple[rewrite.Vec, rewrite.Vec]]]:
    """Pairs (f, g) with f = f + g, f a finite normal form, g a nonunit.

    f runs over the normal forms of degree <= budget in term order, and g
    over the words of degree 1..budget that involve a generator of the
    maximal ideal, lexicographically within each degree; each f contributes
    its first g.  With first_only the scan stops at the first pair.  None
    for the zero binoid, which has no maximal ideal.  The scan is exponential
    in the rank, so it refuses the ranks the spectrum scan refuses.
    """
    rs = rewrite.completion(p)
    unit_mask = units(p)
    if unit_mask is None:
        return None
    if find_positive_grading(p) is not None:
        # f + g = f with f finite is derived through finite words only, so by
        # live binomials, which keep the degree: deg g = 0, so g is no nonunit
        return []
    spectrum.check_scan_cap(p.rank)
    nonunit = indices(((1 << p.rank) - 1) ^ unit_mask)
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
    applicable = units(p) == 0 and spectrum.is_integral(p)
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
    quotient = rees_quotient(p, witnesses) if witnesses else p
    certified = is_separated(quotient, degree_budget).verdict == SEPARATED
    return value, certified
