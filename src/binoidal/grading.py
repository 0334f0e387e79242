"""Positive gradings, separatedness and the separated dimension.

A positive grading assigns a weight >= 1 to every generator so that both
sides of each non-absorbing binomial relation get the same weight.  One
helper decides whether weights >= 1 kill a set of integer rows: a two-phase
simplex on an integer tableau (Bland's rule, fraction-free pivoting, no
floating point), with a strictly positive solution scaled to coprime
integers.  On all live binomials it gives the grading, memoized on the
presentation, so each presentation solves one LP for it.

Separatedness: a positive grading certifies a separated binoid.  Without
one, the witness search at the degree budget looks for f = f + g with g a
nonunit; it is exponential in the rank and refuses ranks past
``spectrum.GENERATOR_CAP``.  On integral input (``spectrum.is_integral``,
no scan) one more LP decides the rest by Stiemke's alternative: either
weights >= 0, positive on the nonunits, kill the live binomials, so the
binoid is separated, or a certificate yields a witness; the search is
skipped past the cap there.  Other input without a witness is Unknown.

The separated dimension is exact and needs no witness: the same helper runs
once per cell of ``spectrum._cells``, the primes whose faces hold the same
live binomials, on the nonunit columns of those binomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Optional

from . import rewrite, spectrum
from .bitmask import indices
from .errors import ZeroBinoid
from .presentation import Presentation, Relation, units
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
        rows = [_difference(rel, p.rank) for rel in rewrite.completion(p).live_binomials()]
        p._memo["grading"] = _positive_kernel(rows, p.rank)
    weights = p._memo["grading"]
    return None if weights is None else GradingVector(weights)


def _difference(rel: Relation, r: int) -> list[int]:
    """The exponents of lhs - rhs of a binomial relation."""
    return list(map(sub, rel.lhs.dense(r), rel.rhs.dense(r)))


def _positive_kernel(rows: list[list[int]], n: int) -> Optional[tuple[int, ...]]:
    """Coprime integer w with every w_i >= 1 and rows . w = 0; None if none.

    One LP: maximize t subject to rows . w = 0, w_i >= t, sum(w) = 1.
    """
    if n == 0:
        return ()
    rows = [row for row in rows if any(row)]
    # variables: w_1..w_n, slack s_1..s_n, and t = t_plus - t_minus
    a = [row + [0] * (n + 2) for row in rows]
    for i in range(n):  # w_i - s_i - t = 0
        cons = [0] * (2 * n + 2)
        cons[i], cons[n + i], cons[2 * n], cons[2 * n + 1] = 1, -1, -1, 1
        a.append(cons)
    a.append([1] * n + [0] * (n + 2))
    b = [0] * (len(a) - 1) + [1]
    c = [0] * (2 * n) + [1, -1]
    x = _simplex_max(a, b, c)
    if x is None or x[2 * n] - x[2 * n + 1] <= 0:
        return None
    return tuple(_coprime(x[:n]))


def _coprime(v: list[Fraction]) -> list[int]:
    """The positive multiple of a nonzero rational vector with coprime integers."""
    scale = lcm(*(f.denominator for f in v))
    ints = [f.numerator * (scale // f.denominator) for f in v]
    g = gcd(*ints)
    return [x // g for x in ints]


def find_unseparated(
    p: Presentation, degree_budget: int = DEFAULT_WITNESS_BUDGET
) -> Optional[tuple[Word, Word]]:
    """First pair (f, g) with f = f + g, f a finite normal form, g a nonunit.

    f runs over the normal forms of degree <= budget in term order, and g
    over the words of degree 1..budget that involve a generator of the
    maximal ideal, lexicographically within each degree, so the returned
    witness is reproducible.  None for the zero binoid, which has no maximal
    ideal.  The scan is exponential in the rank, so it refuses the ranks the
    spectrum scan refuses.
    """
    rs = rewrite.completion(p)
    unit_mask = units(p)
    # with a grading, f + g = f with f finite is derived through finite words
    # only, so by live binomials, which keep the degree: deg g = 0, so g is
    # no nonunit
    if unit_mask is None or find_positive_grading(p) is not None:
        return None
    spectrum.check_scan_cap(p.rank)
    nonunit = indices(((1 << p.rank) - 1) ^ unit_mask)
    gs = [
        v
        for d in range(1, degree_budget + 1)
        for v in sorted(rewrite._words_of_degree(p.rank, d))
        if any(v[i] for i in nonunit)
    ]
    for f in rewrite._normal_forms(rs, degree_budget):
        for g in gs:
            if rs._reduce(tuple(map(add, f, g))) == f:
                return Word.from_dense(f), Word.from_dense(g)
    return None


def _certificate(rows: list[list[int]], n: int, nonunit: int) -> Optional[list[int]]:
    """Coprime integer y with y . rows >= 0 in each of the n columns and
    nonzero in a column of the mask ``nonunit``; None if none exists.

    By Stiemke's alternative, y exists exactly when no w >= 0, positive on
    the nonunit columns, kills the rows.  One LP: y = y+ - y- and slacks
    s >= 0 with rows^T y = s, summing to 1 on the nonunit columns.
    """
    m = len(rows)
    a = [[row[j] for row in rows] + [-row[j] for row in rows]
         + [-int(i == j) for i in range(n)] for j in range(n)]
    a.append([0] * (2 * m) + [nonunit >> i & 1 for i in range(n)])
    x = _simplex_max(a, [0] * n + [1], [0] * (2 * m + n))
    return None if x is None else _coprime(list(map(sub, x[:m], x[m:2 * m])))


def _certified_witness(p: Presentation) -> Optional[tuple[Word, Word]]:
    """(NF(f), g) with f = f + g and g a nonunit, from a certificate y on the
    live binomials of an integral presentation; None if there is none.

    Relation k enters f with |y_k| times the side that y_k subtracts, so
    f + g = f for g = y . rows, and f is finite as the binoid is integral.
    """
    rs = rewrite.completion(p)
    live = rs.live_binomials()
    rows = [_difference(rel, p.rank) for rel in live]
    y = _certificate(rows, p.rank, ((1 << p.rank) - 1) ^ units(p))
    if y is None:
        return None
    sides = [(rel.rhs if yk > 0 else rel.lhs).dense(p.rank) for yk, rel in zip(y, live)]
    f = tuple(sum(map(mul, map(abs, y), col)) for col in zip(*sides))
    g = tuple(sum(map(mul, y, col)) for col in zip(*rows))
    return Word.from_dense(rs._reduce(f)), Word.from_dense(g)


def is_separated(
    p: Presentation, degree_budget: int = DEFAULT_WITNESS_BUDGET
) -> SeparationReport:
    """A grading, else the scan's witness at the budget, else on integral
    input the certificate's verdict, else Unknown."""
    grading = find_positive_grading(p)
    if grading is not None:
        return SeparationReport(SEPARATED, None, grading)
    integral = spectrum.is_integral(p)
    witness = None
    if not integral or p.rank <= spectrum.GENERATOR_CAP:
        witness = find_unseparated(p, degree_budget)
    if witness is None and integral:
        witness = _certified_witness(p)
    if witness is not None:
        return SeparationReport(NOT_SEPARATED, witness, None)
    return SeparationReport(SEPARATED if integral else UNKNOWN, None, None)


def sepdim(p: Presentation) -> tuple[int, bool]:
    """Dimension of V of the separating ideal, the intersection of all nM+.

    A face, the complement of a prime, is unseparated when the lattice of
    lhs - rhs of the relations inside it holds some g >= 0 that is a
    nonunit; then g fixes every deep enough word on the face.  By Stiemke's
    alternative that is when no weights >= 1 on the face's nonunit columns
    kill those rows, one LP per cell of primes with the same inner relations.
    Unseparated faces form an up-set, so V is the union of the cells that
    pass; the value, its longest chain, is exact, so the flag is always True.
    With a positive grading no face is unseparated: the value is ``dim``.
    """
    unit_mask = units(p)
    if unit_mask is None:
        raise ZeroBinoid("the zero binoid has no separated dimension")
    if find_positive_grading(p) is not None:
        return spectrum.dim(p), True
    nonunit = indices(((1 << p.rank) - 1) ^ unit_mask)
    live = rewrite.completion(p).live_binomials()
    rows = [_difference(rel, p.rank) for rel in live]
    kept = 0
    for inner, family in spectrum._cells(p, live):
        face = [rows[k] for k in inner]
        cols = [i for i in nonunit if any(row[i] for row in face)]
        sub = [[row[i] for i in cols] for row in face]
        if _positive_kernel(sub, len(cols)) is not None:
            kept |= family
    return spectrum._longest_chain(kept, p.rank), True
