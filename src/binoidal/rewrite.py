"""Completion-based word problem solver for presented binoids.

Relations are oriented into rewrite rules on exponent vectors and completed
by a Buchberger-style critical-pair loop.  Because every relation is either
a pure difference of monomials or a monomial-equals-absorbing rule, no
coefficient bookkeeping is needed and the result is independent of any base
ring.  Termination of the loop is guaranteed by Dickson's lemma; a safety
budget turns pathological blowup into a hard error instead of a wrong
answer.

Completion takes one of two term orders: graded lexicographic, generators
ranked by declaration order, for the word problem; and, for positive weights
w, the order of (sum w_i v_i, -sum v_i, v), whose normal form of a finite
class in one weight level is its word of largest degree.  The absorbing word
is strictly minimal in both.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from operator import le, mul, sub
from typing import Iterator, Optional, Sequence

from .errors import (
    BudgetExceeded,
    InvalidGrading,
    IsInfinity,
    NoPositiveGrading,
    NotPositive,
)
from .presentation import Presentation, Relation, units
from .words import Word

INF = None  # internal marker for an absorbing right-hand side

Vec = tuple[int, ...]

DEFAULT_BUDGET = 100_000

# hilbert refuses n once the words of degree < n outnumber this
HILBERT_WORD_CAP = 10_000_000


def _key(v: Vec) -> tuple[int, Vec]:
    return (sum(v), v)


def _divides(a: Vec, b: Vec) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def _add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def _lcm(a: Vec, b: Vec) -> Vec:
    return tuple(max(x, y) for x, y in zip(a, b))


def _reduce_by(
    rules: Sequence[tuple[Vec, Optional[Vec]]], v: Optional[Vec]
) -> Optional[Vec]:
    """Reduce v by the first matching rule, repeatedly, until none matches.

    A matching rule l -> r is applied k times in one step, where k is the
    number of times it keeps matching along v + t(r - l).  k is capped at
    the first t >= 1 where an earlier rule starts to match, so the result
    and every intermediate vector are those of applying one rule per step.
    That matters inside completion, whose intermediate rule lists are not
    confluent.  The number of steps does not grow with the exponents.
    """
    if v is INF:
        return INF
    while True:
        for j, (l, r) in enumerate(rules):
            if all(map(le, l, v)):
                break
        else:
            return v
        if r is INF:
            return INF
        d = tuple(map(sub, r, l))
        # l > r in an order with positive weights, where r >= l componentwise
        # forces r = l; so some coordinate drops, and k is finite
        k = min((x - a) // -s for x, a, s in zip(v, l, d) if s < 0) + 1
        if k > 1:
            for e, _ in rules[:j]:
                # e <= v + t*d holds for t in [lo, hi]; cap k at lo
                lo, hi = 1, k - 1
                for x, a, s in zip(v, e, d):
                    if s > 0:
                        lo = max(lo, -((x - a) // s))
                    elif s < 0:
                        hi = min(hi, (x - a) // -s)
                    elif x < a:
                        hi = 0
                    if lo > hi:
                        break
                else:
                    k = lo
        v = tuple(x + k * s for x, s in zip(v, d))


@dataclass(frozen=True)
class RewriteRule:
    lhs: Word
    rhs: Word

    def pretty(self, names) -> str:
        return f"{self.lhs.pretty(names)} -> {self.rhs.pretty(names)}"


@dataclass(frozen=True)
class RewriteSystem:
    source: Presentation
    _rules: tuple[tuple[Vec, Optional[Vec]], ...] = field(repr=False)

    @property
    def rules(self) -> list[RewriteRule]:
        out = []
        for l, r in self._rules:
            rhs = Word.inf() if r is INF else Word.from_dense(r)
            out.append(RewriteRule(Word.from_dense(l), rhs))
        return out

    @property
    def rank(self) -> int:
        return self.source.rank

    def _reduce(self, v: Optional[Vec]) -> Optional[Vec]:
        return _reduce_by(self._rules, v)

    def normal_form(self, w: Word) -> Word:
        if w.is_inf:
            return Word.inf()
        v = self._reduce(w.dense(self.rank))
        return Word.inf() if v is INF else Word.from_dense(v)

    def equal(self, u: Word, v: Word) -> bool:
        return self.normal_form(u) == self.normal_form(v)

    def absorbed_generators(self) -> tuple[int, ...]:
        """Indices of the generators whose normal form is the absorbing word."""
        return tuple(
            i for i in range(self.rank) if self.normal_form(Word.generator(i)).is_inf
        )

    def live_binomials(self) -> list[Relation]:
        """Binomial relations of the source whose sides are not absorbing."""
        return [
            rel
            for rel in self.source.binomial_relations()
            if not self.normal_form(rel.lhs).is_inf
        ]

    def is_monomial_only(self) -> bool:
        """No rule has a finite right-hand side.

        Equivalent to: distinct finite normal forms represent distinct
        elements, so the presented binoid is semifree on its generators.
        """
        return all(r is INF for _, r in self._rules)

    def critical_pairs_join(self) -> bool:
        """Confluence check: every critical pair reduces to one normal form."""
        for (l1, r1), (l2, r2) in itertools.combinations(self._rules, 2):
            m = _lcm(l1, l2)
            s1 = INF if r1 is INF else _add(_sub(m, l1), r1)
            s2 = INF if r2 is INF else _add(_sub(m, l2), r2)
            if self._reduce(s1) != self._reduce(s2):
                return False
        return True


def _orient(a: Optional[Vec], b: Optional[Vec], key=_key) -> tuple[Vec, Optional[Vec]]:
    if a is INF:
        a, b = b, a
    if b is INF:
        return a, INF
    return (a, b) if key(a) > key(b) else (b, a)


def complete(
    p: Presentation, budget: int = DEFAULT_BUDGET, weights: Optional[Vec] = None
) -> RewriteSystem:
    """Complete the relations into a confluent system, under grlex or else
    under the weighted order of the given positive weights."""
    key = _key if weights is None else lambda v: (sum(map(mul, weights, v)), -sum(v), v)
    r = p.rank
    pending: deque[tuple[Optional[Vec], Optional[Vec]]] = deque()
    for rel in p.relations:
        rhs = INF if rel.rhs.is_inf else rel.rhs.dense(r)
        pending.append((rel.lhs.dense(r), rhs))

    rules: list[tuple[Vec, Optional[Vec]]] = []

    processed = 0
    while pending:
        a, b = pending.popleft()
        processed += 1
        if processed > budget:
            raise BudgetExceeded(
                f"completion exceeded the budget of {budget} rule candidates"
            )
        a = _reduce_by(rules, a)
        b = _reduce_by(rules, b)
        if a == b:
            continue
        lhs, rhs = _orient(a, b, key)
        keep: list[tuple[Vec, Optional[Vec]]] = []
        for l, rr in rules:
            if _divides(lhs, l) or (rr is not INF and _divides(lhs, rr)):
                pending.append((l, rr))
            else:
                keep.append((l, rr))
        for l, rr in keep:
            if rr is INF and rhs is INF:
                continue  # both reduce the overlap to the absorbing word
            m = _lcm(lhs, l)
            if m == _add(lhs, l):
                continue  # coprime leading terms join trivially
            s1 = INF if rhs is INF else _add(_sub(m, lhs), rhs)
            s2 = INF if rr is INF else _add(_sub(m, l), rr)
            pending.append((s1, s2))
        keep.append((lhs, rhs))
        rules = keep
    rules.sort(key=lambda lr: key(lr[0]))
    return RewriteSystem(source=p, _rules=tuple(rules))


def completion(p: Presentation, weights: Optional[Vec] = None) -> RewriteSystem:
    """``complete(p, weights=weights)`` at the default budget, computed once
    per presentation and term order."""
    # the memo keeps the rules, not the system: a system refers back to p,
    # and that cycle would leave p to the cyclic collector instead of
    # freeing it when the caller drops it
    memo = "completion" if weights is None else ("completion", weights)
    if memo not in p._memo:
        p._memo[memo] = complete(p, weights=weights)._rules
    return RewriteSystem(source=p, _rules=p._memo[memo])


def _words_of_degree(r: int, d: int) -> Iterator[Vec]:
    """All exponent vectors of length r with total degree exactly d."""
    if r == 0:
        if d == 0:
            yield ()
        return
    for first in range(d, -1, -1):
        for rest in _words_of_degree(r - 1, d - first):
            yield (first,) + rest


def iter_words(r: int, max_degree: int) -> Iterator[Vec]:
    for d in range(max_degree + 1):
        yield from _words_of_degree(r, d)


def _irreducible(rs: RewriteSystem, degree_bound: int) -> Iterator[Vec]:
    """The words of degree <= bound that no rule's left side divides: in a
    confluent system, the finite normal forms of degree <= bound."""
    lhs = [l for l, _ in rs._rules]
    for v in iter_words(rs.rank, degree_bound):
        if not any(all(map(le, l, v)) for l in lhs):
            yield v


def _normal_forms(rs: RewriteSystem, degree_bound: int) -> list[Vec]:
    """The elements ``enumerate_elements`` lists, as exponent vectors.

    Grlex rules never raise the degree, so these are the irreducible words.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    return sorted(_irreducible(rs, degree_bound), key=_key)


def enumerate_elements(rs: RewriteSystem, degree_bound: int) -> list[Word]:
    """Distinct finite normal forms of all words of degree <= bound.

    Sorted ascending in the term order; the absorbing class is excluded.
    """
    return [Word.from_dense(v) for v in _normal_forms(rs, degree_bound)]


def _validate_grading(p: Presentation, weights) -> None:
    if len(weights) != p.rank or any(w < 1 for w in weights):
        raise InvalidGrading("need one weight >= 1 per generator")
    for rel in completion(p).live_binomials():
        lu = sum(weights[i] * e for i, e in rel.lhs.exps)
        lv = sum(weights[i] * e for i, e in rel.rhs.exps)
        if lu != lv:
            raise InvalidGrading(
                f"weights violate the relation {rel.pretty(p.generators)}"
            )


def order_delta(p: Presentation, grading, w: Word) -> int:
    """Order of [w]: the maximal degree among all words congruent to w.

    Requires a positive presentation and a valid positive grading; then each
    congruence class away from the absorbing element sits in one finite
    weight level, so the maximum is the degree of its weighted normal form.
    """
    weights = tuple(grading.weights) if hasattr(grading, "weights") else tuple(grading)
    completion(p)  # a budget error comes before the precondition errors
    if units(p):
        raise NotPositive("order function requires a positive binoid")
    _validate_grading(p, weights)
    nf = completion(p, weights).normal_form(w)
    if nf.is_inf:
        raise IsInfinity("the absorbing class has no order")
    return nf.degree()


def hilbert_samuel(p: Presentation, n: int) -> int:
    """Number of classes of order < n, i.e. the size of M/nM+ minus one.

    Defined here only for positive presentations carrying a positive
    grading; without one the order function can be infinite and no general
    algorithm is attempted.  The classes of order < n are the weighted
    normal forms of degree < n.  Past ``HILBERT_WORD_CAP`` words of degree
    < n, raises ``BudgetExceeded``.
    """
    from .grading import find_positive_grading

    if n < 1:
        raise ValueError("n must be a positive integer")
    completion(p)  # a budget error comes before the precondition errors
    if units(p):
        raise NotPositive("Hilbert-Samuel values require a positive binoid")
    grading = find_positive_grading(p)
    if grading is None:
        raise NoPositiveGrading(
            "no positive grading; the order function may be infinite"
        )
    _validate_grading(p, grading.weights)
    words = math.comb(n - 1 + p.rank, p.rank)
    if words > HILBERT_WORD_CAP:
        raise BudgetExceeded(
            f"hilbert {n} would enumerate {words} words, past the cap of "
            f"{HILBERT_WORD_CAP}"
        )
    return sum(1 for _ in _irreducible(completion(p, grading.weights), n - 1))
