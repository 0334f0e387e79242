"""Presentations of finitely generated commutative binoids.

A presentation is an ordered list of generator names together with a list
of normalized relations between words.  The empty presentation ``free()``
denotes the two-element binoid {0, inf}; the zero binoid is only reachable
by collapsing a unit, e.g. through the relation ``0 = inf``.

Constructions (smash, product, bipointed union, Rees quotient) act purely
on presentations; their semantic correctness is pinned down by spectrum
counting identities exercised in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .bitmask import word_mask
from .errors import NotPositive, PresentationError
from .words import Word, is_identifier

MONOMIAL = "monomial"
BINOMIAL = "binomial"


@dataclass(frozen=True)
class Relation:
    """A normalized relation lhs = rhs; an absorbing side is always the rhs."""

    lhs: Word
    rhs: Word

    def __post_init__(self):
        if self.lhs.is_inf:
            raise PresentationError("relation lhs must be a finite word")
        if self.lhs == self.rhs:
            raise PresentationError("reflexive relation is not storable")

    @property
    def is_monomial(self) -> bool:
        return self.rhs.is_inf

    def pretty(self, names: Sequence[str]) -> str:
        return f"{self.lhs.pretty(tuple(names))}={self.rhs.pretty(tuple(names))}"


@dataclass(frozen=True)
class RelationClass:
    """Monomial/binomial and mixed/unmixed classification of one relation."""

    kind: str  # MONOMIAL or BINOMIAL
    mixed: bool


def classify_relation(rel: Relation) -> RelationClass:
    """Classify a normalized relation.

    A monomial relation is unmixed when its finite side has singleton
    support; a binomial relation is unmixed when both sides share the same
    singleton support.
    """
    if rel.is_monomial:
        return RelationClass(MONOMIAL, mixed=len(rel.lhs.support()) != 1)
    unmixed = (
        rel.lhs.support() == rel.rhs.support() and len(rel.lhs.support()) == 1
    )
    return RelationClass(BINOMIAL, mixed=not unmixed)


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relations: tuple[Relation, ...]
    # per-object results of completion, compute_spectrum and find_positive_grading
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def binomial_relations(self) -> list[Relation]:
        return [rel for rel in self.relations if not rel.is_monomial]

    def monomial_relations(self) -> list[Relation]:
        return [rel for rel in self.relations if rel.is_monomial]

    def pretty(self) -> str:
        head = f"free({','.join(self.generators)})"
        if not self.relations:
            return head
        body = ", ".join(rel.pretty(self.generators) for rel in self.relations)
        return f"{head}/({body})"


def units(p: Presentation) -> Optional[int]:
    """Bitmask of the unit generators; None for the zero binoid.

    The units form the smallest face, the complement of the maximal ideal
    M+: the least generator set closed under adding the support of one side
    of a binomial relation once the other side's support lies inside it.
    Every face, the complement of a prime, is so closed, so it contains
    this set; no face exists when the set covers a monomial left side.
    """
    binomials = [
        (word_mask(rel.lhs), word_mask(rel.rhs)) for rel in p.binomial_relations()
    ]
    face = 0
    grown = True
    while grown:
        grown = False
        for a, b in binomials:
            ab = a | b
            if ab & face != ab and (a & face == a or b & face == b):
                face |= ab
                grown = True
    monomials = (word_mask(rel.lhs) for rel in p.monomial_relations())
    if any(m & face == m for m in monomials):
        return None
    return face


def _check_names(names: Sequence[str]) -> tuple[str, ...]:
    seen = set()
    for name in names:
        if not name:
            raise PresentationError("empty generator identifier")
        if not is_identifier(name):
            raise PresentationError(f"invalid generator identifier {name!r}")
        if name in seen:
            raise PresentationError(f"duplicate generator name {name!r}")
        seen.add(name)
    return tuple(names)


def _check_word(w: Word, r: int) -> None:
    if not w.is_inf and w.max_index() >= r:
        raise PresentationError(
            f"word references generator index {w.max_index()}, only {r} declared"
        )


def normalize_relations(pairs: Iterable[tuple[Word, Word]], r: int) -> tuple[Relation, ...]:
    """Order inf-last, drop reflexive and inf=inf pairs, validate indices."""
    out: list[Relation] = []
    for u, v in pairs:
        _check_word(u, r)
        _check_word(v, r)
        if u == v:
            continue
        if u.is_inf:
            u, v = v, u
        out.append(Relation(u, v))
    return tuple(out)


def make_presentation(
    names: Sequence[str], relations: Iterable[tuple[Word, Word]] = ()
) -> Presentation:
    gens = _check_names(names)
    rels = normalize_relations(relations, len(gens))
    return Presentation(gens, rels)


def free(*names: str) -> Presentation:
    return make_presentation(names)


def _fresh(name: str, taken: set[str]) -> str:
    if name not in taken:
        return name
    k = 1
    while f"{name}_{k}" in taken:
        k += 1
    return f"{name}_{k}"


def _disjoint_names(parts: Sequence[Sequence[str]]) -> list[list[str]]:
    """Merge generator alphabets, renaming collisions with _1, _2 suffixes."""
    collisions = set()
    seen: set[str] = set()
    for part in parts:
        for name in part:
            if name in seen:
                collisions.add(name)
            seen.add(name)
    taken: set[str] = set()
    out: list[list[str]] = []
    for part in parts:
        renamed = []
        for name in part:
            if name in collisions:
                k = 1
                while f"{name}_{k}" in taken:
                    k += 1
                candidate = f"{name}_{k}"
            else:
                candidate = _fresh(name, taken)
            taken.add(candidate)
            renamed.append(candidate)
        out.append(renamed)
    return out


def _shift(w: Word, offset: int) -> Word:
    if w.is_inf:
        return w
    return Word((i + offset, e) for i, e in w.exps)


def smash(p1: Presentation, p2: Presentation) -> Presentation:
    """Coproduct presentation: disjoint generators, union of relations."""
    names = _disjoint_names([p1.generators, p2.generators])
    gens = names[0] + names[1]
    off = len(p1.generators)
    rels = [(rel.lhs, rel.rhs) for rel in p1.relations]
    rels += [(_shift(rel.lhs, off), _shift(rel.rhs, off)) for rel in p2.relations]
    return make_presentation(gens, rels)


def product(ps: Sequence[Presentation]) -> Presentation:
    """Presentation of the direct product of the given factors.

    Each factor contributes its generators plus one absorbing marker
    ``abs{i}`` standing for the tuple that is absorbing in coordinate i and
    zero elsewhere.  Relations: lifted factor relations (a monomial relation
    lands on the marker), idempotency of each marker, absorption of factor
    generators by their marker, and the full marker sum being absorbing.
    """
    if not ps:
        raise PresentationError("product of an empty factor list")
    parts = _disjoint_names(
        [list(p.generators) for p in ps] + [[f"abs{i + 1}" for i in range(len(ps))]]
    )
    factor_names, marker_names = parts[:-1], parts[-1]
    gens: list[str] = [n for block in factor_names for n in block]
    gens += marker_names
    offsets = []
    acc = 0
    for p in ps:
        offsets.append(acc)
        acc += p.rank
    marker_base = acc
    rels: list[tuple[Word, Word]] = []
    for i, p in enumerate(ps):
        marker = Word.generator(marker_base + i)
        for rel in p.relations:
            lhs = _shift(rel.lhs, offsets[i])
            if rel.is_monomial:
                rels.append((lhs, marker))
            else:
                rels.append((lhs, _shift(rel.rhs, offsets[i])))
        rels.append((marker + marker, marker))
        for g in range(p.rank):
            rels.append((Word.generator(offsets[i] + g) + marker, marker))
    total = Word.zero()
    for i in range(len(ps)):
        total = total + Word.generator(marker_base + i)
    rels.append((total, Word.inf()))
    return make_presentation(gens, rels)


def bipointed_union(p1: Presentation, p2: Presentation) -> Presentation:
    """Glue two positive presentations at 0 and inf; cross sums absorb."""
    for p in (p1, p2):
        if units(p):
            raise NotPositive(
                f"bipointed union requires positive factors; {p.pretty()} has units"
            )
    s = smash(p1, p2)
    rels = [(rel.lhs, rel.rhs) for rel in s.relations]
    for i in range(p1.rank):
        for j in range(p2.rank):
            rels.append((Word.generator(i) + Word.generator(p1.rank + j), Word.inf()))
    return make_presentation(s.generators, rels)


def rees_quotient(p: Presentation, ideal_gens: Iterable[Word]) -> Presentation:
    """Adjoin the monomial relations w = inf for each ideal generator."""
    rels = [(rel.lhs, rel.rhs) for rel in p.relations]
    for w in ideal_gens:
        if w.is_inf:
            continue
        _check_word(w, p.rank)
        rels.append((w, Word.inf()))
    return make_presentation(p.generators, rels)
