"""Finite simplicial complexes and their binoids.

A complex is stored by its vertex list and facet antichain.  The associated
binoid is free on the vertices modulo one squarefree absorbing relation per
minimal nonface, so its binoid algebra is the Stanley-Reisner algebra of
the complex.  The reverse direction recognizes exactly the semifree reduced
presentations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import rewrite, spectrum
from .algebra import ring_text
from .bitmask import bits, indices, mask_of, submasks
from .errors import PresentationError, TooManyGenerators
from .presentation import (
    Presentation,
    _disjoint_names,
    _fresh,
    make_presentation,
    units,
)
from .words import Word, is_identifier

VERTEX_CAP = 24

POINT = "Point"
SIMPLEX_BOUNDARY = "SimplexBoundary"
CYCLE = "Cycle"
OTHER = "Other"


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple[str, ...]
    facets: tuple[frozenset[int], ...]  # index sets, sorted canonically

    def faces(self) -> list[frozenset[int]]:
        if len(self.vertices) > VERTEX_CAP:
            raise TooManyGenerators(
                f"face enumeration beyond {VERTEX_CAP} vertices refused"
            )
        seen: set[frozenset[int]] = set()
        for f in self.facets:
            members = sorted(f)
            for size in range(len(members) + 1):
                for combo in itertools.combinations(members, size):
                    seen.add(frozenset(combo))
        return sorted(seen, key=lambda s: (len(s), sorted(s)))

    def pretty(self) -> str:
        body = ",".join(
            "{" + ",".join(self.vertices[i] for i in sorted(f)) + "}"
            for f in self.facets
        )
        return "complex{" + ",".join(self.vertices) + "; " + body + "}"


@dataclass(frozen=True)
class FaceVector:
    entries: tuple[int, ...]  # counts from dimension -1 upward


def from_facets(
    names: Sequence[str], facets: Iterable[Iterable[str]]
) -> SimplicialComplex:
    """Build a complex, pruning non-maximal facets and validating coverage."""
    vertices = tuple(names)
    if len(set(vertices)) != len(vertices):
        raise PresentationError("duplicate vertex name")
    index = {v: i for i, v in enumerate(vertices)}
    raw: list[frozenset[int]] = []
    for facet in facets:
        members = set()
        for v in facet:
            if v not in index:
                raise PresentationError(f"facet uses unknown vertex {v!r}")
            members.add(index[v])
        raw.append(frozenset(members))
    maximal = [f for f in raw if not any(f < g for g in raw)]
    dedup = sorted(set(maximal), key=lambda s: (len(s), sorted(s)))
    if vertices and any(not f for f in dedup):
        raise PresentationError("empty facet alongside a nonempty vertex set")
    covered = set().union(*dedup) if dedup else set()
    missing = [v for v, i in index.items() if i not in covered]
    if missing:
        raise PresentationError(f"vertex {missing[0]!r} lies in no facet")
    if not vertices:
        dedup = [frozenset()]
    return SimplicialComplex(vertices, tuple(dedup))


def dimension(delta: SimplicialComplex) -> int:
    return max(len(f) for f in delta.facets) - 1


def f_vector(delta: SimplicialComplex) -> FaceVector:
    counts = [0] * (dimension(delta) + 2)
    for face in delta.faces():
        counts[len(face)] += 1
    return FaceVector(tuple(counts))


def minimal_nonfaces(delta: SimplicialComplex) -> list[frozenset[int]]:
    """Inclusion-minimal vertex sets not contained in any facet.

    Faces are the subsets of the facet masks.  A minimal nonface minus its
    largest vertex is a face, so the candidates are the faces extended by
    one vertex above their largest, each met once; a candidate qualifies
    when it is no face but each of its one-smaller subsets is.
    """
    n = len(delta.vertices)
    faces: set[int] = set()
    for f in delta.facets:
        faces.update(submasks(mask_of(f)))
    found = []
    for f in faces:
        for v in range(f.bit_length(), n):
            c = f | 1 << v
            if c not in faces and all(c ^ b in faces for b in bits(c)):
                found.append(frozenset(indices(c)))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def connected_components(delta: SimplicialComplex) -> list[SimplicialComplex]:
    """Finest partition into subcomplexes along facet overlaps."""
    n = len(delta.vertices)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for f in delta.facets:
        members = sorted(f)
        for a, b in zip(members, members[1:]):
            parent[find(a)] = find(b)
    classes: dict[int, list[int]] = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)
    out = []
    for root in sorted(classes, key=lambda r: min(classes[r])):
        members = classes[root]
        names = [delta.vertices[i] for i in members]
        facets = [
            [delta.vertices[i] for i in sorted(f)]
            for f in delta.facets
            if f <= set(members)
        ]
        out.append(from_facets(names, facets))
    return out


def _safe_generator_names(vertices: Sequence[str]) -> list[str]:
    """Vertex names usable as generator identifiers; numeric ones get a v prefix."""
    taken: set[str] = set()
    out = []
    for v in vertices:
        name = v if is_identifier(v) else f"v{v}"
        if not is_identifier(name):
            raise PresentationError(f"vertex name {v!r} cannot name a generator")
        candidate = _fresh(name, taken)
        taken.add(candidate)
        out.append(candidate)
    return out


def simplicial_binoid(delta: SimplicialComplex) -> Presentation:
    names = _safe_generator_names(delta.vertices)
    rels = []
    for nonface in minimal_nonfaces(delta):
        w = Word.zero()
        for i in sorted(nonface):
            w = w + Word.generator(i)
        rels.append((w, Word.inf()))
    return make_presentation(names, rels)


def delta_cup_binoid(delta: SimplicialComplex) -> Presentation:
    """The booleanization of the simplicial binoid: faces under union."""
    base = simplicial_binoid(delta)
    rels = [(rel.lhs, rel.rhs) for rel in base.relations]
    for i in range(base.rank):
        g = Word.generator(i)
        rels.append((g + g, g))
    return make_presentation(base.generators, rels)


NOT_SEMIFREE = "not semifree"
NOT_REDUCED = "not reduced"


def recognize_simplicial(p: Presentation) -> Optional[SimplicialComplex]:
    """Underlying complex of a semifree reduced presentation, else None."""
    delta, _ = recognize_simplicial_report(p)
    return delta


def recognize_simplicial_report(
    p: Presentation,
) -> tuple[Optional[SimplicialComplex], Optional[str]]:
    """Recognition with the failed axiom named on rejection.

    Semifreeness on the given generators means the reduced rewrite system is
    monomial-only, so the binoid is free modulo the monomial ideal spanned by
    the rules' left sides, which are its minimal generators.  A monomial
    ideal is radical exactly when its minimal generators are squarefree
    (Herzog and Hibi, *Monomial Ideals*, ch. 1), and then the faces are the
    subsets containing no left side, whose maximal members are the
    complements of the minimal primes (Stanley-Reisner).  Generators that
    collapse to the absorbing element are dropped from the vertex set.
    """
    rs = rewrite.completion(p)
    if not rs.is_monomial_only():
        return None, NOT_SEMIFREE
    if units(p) is None:  # the zero binoid
        return None, NOT_REDUCED
    spectrum.check_scan_cap(p.rank)
    if any(e > 1 for rule in rs.rules for _, e in rule.lhs.exps):
        return None, NOT_REDUCED
    full = (1 << p.rank) - 1
    live = indices(full ^ mask_of(rs.absorbed_generators()))
    names = [p.generators[i] for i in live]
    facet_names = [
        [p.generators[i] for i in indices(full ^ m.mask)]
        for m in spectrum.minimal_primes(p)
    ]
    return from_facets(names, facet_names), None


def sr_ideal(
    delta: SimplicialComplex, variable_prefix: str = "X", fmt: str = "generic"
) -> str:
    """Stanley-Reisner ideal of the complex in the chosen output dialect."""
    n = len(delta.vertices)
    variables = [f"{variable_prefix}{i + 1}" for i in range(n)]
    monomials = [
        "*".join(variables[i] for i in sorted(nf))
        for nf in minimal_nonfaces(delta)
    ]
    return ring_text(variables, monomials, fmt)


@dataclass(frozen=True)
class CapReport:
    component_labels: tuple[str, ...]
    isomorphic: bool  # faces-under-intersection matches faces-under-union


def _is_simplex_boundary(component: SimplicialComplex) -> bool:
    w = len(component.vertices)
    if w < 3:
        return False
    expected = {frozenset(c) for c in itertools.combinations(range(w), w - 1)}
    return set(component.facets) == expected


def _is_cycle(component: SimplicialComplex) -> bool:
    n = len(component.vertices)
    if n < 3 or dimension(component) != 1:
        return False
    if len(component.facets) != n:
        return False
    degree = {i: 0 for i in range(n)}
    for f in component.facets:
        if len(f) != 2:
            return False
        for i in f:
            degree[i] += 1
    if any(d != 2 for d in degree.values()):
        return False
    # single closed walk: being connected with all degrees two is enough
    return len(connected_components(component)) == 1


def cap_classification(delta: SimplicialComplex) -> CapReport:
    """Decompose into components and sort each into the three good shapes."""
    labels = []
    for comp in connected_components(delta):
        if len(comp.vertices) == 1:
            labels.append(POINT)
        elif _is_simplex_boundary(comp):
            labels.append(SIMPLEX_BOUNDARY)
        elif _is_cycle(comp):
            labels.append(CYCLE)
        else:
            labels.append(OTHER)
    return CapReport(tuple(labels), isomorphic=OTHER not in labels)


def disjoint_union(
    d1: SimplicialComplex, d2: SimplicialComplex
) -> SimplicialComplex:
    n1, n2 = _disjoint_names([d1.vertices, d2.vertices])
    names = n1 + n2
    facets = [[n1[i] for i in sorted(f)] for f in d1.facets]
    facets += [[n2[i] for i in sorted(f)] for f in d2.facets]
    return from_facets(names, facets)


def product(d1: SimplicialComplex, d2: SimplicialComplex) -> SimplicialComplex:
    """Join of the two complexes: facets are pairwise unions of facets."""
    n1, n2 = _disjoint_names([d1.vertices, d2.vertices])
    names = n1 + n2
    facets = []
    for f in d1.facets:
        for g in d2.facets:
            facets.append([n1[i] for i in sorted(f)] + [n2[j] for j in sorted(g)])
    return from_facets(names, facets)
