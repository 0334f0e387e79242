"""Prime spectrum of a presented binoid and its poset invariants.

Primes of a finitely generated commutative binoid are generated by subsets
of the generators; a subset qualifies exactly when its indicator assignment
respects every defining relation.  Ideal membership of a word is the
support intersection test through the indicator homomorphism.

Inside this module a generator subset is an ``int`` bitmask, bit ``i`` set
when generator ``i`` belongs to it.  Costs, for ``r`` generators:

- scan: each relation is compiled once to ``(lhs_mask, rhs_mask | None)``;
  a subset is admissible when it meets every monomial left-hand side and
  meets both sides of each binomial relation or neither, two ANDs per
  relation, so the scan costs O(2^r * #relations).  It refuses more than
  ``GENERATOR_CAP`` = 24 generators unless forced (``spec``/``dim --force``
  on the CLI);
- invariants: heights and prime dimensions are longest-chain DPs over all
  2^r subsets, in sum-over-subsets and sum-over-supersets order, in O(2^r * r)
  time and a ``bytearray`` of 2^r bytes (a chain has at most r + 1 members);
- covers, minimal primes and the Zariski sets are mask subset tests.

Admissible subsets are closed under union, so a nonempty spectrum has a
largest prime, and the primes inside any subset form the down-set of one
prime; the booleanization is built from these down-sets directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import rewrite
from .bitmask import indices, mask_of, union, word_mask
from .errors import TooManyGenerators, ZeroBinoid
from .presentation import Presentation, Relation, units
from .words import Word

GENERATOR_CAP = 24


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime ideal, identified by the set of generators it contains."""

    gens: tuple[int, ...]
    mask: int = field(compare=False, repr=False)  # the gens as a bitmask

    def __init__(self, gens: Iterable[int]):
        gens = tuple(sorted(set(gens)))
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "mask", mask_of(gens))

    @classmethod
    def _make(cls, gens: tuple[int, ...], mask: int) -> "PrimeIdeal":
        """Trusted constructor: sorted distinct gens and their mask."""
        q = object.__new__(cls)
        object.__setattr__(q, "gens", gens)
        object.__setattr__(q, "mask", mask)
        return q

    def __hash__(self) -> int:
        return self.mask  # equal gens, equal masks

    def __contains__(self, i: int) -> bool:
        return i in self.gens

    def __le__(self, other: "PrimeIdeal") -> bool:
        return self.mask & other.mask == self.mask

    def __lt__(self, other: "PrimeIdeal") -> bool:
        return self.mask & other.mask == self.mask != other.mask

    def contains_word(self, w: Word) -> bool:
        return w.is_inf or bool(word_mask(w) & self.mask)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.gens), self.gens)

    def pretty(self, names: Sequence[str]) -> str:
        return "{" + ",".join(names[i] for i in self.gens) + "}"


Compiled = tuple[tuple[int, Optional[int]], ...]


def _compile(relations: Sequence[Relation]) -> Compiled:
    """Each relation as (lhs support mask, rhs support mask or None if absorbing)."""
    return tuple(
        (word_mask(rel.lhs), None if rel.is_monomial else word_mask(rel.rhs))
        for rel in relations
    )


def _admits(mask: int, compiled: Compiled) -> bool:
    for lhs, rhs in compiled:
        if rhs is None:
            if not lhs & mask:
                return False
        elif (not lhs & mask) != (not rhs & mask):
            return False
    return True


def _longest_chains(masks: Iterable[int], r: int) -> bytearray:
    """Entry s: the most members of the family in one chain of subsets of s.

    A sum-over-subsets DP: subsets precede s in ascending order, and the
    longest chain inside s either ends at s or lies inside some s minus one
    bit.  O(2^r * r) time, 2^r bytes.
    """
    table = bytearray(1 << r)
    for m in masks:
        table[m] = 1
    for s in range(1, 1 << r):
        best = 0
        rest = s
        while rest:
            low = rest & -rest
            v = table[s ^ low]
            if v > best:
                best = v
            rest ^= low
        table[s] += best
    return table


def _minimal(primes: Sequence[PrimeIdeal]) -> list[PrimeIdeal]:
    """Inclusion-minimal members, in the given order.

    Masks are visited in ascending numeric order, where every proper subset
    comes first, so a candidate is minimal unless one of the minimal masks
    already found lies inside it.
    """
    found: list[int] = []
    for m in sorted({q.mask for q in primes}):
        if not any(f & m == f for f in found):
            found.append(m)
    keep = set(found)
    return [q for q in primes if q.mask in keep]


@dataclass(frozen=True)
class Spectrum:
    presentation: Presentation
    primes: tuple[PrimeIdeal, ...]

    def __len__(self) -> int:
        return len(self.primes)

    @property
    def is_empty(self) -> bool:
        return not self.primes

    @property
    def max_ideal(self) -> PrimeIdeal:
        if self.is_empty:
            raise ZeroBinoid("the zero binoid has no maximal ideal")
        return PrimeIdeal(indices(union(q.mask for q in self.primes)))

    def heights(self) -> dict[PrimeIdeal, int]:
        r = self.presentation.rank
        below = _longest_chains((q.mask for q in self.primes), r)
        return {q: below[q.mask] - 1 for q in self.primes}

    def prime_dims(self) -> dict[PrimeIdeal, int]:
        # chains above a prime are chains below its complement in the
        # complemented family: the sum-over-supersets DP
        r = self.presentation.rank
        full = (1 << r) - 1
        above = _longest_chains((full ^ q.mask for q in self.primes), r)
        return {q: above[full ^ q.mask] - 1 for q in self.primes}

    def height(self, p: PrimeIdeal) -> int:
        if p not in self.primes:
            raise ValueError("prime not in the spectrum")
        return self.heights()[p]

    def prime_dim(self, p: PrimeIdeal) -> int:
        if p not in self.primes:
            raise ValueError("prime not in the spectrum")
        return self.prime_dims()[p]

    def covers(self) -> list[tuple[PrimeIdeal, PrimeIdeal]]:
        """Covering relations of the inclusion poset (Hasse diagram edges).

        The upper covers of p are the minimal primes strictly above it.
        """
        out = []
        for p in self.primes:
            a = p.mask
            above = [q for q in self.primes if q.mask & a == a != q.mask]
            out.extend((p, q) for q in _minimal(above))
        return out


def check_scan_cap(r: int) -> None:
    """Refuse a scan over the subsets of more than ``GENERATOR_CAP`` generators."""
    if r > GENERATOR_CAP:
        raise TooManyGenerators(
            f"{r} generators exceed the 2^{GENERATOR_CAP} scan cap; use force"
        )


def compute_spectrum(p: Presentation, force: bool = False) -> Spectrum:
    """All admissible generator subsets, by cardinality then lexicographic."""
    r = p.rank
    if not force:
        check_scan_cap(r)
    compiled = _compile(p.relations)
    bits = [1 << i for i in range(r)]
    primes = []
    for size in range(r + 1):
        for gens in itertools.combinations(range(r), size):
            mask = sum(map(bits.__getitem__, gens))
            if _admits(mask, compiled):
                primes.append(PrimeIdeal._make(gens, mask))
    return Spectrum(p, tuple(primes))


def spectrum_of(p: Presentation) -> Spectrum:
    """``compute_spectrum(p)``, computed once per presentation."""
    # the primes only, so that p and its memo form no reference cycle
    # (see ``rewrite.completion``)
    if "spectrum" not in p._memo:
        p._memo["spectrum"] = compute_spectrum(p).primes
    return Spectrum(p, p._memo["spectrum"])


def dim(p: Presentation, force: bool = False) -> int:
    """Length of the longest prime chain; -1 for the zero binoid."""
    s = compute_spectrum(p, force=True) if force else spectrum_of(p)
    if s.is_empty:
        return -1
    return max(s.heights().values())


@dataclass(frozen=True)
class FVector:
    entries: tuple[int, ...]


def f_vector(p: Presentation) -> FVector:
    """Entry i counts the primes of prime-dimension i."""
    s = spectrum_of(p)
    if s.is_empty:
        raise ZeroBinoid("the zero binoid has no F-vector")
    dims = s.prime_dims()
    d = max(dims.values())
    counts = [0] * (d + 1)
    for value in dims.values():
        counts[value] += 1
    return FVector(tuple(counts))


def minimal_primes(p: Presentation) -> list[PrimeIdeal]:
    s = spectrum_of(p)
    if s.is_empty:
        raise ZeroBinoid("the zero binoid has no minimal primes")
    return _minimal(s.primes)


def v_set(p: Presentation, words: Iterable[Word]) -> list[PrimeIdeal]:
    """Primes containing every given word."""
    ws = list(words)
    s = spectrum_of(p)
    return [q for q in s.primes if all(q.contains_word(w) for w in ws)]


def d_set(p: Presentation, w: Word) -> list[PrimeIdeal]:
    s = spectrum_of(p)
    return [q for q in s.primes if not q.contains_word(w)]


def closure(p: Presentation, primes: Iterable[PrimeIdeal]) -> list[PrimeIdeal]:
    """Topological closure of a set of points: all admissible supersets."""
    base = list(primes)
    s = spectrum_of(p)
    return [q for q in s.primes if any(e <= q for e in base)]


def minimal_primes_over(p: Presentation, words: Iterable[Word]) -> list[PrimeIdeal]:
    if spectrum_of(p).is_empty:
        raise ZeroBinoid("the zero binoid has no primes")
    return _minimal(v_set(p, words))


def irreducible_components(p: Presentation) -> list[list[PrimeIdeal]]:
    """V(P) for each minimal prime P."""
    s = spectrum_of(p)
    if s.is_empty:
        raise ZeroBinoid("the zero binoid has no components")
    return [[q for q in s.primes if m <= q] for m in _minimal(s.primes)]


def is_nilpotent(p: Presentation, w: Word) -> bool:
    """True when some multiple of w is absorbing.

    Nilpotence is membership in the radical of the ideal {inf}: the support
    must meet every minimal prime.
    """
    return radical_membership(p, w, ())


def radical_membership(p: Presentation, w: Word, ideal_gens: Iterable[Word]) -> bool:
    """The support of w meets every minimal prime over the ideal."""
    if w.is_inf:
        return True
    return all(m.contains_word(w) for m in _minimal(v_set(p, ideal_gens)))


def minimal_transversals(sets: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """Inclusion-minimal hitting sets of the given set family.

    Branch and bound on the first unhit set; supersets of found transversals
    are pruned by a final minimality filter.
    """
    if any(not s for s in sets):
        return []  # an empty member can never be hit
    found: list[frozenset[int]] = []

    def search(partial: frozenset[int], todo: list[frozenset[int]]) -> None:
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


@dataclass(frozen=True)
class Predicates:
    integral: bool
    positive: bool
    units: tuple[str, ...]
    reduced: bool
    binoid_group: bool
    boolean: bool


def is_integral(p: Presentation) -> bool:
    """The generators collapsing to the absorbing element form a prime."""
    absorbed = mask_of(rewrite.completion(p).absorbed_generators())
    return _admits(absorbed, _compile(p.relations))


def predicates(p: Presentation) -> Predicates:
    """Structural predicates of the presented binoid.

    Units come from ``presentation.units`` and integrality from
    ``is_integral``, neither of which scans.  Only reducedness needs the
    spectrum: every minimal transversal of the minimal-prime generator sets
    must be absorbing.  Every prime contains the absorbed generators and
    lies inside M+, so an integral binoid whose units and absorbed
    generators cover all generators has one prime: it is a binoid group.
    """
    unit_mask = units(p)
    if unit_mask is None:
        return Predicates(False, False, (), False, False, False)
    s = spectrum_of(p)  # before completion, so the scan cap is refused first
    rs = rewrite.completion(p)
    integral = is_integral(p)
    absorbed = mask_of(rs.absorbed_generators())
    minimal = _minimal(s.primes)
    reduced = True
    for t in minimal_transversals([frozenset(m.gens) for m in minimal]):
        w = Word.zero()
        for i in sorted(t):
            w = w + Word.generator(i)
        if not rs.normal_form(w).is_inf:
            reduced = False
            break
    boolean = all(
        rs.equal(Word.generator(i).scale(2), Word.generator(i))
        for i in range(p.rank)
    )
    return Predicates(
        integral=integral,
        positive=not unit_mask,
        units=tuple(name for i, name in enumerate(p.generators) if unit_mask >> i & 1),
        reduced=reduced,
        binoid_group=integral and unit_mask | absorbed == (1 << p.rank) - 1,
        boolean=boolean,
    )


@dataclass(frozen=True)
class FiniteBooleanBinoid:
    """The booleanization, realized as basic open sets under intersection."""

    spectrum: Spectrum
    elements: tuple[frozenset[PrimeIdeal], ...]  # deterministic order
    # for each element, the positions of its primes in ``spectrum.primes``,
    # ascending; parallel to ``elements``
    positions: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @property
    def cardinality(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> frozenset[PrimeIdeal]:
        return frozenset(self.spectrum.primes)

    @property
    def absorbing(self) -> frozenset[PrimeIdeal]:
        return frozenset()

    def op(self, a: frozenset[PrimeIdeal], b: frozenset[PrimeIdeal]):
        return a & b

    def table(self) -> list[list[int]]:
        index = {e: k for k, e in enumerate(self.elements)}
        return [[index[a & b] for b in self.elements] for a in self.elements]

    def spec_elements(self) -> list[frozenset[PrimeIdeal]]:
        """Prime ideals of the table itself, via principal filters.

        In a finite meet-semilattice every proper filter is principal, so
        the primes correspond to the elements other than the absorbing one.
        """
        primes = []
        for m in self.elements:
            if m == self.absorbing:
                continue
            primes.append(frozenset(e for e in self.elements if not (m <= e)))
        return primes

    def induced_spectrum_map(self) -> dict[frozenset[PrimeIdeal], PrimeIdeal]:
        """Bijection from nonabsorbing elements onto the underlying spectrum.

        Each basic open set is a principal down-set of primes; it is mapped
        to its largest member.
        """
        return {
            m: PrimeIdeal(indices(union(q.mask for q in m)))
            for m in self.elements
            if m != self.absorbing
        }


def booleanize(p: Presentation) -> FiniteBooleanBinoid:
    """Basic open sets D(f), the primes that avoid the support of f.

    The primes inside a generator subset are closed under union, so each
    nonempty D(f) is the down-set of one prime and every prime's down-set
    is some D(f): the elements are those down-sets plus the empty set.  The
    down-set of a prime m is the intersection of D(x) over the generators x
    outside m, computed on bitsets of spectrum positions, so its members
    come out in spectrum order.  Elements are ordered by size, then by
    their members' positions.
    """
    s = spectrum_of(p)
    if s.is_empty:
        raise ZeroBinoid("the zero binoid has no booleanization")
    masks = [q.mask for q in s.primes]
    avoiding = [
        mask_of(k for k, m in enumerate(masks) if not m >> i & 1)
        for i in range(p.rank)
    ]
    everything = (1 << len(masks)) - 1
    full = (1 << p.rank) - 1
    downs = []
    for m in masks:
        down = everything
        for i in indices(full ^ m):
            down &= avoiding[i]
        downs.append(indices(down))
    downs.sort(key=lambda d: (len(d), d))
    positions = ((),) + tuple(downs)
    primes = s.primes
    return FiniteBooleanBinoid(
        spectrum=s,
        elements=tuple(frozenset(map(primes.__getitem__, d)) for d in positions),
        positions=positions,
    )
