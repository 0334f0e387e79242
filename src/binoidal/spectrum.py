"""Prime spectrum of a presented binoid and its poset invariants.

Primes of a finitely generated commutative binoid are generated by subsets
of the generators; a subset qualifies exactly when its indicator assignment
respects every defining relation.  Ideal membership of a word is the
support intersection test through the indicator homomorphism.

A generator subset is an ``int`` bitmask, bit ``i`` set when generator
``i`` belongs to it.  A family of subsets of ``r`` generators is one
``int`` of 2^r bits, bit ``x`` set when subset ``x`` is a member, so one
big-int operation acts on all 2^r subsets at once.  ``has[j]``, the family
of subsets with bit ``j``, is built by doubling a block of 2^j zeros and
2^j ones.  The costs, for ``r`` generators:

- scan: the primes are the AND, over the relations, of the family meeting
  a monomial left side, or of the family meeting both sides of a binomial
  relation or neither: O(r) big-int operations per relation, once per
  presentation;
- closures: the subsets strictly above a family are the one-bit extensions
  ``(F & ~has[j]) << 2^j``, closed upwards in r more steps; strictly below
  is the same with right shifts: 2r big-int operations each;
- invariants: the minimal primes are the primes not strictly above a
  prime.  Chain layer k holds the primes that top a chain of k + 1 primes
  (the primes strictly above layer k - 1), so ``dim`` counts the layers,
  the F-vector counts the layers taken downwards, and heights and prime
  dimensions read each prime's last layer: at most r + 1 layers;
- memory: the r tables ``has[j]`` and a few families of 2^r bits, 48 MB of
  tables at r = 24.  The scan refuses more than ``GENERATOR_CAP`` = 24
  generators unless forced (``spec``/``dim --force`` on the CLI);
- ``dim``, ``f_vector``, ``minimal_primes`` and ``predicates`` build no
  ``PrimeIdeal`` per prime, nor do ``simplicial.recognize_simplicial`` and
  ``grading.sepdim``.
  ``compute_spectrum`` reads the ordered primes off the family's binary
  digits; covers, the booleanization and the Zariski sets compare the
  primes as masks.

Admissible subsets are closed under union, so a nonempty spectrum has a
largest prime, and the primes inside any subset form the down-set of one
prime; the booleanization is built from these down-sets directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

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
        fields = q.__dict__  # what object.__setattr__ writes, without two calls
        fields["gens"] = gens
        fields["mask"] = mask
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


def _admits(mask: int, relations: Sequence[Relation]) -> bool:
    """Whether one generator subset is a prime."""
    for rel in relations:
        meets = bool(word_mask(rel.lhs) & mask)
        if rel.is_monomial:
            if not meets:
                return False
        elif meets != bool(word_mask(rel.rhs) & mask):
            return False
    return True


# Families of subsets.  The tables and closures below do not care which bit
# of a subset stands for which generator.  The scan indexes subsets by their
# code, which has bit r - 1 - i for generator i: the r binary digits of a
# code, most significant first, are its subset's indicator vector, so codes
# of equal weight in descending order list their subsets lexicographically.


def _cube(r: int) -> list[int]:
    """``has[j]``: the subsets of r elements with bit j, as a 2^r-bit family."""
    n = 1 << r
    has = []
    for j in range(r):
        w = 1 << j
        block, span = ((1 << w) - 1) << w, 2 * w  # w zeros, then w ones
        while span < n:
            block |= block << span
            span *= 2
        has.append(block)
    return has


def _step(family: int, h: int, j: int, up: bool) -> int:
    """The members without bit j with it added, or those with it removed."""
    # f ^ (f & h) is f & ~h without the slower negative int ~h
    return (family ^ (family & h)) << (1 << j) if up else (family & h) >> (1 << j)


def _strictly(family: int, has: Sequence[int], up: bool) -> int:
    """The subsets strictly above (or below) some member of the family."""
    out = 0
    for j, h in enumerate(has):
        out |= _step(family, h, j, up)
    for j, h in enumerate(has):
        out |= _step(out, h, j, up)
    return out


def _layers(family: int, has: Sequence[int], up: bool = True) -> Iterator[int]:
    """Layer k: the members that top (or, with ``up`` false, bottom) a chain
    of k + 1 members.  The layers shrink, and there is one per chain length."""
    layer = family
    while layer:
        yield layer
        layer = family & _strictly(layer, has, up)


_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _members(family: int) -> Iterator[int]:
    """The members of a family, descending, read off its binary digits."""
    digits = bin(family)[2:].encode().translate(_DIGITS)
    return itertools.compress(itertools.count(len(digits) - 1, -1), digits)


def _decoder(first: int, n: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Gens and mask of each n-bit code over the generators first..first+n-1."""
    gens: list[tuple[int, ...]] = [()]
    masks = [0]
    for i in reversed(range(first, first + n)):  # code bit 0 first
        gens += [(i,) + g for g in gens]
        masks += [m | 1 << i for m in masks]
    return gens, masks


def _primes_of(codes: int, r: int) -> list[PrimeIdeal]:
    """The members of a family of codes, by cardinality then lexicographic.

    A code splits into a high and a low half, each decoded by table.
    """
    low = r // 2
    high_gens, high_masks = _decoder(0, r - low)
    low_gens, low_masks = _decoder(r - low, low)
    cut = (1 << low) - 1
    make = PrimeIdeal._make
    return [
        make(
            high_gens[c >> low] + low_gens[c & cut],
            high_masks[c >> low] | low_masks[c & cut],
        )
        for c in sorted(_members(codes), key=int.bit_count)
    ]


def _family(masks: Iterable[int], r: int) -> int:
    """The family with the given members."""
    out = bytearray(max(1, (1 << r) >> 3))
    for m in masks:
        out[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(out, "little")


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

    def _last_layers(self, up: bool) -> dict[PrimeIdeal, int]:
        """Each prime's last chain layer, read off the layers' digits."""
        r = self.presentation.rank
        family = _family((q.mask for q in self.primes), r)
        layers = list(_layers(family, _cube(r), up))
        last: dict[int, int] = {}
        for k, (layer, deeper) in enumerate(zip(layers, layers[1:] + [0])):
            last.update(dict.fromkeys(_members(layer ^ deeper), k))
        return {q: last[q.mask] for q in self.primes}

    def heights(self) -> dict[PrimeIdeal, int]:
        return self._last_layers(up=True)

    def prime_dims(self) -> dict[PrimeIdeal, int]:
        return self._last_layers(up=False)

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


def _meets(w: Word, has: Sequence[int]) -> int:
    """The codes of the subsets that meet the support of w."""
    return union(has[len(has) - 1 - i] for i, _ in w.exps)


def _scan(p: Presentation) -> int:
    """The primes of p as a family of codes."""
    has = _cube(p.rank)
    table = (1 << (1 << p.rank)) - 1
    for rel in p.relations:
        lhs = _meets(rel.lhs, has)
        if rel.is_monomial:
            table &= lhs
        else:
            table ^= table & (lhs ^ _meets(rel.rhs, has))  # meets one side only
    return table


def _table(p: Presentation, force: bool = False) -> int:
    """``_scan(p)``, computed once per presentation."""
    if not force:
        check_scan_cap(p.rank)
    if "table" not in p._memo:
        p._memo["table"] = _scan(p)
    return p._memo["table"]


def compute_spectrum(p: Presentation, force: bool = False) -> Spectrum:
    """All admissible generator subsets, by cardinality then lexicographic.

    The primes are computed once per presentation; ``force`` only lifts the
    cap check.  The memo holds the primes only, so that p and its memo form
    no reference cycle (see ``rewrite.completion``).
    """
    table = _table(p, force)
    if "spectrum" not in p._memo:
        p._memo["spectrum"] = tuple(_primes_of(table, p.rank))
    return Spectrum(p, p._memo["spectrum"])


def _cells(
    p: Presentation, relations: Sequence[Relation]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(indices, family) for each nonempty cell of the primes that avoid the
    support of the same binomials, split depth first on a stack.  A prime
    meets both sides of a binomial or neither, so the left side decides."""
    has = _cube(p.rank)
    stack = [(0, (), _table(p))]
    while stack:
        k, inner, family = stack.pop()
        if k == len(relations):
            yield inner, family
            continue
        hit = family & _meets(relations[k].lhs, has)
        if family ^ hit:
            stack.append((k + 1, inner + (k,), family ^ hit))
        if hit:
            stack.append((k + 1, inner, hit))


def _longest_chain(family: int, r: int) -> int:
    """Length of the longest chain of members; -1 for the empty family."""
    return sum(1 for _ in _layers(family, _cube(r))) - 1


def dim(p: Presentation, force: bool = False) -> int:
    """Length of the longest prime chain; -1 for the zero binoid."""
    return _longest_chain(_table(p, force), p.rank)


@dataclass(frozen=True)
class FVector:
    entries: tuple[int, ...]


def f_vector(p: Presentation) -> FVector:
    """Entry i counts the primes of prime-dimension i."""
    sizes = [d.bit_count() for d in _layers(_table(p), _cube(p.rank), up=False)]
    if not sizes:
        raise ZeroBinoid("the zero binoid has no F-vector")
    return FVector(tuple(a - b for a, b in zip(sizes, sizes[1:] + [0])))


def _minimal_members(family: int, has: Sequence[int]) -> int:
    """The members of a family with no member strictly below them."""
    return family ^ (family & _strictly(family, has, up=True))


def minimal_primes(p: Presentation) -> list[PrimeIdeal]:
    """Inclusion-minimal primes, in spectrum order."""
    minimal = _minimal_members(_table(p), _cube(p.rank))
    if not minimal:
        raise ZeroBinoid("the zero binoid has no minimal primes")
    return _primes_of(minimal, p.rank)


def v_set(p: Presentation, words: Iterable[Word]) -> list[PrimeIdeal]:
    """Primes containing every given word."""
    ws = list(words)
    s = compute_spectrum(p)
    return [q for q in s.primes if all(q.contains_word(w) for w in ws)]


def d_set(p: Presentation, w: Word) -> list[PrimeIdeal]:
    s = compute_spectrum(p)
    return [q for q in s.primes if not q.contains_word(w)]


def closure(p: Presentation, primes: Iterable[PrimeIdeal]) -> list[PrimeIdeal]:
    """Topological closure of a set of points: all admissible supersets."""
    base = list(primes)
    s = compute_spectrum(p)
    return [q for q in s.primes if any(e <= q for e in base)]


def minimal_primes_over(p: Presentation, words: Iterable[Word]) -> list[PrimeIdeal]:
    if compute_spectrum(p).is_empty:
        raise ZeroBinoid("the zero binoid has no primes")
    return _minimal(v_set(p, words))


def irreducible_components(p: Presentation) -> list[list[PrimeIdeal]]:
    """V(P) for each minimal prime P."""
    s = compute_spectrum(p)
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
    return _admits(absorbed, p.relations)


def predicates(p: Presentation) -> Predicates:
    """Structural predicates of the presented binoid.

    Units come from ``presentation.units`` and integrality from
    ``is_integral``, neither of which scans.  Only reducedness needs the
    minimal primes: every minimal transversal of their generator sets, a
    minimal member of the family of subsets meeting each, must be
    absorbing.  Every prime contains the absorbed generators and
    lies inside M+, so an integral binoid whose units and absorbed
    generators cover all generators has one prime: it is a binoid group.
    """
    unit_mask = units(p)
    if unit_mask is None:
        return Predicates(False, False, (), False, False, False)
    # the transversals of the minimal primes: the AND, over them, of the
    # subsets meeting one; before completion, so the scan cap is refused first
    r, has = p.rank, _cube(p.rank)
    hits = (1 << (1 << r)) - 1
    for m in _members(_minimal_members(_table(p), has)):
        hits &= union(has[j] for j in indices(m))
    rs = rewrite.completion(p)
    integral = is_integral(p)
    absorbed = mask_of(rs.absorbed_generators())
    reduced = all(
        rs._reduce(tuple(t >> (r - 1 - i) & 1 for i in range(r))) is rewrite.INF
        for t in _members(_minimal_members(hits, has))
    )
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
    s = compute_spectrum(p)
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
