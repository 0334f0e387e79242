"""Binoid algebra presentations, difference groups, and point counting.

The difference group at a prime is the cokernel of the lattice spanned by
the surviving relation differences; its shape (free rank plus invariant
factors from the Smith normal form) determines how many points the binoid
has over any finite field, summed over the spectrum.  A direct enumeration
over all generator assignments provides an independent oracle for prime
fields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from . import rewrite, spectrum
from .errors import NotIntegral, PresentationError
from .presentation import Presentation
from .words import Word

FIELD_ASSUMPTION = "algebraically closed field of characteristic zero"

CONNECTED = "Connected"
DISCONNECTED = "Disconnected"
OUT_OF_SCOPE = "OutOfScope"

UNIT_RELATION = "UnitRelation"
SHARED_FACTOR = "SharedFactor"
DISJOINT_TOPS = "DisjointTops"

BRUTE_FORCE_CAP = 10_000_000


@dataclass(frozen=True)
class AbelianGroupData:
    """Z^rank plus one cyclic factor per invariant factor (divisibility chain)."""

    rank: int
    invariant_factors: tuple[int, ...]

    @property
    def torsion_free(self) -> bool:
        return not self.invariant_factors


def _monomial_str(w: Word, variables: Sequence[str]) -> str:
    parts = []
    for i, e in w.exps:
        parts.append(variables[i] if e == 1 else f"{variables[i]}^{e}")
    return "*".join(parts) if parts else "1"


# dialect -> (template, text of the zero ideal)
RING_DIALECTS = {
    "generic": ("ring K[{ring}]; ideal ({ideal})", "0"),
    "macaulay2": ("R = QQ[{ring}];\nI = ideal({ideal});", "0_R"),
    "singular": ("ring R = 0,({ring}),dp;\nideal I = {ideal};", "0"),
}


def ring_text(variables: Sequence[str], gens: Sequence[str], fmt: str) -> str:
    """The polynomial ring on the variables modulo the ideal of gens, in one dialect."""
    if fmt not in RING_DIALECTS:
        raise ValueError(f"unknown format {fmt!r}")
    template, zero = RING_DIALECTS[fmt]
    return template.format(ring=",".join(variables), ideal=", ".join(gens) or zero)


def export_algebra(p: Presentation, fmt: str = "generic") -> str:
    """Emit the binoid algebra as a polynomial quotient ring.

    One generator per relation: a difference of monomials for a binomial
    relation, a single monomial for an absorbing relation, in presentation
    order.
    """
    variables = [f"X{i + 1}" for i in range(p.rank)]
    gens = []
    for rel in p.relations:
        lhs = _monomial_str(rel.lhs, variables)
        if rel.is_monomial:
            gens.append(lhs)
        else:
            gens.append(f"{lhs} - {_monomial_str(rel.rhs, variables)}")
    return ring_text(variables, gens, fmt)


def smith_normal_form(rows: Sequence[Sequence[int]], ncols: int) -> AbelianGroupData:
    """Cokernel of the integer row lattice inside Z^ncols.

    Exact arbitrary-precision reduction: pick the smallest nonzero pivot,
    clear its row and column, and repair divisibility between diagonal
    entries afterwards.
    """
    m = [list(r) for r in rows if any(r)]
    if not m:
        return AbelianGroupData(ncols, ())
    if any(len(r) != ncols for r in m):
        raise ValueError("row length does not match the column count")
    diag: list[int] = []
    while m and any(any(r) for r in m):
        pi, pj, best = -1, -1, None
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                if v and (best is None or abs(v) < best):
                    pi, pj, best = i, j, abs(v)
        m[0], m[pi] = m[pi], m[0]
        for row in m:
            row[0], row[pj] = row[pj], row[0]
        while True:
            pivot = m[0][0]
            done = True
            for i in range(1, len(m)):
                if m[i][0]:
                    q = m[i][0] // pivot
                    m[i] = [x - q * y for x, y in zip(m[i], m[0])]
                    if m[i][0]:
                        m[0], m[i] = m[i], m[0]
                        done = False
                        break
            if not done:
                continue
            for j in range(1, len(m[0])):
                if m[0][j]:
                    q = m[0][j] // pivot
                    for row in m:
                        row[j] -= q * row[0]
                    if m[0][j]:
                        for row in m:
                            row[0], row[j] = row[j], row[0]
                        done = False
                        break
            if done:
                break
        # pivot divides the rest only after the divisibility sweep below
        diag.append(abs(m[0][0]))
        m = [row[1:] for row in m[1:]]
    diag = [d for d in diag if d]
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    diag.sort()
    rank = ncols - len(diag)
    return AbelianGroupData(rank, tuple(d for d in diag if d > 1))


def diff_group_at(p: Presentation, prime: spectrum.PrimeIdeal) -> AbelianGroupData:
    """Difference group of the cancellative quotient away from the prime."""
    if not spectrum._admits(prime.mask, p.relations):
        raise ValueError("prime is not admissible for this presentation")
    killed = set(prime.gens)
    kept = [i for i in range(p.rank) if i not in killed]
    col = {g: k for k, g in enumerate(kept)}
    rows = []
    for rel in p.binomial_relations():
        if rel.lhs.support() & killed:
            continue  # admissibility kills both sides together
        row = [0] * len(kept)
        for i, e in rel.lhs.exps:
            row[col[i]] += e
        for i, e in rel.rhs.exps:
            row[col[i]] -= e
        rows.append(row)
    return smith_normal_form(rows, len(kept))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The bound is psi_13, the least strong pseudoprime to the first thirteen
# prime bases (Sorenson and Webster, 2015), so the test is exact below it.
# Dropping 41 would lower it to psi_12 = 318665857834031151167461.
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError where it is not exact."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # b witnesses that n is composite
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"cannot certify that {n} is prime")
    return True


def _iroot(n: int, k: int) -> int:
    """Largest x >= 0 with x ** k <= n, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    # the largest k with q a perfect k-th power leaves a base that is no
    # perfect power; q is a prime power exactly when that base is prime
    for k in range(q.bit_length(), 0, -1):
        b = _iroot(q, k)
        if b**k == q:
            return _is_prime(b)
    return False


@dataclass(frozen=True)
class PointCount:
    q: int
    count: int
    per_prime: tuple[tuple[spectrum.PrimeIdeal, AbelianGroupData, int], ...]


def count_points(p: Presentation, q: int) -> PointCount:
    """Number of binoid maps into the multiplicative binoid of F_q.

    Each prime of the spectrum contributes the number of characters of its
    difference group into the cyclic unit group of order q - 1.
    """
    if not _is_prime_power(q):
        raise ValueError(f"{q} is not a prime power")
    s = spectrum.compute_spectrum(p)
    per = []
    total = 0
    for prime in s.primes:
        group = diff_group_at(p, prime)
        n = (q - 1) ** group.rank
        for d in group.invariant_factors:
            n *= gcd(d, q - 1)
        per.append((prime, group, n))
        total += n
    return PointCount(q=q, count=total, per_prime=tuple(per))


def brute_force_count(p: Presentation, q: int) -> int:
    """Direct enumeration of all generator assignments over a prime field."""
    if not _is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q ** p.rank > BRUTE_FORCE_CAP:
        raise ValueError(f"{q}^{p.rank} exceeds the enumeration cap")

    def value(w: Word, point: tuple[int, ...]) -> int:
        if w.is_inf:
            return 0
        out = 1
        for i, e in w.exps:
            out = out * pow(point[i], e, q) % q
        return out

    count = 0
    for point in itertools.product(range(q), repeat=p.rank):
        if all(
            value(rel.lhs, point) == value(rel.rhs, point) for rel in p.relations
        ):
            count += 1
    return count


@dataclass(frozen=True)
class ConnectednessVerdict:
    verdict: str
    case: Optional[str]
    idempotent_witness: Optional[Word]
    field_assumption: str = FIELD_ASSUMPTION


def hypersurface_connectedness(p: Presentation) -> ConnectednessVerdict:
    """Connectedness of the K-spectrum of a one-relation presentation.

    The relation is matched after cancelling the common part of the two
    sides.  A unit relation is connected exactly when the collapsed lattice
    is torsion-free; a shared factor disconnects exactly when the leftover
    support swallows the factor's support, and then a verified idempotent
    witness is produced; disjoint leftover supports are always connected.
    """
    if len(p.relations) != 1:
        raise PresentationError("expected a free presentation with one relation")
    rel = p.relations[0]
    if rel.is_monomial:
        return ConnectednessVerdict(OUT_OF_SCOPE, None, None)
    r = p.rank
    u = rel.lhs.dense(r)
    v = rel.rhs.dense(r)
    h = tuple(min(a, b) for a, b in zip(u, v))
    ftop = tuple(a - c for a, c in zip(u, h))
    gtop = tuple(b - c for b, c in zip(v, h))
    if any(ftop) and any(gtop):
        return ConnectednessVerdict(CONNECTED, DISJOINT_TOPS, None)
    if not any(ftop):
        ftop, gtop = gtop, ftop  # make ftop the surviving side
    if not any(h):
        # relation f = 0 makes the support of f invertible; the collapsed
        # lattice is torsion-free exactly when the exponents are coprime
        if gcd(*(e for e in ftop if e)) == 1:
            return ConnectednessVerdict(CONNECTED, UNIT_RELATION, None)
        return ConnectednessVerdict(DISCONNECTED, UNIT_RELATION, None)
    g = h  # the shared factor is the whole smaller side
    supp_g = {i for i, e in enumerate(g) if e}
    supp_f = {i for i, e in enumerate(ftop) if e}
    if not (supp_g <= supp_f):
        return ConnectednessVerdict(CONNECTED, SHARED_FACTOR, None)
    k = max(-(-g[i] // ftop[i]) for i in supp_f if g[i])
    k = max(k, 1)
    witness = Word.from_dense(tuple(k * e for e in ftop))
    rs = rewrite.completion(p)
    nf = rs.normal_form(witness)
    if not rs.equal(witness + witness, witness) or nf.is_inf or nf == Word.zero():
        raise RuntimeError("internal error: idempotent witness failed verification")
    return ConnectednessVerdict(DISCONNECTED, SHARED_FACTOR, witness)


N_INFINITY = "N_infinity"
CYCLIC_GROUP = "CyclicGroup"
LOOP = "Loop"
NILPOTENT = "Nilpotent"


@dataclass(frozen=True)
class OneGeneratedClass:
    kind: str
    modulus: Optional[int] = None  # n for (Z/nZ), m for the nilpotent type
    initial_pair: Optional[tuple[int, int]] = None
    loop_length: Optional[int] = None


def classify_one_generated(p: Presentation) -> OneGeneratedClass:
    """Sort a one-generated presentation into the four isomorphism types."""
    if p.rank != 1:
        raise PresentationError("expected exactly one generator")
    rules = rewrite.completion(p).rules
    if not rules:
        return OneGeneratedClass(N_INFINITY)
    # a reduced system on one generator is a single rule
    rule = rules[0]
    s = rule.lhs.degree()
    if rule.rhs.is_inf:
        return OneGeneratedClass(NILPOTENT, modulus=s)
    r = rule.rhs.degree()
    if r == 0:
        return OneGeneratedClass(
            CYCLIC_GROUP, modulus=s, initial_pair=(0, s), loop_length=s
        )
    return OneGeneratedClass(LOOP, initial_pair=(r, s), loop_length=s - r)


@dataclass(frozen=True)
class TorsionReport:
    group: AbelianGroupData
    torsion_free: bool
    hypothesis: str = (
        "decides torsion-freeness of the binoid only under the caller's"
        " assertion that it is cancellative"
    )


def torsion_free_cancellative_quotient(p: Presentation) -> TorsionReport:
    """Difference group over the minimal prime of an integral presentation."""
    rs = rewrite.completion(p)
    if not spectrum.is_integral(p):
        raise NotIntegral("the presentation is not integral")
    group = diff_group_at(p, spectrum.PrimeIdeal(rs.absorbed_generators()))
    return TorsionReport(group=group, torsion_free=group.torsion_free)
