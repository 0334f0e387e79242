"""Reference computations that share no code with ``binoidal``.

The spectrum is a bitmask scan over generator subsets with subset DPs for
chain lengths; gradings come from Fourier-Motzkin elimination over the
rationals; point counts enumerate F_q as zero plus a cyclic group; the word
problem uses the saturation closure from ``tests/tests_support.py``, which is
imported read-only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Optional

INF_NODE = "inf"  # the node tests_support.saturation_classes uses for inf


# --------------------------------------------------------------------------
# spectrum


def _masks(v) -> int:
    return sum(1 << i for i, e in enumerate(v) if e)


def spectrum_masks(p) -> list[int]:
    """Admissible generator subsets, by cardinality then lexicographic."""
    compiled = [(_masks(l), None if r is None else _masks(r)) for l, r in p.rels]
    out = []
    for s in range(1 << p.rank):
        for lm, rm in compiled:
            hit = bool(lm & s)
            if (not hit) if rm is None else hit != bool(rm & s):
                break
        else:
            out.append(s)
    return sorted(out, key=lambda s: (bin(s).count("1"), indices(s)))


def spectrum_size(p) -> int:
    """|Spec| by scanning only the generators the relations mention."""
    used = 0
    for l, r in p.rels:
        used |= _masks(l) | (0 if r is None else _masks(r))
    gens = indices(used)
    sub = type(p)(tuple(p.names[i] for i in gens),
                  tuple((tuple(l[i] for i in gens), None if r is None else tuple(r[i] for i in gens))
                        for l, r in p.rels))
    return len(spectrum_masks(sub)) << (p.rank - len(gens))


def indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def mask_names(mask: int, names) -> list[str]:
    return [names[i] for i in indices(mask)]


def _bits(mask: int, r: int):
    return (1 << i for i in range(r) if mask >> i & 1)


def chain_dim(masks: list[int], r: int) -> int:
    """Longest chain of primes minus one, by a DP over all subsets."""
    adm = set(masks)
    longest = [0] * (1 << r)  # most primes in a chain inside the subset
    for s in range(1 << r):
        below = max((longest[s ^ b] for b in _bits(s, r)), default=0)
        longest[s] = below + (s in adm)
    return longest[-1] - 1


def f_vector(masks: list[int], r: int) -> list[int]:
    """Primes counted by the length of the longest chain above them."""
    adm = set(masks)
    full = (1 << r) - 1
    above = [0] * (1 << r)  # most primes in a chain containing the subset
    for s in range(full, -1, -1):
        up = max((above[s | b] for b in _bits(full ^ s, r)), default=0)
        above[s] = up + (s in adm)
    counts: dict[int, int] = {}
    for s in masks:
        counts[above[s] - 1] = counts.get(above[s] - 1, 0) + 1
    return [counts.get(d, 0) for d in range(max(counts) + 1)]


def minimal_masks(masks: list[int], r: int) -> list[int]:
    adm = set(masks)
    has_below = [False] * (1 << r)
    for s in range(1 << r):
        has_below[s] = any(
            (s ^ b) in adm or has_below[s ^ b] for b in _bits(s, r)
        )
    return [s for s in masks if not has_below[s]]


def covers(masks: list[int]) -> set[tuple[int, int]]:
    out = set()
    for lo in masks:
        for hi in masks:
            if lo != hi and lo & hi == lo and not any(
                m not in (lo, hi) and lo & m == lo and m & hi == m for m in masks
            ):
                out.add((lo, hi))
    return out


# --------------------------------------------------------------------------
# simplicial complexes


def minimal_nonfaces(delta) -> list[frozenset[int]]:
    n = len(delta.names)
    facets = [_masks([1 if i in f else 0 for i in range(n)]) for f in delta.facets]
    face = [any(s & f == s for f in facets) for s in range(1 << n)]
    found = [
        s
        for s in range(1 << n)
        if not face[s] and all(face[s ^ b] for b in _bits(s, n))
    ]
    return sorted((frozenset(indices(s)) for s in found), key=lambda f: (len(f), sorted(f)))


# --------------------------------------------------------------------------
# gradings


def positive_weights(p) -> Optional[tuple[int, ...]]:
    """Integer weights >= 1 balancing every relation, or None if none exist.

    Only for relations between finite words.  The equalities are solved for
    pivot variables; the conditions w_i >= 1 on the free variables are then
    decided by Fourier-Motzkin elimination and a point is back-substituted.
    """
    r = p.rank
    rows = [[Fraction(a - b) for a, b in zip(l, rr)] for l, rr in p.rels]
    pivots: list[int] = []
    k = 0
    for col in range(r):
        row = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if row is None:
            continue
        rows[k], rows[row] = rows[row], rows[k]
        piv = rows[k][col]
        rows[k] = [x / piv for x in rows[k]]
        for i in range(len(rows)):
            if i != k and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
        pivots.append(col)
        k += 1
    free = [c for c in range(r) if c not in pivots]
    # w_col as coefficients over the free variables
    expr = {c: [Fraction(int(c == f)) for f in free] for c in free}
    for i, col in enumerate(pivots):
        expr[col] = [-rows[i][f] for f in free]
    # constraints: coeffs . t >= bound
    system = [(expr[c], Fraction(1)) for c in range(r)]
    stages = [system]
    for j in range(len(free)):
        lower = [s for s in system if s[0][j] > 0]
        upper = [s for s in system if s[0][j] < 0]
        nxt = [s for s in system if s[0][j] == 0]
        for (a, b), (c, d) in itertools.product(lower, upper):
            fa, fc = -c[j], a[j]
            nxt.append(([fa * x + fc * y for x, y in zip(a, c)], fa * b + fc * d))
        system = nxt
        stages.append(system)
    if any(b > 0 for _, b in system):
        return None
    t = [Fraction(0)] * len(free)
    for j in reversed(range(len(free))):
        lows, highs = [], []
        for coeffs, b in stages[j]:
            rest = b - sum(coeffs[i] * t[i] for i in range(j + 1, len(free)))
            if coeffs[j] > 0:
                lows.append(rest / coeffs[j])
            elif coeffs[j] < 0:
                highs.append(rest / coeffs[j])
        t[j] = max(lows) if lows else (min(highs) if highs else Fraction(0))
    w = [sum(e * x for e, x in zip(expr[c], t)) for c in range(r)]
    scale = 1
    for x in w:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in w]
    g = 0
    for x in ints:
        g = gcd(g, x)
    out = tuple(x // g for x in ints)
    if min(out) < 1 or any(sum(a * b for a, b in zip(rel, out)) for rel in _diffs(p)):
        raise ArithmeticError("Fourier-Motzkin back-substitution failed")
    return out


def _diffs(p):
    return [[a - b for a, b in zip(l, r)] for l, r in p.rels]


def balances(p, weights) -> bool:
    return all(sum(a * w for a, w in zip(row, weights)) == 0 for row in _diffs(p))


# --------------------------------------------------------------------------
# finite fields


def is_prime(q: int) -> bool:
    return q >= 2 and all(q % k for k in range(2, int(q**0.5) + 1))


def is_prime_power(q: int) -> bool:
    for base in range(2, q + 1):
        if q % base == 0:
            while q % base == 0:
                q //= base
            return q == 1 and is_prime(base)
    return False


def point_count(p, q: int) -> int:
    """Points of the binoid over F_q by enumeration.

    F_q is zero plus a cyclic group of order q - 1, so a point is the set Z
    of generators sent to zero plus discrete logarithms of the rest.
    """
    n = q - 1
    r = p.rank
    total = 0
    for zero in range(1 << r):
        live_rows = []
        for lhs, rhs in p.rels:
            lz = bool(_masks(lhs) & zero)
            rz = rhs is None or bool(_masks(rhs) & zero)
            if lz != rz:
                break
            if not lz:
                live_rows.append([a - b for a, b in zip(lhs, rhs)])
        else:
            free = [i for i in range(r) if not zero >> i & 1]
            if not live_rows:
                total += n ** len(free)
                continue
            rows = [[row[i] for i in free] for row in live_rows]
            for logs in itertools.product(range(n), repeat=len(free)):
                if all(sum(c * x for c, x in zip(row, logs)) % n == 0 for row in rows):
                    total += 1
    return total


# --------------------------------------------------------------------------
# word problem


class _Word:
    def __init__(self, v):
        self.v = v

    @property
    def is_inf(self) -> bool:
        return self.v is None

    def dense(self, r: int):
        return self.v


class _Rel:
    def __init__(self, lhs, rhs):
        self.lhs, self.rhs = _Word(lhs), _Word(rhs)


class _PresView:
    """The attributes of a library presentation that the closure reads."""

    def __init__(self, p):
        self.rank = p.rank
        self.relations = [_Rel(l, r) for l, r in p.rels]


class WordOracle:
    """Saturation classes of one presentation, cached per degree window."""

    def __init__(self, p):
        self.p = p
        self._finds: dict[int, object] = {}

    def find(self, window: int):
        if window not in self._finds:
            from tests_support import saturation_classes

            self._finds[window] = saturation_classes(_PresView(self.p), window)
        return self._finds[window]

    def linked(self, u, v, windows):
        """The closure of the first window that links u and v, else None.

        A link proves equality; no link within the windows proves nothing.
        """
        for w in windows:
            f = self.find(w)
            if f(node(u)) == f(node(v)):
                return f
        return None


def node(v):
    return INF_NODE if v is None else v


def words_up_to(r: int, degree: int):
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(r), d):
            v = [0] * r
            for i in combo:
                v[i] += 1
            yield tuple(v)


def grlex_key(v):
    """The library's term order: total degree, then exponent tuple."""
    return (sum(v), v)
