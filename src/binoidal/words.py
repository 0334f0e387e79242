"""Words over a generator alphabet, with a distinguished absorbing word.

A finite word is an exponent function on generator indices; only strictly
positive exponents are stored.  The absorbing word ``Word.inf()`` swallows
everything under addition.  Words are immutable and hashable.
"""

from __future__ import annotations

import re
from typing import Iterable

from .errors import IsInfinity

IDENT_RE = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT = re.compile(IDENT_RE)


def is_identifier(name: str) -> bool:
    """Whether ``name`` can name a generator: the whole string matches
    ``IDENT_RE`` and it is not the reserved ``inf``."""
    return _IDENT.fullmatch(name) is not None and name != "inf"


class Word:
    """Either the absorbing word or a finite multiset of generator indices."""

    __slots__ = ("_exps", "_is_inf")

    def __init__(self, exps: Iterable[tuple[int, int]] = (), *, _inf: bool = False):
        if _inf:
            self._exps: tuple[tuple[int, int], ...] = ()
            self._is_inf = True
            return
        acc: dict[int, int] = {}
        for i, e in exps:
            if i < 0:
                raise ValueError(f"negative generator index {i}")
            if e < 0:
                raise ValueError(f"negative exponent {e} for generator {i}")
            if e:
                acc[i] = acc.get(i, 0) + e
        self._exps = tuple(sorted(acc.items()))
        self._is_inf = False

    _INF: "Word | None" = None

    @classmethod
    def inf(cls) -> "Word":
        if cls._INF is None:
            cls._INF = cls(_inf=True)
        return cls._INF

    @classmethod
    def zero(cls) -> "Word":
        return cls()

    @classmethod
    def generator(cls, i: int, exp: int = 1) -> "Word":
        return cls([(i, exp)])

    @property
    def is_inf(self) -> bool:
        return self._is_inf

    @property
    def exps(self) -> tuple[tuple[int, int], ...]:
        if self._is_inf:
            raise IsInfinity("the absorbing word has no exponents")
        return self._exps

    def exponent(self, i: int) -> int:
        if self._is_inf:
            raise IsInfinity("the absorbing word has no exponents")
        for j, e in self._exps:
            if j == i:
                return e
        return 0

    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.exps)

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def max_index(self) -> int:
        """Largest referenced index, or -1 for the zero word."""
        return self.exps[-1][0] if self.exps else -1

    def __add__(self, other: "Word") -> "Word":
        if self._is_inf or other._is_inf:
            return Word.inf()
        acc = dict(self._exps)
        for i, e in other._exps:
            acc[i] = acc.get(i, 0) + e
        return Word(acc.items())

    def scale(self, k: int) -> "Word":
        if self._is_inf:
            return self
        return Word((i, k * e) for i, e in self._exps)

    def dense(self, r: int) -> tuple[int, ...]:
        """Exponent tuple of length r; requires a finite word within range."""
        if self._is_inf:
            raise IsInfinity("cannot make the absorbing word dense")
        out = [0] * r
        for i, e in self._exps:
            if i >= r:
                raise IndexError(f"word references generator index {i}, only {r} declared")
            out[i] = e
        return tuple(out)

    @classmethod
    def from_dense(cls, t: Iterable[int]) -> "Word":
        return cls((i, e) for i, e in enumerate(t) if e)

    def pretty(self, names: tuple[str, ...] | list[str]) -> str:
        if self._is_inf:
            return "inf"
        if not self._exps:
            return "0"
        parts = []
        for i, e in self._exps:
            name = names[i]
            parts.append(name if e == 1 else f"{e}{name}")
        return "+".join(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self._is_inf == other._is_inf and self._exps == other._exps

    def __hash__(self) -> int:
        return hash((self._is_inf, self._exps))

    def __repr__(self) -> str:
        if self._is_inf:
            return "Word.inf()"
        return f"Word({list(self._exps)!r})"


def grlex_key(w: Word, r: int) -> tuple[int, tuple[int, ...]]:
    """Sort key for the graded lexicographic order, declaration order first.

    Larger keys are larger words; the absorbing word is handled separately
    (it is strictly minimal and has no key).
    """
    return (w.degree(), w.dense(r))


def grlex_less(a: Word, b: Word, r: int) -> bool:
    """True when a is strictly below b; the absorbing word is minimal."""
    if b.is_inf:
        return False
    if a.is_inf:
        return True
    return grlex_key(a, r) < grlex_key(b, r)
