"""Hasse diagram emission in DOT format, plus a small structural checker."""

from __future__ import annotations

import re

from .spectrum import FiniteBooleanBinoid, Spectrum


def _quote(label: str) -> str:
    return '"' + label.replace('"', '\\"') + '"'


def spectrum_dot(s: Spectrum) -> str:
    names = s.presentation.generators
    lines = ["digraph spec {", "  rankdir=BT;"]
    for p in s.primes:
        lines.append(f"  {_quote(p.pretty(names))};")
    for lower, upper in s.covers():
        lines.append(f"  {_quote(lower.pretty(names))} -> {_quote(upper.pretty(names))};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def boolean_dot(b: FiniteBooleanBinoid) -> str:
    names = b.spectrum.presentation.generators

    primes = [q.pretty(names) for q in b.spectrum.primes]
    labels = {
        e: "{" + ",".join(primes[k] for k in positions) + "}"
        for e, positions in zip(b.elements, b.positions)
    }
    lines = ["digraph bool {", "  rankdir=BT;"]
    for e in b.elements:
        lines.append(f"  {_quote(labels[e])};")
    for a in b.elements:
        for c in b.elements:
            if a < c and not any(a < m < c for m in b.elements):
                lines.append(f"  {_quote(labels[a])} -> {_quote(labels[c])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_NODE = re.compile(r'^"(?:[^"\\]|\\.)*";$')
_EDGE = re.compile(r'^"(?:[^"\\]|\\.)*" -> "(?:[^"\\]|\\.)*";$')


def validate_dot(text: str) -> bool:
    """Structural check for the emitted DOT dialect; no external tool."""
    lines = text.splitlines()
    if len(lines) < 2 or not re.match(r"^digraph [A-Za-z_][A-Za-z0-9_]* \{$", lines[0]):
        return False
    if lines[-1] != "}":
        return False
    for line in lines[1:-1]:
        stripped = line.strip()
        if stripped == "rankdir=BT;":
            continue
        if _NODE.match(stripped) or _EDGE.match(stripped):
            continue
        return False
    return True
