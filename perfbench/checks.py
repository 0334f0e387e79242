"""Independent checks of one job's output.

``check(job, code, out)`` returns ``None`` when the output is right,
``UNDECIDED`` for a budget or Unknown exit where that is a valid answer, and
a one-line reason otherwise.  Each job kind is checked against the reference
computations in ``oracles``, never against the library.
"""

from __future__ import annotations

import functools
import json
import math
import re

import oracles
from workloads import Job, simplicial_presentation

EXIT_OK, EXIT_UNDECIDED, EXIT_PRECONDITION = 0, 2, 3

# kinds for which exit code 2 (budget exhausted or Unknown) is a valid answer
UNDECIDABLE = {"gb", "nf", "eq", "separated"}
UNDECIDED = "undecided"  # counted in undecided_share, not checked

_TERM = re.compile(r"^(\d*)([A-Za-z_][A-Za-z0-9_]*)$")


def parse_word(text: str, names):
    """Inverse of ``workloads.word_text``."""
    if text == "inf":
        return None
    v = [0] * len(names)
    if text != "0":
        for part in text.split("+"):
            m = _TERM.match(part)
            if not m:
                raise ValueError(f"bad word {text!r}")
            v[names.index(m.group(2))] += int(m.group(1) or 1)
    return tuple(v)


def check(job: Job, code: int, out: str):
    if code == EXIT_UNDECIDED and job.kind in UNDECIDABLE:
        return UNDECIDED
    handler = CHECKS[job.kind]
    try:
        return handler(job, code, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def _result(code: int, out: str):
    if code != EXIT_OK:
        raise ValueError(f"exit code {code}, expected {EXIT_OK}")
    return json.loads(out)["result"]


def _mismatch(what, got, want):
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


# --------------------------------------------------------------------------
# spectrum-poset


def _spectrum(job: Job, code: int, out: str):
    p = job.pres
    masks = oracles.spectrum_masks(p)
    primes = [oracles.mask_names(s, p.names) for s in masks]
    if job.kind == "spec-dot":
        return _dot(code, out, p, masks)
    res = _result(code, out)
    if job.kind == "spec":
        return _mismatch("primes", res["primes"], primes)
    if job.kind == "dim":
        return _mismatch("dim", res["dim"], oracles.chain_dim(masks, p.rank))
    if job.kind == "fvector":
        return _mismatch("f", res["f"], oracles.f_vector(masks, p.rank))
    if job.kind == "minimal-primes":
        mins = oracles.minimal_masks(masks, p.rank)
        return _mismatch("minimal primes", res["minimal_primes"],
                         [oracles.mask_names(s, p.names) for s in mins])
    if job.kind == "bool":
        return _mismatch("cardinality", (res["cardinality"], len(res["elements"])),
                         (len(masks) + 1, len(masks) + 1))
    if job.kind == "predicates":
        union = 0
        for s in masks:
            union |= s
        units = [n for i, n in enumerate(p.names) if not union >> i & 1]
        dim = oracles.chain_dim(masks, p.rank)
        return (
            _mismatch("units", res["units"], units)
            or _mismatch("positive", res["positive"], not units)
            or _mismatch("binoid_group", res["binoid_group"],
                         res["integral"] and dim == 0)
        )
    raise KeyError(job.kind)


_NODE = re.compile(r'^  "(\{[^"]*\})";$')
_EDGE = re.compile(r'^  "(\{[^"]*\})" -> "(\{[^"]*\})";$')


def _dot(code: int, out: str, p, masks):
    if code != EXIT_OK:
        return f"exit code {code}"
    lines = out.splitlines()
    if lines[:2] != ["digraph spec {", "  rankdir=BT;"] or lines[-1] != "}":
        return "not a spec digraph"
    label = {s: "{" + ",".join(oracles.mask_names(s, p.names)) + "}" for s in masks}
    nodes, edges = [], set()
    for line in lines[2:-1]:
        if m := _NODE.match(line):
            nodes.append(m.group(1))
        elif m := _EDGE.match(line):
            edges.add(m.groups())
        else:
            return f"unexpected DOT line {line!r}"
    want_edges = {(label[a], label[b]) for a, b in oracles.covers(masks)}
    return _mismatch("nodes", nodes, [label[s] for s in masks]) or _mismatch(
        "covers", edges, want_edges
    )


_COMPLEX = re.compile(r"^complex\{([^;]*); (.*)\}$")


def _simplicial(job: Job, code: int, out: str):
    delta = job.data["complex"]
    res = _result(code, out)
    if job.kind == "simplicial:nonfaces":
        want = [[delta.names[i] for i in sorted(f)] for f in oracles.minimal_nonfaces(delta)]
        return _mismatch("minimal nonfaces", res["minimal_nonfaces"], want)
    if job.kind == "simplicial:binoid":
        return _mismatch("presentation", res["presentation"],
                         simplicial_presentation(delta).dsl())
    m = _COMPLEX.match(res["complex"] or "")
    if res["failed_axiom"] is not None or not m:
        return f"not recognized: {res['failed_axiom']}"
    facets = {frozenset(f.split(",")) - {""} for f in re.findall(r"\{([^{}]*)\}", m.group(2))}
    want = {frozenset(delta.names[i] for i in f) for f in delta.facets}
    return _mismatch("vertices", m.group(1).split(","), list(delta.names)) or _mismatch(
        "facets", facets, want
    )


# --------------------------------------------------------------------------
# word-problem

SLACK = (0, 3, 6, 10, 16)  # saturation windows tried above the largest degree
WINDOW_NODES = 300_000  # larger windows cost too much to build


def _windows(*words):
    d = max(sum(w) for w in words if w is not None)
    r = len(next(w for w in words if w is not None))
    return [d + s for s in SLACK if s == 0 or math.comb(d + s + r, r) <= WINDOW_NODES]


@functools.lru_cache(maxsize=16)
def _word_oracle(p) -> oracles.WordOracle:
    """gb, nf and eq jobs of one presentation share its closures."""
    return oracles.WordOracle(p)


def _nf(job: Job, code: int, out: str):
    p = job.pres
    w = job.data["word"]
    v = parse_word(_result(code, out)["nf"], p.names)
    find = _word_oracle(job.pres).linked(w, v, _windows(w, v))
    if find is None:
        return f"normal form {v} of {w} not confirmed by saturation"
    if v is None:
        return None
    root = find(w)
    if find(oracles.INF_NODE) == root:
        return f"{w} is absorbing, normal form {v} is finite"
    key = oracles.grlex_key(v)
    for u in oracles.words_up_to(p.rank, sum(v)):
        if oracles.grlex_key(u) < key and find(u) == root:
            return f"{u} is smaller than the normal form {v} and equal to it"
    return None


def _eq(job: Job, code: int, out: str):
    a, b = job.data["words"]
    claimed = _result(code, out)["equal"]
    windows = _windows(a, b)
    # a claimed equality may need a wide window; a refusal is refuted by any
    linked = _word_oracle(job.pres).linked(a, b, windows if claimed else windows[:1])
    return _mismatch("equal", claimed, linked is not None)


def _gb(job: Job, code: int, out: str):
    p = job.pres
    rules = [
        (parse_word(r["lhs"], p.names), parse_word(r["rhs"], p.names))
        for r in _result(code, out)["rules"]
    ]
    wo = _word_oracle(job.pres)
    for l, r in rules:
        if l is None or wo.linked(l, r, _windows(l, r)) is None:
            return f"rule {l} -> {r} not confirmed by saturation"
    # every word linked to a smaller word or to inf must be reducible
    top = max(sum(l) for l, _ in p.rels) + 2
    find = wo.find(top + 3)
    lhss = [l for l, _ in rules]
    best: dict = {}
    inf_root = find(oracles.INF_NODE)
    words = list(oracles.words_up_to(p.rank, top + 3))
    for u in words:
        root = find(u)
        if root not in best or oracles.grlex_key(u) < oracles.grlex_key(best[root]):
            best[root] = u
    for u in words:
        if sum(u) > top:
            break
        root = find(u)
        if (root == inf_root or best[root] != u) and not any(
            all(a <= b for a, b in zip(l, u)) for l in lhss
        ):
            return f"{u} is not a normal form but no rule applies"
    return None


def _nf_large(job: Job, code: int, out: str):
    """Closed form for free(x,y,z)/(2x = x, x + y = y): y absorbs x, else
    x is idempotent."""
    a, b, c = job.data["word"]
    want = (0, b, c) if b else (1, 0, c)
    got = parse_word(_result(code, out)["nf"], job.pres.names)
    return _mismatch("normal form", got, want)


# --------------------------------------------------------------------------
# graded-analysis


def _weights_ok(p, weights) -> bool:
    return all(isinstance(w, int) and w >= 1 for w in weights) and oracles.balances(
        p, weights
    )


def _hilbert(job: Job, code: int, out: str):
    """Classes of order < n, counted on saturation classes.

    Relations preserve the weight of a grading, so every class of a word of
    weight <= L lies inside the degree window L / min(weight), where the
    closure is exact.  The presentations here have no absorbing relations.
    """
    p = job.pres
    n = job.data["n"]
    weights = oracles.positive_weights(p)
    if weights is None:  # no positive grading: a precondition violation
        return _mismatch("exit code", code, EXIT_PRECONDITION)
    value = _result(code, out)["value"]
    window = (n - 1) * max(weights) // min(weights)
    find = oracles.WordOracle(p).find(window)
    top: dict = {}
    for u in oracles.words_up_to(p.rank, window):
        root = find(u)
        top[root] = max(top.get(root, 0), sum(u))
    low = {find(u) for u in oracles.words_up_to(p.rank, n - 1)}
    return _mismatch("value", value, sum(1 for root in low if top[root] < n))


def _grading(job: Job, code: int, out: str):
    weights = _result(code, out)["grading"]
    exists = oracles.positive_weights(job.pres) is not None
    if weights is None:
        return None if not exists else "no grading reported, but one exists"
    return None if _weights_ok(job.pres, weights) else f"invalid weights {weights}"


def _separated(job: Job, code: int, out: str):
    p = job.pres
    res = _result(code, out)
    exists = oracles.positive_weights(p) is not None
    if res["verdict"] == "Separated":
        if not _weights_ok(p, res["grading"] or []):
            return f"separated with invalid grading {res['grading']}"
        return None
    if res["verdict"] != "NotSeparated" or exists:
        return f"verdict {res['verdict']} for a gradable presentation"
    f = parse_word(res["witness"]["f"], p.names)
    g = parse_word(res["witness"]["g"], p.names)
    if f is None or g is None or not any(g):
        return f"bad witness {f}, {g}"
    fg = tuple(x + y for x, y in zip(f, g))
    if oracles.WordOracle(p).linked(f, fg, _windows(fg)) is None:
        return f"witness f + g ~ f not confirmed for {f}, {g}"
    return None


def _sepdim(job: Job, code: int, out: str):
    p = job.pres
    res = _result(code, out)
    dim = oracles.chain_dim(oracles.spectrum_masks(p), p.rank)
    if oracles.positive_weights(p) is not None:
        return _mismatch("sepdim", (res["value"], res["certified"]), (dim, True))
    return None if -1 <= res["value"] <= dim else f"sepdim {res['value']} above dim {dim}"


def _count(job: Job, code: int, out: str):
    res = _result(code, out)
    want = oracles.point_count(job.pres, job.data["q"])
    return _mismatch("count", res["count"], want) or _mismatch(
        "oracle", res.get("oracle", want), want
    )


CHECKS = {
    "spec": _spectrum,
    "spec-dot": _spectrum,
    "dim": _spectrum,
    "fvector": _spectrum,
    "minimal-primes": _spectrum,
    "predicates": _spectrum,
    "bool": _spectrum,
    "simplicial:nonfaces": _simplicial,
    "simplicial:binoid": _simplicial,
    "simplicial:recognize": _simplicial,
    "gb": _gb,
    "nf": _nf,
    "eq": _eq,
    "nf-large": _nf_large,
    "hilbert": _hilbert,
    "grading": _grading,
    "separated": _separated,
    "sepdim": _sepdim,
    "count-points": _count,
}
