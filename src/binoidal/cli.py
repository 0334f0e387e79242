"""Command line frontend.

One presentation per invocation, passed as a quoted DSL string (or ``-``
for stdin); constructions take two quoted presentations.  ``--json`` output
follows the stable schema {"command": ..., "input": ..., "result": ...}.

Exit codes: 0 success, 1 parse or usage error, 2 undecided or budget
exhausted, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import algebra, dot, grading, rewrite, simplicial, spectrum
from .errors import (
    BinoidalError,
    BudgetExceeded,
    InvalidGrading,
    IsInfinity,
    NoPositiveGrading,
    NotIntegral,
    NotPositive,
    ParseError,
    TooManyGenerators,
    ZeroBinoid,
)
from .parser import parse_complex, parse_presentation, parse_term
from .presentation import (
    Presentation,
    bipointed_union,
    product,
    rees_quotient,
    smash,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDECIDED = 2
EXIT_PRECONDITION = 3

_PRECONDITION_ERRORS = (
    NotPositive,
    NotIntegral,
    NoPositiveGrading,
    InvalidGrading,
    IsInfinity,
    ZeroBinoid,
    TooManyGenerators,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract wants 1
        raise UsageError(message)


def _read_arg(text: str) -> str:
    if text == "-":
        return sys.stdin.read()
    return text


def _nonnegative_int(text: str) -> int:
    """The ``--budget`` type: an int, refused as a usage error below 0."""
    try:
        value = int(text)
    except ValueError:  # argparse's wording for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _braces(sets) -> str:
    return "\n".join("{" + ",".join(names) + "}" for names in sets)


# Handlers.  Each returns either raw text, printed as is, or the tuple
# (input, result, human[, exit code]) that ``_run`` prints as --json or as
# the human line.


def _pres(args) -> Presentation:
    return parse_presentation(_read_arg(args.presentation))


def _primes(args, p: Presentation, key: str, primes):
    names = [[p.generators[i] for i in q.gens] for q in primes]
    # --json prints no human lines, so they are not built for it
    return p.pretty(), {key: names}, None if args.json else _braces(names)


def _spec(args):
    p = _pres(args)
    s = spectrum.compute_spectrum(p, force=args.force)
    return dot.spectrum_dot(s) if args.dot else _primes(args, p, "primes", s.primes)


def _dim(args):
    p = _pres(args)
    value = spectrum.dim(p, force=args.force)
    return p.pretty(), {"dim": value}, str(value)


def _fvector(args):
    p = _pres(args)
    fv = spectrum.f_vector(p).entries
    return p.pretty(), {"f": list(fv)}, "(" + ", ".join(map(str, fv)) + ")"


def _minimal_primes(args):
    p = _pres(args)
    if args.over:
        mins = spectrum.minimal_primes_over(p, [parse_term(w, p) for w in args.over.split(",")])
    else:
        mins = spectrum.minimal_primes(p)
    return _primes(args, p, "minimal_primes", mins)


def _predicates(args):
    p = _pres(args)
    preds = spectrum.predicates(p)
    result = {
        "integral": preds.integral,
        "positive": preds.positive,
        "units": list(preds.units),
        "reduced": preds.reduced,
        "binoid_group": preds.binoid_group,
        "boolean": preds.boolean,
    }
    return p.pretty(), result, "\n".join(f"{k}: {v}" for k, v in result.items())


def _bool(args):
    p = _pres(args)
    b = spectrum.booleanize(p)
    if args.dot:
        return dot.boolean_dot(b)
    names = [[p.generators[i] for i in q.gens] for q in b.spectrum.primes]
    elements = [[names[k] for k in positions] for positions in b.positions]
    result = {"cardinality": b.cardinality, "elements": elements}
    return p.pretty(), result, f"cardinality {b.cardinality}"


def _gb(args):
    p = _pres(args)
    rules = rewrite.complete(p, budget=args.budget).rules
    g = p.generators
    result = {"rules": [{"lhs": r.lhs.pretty(g), "rhs": r.rhs.pretty(g)} for r in rules]}
    return p.pretty(), result, "\n".join(r.pretty(g) for r in rules)


def _nf(args):
    p = _pres(args)
    rs = rewrite.complete(p, budget=args.budget)
    nf = rs.normal_form(parse_term(args.word, p)).pretty(p.generators)
    return [p.pretty(), args.word], {"nf": nf}, nf


def _eq(args):
    p = _pres(args)
    rs = rewrite.complete(p, budget=args.budget)
    value = rs.equal(parse_term(args.word1, p), parse_term(args.word2, p))
    return [p.pretty(), args.word1, args.word2], {"equal": value}, str(value).lower()


def _hilbert(args):
    p = _pres(args)
    value = rewrite.hilbert_samuel(p, args.n)
    return [args.n, p.pretty()], {"n": args.n, "value": value}, str(value)


def _grading(args):
    p = _pres(args)
    g = grading.find_positive_grading(p)
    weights = list(g.weights) if g else None
    return p.pretty(), {"grading": weights}, str(weights)


def _separated(args):
    p = _pres(args)
    report = grading.is_separated(p, degree_budget=args.budget)
    witness = None
    if report.witness:
        f, g = (w.pretty(p.generators) for w in report.witness)
        witness = {"f": f, "g": g}
    result = {
        "grading": list(report.grading.weights) if report.grading else None,
        "verdict": report.verdict,
        "witness": witness,
        "certified": report.verdict == grading.SEPARATED,
    }
    code = EXIT_UNDECIDED if report.verdict == grading.UNKNOWN else EXIT_OK
    return p.pretty(), result, report.verdict, code


def _sepdim(args):
    p = _pres(args)
    value, certified = grading.sepdim(p)
    return p.pretty(), {"value": value, "certified": certified}, f"{value} (certified)"


def _count_points(args):
    p = _pres(args)
    counts = algebra.count_points(p, args.q)
    per_prime = [
        {
            "prime": [p.generators[i] for i in prime.gens],
            "rank": group.rank,
            "factors": list(group.invariant_factors),
            "count": n,
        }
        for prime, group, n in counts.per_prime
    ]
    result = {"q": counts.q, "count": counts.count, "per_prime": per_prime}
    if args.oracle:
        result["oracle"] = algebra.brute_force_count(p, args.q)
    return p.pretty(), result, str(counts.count)


def _export_algebra(args):
    return algebra.export_algebra(_pres(args), fmt=args.format) + "\n"


def _hypersurface_connected(args):
    p = _pres(args)
    verdict = algebra.hypersurface_connectedness(p)
    witness = verdict.idempotent_witness
    result = {
        "verdict": verdict.verdict,
        "case": verdict.case,
        "witness": witness.pretty(p.generators) if witness else None,
        "assumption": verdict.field_assumption,
    }
    code = EXIT_UNDECIDED if verdict.verdict == algebra.OUT_OF_SCOPE else EXIT_OK
    return p.pretty(), result, verdict.verdict, code


def _classify_one_gen(args):
    p = _pres(args)
    c = algebra.classify_one_generated(p)
    result = {
        "type": c.kind,
        "modulus": c.modulus,
        "initial_pair": list(c.initial_pair) if c.initial_pair else None,
        "loop_length": c.loop_length,
    }
    return p.pretty(), result, c.kind


def _construction(build):
    def handler(args):
        p1 = parse_presentation(_read_arg(args.presentation1))
        p2 = parse_presentation(_read_arg(args.presentation2))
        out = build(p1, p2).pretty()
        return [p1.pretty(), p2.pretty()], {"presentation": out}, out

    return handler


def _quotient(args):
    p = _pres(args)
    out = rees_quotient(p, [parse_term(w, p) for w in args.ideal_words]).pretty()
    return [p.pretty()] + args.ideal_words, {"presentation": out}, out


def _complex(args):
    return parse_complex(_read_arg(args.complex))


def _simplicial_fvector(args):
    delta = _complex(args)
    fv = simplicial.f_vector(delta).entries
    result = {"f": list(fv), "dim": simplicial.dimension(delta)}
    return delta.pretty(), result, "(" + ", ".join(map(str, fv)) + ")"


def _simplicial_nonfaces(args):
    delta = _complex(args)
    nf = [
        [delta.vertices[i] for i in sorted(s)]
        for s in simplicial.minimal_nonfaces(delta)
    ]
    return delta.pretty(), {"minimal_nonfaces": nf}, _braces(nf) or "none"


def _simplicial_components(args):
    delta = _complex(args)
    comps = [c.pretty() for c in simplicial.connected_components(delta)]
    return delta.pretty(), {"components": comps}, "\n".join(comps)


def _complex_to_presentation(build):
    def handler(args):
        delta = _complex(args)
        out = build(delta).pretty()
        return delta.pretty(), {"presentation": out}, out

    return handler


def _simplicial_cap(args):
    delta = _complex(args)
    report = simplicial.cap_classification(delta)
    labels = list(report.component_labels)
    result = {"components": labels, "isomorphic": report.isomorphic}
    human = ("yes: " if report.isomorphic else "no: ") + ", ".join(labels)
    return delta.pretty(), result, human


def _simplicial_sr(args):
    return simplicial.sr_ideal(_complex(args), fmt=args.format) + "\n"


def _simplicial_recognize(args):
    p = _pres(args)
    delta, failed = simplicial.recognize_simplicial_report(p)
    if delta is None:
        human = f"not a simplicial binoid ({failed})"
        return p.pretty(), {"complex": None, "failed_axiom": failed}, human, EXIT_UNDECIDED
    return p.pretty(), {"complex": delta.pretty(), "failed_axiom": None}, delta.pretty()


# One row per verb: its arguments as (name, add_argument kwargs) pairs, in
# the order ``build_parser`` adds them, and its handler.  The row names every
# option the handler reads; the parser refuses any other, except the inert
# ``--threads`` that every verb accepts and the inert ``--budget`` of
# ``sepdim``, whose value is exact without a witness budget.
_PRES = (("presentation", {}),)
_PAIR = (("presentation1", {}), ("presentation2", {}))
_COMPLEX = (("complex", {}),)
_JSON = (("--json", {"action": "store_true"}),)
_FORCE = (("--force", {"action": "store_true"}),)
_DOT = (("--dot", {"action": "store_true"}),)
_FORMAT = (("--format", {"default": "generic", "choices": list(algebra.RING_DIALECTS)}),)
_COMPLETION_BUDGET = (
    ("--budget", {"type": _nonnegative_int, "default": rewrite.DEFAULT_BUDGET}),
)
_WITNESS_BUDGET = (
    ("--budget", {"type": _nonnegative_int, "default": grading.DEFAULT_WITNESS_BUDGET}),
)

_VERBS = {
    "spec": (_PRES + _JSON + _FORCE + _DOT, _spec),
    "dim": (_PRES + _JSON + _FORCE, _dim),
    "fvector": (_PRES + _JSON, _fvector),
    "minimal-primes": (_PRES + _JSON + (("--over", {"default": None}),), _minimal_primes),
    "predicates": (_PRES + _JSON, _predicates),
    "bool": (_PRES + _JSON + _DOT, _bool),
    "gb": (_PRES + _JSON + _COMPLETION_BUDGET, _gb),
    "nf": (_PRES + (("word", {}),) + _JSON + _COMPLETION_BUDGET, _nf),
    "eq": (_PRES + (("word1", {}), ("word2", {})) + _JSON + _COMPLETION_BUDGET, _eq),
    "hilbert": ((("n", {"type": int}),) + _PRES + _JSON, _hilbert),
    "grading": (_PRES + _JSON, _grading),
    "separated": (_PRES + _JSON + _WITNESS_BUDGET, _separated),
    "sepdim": (_PRES + _JSON + _WITNESS_BUDGET, _sepdim),
    "count-points": (
        _PRES
        + _JSON
        + (("--q", {"type": int, "required": True}), ("--oracle", {"action": "store_true"})),
        _count_points,
    ),
    "export-algebra": (_PRES + _FORMAT, _export_algebra),
    "hypersurface-connected": (_PRES + _JSON, _hypersurface_connected),
    "classify-one-gen": (_PRES + _JSON, _classify_one_gen),
    "smash": (_PAIR + _JSON, _construction(smash)),
    "product": (_PAIR + _JSON, _construction(lambda p1, p2: product([p1, p2]))),
    "biunion": (_PAIR + _JSON, _construction(bipointed_union)),
    "quotient": (_PRES + (("ideal_words", {"nargs": "*"}),) + _JSON, _quotient),
    "simplicial:fvector": (_COMPLEX + _JSON, _simplicial_fvector),
    "simplicial:nonfaces": (_COMPLEX + _JSON, _simplicial_nonfaces),
    "simplicial:components": (_COMPLEX + _JSON, _simplicial_components),
    "simplicial:binoid": (
        _COMPLEX + _JSON,
        _complex_to_presentation(simplicial.simplicial_binoid),
    ),
    "simplicial:cup": (_COMPLEX + _JSON, _complex_to_presentation(simplicial.delta_cup_binoid)),
    "simplicial:cap": (_COMPLEX + _JSON, _simplicial_cap),
    "simplicial:sr": (_COMPLEX + _FORMAT, _simplicial_sr),
    "simplicial:recognize": (_PRES + _JSON, _simplicial_recognize),
}


def build_parser() -> _Parser:
    top = _Parser(prog="binoidal", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)
    for verb, (arguments, _) in _VERBS.items():
        sp = sub.add_parser(verb)
        for name, kwargs in arguments:
            sp.add_argument(name, **kwargs)
        sp.add_argument("--threads", type=int, default=None, help=argparse.SUPPRESS)
    return top


def _run(args) -> int:
    out = _VERBS[args.verb][1](args)
    if isinstance(out, str):
        print(out, end="")
        return EXIT_OK
    inputs, result, human, *code = out
    if args.json:
        payload = {"command": args.verb, "input": inputs, "result": result}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)
    return code[0] if code else EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            raise UsageError(f"options follow the verb: {argv[0]} comes before it")
        return _run(build_parser().parse_args(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except _PRECONDITION_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (BinoidalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
