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
    PresentationError,
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
from .words import Word

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


def _emit(args, command: str, inputs, result, human: str) -> None:
    if getattr(args, "json", False):
        payload = {"command": command, "input": inputs, "result": result}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _prime_names(p: Presentation, prime: spectrum.PrimeIdeal) -> list[str]:
    return [p.generators[i] for i in prime.gens]


def _budget(args) -> int:
    return args.budget if args.budget is not None else rewrite.DEFAULT_BUDGET


def _witness_budget(args) -> int:
    return args.budget if args.budget is not None else grading.DEFAULT_WITNESS_BUDGET


def build_parser() -> _Parser:
    top = _Parser(prog="binoidal", description=__doc__)
    top.add_argument("--threads", type=int, default=None, help=argparse.SUPPRESS)
    sub = top.add_subparsers(dest="verb", required=True)

    def add(verb, *, pres=0, extra=None, complex_arg=False, word_args=0):
        sp = sub.add_parser(verb)
        if pres == 1:
            sp.add_argument("presentation")
        else:
            for k in range(pres):
                sp.add_argument(f"presentation{k + 1}")
        if complex_arg:
            sp.add_argument("complex")
        if word_args == 1:
            sp.add_argument("word")
        else:
            for k in range(word_args):
                sp.add_argument(f"word{k + 1}")
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--budget", type=int, default=None)
        sp.add_argument("--force", action="store_true")
        sp.add_argument("--threads", type=int, default=None, help=argparse.SUPPRESS)
        if extra:
            extra(sp)
        return sp

    add("spec", pres=1, extra=lambda sp: sp.add_argument("--dot", action="store_true"))
    add("dim", pres=1)
    add("fvector", pres=1)
    add(
        "minimal-primes",
        pres=1,
        extra=lambda sp: sp.add_argument("--over", default=None),
    )
    add("predicates", pres=1)
    add("bool", pres=1, extra=lambda sp: sp.add_argument("--dot", action="store_true"))
    add("gb", pres=1)
    add("nf", pres=1, word_args=1)
    add("eq", pres=1, word_args=2)
    hp = sub.add_parser("hilbert")
    hp.add_argument("n", type=int)
    hp.add_argument("presentation")
    hp.add_argument("--json", action="store_true")
    hp.add_argument("--budget", type=int, default=None)
    hp.add_argument("--force", action="store_true")
    hp.add_argument("--threads", type=int, default=None, help=argparse.SUPPRESS)
    add("grading", pres=1)
    add("separated", pres=1)
    add("sepdim", pres=1)
    add(
        "count-points",
        pres=1,
        extra=lambda sp: (
            sp.add_argument("--q", type=int, required=True),
            sp.add_argument("--oracle", action="store_true"),
        ),
    )
    add(
        "export-algebra",
        pres=1,
        extra=lambda sp: sp.add_argument(
            "--format",
            default="generic",
            choices=["generic", "macaulay2", "singular"],
        ),
    )
    add("hypersurface-connected", pres=1)
    add("classify-one-gen", pres=1)
    add("smash", pres=2)
    add("product", pres=2)
    add("biunion", pres=2)
    qp = sub.add_parser("quotient")
    qp.add_argument("presentation")
    qp.add_argument("ideal_words", nargs="*")
    qp.add_argument("--json", action="store_true")
    qp.add_argument("--budget", type=int, default=None)
    qp.add_argument("--force", action="store_true")
    qp.add_argument("--threads", type=int, default=None, help=argparse.SUPPRESS)
    for verb in (
        "simplicial:fvector",
        "simplicial:nonfaces",
        "simplicial:components",
        "simplicial:binoid",
        "simplicial:cup",
        "simplicial:cap",
    ):
        add(verb, complex_arg=True)
    add(
        "simplicial:sr",
        complex_arg=True,
        extra=lambda sp: sp.add_argument(
            "--format",
            default="generic",
            choices=["generic", "macaulay2", "singular"],
        ),
    )
    add("simplicial:recognize", pres=1)
    return top


def _word_json(w: Word, p: Presentation) -> str:
    return w.pretty(p.generators)


def _run(args) -> int:
    verb = args.verb
    if verb in ("smash", "product", "biunion"):
        p1 = parse_presentation(_read_arg(args.presentation1))
        p2 = parse_presentation(_read_arg(args.presentation2))
        if verb == "smash":
            out = smash(p1, p2)
        elif verb == "product":
            out = product([p1, p2])
        else:
            out = bipointed_union(p1, p2)
        _emit(
            args,
            verb,
            [p1.pretty(), p2.pretty()],
            {"presentation": out.pretty()},
            out.pretty(),
        )
        return EXIT_OK

    if verb == "quotient":
        p = parse_presentation(_read_arg(args.presentation))
        words = [parse_term(w, p) for w in args.ideal_words]
        out = rees_quotient(p, words)
        _emit(
            args,
            verb,
            [p.pretty()] + args.ideal_words,
            {"presentation": out.pretty()},
            out.pretty(),
        )
        return EXIT_OK

    if verb.startswith("simplicial:") and verb != "simplicial:recognize":
        return _run_simplicial(args, verb)

    p = parse_presentation(_read_arg(args.presentation))
    text = p.pretty()

    if verb == "spec":
        s = spectrum.compute_spectrum(p, force=args.force)
        primes = [_prime_names(p, q) for q in s.primes]
        if args.dot:
            print(dot.spectrum_dot(s), end="")
            return EXIT_OK
        _emit(
            args,
            verb,
            text,
            {"primes": primes},
            "\n".join("{" + ",".join(names) + "}" for names in primes),
        )
        return EXIT_OK

    if verb == "dim":
        value = spectrum.dim(p, force=args.force)
        _emit(args, verb, text, {"dim": value}, str(value))
        return EXIT_OK

    if verb == "fvector":
        fv = spectrum.f_vector(p)
        _emit(
            args,
            verb,
            text,
            {"f": list(fv.entries)},
            "(" + ", ".join(map(str, fv.entries)) + ")",
        )
        return EXIT_OK

    if verb == "minimal-primes":
        if args.over:
            gens = [parse_term(w, p) for w in args.over.split(",")]
            mins = spectrum.minimal_primes_over(p, gens)
        else:
            mins = spectrum.minimal_primes(p)
        primes = [_prime_names(p, q) for q in mins]
        _emit(
            args,
            verb,
            text,
            {"minimal_primes": primes},
            "\n".join("{" + ",".join(names) + "}" for names in primes),
        )
        return EXIT_OK

    if verb == "predicates":
        preds = spectrum.predicates(p)
        result = {
            "integral": preds.integral,
            "positive": preds.positive,
            "units": list(preds.units),
            "reduced": preds.reduced,
            "binoid_group": preds.binoid_group,
            "boolean": preds.boolean,
        }
        human = "\n".join(f"{k}: {v}" for k, v in result.items())
        _emit(args, verb, text, result, human)
        return EXIT_OK

    if verb == "bool":
        b = spectrum.booleanize(p)
        names = [_prime_names(p, q) for q in b.spectrum.primes]
        elements = [[names[k] for k in positions] for positions in b.positions]
        if args.dot:
            print(dot.boolean_dot(b), end="")
            return EXIT_OK
        _emit(
            args,
            verb,
            text,
            {"cardinality": b.cardinality, "elements": elements},
            f"cardinality {b.cardinality}",
        )
        return EXIT_OK

    if verb == "gb":
        rs = rewrite.complete(p, budget=_budget(args))
        lines = [rule.pretty(p.generators) for rule in rs.rules]
        _emit(
            args,
            verb,
            text,
            {"rules": [{"lhs": r.lhs.pretty(p.generators), "rhs": r.rhs.pretty(p.generators)} for r in rs.rules]},
            "\n".join(lines),
        )
        return EXIT_OK

    if verb == "nf":
        rs = rewrite.complete(p, budget=_budget(args))
        w = parse_term(args.word, p)
        nf = rs.normal_form(w)
        _emit(args, verb, [text, args.word], {"nf": _word_json(nf, p)}, _word_json(nf, p))
        return EXIT_OK

    if verb == "eq":
        rs = rewrite.complete(p, budget=_budget(args))
        u = parse_term(args.word1, p)
        v = parse_term(args.word2, p)
        value = rs.equal(u, v)
        _emit(args, verb, [text, args.word1, args.word2], {"equal": value}, str(value).lower())
        return EXIT_OK

    if verb == "hilbert":
        value = rewrite.hilbert_samuel(p, args.n)
        _emit(args, verb, [args.n, text], {"n": args.n, "value": value}, str(value))
        return EXIT_OK

    if verb == "grading":
        g = grading.find_positive_grading(p)
        weights = list(g.weights) if g else None
        _emit(args, verb, text, {"grading": weights}, str(weights))
        return EXIT_OK

    if verb == "separated":
        report = grading.is_separated(p, degree_budget=_witness_budget(args))
        witness = None
        if report.witness:
            witness = {
                "f": _word_json(report.witness[0], p),
                "g": _word_json(report.witness[1], p),
            }
        result = {
            "grading": list(report.grading.weights) if report.grading else None,
            "verdict": report.verdict,
            "witness": witness,
            "certified": report.verdict == grading.SEPARATED,
        }
        _emit(args, verb, text, result, report.verdict)
        return EXIT_UNDECIDED if report.verdict == grading.UNKNOWN else EXIT_OK

    if verb == "sepdim":
        value, certified = grading.sepdim(p, degree_budget=_witness_budget(args))
        _emit(
            args,
            verb,
            text,
            {"value": value, "certified": certified},
            f"{value} ({'certified' if certified else 'upper bound'})",
        )
        return EXIT_OK

    if verb == "count-points":
        counts = algebra.count_points(p, args.q)
        per_prime = [
            {
                "prime": _prime_names(p, prime),
                "rank": group.rank,
                "factors": list(group.invariant_factors),
                "count": n,
            }
            for prime, group, n in counts.per_prime
        ]
        result = {"q": counts.q, "count": counts.count, "per_prime": per_prime}
        if args.oracle:
            result["oracle"] = algebra.brute_force_count(p, args.q)
        _emit(args, verb, text, result, str(counts.count))
        return EXIT_OK

    if verb == "export-algebra":
        print(algebra.export_algebra(p, fmt=args.format))
        return EXIT_OK

    if verb == "hypersurface-connected":
        verdict = algebra.hypersurface_connectedness(p)
        witness = (
            _word_json(verdict.idempotent_witness, p)
            if verdict.idempotent_witness
            else None
        )
        result = {
            "verdict": verdict.verdict,
            "case": verdict.case,
            "witness": witness,
            "assumption": verdict.field_assumption,
        }
        _emit(args, verb, text, result, verdict.verdict)
        return EXIT_UNDECIDED if verdict.verdict == algebra.OUT_OF_SCOPE else EXIT_OK

    if verb == "classify-one-gen":
        c = algebra.classify_one_generated(p)
        result = {
            "type": c.kind,
            "modulus": c.modulus,
            "initial_pair": list(c.initial_pair) if c.initial_pair else None,
            "loop_length": c.loop_length,
        }
        _emit(args, verb, text, result, c.kind)
        return EXIT_OK

    if verb == "simplicial:recognize":
        delta, failed = simplicial.recognize_simplicial_report(p)
        if delta is None:
            _emit(
                args,
                verb,
                text,
                {"complex": None, "failed_axiom": failed},
                f"not a simplicial binoid ({failed})",
            )
            return EXIT_UNDECIDED
        _emit(
            args,
            verb,
            text,
            {"complex": delta.pretty(), "failed_axiom": None},
            delta.pretty(),
        )
        return EXIT_OK

    raise UsageError(f"unknown verb {verb}")


def _run_simplicial(args, verb: str) -> int:
    delta = parse_complex(_read_arg(args.complex))
    text = delta.pretty()
    if verb == "simplicial:fvector":
        fv = simplicial.f_vector(delta)
        _emit(
            args,
            verb,
            text,
            {"f": list(fv.entries), "dim": simplicial.dimension(delta)},
            "(" + ", ".join(map(str, fv.entries)) + ")",
        )
        return EXIT_OK
    if verb == "simplicial:nonfaces":
        nf = [
            [delta.vertices[i] for i in sorted(s)]
            for s in simplicial.minimal_nonfaces(delta)
        ]
        _emit(
            args,
            verb,
            text,
            {"minimal_nonfaces": nf},
            "\n".join("{" + ",".join(f) + "}" for f in nf) or "none",
        )
        return EXIT_OK
    if verb == "simplicial:components":
        comps = simplicial.connected_components(delta)
        _emit(
            args,
            verb,
            text,
            {"components": [c.pretty() for c in comps]},
            "\n".join(c.pretty() for c in comps),
        )
        return EXIT_OK
    if verb == "simplicial:binoid":
        out = simplicial.simplicial_binoid(delta)
        _emit(args, verb, text, {"presentation": out.pretty()}, out.pretty())
        return EXIT_OK
    if verb == "simplicial:cup":
        out = simplicial.delta_cup_binoid(delta)
        _emit(args, verb, text, {"presentation": out.pretty()}, out.pretty())
        return EXIT_OK
    if verb == "simplicial:sr":
        print(simplicial.sr_ideal(delta, fmt=args.format))
        return EXIT_OK
    if verb == "simplicial:cap":
        report = simplicial.cap_classification(delta)
        result = {
            "components": list(report.component_labels),
            "isomorphic": report.isomorphic,
        }
        _emit(
            args,
            verb,
            text,
            result,
            ("yes: " if report.isomorphic else "no: ")
            + ", ".join(report.component_labels),
        )
        return EXIT_OK
    raise UsageError(f"unknown verb {verb}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PresentationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except _PRECONDITION_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BinoidalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
