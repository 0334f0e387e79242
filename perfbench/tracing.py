"""Per-layer tracing from outside the library.

``Tracer.install`` swaps a span-recording wrapper in for every public
function of each ``binoidal`` layer module, wherever a module of the package
holds a reference to it, and for a fixed list of public methods.  Value
types (``words``, ``presentation``, ``errors``) are left alone, so their
time counts as self time of the layer that calls them.  ``remove`` puts the
originals back.

Spans live in flat arrays in memory: name, parent span, job id, start and
end.  A span's self time is its duration minus the durations of its direct
children; calls nest on the one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "parser", "rewrite", "spectrum", "grading", "algebra", "simplicial", "dot")

# public methods that are layer entry points; other methods of value-like
# classes (PrimeIdeal, SimplicialComplex.has_face, ...) stay unwrapped
METHODS = {
    "rewrite": {"RewriteSystem": ("normal_form", "equal", "is_monomial_only",
                                  "critical_pairs_join")},
    "spectrum": {"Spectrum": ("heights", "prime_dims", "height", "prime_dim", "covers")},
    "simplicial": {"SimplicialComplex": ("faces",)},
}

# metric -> functions whose self time it sums, in milliseconds
SELF_MS = {
    "cli.build_parser_ms": ("cli.build_parser",),
    "cli.main_self_ms": ("cli.main",),
    "parser.parse_ms": ("parser.parse_presentation", "parser.parse_term",
                        "parser.parse_complex"),
    "rewrite.complete_ms": ("rewrite.complete",),
    "rewrite.normal_form_ms": ("rewrite.RewriteSystem.normal_form",
                               "rewrite.RewriteSystem.equal", "rewrite.normal_form",
                               "rewrite.equal"),
    "rewrite.enumerate_ms": ("rewrite.enumerate_elements",),
    "rewrite.order_delta_ms": ("rewrite.order_delta",),
    "rewrite.hilbert_self_ms": ("rewrite.hilbert_samuel",),
    "spectrum.scan_ms": ("spectrum.compute_spectrum",),
    "spectrum.poset_ms": ("spectrum.Spectrum.heights", "spectrum.Spectrum.prime_dims",
                          "spectrum.Spectrum.covers", "spectrum.Spectrum.height",
                          "spectrum.Spectrum.prime_dim"),
    "spectrum.predicates_ms": ("spectrum.predicates",),
    "spectrum.booleanize_ms": ("spectrum.booleanize",),
    "grading.simplex_ms": ("grading.find_positive_grading",),
    "grading.witness_ms": ("grading.find_unseparated", "grading.sepdim"),
    "grading.separated_self_ms": ("grading.is_separated",),
    "algebra.snf_ms": ("algebra.smith_normal_form",),
    "algebra.count_points_self_ms": ("algebra.count_points", "algebra.diff_group_at"),
    "algebra.oracle_ms": ("algebra.brute_force_count",),
    "simplicial.nonfaces_ms": ("simplicial.minimal_nonfaces",),
    "simplicial.faces_ms": ("simplicial.SimplicialComplex.faces",),
    "simplicial.recognize_ms": ("simplicial.recognize_simplicial_report",
                                "simplicial.recognize_simplicial"),
    "dot.emit_ms": ("dot.spectrum_dot", "dot.boolean_dot"),
}

# metric -> functions whose calls it counts
CALLS = {
    "parser.calls": SELF_MS["parser.parse_ms"],
    "rewrite.complete_calls": ("rewrite.complete",),
    "rewrite.normal_form_calls": ("rewrite.RewriteSystem.normal_form",),
    "rewrite.order_delta_calls": ("rewrite.order_delta",),
    "spectrum.scan_calls": ("spectrum.compute_spectrum",),
    "spectrum.poset_calls": SELF_MS["spectrum.poset_ms"],
    "spectrum.predicates_calls": ("spectrum.predicates",),
    "grading.simplex_calls": ("grading.find_positive_grading",),
    "grading.witness_calls": SELF_MS["grading.witness_ms"],
    "algebra.snf_calls": ("algebra.smith_normal_form",),
}


def _hooks(counts: Counter, distinct: dict):
    """Counters taken from arguments and results at the layer boundary."""

    def complete(args, result):
        distinct.setdefault("complete", set()).add(hash(args[0]))
        counts["rewrite.rules_final"] += len(result.rules)

    def scan(args, result):
        distinct.setdefault("scan", set()).add(hash(args[0]))
        counts["spectrum.subsets_visited"] += 2 ** args[0].rank
        counts["spectrum.primes_found"] += len(result.primes)

    def oracle(args, result):
        counts["algebra.oracle_assignments"] += args[1] ** args[0].rank

    return {
        "rewrite.complete": complete,
        "spectrum.compute_spectrum": scan,
        "algebra.brute_force_count": oracle,
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_job = -1
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- wrap

    def _wrap(self, qualname: str, fn, hook):
        nid = len(self.names)
        self.names.append(qualname)
        span_name, parent, job = self.span_name, self.parent, self.job
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(tracer.current_job)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        hooks = _hooks(self.counts, self.distinct)
        package = {
            name: mod for name, mod in sys.modules.items()
            if name == "binoidal" or name.startswith("binoidal.")
        }
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = package[f"binoidal.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    qual = f"{layer}.{name}"
                    wrappers[id(obj)] = self._wrap(qual, obj, hooks.get(qual))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    qual = f"{layer}.{cls_name}.{meth}"
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(qual, original, hooks.get(qual)))
        for mod in package.values():
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._restore.append((namespace, key, value))
                    namespace[key] = wrappers[id(value)]

    def remove(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    # ------------------------------------------------------------- analyse

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self seconds and call count per wrapped function."""
        n = len(self.span_name)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        own: dict[str, float] = {}
        calls: Counter = Counter()
        names = self.names
        for i in range(n):
            name = names[self.span_name[i]]
            own[name] = own.get(name, 0.0) + (end[i] - start[i]) - child[i]
            calls[name] += 1
        return own, calls

    def metrics(self) -> dict[str, float]:
        own, calls = self.self_times()
        out: dict[str, float] = {}
        for metric, funcs in SELF_MS.items():
            out[metric] = 1000 * sum(own.get(f, 0.0) for f in funcs)
        for metric, funcs in CALLS.items():
            out[metric] = sum(calls[f] for f in funcs)
        for key in ("rewrite.rules_final", "spectrum.subsets_visited",
                    "spectrum.primes_found", "algebra.oracle_assignments"):
            out[key] = self.counts[key]
        out["rewrite.complete_useful_ratio"] = _ratio(
            len(self.distinct.get("complete", ())), calls["rewrite.complete"])
        out["spectrum.scan_useful_ratio"] = _ratio(
            len(self.distinct.get("scan", ())), calls["spectrum.compute_spectrum"])
        return out

    def write(self, path: Path) -> None:
        """Spans as a JSON header plus five flat arrays in native byte order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = (self.span_name, self.parent, self.job, self.start, self.end)
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "byteorder": sys.byteorder,
            "arrays": [f"{name}:{arr.typecode}" for name, arr in
                       zip(("name", "parent", "job", "start", "end"), arrays)],
        }
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in arrays:
                arr.tofile(fh)


def _ratio(useful: int, attempts: int) -> float:
    return useful / attempts if attempts else 1.0
