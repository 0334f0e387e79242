"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import checks  # noqa: E402
import compare  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Pres  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return run.import_library()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_always_gives_the_same_jobs(name):
    first = [j.argv for j in workloads.make_pass(name, 7, 3)]
    again = [j.argv for j in workloads.make_pass(name, 7, 3)]
    other = [j.argv for j in workloads.make_pass(name, 8, 3)]
    assert first == again
    assert first != other


def _free(k):
    return Pres(tuple(workloads.LETTERS[:k]), ())


@pytest.mark.parametrize("k", range(1, 7))
def test_free_dim_and_f_vector(k, cli):
    masks = oracles.spectrum_masks(_free(k))
    binomials = [comb(k, i) for i in range(k + 1)]
    assert oracles.chain_dim(masks, k) == k
    assert oracles.f_vector(masks, k) == binomials
    runner = run.InProcess(cli)
    dim = runner(workloads.Job("dim", ["dim", _free(k).dsl(), "--json"]))[1]
    fv = runner(workloads.Job("fvector", ["fvector", _free(k).dsl(), "--json"]))[1]
    assert json.loads(dim)["result"]["dim"] == k
    assert json.loads(fv)["result"]["f"] == binomials


def _mutations(job, out):
    """Wrong answers of the same shape as the right one."""
    if job.kind == "spec-dot":  # drop the last node or edge
        lines = out.splitlines()
        return "\n".join(lines[:-2] + lines[-1:]) + "\n"
    payload = json.loads(out)
    res = payload["result"]
    if job.kind == "dim":
        res["dim"] += 1
    elif job.kind == "fvector":
        res["f"][0] += 1
    elif job.kind in ("nf", "nf-large"):
        res["nf"] = "inf" if res["nf"] != "inf" else "a"
    elif job.kind == "eq":
        res["equal"] = not res["equal"]
    elif job.kind == "count-points":
        res["count"] += 1
    elif job.kind == "spec":
        res["primes"] = res["primes"][1:]
    elif job.kind == "grading":
        res["grading"] = [0] * job.pres.rank if res["grading"] else [1] * job.pres.rank
    else:
        return None
    return json.dumps(payload)


@pytest.mark.parametrize("name", ["spectrum-poset", "word-problem", "graded-analysis"])
def test_checks_pass_right_answers_and_catch_wrong_ones(name, cli):
    runner = run.InProcess(cli)
    caught = 0
    for job in workloads.make_pass(name, 3, 0):
        code, out, _, crash = runner(job)
        assert crash is None
        assert checks.check(job, code, out) is None, job.argv
        wrong = _mutations(job, out) if code == 0 else None
        if wrong is not None:
            assert checks.check(job, code, wrong) is not None, job.argv
            caught += 1
    assert caught >= 5


def test_checker_process_judges_a_pass_and_ends(cli):
    job = workloads.make_pass("word-problem", 1, 0)[0]
    code, out, _, crash = run.InProcess(cli)(job)
    checker = run.Checker()
    try:
        verdicts = checker.judge([(job, code, out, crash), (job, code, "not json", None)])
    finally:
        checker.close()
    assert verdicts[0] in (None, checks.UNDECIDED)
    assert verdicts[1] is not None
    assert checker.proc.returncode == 0


def test_large_exponent_check_uses_the_closed_form():
    job = workloads.large_exponent_job(0.3, 0, 5, workloads.random.Random(1))
    a, b, c = job.data["word"]
    right = (0, b, c) if b else (1, 0, c)
    wrong = (right[0] + 1, right[1], right[2])
    for nf, ok in ((right, True), (wrong, False)):
        out = json.dumps({"result": {"nf": workloads.word_text(nf, job.pres.names)}})
        assert (checks.check(job, 0, out) is None) is ok


def _layer_functions():
    return {
        (layer, name): obj
        for layer in tracing.LAYERS
        for name, obj in vars(sys.modules[f"binoidal.{layer}"]).items()
        if callable(obj)
    }


def test_tracing_wrappers_are_removed_after_a_traced_run(cli):
    before = _layer_functions()
    methods = {
        (cls, m): vars(getattr(sys.modules[f"binoidal.{layer}"], cls))[m]
        for layer, classes in tracing.METHODS.items()
        for cls, names in classes.items()
        for m in names
    }
    tracer = tracing.Tracer()
    runner = run.InProcess(cli)
    tracer.install()
    try:
        assert hasattr(sys.modules["binoidal.cli"].main, "__wrapped__")
        for job in workloads.make_pass("graded-analysis", 1, 0)[:6]:
            runner(job)
    finally:
        tracer.remove()
    after = _layer_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    for (cls, m), original in methods.items():
        layer = next(l for l, c in tracing.METHODS.items() if cls in c)
        assert vars(getattr(sys.modules[f"binoidal.{layer}"], cls))[m] is original
    metrics = tracer.metrics()
    assert metrics["rewrite.complete_calls"] > 0
    assert metrics["cli.main_self_ms"] > 0


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.names[:] = ["outer", "inner"]
    for name, parent, start, end in ((0, -1, 0.0, 1.0), (1, 0, 0.2, 0.5), (1, 0, 0.6, 0.7)):
        tracer.span_name.append(name)
        tracer.parent.append(parent)
        tracer.job.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    own, calls = tracer.self_times()
    assert own["outer"] == pytest.approx(0.6)
    assert own["inner"] == pytest.approx(0.4)
    assert calls["inner"] == 2


def test_positive_weights():
    assert oracles.positive_weights(Pres(("a", "b"), (((2, 0), (0, 3)),))) == (3, 2)
    assert oracles.positive_weights(Pres(("a", "b"), (((2, 0), (1, 0)),))) is None


def test_point_count_matches_small_cases():
    # free(x): q points; x = inf forces x = 0: one point
    assert oracles.point_count(Pres(("a",), ()), 9) == 9
    assert oracles.point_count(Pres(("a",), (((1,), None),)), 9) == 1
    # 2a = a over F_q: a in {0, 1}
    assert oracles.point_count(Pres(("a",), (((2,), (1,)),)), 8) == 2


def test_spectrum_size_agrees_with_the_full_scan():
    rng = workloads.random.Random(5)
    for _ in range(30):
        p = workloads.spectrum_presentation(rng, rng.choice(["small", "medium"]))
        assert oracles.spectrum_size(p) == len(oracles.spectrum_masks(p))


def test_compare_verdicts():
    base = {s: 100.0 + s for s in range(10)}
    assert compare.verdict(base, {s: v * 0.7 for s, v in base.items()}, "lower", 0.25) == "improved"
    assert compare.verdict(base, {s: v * 1.4 for s, v in base.items()}, "lower", 0.25) == "worse"
    assert compare.verdict(base, {s: v * 1.01 for s, v in base.items()}, "lower", 0.25) == "unchanged"
    wide = {s: 50.0 + 20 * s for s in range(10)}
    assert compare.verdict(base, wide, "lower", 0.25) == "unresolved"
    assert compare.verdict(base, {s: v * 0.7 for s, v in base.items()}, "higher", 0.25) == "worse"
