import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

from binoidal import cli
from binoidal.cli import main
from binoidal.dot import validate_dot


def run(*argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    import sys

    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def test_dim_plain():
    code, out, _ = run("dim", "free(x,y)")
    assert code == 0 and out == "2\n"


def test_spec_json_schema():
    code, out, _ = run("spec", "free(x,y)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "spec"
    assert payload["input"] == "free(x,y)"
    assert payload["result"]["primes"] == [[], ["x"], ["y"], ["x", "y"]]


def test_json_output_is_byte_stable():
    first = run("count-points", "free(x,y)/(x+y=inf)", "--q", "3", "--json")
    second = run("count-points", "free(x,y)/(x+y=inf)", "--q", "3", "--json")
    assert first == second
    assert first[1] == (
        '{"command": "count-points", "input": "free(x,y)/(x+y=inf)", '
        '"result": {"count": 5, "per_prime": ['
        '{"count": 2, "factors": [], "prime": ["x"], "rank": 1}, '
        '{"count": 2, "factors": [], "prime": ["y"], "rank": 1}, '
        '{"count": 1, "factors": [], "prime": ["x", "y"], "rank": 0}], '
        '"q": 3}}\n'
    )


def test_parse_error_exits_one():
    code, _, err = run("dim", "free(x")
    assert code == 1 and "parse error" in err


def test_usage_error_exits_one():
    code, _, err = run("no-such-verb", "free(x)")
    assert code == 1 and "usage error" in err
    code, _, _ = run("eq", "free(x)", "x")  # missing second word
    assert code == 1


def test_budget_exhaustion_exits_two():
    code, _, err = run("gb", "free(x,y)/(x+y=2x, 2y=inf)", "--budget", "1")
    assert code == 2 and "budget" in err


def test_unknown_verdict_exits_two():
    # non-integral and ungradable; its witness (z, 7z) lies past budget 6
    code, out, _ = run("separated", "free(x,y,z)/(x+y=inf, 8z=z)")
    assert code == 2 and out.strip() == "Unknown"


def test_precondition_violation_exits_three():
    code, _, err = run("hilbert", "3", "free(x)/(3x=x)")
    assert code == 3 and "NoPositiveGrading" in err
    code, _, err = run("biunion", "free(x)/(2x=0)", "free(y)")
    assert code == 3 and "NotPositive" in err
    code, _, err = run("fvector", "free(x)/(0=inf)")
    assert code == 3 and "ZeroBinoid" in err


def test_separated_json_fields():
    code, out, _ = run("separated", "free(x)/(3x=x)", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verdict"] == "NotSeparated"
    assert result["witness"] == {"f": "x", "g": "2x"}
    assert result["grading"] is None
    assert result["certified"] is False


def test_dot_outputs_validate():
    code, out, _ = run("spec", "free(x,y)/(x+y=2x)", "--dot")
    assert code == 0 and validate_dot(out)
    code, out, _ = run("bool", "free(x)", "--dot")
    assert code == 0 and validate_dot(out)
    assert not validate_dot("graph g {")
    assert not validate_dot("digraph g {\n  unquoted -> x;\n}")


def test_stdin_presentation():
    code, out, _ = run("dim", "-", stdin="free(x,y,z)")
    assert code == 0 and out == "3\n"


def test_gb_golden_format():
    code, out, _ = run("gb", "free(x,y)/(2x=x+y, x+y=3y)")
    assert code == 0
    assert out == "2x -> x+y\n3y -> x+y\n"


def test_nf_eq_hilbert():
    assert run("nf", "free(x,y)/(x+y=2x)", "3x")[1] == "x+2y\n"
    assert run("eq", "free(x,y)/(x+y=2x)", "3x", "x+2y")[1] == "true\n"
    assert run("hilbert", "3", "free(x,y)")[1] == "6\n"


def test_constructions_print_presentations():
    assert run("smash", "free(x)", "free(y)")[1] == "free(x,y)\n"
    assert run("biunion", "free(x)", "free(y)")[1] == "free(x,y)/(x+y=inf)\n"
    assert run("quotient", "free(x,y)", "x+y")[1] == "free(x,y)/(x+y=inf)\n"
    code, out, _ = run("product", "free(x)", "free(y)")
    assert code == 0 and "abs1+abs2=inf" in out


def test_simplicial_commands():
    complex_text = "complex{1,2,3; {1,2},{2,3}}"
    assert run("simplicial:fvector", complex_text)[1] == "(1, 3, 2)\n"
    assert run("simplicial:nonfaces", complex_text)[1] == "{1,3}\n"
    assert (
        run("simplicial:binoid", complex_text)[1]
        == "free(v1,v2,v3)/(v1+v3=inf)\n"
    )
    code, out, _ = run("simplicial:cup", complex_text)
    assert code == 0 and "2v1=v1" in out
    assert run("simplicial:sr", complex_text)[1] == "ring K[X1,X2,X3]; ideal (X1*X3)\n"
    code, out, _ = run("simplicial:cap", complex_text)
    assert code == 0 and out == "no: Other\n"
    code, out, _ = run("simplicial:components", "complex{a,b; {a},{b}}")
    assert code == 0 and len(out.splitlines()) == 2


def test_simplicial_recognize_paths():
    code, out, _ = run("simplicial:recognize", "free(x,y)/(x+y=inf)")
    assert code == 0 and out == "complex{x,y; {x},{y}}\n"
    code, out, _ = run("simplicial:recognize", "free(x,y)/(2x=3y)")
    assert code == 2 and out == "not a simplicial binoid (not semifree)\n"
    code, out, _ = run("simplicial:recognize", "free(x,y)/(2x+y=inf)", "--json")
    result = json.loads(out)["result"]
    assert code == 2 and result["failed_axiom"] == "not reduced"


def test_predicates_human_output():
    code, out, _ = run("predicates", "free(x)/(2x=inf)")
    assert code == 0
    assert "reduced: False" in out and "positive: True" in out


def test_export_and_classify():
    code, out, _ = run("export-algebra", "free(x,y)/(x+y=inf)")
    assert out == "ring K[X1,X2]; ideal (X1*X2)\n"
    code, out, _ = run("classify-one-gen", "free(x)/(4x=inf)", "--json")
    result = json.loads(out)["result"]
    assert result["type"] == "Nilpotent" and result["modulus"] == 4


def test_hypersurface_out_of_scope_exits_two():
    code, out, _ = run("hypersurface-connected", "free(x,y)/(x+y=inf)")
    assert code == 2 and out.strip() == "OutOfScope"


def test_minimal_primes_over():
    code, out, _ = run("minimal-primes", "free(x,y)/(x+y=2x)", "--over", "y")
    assert code == 0 and out == "{x,y}\n"


def test_threads_flag_accepted_and_inert():
    plain = run("dim", "free(x,y)")
    threaded = run("dim", "free(x,y)", "--threads", "4")
    assert plain == threaded


def _run_bounded(*argv, seconds=30):
    """``run`` in a daemon thread, so a hang fails the test instead of the suite."""
    import threading

    box = []
    worker = threading.Thread(target=lambda: box.append(run(*argv)), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"{argv} did not return within {seconds} s"
    return box[0]


def test_separated_zero_budget_returns():
    code, out, _ = _run_bounded("separated", "free(x)/(2x=3x)", "--budget", "0")
    assert code == 0 and out.strip() == "NotSeparated"
    # sepdim accepts the budget and reads no witness budget at all
    code, out, _ = _run_bounded("sepdim", "free(x)/(2x=3x)", "--budget", "0")
    assert code == 0 and out.strip() == "0 (certified)"


def test_separated_on_an_ungradable_integral_presentation_returns():
    # ungradable and integral, with no witness of degree <= 6 for the scan;
    # the certificate gives g = 40a+60b and f = 30a+105c+105d, printed as its
    # normal form
    code, out, _ = _run_bounded(
        "separated", "free(a,b,c,d)/(2a+7c=4b+7d, 5c+a=4d, 7a=3d)", "--json", seconds=0.5
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verdict"] == "NotSeparated"
    assert result["witness"] == {"f": "2a+192d", "g": "40a+60b"}


def test_sepdim_on_twenty_ungradable_generators_returns():
    # decoding each of the 786432 primes and testing the relation against
    # it took 4 s and 350 MB on a 2-vCPU Xeon; the cells are two families,
    # split by one AND, and one LP besides the grading's decides the cell
    # whose faces hold g0+g1=g0
    free20 = "free(" + ",".join(f"g{i}" for i in range(20)) + ")"
    code, out, _ = _run_bounded("sepdim", free20 + "/(g0+g1=g0)", seconds=1.5)
    assert code == 0 and out == "19 (certified)\n"


def test_poset_verbs_on_twenty_free_generators_return():
    # one longest-chain DP byte and one PrimeIdeal per subset took 5 s and
    # 340 MB here; the chain layers take a few big-int operations each
    free20 = "free(" + ",".join(f"g{i}" for i in range(20)) + ")"
    assert _run_bounded("dim", free20, seconds=3) == (0, "20\n", "")
    f = ", ".join(str(math.comb(20, i)) for i in range(21))
    assert _run_bounded("fvector", free20, seconds=3) == (0, f"({f})\n", "")
    predicates = (
        "integral: True\npositive: True\nunits: []\nreduced: True\n"
        "binoid_group: False\nboolean: False\n"
    )
    assert _run_bounded("predicates", free20, seconds=3) == (0, predicates, "")


def test_nf_with_huge_exponents_returns():
    # one rule step per loop needed 2*10^9 steps here
    code, out, _ = _run_bounded(
        "nf", "free(x,y)/(2x=x, x+y=y)", "1000000000x+1000000000y"
    )
    assert code == 0 and out == "1000000000y\n"


def test_hilbert_past_the_word_cap_is_refused():
    # 4 generators have about 4 * 10^22 words of degree < 10^6, too many to
    # enumerate
    code, out, err = _run_bounded("hilbert", "1000000", "free(x,y,z,w)")
    assert (code, out) == (2, "")
    assert err.startswith("budget exceeded: hilbert 1000000 would enumerate ")


def test_count_points_with_a_large_prime_returns():
    # trial division up to the square root never finished for this q
    q = 1000000000000000003
    code, out, _ = _run_bounded("count-points", "free(x)", "--q", str(q))
    assert code == 0 and out == f"{q}\n"
    code, _, err = _run_bounded("count-points", "free(x)", "--q", str(q), "--oracle")
    assert code == 1 and "enumeration cap" in err


# One call per verb with its exact stdout and exit code: the --json payload
# where the verb has one, raw text for DOT and the ring exports.  A verb's
# later rows get the ids verb-2, verb-3, ...
GOLDEN = [
    (
        ['spec', 'free(x,y)/(x+y=2x)', '--json'],
        0,
        (
            '{"command": "spec", "input": "free(x,y)/(x+y=2x)", '
            '"result": {"primes": [[], ["x"], ["x", "y"]]}}\n'
        ),
    ),
    (
        ['spec', 'free(x,y)/(x+y=2x)', '--dot'],
        0,
        (
            'digraph spec {\n'
            '  rankdir=BT;\n'
            '  "{}";\n'
            '  "{x}";\n'
            '  "{x,y}";\n'
            '  "{}" -> "{x}";\n'
            '  "{x}" -> "{x,y}";\n'
            '}\n'
        ),
    ),
    (
        ['dim', 'free(x,y,z)/(x+y=inf)', '--json'],
        0,
        '{"command": "dim", "input": "free(x,y,z)/(x+y=inf)", "result": {"dim": 2}}\n',
    ),
    (
        ['fvector', 'free(x,y,z)/(x+y=inf)', '--json'],
        0,
        (
            '{"command": "fvector", "input": "free(x,y,z)/(x+y=inf)", '
            '"result": {"f": [1, 3, 2]}}\n'
        ),
    ),
    (
        ['minimal-primes', 'free(x,y,z)/(x+y=inf)', '--over', 'z', '--json'],
        0,
        (
            '{"command": "minimal-primes", "input": "free(x,y,z)/(x+y=inf)", '
            '"result": {"minimal_primes": [["x", "z"], ["y", "z"]]}}\n'
        ),
    ),
    (
        ['predicates', 'free(x,y)/(x+y=0)', '--json'],
        0,
        (
            '{"command": "predicates", "input": "free(x,y)/(x+y=0)", '
            '"result": {"binoid_group": true, "boolean": false, "integral": true, '
            '"positive": false, "reduced": true, "units": ["x", "y"]}}\n'
        ),
    ),
    (
        ['bool', 'free(x,y)/(x+y=inf)', '--json'],
        0,
        (
            '{"command": "bool", "input": "free(x,y)/(x+y=inf)", '
            '"result": {"cardinality": 4, "elements": [[], [["x"]], [["y"]], [["x"], '
            '["y"], ["x", "y"]]]}}\n'
        ),
    ),
    (
        ['bool', 'free(x,y)/(x+y=inf)', '--dot'],
        0,
        (
            'digraph bool {\n'
            '  rankdir=BT;\n'
            '  "{}";\n'
            '  "{{x}}";\n'
            '  "{{y}}";\n'
            '  "{{x},{y},{x,y}}";\n'
            '  "{}" -> "{{x}}";\n'
            '  "{}" -> "{{y}}";\n'
            '  "{{x}}" -> "{{x},{y},{x,y}}";\n'
            '  "{{y}}" -> "{{x},{y},{x,y}}";\n'
            '}\n'
        ),
    ),
    (
        ['gb', 'free(x,y)/(2x=x+y, x+y=3y)', '--json'],
        0,
        (
            '{"command": "gb", "input": "free(x,y)/(2x=x+y, x+y=3y)", '
            '"result": {"rules": [{"lhs": "2x", "rhs": "x+y"}, {"lhs": "3y", '
            '"rhs": "x+y"}]}}\n'
        ),
    ),
    (
        ['nf', 'free(x,y)/(x+y=2x)', '3x', '--json'],
        0,
        (
            '{"command": "nf", "input": ["free(x,y)/(x+y=2x)", "3x"], '
            '"result": {"nf": "x+2y"}}\n'
        ),
    ),
    (
        ['eq', 'free(x,y)/(x+y=2x)', '3x', 'x+2y', '--json'],
        0,
        (
            '{"command": "eq", "input": ["free(x,y)/(x+y=2x)", "3x", "x+2y"], '
            '"result": {"equal": true}}\n'
        ),
    ),
    (
        ['hilbert', '3', 'free(x,y)', '--json'],
        0,
        (
            '{"command": "hilbert", "input": [3, "free(x,y)"], "result": {"n": 3, '
            '"value": 6}}\n'
        ),
    ),
    # grlex orients 3y -> 2x, the weighted order 2x -> 3y
    (
        ['hilbert', '6', 'free(x,y)/(2x=3y)', '--json'],
        0,
        (
            '{"command": "hilbert", "input": [6, "free(x,y)/(2x=3y)"], "result": '
            '{"n": 6, "value": 11}}\n'
        ),
    ),
    (
        ['hilbert', '7', 'free(x,y,z)/(x+y=2z, 3x=inf)', '--json'],
        0,
        (
            '{"command": "hilbert", "input": [7, "free(x,y,z)/(x+y=2z, 3x=inf)"], '
            '"result": {"n": 7, "value": 33}}\n'
        ),
    ),
    (
        ['grading', 'free(x,y)/(2x=3y)', '--json'],
        0,
        (
            '{"command": "grading", "input": "free(x,y)/(2x=3y)", '
            '"result": {"grading": [3, 2]}}\n'
        ),
    ),
    (
        ['separated', 'free(x)/(3x=x)', '--json'],
        0,
        (
            '{"command": "separated", "input": "free(x)/(3x=x)", '
            '"result": {"certified": false, "grading": null, '
            '"verdict": "NotSeparated", "witness": {"f": "x", "g": "2x"}}}\n'
        ),
    ),
    (
        # binoid groups: M+ is empty, so separated without a grading
        ['separated', 'free(x,y)/(x+y=0)', '--json'],
        0,
        (
            '{"command": "separated", "input": "free(x,y)/(x+y=0)", '
            '"result": {"certified": true, "grading": null, '
            '"verdict": "Separated", "witness": null}}\n'
        ),
    ),
    (
        ['separated', 'free(x,y)/(x+y=0, 2x=3x)', '--json'],
        0,
        (
            '{"command": "separated", "input": "free(x,y)/(x+y=0, 2x=3x)", '
            '"result": {"certified": true, "grading": null, '
            '"verdict": "Separated", "witness": null}}\n'
        ),
    ),
    (
        ['sepdim', 'free(x,y,z)/(y+x=y, z+x=z)', '--json'],
        0,
        (
            '{"command": "sepdim", "input": "free(x,y,z)/(x+y=y, x+z=z)", '
            '"result": {"certified": true, "value": 1}}\n'
        ),
    ),
    (
        # ungradable; the quotient by the scan's one witness x+2y had no
        # grading either, so this printed 0 (upper bound)
        ['sepdim', 'free(x,y)/(2x=x+y, x+y=3y)', '--json'],
        0,
        (
            '{"command": "sepdim", "input": "free(x,y)/(2x=x+y, x+y=3y)", '
            '"result": {"certified": true, "value": 0}}\n'
        ),
    ),
    (
        ['count-points', 'free(x,y)/(2x=2y)', '--q', '5', '--oracle', '--json'],
        0,
        (
            '{"command": "count-points", "input": "free(x,y)/(2x=2y)", '
            '"result": {"count": 9, "oracle": 9, "per_prime": [{"count": 8, '
            '"factors": [2], "prime": [], "rank": 1}, {"count": 1, "factors": [], '
            '"prime": ["x", "y"], "rank": 0}], "q": 5}}\n'
        ),
    ),
    (
        ['export-algebra', 'free(x,y)/(2x=3y, x+y=inf)', '--format', 'macaulay2'],
        0,
        (
            'R = QQ[X1,X2];\n'
            'I = ideal(X1^2 - X2^3, X1*X2);\n'
        ),
    ),
    (
        ['hypersurface-connected', 'free(x)/(3x=x)', '--json'],
        0,
        (
            '{"command": "hypersurface-connected", "input": "free(x)/(3x=x)", '
            '"result": {"assumption": "algebraically closed field of characteristic zero", '
            '"case": "SharedFactor", "verdict": "Disconnected", "witness": "2x"}}\n'
        ),
    ),
    (
        ['classify-one-gen', 'free(x)/(5x=2x)', '--json'],
        0,
        (
            '{"command": "classify-one-gen", "input": "free(x)/(5x=2x)", '
            '"result": {"initial_pair": [2, 5], "loop_length": 3, "modulus": null, '
            '"type": "Loop"}}\n'
        ),
    ),
    (
        ['smash', 'free(x)/(2x=inf)', 'free(y)', '--json'],
        0,
        (
            '{"command": "smash", "input": ["free(x)/(2x=inf)", "free(y)"], '
            '"result": {"presentation": "free(x,y)/(2x=inf)"}}\n'
        ),
    ),
    (
        ['product', 'free(x)', 'free(y)/(2y=y)', '--json'],
        0,
        (
            '{"command": "product", "input": ["free(x)", "free(y)/(2y=y)"], '
            '"result": {"presentation": "free(x,y,abs1,abs2)/(2abs1=abs1, '
            'x+abs1=abs1, 2y=y, 2abs2=abs2, y+abs2=abs2, abs1+abs2=inf)"}}\n'
        ),
    ),
    (
        ['biunion', 'free(x)/(2x=x)', 'free(y)', '--json'],
        0,
        (
            '{"command": "biunion", "input": ["free(x)/(2x=x)", "free(y)"], '
            '"result": {"presentation": "free(x,y)/(2x=x, x+y=inf)"}}\n'
        ),
    ),
    (
        ['quotient', 'free(x,y)', 'x+y', '2x', '--json'],
        0,
        (
            '{"command": "quotient", "input": ["free(x,y)", "x+y", "2x"], '
            '"result": {"presentation": "free(x,y)/(x+y=inf, 2x=inf)"}}\n'
        ),
    ),
    (
        ['simplicial:fvector', 'complex{1,2,3,4; {1,2,3},{3,4}}', '--json'],
        0,
        (
            '{"command": "simplicial:fvector", '
            '"input": "complex{1,2,3,4; {3,4},{1,2,3}}", "result": {"dim": 2, '
            '"f": [1, 4, 4, 1]}}\n'
        ),
    ),
    (
        ['simplicial:nonfaces', 'complex{1,2,3,4; {1,2,3},{3,4}}', '--json'],
        0,
        (
            '{"command": "simplicial:nonfaces", '
            '"input": "complex{1,2,3,4; {3,4},{1,2,3}}", '
            '"result": {"minimal_nonfaces": [["1", "4"], ["2", "4"]]}}\n'
        ),
    ),
    (
        ['simplicial:components', 'complex{1,2,3,4; {1,2},{3,4}}', '--json'],
        0,
        (
            '{"command": "simplicial:components", '
            '"input": "complex{1,2,3,4; {1,2},{3,4}}", '
            '"result": {"components": ["complex{1,2; {1,2}}", '
            '"complex{3,4; {3,4}}"]}}\n'
        ),
    ),
    (
        ['simplicial:binoid', 'complex{1,2,3; {1,2},{2,3}}', '--json'],
        0,
        (
            '{"command": "simplicial:binoid", '
            '"input": "complex{1,2,3; {1,2},{2,3}}", '
            '"result": {"presentation": "free(v1,v2,v3)/(v1+v3=inf)"}}\n'
        ),
    ),
    (
        ['simplicial:cup', 'complex{1,2,3; {1,2},{2,3}}', '--json'],
        0,
        (
            '{"command": "simplicial:cup", "input": "complex{1,2,3; {1,2},{2,3}}", '
            '"result": {"presentation": "free(v1,v2,v3)/(v1+v3=inf, 2v1=v1, 2v2=v2, '
            '2v3=v3)"}}\n'
        ),
    ),
    (
        ['simplicial:cap', 'complex{1,2,3,4; {1,2},{3,4}}', '--json'],
        0,
        (
            '{"command": "simplicial:cap", "input": "complex{1,2,3,4; {1,2},{3,4}}", '
            '"result": {"components": ["Other", "Other"], "isomorphic": false}}\n'
        ),
    ),
    (
        ['simplicial:sr', 'complex{1,2,3; {1,2},{2,3}}', '--format', 'singular'],
        0,
        (
            'ring R = 0,(X1,X2,X3),dp;\n'
            'ideal I = X1*X3;\n'
        ),
    ),
    (
        ['simplicial:recognize', 'free(x,y)/(x+y=inf)', '--json'],
        0,
        (
            '{"command": "simplicial:recognize", "input": "free(x,y)/(x+y=inf)", '
            '"result": {"complex": "complex{x,y; {x},{y}}", "failed_axiom": null}}\n'
        ),
    ),
]


_GOLDEN_NAMES = [argv[0] + ("-dot" if "--dot" in argv else "") for argv, _, _ in GOLDEN]


@pytest.mark.parametrize(
    "argv, code, stdout",
    GOLDEN,
    ids=[
        name + (f"-{_GOLDEN_NAMES[:k].count(name) + 1}" if name in _GOLDEN_NAMES[:k] else "")
        for k, name in enumerate(_GOLDEN_NAMES)
    ],
)
def test_verb_golden(argv, code, stdout):
    assert run(*argv)[:2] == (code, stdout)


def _free(n):
    return "free(" + ",".join(f"g{i}" for i in range(n)) + ")"


_CAP_ERROR = "TooManyGenerators: 25 generators exceed the 2^24 scan cap; use force\n"

# Precondition and undecided exits, and the calls past the 24-generator scan
# cap, pinned with their exact stderr.
GOLDEN_EXITS = {
    # units and integrality need no scan, so positivity questions answer
    "separated-30-free": (
        ["separated", _free(30), "--json"],
        0,
        (
            f'{{"command": "separated", "input": "{_free(30)}", "result": '
            f'{{"certified": true, "grading": [{", ".join(["1"] * 30)}], '
            '"verdict": "Separated", "witness": null}}\n'
        ),
        "",
    ),
    "hilbert-25-free": (["hilbert", "2", _free(25)], 0, "26\n", ""),
    "biunion-25-free": (
        ["biunion", _free(25), "free(x)"],
        0,
        _free(25)[:-1]
        + ",x)/("
        + ", ".join(f"g{i}+x=inf" for i in range(25))
        + ")\n",
        "",
    ),
    # integral, so the certificate answers where the witness scan is capped
    "separated-25-ungradable": (
        ["separated", _free(25) + "/(g0+g1=g0)", "--json"],
        0,
        (
            f'{{"command": "separated", "input": "{_free(25)}/(g0+g1=g0)", '
            '"result": {"certified": false, "grading": null, '
            '"verdict": "NotSeparated", "witness": {"f": "g0", "g": "g1"}}}\n'
        ),
        "",
    ),
    # the prime count and reducedness keep the cap
    "sepdim-25-free": (["sepdim", _free(25)], 3, "", _CAP_ERROR),
    "predicates-25-free": (["predicates", _free(25)], 3, "", _CAP_ERROR),
    "hilbert-not-positive": (
        ["hilbert", "2", "free(x,y)/(x+y=0)"],
        3,
        "",
        "NotPositive: Hilbert-Samuel values require a positive binoid\n",
    ),
    "hilbert-no-grading": (
        ["hilbert", "2", "free(x)/(3x=x)"],
        3,
        "",
        "NoPositiveGrading: no positive grading; the order function may be infinite\n",
    ),
    "sepdim-zero-binoid": (
        ["sepdim", "free(x)/(0=inf)"],
        3,
        "",
        "ZeroBinoid: the zero binoid has no separated dimension\n",
    ),
    "separated-unknown": (
        ["separated", "free(x,y,z)/(x+y=inf, 8z=z)", "--json"],
        2,
        (
            '{"command": "separated", "input": "free(x,y,z)/(x+y=inf, 8z=z)", '
            '"result": {"certified": false, "grading": null, "verdict": "Unknown", '
            '"witness": null}}\n'
        ),
        "",
    ),
    "recognize-not-semifree": (
        ["simplicial:recognize", "free(x,y)/(x=y)"],
        2,
        "not a simplicial binoid (not semifree)\n",
        "",
    ),
    "recognize-not-reduced": (
        ["simplicial:recognize", "free(x)/(2x=inf)"],
        2,
        "not a simplicial binoid (not reduced)\n",
        "",
    ),
    "predicates-zero-binoid": (
        ["predicates", "free(x)/(0=inf)", "--json"],
        0,
        (
            '{"command": "predicates", "input": "free(x)/(0=inf)", '
            '"result": {"binoid_group": false, "boolean": false, "integral": false, '
            '"positive": false, "reduced": false, "units": []}}\n'
        ),
        "",
    ),
}


@pytest.mark.parametrize("argv, code, stdout, stderr", GOLDEN_EXITS.values(), ids=GOLDEN_EXITS)
def test_verb_golden_exit(argv, code, stdout, stderr):
    assert run(*argv) == (code, stdout, stderr)


@pytest.mark.parametrize(
    "argv",
    [
        ["gb", "free(x)"],
        ["nf", "free(x)/(2x=x)", "x"],
        ["eq", "free(x)/(2x=x)", "x", "2x"],
        ["separated", "free(x)/(2x=3x)"],
        ["sepdim", "free(x)"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_budget_is_a_usage_error(argv):
    expected = "usage error: argument --budget: must be nonnegative, got -1\n"
    assert run(*argv, "--budget", "-1") == (1, "", expected)
    assert run(*argv, "--budget", "0")[0] != 1


def test_overlong_coefficient_is_a_positioned_parse_error():
    # int() refuses more than 4300 digits by default
    code, out, err = run("nf", "free(x)", "9" * 5000 + "x")
    assert (code, out) == (1, "")
    assert err == "parse error: coefficient of 5000 digits is too long (line 1, column 1)\n"


def test_each_presentation_is_completed_and_scanned_at_most_once(monkeypatch):
    from binoidal import rewrite, spectrum

    seen = {"complete": [], "_scan": []}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(p, *args, **kwargs):
            # holding p keeps its id unique; a completion's term order is
            # grlex or the weighted order of its weights
            seen[name].append((p, kwargs.get("weights")))
            return original(p, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(rewrite, "complete")
    counted(spectrum, "_scan")
    # (argv, (grlex completions, weighted completions, _scan calls)); units
    # and integrality need no scan, so only sepdim's faces and the simplicial
    # recognizer's minimal primes scan; hilbert reads the weighted order
    calls = [
        (["separated", "free(x)/(2x=3x)", "--budget", "0"], (1, 0, 0)),
        (["sepdim", "free(x)/(2x=3x)"], (1, 0, 1)),
        (["sepdim", "free(x,y)/(x+y=2y, 3x=2x)"], (1, 0, 1)),
        (["hilbert", "3", "free(x,y)/(x+y=2y)"], (1, 1, 0)),
        (["simplicial:recognize", "free(x,y,z)/(x+y=inf)"], (1, 0, 1)),
    ]
    for argv, counts in calls:
        for found in seen.values():
            found.clear()
        assert run(*argv)[0] == 0, argv
        orders = [w is None for _, w in seen["complete"]]
        assert (orders.count(True), orders.count(False), len(seen["_scan"])) == counts, argv
        for name, found in seen.items():
            assert len({(id(p), w) for p, w in found}) == len(found), (argv, name)
    # an empty spectrum decides every predicate before completion runs
    seen["complete"].clear()
    assert run("predicates", "free(x)/(0=inf)")[0] == 0
    assert not seen["complete"]


def test_analysed_presentation_is_freed_without_the_cyclic_collector(monkeypatch):
    # the memo must not refer back to its presentation: a cycle there turns
    # every analysed presentation into garbage for the cyclic collector
    import gc
    import weakref

    from binoidal import cli

    refs = []
    parse = cli.parse_presentation

    def tracked(text):
        p = parse(text)
        refs.append(weakref.ref(p))
        return p

    monkeypatch.setattr(cli, "parse_presentation", tracked)
    gc.disable()
    try:
        for argv in (
            ["separated", "free(x,y)/(x+y=2y, 3x=2x)"],
            ["sepdim", "free(x,y)/(x+y=2y, 3x=2x)"],
            ["hilbert", "3", "free(x,y)/(x+y=2y)"],
            ["simplicial:recognize", "free(x,y,z)/(x+y=inf)"],
            ["predicates", "free(x,y)/(2x=x)"],
        ):
            assert run(*argv)[0] == 0, argv
        # read before enabling: the first allocation after would collect
        freed = [ref() is None for ref in refs]
    finally:
        gc.enable()
    assert freed and all(freed)


@pytest.mark.parametrize(
    "argv",
    [
        ["grading", "free(x,y)/(2x=3y)"],
        ["separated", "free(x,y)/(2x=3y)"],
        ["sepdim", "free(x,y)/(2x=3y)"],
        ["hilbert", "3", "free(x,y)/(2x=3y)"],
    ],
)
def test_graded_presentation_is_freed_without_the_cyclic_collector(monkeypatch, argv):
    # the memo keeps the grading weights, nothing that refers back to p
    import gc
    import weakref

    refs = []
    parse = cli.parse_presentation

    def tracked(text):
        p = parse(text)
        refs.append(weakref.ref(p))
        return p

    monkeypatch.setattr(cli, "parse_presentation", tracked)
    gc.disable()
    try:
        assert run(*argv)[0] == 0
        freed = [ref() is None for ref in refs]
    finally:
        gc.enable()
    assert freed == [True]


def test_sepdim_of_a_gradable_presentation_analyses_it_once(monkeypatch):
    # a grading rules out every witness: no witness scan, and the certificate
    # reads the memo of p instead of analysing a copy of it
    from binoidal import grading, rewrite, spectrum

    calls = {"complete": 0, "_scan": 0, "_simplex_max": 0, "_normal_forms": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(rewrite, "complete")
    counted(spectrum, "_scan")
    counted(grading, "_simplex_max")
    counted(rewrite, "_normal_forms")
    assert run("sepdim", "free(x,y,z)/(x+y=2z)") == (0, "2 (certified)\n", "")
    assert calls == {"complete": 1, "_scan": 1, "_simplex_max": 1, "_normal_forms": 0}


def test_options_before_the_verb_are_named():
    expected = "usage error: options follow the verb: --json comes before it\n"
    assert run("--json", "dim", "free(x)") == (1, "", expected)
    with pytest.raises(SystemExit) as done:  # argparse prints the help and exits
        run("--help")
    assert done.value.code == 0


def test_vertex_name_that_does_not_print_back_is_refused():
    complex_json = '{"vertices": ["a,b", "c"], "facets": [["a,b"], ["c"]]}'
    expected = "error: vertex name 'a,b' cannot name a generator\n"
    assert run("simplicial:components", complex_json) == (1, "", expected)


def test_vertex_name_with_a_newline_is_refused():
    complex_json = '{"vertices": ["a\\n", "b"], "facets": [["a\\n"], ["b"]]}'
    expected = "error: vertex name 'a\\n' cannot name a generator\n"
    assert run("simplicial:binoid", complex_json) == (1, "", expected)


# one valid call per verb, without options
_SAMPLE_CALLS = {
    "spec": ["free(x,y)"],
    "dim": ["free(x,y)"],
    "fvector": ["free(x,y)"],
    "minimal-primes": ["free(x,y)/(x+y=2x)"],
    "predicates": ["free(x)"],
    "bool": ["free(x)"],
    "gb": ["free(x,y)/(2x=y)"],
    "nf": ["free(x)/(2x=x)", "3x"],
    "eq": ["free(x)/(2x=x)", "x", "2x"],
    "hilbert": ["2", "free(x,y)"],
    "grading": ["free(x,y)/(2x=3y)"],
    "separated": ["free(x)/(2x=3x)"],
    "sepdim": ["free(x)"],
    "count-points": ["free(x)", "--q", "3"],
    "export-algebra": ["free(x,y)/(x+y=inf)"],
    "hypersurface-connected": ["free(x,y)/(x=y)"],
    "classify-one-gen": ["free(x)/(3x=x)"],
    "smash": ["free(x)", "free(x)"],
    "product": ["free(x)", "free(y)"],
    "biunion": ["free(x)", "free(y)"],
    "quotient": ["free(x,y)", "x"],
    "simplicial:fvector": ["complex{1,2,3; {1,2},{2,3}}"],
    "simplicial:nonfaces": ["complex{1,2,3; {1,2},{2,3}}"],
    "simplicial:components": ["complex{1,2,3; {1,2},{3}}"],
    "simplicial:binoid": ["complex{1,2,3; {1,2},{2,3}}"],
    "simplicial:cup": ["complex{1,2,3; {1,2},{2,3}}"],
    "simplicial:cap": ["complex{1,2,3; {1,2},{3}}"],
    "simplicial:sr": ["complex{1,2,3; {1,2},{2,3}}"],
    "simplicial:recognize": ["free(x,y)/(x+y=inf)"],
}


@pytest.mark.parametrize("verb", cli._VERBS)
def test_verb_accepts_only_the_options_it_reads(verb):
    argv = [verb, *_SAMPLE_CALLS[verb]]
    plain = run(*argv)
    assert plain[0] == 0, plain
    assert run(*argv, "--threads", "2") == plain
    for option, value, readers in (
        ("--budget", "1", {"gb", "nf", "eq", "separated", "sepdim"}),
        ("--force", None, {"spec", "dim"}),
        ("--json", None, set(cli._VERBS) - {"export-algebra", "simplicial:sr"}),
    ):
        given = [option] + ([value] if value else [])
        refused = (1, "", f"usage error: unrecognized arguments: {' '.join(given)}\n")
        assert (run(*argv, *given) == refused) == (verb not in readers), option


def test_threads_before_the_verb_is_a_usage_error():
    code, out, err = run("--threads", "2", "dim", "free(x)")
    assert (code, out) == (1, "") and err.startswith("usage error: ")
