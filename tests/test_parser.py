import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binoidal.errors import ParseError, PresentationError
from binoidal.parser import parse_complex, parse_presentation, parse_term
from binoidal.presentation import Presentation
from binoidal.simplicial import from_facets


def test_basic_presentation():
    p = parse_presentation("free(x,y)/(x+y=inf, 2x=x+y)")
    assert p.rank == 2
    assert len(p.relations) == 2


def test_coefficient_sugar():
    p = parse_presentation("free(x)/(3x=0)")
    rel = p.relations[0]
    assert rel.lhs.exponent(0) == 3
    assert rel.rhs.degree() == 0


def test_whitespace_insignificant():
    a = parse_presentation("free( x , y )/( x + y = inf )")
    b = parse_presentation("free(x,y)/(x+y=inf)")
    assert a == b


def test_empty_presentation_is_trivial_binoid():
    p = parse_presentation("free()")
    assert p.rank == 0 and not p.relations


def test_dangling_plus_is_a_positioned_error():
    with pytest.raises(ParseError) as err:
        parse_presentation("free(x)/(x+ =x)")
    assert err.value.line == 1
    assert err.value.column == 13


def test_reserved_word_rejected():
    with pytest.raises(ParseError):
        parse_presentation("free(inf)")
    with pytest.raises(ParseError):
        parse_presentation("free(x)/(inf+x=x)")


def test_unknown_generator_rejected():
    with pytest.raises(ParseError):
        parse_presentation("free(x)/(y=x)")


def test_zero_coefficient_rejected():
    with pytest.raises(ParseError):
        parse_presentation("free(x)/(0x=x)")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_presentation("free(x) extra")


def test_parse_term_against_presentation():
    p = parse_presentation("free(x,y)")
    w = parse_term("2x+y", p)
    assert w.exponent(0) == 2 and w.exponent(1) == 1
    assert parse_term("inf", p).is_inf
    assert parse_term("0", p).degree() == 0
    with pytest.raises(ParseError):
        parse_term("z", p)


def test_multiline_error_position():
    with pytest.raises(ParseError) as err:
        parse_presentation("free(x)/(\n  x+ =x)")
    assert err.value.line == 2


def test_complex_literal():
    delta = parse_complex("complex{1,2,3; {1,2},{2,3}}")
    assert delta.vertices == ("1", "2", "3")
    assert len(delta.facets) == 2


def test_complex_json_equivalent_to_literal():
    a = parse_complex("complex{1,2,3; {1,2},{2,3}}")
    b = parse_complex('{"vertices": ["1", "2", "3"], "facets": [["1","2"],["2","3"]]}')
    assert a == b


def test_complex_uncovered_vertex_rejected():
    with pytest.raises(ParseError):
        parse_complex("complex{1,2; {1}}")


def test_complex_bad_json_rejected():
    with pytest.raises(ParseError):
        parse_complex('{"vertices": ["1"]}')
    with pytest.raises(ParseError):
        parse_complex('{"vertices": ')
    for vertices, facets in [
        ("null", "null"),
        ("1", "[]"),
        ("true", "[]"),
        ('["1"]', "null"),
        ('["1"]', "2"),
        ('["1"]', "true"),
        ('["1"]', "[1]"),
        ('["1"]', "[null]"),
    ]:
        with pytest.raises(ParseError):
            parse_complex(f'{{"vertices": {vertices}, "facets": {facets}}}')


def test_complex_pretty_roundtrips():
    for text in [
        "complex{1,2,3; {1,2},{2,3}}",
        "complex{a,b,c,d; {a,b,c},{b,c,d}}",
        "complex{x; {x}}",
    ]:
        delta = parse_complex(text)
        assert parse_complex(delta.pretty()) == delta


def test_complex_vertex_names_that_do_not_print_back_are_refused():
    for text in ["complex{+,a; {+},{a}}", "complex{a,é; {a},{é}}"]:
        with pytest.raises(ParseError):
            parse_complex(text)
    for name in ["a,b", "a b", "", "-1", "1.5", "x\n"]:
        data = json.dumps({"vertices": [name, "c"], "facets": [[name], ["c"]]})
        with pytest.raises(PresentationError, match="cannot name a generator"):
            parse_complex(data)


@st.composite
def complexes(draw):
    names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}|[0-9]{1,3}", fullmatch=True)
    vertices = draw(st.lists(names, min_size=1, max_size=6, unique=True))
    facets = draw(
        st.lists(st.lists(st.sampled_from(vertices), min_size=1), max_size=5)
    )
    covered = {v for f in facets for v in f}
    return from_facets(vertices, facets + [[v] for v in vertices if v not in covered])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(complexes())
def test_printed_complex_parses_back(delta):
    assert parse_complex(delta.pretty()) == delta


def test_fixture_roundtrips():
    for text in [
        "free(x)",
        "free(x,y)/(x+y=inf)",
        "free(x,y,z)/(x+y=x+y+z, 2z=inf)",
        "free(a_1,b2)/(2a_1+3b2=0)",
    ]:
        assert parse_presentation(text).pretty() == text


_LONG = "9" * 5000  # past CPython's default int-string limit of 4300 digits
_PIECES = (
    "free", "inf", "x", "y", "x_1", "0", "1", "12", _LONG,
    "(", ")", ",", "+", "=", "/", "{", "}", ";", "-", " ", "\n", "é",
)


@st.composite
def dsl_texts(draw):
    """Token soup over the DSL alphabet, bare or inside a relation list."""
    soup = "".join(draw(st.lists(st.sampled_from(_PIECES), max_size=24)))
    return draw(st.sampled_from([soup, f"free(x,y)/({soup})", f"free({soup})"]))


@pytest.mark.parametrize("digit_limit", [4300, 0], ids=["int-limit", "no-limit"])
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=dsl_texts())
@example(text=f"free(x)/({_LONG}x=x)")
@example(text=f"free(x)/({_LONG}x=x")
def test_dsl_text_parses_or_raises_parse_error(digit_limit, text):
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digit_limit)
    try:
        assert isinstance(parse_presentation(text), Presentation)
    except ParseError:
        pass
    finally:
        sys.set_int_max_str_digits(default)


def test_overlong_coefficient_has_a_position():
    p = parse_presentation("free(x,y)")
    with pytest.raises(ParseError) as err:
        parse_term("y + " + _LONG + "x", p)
    assert (err.value.line, err.value.column) == (1, 5)
