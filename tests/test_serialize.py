import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galideal import ramified_places, stickelberger
from galideal.abelian import unit_group
from galideal.cli import cyclotomic_payload
from galideal.cyclotomic import CyclotomicNumber, euler_phi
from galideal.groupring import GroupRingElement
from galideal.lattice import canonicalize, unit_ideal
from galideal.serialize import (
    FixtureError,
    element_payload,
    fraction_str,
    lattice_payload,
    load_fixture,
    parse_element,
    parse_fraction,
    parse_lattice,
    to_json,
)


def test_fraction_round_trip():
    for q in [Fraction(5, 14), Fraction(-3), Fraction(0), Fraction(7, 2)]:
        assert parse_fraction(fraction_str(q.numerator, q.denominator)) == q
    assert fraction_str(-2, 24) == "-1/12"
    assert fraction_str(0, 7) == "0" and fraction_str(-14, 7) == "-2"


def test_parse_fraction_names_field():
    with pytest.raises(FixtureError, match="'beta'"):
        parse_fraction("one half", "beta")
    with pytest.raises(FixtureError, match="not an exact fraction"):
        parse_fraction("1/0")
    # a JSON integer is exact; a float, bool, null or list is refused
    assert parse_fraction(3, "alpha[e]") == 3
    for bad in (0.5, 2.0, True, None, [1]):
        with pytest.raises(FixtureError, match="'alpha\\[e\\]'"):
            parse_fraction(bad, "alpha[e]")
    # only "n" and "n/d": a decimal or exponent string is refused before an
    # exponent can ask for a number of any size
    assert parse_fraction("-6/4") == Fraction(-3, 2)
    assert parse_fraction("+7") == 7
    for bad in ("0.5", "1e999999999", "1/2/3", " 1", "1_000", "", "-"):
        with pytest.raises(FixtureError, match="not an exact fraction"):
            parse_fraction(bad)


def test_element_round_trip_drops_zeros():
    g = unit_group(7)
    x = GroupRingElement(g, {1: Fraction(5, 14), 3: Fraction(0),
                             6: Fraction(-2)})
    payload = element_payload(x)
    assert payload == {"s1": "5/14", "s6": "-2"}
    assert parse_element(g, payload) == x


def test_parse_element_rejects_unknown_label():
    g = unit_group(7)
    with pytest.raises(FixtureError, match="data\\[0\\].alpha.*'s9'"):
        parse_element(g, {"s9": "1"}, "data[0].alpha")
    with pytest.raises(FixtureError, match="label->fraction"):
        parse_element(g, ["s1"], "alpha")


def test_lattice_round_trip():
    labels = ("e", "a", "b")
    I = canonicalize(labels, 3, [[1, 0, 3], [0, 5, 0]])
    payload = lattice_payload(I)
    assert set(payload) == {"ambient", "denominator", "columns"}
    assert parse_lattice(payload) == I


def test_parse_lattice_validations():
    with pytest.raises(FixtureError, match="missing 'columns'"):
        parse_lattice({"ambient": ["e"], "denominator": 1})
    with pytest.raises(FixtureError, match="positive integer"):
        parse_lattice({"ambient": ["e"], "denominator": 0, "columns": []})
    with pytest.raises(FixtureError, match="column 0 has length 1"):
        parse_lattice({"ambient": ["e", "a"], "denominator": 1,
                       "columns": [[1]]})


def test_to_json_is_canonical():
    a = to_json({"b": 1, "a": {"d": "2/3", "c": [1, 2]}})
    b = to_json({"a": {"c": [1, 2], "d": "2/3"}, "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_load_fixture_errors_name_fields():
    with pytest.raises(FixtureError, match="not valid JSON"):
        load_fixture("{")
    with pytest.raises(FixtureError, match="JSON object"):
        load_fixture("[1]")
    with pytest.raises(FixtureError, match="'schema-version'"):
        load_fixture("{}")
    with pytest.raises(FixtureError, match="expected 1, found 2"):
        load_fixture('{"schema-version": 2}')
    # past the interpreter's integer digit limit, or nested past the
    # recursion limit: refused as JSON, not a traceback
    with pytest.raises(FixtureError, match="not valid JSON"):
        load_fixture('{"schema-version": %s}' % ("9" * 5000))
    with pytest.raises(FixtureError, match="not valid JSON"):
        load_fixture("[" * 100000 + "]" * 100000)
    with pytest.raises(FixtureError, match="'kind'.*'units'"):
        load_fixture('{"schema-version": 1, "kind": "other"}', kind="units")
    data = load_fixture('{"schema-version": 1, "kind": "units"}', kind="units")
    assert data["kind"] == "units"


def test_unit_ideal_payload_is_identity_matrix():
    g = unit_group(5)
    payload = lattice_payload(unit_ideal(g))
    assert payload["denominator"] == 1
    n = len(payload["ambient"])
    assert payload["columns"] == [[int(i == j) for i in range(n)]
                                  for j in range(n)]


# ---------------------------------------------------------------------------
# the output path against the json.dumps and Fraction routes it replaced

GOLDEN = Path(__file__).parent / "golden"


def reference_to_json(data):
    return json.dumps(data, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def reference_cyclotomic_payload(v):
    if v.is_rational():
        return str(Fraction(v.as_fraction()))
    return {"root-of-unity-order": v.order,
            "coordinates": [str(Fraction(c)) for c in v.coeffs]}


_CHARS = st.characters() | st.sampled_from(
    ['"', "\\", "/", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f",
     "\x7f", "\x80", "\u2028", "\ud800", "\u00e9", "\U0001f600"])
_TEXT = st.text(_CHARS, max_size=6)
_INTS = st.integers() | st.integers(-10 ** 200, 10 ** 200)
_REPORTS = st.recursive(
    st.none() | st.booleans() | _INTS | _TEXT
    | st.lists(_INTS, max_size=5) | st.lists(_TEXT, max_size=5),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=250, deadline=None)
@given(data=_REPORTS)
def test_to_json_matches_json_dumps(data):
    assert to_json(data) == reference_to_json(data)


def test_to_json_empty_containers_at_depth():
    data = {"a": [], "b": {}, "c": [[], {}, [[]], {"d": {}}], "e": ()}
    assert to_json(data) == reference_to_json(data)
    assert to_json([]) == "[]\n" and to_json({}) == "{}\n"


@pytest.mark.parametrize("data", [
    0.5, [1, 2.0], {"x": Fraction(1, 2)}, {1: "a"}, {"a": {None: 1}},
    {"a": {1.5: 1}}, [float("nan")], {"a": b"bytes"}, {"a": {1, 2}},
])
def test_to_json_refuses_floats_fractions_and_other_keys(data):
    with pytest.raises(TypeError):
        to_json(data)


@settings(max_examples=300, deadline=None)
@given(a=st.integers(-10 ** 30, 10 ** 30), den=st.integers(1, 10 ** 12),
       k=st.integers(-50, 50))
def test_fraction_str_matches_fraction(a, den, k):
    for num in (a, 0, k * den, den, -den):
        assert fraction_str(num, den) == str(Fraction(num, den))


@settings(max_examples=100, deadline=None)
@given(order=st.integers(1, 60), data=st.data())
def test_cyclotomic_payload_matches_the_fraction_route(order, data):
    phi = euler_phi(order)
    coeffs = data.draw(st.lists(
        st.fractions(max_denominator=10 ** 6)
        | st.integers(-10 ** 20, 10 ** 20).map(Fraction),
        min_size=phi, max_size=phi))
    v = CyclotomicNumber(order, coeffs)
    assert cyclotomic_payload(v) == reference_cyclotomic_payload(v)


def test_output_path_builds_no_fraction(monkeypatch):
    theta = stickelberger(60, ramified_places(60), -1)
    v = CyclotomicNumber(5, [Fraction(1, 3), 2, Fraction(-5, 6), 0])
    q = CyclotomicNumber.from_rational(Fraction(-1, 12))

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built on the output path")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 2)
    text = to_json({"element": element_payload(theta),
                    "values": [cyclotomic_payload(v), cyclotomic_payload(q)]})
    monkeypatch.undo()
    report = json.loads(text)
    assert report["values"][1] == "-1/12"
    assert report["element"] == {k: str(Fraction(c)) for k, c in
                                 report["element"].items()}


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.out")),
                         ids=lambda p: p.name)
def test_golden_reports_are_written_by_to_json(path):
    # every recorded report shape, rewritten from its own parse
    text = path.read_text()
    if text:
        assert to_json(json.loads(text)) == text
