from fractions import Fraction

import pytest

from galideal.abelian import unit_group
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
        assert parse_fraction(fraction_str(q)) == q
    assert fraction_str(Fraction(-1, 12)) == "-1/12"


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
