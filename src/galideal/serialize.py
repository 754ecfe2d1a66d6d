# Canonical JSON for reports and fixtures.  All numbers cross the
# boundary as exact fraction strings; identical inputs must produce
# byte-identical output, so keys are sorted and floats never appear.

import json
from fractions import Fraction

from .groupring import GroupRingElement
from .lattice import canonicalize

SCHEMA_VERSION = 1


class FixtureError(ValueError):
    # malformed input file; the message names the offending field
    pass


def fraction_str(x):
    return str(Fraction(x))


def _is_int(x):
    # JSON integers only: floats are never truncated, and bool is not a number
    return isinstance(x, int) and not isinstance(x, bool)


def parse_fraction(text, field="value"):
    # a fraction string or a JSON integer; a float is refused, not rounded
    if not (isinstance(text, str) or _is_int(text)):
        raise FixtureError("field %r must be a fraction string or an "
                           "integer, got %r" % (field, text))
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise FixtureError("field %r is not an exact fraction: %r"
                           % (field, text))


def element_payload(x):
    # label -> fraction string, zero coefficients dropped
    return {x.group.label(g): str(Fraction(a, x.den))
            for g, a in zip(x.group.elements, x.nums) if a}


def parse_element(group, payload, field="element"):
    if not isinstance(payload, dict):
        raise FixtureError("field %r must be a label->fraction object" % field)
    by_label = {group.label(g): g for g in group.elements}
    coeffs = {}
    for lab, val in payload.items():
        if lab not in by_label:
            raise FixtureError("field %r: unknown element label %r"
                               % (field, lab))
        coeffs[by_label[lab]] = parse_fraction(val, "%s[%s]" % (field, lab))
    return GroupRingElement(group, coeffs)


def lattice_payload(I):
    return {
        "ambient": list(I.labels),
        "denominator": I.denominator,
        "columns": [list(col) for col in I.columns],
    }


def parse_lattice(payload, field="lattice"):
    if not isinstance(payload, dict):
        raise FixtureError("field %r must be an object" % field)
    for key in ("ambient", "denominator", "columns"):
        if key not in payload:
            raise FixtureError("field %r is missing %r" % (field, key))
    if not isinstance(payload["ambient"], list):
        raise FixtureError("field '%s.ambient' must be a list of labels"
                           % field)
    labels = tuple(str(s) for s in payload["ambient"])
    den = payload["denominator"]
    if not _is_int(den) or den < 1:
        raise FixtureError("field %r: denominator must be a positive integer"
                           % field)
    columns = payload["columns"]
    if not isinstance(columns, list):
        raise FixtureError("field '%s.columns' must be a list of columns"
                           % field)
    vectors = []
    for j, col in enumerate(columns):
        if not isinstance(col, list):
            raise FixtureError("field '%s.columns': column %d is not a list"
                               % (field, j))
        if len(col) != len(labels):
            raise FixtureError("field %r: column %d has length %d, expected %d"
                               % (field, j, len(col), len(labels)))
        for x in col:
            if not _is_int(x):
                raise FixtureError("field '%s.columns': column %d has entry "
                                   "%r, not an integer" % (field, j, x))
    return canonicalize(labels, den, columns)


def to_json(data):
    return json.dumps(data, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def load_fixture(text, kind=None):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise FixtureError("fixture is not valid JSON: %s" % e)
    if not isinstance(data, dict):
        raise FixtureError("fixture must be a JSON object")
    if "schema-version" not in data:
        raise FixtureError("fixture is missing the 'schema-version' field")
    if data["schema-version"] != SCHEMA_VERSION:
        raise FixtureError("field 'schema-version': expected %d, found %r"
                           % (SCHEMA_VERSION, data["schema-version"]))
    if kind is not None:
        if data.get("kind") != kind:
            raise FixtureError("field 'kind': expected %r, found %r"
                               % (kind, data.get("kind")))
    return data
