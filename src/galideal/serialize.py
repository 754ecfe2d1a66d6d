# Canonical JSON for reports and fixtures.  `to_json` is the one report
# writer: the bytes of json.dumps(sort_keys=True, indent=2) and a newline,
# for dicts with str keys, lists, tuples, str, int, bool and None only, so a
# float never reaches the output.  Rationals are written by `fraction_str`
# from an integer numerator and a denominator.

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .groupring import GroupRingElement
from .lattice import canonicalize, group_labels

SCHEMA_VERSION = 1
_FRACTION = re.compile(r"[-+]?[0-9]+(/[0-9]+)?")


class FixtureError(ValueError):
    # malformed input file; the message names the offending field
    pass


def fraction_str(a, den):
    # the rational a/den (den > 0) as "n" or "n/d" in lowest terms with the
    # sign on n, the text of str(Fraction(a, den))
    g = gcd(a, den)
    if g == den:
        return f"{a // g}"
    return f"{a // g}/{den // g}"


def _is_int(x):
    # JSON integers only: floats are never truncated, and bool is not a number
    return isinstance(x, int) and not isinstance(x, bool)


def parse_fraction(text, field="value"):
    # a fraction string "n" or "n/d", or a JSON integer; a float is refused,
    # not rounded, and so is a decimal string, whose exponent ("1e999999999")
    # could ask for a number of any size
    if not (isinstance(text, str) or _is_int(text)):
        raise FixtureError("field %r must be a fraction string or an "
                           "integer, got %r" % (field, text))
    try:
        if isinstance(text, str) and not _FRACTION.fullmatch(text):
            raise ValueError(text)
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise FixtureError("field %r is not an exact fraction: %r"
                           % (field, text))


def element_payload(x):
    # label -> fraction string, zero coefficients dropped; the text of
    # fraction_str, written inline as it runs once per coefficient
    den = x.den
    out = {}
    for label, a in zip(group_labels(x.group), x.nums):
        if a:
            g = gcd(a, den)
            out[label] = f"{a // g}" if g == den else f"{a // g}/{den // g}"
    return out


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


def _values(xs, inner):
    # the texts of the values xs, each one indented by `inner`; a list of
    # ints or of strings is mapped in one pass, with no call per value
    kinds = set(map(type, xs))
    if kinds == {int}:
        return map(int.__repr__, xs)
    if kinds == {str}:
        return map(_quote, xs)
    return [_text(v, inner) for v in xs]


def _text(x, nl):
    # the JSON text of x, whose closing bracket goes after `nl` (a newline
    # and the indent of x itself)
    t = type(x)
    if t is str:
        return _quote(x)
    if t is int:
        return int.__repr__(x)
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join(_values(x, inner)) + nl + "]"
    if t is dict:
        if not x:
            return "{}"
        if set(map(type, x)) != {str}:
            raise TypeError("to_json: dict key %r is not a str"
                            % next(k for k in x if type(k) is not str))
        inner = nl + "  "
        keys = sorted(x)
        values = _values(list(map(x.__getitem__, keys)), inner)
        items = map(": ".join, zip(map(_quote, keys), values))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if x is None:
        return "null"
    raise TypeError("to_json: cannot write %r of type %s"
                    % (x, t.__name__))


def to_json(data):
    return _text(data, "\n") + "\n"


def load_fixture(text, kind=None):
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        # a JSONDecodeError, an integer past the interpreter's digit limit,
        # or nesting past the recursion limit
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
