from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galideal.abelian import (
    FiniteAbelianGroup,
    ResidueGroup,
    _power,
    coordinates,
    decompose,
    squares_subgroup,
    unit_group,
)
from galideal.brauer import subgroup_lattice, symmetric3
from galideal.cyclotomic import CyclotomicNumber

from conftest import run_python


def test_decompose_cyclic():
    elems = list(range(12))
    inv, gens = decompose(elems, lambda a, b: (a + b) % 12, 0)
    assert inv == (12,)
    assert len(gens) == 1


def test_decompose_klein():
    # (Z/8)^* = {1,3,5,7} is C2 x C2
    g = unit_group(8)
    inv, gens = decompose(g.elements, g.op, g.identity)
    assert inv == (2, 2)


def test_decompose_mixed():
    # (Z/15)^* = C2 x C4 (invariant factors ascending)
    g = unit_group(15)
    inv, _ = decompose(g.elements, g.op, g.identity)
    assert inv == (2, 4)
    # (Z/24)^* = C2 x C2 x C2
    inv24, _ = decompose(unit_group(24).elements, unit_group(24).op, 1)
    assert inv24 == (2, 2, 2)


def test_coordinates_bijective():
    for m in [5, 7, 8, 12, 15, 16, 21, 24, 35]:
        g = unit_group(m)
        A, to_tuple, from_tuple = coordinates(g.elements, g.op, g.identity)
        assert A.order == g.order
        for a in g.elements:
            for b in g.elements:
                lhs = to_tuple[g.op(a, b)]
                rhs = A.op(to_tuple[a], to_tuple[b])
                assert lhs == rhs


def assert_decomposition(elems, mul, identity):
    # the invariants form a divisor chain, each generator's order is its
    # invariant, and coordinates() is a bijection onto the elements
    invariants, gens = decompose(elems, mul, identity)
    assert all(b % a == 0 for a, b in zip(invariants, invariants[1:]))
    for g, d in zip(gens, invariants):
        powers = [g]
        while powers[-1] != identity:
            powers.append(mul(powers[-1], g))
        assert len(powers) == d
    _, to_tuple, from_tuple = coordinates(elems, mul, identity)
    assert sorted(to_tuple) == sorted(elems)
    assert all(from_tuple[to_tuple[g]] == g for g in elems)


def test_decompose_units_and_squares():
    for m in range(1, 301):
        groups = [unit_group(m)]
        if m % 2:
            groups.append(squares_subgroup(m))
        for g in groups:
            assert_decomposition(g.elements, g.op, g.identity)


def reference_from_tuple(elems, mul, identity):
    # the coordinate table element by element, one _power per coordinate:
    # O(|G| * sum d_i) products
    invariants, gens = decompose(elems, mul, identity)
    from_tuple = {}
    for e in FiniteAbelianGroup(invariants).elements:
        g = identity
        for gi, ei in zip(gens, e):
            g = mul(g, _power(gi, ei, mul, identity))
        from_tuple[e] = g
    return from_tuple


@pytest.mark.parametrize("m", [1, 2, 8, 125, 840, 1000, 1155])
def test_coordinates_match_power_reference(m):
    # same dict in the same key order, from about 2|G| products
    g = unit_group(m)
    calls = []

    def mul(a, b):
        calls.append(None)
        return g.op(a, b)

    A, to_tuple, from_tuple = coordinates(g.elements, mul, g.identity)
    table_calls = len(calls)
    calls.clear()
    decompose(g.elements, mul, g.identity)
    expected = reference_from_tuple(g.elements, g.op, g.identity)
    assert list(from_tuple.items()) == list(expected.items())
    assert to_tuple == {x: e for e, x in expected.items()}
    assert table_calls - len(calls) <= 2 * g.order


def test_input_checks_survive_optimize_flag():
    # python -O strips asserts; each bad input must still raise ValueError.
    # With asserts, (Z/10) with 5 was a 3-element "group", unit_group(0)
    # divided by zero and level -1 gave a TypeError.
    script = """
from galideal.abelian import FiniteAbelianGroup, ResidueGroup, unit_group
from galideal.cycloideal import CyclotomicLevel
calls = {
    "non-unit residue": lambda: ResidueGroup(10, [1, 3, 5]),
    "repeated residue": lambda: ResidueGroup(10, [1, 3, 13]),
    "no identity": lambda: ResidueGroup(10, [3, 7]),
    "unit_group(0)": lambda: unit_group(0),
    "invariant 1": lambda: FiniteAbelianGroup((1, 2)),
    "not a divisor chain": lambda: FiniteAbelianGroup((2, 3)),
    "level -1": lambda: CyclotomicLevel(7, -1),
    "characters of two groups": lambda: (unit_group(7).characters()[1]
                                         * unit_group(9).characters()[1]),
}
for name, call in calls.items():
    try:
        call()
        print(name)
    except ValueError:
        pass
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_unit_group_cached_identity():
    assert unit_group(7) is unit_group(7)


def test_unit_group_sieve_matches_gcd_filter():
    # the sieved units against a gcd filter, for m = 1 and 2, the powers of
    # 2, odd prime powers and moduli with three primes (30, 60, ..., 390)
    for m in range(1, 401):
        g = unit_group(m)
        assert g.elements == [a for a in range(m) if gcd(a, m) == 1], m
        assert [g.index(a) for a in g.elements] == list(range(g.order))
        assert all(g.inv(a) * a % m == 1 % m for a in g.elements), m
        assert unit_group(m) is g
        # the unchecked path builds what the checked constructor accepts
        assert g == ResidueGroup(m, g.elements) and g.identity == 1 % m


def character_table_orthogonality(group):
    chars = group.characters()
    n = group.order
    for c1 in chars:
        for c2 in chars:
            s = CyclotomicNumber.zero()
            for g in group.elements:
                v = c2(g)
                s = s + c1(g) * v.galois(v.order - 1)
            if c1 == c2:
                assert s == CyclotomicNumber.from_rational(n)
            else:
                assert s.is_zero()


def test_character_orthogonality_units():
    for m in [1, 3, 4, 5, 7, 8, 12]:
        character_table_orthogonality(unit_group(m))


def test_character_orthogonality_abstract():
    character_table_orthogonality(FiniteAbelianGroup((2, 4)))


def test_characters_multiplicative():
    g = unit_group(9)
    for chi in g.characters():
        for a in g.elements:
            for b in g.elements:
                assert chi(g.op(a, b)) == chi(a) * chi(b)


def test_character_exponents():
    # chi(e) = zeta_N^k with k = chi.exponent(e) in [0, N), additive in e
    g = FiniteAbelianGroup((2, 6))
    N = g.exponent
    for chi in g.characters():
        for a in g.elements:
            k = chi.exponent(a)
            assert 0 <= k < N and chi(a) == CyclotomicNumber.zeta(N, k)
            for b in g.elements:
                assert chi.exponent(g.op(a, b)) == (k + chi.exponent(b)) % N


@pytest.mark.parametrize("m", [1, 8, 15, 1000])
def test_character_by_index_matches_the_list(m):
    g = unit_group(m)
    chars = g.characters()
    for i, chi in enumerate(chars):
        alone = g.character(i)
        assert alone == chi
        # the same values, non-units included (the Dirichlet convention)
        assert [alone.exponent(a) for a in range(min(m, 40))] == \
            [chi.exponent(a) for a in range(min(m, 40))]


@pytest.mark.parametrize("invariants", [(), (2,), (2, 4), (2, 2, 6), (3, 9)],
                         ids=str)
def test_abelian_group_character_by_index_matches_the_list(invariants):
    # character(i) is built alone, with the tuple and row of characters()[i]
    g = FiniteAbelianGroup(invariants)
    alone = [g.character(i) for i in range(g.order)]
    assert g._characters is None
    for chi, ref in zip(alone, g.characters()):
        assert chi == ref and chi.tuple == ref.tuple
        assert chi.row == ref.row == [ref.exponent(a) for a in g.elements]


class _Unread:
    # an element list that fails when it is read or compared
    def __iter__(self):
        raise AssertionError("element list read")

    def __eq__(self, other):
        raise AssertionError("element list compared")


def test_residue_group_hash_and_self_equality_read_no_elements():
    g = ResidueGroup(15, [1, 4])
    h = hash(g)
    assert h == hash(ResidueGroup(15, [4, 1]))
    g.elements = _Unread()
    assert hash(g) == h and g == g and not g != g
    # subgroups of one order share a hash, and == tells them apart
    a, b = ResidueGroup(15, [1, 4]), ResidueGroup(15, [1, 11])
    assert hash(a) == hash(b) and a != b and a == ResidueGroup(15, [1, 4])


def test_residue_group_makes_one_lookup():
    g = ResidueGroup(7, [1, 2, 4])
    first, second = g.character(1), g.character(2)
    assert first._lookup is second._lookup
    assert first._positions is second._positions


def test_rows_are_the_exponents_and_built_on_first_read():
    # chi.row[i] = chi.exponent(group.elements[i]), for unit groups, a
    # proper subgroup of units, abstract groups and an abelianization; the
    # list of characters is kept per group, each row built once when read
    s3 = [r for r in subgroup_lattice(symmetric3()) if len(r.elements) == 6][0]
    cases = [(g, g.characters) for g in [
        ResidueGroup(m, [a for a in range(m) if gcd(a, m) == 1])
        for m in (1, 8, 15, 91)] + [
        squares_subgroup(29), FiniteAbelianGroup(()),
        FiniteAbelianGroup((2, 6)), FiniteAbelianGroup((2, 2, 4))]]
    for group, characters in cases + [(s3.ab, s3.characters)]:
        chars = characters()
        assert characters() is chars
        for chi in chars:
            assert chi._row is None
            assert chi.row == [chi.exponent(g) for g in group.elements]
            assert chi.row is chi.row
        psi = chars[-1]
        assert (psi ** 5).row == [psi.exponent(g) * 5 % psi.root_order
                                  for g in group.elements]


def test_dirichlet_convention():
    chi = unit_group(6).characters()[1]
    assert chi(3).is_zero()
    assert chi(2).is_zero()
    assert chi(5) == CyclotomicNumber.from_rational(-1)


def test_parity():
    g = unit_group(5)
    chars = g.characters()
    odd = [c for c in chars if c(-1) == -1]
    even = [c for c in chars if c.exponent(-1) == 0]
    assert len(odd) == 2 and len(even) == 2
    assert all(c(-1) == c(4) for c in chars)


def test_squares_subgroup():
    h = squares_subgroup(7)
    assert h.elements == [1, 2, 4]
    assert 6 not in h
    # index 2, and -1 is not a square mod 7 (7 = 3 mod 4)
    assert unit_group(7).order == 2 * h.order


def test_residue_convention_on_proper_subgroup():
    # H = {1, 2, 4} in (Z/7)^*: arguments reduce mod 7, non-units give 0,
    # and a unit outside H is an error rather than a silent value
    h = squares_subgroup(7)
    for chi in h.characters():
        assert chi.exponent(9) == chi.exponent(2)
        assert chi.exponent(14) is None
        assert chi(14).is_zero()
        with pytest.raises(KeyError):
            chi.exponent(3)


def test_subgroup_of_units():
    h = ResidueGroup(7, [4, 1, 2])
    assert h.elements == [1, 2, 4]
    assert h.inv(2) == 4


def test_subgroup_characters_are_restrictions():
    big = unit_group(7)
    h = squares_subgroup(7)
    # every character of H extends a restriction from G (here: count them)
    hchars = h.characters()
    assert len(hchars) == 3
    seen = set()
    for chi in big.characters():
        restricted = tuple(chi(a) for a in h.elements)
        seen.add(restricted)
    assert len(seen) == 3


def test_trivial_modulus():
    g = unit_group(1)
    assert g.elements == [0]
    chi = g.characters()[0]
    assert chi(41) == CyclotomicNumber.one()


@settings(max_examples=40)
@given(st.sampled_from([3, 4, 5, 8, 9, 15]), st.data())
def test_character_group_structure(m, data):
    g = unit_group(m)
    chars = g.characters()
    c1 = data.draw(st.sampled_from(chars))
    c2 = data.draw(st.sampled_from(chars))
    a = data.draw(st.sampled_from(g.elements))
    assert (c1 * c2)(a) == c1(a) * c2(a)
    v = c1(a)
    assert c1.inverse()(a) == v.galois(v.order - 1)
    assert (c1 ** 3)(a) == c1(a) * c1(a) * c1(a)
