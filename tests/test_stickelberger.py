import importlib
from fractions import Fraction

import pytest

from galideal.abelian import squares_subgroup, unit_group
from galideal.dirichlet import PlaceSet, horner, is_prime
from galideal.groupring import GroupRingElement, invert_unit, psi_eval
from galideal.stickelberger import (
    base_change_element,
    complex_conjugation,
    even_extension,
    half_stickelberger,
    include_subgroup,
    quadratic_character,
    ramified_places,
    stickelberger,
    stickelberger_by_characters,
)


def theta(m, r=0):
    return stickelberger(m, ramified_places(m), r)


def test_theta_mod3():
    t = theta(3, 0)
    g = unit_group(3)
    assert t == GroupRingElement(g, {1: Fraction(1, 6), 2: Fraction(-1, 6)})
    t1 = theta(3, -1)
    assert t1 == GroupRingElement(g, {1: Fraction(1, 12), 2: Fraction(1, 12)})


def test_theta_mod7_frozen():
    t = theta(7, 0)
    g = unit_group(7)
    expected = GroupRingElement(g, {
        1: Fraction(5, 14), 2: Fraction(-1, 14), 3: Fraction(-3, 14),
        4: Fraction(3, 14), 5: Fraction(1, 14), 6: Fraction(-5, 14)})
    assert t == expected


def test_routes_agree():
    # Hurwitz values times Euler factors against lambda-assembled L-values
    for m in [1, 2, 3, 4, 5, 7, 8, 9, 12, 15]:
        for extra in [(), (2,), (3, 5), (11,), (2, 13)]:
            s = PlaceSet(ramified_places(m).primes +
                         tuple(p for p in extra if m % p))
            for r in [0, -1, -2]:
                assert stickelberger(m, s, r) == \
                    stickelberger_by_characters(m, s, r), (m, s, r)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 12, 15, 49])
@pytest.mark.parametrize("r", [0, -1])
def test_one_hurwitz_value_per_sign_pair(monkeypatch, m, r):
    # theta fills the class of -a from that of a by parity, so it takes
    # ceil(phi(m)/2) Hurwitz values, each one evaluation of the integer
    # Hurwitz polynomial; for m <= 2 the only class is a = -a.
    # The package exports a function named like the module, hence importlib.
    mod = importlib.import_module("galideal.stickelberger")
    calls = []

    def counted(*args):
        calls.append(args)
        return horner(*args)

    monkeypatch.setattr(mod, "horner", counted)
    g = unit_group(m)
    s = PlaceSet(ramified_places(m).primes + ((5,) if m % 5 else ()))
    x = stickelberger(m, s, r)
    assert len(calls) == -(-g.order // 2)
    monkeypatch.undo()
    assert x == stickelberger_by_characters(m, s, r)


def test_stickelberger_refuses_bad_input():
    with pytest.raises(ValueError):
        stickelberger(6, PlaceSet([3]))  # 2 | 6 is missing from S
    with pytest.raises(ValueError):
        stickelberger(7, ramified_places(7), 1)


def test_minus_eigenspace():
    # c theta = -theta at r = 0 (m > 2); c theta = (-1)^{1-r} theta generally
    for m in [3, 5, 7, 9]:
        g = unit_group(m)
        c = GroupRingElement.basis(g, complex_conjugation(m))
        for r in [0, -1, -2, -3]:
            t = theta(m, r)
            assert c * t == t.scale((-1) ** (1 - r)), (m, r)


def test_half_stickelberger_mod7():
    ht = half_stickelberger(7)
    h = squares_subgroup(7)
    assert h.elements == [1, 2, 4]
    expected = GroupRingElement(h, {
        1: Fraction(5, 14), 2: Fraction(-1, 14), 4: Fraction(3, 14)})
    assert ht == expected


def test_half_stickelberger_integrality():
    for m in [7, 11, 19, 23, 49]:
        ht = half_stickelberger(m)
        mu = m if m % 2 == 0 else 2 * m  # roots of unity in Q(zeta_m)
        for c in map(ht.coefficient, ht.group.elements):
            assert (mu * c).denominator == 1, m


def test_half_identity_one_minus_c():
    # (1 - c) theta-tilde = theta, inside Q[G]
    for m in [7, 11, 19, 23]:
        g = unit_group(m)
        ht = include_subgroup(half_stickelberger(m), g)
        c = GroupRingElement.basis(g, complex_conjugation(m))
        lhs = ht - c * ht
        assert lhs == theta(m, 0), m


def test_half_stickelberger_extra_places():
    # (1 - c) theta-tilde_S = theta_S with S beyond the ramified primes,
    # against the character route, theta-tilde_S being theta_S read on the
    # squares as half_stickelberger reads theta on them
    for m, extra in [(7, (2,)), (11, (3, 5))]:
        s = PlaceSet((m,) + extra)
        g = unit_group(m)
        h = squares_subgroup(m)
        theta = stickelberger(m, s, 0)
        ht = include_subgroup(GroupRingElement(
            h, {a: theta.coefficient(a) for a in h.elements}), g)
        c = GroupRingElement.basis(g, complex_conjugation(m))
        assert ht - c * ht == stickelberger_by_characters(m, s, 0), m


def test_half_stickelberger_validations():
    with pytest.raises(ValueError, match="index is 4"):
        half_stickelberger(8)  # the squares mod 8 are {1}
    with pytest.raises(ValueError, match="conjugation"):
        half_stickelberger(13)  # -1 is a square mod 13


def test_quadratic_character_cuts_out_imaginary_field():
    g = unit_group(7)
    rho = quadratic_character(g)
    assert rho(-1) == -1  # 7 = 3 mod 4: the field is imaginary
    h = squares_subgroup(7)
    assert all(rho(a) == 1 for a in h.elements)


def test_even_extension_bijection():
    g = unit_group(11)
    h = squares_subgroup(11)
    seen = set()
    for eta in h.characters():
        psi = even_extension(g, eta)
        assert psi.exponent(-1) == 0
        seen.add(psi)
    assert len(seen) == h.order


def quadratic_character_by_search(group):
    quads = [chi for chi in group.characters()
             if any(chi.tuple) and not any((chi ** 2).tuple)]
    assert len(quads) == 1, "expected a unique quadratic character"
    return quads[0]


def even_extension_by_search(group, subgroup, eta):
    # the unique even character of `group` restricting to eta on `subgroup`
    matches = [psi for psi in group.characters() if psi.exponent(-1) == 0
               and all(psi(h) == eta(h) for h in subgroup.elements)]
    assert len(matches) == 1, "even extension not unique"
    return matches[0]


def test_direct_characters_match_the_searches():
    # the characters read off the coordinates of (Z/ell)^* are the ones a
    # search over every character finds, for each odd prime ell < 100
    for ell in filter(is_prime, range(3, 100)):
        g = unit_group(ell)
        assert quadratic_character(g) == quadratic_character_by_search(g)
        if ell % 4 == 3:
            h = squares_subgroup(ell)
            for eta in h.characters():
                assert (even_extension(g, eta)
                        == even_extension_by_search(g, h, eta)), (ell, eta)


def test_l_value_equals_pairing_identity():
    # L_S(0, rho psi) = 2 psi|_H(tau theta-tilde) for every even psi
    from galideal.dirichlet import l_value

    for ell in [7, 11]:
        g = unit_group(ell)
        h = squares_subgroup(ell)
        rho = quadratic_character(g)
        tt = half_stickelberger(ell).tau()
        for eta in h.characters():
            psi = even_extension(g, eta)
            lhs = l_value(0, rho * psi, ramified_places(ell))
            rhs = 2 * psi_eval(tt, eta)
            assert lhs == rhs, (ell, eta.index)


def test_base_change_element():
    for ell in [7, 11]:
        b = base_change_element(ell)
        tb_inv = invert_unit(b.tau())
        assert tb_inv == half_stickelberger(ell).scale(2), ell


def test_base_change_element_frozen_mod7():
    # tau(B)^{-1} = (5 s1 - s2 + 3 s4)/7
    b = base_change_element(7)
    h = squares_subgroup(7)
    expected_inv = GroupRingElement(h, {
        1: Fraction(5, 7), 2: Fraction(-1, 7), 4: Fraction(3, 7)})
    assert invert_unit(b.tau()) == expected_inv
