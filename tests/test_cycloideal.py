import json
from fractions import Fraction
from pathlib import Path

import pytest

from galideal.abelian import squares_subgroup
from galideal.cycloideal import (CyclotomicLevel, eigenspace_ideal,
                                 full_ideal_parts,
                                 ideal_J_full, ideal_J_imagquad, ideal_J_minus,
                                 ideal_J_real, plus_quotient, plus_tower,
                                 smallest_primitive_root)
from galideal.dirichlet import PlaceSet
from galideal.groupring import GroupRingElement, invert_unit, map_elements
from galideal.lattice import (contains_element, contains_vector,
                              from_generators, group_labels, ideal_elements,
                              intersect, map_image, scale_by, unit_ideal)
from galideal.serialize import parse_lattice
from galideal.stickelberger import (base_change_element, half_stickelberger,
                                    stickelberger)
from galideal.towers import check_quotient_containment, cyclotomic_tower

from conftest import run_python


def theta(m, r=0):
    ell = min(p for p in range(2, m + 1) if m % p == 0)
    return stickelberger(m, PlaceSet([ell]), r)


def test_primitive_roots():
    assert smallest_primitive_root(3) == 2
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(23) == 5
    with pytest.raises(ValueError):
        smallest_primitive_root(15)


def test_level_structure():
    lev = CyclotomicLevel(3, 1)
    assert lev.modulus == 9
    assert lev.conjugation == 8
    assert lev.tame == [1, 8]
    assert list(lev.wild) == [1, 4, 7]
    lev5 = CyclotomicLevel(5, 0)
    assert lev5.tame == [1, 2, 4, 3] and list(lev5.wild) == [1]
    with pytest.raises(ValueError):
        CyclotomicLevel(9, 0)


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                                 43, 47, 53, 59, 61])
def test_level_generator_generates(ell):
    # the tame generator times 1 + ell has order phi(m): no Wieferich
    # exception, as the two orders are coprime
    from sympy import n_order, totient

    for n in range(3 if ell <= 7 else 2):
        level = CyclotomicLevel(ell, n)
        m = level.modulus
        assert n_order(level.generator, m) == totient(m) == level.group.order


@pytest.mark.parametrize("ell,n", [(3, 0), (3, 3), (5, 0), (5, 2), (7, 1),
                                  (11, 1), (13, 0)])
def test_tame_residues_are_the_powers_of_one_root(ell, n):
    # tame is the set of (ell-1)-th roots of unity mod m, in power order
    level = CyclotomicLevel(ell, n)
    m = level.modulus
    assert (set(level.tame)
            == {a for a in level.group.elements if pow(a, ell - 1, m) == 1})
    assert len(level.tame) == ell - 1
    assert all(t == level.tame[1] ** i % m for i, t in enumerate(level.tame))
    assert list(level.wild) == [a for a in level.group.elements
                                if a % ell == 1]


@pytest.mark.parametrize("ell,n,r", [(3, 0, 0), (3, 2, -1), (5, 1, 0),
                                     (7, 1, -2), (13, 0, -1)])
def test_eigenspace_ideal_matches_full_closure(ell, n, r):
    # the half-dimension route against the full-dimension closure under the
    # greedy generating set, with and without an extra place
    level = CyclotomicLevel(ell, n)
    for places in (level.places(), PlaceSet([ell, 2])):
        th = stickelberger(level.modulus, places, r)
        assert (eigenspace_ideal(level, [th], (-1) ** (1 - r))
                == from_generators(level.group, [th]))
    assert ideal_J_minus(level, r) == from_generators(
        level.group, [stickelberger(level.modulus, level.places(), r)])


def test_eigenspace_ideal_rejects_generators_off_the_eigenspace():
    level = CyclotomicLevel(5, 1)
    th = theta(25, 0)
    one = GroupRingElement.one(level.group)
    assert eigenspace_ideal(level, [th], -1) == ideal_J_minus(level, 0)
    for gens, eps in (([th], 1), ([th, one], -1), ([one], -1)):
        with pytest.raises(ValueError, match="eigenspace of conjugation"):
            eigenspace_ideal(level, gens, eps)
    with pytest.raises(ValueError, match="eigenspace of conjugation"):
        eigenspace_ideal(level, [theta(5, 0)], -1)


def test_plus_quotient_group():
    q = plus_quotient(7)
    assert q.elements == [1, 2, 3]
    assert q.op(2, 2) == 3          # 4 = -3
    assert q.op(2, 3) == 1          # 6 = -1
    assert q.inv(2) == q.normalize(4) == 3
    assert q.label(3) == "s3+"
    tower = plus_tower(7)
    tower.validate()
    assert sorted(tower.kernel) == [1, 6]


def test_idempotent_split():
    lev = CyclotomicLevel(5, 0)
    ep = _plus_idempotent(lev)
    for r in (0, -1, -2, -3):
        em = _minus_idempotent(lev, r)
        assert em * em == em
        if r % 2 == 0:
            assert ep + em == GroupRingElement.one(lev.group)
        # theta(r) lives in the twisted minus eigenspace
        th = theta(5, r)
        assert em * th == th


def test_full_ideal_shape_mod_3():
    lev = CyclotomicLevel(3, 0)
    J = ideal_J_full(lev)
    # membership probes: (1,1) from the plus summand, theta = (1,-1)/6 from
    # the minus summand, their sum, but nothing with a 3 under the plus part
    assert contains_vector(J, [1, 1])
    assert contains_vector(J, [Fraction(1, 6), Fraction(-1, 6)])
    assert contains_vector(J, [Fraction(1, 2), Fraction(1, 2)])
    assert not contains_vector(J, [Fraction(1, 3), Fraction(1, 3)])
    assert not contains_vector(J, [Fraction(1, 3), 0])
    assert J.denominator == 3


def test_full_ideal_is_direct_sum():
    for ell, n in ((3, 0), (5, 0), (3, 1)):
        lev = CyclotomicLevel(ell, n)
        plus, minus = full_ideal_parts(lev)
        assert intersect(plus, minus).is_zero()


def test_full_ideal_projections():
    for ell, n in ((3, 0), (5, 0), (7, 0)):
        lev = CyclotomicLevel(ell, n)
        J = ideal_J_full(lev)
        plus, minus = full_ideal_parts(lev)
        assert scale_by(J, lev.group, _minus_idempotent(lev)) == minus
        assert scale_by(J, lev.group, _plus_idempotent(lev)) == plus
        assert minus == from_generators(lev.group, [theta(lev.modulus)])


def test_plus_part_integral_under_unit_fixture():
    # with the unit-ideal fixture the plus summand sits inside Z[1/2][G]
    for ell, n in ((3, 0), (5, 0), (7, 0), (3, 1)):
        lev = CyclotomicLevel(ell, n)
        plus, _ = full_ideal_parts(lev)
        assert plus.denominator == 1


GOLDEN = Path(__file__).parent / "golden"


def _units_fixture(name):
    payload = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    return parse_lattice(payload["lattice"])


@pytest.mark.parametrize("ell,n,fixture", [
    (3, 0, None), (5, 1, None), (7, 1, None), (3, 3, None),
    (43, 0, "units-43.json"), (7, 1, "units-49.json")])
def test_plus_summand_is_the_inflated_annihilator(ell, n, fixture):
    # the half-coordinate route against span{(1/2) e_plus lift(x)} over the
    # annihilator's generators x, lifted to G as elements of Q[G]
    lev = CyclotomicLevel(ell, n)
    quot = plus_quotient(lev.modulus)
    units = (unit_ideal(quot) if fixture is None
             else _units_fixture(fixture))
    half_ep = _plus_idempotent(lev).scale(Fraction(1, 2))
    gens = [half_ep * map_elements(x, lev.group, lambda a: a)
            for x in ideal_elements(units, quot)]
    plus, _ = full_ideal_parts(lev, units)
    assert plus == from_generators(lev.group, gens)


def test_full_ideal_refuses_units_on_another_ambient():
    # unit data over (Z/5)^* given for the level of conductor 7 must fail
    # with both label sets named, also under python -O (no assert)
    script = """
from galideal.abelian import unit_group
from galideal.cycloideal import CyclotomicLevel, ideal_J_full
from galideal.lattice import unit_ideal
try:
    ideal_J_full(CyclotomicLevel(7, 0), unit_ideal(unit_group(5)))
    print("accepted")
except ValueError as e:
    print(e)
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("ambient mismatch: ('s1', 's2', 's3', 's4'), "
                           "expected ('s1+', 's2+', 's3+')\n")


def test_real_and_imagquad_refuse_units_on_another_ambient():
    # the same for the parts built from the real half alone: ideal_J_real
    # returns the unit lattice itself, so it checks the ambient with a raise
    script = """
from galideal.abelian import unit_group
from galideal.cycloideal import CyclotomicLevel, ideal_J_imagquad, ideal_J_real
from galideal.lattice import unit_ideal
for build in (ideal_J_real, ideal_J_imagquad):
    try:
        build(CyclotomicLevel(7, 0), unit_ideal(unit_group(5)))
        print("accepted")
    except ValueError as e:
        print(e)
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == 2 * [
        "ambient mismatch: ('s1', 's2', 's3', 's4'), "
        "expected ('s1+', 's2+', 's3+')"]


def test_tower_input_checks_survive_optimize_flag():
    # each tower input check raises ValueError under python -O, which
    # strips asserts
    script = """
from galideal.abelian import FiniteAbelianGroup
from galideal.cycloideal import PlusQuotientGroup
from galideal.towers import TowerDatum, cyclotomic_tower
C2, C4 = FiniteAbelianGroup((2,)), FiniteAbelianGroup((4,))
for make in [lambda: TowerDatum(C4, C2, lambda e: (0,)).validate(),
             lambda: cyclotomic_tower(9, 2),
             lambda: PlusQuotientGroup(1)]:
    try:
        make()
        print("accepted")
    except ValueError as e:
        print(e)
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "projection not surjective",
        "modulus 2 does not divide 9",
        "modulus 1 has no plus quotient",
    ]


def test_real_ideal_trivial_after_saturation():
    lev = CyclotomicLevel(7, 0)
    assert ideal_J_real(lev) == unit_ideal(plus_quotient(7))


def test_full_to_real_quotient():
    for ell, n in ((3, 0), (5, 0), (7, 0), (3, 1), (5, 1), (7, 1)):
        lev = CyclotomicLevel(ell, n)
        rep = check_quotient_containment(
            plus_tower(lev.modulus),
            ideal_elements(ideal_J_full(lev), lev.group), ideal_J_real(lev))
        assert rep.passed, (ell, n, rep.witness)


def test_full_to_real_negative_control():
    lev = CyclotomicLevel(3, 0)
    q = plus_quotient(3)
    shrunk = from_generators(q, [GroupRingElement.one(q).scale(3)])
    half = GroupRingElement.one(q).scale(Fraction(1, 2))
    rep = check_quotient_containment(
        plus_tower(3), ideal_elements(ideal_J_full(lev), lev.group),
        scale_by(shrunk, q, half))
    assert not rep.passed
    assert rep.witness is not None


def test_level_drop_containments():
    for ell in (3, 5, 7):
        up, down = CyclotomicLevel(ell, 1), CyclotomicLevel(ell, 0)
        tow = cyclotomic_tower(up.modulus, down.modulus)
        rep = check_quotient_containment(
            tow, ideal_elements(ideal_J_full(up), up.group), ideal_J_full(down))
        assert rep.passed, (ell, rep.witness)
        repr_ = check_quotient_containment(
            plus_tower(down.modulus),
            ideal_elements(ideal_J_full(down), down.group), ideal_J_real(down))
        assert repr_.passed


def test_minus_ideal_level_drop():
    for ell in (3, 5):
        up, down = CyclotomicLevel(ell, 1), CyclotomicLevel(ell, 0)
        tow = cyclotomic_tower(up.modulus, down.modulus)
        for r in (0, -1, -2):
            rep = check_quotient_containment(
                tow, ideal_elements(ideal_J_minus(up, r), up.group),
                ideal_J_minus(down, r))
            assert rep.passed, (ell, r, rep.witness)


def test_imagquad_examples():
    lev = CyclotomicLevel(7, 0)
    h = squares_subgroup(7)
    JQ = ideal_J_imagquad(lev)
    ttilde = half_stickelberger(7)
    assert JQ == from_generators(h, [ttilde.scale(2)])
    # w_7 = 14 roots of unity in Q(zeta_7)
    assert contains_element(JQ, h, ttilde.scale(14))


def _phi_pull_matrix(level):
    # the isomorphism Q[G+] -> Q[H] inverse to a -> {a, m-a} on the index-2
    # subgroup H avoiding conjugation, as a permutation matrix (plus-quotient
    # coordinates to H coordinates)
    h = squares_subgroup(level.modulus)
    quot = plus_quotient(level.modulus)
    back = {quot.normalize(a): a for a in h.elements}
    assert len(back) == quot.order
    T = [[0] * quot.order for _ in range(h.order)]
    for j, q in enumerate(quot.elements):
        T[h.index(back[q])][j] = 1
    return T


def test_imagquad_base_change_consistency():
    for ell in (7, 11):
        lev = CyclotomicLevel(ell, 0)
        h = squares_subgroup(ell)
        JQ = ideal_J_imagquad(lev)
        real_h = map_image(ideal_J_real(lev), _phi_pull_matrix(lev),
                           group_labels(h))
        B = base_change_element(ell)
        assert scale_by(real_h, h, invert_unit(B.tau())) == JQ


def test_imagquad_requires_3_mod_4():
    with pytest.raises(ValueError, match="3 \\(mod 4\\)"):
        ideal_J_imagquad(CyclotomicLevel(5, 0))


def _odd(x):
    x = abs(x)
    return x // (x & -x)


RESULTANT_CASES = ([(3, n) for n in range(5)] + [(5, n) for n in range(3)]
                   + [(7, 0), (7, 1), (11, 0), (23, 0), (37, 0)])


@pytest.mark.parametrize("r", [0, -1, -2])
@pytest.mark.parametrize("ell,n", RESULTANT_CASES)
def test_minus_index_is_a_resultant(ell, n, r):
    # theta(r) spans a principal ideal of Z[t]/(t^k - eps) in the half
    # coordinates g^0 .. g^(k-1), k = phi(m)/2, g a primitive root and
    # eps = (-1)^(1-r), so its index is |Res(theta-bar, t^k - eps)|; the
    # index of J's numerator lattice is prod pivots * (den theta / den J)^k,
    # and 2-saturation leaves the odd parts equal.  sympy is the reference
    # for both the primitive root and the resultant.
    from sympy import Poly, primitive_root, resultant, symbols

    level = CyclotomicLevel(ell, n)
    m, group = level.modulus, level.group
    th = stickelberger(m, level.places(), r)
    k = group.order // 2
    g = primitive_root(m)
    t = symbols("t")
    coeffs = [th.nums[group.index(pow(g, i, m))] for i in range(k)]
    bar = Poly(coeffs[::-1], t)
    eps = (-1) ** (1 - r)
    res = resultant(bar, Poly(t ** k - eps, t))
    J = ideal_J_minus(level, r)
    assert J.rank == k
    pivots = 1
    for col in J.columns:
        pivots *= next(x for x in col if x)
    index = pivots * (th.den // J.denominator) ** k
    assert th.den % J.denominator == 0
    assert _odd(int(res)) == _odd(index)


# h^-_m of Q(zeta_m) at m = ell^(n+1), keyed by (ell, n), typed from the
# table of relative class numbers in Washington, Introduction to Cyclotomic
# Fields
RELATIVE_CLASS_NUMBERS = {
    (3, 0): 1, (5, 0): 1, (7, 0): 1, (11, 0): 1, (13, 0): 1, (17, 0): 1,
    (19, 0): 1, (23, 0): 3, (29, 0): 8, (31, 0): 9, (37, 0): 37,
    (41, 0): 121, (43, 0): 211, (47, 0): 695, (53, 0): 4889,
    (59, 0): 41241, (61, 0): 76301,
    (3, 1): 1, (5, 1): 1, (3, 2): 1, (7, 1): 43, (3, 3): 2593,
}


def _plus_idempotent(level):
    # e_plus = (1 + c)/2, the projector onto the conjugation-fixed part
    one = GroupRingElement.one(level.group)
    c = GroupRingElement.basis(level.group, level.conjugation)
    return (one + c).scale(Fraction(1, 2))


def _minus_idempotent(level, r=0):
    # (1 -+ c)/2, the projector onto the conjugation eigenspace holding
    # theta(r), where conjugation acts by (-1)^(1-r)
    one = GroupRingElement.one(level.group)
    c = GroupRingElement.basis(level.group, level.conjugation)
    sign = -1 if r % 2 == 0 else 1
    return (one + c.scale(sign)).scale(Fraction(1, 2))


def _minus_index(level):
    # cov(J) / cov(R) for J the Stickelberger span at r = 0 and R the span
    # of the minus idempotent, cov(L) = prod pivots / den^rank the
    # covolume of L in its Q-span
    def cov(L):
        pivots = 1
        for col in L.columns:
            pivots *= next(x for x in col if x)
        return Fraction(abs(pivots), L.denominator ** L.rank)
    J = ideal_J_minus(level, 0)
    R = from_generators(level.group, [_minus_idempotent(level, 0)])
    assert J.rank == R.rank == level.group.order // 2
    return cov(J) / cov(R)


def _v(p, x):
    # p-adic valuation of a nonzero integer
    v = 0
    while x % p == 0:
        x, v = x // p, v + 1
    return v


@pytest.mark.parametrize("ell,n", sorted(RELATIVE_CLASS_NUMBERS))
def test_minus_index_is_the_relative_class_number(ell, n):
    # Iwasawa's index theorem with the analytic class number formula: the
    # Stickelberger span has index h^-_m / m in the minus part, up to a
    # power of 2 (which the Z[1/2]-modules cannot see)
    index = _minus_index(CyclotomicLevel(ell, n))
    h = RELATIVE_CLASS_NUMBERS[ell, n]
    m = ell ** (n + 1)
    assert Fraction(_odd(index.numerator), _odd(index.denominator)) == \
        Fraction(_odd(h), m)


@pytest.mark.parametrize("ell,n,v", [(3, n, 0) for n in range(6)]
                         + [(37, 0, 1)])
def test_minus_index_sees_regularity(ell, n, v):
    # 3 is regular, so 3 never divides h^-_m at m = 3^(n+1): its Iwasawa
    # invariants are lambda = mu = 0 (Washington, ch. 13); 37 is irregular
    # and divides h^-_37 exactly once
    index = _minus_index(CyclotomicLevel(ell, n)) * ell ** (n + 1)
    assert index.denominator & (index.denominator - 1) == 0
    assert _v(ell, index.numerator) == v
