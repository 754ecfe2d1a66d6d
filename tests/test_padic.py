from fractions import Fraction
from math import gcd

import pytest

from galideal.abelian import unit_group
from galideal.cycloideal import CyclotomicLevel
from galideal.cyclotomic import CyclotomicNumber
from galideal.dirichlet import PlaceSet, l_value
from galideal.groupring import GroupRingElement
from galideal.lattice import contains_element, from_generators
from galideal import padic
from galideal.padic import (EigenCoefficient, annihilator_integrality,
                            annihilator_pair, eigen_projection, teichmuller,
                            torsion_annihilator, torsion_exponent, valuation)
from galideal.stickelberger import stickelberger

from conftest import run_python


def theta(m, r=0):
    ell = min(p for p in range(2, m + 1) if m % p == 0)
    return stickelberger(m, PlaceSet([ell]), r)


def test_valuation():
    assert valuation(45, 3) == 2
    assert valuation(Fraction(7, 9), 3) == -2
    assert valuation(Fraction(-50, 3), 5) == 2


def test_teichmuller_roots():
    for ell in (3, 5, 7):
        for K in (1, 4, 12):
            mod = ell ** K
            seen = set()
            for a in range(1, ell):
                t = teichmuller(a, ell, K)
                assert t % ell == a % ell
                assert pow(t, ell - 1, mod) == 1
                seen.add(t)
            assert len(seen) == ell - 1
    # a mod ell determines the lift
    assert teichmuller(2, 5, 6) == teichmuller(7, 5, 6) == teichmuller(27, 5, 6)


def test_coefficient_certification():
    c = EigenCoefficient(numerator=45, scale=1, precision=4, ell=3)
    assert c.exact and c.min_valuation == 1 and c.sign_certified
    zero_deep = EigenCoefficient(numerator=0, scale=0, precision=4, ell=3)
    assert not zero_deep.exact
    assert zero_deep.min_valuation == 4 and zero_deep.sign_certified
    # precision eaten entirely by the denominator: sign unknown
    starved = EigenCoefficient(numerator=0, scale=5, precision=4, ell=3)
    assert starved.min_valuation == -1 and not starved.sign_certified


def test_projection_is_unital():
    for ell, n in ((5, 0), (5, 1), (3, 1)):
        lev = CyclotomicLevel(ell, n)
        one = GroupRingElement.one(lev.group)
        for power in (0, 2):
            if power % (ell - 1) == 1 % (ell - 1):
                continue
            pr = eigen_projection(lev, power, one, precision=4)
            assert not pr.smoothed
            for w, c in zip(pr.wild_elements, pr.coefficients):
                assert c.numerator == (1 if w == 1 else 0)
            assert pr.min_valuation == 0
            assert pr.certified


def test_projection_is_multiplicative():
    lev = CyclotomicLevel(5, 1)
    g = lev.group
    K = 5
    mod = 5 ** K
    x = GroupRingElement(g, {1: 2, 3: -1, 7: 4, 22: 1})
    y = GroupRingElement(g, {2: 3, 9: -2, 11: 5})
    for power in (0, 2, 3):
        px = eigen_projection(lev, power, x, K)
        py = eigen_projection(lev, power, y, K)
        pxy = eigen_projection(lev, power, x * y, K)
        # convolve the residue vectors over the wild group
        wild = list(pxy.wild_elements)
        conv = {w: 0 for w in wild}
        for i, wi in enumerate(wild):
            for j, wj in enumerate(wild):
                conv[wi * wj % 25] += (px.coefficients[i].numerator
                                       * py.coefficients[j].numerator)
        for w, c in zip(wild, pxy.coefficients):
            assert c.numerator == conv[w] % mod


def test_projection_of_theta_mod_5():
    # the omega-eigenspace coefficient of theta is the smoothed L-value
    # -5 L_S(0, conj(omega)); computed independently through the Dirichlet
    # route and embedded by the Teichmuller identification zeta_4 -> t(2)
    K = 6
    mod = 5 ** K
    lev = CyclotomicLevel(5, 0)
    pr = eigen_projection(lev, 1, theta(5), K)
    assert pr.smoothed and len(pr.coefficients) == 1
    g = unit_group(5)
    omega = next(chi for chi in g.characters()
                 if chi(2) == CyclotomicNumber.zeta(4))
    value = l_value(0, omega.inverse(), PlaceSet([5])) * CyclotomicNumber.from_rational(-5)
    assert value.order == 4
    t = teichmuller(2, 5, K)
    embedded = sum(int(q) * pow(t, k, mod)
                   for k, q in enumerate(value.coeffs)) % mod
    c = pr.coefficients[0]
    # the coefficient is numerator/5 (theta has denominator 10), so the
    # numerator must be 5 times the embedded value
    assert c.scale == 1
    assert c.numerator == 5 * embedded % mod
    assert c.exact and c.min_valuation == 0
    assert pr.certified


def test_projection_of_theta_mod_9():
    # frozen by direct expansion: theta over (Z/9)^* has tame components
    # whose omega-projection is (7/9, -5/9, 1/9) on the wild classes
    # (1, 4, 7), and the smoothing factor 1 - 4 sigma^{-1} turns that into
    # the integers (3, -1, -3)
    K = 8
    mod = 3 ** K
    lev = CyclotomicLevel(3, 1)
    pr = eigen_projection(lev, 1, theta(9), K)
    assert pr.wild_elements == (1, 4, 7)
    expected = (3, -1, -3)
    for c, val in zip(pr.coefficients, expected):
        assert c.scale == 2  # theta's denominator is 18
        assert c.numerator == 9 * val % mod
    assert pr.min_valuation == 0
    assert pr.certified


def test_projection_detects_starved_precision():
    lev = CyclotomicLevel(5, 1)
    g = lev.group
    K = 2
    # rationally the tame-trivial component over the wild element 6 cancels
    # (basis(6) against its tame twist); with denominator 5^3 the zero
    # residue cannot certify a valuation sign at precision 2
    t = lev.tame[1]
    x = (GroupRingElement.basis(g, t * 6 % 25)
         - GroupRingElement.basis(g, 6)).scale(Fraction(1, 125))
    pr = eigen_projection(lev, 0, x, K)
    idx = pr.wild_elements.index(6)
    c = pr.coefficients[idx]
    assert c.numerator == 0 and c.scale == 3
    assert not c.sign_certified
    assert not pr.certified


def _torsion_exponent_by_search(m, ell, r):
    # the definition read directly: the largest k with a^(1-r) = 1 mod ell^k
    # for every a = 1 mod ell^min(k, v_ell(m)), searched upward from v_ell(m)
    vm = valuation(m, ell)

    def holds(k):
        step = ell ** min(k, vm)
        mod = ell ** k
        return all(pow(a, 1 - r, mod) == 1 for a in range(1, mod + 1, step))

    k = vm
    while holds(k + 1):
        k += 1
    return k


def test_torsion_exponent_values():
    assert torsion_exponent(3, 3, -1) == 1
    assert torsion_exponent(9, 3, -1) == 2
    assert torsion_exponent(5, 5, -1) == 1
    assert torsion_exponent(9, 3, -2) == 3
    # the closed form v_ell(m) + v_ell(1 - r) against the search, at twists
    # with v_ell(1 - r) from 0 to 2, positive r included, and at moduli
    # with a cofactor prime to ell
    for ell in (3, 5, 7):
        for m in (ell, ell * ell, ell ** 3, 2 * ell, 4 * ell * ell):
            for r in (-1, -2, -3, -4, 1 - ell, 1 - ell * ell, 1 + ell, 3):
                assert torsion_exponent(m, ell, r) == \
                    _torsion_exponent_by_search(m, ell, r), (m, ell, r)


def test_torsion_exponent_rejects_inputs_outside_its_hypotheses():
    # an even or composite ell, an ell not dividing m, and r = 1 (where the
    # search never ended) are refused
    for m, ell, r in ((8, 2, -1), (81, 9, -1), (10, 3, -1), (9, 3, 1)):
        with pytest.raises(ValueError):
            torsion_exponent(m, ell, r)


def test_torsion_annihilator_mod_3():
    ann = torsion_annihilator(3, 3, -1)
    assert ann.exponent == 1
    g = unit_group(3)
    three = GroupRingElement.one(g).scale(3)
    twist = GroupRingElement.basis(g, 2) - GroupRingElement.one(g).scale(4)
    assert contains_element(ann.ideal, g, three)
    assert contains_element(ann.ideal, g, twist)
    # the quotient by the annihilator is the cyclic module of order 3
    assert not contains_element(ann.ideal, g, GroupRingElement.one(g))
    assert ann.ideal.denominator == 1


@pytest.mark.parametrize("m, ell", [(3, 3), (9, 3), (5, 5), (25, 5), (7, 7),
                                     (49, 7)])
@pytest.mark.parametrize("r", [-1, -2])
def test_torsion_annihilator_span_is_already_closed(m, ell, r):
    # the generators' span equals the Z[1/2][G]-module they generate
    ann = torsion_annihilator(m, ell, r)
    assert ann.ideal == from_generators(unit_group(m), list(ann.generators))


def test_worked_deligne_ribet_case():
    g = unit_group(3)
    twist = GroupRingElement.basis(g, 2) - GroupRingElement.one(g).scale(4)
    prod = twist * theta(3, -1)
    expected = GroupRingElement(g, {1: Fraction(-1, 4), 2: Fraction(-1, 4)})
    assert prod == expected
    assert valuation(Fraction(-1, 4), 3) == 0


def test_annihilator_integrality_sweep():
    for ell in (3, 5, 7):
        for m in (ell, ell * ell):
            for r in (-1, -2):
                ok, worst, witness = annihilator_integrality(
                    m, ell, r, theta(m, r))
                assert ok, (m, ell, r, worst, witness)
                assert worst >= 0


def test_annihilator_integrality_negative_control():
    # dropping the ell-power generator to ell^(v-1) must break integrality
    m, ell, r = 9, 3, -1
    g = unit_group(m)
    v = torsion_exponent(m, ell, r)
    weak = GroupRingElement.one(g).scale(ell ** (v - 1))
    prod = weak * theta(m, r)
    assert min(valuation(c, ell)
               for c in map(prod.coefficient, g.elements) if c) < 0


def _all_generator_integrality(m, ell, r, theta):
    # the reference: theta times every one of the phi(m) + 1 generators, the
    # witness the first that attains a negative minimum
    worst = witness = None
    for k, gen in enumerate(torsion_annihilator(m, ell, r).generators):
        prod = gen * theta
        if prod.is_zero():
            continue
        v = valuation(gcd(*prod.nums), ell) - valuation(prod.den, ell)
        if worst is None or v < worst:
            worst = v
            witness = k if v < 0 else witness
    return (worst is None or worst >= 0), worst, witness


def _moved_thetas(m, ell, x):
    # x, and x with one coefficient moved by 1/ell or 1/ell^2
    yield x
    for a, c in ((1, Fraction(1, ell)), (m - 1, Fraction(1, ell * ell)),
                 (2, Fraction(-1, ell))):
        yield x + GroupRingElement(x.group, {a: c})


# m = 11^3 and 13^3 are left out: there the reference loop takes 1.7 and
# 3.7 s per theta, against about 0.07 s at 7^3, the largest case kept
@pytest.mark.parametrize("ell, k", [(ell, k) for ell in (3, 5, 7, 11, 13)
                                    for k in (1, 2, 3) if ell ** k < 1000],
                         ids=lambda v: str(v))
def test_annihilator_integrality_matches_the_all_generator_loop(ell, k):
    # two products decide the verdict and the worst valuation, and a failure
    # walks the full list to the same witness; each moved theta fails
    m = ell ** k
    for r in (-1, -2, -3, -4):
        for i, x in enumerate(_moved_thetas(m, ell, theta(m, r))):
            got = annihilator_integrality(m, ell, r, x)
            assert got == _all_generator_integrality(m, ell, r, x), (r, i)
            assert got[0] == (i == 0), (r, i)


@pytest.mark.parametrize("m, ell, r, s, witness", [
    (3, 3, -1, 2, 0),    # ell^v itself
    (49, 7, -2, 1, 3),   # 2^3 = 1 mod 7, so sigma_2 - 8 passes and s3 fails
])
def test_annihilator_integrality_names_a_later_witness(m, ell, r, s,
                                                       witness):
    # theta plus the norm element over ell^s
    g = unit_group(m)
    x = theta(m, r) + GroupRingElement(
        g, {a: Fraction(1, ell ** s) for a in g.elements})
    got = annihilator_integrality(m, ell, r, x)
    assert got == _all_generator_integrality(m, ell, r, x)
    assert got[0] is False and got[2] == witness


@pytest.mark.parametrize("m, ell, r", [(9, 3, -1), (25, 5, -4), (49, 7, -2)])
def test_annihilator_pair_spans_the_generators(m, ell, r):
    g = unit_group(m)
    assert from_generators(g, list(annihilator_pair(m, ell, r))) \
        == from_generators(g, list(torsion_annihilator(m, ell, r).generators))


def test_annihilator_pair_lifts_a_root_that_is_one_mod_ell_squared(
        monkeypatch):
    # 8 is a primitive root mod 3 but 8^2 = 1 mod 9, so it generates no more
    # than a subgroup of (Z/9)^*; the pair moves it to 8 + 3 = 2 mod 9
    m, ell, r = 9, 3, -1
    g = unit_group(m)
    full = from_generators(g, list(torsion_annihilator(m, ell, r).generators))
    power, twist = annihilator_pair(m, ell, r)
    unlifted = GroupRingElement.basis(g, 8) \
        - GroupRingElement.one(g).scale(8 ** (1 - r))
    assert from_generators(g, [power, unlifted]) != full
    monkeypatch.setattr(padic, "smallest_primitive_root", lambda ell: 8)
    assert annihilator_pair(m, ell, r) == (power, twist)
    assert from_generators(g, [power, twist]) == full
    # mod 3 itself the lift changes no residue: 8 + 3 = 2 mod 3
    g3 = unit_group(3)
    assert annihilator_pair(3, ell, r)[1] == GroupRingElement.basis(g3, 2) \
        - GroupRingElement.one(g3).scale(2 ** (1 - r))


def test_annihilator_integrality_multiplies_theta_twice_unless_it_fails(
        monkeypatch):
    # a passing verdict takes two products and never builds the full list;
    # a failing one forms its walk's candidates from theta's numerators,
    # with no further product and no list either
    m, ell, r = 49, 7, -1
    x = theta(m, r)
    products = []
    real_mul = GroupRingElement.__mul__

    def counting(self, other):
        if other is x:
            products.append(self)
        return real_mul(self, other)

    def no_list(*args):
        raise AssertionError("the full list was built")

    monkeypatch.setattr(GroupRingElement, "__mul__", counting)
    monkeypatch.setattr(padic, "torsion_annihilator", no_list)
    assert annihilator_integrality(m, ell, r, x) == (True, 0, None)
    assert products == list(annihilator_pair(m, ell, r))
    # a failure walks to its witness, here ell^v at index 0
    x = x.scale(Fraction(1, ell))
    products.clear()
    assert annihilator_integrality(m, ell, r, x) == (False, -1, 0)
    assert products == list(annihilator_pair(m, ell, r))


def test_annihilator_integrality_names_a_witness_at_101_squared_in_512_mb():
    # the walk forms each candidate when it reaches it: at m = 101^2 the
    # failing theta(-1)/101 names witness 0 without the phi(m) + 1 products
    # of torsion_annihilator, in a child that caps its address space
    script = """
import resource, time
from fractions import Fraction
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, hard))
from galideal.padic import annihilator_integrality
from galideal.stickelberger import ramified_places, stickelberger
ell = 101
m = ell * ell
x = stickelberger(m, ramified_places(m), -1).scale(Fraction(1, ell))
start = time.perf_counter()
got = annihilator_integrality(m, ell, -1, x)
print(*got, time.perf_counter() - start)
"""
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    *got, seconds = proc.stdout.split()
    assert got == ["False", "-1", "0"] and float(seconds) < 2


def test_torsion_annihilator_rejects_bad_inputs():
    for m, ell, r in ((12, 3, -1), (3, 3, 0), (9, 3, 1), (10, 5, -1),
                      (1, 3, -1), (0, 3, -1), (-9, 3, -1), (8, 2, -1),
                      (81, 9, -1), (1, 1, -1)):
        with pytest.raises(ValueError):
            torsion_annihilator(m, ell, r)


def test_torsion_annihilator_checked_under_optimize_flag():
    # python -O strips asserts: at r = 1 the exponent search never ended,
    # and a modulus that is no power of ell gave a silent answer
    script = (
        "from galideal.padic import torsion_annihilator\n"
        "for args in ((9, 3, 1), (10, 5, -1)):\n"
        "    try:\n"
        "        torsion_annihilator(*args)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n")
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    need = "need an odd prime ell, a modulus m > 1 that is a power of it "
    assert proc.stdout == (need + "and r <= -1, got m = 9, ell = 3, r = 1\n"
                           + need + "and r <= -1, got m = 10, ell = 5, r = -1\n")


def test_valuation_and_teichmuller_checked_under_optimize_flag():
    # python -O strips asserts: valuation(0, ell) never returned, and a
    # residue divisible by ell got the Teichmuller lift 0
    script = (
        "from galideal.padic import teichmuller, valuation\n"
        "for call in (lambda: valuation(0, 3), lambda: teichmuller(3, 3, 5)):\n"
        "    try:\n"
        "        print(call())\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n")
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("valuation of 0\n"
                           "no Teichmuller lift of 3: 3 divides it\n")
