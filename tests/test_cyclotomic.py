import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galideal.cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
    from_exponents,
)

zeta = CyclotomicNumber.zeta


def test_cyclotomic_polynomial_against_sympy():
    from sympy import Poly, cyclotomic_poly, symbols

    x = symbols("x")
    # 1458 = 2 * 3^6 gives Phi_6(x^243); 2310 = 2 * 3 * 5 * 7 * 11 has five
    # primes, and 9240 gives Phi_2310(x^4)
    for n in [*range(1, 301), 1000, 1458, 2310, 9240]:
        ours = cyclotomic_polynomial(n)
        theirs = Poly(cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs], n


def test_from_exponents_against_sympy_rem():
    # an accumulator of length 2n reduces to its remainder mod Phi_n
    from sympy import Poly, cyclotomic_poly, symbols

    x = symbols("x")
    rng = random.Random(1)
    for n in (210, 1458):
        acc = [rng.randint(-50, 50) for _ in range(2 * n)]
        ours = from_exponents(n, acc).lift(n).coeffs
        phi_n = Poly(cyclotomic_poly(n, x), x)
        # auto=False divides over ZZ (Phi_n is monic), not over QQ
        rem = Poly(acc[::-1], x).rem(phi_n, auto=False)
        theirs = [int(c) for c in rem.all_coeffs()[::-1]]
        theirs += [0] * (euler_phi(n) - len(theirs))
        assert list(ours) == theirs, n


def test_euler_phi():
    from sympy import totient

    for n in range(1, 200):
        assert euler_phi(n) == int(totient(n))


def test_zeta_basics():
    z5 = zeta(5)
    assert z5 * z5 * z5 * z5 * z5 == CyclotomicNumber.one()
    assert zeta(5, 4) == z5.inverse()
    # 1 + z + z^2 + z^3 + z^4 = 0
    s = sum([zeta(5, k) for k in range(5)], CyclotomicNumber.zero())
    assert s.is_zero()
    assert zeta(2) == CyclotomicNumber.from_rational(-1)
    assert zeta(1) == CyclotomicNumber.one()
    assert zeta(4) * zeta(4) == CyclotomicNumber.from_rational(-1)


def test_rational_collapse():
    # z6 = -z3^2, so z6 + z6^5 = 1; sums landing in Q get order 1
    v = zeta(6) + zeta(6, 5)
    assert v.is_rational() and v.as_fraction() == 1
    assert hash(v) == hash(Fraction(1))


def test_repr_and_comparison_with_other_types():
    assert repr(CyclotomicNumber.from_rational(Fraction(1, 2))) == \
        "CyclotomicNumber(1/2)"
    assert repr(CyclotomicNumber.one() + zeta(3)) == "1 + (1)*z3^1"
    assert repr(zeta(5, 2)) == "(1)*z5^2"
    assert (zeta(3) == "z3") is False and zeta(3) != "z3"


def test_cross_order_arithmetic():
    # z2 * z3 = z6^5 since zeta_6 = -zeta_3^2 -> check via lifting
    lhs = zeta(2) * zeta(3)
    assert lhs == zeta(6, 5)
    assert zeta(3) == zeta(6) * zeta(6)
    assert zeta(4) * zeta(6) == zeta(12, 5)


def test_gauss_sum_squared():
    # classical: (sum over a mod 5 of legendre(a) zeta_5^a)^2 = 5
    legendre = {1: 1, 4: 1, 2: -1, 3: -1}
    g = CyclotomicNumber.zero()
    for a, e in legendre.items():
        g = g + e * zeta(5, a)
    assert (g * g) == CyclotomicNumber.from_rational(5)


def elements(order):
    phi = euler_phi(order)
    frac = st.fractions(
        min_value=-4, max_value=4, max_denominator=6
    )
    return st.lists(frac, min_size=phi, max_size=phi).map(
        lambda cs: CyclotomicNumber(order, cs)
    )


@settings(max_examples=60)
@given(st.sampled_from([1, 3, 4, 5, 8, 12]).flatmap(
    lambda n: st.tuples(elements(n), elements(n), elements(n))))
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60)
@given(elements(7))
def test_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == CyclotomicNumber.one()


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero().inverse()


@settings(max_examples=60)
@given(st.tuples(elements(9), elements(9), st.sampled_from([1, 2, 4, 5, 7, 8])))
def test_galois_is_ring_map(args):
    a, b, t = args
    assert (a * b).galois(t) == a.galois(t) * b.galois(t)
    assert (a + b).galois(t) == a.galois(t) + b.galois(t)


def test_galois_orbit_sum_is_rational():
    a = zeta(7) + 3 * zeta(7, 3)
    tr = CyclotomicNumber.zero()
    for t in range(1, 7):
        tr = tr + a.galois(t)
    assert tr.is_rational()
    # trace of zeta_7 over Q is -1; of 3*zeta_7^3 likewise -3
    assert tr.as_fraction() == -4


def test_conjugate():
    # complex conjugation is the Galois map zeta -> zeta^-1
    def bar(x):
        return x.galois(x.order - 1)

    a = zeta(5) + 2 * zeta(5, 2)
    assert bar(a) == zeta(5, 4) + 2 * zeta(5, 3)
    assert bar(a * bar(a)) == a * bar(a)


# --- the integer form against sympy, across mixed orders up to 60 ---

@lru_cache(maxsize=None)
def _sympy_phi(n):
    from sympy import QQ, Poly, cyclotomic_poly, symbols

    x = symbols("x")
    return Poly(cyclotomic_poly(n, x), x, domain=QQ)


def _sympy_poly(coeffs):
    # sympy polynomial with the given coefficients, constant term first
    from sympy import QQ, Poly, symbols

    return Poly.from_list(list(coeffs)[::-1] or [0], symbols("x"), domain=QQ)


def _sympy_lift(v, n, t=1):
    # v(x^t) as a polynomial in x = zeta_n, for v.order | n, with the
    # exponents taken mod n
    step = n // v.order
    out = [Fraction(0)] * n
    for i, c in enumerate(v.coeffs):
        out[i * step * t % n] += c
    return _sympy_poly(out)


def _sympy_coords(poly, n):
    # coordinates of poly(zeta_n) in the power basis: poly rem Phi_n
    r = poly.rem(_sympy_phi(n))
    cs = [Fraction(int(c.numerator), int(c.denominator))
          for c in r.all_coeffs()[::-1]]
    if cs == [0]:
        cs = []
    return cs + [Fraction(0)] * (euler_phi(n) - len(cs))


def _coords_at(v, n):
    # our coordinates of v at order n
    if v.is_rational():
        return [v.as_fraction()] + [Fraction(0)] * (euler_phi(n) - 1)
    return list(v.lift(n).coeffs)


def _assert_canonical(v):
    from math import gcd

    assert len(v.nums) == euler_phi(v.order)
    assert all(type(a) is int for a in v.nums) and type(v.den) is int
    assert v.den > 0 and gcd(v.den, *v.nums) == 1
    if v.order == 1:
        q = v.as_fraction()
        assert hash(v) == hash(q) and v == q
    else:
        assert any(v.nums[1:]), "rational value not collapsed"


@st.composite
def mixed_orders(draw):
    # a field order n <= 60 and two elements of orders dividing n, with
    # sparse coordinates so that sums and products often turn rational
    n = draw(st.integers(1, 60))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    coord = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                      st.fractions(min_value=-5, max_value=5,
                                   max_denominator=7))
    pair = []
    for _ in range(2):
        d = draw(st.sampled_from(divisors))
        cs = draw(st.lists(coord, min_size=euler_phi(d),
                           max_size=euler_phi(d)))
        pair.append(CyclotomicNumber(d, cs))
    return n, pair[0], pair[1]


@settings(max_examples=50, deadline=None)
@given(mixed_orders())
def test_integer_form_against_sympy(case):
    n, a, b = case
    pa, pb = _sympy_lift(a, n), _sympy_lift(b, n)
    for v, p in ((a, pa), (b, pb)):
        _assert_canonical(v)
        assert _coords_at(v, n) == _sympy_coords(p, n)
    total, prod = a + b, a * b
    for v in (total, prod):
        _assert_canonical(v)
        assert n % v.order == 0
    assert _coords_at(total, n) == _sympy_coords(pa + pb, n)
    assert _coords_at(prod, n) == _sympy_coords(pa * pb, n)
    if not a.is_zero():
        inv = a.inverse()
        _assert_canonical(inv)
        one = _sympy_coords(pa * _sympy_lift(inv, n), n)
        assert one == _coords_at(CyclotomicNumber.one(), n)
    units = [t for t in range(2, n) if gcd(t, n) == 1]
    for t in units[:3]:
        g = a.lift(n).galois(t) if not a.is_rational() else a
        _assert_canonical(g)
        assert _coords_at(g, n) == _sympy_coords(_sympy_lift(a, n, t), n)
