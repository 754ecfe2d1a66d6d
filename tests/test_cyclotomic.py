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
    ramanujan_sums,
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
    # an accumulator of length 2n or 3n reduces to its remainder mod Phi_n;
    # 1155 = 3 * 5 * 7 * 11 is odd, so it is folded by zeta^n = 1 alone
    from sympy import Poly, cyclotomic_poly, symbols

    x = symbols("x")
    rng = random.Random(1)
    for n, length in ((210, 420), (1458, 2916), (1155, 2310), (1155, 3465)):
        acc = [rng.randint(-50, 50) for _ in range(length)]
        ours = from_exponents(n, acc).lift(n).coeffs
        phi_n = Poly(cyclotomic_poly(n, x), x)
        # auto=False divides over ZZ (Phi_n is monic), not over QQ
        rem = Poly(acc[::-1], x).rem(phi_n, auto=False)
        theirs = [int(c) for c in rem.all_coeffs()[::-1]]
        theirs += [0] * (euler_phi(n) - len(theirs))
        assert list(ours) == theirs, n


@lru_cache(maxsize=None)
def reduction_rows(n):
    # Row k - phi(n), for k = phi(n) .. n-1, lists the nonzero integer
    # coordinates (i, c) of zeta_n^k, so reduction mod Phi_n is a lookup.
    phi = euler_phi(n)
    head = [-c for c in cyclotomic_polynomial(n)[:-1]]  # zeta^phi
    rows = []
    current = head
    for k in range(phi, n):
        if k > phi:
            overflow = current[-1]
            current = [0] + current[:-1]
            if overflow:
                current = [a + overflow * b for a, b in zip(current, head)]
        rows.append(tuple((i, c) for i, c in enumerate(current) if c))
    return rows


def table_reduce(n, acc):
    # reduction mod Phi_n by a table of the powers zeta_n^k, phi(n) <= k < n,
    # after folding by zeta_n^n = 1: the independent reference that the
    # package's fold and long division are checked against
    if len(acc) > n:
        folded = acc[:n]
        for k in range(n, len(acc)):
            folded[k % n] += acc[k]
        acc = folded
    phi = euler_phi(n)
    out = acc[:phi]
    if len(out) < phi:
        out.extend([0] * (phi - len(out)))
    if len(acc) > phi:
        rows = reduction_rows(n)
        for k in range(phi, len(acc)):
            c = acc[k]
            if c:
                for i, r in rows[k - phi]:
                    out[i] += c * r
    return out


def test_from_exponents_matches_the_row_table():
    # accumulators at the lengths where the fold or the division starts or
    # stops (empty, one coefficient, phi, about n/2, n, past 3n), with
    # entries of up to 200 bits; 1155 is odd with four primes, 2310, 4620
    # and 10006 are even
    rng = random.Random(2)
    for n in [*range(1, 301), 1155, 2310, 4620, 10006]:
        phi = euler_phi(n)
        for length in (0, 1, phi, n // 2 - 1, n // 2 + 1, n, 3 * n + 1):
            acc = [rng.getrandbits(200) - (1 << 199) for _ in range(length)]
            expected = CyclotomicNumber(n, table_reduce(n, acc))
            assert from_exponents(n, acc) == expected, (n, length)
        reduction_rows.cache_clear()  # the rows at 4620 take about 100 MB


def test_reduce_folds_and_divides():
    # zeta_9^9 = 1 (odd order: folded by zeta^n = 1), zeta_4^3 = -zeta_4
    # (even order: folded by zeta^(n/2) = -1), and at order 5 a zero
    # coefficient above phi = 4 is passed over by the division
    assert from_exponents(9, [0] * 9 + [1]) == 1
    assert from_exponents(9, [0] * 10 + [1]) == zeta(9)
    assert from_exponents(4, [0, 0, 0, 1]) == -zeta(4)
    assert from_exponents(4, [2, 0, 1, 0, 1]) == 2
    assert from_exponents(5, [1, 0, 0, 0, 0]) == 1
    assert from_exponents(5, [0, 0, 0, 0, 1, 0]) == zeta(5, 4)
    assert from_exponents(5, [1, 1, 1, 1, 1]) == 0


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
    assert (-a) + a == CyclotomicNumber.zero() and -a == a * -1


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


def test_ramanujan_sums_are_traces():
    # c_m(j) against the trace Sigma_t sigma_t zeta_m^j over the units t
    for m in range(1, 41):
        for j, c in enumerate(ramanujan_sums(m)):
            tr = sum((zeta(m, j).galois(t) for t in range(1, m + 1)
                      if gcd(t, m) == 1), CyclotomicNumber.zero())
            assert tr == c, (m, j)


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
