from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import comb, gcd, lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galideal.abelian import unit_group
from galideal.cyclotomic import CyclotomicNumber
from galideal.dirichlet import (
    PRIME_TEST_BOUND,
    PlaceSet,
    bernoulli_number,
    conductor,
    generalized_bernoulli,
    is_prime,
    l_value,
    orbit_values,
    primitive_core,
)
from galideal.stickelberger import ramified_places, stickelberger

from conftest import run_python


def characters_mod(m):
    return unit_group(m).characters()


@lru_cache(maxsize=None)
def primitive_core_by_search(chi):
    # the reference: (f, chi*) with chi* the one character mod f that agrees
    # with chi on every unit mod m, found by comparing all of them
    f = conductor(chi)
    src = unit_group(chi.modulus)
    chars = characters_mod(f)
    # exponents compared at the common root order L
    L = lcm(chi.root_order, chars[0].root_order)
    up, up_f = L // chi.root_order, L // chars[0].root_order
    want = [chi.exponent(a) * up for a in src.elements]
    candidates = [psi for psi in chars
                  if all(psi.exponent(a) * up_f == k
                         for a, k in zip(src.elements, want))]
    assert len(candidates) == 1, "primitive core not unique for %r" % (chi,)
    return f, candidates[0]


def bernoulli_polynomial(n, x):
    # B_n(x) = Sigma_k C(n,k) B_k x^(n-k) in Fractions: the reference that
    # the package's integer Hurwitz route is checked against
    x = Fraction(x)
    return sum((comb(n, k) * bernoulli_number(k) * x ** (n - k)
                for k in range(n + 1)), Fraction(0))


def character_order(chi):
    # the least n >= 1 with chi^n trivial
    return next(n for n in count(1) if not any((chi ** n).tuple))


def nontrivial_quadratic(m):
    # the unique odd quadratic character for m in {3, 4}
    for chi in characters_mod(m):
        if character_order(chi) == 2:
            return chi
    raise AssertionError


def test_bernoulli_against_sympy():
    from sympy import bernoulli as sb

    for n in range(0, 20):
        ours = bernoulli_number(n)
        theirs = Fraction(int(sb(n).p), int(sb(n).q))
        if n == 1:
            theirs = -theirs  # sympy >= 1.12 switched to B_1 = +1/2
        assert ours == theirs, n


def test_bernoulli_first_is_minus_half():
    assert bernoulli_number(1) == Fraction(-1, 2)


def test_bernoulli_polynomial():
    x = Fraction(1, 3)
    assert bernoulli_polynomial(1, x) == x - Fraction(1, 2)
    assert bernoulli_polynomial(2, x) == x * x - x + Fraction(1, 6)
    from sympy import Rational, bernoulli as sb

    for n in range(1, 8):
        val = sb(n, Rational(2, 7))
        assert bernoulli_polynomial(n, Fraction(2, 7)) == Fraction(int(val.p), int(val.q))


def test_place_set():
    s = PlaceSet([7, 3])
    assert s.primes == (3, 7)
    assert 3 in s.primes and 5 not in s.primes
    assert s.covers_modulus(63)
    assert not s.covers_modulus(10)
    with pytest.raises(ValueError, match="not a prime: 4"):
        PlaceSet([4])
    # perfbench's dirichlet.l_value_unique_share counts distinct
    # (r, chi, places) arguments of l_value in a set, and each op builds
    # its own ramified_places(m), so equal place sets must hash alike
    t = PlaceSet([3, 7, 7])
    assert s == t and hash(s) == hash(t)
    assert len({s, t, ramified_places(21)}) == 1
    assert s != PlaceSet([3]) and s != (3, 7)


def test_characters_mod_counts():
    assert len(characters_mod(1)) == 1
    assert len(characters_mod(3)) == 2
    cs = characters_mod(7)
    assert len(cs) == 6
    assert sum(1 for c in cs if c(-1) == -1) == 3
    assert sum(1 for c in cs if c.exponent(-1) == 0) == 3


def test_conductor():
    for chi in characters_mod(12):
        f = conductor(chi)
        assert 12 % f == 0
        if not any(chi.tuple):
            assert f == 1
    # the quadratic character mod 9 lifted from mod 3 has conductor 3
    lifted = [chi for chi in characters_mod(9)
              if character_order(chi) == 2]
    assert len(lifted) == 1 and conductor(lifted[0]) == 3
    f, star = primitive_core(lifted[0])
    assert f == 3 and star.modulus == 3
    for a in unit_group(9).elements:
        assert star(a) == lifted[0](a)


def test_generalized_bernoulli_quadratic_mod3():
    chi = nontrivial_quadratic(3)
    assert generalized_bernoulli(1, chi) == CyclotomicNumber.from_rational(Fraction(-1, 3))
    assert generalized_bernoulli(2, chi).is_zero()  # parity vanishing
    with pytest.raises(ValueError):
        generalized_bernoulli(0, chi)


def test_generalized_bernoulli_trivial():
    triv = characters_mod(1)[0]
    assert generalized_bernoulli(2, triv) == CyclotomicNumber.from_rational(Fraction(1, 6))
    assert generalized_bernoulli(1, triv) == CyclotomicNumber.from_rational(Fraction(1, 2))


def test_parity_vanishing_sweep():
    for m in [3, 4, 5, 7, 8]:
        for chi in characters_mod(m):
            if not any(chi.tuple):
                continue
            for n in [1, 2, 3, 4]:
                b = generalized_bernoulli(n, chi)
                sign = CyclotomicNumber.from_rational((-1) ** n)
                if chi(-1) != sign:
                    assert b.is_zero(), (m, chi.index, n)
                else:
                    assert not b.is_zero(), (m, chi.index, n)


def test_l_values_frozen():
    triv1 = characters_mod(1)[0]
    s_inf = PlaceSet()
    assert l_value(0, triv1, s_inf) == CyclotomicNumber.from_rational(Fraction(-1, 2))
    assert l_value(-1, triv1, s_inf) == CyclotomicNumber.from_rational(Fraction(-1, 12))
    assert l_value(-3, triv1, s_inf) == CyclotomicNumber.from_rational(Fraction(1, 120))
    s3 = PlaceSet([3])
    assert l_value(-1, triv1, s3) == CyclotomicNumber.from_rational(Fraction(1, 6))
    chi3 = nontrivial_quadratic(3)
    assert l_value(0, chi3, s3) == CyclotomicNumber.from_rational(Fraction(1, 3))
    triv3 = [c for c in characters_mod(3) if not any(c.tuple)][0]
    assert l_value(0, triv3, s3).is_zero()


def test_primitive_core_matches_search():
    # the core read off the generators of (Z/f)^* is the character mod f
    # that a search over all of them finds, for every character mod m <= 120
    for m in range(1, 121):
        for chi in characters_mod(m):
            f, star = primitive_core(chi)
            want_f, want = primitive_core_by_search(chi)
            assert (f, star) == (want_f, want), (m, chi.tuple)
            assert star.row == want.row


@lru_cache(maxsize=None)
def bernoulli_term(n, a, f):
    # f^(n-1) B_n(a/f), in Fractions
    return f ** (n - 1) * bernoulli_polynomial(n, Fraction(a, f))


def test_row_sums_match_residue_by_residue_references():
    # conductor and generalized_bernoulli read exponent rows, and the sum is
    # skipped where parity makes it 0; the references take one residue at a
    # time through exponent, Fractions and zeta, for every character mod
    # m <= 60
    for m in range(1, 61):
        units = unit_group(m).elements
        for chi in characters_mod(m):
            f = min(d for d in range(1, m + 1) if m % d == 0 and all(
                chi.exponent(a) == 0 for a in units if a % d == 1 % d))
            assert conductor(chi) == f, (m, chi.tuple)
            star = primitive_core(chi)[1]
            N = star.root_order
            for n in range(1, 5):
                # Sigma_{a=1..f} chi*(a) f^(n-1) B_n(a/f), collected by the
                # exponent of chi*(a)
                by_k = {}
                for a in range(1, f + 1):
                    k = star.exponent(a)
                    if k is not None:
                        by_k[k] = by_k.get(k, 0) + bernoulli_term(n, a, f)
                want = CyclotomicNumber.zero()
                for k, c in by_k.items():
                    want = want + CyclotomicNumber.zeta(N, k) * c
                assert generalized_bernoulli(n, chi) == want, \
                    (m, chi.tuple, n)


def test_bernoulli_sums_at_conductors_1_3_4():
    # the smallest conductors of the half-range sum: f = 1 has one unit and
    # no pair a, f - a; f = 3 and f = 4 have one pair each.  The table is
    # B_n(1) for the trivial character and the classical values for
    # chi_-3 and chi_-4 (0 where n has the wrong parity)
    F = Fraction
    want = {
        1: [F(1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42)],
        3: [F(-1, 3), 0, F(2, 3), 0, F(-10, 3), 0],
        4: [F(-1, 2), 0, F(3, 2), 0, F(-25, 2), 0],
    }
    seen = set()
    for m in (1, 3, 4):
        for chi in characters_mod(m):
            f = conductor(chi)
            seen.add(f)
            for n in range(1, 7):
                got = generalized_bernoulli(n, chi)
                assert got == CyclotomicNumber.from_rational(want[f][n - 1])
                # the characters mod 1, 3 and 4 take values +-1 = (-1)^k
                assert got == sum(
                    (-1) ** chi.exponent(a) * bernoulli_term(n, a, f)
                    for a in range(1, f + 1) if gcd(a, f) == 1), \
                    (m, chi.tuple, n)
    assert seen == {1, 3, 4}


def test_l_value_galois_equivariance():
    # L_S(r, chi^a) = sigma_a L_S(r, chi), both sides computed from scratch,
    # for every character mod m <= 40, every a prime to the root order, and
    # an S with one prime outside m: the identity the orbit fill rests on
    for m in range(1, 41):
        extra = next(p for p in (2, 3, 5, 7) if m % p)
        places = PlaceSet(ramified_places(m).primes + (extra,))
        chars = characters_mod(m)
        N = chars[0].root_order
        for chi in chars:
            powers = {}
            for a in range(1, N + 1):
                if gcd(a, N) == 1:
                    powers.setdefault((chi ** a).tuple, a)
            for r in (0, -1, -2):
                value = l_value(r, chi, places)
                for a in powers.values():
                    assert l_value(r, chi ** a, places) == value.galois(a), \
                        (m, chi.tuple, a, r)


def test_orbit_values_match_every_l_value():
    # one L-value per orbit, filled by galois, gives every L-value byte for
    # byte: same order, numerators and denominator
    for m in (1, 12, 15, 16, 21, 35, 63):
        places = ramified_places(m)
        calls = []

        def value(chi):
            calls.append(chi)
            return l_value(-1, chi, places)

        got = orbit_values(unit_group(m), value)
        want = [l_value(-1, chi, places) for chi in characters_mod(m)]
        assert [(v.order, v.nums, v.den) for v in got] == \
            [(v.order, v.nums, v.den) for v in want]
        # one call per orbit, i.e. per cyclic subgroup of the characters
        cyclic = {frozenset((chi ** k).tuple
                            for k in range(character_order(chi)))
                  for chi in characters_mod(m)}
        assert len(calls) == len(cyclic)


def test_input_checks_survive_optimize_flag():
    # python -O strips asserts; each bad input must still raise ValueError.
    # Without the checks, a place set missing 3 gave a silent answer, r = 1
    # divided by zero, and galois at t = 3 on zeta_6 (which the orbit fill
    # of L-values calls) gave a non-automorphism.
    script = """
from galideal.abelian import unit_group
from galideal.cyclotomic import (CyclotomicNumber, cyclotomic_polynomial,
    euler_phi, prime_divisors)
from galideal.dirichlet import PlaceSet, bernoulli_number, l_value
from galideal.stickelberger import stickelberger
s3 = PlaceSet([3])
z6 = CyclotomicNumber.zeta(6)
calls = {
    "S misses 3": lambda: stickelberger(9, PlaceSet(), 0),
    "stickelberger r = 1": lambda: stickelberger(3, s3, 1),
    "l_value r = 1": lambda: l_value(1, unit_group(3).characters()[0], s3),
    "bernoulli n = -1": lambda: bernoulli_number(-1),
    "galois t not prime to the order": lambda: z6.galois(3),
    "galois t = 0": lambda: z6.galois(0),
    "lift to a non-multiple": lambda: z6.lift(9),
    "lift zeta_3 to order 4": lambda: CyclotomicNumber.zeta(3, 1).lift(4),
    "coefficient count": lambda: CyclotomicNumber(5, [1, 2]),
    "euler_phi 0": lambda: euler_phi(0),
    "cyclotomic_polynomial -1": lambda: cyclotomic_polynomial(-1),
    "prime_divisors 0": lambda: prime_divisors(0),
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


def reference_theta(m, places, r):
    # theta_S(r) as a dict residue -> Fraction: every class's Hurwitz value
    # from bernoulli_polynomial, then one group-ring product per Euler
    # factor (1 - p^{-r} sigma_p^{-1}); no parity shortcut
    n = 1 - r
    units = [a for a in range(m) if gcd(a, m) == 1]

    def zeta(b):
        b = b % m or m
        return -Fraction(m) ** (n - 1) * bernoulli_polynomial(n, Fraction(b, m)) / n

    theta = {a: zeta(pow(a, -1, m)) for a in units}
    for p in places.primes:
        if m % p:
            factor = {1 % m: Fraction(1)}
            inv = pow(p, -1, m)
            factor[inv] = factor.get(inv, 0) - Fraction(p) ** -r
            product = dict.fromkeys(units, Fraction(0))
            for a, x in theta.items():
                for b, y in factor.items():
                    product[a * b % m] += x * y
            theta = product
    return theta


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 300), r=st.integers(-5, 0),
       extra=st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29]),
                      max_size=3))
@example(m=1, r=0, extra=[])
@example(m=2, r=-1, extra=[3])
@example(m=7, r=0, extra=[])
@example(m=7, r=-2, extra=[2])
def test_hurwitz_route_matches_fraction_reference(m, r, extra):
    ramified = ramified_places(m)
    places = PlaceSet(ramified.primes + tuple(p for p in extra if m % p))
    want = reference_theta(m, places, r)
    got = stickelberger(m, places, r)
    assert {a: got.coefficient(a) for a in got.group.elements} == want
    bare = reference_theta(m, ramified, r)
    theta = stickelberger(m, ramified, r)
    for a in theta.group.elements:
        assert theta.coefficient(a) == bare[a], (m, r, a)


def test_is_prime_matches_sympy_below_1e5():
    assert [n for n in range(-3, 10 ** 5) if is_prime(n)] == \
        list(sympy.primerange(2, 10 ** 5))


@pytest.mark.parametrize("n", [
    # Carmichael numbers
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    # strong pseudoprimes to base 2
    2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633,
    # strong pseudoprimes to every prime base up to 23, and up to 37
    3825123056546413051, 318665857834031151167461,
    # squares of primes just above the trial divisors
    43 ** 2, 47 ** 2, 1000003 ** 2,
])
def test_is_prime_refuses_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert not is_prime(n)


def test_is_prime_on_large_primes():
    p = 10 ** 18
    for _ in range(5):
        p = sympy.nextprime(p)
        # p * 1000003 < PRIME_TEST_BOUND has no factor up to 41
        assert is_prime(p) and not is_prime(p * 1000003)
    for p in (1000000000000000003, 2 ** 61 - 1, PRIME_TEST_BOUND - 2 ** 20):
        assert is_prime(p) == sympy.isprime(p)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(10 ** 5, PRIME_TEST_BOUND - 1))
def test_is_prime_matches_sympy_below_the_bound(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_refuses_to_guess_above_the_bound():
    # a small factor still decides; anything else is a stated refusal
    assert not is_prime(2 ** 100) and not is_prime(PRIME_TEST_BOUND * 41)
    for n in (PRIME_TEST_BOUND, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="exact only below %d"
                           % PRIME_TEST_BOUND):
            is_prime(n)
