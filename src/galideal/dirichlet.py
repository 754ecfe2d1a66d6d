# Dirichlet characters mod m, generalized Bernoulli numbers, and exact
# values of S-modified L-functions at integers r <= 0.
#
# Conventions that matter:
#   - B_1 = -1/2 (so sum_{k<=n} C(n+1,k) B_k = 0 drives the recurrence)
#   - chi(a) = 0 when gcd(a, m) > 1; hence "removing" an Euler factor at a
#     prime dividing the conductor is a no-op
#   - a character mod m is evaluated through its primitive core chi* mod f,
#     with the Euler factors at p | m, p does not divide f, reinstated
#     explicitly: this is the imprimitive L-function, the convention used
#     for all Stickelberger assembly downstream
#   - chi* is read off chi at one unit lift of each invariant-factor
#     generator of (Z/f)^*, never found by comparing characters mod f
#   - L_S(r, chi^a) = sigma_a L_S(r, chi) for a prime to the root order N
#     (Washington, ch. 4), so a family of values over all characters takes
#     one L-value per Galois orbit (unreduced: l_value_exponents)

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .abelian import unit_group
from .cyclotomic import from_exponents, prime_divisors


@lru_cache(maxsize=None)
def bernoulli_number(n):
    if n < 0:
        raise ValueError("Bernoulli number needs n >= 0, got %d" % n)
    if n == 0:
        return Fraction(1)
    # Sigma_{k<=n} C(n+1,k) B_k = 0, summed in integers over the lcm L of
    # the denominators of B_0 .. B_(n-1)
    bs = [bernoulli_number(k) for k in range(n)]
    L = lcm(*(b.denominator for b in bs))
    total = sum(comb(n + 1, k) * b.numerator * (L // b.denominator)
                for k, b in enumerate(bs))
    return Fraction(-total, (n + 1) * L)


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to the prime bases up to 41 decides every n below this bound
# (Sorenson and Webster); above it primality is refused, not guessed
PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n):
    # trial division by the witnesses, then deterministic Miller-Rabin
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n >= PRIME_TEST_BOUND:
        raise ValueError("cannot decide whether %d is prime: the test is "
                         "exact only below %d" % (n, PRIME_TEST_BOUND))
    s = ((n - 1) & (1 - n)).bit_length() - 1   # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_r(r):
    if r > 0:
        raise ValueError("need r <= 0, got r = %d" % r)


class PlaceSet:
    # finite set of rational primes, with the archimedean place always in
    __slots__ = ("primes",)

    def __init__(self, primes=()):
        ps = sorted(set(int(p) for p in primes))
        for p in ps:
            if not is_prime(p):
                raise ValueError("not a prime: %d" % p)
        self.primes = tuple(ps)

    def covers_modulus(self, m):
        m = abs(m)
        for p in self.primes:
            while m % p == 0:
                m //= p
        return m == 1

    def __eq__(self, other):
        return isinstance(other, PlaceSet) and self.primes == other.primes

    def __hash__(self):
        return hash(self.primes)

    def __repr__(self):
        return "PlaceSet{infty%s}" % ("".join(",%d" % p for p in self.primes))


def conductor(chi):
    # minimal f | m with chi trivial on residues = 1 mod f: no unit that
    # chi moves is 1 mod f.  f = m always qualifies, as its one residue is
    # 1 (0 at m = 1), which no character moves
    m = chi.modulus
    moved = {a for a, k in zip(chi.group.elements, chi.row) if k}
    return next(f for f in range(1, m + 1)
                if m % f == 0 and moved.isdisjoint(range(1 % f, m, f)))


@lru_cache(maxsize=None)
def primitive_core(chi):
    # (f, chi*) with chi* primitive mod f and chi* = chi on units mod m.
    # chi is trivial on units = 1 mod f, so chi*(g_i) = chi(a_i) for a_i a
    # unit lift mod m of the generator g_i of order d_i of (Z/f)^*; that
    # value is zeta_N^k = zeta_{d_i}^(k d_i / N), so chi*'s tuple entry is
    # t_i = k d_i / N (an integer, as g_i^d_i = 1 mod f)
    f = conductor(chi)
    m, N = chi.modulus, chi.root_order
    target = unit_group(f)
    A, _, from_tuple = target.abelian_coordinates()
    t = []
    for i, d in enumerate(A.invariants):
        g = from_tuple[tuple(int(j == i) for j in range(len(A.invariants)))]
        a = next(a for a in range(g, m, f) if gcd(a, m) == 1)
        k = chi.exponent(a)
        t.append(k * d // N)
    return f, target.character(A.index(tuple(t)))


def _bernoulli_sum(n, f, star):
    # f^(n-1) Sigma_{a=1..f} chi*(a) B_n(a/f) as (N, acc, den), the value
    # Sigma_k acc[k] zeta_N^k / den.  With L the lcm of the denominators of
    # B_0 .. B_n,
    #   f^(n-1) B_n(a/f) = Sigma_j C(n,j) B_j a^(n-j) f^(j-1) = P(a) / (f L)
    # for an integer polynomial P; P(a) is added into slot k(a).
    # B_n(1 - x) = (-1)^n B_n(x) gives P(f - a) = (-1)^n P(a), and k(f - a)
    # = k(a) + k(-1).  So for f > 1 the pair a, f - a cancels when
    # chi*(-1) != (-1)^n (the exponent k(-1), 0 or N/2, is not (n mod 2) N/2)
    # and otherwise adds up to 2 P(a) zeta_N^k(a): P is read only at the
    # units a < f - a, the first half of the ascending units
    N = star.root_order
    if f > 1 and 2 * star.exponent(-1) != n % 2 * N:
        return 1, [0], 1
    den, values = _polynomial_values(n, f)
    acc = [0] * N  # for f <= 2: N = 1, and the one value at exponent 0
    for v, k in zip(values, star.row):
        acc[k] += v
    return N, acc, den


@lru_cache(maxsize=None)
def _polynomial_values(n, f):
    # (f L, values) for _bernoulli_sum, shared by the characters of conductor
    # f: 2 P(a) at the first half of the units a of f, or P(1) for f <= 2
    bs = [bernoulli_number(j) for j in range(n + 1)]
    L = lcm(*(b.denominator for b in bs))
    poly = [comb(n, j) * b.numerator * (L // b.denominator) * f ** j
            for j, b in enumerate(bs)]  # coefficient of a^(n-j)
    if f <= 2:
        return f * L, (horner(poly, 1),)
    units = unit_group(f).elements
    return f * L, tuple(2 * horner(poly, a) for a in units[:len(units) // 2])


def generalized_bernoulli(n, chi):
    # B_{n,chi*} = f^{n-1} sum_{a=1..f} chi*(a) B_n(a/f), through the
    # primitive core; exact cyclotomic value
    if n == 0:
        raise ValueError("generalized Bernoulli number needs n >= 1")
    return from_exponents(*_bernoulli_sum(n, *primitive_core(chi)))


def l_value(r, chi, places):
    # S-modified L-value at s = r <= 0 of the (possibly imprimitive)
    # character chi mod m:
    #   -B_{1-r,chi*}/(1-r) * prod over {p | m, p not | f} u {p in S, p not | m}
    #                          of (1 - chi*(p) p^{-r})
    return from_exponents(*l_value_exponents(r, chi, places))


def l_value_exponents(r, chi, places):
    # l_value as (N, acc, den), the value Sigma_k acc[k] zeta_N^k / den,
    # unreduced.  Each Euler factor multiplies the exponent accumulator of
    # B_{1-r,chi*} by 1 - p^{-r} zeta_N^k, k the exponent of chi*(p).
    _check_r(r)
    m = chi.modulus
    f, star = primitive_core(chi)
    n = 1 - r
    N, acc, den = _bernoulli_sum(n, f, star)
    removed = {p for p in prime_divisors(m) if f % p != 0}
    for p in places.primes:
        if m % p != 0:
            removed.add(p)
    for p in sorted(removed):
        k = star.exponent(p)
        c = p ** -r
        acc = [x - c * acc[(e - k) % N] for e, x in enumerate(acc)]
    return N, [-x for x in acc], den * n


def hurwitz_polynomial(r, m):
    # (coeffs, den) with zeta(r, b/m) = Q(b) / den for 1 <= b <= m, Q the
    # integer polynomial with coefficients coeffs, highest degree first.
    # With n = 1 - r and L the lcm of the denominators of B_0 .. B_n,
    #   -m^(n-1) B_n(b/m) / n = -Sigma_j C(n,j) L B_j b^(n-j) m^j / (m L n)
    _check_r(r)
    n = 1 - r
    bs = [bernoulli_number(j) for j in range(n + 1)]
    L = lcm(*(b.denominator for b in bs))
    coeffs = [-comb(n, j) * b.numerator * (L // b.denominator) * m ** j
              for j, b in enumerate(bs)]
    return coeffs, m * L * n


def horner(coeffs, x):
    # the polynomial with coefficients coeffs (highest degree first) at x
    value = 0
    for c in coeffs:
        value = value * x + c
    return value

