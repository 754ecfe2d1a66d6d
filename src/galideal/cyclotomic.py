# Exact arithmetic in cyclotomic fields Q(zeta_N).
#
# A CyclotomicNumber of order N is the residue of a polynomial in zeta_N
# modulo the N-th cyclotomic polynomial Phi_N.  It is stored as integer
# numerators `nums`, one per power-basis coordinate (a tuple of length
# phi(N) = deg Phi_N), over one denominator `den` > 0 with
# gcd(den, nums) = 1 -- the form of FLINT's fmpq_poly.  The form is unique
# at a given order, so equality at equal orders is tuple equality; values of
# different orders are compared after lifting both to the lcm order.
# Rational values are collapsed to order 1 on construction, so rationals
# hash like the equal Fraction; equal irrational values kept at different
# orders would not, and nothing here uses them as dict keys.  The Fraction
# coordinates (`coeffs`) are computed on demand and not stored.
#
# Phi_N is built from binomials x^d - 1.  Reduction mod Phi_N first folds
# every power onto [0, h) by zeta_N^h = s (h = N/2 and s = -1 for even N,
# h = N and s = 1 for odd N), then divides from the top by Phi_N.  Phi_N is
# monic, so the division stays in the integers and reads only its nonzero
# coefficients.
#
# Exponent convention: a character value is a root of unity zeta_N^k, and
# character sums take the exponent k rather than the number.  Multiplying by
# zeta_N^k rotates exponents, so Sigma_i v_i zeta_N^(k_i) adds each v_i's
# numerators, shifted by k_i, into one integer accumulator indexed by
# exponent mod M (M the lcm of N and the orders of the v_i) and reduces mod
# Phi_M once (`from_exponents`).  A trace to Q needs no reduction: with
# Tr zeta_M^j = c_M(j) (`ramanujan_sums`) it is one integer dot product.

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

@lru_cache(maxsize=None)
def prime_divisors(n):
    # the primes dividing n >= 1, ascending, by trial division
    if n < 1:
        raise ValueError("prime_divisors needs n >= 1, got %d" % n)
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


@lru_cache(maxsize=None)
def euler_phi(n):
    if n < 1:
        raise ValueError("euler_phi needs n >= 1, got %d" % n)
    result = n
    for p in prime_divisors(n):
        result -= result // p
    return result


def cyclotomic_polynomial(n):
    # Coefficients of Phi_n, constant term first, from binomials (Arnold
    # and Monagan, Math. Comp. 80, 2011).  With r the radical of n,
    # Phi_n(x) = Phi_r(x^(n/r)), and for r > 1 Phi_r is the product of
    # (1 - x^d)^mu(r/d) over the divisors d of r.  That product is taken as
    # a power series mod x^(phi(r)+1), one pass per binomial.
    if n < 1:
        raise ValueError("cyclotomic polynomial needs n >= 1, got %d" % n)
    if n == 1:
        return (-1, 1)
    primes = prime_divisors(n)
    r = prod(primes)
    phi = euler_phi(r)
    divisors = [(1, (-1) ** len(primes))]  # (d, mu(r/d))
    for p in primes:
        divisors += [(d * p, -mu) for d, mu in divisors]
    series = [1] + [0] * phi
    for d, mu in divisors:
        if mu > 0:  # times 1 - x^d
            for i in range(phi, d - 1, -1):
                series[i] -= series[i - d]
        else:  # times 1 / (1 - x^d) = 1 + x^d + x^2d + ...
            for i in range(d, phi + 1):
                series[i] += series[i - d]
    step = n // r
    coeffs = [0] * (phi * step + 1)
    coeffs[::step] = series
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _division(n):
    # (h, s, phi, tail) for _reduce: zeta_n^h = s, with h = n/2 and s = -1
    # for even n (h = n and s = 1 for odd n), phi = phi(n), and tail the
    # nonzero coordinates (i, c) of zeta_n^phi = x^phi - Phi_n(x)
    h, s = (n // 2, -1) if n % 2 == 0 else (n, 1)
    tail = tuple((i, -c) for i, c in enumerate(cyclotomic_polynomial(n)[:-1])
                 if c)
    return h, s, euler_phi(n), tail


@lru_cache(maxsize=None)
def ramanujan_sums(m):
    # (c_m(0), ..., c_m(m-1)), c_m(j) = Tr_{Q(zeta_m)/Q} zeta_m^j
    # = mu(q) phi(m) / phi(q) for q = m / gcd(j, m) (Hardy and Wright,
    # Thm. 272); mu(q) is 0 unless q is the product of its primes
    def c(q):
        primes = prime_divisors(q)
        mu = (-1) ** len(primes) if prod(primes) == q else 0
        return mu * euler_phi(m) // euler_phi(q)
    return tuple(c(m // gcd(j, m)) for j in range(m))


def _reduce(n, acc):
    # acc: integer coefficients of a polynomial in zeta_n, any length;
    # returns the phi(n) canonical coordinates as a list.  Folding by
    # zeta_n^k = s^(k // h) zeta_n^(k % h) leaves h coefficients, and
    # phi <= h; long division by the monic Phi_n then clears them from the
    # top down to phi
    h, s, phi, tail = _division(n)
    out = acc[:h]
    for k in range(h, len(acc)):
        out[k % h] += s ** (k // h) * acc[k]
    for k in range(len(out) - 1, phi - 1, -1):
        c = out[k]
        if c:
            base = k - phi
            for i, t in tail:
                out[base + i] += c * t
    return out[:phi] + [0] * (phi - len(out))


def _make(order, nums, den):
    # the canonical number nums/den of the given order, den > 0
    g = gcd(den, *nums)
    if g != 1:
        nums = [a // g for a in nums]
        den //= g
    if order > 1 and not any(nums[1:]):
        order, nums = 1, nums[:1]
    x = object.__new__(CyclotomicNumber)
    x.order = order
    x.nums = tuple(nums)
    x.den = den
    return x


def from_exponents(n, acc, den=1):
    # Sigma_k acc[k] zeta_n^k / den, for a list of integers acc[k], den > 0
    return _make(n, _reduce(n, acc), den)


def _product(p, q):
    # the convolution of two numerator rows (integer lists), unreduced
    qt = [(j, y) for j, y in enumerate(q) if y]
    acc = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in qt:
                acc[i + j] += x * y
    return acc


class CyclotomicNumber:
    __slots__ = ("order", "nums", "den")

    def __init__(self, order, coeffs):
        # coeffs: phi(order) rationals, the coordinates in the power basis
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != euler_phi(order):
            raise ValueError("order %d needs %d coefficients, got %d"
                             % (order, euler_phi(order), len(coeffs)))
        den = lcm(*(c.denominator for c in coeffs))
        x = _make(order, [c.numerator * (den // c.denominator)
                          for c in coeffs], den)
        self.order, self.nums, self.den = x.order, x.nums, x.den

    # --- constructors ---

    @staticmethod
    def from_rational(q):
        q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

    @staticmethod
    def zero():
        return _make(1, (0,), 1)

    @staticmethod
    def one():
        return _make(1, (1,), 1)

    @staticmethod
    def zeta(n, k=1):
        # zeta_n^k
        k %= n
        acc = [0] * (k + 1)
        acc[k] = 1
        return _make(n, _reduce(n, acc), 1)

    # --- order handling ---

    def _at(self, m):
        # numerators of self viewed at order m (self.order | m), over den
        n = self.order
        if m == n:
            return self.nums
        step = m // n
        acc = [0] * m
        for i, a in enumerate(self.nums):
            acc[i * step] = a
        return _reduce(m, acc)

    def lift(self, m):
        # view in Q(zeta_m), self.order | m
        if m < 1 or m % self.order:
            raise ValueError("cannot lift order %d to %d, which it does not"
                             " divide" % (self.order, m))
        if m == self.order:
            return self
        return _make(m, self._at(m), self.den)

    @property
    def coeffs(self):
        return tuple(Fraction(a, self.den) for a in self.nums)

    # --- predicates / extraction ---

    def is_zero(self):
        return self.order == 1 and self.nums[0] == 0

    def is_rational(self):
        return self.order == 1

    def as_fraction(self):
        if self.order != 1:
            raise ValueError("not a rational value: %r" % (self,))
        return Fraction(self.nums[0], self.den)

    # --- ring operations ---

    def __add__(self, other, sign=1):
        # self + sign * other in one pass; __sub__ passes sign = -1
        if not isinstance(other, CyclotomicNumber):
            other = CyclotomicNumber.from_rational(other)
        a, b = self, other
        den = lcm(a.den, b.den)
        sa, sb = den // a.den, sign * (den // b.den)
        if a.order == 1 and b.order != 1:
            a, b, sa, sb = b, a, sb, sa
        if a.order == b.order:
            nums = [x * sa + y * sb for x, y in zip(a.nums, b.nums)]
            return _make(a.order, nums, den)
        if b.order == 1:
            # the constant sits at coordinate 0
            nums = [x * sa for x in a.nums]
            nums[0] += b.nums[0] * sb
            return _make(a.order, nums, den)
        m = lcm(a.order, b.order)
        nums = [x * sa + y * sb for x, y in zip(a._at(m), b._at(m))]
        return _make(m, nums, den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __mul__(self, other):
        if not isinstance(other, CyclotomicNumber):
            other = CyclotomicNumber.from_rational(other)
        a, b = self, other
        if a.order == 1:
            a, b = b, a
        den = a.den * b.den
        if b.order == 1:
            c = b.nums[0]
            return _make(a.order, [x * c for x in a.nums], den)
        n = a.order
        p, q = a.nums, b.nums
        if n != b.order:
            n = lcm(n, b.order)
            p, q = a._at(n), b._at(n)
        return _make(n, _reduce(n, _product(p, q)), den)

    __rmul__ = __mul__

    def inverse(self):
        # a^-1 = c / (a c), c the product of the other Galois conjugates of
        # a: a c is the norm of a, a nonzero rational
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n = self.order
        others = CyclotomicNumber.one()
        for t in range(2, n):
            if gcd(t, n) == 1:
                others = others * self.galois(t)
        return others * (1 / (self * others).as_fraction())

    # --- Galois action ---

    def galois(self, t):
        # apply zeta -> zeta^t; requires gcd(t, order) == 1
        n = self.order
        if n == 1:
            return self
        t %= n
        if gcd(t, n) != 1:
            raise ValueError("zeta -> zeta^%d is not an automorphism of"
                             " Q(zeta_%d)" % (t, n))
        acc = [0] * n
        for i, a in enumerate(self.nums):
            if a:
                acc[(i * t) % n] += a
        return _make(n, _reduce(n, acc), self.den)

    # --- comparisons ---

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            if self.order == other.order:
                return self.den == other.den and self.nums == other.nums
            if self.order == 1 or other.order == 1:
                return False  # a rational against an irrational value
            m = lcm(self.order, other.order)
            return ([a * other.den for a in self._at(m)]
                    == [b * self.den for b in other._at(m)])
        if isinstance(other, (int, Fraction)):
            return (self.order == 1 and self.nums[0] * other.denominator
                    == other.numerator * self.den)
        return NotImplemented

    def __hash__(self):
        if self.order == 1:
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.order, self.nums, self.den))

    def __repr__(self):
        coeffs = self.coeffs
        if self.order == 1:
            return "CyclotomicNumber(%s)" % (coeffs[0],)
        terms = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                terms.append("(%s)*z%d^%d" % (c, self.order, i))
        return " + ".join(terms) if terms else "0"
