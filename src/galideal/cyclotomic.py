# Exact arithmetic in cyclotomic fields Q(zeta_N).
#
# A CyclotomicNumber of order N is the residue of a polynomial in zeta_N
# modulo the N-th cyclotomic polynomial, stored as a coefficient tuple of
# Fractions of length phi(N) = deg Phi_N.  Equality is coefficient-wise on
# this canonical form; values of different orders are compared after lifting
# both to the lcm order.  Rational values are collapsed to order 1 on
# construction, so rationals hash consistently; equal irrational values kept
# at different orders would not, and nothing here uses them as dict keys.

from fractions import Fraction
from functools import lru_cache
from math import gcd

_ZERO = Fraction(0)
_ONE = Fraction(1)


def euler_phi(n):
    assert n >= 1
    result = n
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod_int(p, q):
    # exact-integer polynomial division; q monic up to sign
    p = list(p)
    out = [0] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    for i in range(len(p) - len(q), -1, -1):
        c = p[i + len(q) - 1]
        if c % lead != 0:
            raise ArithmeticError("non-exact integer polynomial division")
        f = c // lead
        out[i] = f
        if f:
            for j, b in enumerate(q):
                p[i + j] -= f * b
    return out, _poly_trim(p)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    # Coefficients of Phi_n, constant term first.  Computed by dividing
    # x^n - 1 by the Phi_d for proper divisors d; all divisions are exact.
    assert n >= 1
    if n == 1:
        return (-1, 1)
    p = [0] * (n + 1)
    p[0], p[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            p, rem = _poly_divmod_int(p, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(p)


@lru_cache(maxsize=None)
def _reduction_rows(n):
    # Row k (k = phi(n) .. n-1) gives the canonical coefficients of zeta_n^k,
    # precomputed so reduction mod Phi_n is a table lookup.
    phi = euler_phi(n)
    mod = cyclotomic_polynomial(n)
    head = [Fraction(-c, mod[-1]) for c in mod[:-1]]  # zeta^phi
    rows = {}
    current = list(head)
    for k in range(phi, n):
        if k > phi:
            shifted = [_ZERO] + current[:-1]
            overflow = current[-1]
            if overflow:
                shifted = [a + overflow * b for a, b in zip(shifted, head)]
            current = shifted
        rows[k] = tuple(current)
    return rows


def _reduce_mod_phi(coeffs, n):
    # coeffs: list of Fractions, any length; returns canonical tuple of
    # length phi(n)
    phi = euler_phi(n)
    out = list(coeffs[:phi]) + [_ZERO] * max(0, phi - len(coeffs))
    if len(coeffs) > phi:
        rows = _reduction_rows(n)
        for k in range(phi, len(coeffs)):
            c = coeffs[k]
            if not c:
                continue
            e = k % n  # zeta^n = 1
            if e < phi:
                out[e] += c
            else:
                row = rows[e]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
    return tuple(out)


class CyclotomicNumber:
    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        # coeffs: iterable of Fractions of length phi(order), already reduced
        coeffs = tuple(Fraction(c) for c in coeffs)
        assert len(coeffs) == euler_phi(order)
        if order > 1 and all(c == 0 for c in coeffs[1:]):
            order, coeffs = 1, (coeffs[0],)
        self.order = order
        self.coeffs = coeffs

    # --- constructors ---

    @staticmethod
    def from_rational(q):
        return CyclotomicNumber(1, (Fraction(q),))

    @staticmethod
    def zero():
        return CyclotomicNumber(1, (_ZERO,))

    @staticmethod
    def one():
        return CyclotomicNumber(1, (_ONE,))

    @staticmethod
    def zeta(n, k=1):
        # zeta_n^k
        k %= n
        poly = [_ZERO] * (k + 1)
        poly[k] = _ONE
        return CyclotomicNumber(n, _reduce_mod_phi(poly, n))

    # --- order handling ---

    def lift(self, m):
        # view in Q(zeta_m), self.order | m
        n = self.order
        assert m % n == 0
        if m == n:
            return self
        step = m // n
        poly = [_ZERO] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                poly[i * step] = c
        return CyclotomicNumber(m, _reduce_mod_phi(poly, m))

    @staticmethod
    def _common(a, b):
        # Coerce both to CyclotomicNumber.  NOTE: because the constructor
        # collapses rational values to order 1, the results may still have
        # different orders when one side is rational; callers handle the
        # order-1 cases before lifting.
        if not isinstance(a, CyclotomicNumber):
            a = CyclotomicNumber.from_rational(a)
        if not isinstance(b, CyclotomicNumber):
            b = CyclotomicNumber.from_rational(b)
        if a.order == b.order:
            return a, b
        if a.order == 1 or b.order == 1:
            return a, b
        m = a.order * b.order // gcd(a.order, b.order)
        return a.lift(m), b.lift(m)

    # --- predicates / extraction ---

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        return self.order == 1

    def as_fraction(self):
        if self.order != 1:
            raise ValueError("not a rational value: %r" % (self,))
        return self.coeffs[0]

    # --- ring operations ---

    def __add__(self, other):
        a, b = CyclotomicNumber._common(self, other)
        if a.order != b.order:
            # exactly one side rational; the constant sits at coordinate 0
            if b.order == 1:
                a, b = b, a
            out = list(b.coeffs)
            out[0] += a.coeffs[0]
            return CyclotomicNumber(b.order, out)
        return CyclotomicNumber(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, CyclotomicNumber) else CyclotomicNumber.from_rational(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = CyclotomicNumber._common(self, other)
        if a.order != b.order:
            if b.order == 1:
                a, b = b, a
            c = a.coeffs[0]
            return CyclotomicNumber(b.order, tuple(c * x for x in b.coeffs))
        if a.order == 1:
            return CyclotomicNumber(1, (a.coeffs[0] * b.coeffs[0],))
        prod = _poly_mul_frac(a.coeffs, b.coeffs)
        return CyclotomicNumber(a.order, _reduce_mod_phi(prod, a.order))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, CyclotomicNumber):
            return self * CyclotomicNumber.from_rational(Fraction(1) / Fraction(other))
        return self * other.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result = CyclotomicNumber.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n = self.order
        if n == 1:
            return CyclotomicNumber(1, (Fraction(1) / self.coeffs[0],))
        mod = [Fraction(c) for c in cyclotomic_polynomial(n)]
        g, inv = _poly_xgcd_modular(list(self.coeffs), mod)
        # g is a nonzero constant since Phi_n is irreducible over Q
        assert len(g) == 1 and g[0] != 0
        inv = [c / g[0] for c in inv]
        return CyclotomicNumber(n, _reduce_mod_phi(inv, n))

    # --- Galois action ---

    def galois(self, t):
        # apply zeta -> zeta^t; requires gcd(t, order) == 1
        n = self.order
        if n == 1:
            return self
        t %= n
        assert gcd(t, n) == 1
        poly = [_ZERO] * n
        for i, c in enumerate(self.coeffs):
            if c:
                poly[(i * t) % n] += c
        return CyclotomicNumber(n, _reduce_mod_phi(poly, n))

    def conjugate(self):
        return self.galois(self.order - 1) if self.order > 2 else self

    # --- comparisons ---

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.order == 1 and self.coeffs[0] == other
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = CyclotomicNumber._common(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self.order == 1:
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self):
        if self.order == 1:
            return "CyclotomicNumber(%s)" % (self.coeffs[0],)
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                terms.append("(%s)*z%d^%d" % (c, self.order, i))
        return " + ".join(terms) if terms else "0"


def _poly_mul_frac(p, q):
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return out


def _poly_divmod_frac(p, q):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    q = list(q)
    while q and q[-1] == 0:
        q.pop()
    if len(p) < len(q):
        return [], p
    out = [_ZERO] * (len(p) - len(q) + 1)
    inv_lead = Fraction(1) / q[-1]
    for i in range(len(p) - len(q), -1, -1):
        c = p[i + len(q) - 1] * inv_lead
        out[i] = c
        if c:
            for j, b in enumerate(q):
                p[i + j] -= c * b
    while p and p[-1] == 0:
        p.pop()
    return out, p


def _poly_xgcd_modular(a, mod):
    # returns (g, u) with u*a = g (mod `mod`), g the gcd; enough for inverses
    r0, r1 = list(mod), list(a)
    s0, s1 = [], [_ONE]
    while any(c != 0 for c in r1):
        q, r = _poly_divmod_frac(r0, r1)
        r0, r1 = r1, r
        qs1 = _poly_mul_frac(q, s1) if q and s1 else []
        new_s = [x - y for x, y in
                 zip(s0 + [_ZERO] * max(0, len(qs1) - len(s0)),
                     qs1 + [_ZERO] * max(0, len(s0) - len(qs1)))]
        while new_s and new_s[-1] == 0:
            new_s.pop()
        s0, s1 = s1, new_s
    while r0 and r0[-1] == 0:
        r0.pop()
    return r0, s0
