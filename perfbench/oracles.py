"""Answers the benchmark checks outputs against, computed without galideal.

Everything here is plain Fractions and integers.  It runs in run.py's
process, outside every timed region.
"""

from fractions import Fraction
from math import comb, gcd


def primes_below(n):
    return [p for p in range(2, n) if all(p % d for d in range(2, p))]


def prime_divisors(m):
    return [p for p in primes_below(m + 1) if m % p == 0]


def units(m):
    return [a for a in range(1, m) if gcd(a, m) == 1]


# ---------------------------------------------------------------------------
# Stickelberger elements

def _bernoulli_numbers(n):
    b = [Fraction(1)]
    for k in range(1, n + 1):
        b.append(-sum(comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


def _bernoulli_poly(n, x, b):
    return sum(comb(n, k) * b[k] * x ** (n - k) for k in range(n + 1))


def _group_ring_mul(x, y, m):
    out = {}
    for a, c in x.items():
        for b, d in y.items():
            g = a * b % m
            out[g] = out.get(g, 0) + c * d
    return out


def theta(m, r, extra_primes=()):
    """theta = sum_a zeta_S(r, sigma_a^-1) sigma_a for S = {p | m} + extras.

    The ramified part is the Hurwitz value -m^(n-1) B_n(a/m) / n, n = 1 - r;
    each extra prime p multiplies by (1 - p^-r sigma_p^-1) in Q[(Z/m)^*].
    Returns {label: fraction string} with zero coefficients dropped, the
    shape of the CLI's "element" field.
    """
    n = 1 - r
    b = _bernoulli_numbers(n)
    el = {}
    for a in units(m):
        inv = pow(a, -1, m)
        el[a] = -Fraction(m) ** (n - 1) * _bernoulli_poly(n, Fraction(inv, m), b) / n
    for p in extra_primes:
        el = _group_ring_mul(el, {1: Fraction(1), pow(p, -1, m): -Fraction(p) ** (-r)}, m)
    return {"s%d" % a: str(c) for a, c in sorted(el.items()) if c}
