# Exact ell-adic bookkeeping: Teichmuller lifts by modular exponentiation,
# eigenprojections of group-ring elements onto the wild subgroup with
# certified coefficient valuations, and the annihilator of the cyclic
# Tate-twisted torsion module.
#
# No completion is ever formed: an ell-adic integer appears only as an
# integer residue to a stated precision, and every valuation verdict
# records whether the precision actually certifies it.

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .groupring import GroupRingElement
from .lattice import from_generators, ideal_elements
from .abelian import unit_group
from .dirichlet import is_prime


def valuation(x, ell):
    # v_ell of a nonzero Fraction (or int)
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0")
    v, n, d = 0, x.numerator, x.denominator
    while n % ell == 0:
        n, v = n // ell, v + 1
    while d % ell == 0:
        d, v = d // ell, v - 1
    return v


def teichmuller(a, ell, precision):
    # the (ell-1)-th root of unity in the ell-adics congruent to a mod ell,
    # as a residue mod ell^precision; (a^ell^k) stabilizes one digit per step
    if a % ell == 0:
        raise ValueError("no Teichmuller lift of %d: %d divides it" % (a, ell))
    return pow(a, ell ** (precision - 1), ell ** precision)


class EigenCoefficient(NamedTuple):
    # one coefficient, equal to numerator / (ell^scale * unit) where the
    # numerator is known only as a residue mod ell^precision
    numerator: int
    scale: int
    precision: int
    ell: int

    @property
    def exact(self):
        # a nonzero residue pins the valuation exactly; a zero residue
        # only bounds it below by precision - scale
        return self.numerator != 0

    @property
    def min_valuation(self):
        if self.numerator == 0:
            return self.precision - self.scale
        return valuation(self.numerator, self.ell) - self.scale

    @property
    def sign_certified(self):
        return self.exact or self.min_valuation > 0


class EigenProjection(NamedTuple):
    ell: int
    power: int           # the tame character as a power of the Teichmuller one
    precision: int
    wild_elements: tuple
    coefficients: tuple  # EigenCoefficient per wild element, same order
    smoothed: bool

    @property
    def min_valuation(self):
        return min(c.min_valuation for c in self.coefficients)

    @property
    def certified(self):
        return all(c.sign_certified for c in self.coefficients)


def eigen_projection(level, power, x, precision=20):
    # component of x in the power-th Teichmuller eigenspace of the tame
    # subgroup, written over the wild subgroup mod ell^precision.  The
    # eigenspace with power = 1 mod (ell-1) additionally gets the factor
    # (1 - (1+ell) sigma^{-1}), sigma the wild generator 1+ell, which is
    # what makes the Stickelberger image land in the integers.
    ell, m = level.ell, level.modulus
    if x.group != level.group:
        raise ValueError("element not over the level's %r" % (level.group,))
    if precision < 1:
        raise ValueError("precision %d is not positive" % precision)
    mod = ell ** precision
    # x = nums / den with gcd(den, nums) = 1: den is the least denominator
    scale = valuation(x.den, ell)
    unit_part = x.den // ell ** scale
    unit_inv = pow(unit_part, -1, mod)
    residues = {}
    for w in level.wild.elements:
        total = 0
        for t in level.tame.elements:
            a = x.nums[level.group.index(t * w % m)]
            if a:
                total += a * pow(teichmuller(t, ell, precision), power, mod)
        residues[w] = total * unit_inv % mod
    smoothed = power % (ell - 1) == 1 % (ell - 1)
    if smoothed:
        sigma = (1 + ell) % m
        residues = {w: (residues[w]
                        - (1 + ell) * residues[sigma * w % m]) % mod
                    for w in level.wild.elements}
    coeffs = tuple(EigenCoefficient(residues[w], scale, precision, ell)
                   for w in level.wild.elements)
    return EigenProjection(ell, power, precision,
                           tuple(level.wild.elements), coeffs, smoothed)


class TorsionAnnihilator(NamedTuple):
    ideal: object        # FractionalIdeal over (Z/m)^*
    exponent: int        # the torsion module has order ell^exponent
    generators: tuple    # the defining GroupRingElements


def torsion_exponent(m, ell, r):
    # largest k such that a^(1-r) = 1 mod ell^k whenever a = 1 mod
    # ell^min(k, v_ell(m)); the order of the twisted cyclotomic torsion
    vm = valuation(m, ell)

    def holds(k):
        step = ell ** min(k, vm)
        mod = ell ** k
        return all(pow(a, 1 - r, mod) == 1 for a in range(1, mod + 1, step))

    k = vm  # automatic below vm: a = 1 mod ell^k forces a^(1-r) = 1 mod ell^k
    while holds(k + 1):
        k += 1
    return k


def torsion_annihilator(m, ell, r):
    # ideal generated by ell^v and the twisted differences sigma_a - a^(1-r)
    # m > 1 is a power of the prime ell iff it divides ell^(bits of m)
    if not (ell % 2 and is_prime(ell) and r <= -1 and m > 1
            and ell ** m.bit_length() % m == 0):
        raise ValueError("need an odd prime ell, a modulus m > 1 that is a "
                         "power of it and r <= -1, got m = %d, ell = %d, "
                         "r = %d" % (m, ell, r))
    group = unit_group(m)
    v = torsion_exponent(m, ell, r)
    one = GroupRingElement.one(group)
    gens = [one.scale(ell ** v)]
    for a in group.elements:
        gens.append(GroupRingElement.basis(group, a) - one.scale(a ** (1 - r)))
    return TorsionAnnihilator(from_generators(group, gens), v, tuple(gens))


def annihilator_integrality(m, ell, r, theta):
    # do all products (annihilator generator) * theta have coefficients of
    # nonnegative ell-adic valuation?  Returns (verdict, worst valuation,
    # witness generator index or None).  The worst valuation of nums / den
    # is v(gcd(nums)) - v(den).
    ann = torsion_annihilator(m, ell, r)
    worst = None
    witness = None
    checks = list(ann.generators) + ideal_elements(ann.ideal, unit_group(m))
    for k, gen in enumerate(checks):
        prod = gen * theta
        if prod.is_zero():
            continue
        v = valuation(gcd(*prod.nums), ell) - valuation(prod.den, ell)
        if worst is None or v < worst:
            worst = v
            witness = k if v < 0 else witness
    return (worst is None or worst >= 0), worst, witness
