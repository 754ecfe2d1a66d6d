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

from .groupring import GroupRingElement, map_elements
from .lattice import canonicalize, group_labels
from .abelian import unit_group
from .cycloideal import smallest_primitive_root
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
    # tame[i] = t0^i, so omega(tame[i])^power is the i-th power of one lift
    step = pow(teichmuller(level.tame[1], ell, precision), power, mod)
    weights, weight = [], 1
    for t in level.tame:
        weights.append((t, weight))
        weight = weight * step % mod
    index, nums = level.group.index, x.nums
    residues = []  # the coefficient at wild w sits at w // ell
    for w in level.wild:
        total = 0
        for t, weight in weights:
            a = nums[index(t * w % m)]
            if a:
                total += a * weight
        residues.append(total * unit_inv % mod)
    smoothed = power % (ell - 1) == 1 % (ell - 1)
    if smoothed:
        sigma = (1 + ell) % m
        residues = [(res - (1 + ell) * residues[sigma * w % m // ell]) % mod
                    for w, res in zip(level.wild, residues)]
    coeffs = tuple(EigenCoefficient(res, scale, precision, ell)
                   for res in residues)
    return EigenProjection(ell, power, precision, tuple(level.wild), coeffs,
                           smoothed)


class TorsionAnnihilator(NamedTuple):
    exponent: int        # the torsion module has order ell^exponent
    generators: tuple    # the defining GroupRingElements

    @property
    def ideal(self):
        # the FractionalIdeal over (Z/m)^* the generators span, built when
        # read.  Their Z-span is already a Z[G]-module, so it is canonicalized
        # without a closure under G: with v = exponent and e = 1 - r,
        #   sigma_g (sigma_a - a^e) = (sigma_ga - (ga)^e) - a^e (sigma_g - g^e),
        #   sigma_g ell^v = ell^v (sigma_g - g^e) + g^e ell^v,
        # both in the span, since (ga)^e differs from b^e, b = ga mod m, by a
        # multiple of ell^v (b / ga = 1 mod m; the definition of v).  The
        # generators are integral, so their numerators over 1 span it.
        group = self.generators[0].group
        return canonicalize(group_labels(group), 1,
                            [x.nums for x in self.generators])


def torsion_exponent(m, ell, r):
    # largest k such that a^(1-r) = 1 mod ell^k whenever a = 1 mod
    # ell^min(k, v), v = v_ell(m); the order of the twisted cyclotomic
    # torsion.  For ell odd, v >= 1 and r != 1, lifting the exponent gives
    # v_ell(a^(1-r) - 1) = v + v_ell(1 - r) at a = 1 + ell^v u, u a unit,
    # the least over all such a, so k = v + v_ell(1 - r)
    if not (ell % 2 and is_prime(ell) and m % ell == 0 and r != 1):
        raise ValueError("need an odd prime ell dividing m and r != 1, got "
                         "m = %d, ell = %d, r = %d" % (m, ell, r))
    return valuation(m, ell) + valuation(1 - r, ell)


def _checked_exponent(m, ell, r):
    # torsion_exponent(m, ell, r), after the checks both callers share
    # m > 1 is a power of the prime ell iff it divides ell^(bits of m)
    if not (ell % 2 and is_prime(ell) and r <= -1 and m > 1
            and ell ** m.bit_length() % m == 0):
        raise ValueError("need an odd prime ell, a modulus m > 1 that is a "
                         "power of it and r <= -1, got m = %d, ell = %d, "
                         "r = %d" % (m, ell, r))
    return torsion_exponent(m, ell, r)


def torsion_annihilator(m, ell, r):
    # the exponent v and the generators ell^v and sigma_a - a^(1-r) of the
    # annihilator ideal, which .ideal canonicalizes only when it is read
    v = _checked_exponent(m, ell, r)
    group = unit_group(m)
    one = GroupRingElement.one(group)
    gens = [one.scale(ell ** v)]
    for a in group.elements:
        gens.append(GroupRingElement.basis(group, a) - one.scale(a ** (1 - r)))
    return TorsionAnnihilator(v, tuple(gens))


def annihilator_pair(m, ell, r):
    # ell^v and sigma_g - g^(1-r), which generate the annihilator ideal over
    # Z[G]: (Z/m)^* is cyclic with generator g, the least primitive root mod
    # ell, plus ell if it is 1 mod ell^2 to the ell - 1.  For a = g^j and
    # e = 1 - r,
    #   sigma_a - a^e = (sigma_g - g^e) Sigma_(i<j) sigma_g^i g^(e(j-1-i))
    #                   + (g^(je) - a^e),
    # the last an integer of valuation >= v (lifting the exponent, as in
    # torsion_exponent).  Both are among torsion_annihilator's generators
    v = _checked_exponent(m, ell, r)
    g = smallest_primitive_root(ell)
    g = (g + ell if pow(g, ell - 1, ell * ell) == 1 else g) % m
    one = GroupRingElement.one(unit_group(m))
    return (one.scale(ell ** v),
            GroupRingElement.basis(one.group, g) - one.scale(g ** (1 - r)))


def _worst(x, ell):
    # the least ell-adic valuation of x's coefficients, v(gcd(nums)) -
    # v(den), or None at x = 0
    return None if x.is_zero() else (valuation(gcd(*x.nums), ell)
                                     - valuation(x.den, ell))


def annihilator_integrality(m, ell, r, theta):
    # do all products (annihilator generator) * theta have coefficients of
    # nonnegative ell-adic valuation?  Returns (verdict, worst valuation,
    # witness: the index in torsion_annihilator's generators of the first
    # that attains a negative worst, else None).  An element of the ideal is
    # a Z[G]-combination of annihilator_pair, and G permutes theta's
    # coefficients, so its product has no lower valuation than the pair's:
    # two products give the worst over the whole ideal.  Only when it is
    # negative are the generators walked, in order, to name the witness;
    # each product is formed when the walk reaches it, with no product in
    # Q[G]: ell^v theta is a scaling, and (sigma_a - a^(1-r)) theta is theta
    # moved along b -> ab, less a^(1-r) theta.
    pair = [_worst(x * theta, ell) for x in annihilator_pair(m, ell, r)]
    worst = min((w for w in pair if w is not None), default=None)
    if worst is None or worst >= 0:
        return True, worst, None
    group = theta.group

    def products():
        yield theta.scale(ell ** torsion_exponent(m, ell, r))
        for a in group.elements:
            yield (map_elements(theta, group, lambda b: a * b % m)
                   - theta.scale(a ** (1 - r)))

    witness = next(k for k, x in enumerate(products())
                   if _worst(x, ell) == worst)
    return False, worst, witness
