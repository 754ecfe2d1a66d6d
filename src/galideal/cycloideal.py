# Fractional Galois ideals for the prime-power cyclotomic family: the full
# ideal over (Z/ell^(n+1))^*, its real-subfield version over the plus
# quotient, and the imaginary-quadratic version over the index-2 subgroup
# avoiding conjugation, together with the plus/minus projections and the
# towers connecting levels.
#
# Unit-side input is always an explicit annihilator lattice (defaulting to
# the unit ideal, the class-number-one hypothesis for small ell); nothing
# here computes unit groups.

from fractions import Fraction
from functools import lru_cache

from .abelian import squares_subgroup, subgroup_of_units, unit_group
from .dirichlet import PlaceSet
from .groupring import GroupRingElement, invert_unit, map_elements
from .lattice import (from_generators, group_labels, ideal_sum, map_image,
                      scale_by, unit_ideal)
from .stickelberger import (complex_conjugation, half_stickelberger,
                            require_imagquad_prime, stickelberger)
from .towers import TowerDatum, cyclotomic_tower


def smallest_primitive_root(ell):
    for g in range(2, ell):
        e, x = 1, g
        while x != 1 and e < ell:
            x = x * g % ell
            e += 1
        if x == 1 and e == ell - 1:
            return g
    raise ValueError("%d is not an odd prime" % ell)


class CyclotomicLevel:
    # The layer of conductor m = ell^(n+1): its Galois group with the
    # distinguished conjugation, split internally into the tame subgroup
    # (order ell-1, isomorphic image of (Z/ell)^*) and the wild subgroup
    # (order ell^n, the residues = 1 mod ell).

    def __init__(self, ell, n):
        assert n >= 0
        if ell % 2 == 0:
            raise ValueError("%d is not an odd prime" % ell)
        g = smallest_primitive_root(ell)
        self.ell = ell
        self.level = n
        self.modulus = ell ** (n + 1)
        self.group = unit_group(self.modulus)
        self.conjugation = complex_conjugation(self.modulus)
        self.tame = subgroup_of_units(self.modulus,
                                      [pow(g, ell ** n, self.modulus)])
        self.wild = subgroup_of_units(self.modulus,
                                      [(1 + ell) % self.modulus])
        assert self.tame.order == ell - 1
        assert self.wild.order == ell ** n
        # exponent that kills the wild part and fixes the tame part
        self._tame_exp = ell ** n * pow(ell ** n, -1, ell - 1)

    def places(self):
        return PlaceSet([self.ell])

    def split(self, a):
        # the unique factorization a = t * w with t tame and w wild
        t = pow(a, self._tame_exp, self.modulus)
        w = a * pow(t, -1, self.modulus) % self.modulus
        assert t in self.tame and w in self.wild
        return t, w

    def __repr__(self):
        return "CyclotomicLevel(ell=%d, n=%d)" % (self.ell, self.level)


class PlusQuotientGroup:
    # (Z/m)^* modulo {+-1}: each pair {a, m-a} is named by its smaller
    # member, so elements are the coprime residues below m/2.

    def __init__(self, modulus):
        assert modulus > 2
        self.modulus = modulus
        big = unit_group(modulus)
        self.elements = [a for a in big.elements if a < modulus - a]
        self.order = len(self.elements)
        self.identity = 1
        self._index = {a: i for i, a in enumerate(self.elements)}

    def normalize(self, a):
        a = a % self.modulus
        return min(a, self.modulus - a)

    def op(self, a, b):
        return self.normalize(a * b)

    def inv(self, a):
        return self.normalize(pow(a, -1, self.modulus))

    def index(self, a):
        return self._index[a]

    def label(self, a):
        return "s%d+" % a

    def __contains__(self, a):
        return self.normalize(a) in self._index

    def __repr__(self):
        return "PlusQuotientGroup(%d, order %d)" % (self.modulus, self.order)


@lru_cache(maxsize=None)
def plus_quotient(modulus):
    return PlusQuotientGroup(modulus)


def plus_tower(modulus):
    # (Z/m)^* -> (Z/m)^*/{+-1} as a quotient datum
    quot = plus_quotient(modulus)
    return TowerDatum(unit_group(modulus), quot, quot.normalize)


def level_tower(level_big, level_small):
    assert level_big.ell == level_small.ell
    assert level_big.level > level_small.level
    return cyclotomic_tower(level_big.modulus, level_small.modulus)


def plus_idempotent(level):
    one = GroupRingElement.one(level.group)
    c = GroupRingElement.basis(level.group, level.conjugation)
    return (one + c).scale(Fraction(1, 2))


def minus_idempotent(level, r=0):
    # projector onto the conjugation eigenspace holding theta(r), where
    # conjugation acts by (-1)^(1-r)
    one = GroupRingElement.one(level.group)
    c = GroupRingElement.basis(level.group, level.conjugation)
    sign = -1 if r % 2 == 0 else 1
    return (one + c.scale(sign)).scale(Fraction(1, 2))


def ideal_from_components(group, gens, fixture):
    # module generated by gens, times tau(fixture)^{-1}; fixtures differing
    # by a unit of Z[1/2][G] (a power of 2 times a group element, up to
    # sign) produce the same ideal
    try:
        inv = invert_unit(fixture)
    except ZeroDivisionError:
        raise ValueError("fixture is not invertible: some character "
                         "component vanishes")
    return scale_by(from_generators(group, gens), group, inv.tau())


def ideal_J_minus(level, r=0, places=None):
    # the r-twisted Stickelberger span Z[1/2][G] theta(r)
    if places is None:
        places = level.places()
    theta = stickelberger(level.modulus, places, r).element
    return from_generators(level.group, [theta])


def inflate_plus(level, xbar):
    # e_plus times any preimage of xbar under G -> G/{+-1}; independent of
    # the preimage choice because e_plus absorbs conjugation.  Quotient
    # elements are residues below m/2, hence are their own preimages.
    lift = GroupRingElement(level.group, dict(xbar.coeffs))
    return plus_idempotent(level) * lift


def full_ideal_parts(level, units=None):
    # the two summands of the full ideal: (1/2) e_plus (inflated unit
    # annihilator), and the Stickelberger span
    quot = plus_quotient(level.modulus)
    if units is None:
        units = unit_ideal(quot)
    assert units.labels == group_labels(quot), "unit data on wrong ambient"
    half = Fraction(1, 2)
    plus_gens = []
    for vec in units.vectors():
        xbar = GroupRingElement(quot, dict(zip(quot.elements, vec)))
        plus_gens.append(inflate_plus(level, xbar).scale(half))
    plus_part = from_generators(level.group, plus_gens)
    minus_part = ideal_J_minus(level, 0)
    return plus_part, minus_part


def ideal_J_full(level, units=None):
    plus_part, minus_part = full_ideal_parts(level, units)
    return ideal_sum(plus_part, minus_part)


def ideal_J_real(level, units=None):
    # (1/2) times the unit annihilator, over the plus quotient; the halving
    # dissolves under 2-saturation but is kept for shape
    quot = plus_quotient(level.modulus)
    if units is None:
        units = unit_ideal(quot)
    half_one = GroupRingElement.one(quot).scale(Fraction(1, 2))
    return scale_by(units, quot, half_one)


def half_subgroup(level):
    h = squares_subgroup(level.modulus)
    assert level.conjugation not in h, (
        "conjugation is a square; need ell = 3 mod 4")
    return h


def phi_push(level, x):
    # the isomorphism Q[H] -> Q[G+] induced by a -> {a, m-a} on the index-2
    # subgroup H avoiding conjugation
    quot = plus_quotient(level.modulus)
    return map_elements(x, quot, quot.normalize)


def phi_pull_matrix(level):
    # inverse of phi as a permutation matrix (plus-quotient coordinates to
    # H coordinates)
    h = half_subgroup(level)
    quot = plus_quotient(level.modulus)
    back = {quot.normalize(a): a for a in h.elements}
    assert len(back) == quot.order
    T = [[0] * quot.order for _ in range(h.order)]
    for j, q in enumerate(quot.elements):
        T[h.index(back[q])][j] = 1
    return T


def ideal_J_imagquad(level, units=None):
    # ideal over H (the imaginary-quadratic base): transport the real
    # ideal through phi, scale by twice the half-Stickelberger element,
    # and pull back
    require_imagquad_prime(level.ell)
    h = half_subgroup(level)
    quot = plus_quotient(level.modulus)
    real = ideal_J_real(level, units)
    ttilde = half_stickelberger(level.modulus, h, level.places())
    scaled = scale_by(real, quot, phi_push(level, ttilde).scale(2))
    return map_image(scaled, phi_pull_matrix(level), group_labels(h))
