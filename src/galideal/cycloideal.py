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
from math import lcm

from .abelian import subgroup_of_units, unit_group
from .cyclotomic import prime_divisors
from .dirichlet import PlaceSet, is_prime
from .groupring import GroupRingElement, map_elements
from .lattice import (FractionalIdeal, group_labels, ideal_elements,
                      ideal_sum, saturated_columns, scale_by, unit_ideal)
from .stickelberger import (complex_conjugation, half_stickelberger,
                            require_imagquad_prime, stickelberger)
from .towers import TowerDatum, cyclotomic_tower


def smallest_primitive_root(ell):
    # g generates (Z/ell)^* when no g^((ell-1)/q), q a prime factor of
    # ell - 1, is 1
    if ell < 3 or not is_prime(ell):
        raise ValueError("%d is not an odd prime" % ell)
    qs = prime_divisors(ell - 1)
    return next(g for g in range(2, ell)
                if all(pow(g, (ell - 1) // q, ell) != 1 for q in qs))


class CyclotomicLevel:
    # The layer of conductor m = ell^(n+1): its Galois group with the
    # distinguished conjugation, split internally into the tame subgroup
    # (order ell-1, isomorphic image of (Z/ell)^*) and the wild subgroup
    # (order ell^n, the residues = 1 mod ell).  The product of their
    # generators has order (ell-1) ell^n, so it generates the whole group.

    def __init__(self, ell, n):
        if n < 0:
            raise ValueError("level %d is negative" % n)
        g = smallest_primitive_root(ell)
        self.ell = ell
        self.level = n
        self.modulus = ell ** (n + 1)
        self.group = unit_group(self.modulus)
        self.conjugation = complex_conjugation(self.modulus)
        tame, wild = pow(g, ell ** n, self.modulus), (1 + ell) % self.modulus
        self.tame = subgroup_of_units(self.modulus, [tame])
        self.wild = subgroup_of_units(self.modulus, [wild])
        self.generator = tame * wild % self.modulus
        assert self.tame.order == ell - 1
        assert self.wild.order == ell ** n

    def places(self):
        return PlaceSet([self.ell])

    def __repr__(self):
        return "CyclotomicLevel(ell=%d, n=%d)" % (self.ell, self.level)


class PlusQuotientGroup:
    # (Z/m)^* modulo {+-1}: each pair {a, m-a} is named by its smaller
    # member, so elements are the coprime residues below m/2.

    def __init__(self, modulus):
        if modulus <= 2:
            raise ValueError("modulus %d has no plus quotient" % modulus)
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
    if (level_big.ell != level_small.ell
            or level_big.level <= level_small.level):
        raise ValueError("%r is not above %r" % (level_big, level_small))
    return cyclotomic_tower(level_big.modulus, level_small.modulus)


def plus_idempotent(level):
    one = GroupRingElement.one(level.group)
    c = GroupRingElement.basis(level.group, level.conjugation)
    return (one + c).scale(Fraction(1, 2))


def eigenspace_ideal(level, gens, eps):
    # Z[1/2][G]-module generated by gens, which must lie in the eps-eigenspace
    # of conjugation: x[m-a] = eps x[a].  The residues are labelled in
    # increasing order, so a < m/2 fills the first half of the coordinates
    # and m-a the mirrored index.  Restricted to that half the eigenspace is
    # Z^k (k = phi(m)/2) and level.generator acts by a signed permutation;
    # the HNF's pivot rows are the half's rows, and restriction commutes
    # with 2-saturation, so the canonical columns are those of the half,
    # lifted by x[m-a] = eps x[a].
    group, m = level.group, level.modulus
    k = group.order // 2
    den = lcm(*(x.den for x in gens))
    half = []
    for x in gens:
        if x.group != group or any(
                x.nums[-1 - i] != eps * x.nums[i] for i in range(k)):
            raise ValueError("generator outside the %+d eigenspace of "
                             "conjugation mod %d" % (eps, m))
        half.append([a * (den // x.den) for a in x.nums[:k]])
    # (g x)[a] = x[g^-1 a], read back into the half by x[m-b] = eps x[b]
    g_inv = pow(level.generator, -1, m)
    perm = []
    for a in group.elements[:k]:
        b = g_inv * a % m
        perm.append((group.index(b), 1) if b < m - b
                    else (group.index(m - b), eps))
    d, columns = saturated_columns(den, half, k, [perm])
    return FractionalIdeal(group_labels(group), d,
                           [c + [eps * x for x in reversed(c)]
                            for c in columns])


def ideal_J_minus(level, r=0, places=None):
    # the r-twisted Stickelberger span Z[1/2][G] theta(r), in the
    # (-1)^(1-r) eigenspace of conjugation
    if places is None:
        places = level.places()
    theta = stickelberger(level.modulus, places, r)
    return eigenspace_ideal(level, [theta], (-1) ** (1 - r))


def inflate_plus(level, xbar):
    # e_plus times any preimage of xbar under G -> G/{+-1}; independent of
    # the preimage choice because e_plus absorbs conjugation.  Quotient
    # elements are residues below m/2, hence are their own preimages.
    lift = map_elements(xbar, level.group, lambda a: a)
    return plus_idempotent(level) * lift


def full_ideal_parts(level, units=None):
    # the two summands of the full ideal: (1/2) e_plus (inflated unit
    # annihilator), and the Stickelberger span; ideal_elements raises
    # ValueError, naming both label sets, on units over another ambient
    quot = plus_quotient(level.modulus)
    if units is None:
        units = unit_ideal(quot)
    plus_gens = [inflate_plus(level, x).scale(Fraction(1, 2))
                 for x in ideal_elements(units, quot)]
    plus_part = eigenspace_ideal(level, plus_gens, 1)
    minus_part = ideal_J_minus(level, 0)
    return plus_part, minus_part


def ideal_J_full(level, units=None):
    plus_part, minus_part = full_ideal_parts(level, units)
    return ideal_sum(plus_part, minus_part)


def ideal_J_real(level, units=None):
    # the unit annihilator over the plus quotient; the paper's factor 1/2 is
    # a unit of Z[1/2], so the module is the annihilator itself
    quot = plus_quotient(level.modulus)
    if units is None:
        return unit_ideal(quot)
    if units.labels != group_labels(quot):
        raise ValueError("ambient mismatch: %r, expected %r"
                         % (units.labels, group_labels(quot)))
    return units


def ideal_J_imagquad(level, units=None):
    # ideal over H (the imaginary-quadratic base): pull the real ideal's
    # generators back along the isomorphism H -> G+, a -> {a, m-a}, which
    # holds because conjugation avoids H, and scale them by twice the
    # half-Stickelberger element in Q[H].  The pulled columns generate the
    # module but are not in canonical form; scale_by reads only generators.
    require_imagquad_prime(level.ell)
    ttilde = half_stickelberger(level.modulus)
    h = ttilde.group
    quot = plus_quotient(level.modulus)
    real = ideal_J_real(level, units)
    src = [quot.index(quot.normalize(a)) for a in h.elements]
    pulled = FractionalIdeal(group_labels(h), real.denominator,
                             [[col[j] for j in src] for col in real.columns])
    return scale_by(pulled, h, ttilde.scale(2))
