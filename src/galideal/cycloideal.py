# Fractional Galois ideals for the prime-power cyclotomic family: the full
# ideal over (Z/ell^(n+1))^*, its real-subfield version over the plus
# quotient, and the imaginary-quadratic version over the index-2 subgroup
# avoiding conjugation, together with the tower onto the plus quotient.
# Two levels are joined by towers.cyclotomic_tower.
#
# Both summands of the full ideal live in an eigenspace of conjugation, so
# both are built on half coordinates, the residues below m/2, by one
# closure (_half_closure): the Stickelberger span from theta's first half,
# the plus summand from the unit annihilator's columns, whose quotient
# elements are those same residues.  No idempotent of Q[G] is formed.
#
# Unit-side input is always an explicit annihilator lattice (defaulting to
# the unit ideal, the class-number-one hypothesis for small ell); nothing
# here computes unit groups.

from functools import lru_cache
from math import lcm

from .abelian import unit_group
from .cyclotomic import prime_divisors
from .dirichlet import PlaceSet, is_prime
from .lattice import (FractionalIdeal, group_labels, ideal_sum,
                      saturated_columns, scale_by, unit_ideal)
from .stickelberger import (complex_conjugation, half_stickelberger,
                            require_imagquad_prime, stickelberger)
from .towers import TowerDatum


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
    # distinguished conjugation, and the residues of its two factors in
    # fixed orders.  tame holds the ell-1 powers t0^i of t0 = g^(ell^n), g the
    # smallest primitive root mod ell, in power order (tame[i] = t0^i, the
    # isomorphic image of (Z/ell)^*); wild holds the ell^n residues = 1 mod
    # ell, in increasing order, so w sits at w // ell.  The generator
    # t0 (1 + ell) has order (ell-1) ell^n, the product of two coprime
    # orders, so it generates the whole group.

    def __init__(self, ell, n):
        if n < 0:
            raise ValueError("level %d is negative" % n)
        g = smallest_primitive_root(ell)
        m = ell ** (n + 1)
        self.ell = ell
        self.level = n
        self.modulus = m
        self.group = unit_group(m)
        self.conjugation = complex_conjugation(m)
        t0 = pow(g, ell ** n, m)
        self.tame = [pow(t0, i, m) for i in range(ell - 1)]
        self.wild = range(1, m, ell)
        self.generator = t0 * (1 + ell) % m

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


def eigenspace_ideal(level, gens, eps):
    # Z[1/2][G]-module generated by gens, which must lie in the eps-eigenspace
    # of conjugation: x[m-a] = eps x[a]
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
    return _half_closure(level, den, half, eps)


def _half_closure(level, den, half, eps):
    # Z[1/2][G]-module generated by the eps-eigenspace vectors whose first
    # halves are the rows of half over den.  The residues are labelled in
    # increasing order, so a < m/2 fills the first half of the coordinates
    # and m-a the mirrored index.  Restricted to that half the eigenspace is
    # Z^k (k = phi(m)/2) and level.generator acts by a signed permutation;
    # the HNF's pivot rows are the half's rows, and restriction commutes
    # with 2-saturation, so the canonical columns are those of the half,
    # lifted by x[m-a] = eps x[a].
    group, m = level.group, level.modulus
    k = group.order // 2
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


def ideal_J_minus(level, r=0):
    # the r-twisted Stickelberger span Z[1/2][G] theta(r), in the
    # (-1)^(1-r) eigenspace of conjugation
    theta = stickelberger(level.modulus, level.places(), r)
    return eigenspace_ideal(level, [theta], (-1) ** (1 - r))


def full_ideal_parts(level, units=None):
    # the two summands of the full ideal: (1/2) e_plus (inflated unit
    # annihilator), and the Stickelberger span.  The plus quotient's
    # elements are the residues below m/2, G's first half, and e_plus puts
    # x[a]/2 at both a and m-a, so the plus summand's first halves are the
    # annihilator's columns times 1/4, a unit of Z[1/2].
    real = ideal_J_real(level, units)
    plus_part = _half_closure(level, real.denominator, real.columns, 1)
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
