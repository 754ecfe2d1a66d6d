# The group ring Q[G] of a finite abelian (and, for the plain ring
# operations, arbitrary finite) group, plus the character calculus:
#
#   psi_eval(x, chi)     Sigma c_g chi(g), the chi-component of x
#   lambda_assemble(...) the inverse of psi: given one value per character,
#                        the unique element with those components; raises if
#                        the values are not Galois-equivariant (checked on
#                        generators of the Galois group)
#   det_over_group_ring  determinant via one character per Galois orbit,
#                        fraction-free (Bareiss) on numerator rows
#
# One table per group (`_table`) holds the Galois orbits of the characters
# and builds only each orbit's first character; both directions assemble
# from one value per orbit (`assemble_orbits`), by one integer trace per
# orbit and element, with no reduction.  Determinants alone also keep each
# orbit's first character's values at the elements as coordinates: they
# run on numerator rows at order N and below 3 x 3 build no
# CyclotomicNumber.
#
# An element is `nums`, |G| integers indexed by group.index, over one
# denominator den > 0 with gcd(den, nums) = 1.  Sums add numerators, tau
# and map_elements permute them, and a product is an integer convolution:
# each nonzero index i of the left factor reads the row index(op(g_i, h)),
# built when first read and cached on the group, never as an eager table.
# Fractions occur only at the edges: coefficients given to the constructor
# or scale, coefficient() and repr.

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul
from typing import NamedTuple

from .abelian import ResidueGroup, closure
from .cyclotomic import (CyclotomicNumber, _product, _reduce, euler_phi,
                         from_exponents, ramanujan_sums)


def _coerce(value):
    # a given coefficient or scalar as an int or Fraction; as_fraction
    # raises ValueError on an irrational CyclotomicNumber
    if isinstance(value, CyclotomicNumber):
        return value.as_fraction()
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


def _slot(group, g):
    # group.index(g), checked: FiniteGroup.index returns its argument, so
    # without the check -1 or group.order would land in a valid slot
    try:
        i = group.index(g)
        if 0 <= i < group.order and group.elements[i] == g:
            return i
    except (KeyError, TypeError):
        pass
    raise ValueError("%r is not an element of %r" % (g, group))


def _make(group, nums, den):
    # the element nums/den (den > 0), reduced to gcd(den, nums) = 1
    g = gcd(den, *nums)
    if g != 1:
        nums, den = [a // g for a in nums], den // g
    x = object.__new__(GroupRingElement)
    x.group, x.nums, x.den = group, tuple(nums), den
    return x


class GroupRingElement:
    __slots__ = ("group", "nums", "den")

    def __init__(self, group, coeffs):
        # coeffs: element -> rational; a non-element key raises ValueError
        pairs = [(_slot(group, g), _coerce(c)) for g, c in coeffs.items()]
        den = lcm(*(c.denominator for _, c in pairs))
        nums = [0] * group.order
        for i, c in pairs:
            nums[i] = c.numerator * (den // c.denominator)
        x = _make(group, nums, den)
        self.group, self.nums, self.den = group, x.nums, x.den

    # --- constructors ---

    @staticmethod
    def from_numerators(group, nums, den=1):
        # the element with coefficient nums[i] / den at group.elements[i]
        nums = list(nums)
        if len(nums) != group.order or den < 1:
            raise ValueError("need %d numerators over a positive denominator,"
                             " got %d over %r" % (group.order, len(nums), den))
        return _make(group, nums, den)

    @staticmethod
    def one(group):
        return GroupRingElement.basis(group, group.identity)

    @staticmethod
    def basis(group, g):
        return GroupRingElement(group, {g: 1})

    # --- basic access ---

    def coefficient(self, g):
        return Fraction(self.nums[_slot(self.group, g)], self.den)

    def is_zero(self):
        return not any(self.nums)

    def _check(self, other):
        if self.group != other.group:
            raise ValueError("group mismatch: %r vs %r" % (self.group, other.group))

    # --- ring operations ---

    def __add__(self, other):
        self._check(other)
        den = lcm(self.den, other.den)
        f, h = den // self.den, den // other.den
        return _make(self.group, [a * f + b * h
                                  for a, b in zip(self.nums, other.nums)], den)

    def __neg__(self):
        return _make(self.group, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        q = _coerce(scalar)
        return _make(self.group, [q.numerator * a for a in self.nums],
                     q.denominator * self.den)

    def __mul__(self, other):
        if not isinstance(other, GroupRingElement):
            return self.scale(other)
        self._check(other)
        group = self.group
        rows = getattr(group, "_product_rows", None)  # rows[i] or None
        if rows is None:
            rows = group._product_rows = [None] * group.order
        right = [(j, b) for j, b in enumerate(other.nums) if b]
        out = [0] * group.order
        for i, a in enumerate(self.nums):
            if a:
                row = rows[i]
                if row is None:
                    g, op, index = group.elements[i], group.op, group.index
                    row = rows[i] = [index(op(g, h)) for h in group.elements]
                for j, b in right:
                    out[row[j]] += a * b
        return _make(group, out, self.den * other.den)

    __rmul__ = scale

    def tau(self):
        # the involution g -> g^-1, extended linearly
        return map_elements(self, self.group, self.group.inv)

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return (self.group, self.nums, self.den) == (other.group, other.nums, other.den)

    def __repr__(self):
        label = self.group.label
        return " + ".join("(%s)%s" % (Fraction(a, self.den), label(g)) for g, a
                          in zip(self.group.elements, self.nums) if a) or "0"


def psi_eval(x, chi):
    # the chi-component Sigma_g c_g chi(g): each numerator is added at the
    # exponent of chi(g) in one accumulator, reduced once
    if chi.group != x.group:
        raise ValueError("character of %r on an element of %r"
                         % (chi.group, x.group))
    acc = [0] * chi.root_order
    for k, a in zip(chi.row, x.nums):
        if a:
            acc[k] += a
    return from_exponents(chi.root_order, acc, x.den)


def _table(group):
    # (N, orbits), kept on the group: one (chi, n, phi(n), exps) per Galois
    # orbit {chi^a : a prime to n} of characters, chi its first character, n
    # its order and chi(g_j^-1) = zeta_n^exps[j]; the orbits are read off the
    # coordinate tuples, and only each orbit's first character is built
    kept = getattr(group, "_character_table", None)
    if kept is None:
        if not hasattr(group, "character"):
            raise ValueError("%r has no character table" % (group,))
        chi = group.character(0)  # the trivial character, an orbit alone
        A, N = chi.coords, chi.root_order
        seen, orbits = set(), []
        for i, t in enumerate(A.elements):
            if t not in seen:
                chi = group.character(i) if i else chi
                n = N // gcd(N, *chi.row)
                seen.update(tuple(a * x % d for x, d in zip(t, A.invariants))
                            for a in range(1, n + 1) if gcd(a, n) == 1)
                orbits.append((chi, n, euler_phi(n),
                               [-k % N // (N // n) for k in chi.row]))
        kept = group._character_table = (N, orbits)
    return kept


@lru_cache(maxsize=None)
def _fixing(m, n):
    # generators of the a = 1 mod n in (Z/m)^*, n | m: Gal(Q(zeta_m)/Q(zeta_n))
    return tuple(generating_set(ResidueGroup._trusted(
        m, [a for a in range(1, m, n) if gcd(a, m) == 1])))


def assemble_orbits(group, value):
    # The x with psi_eval(x, chi^a) = sigma_a value(chi) for chi the first
    # character of each Galois orbit, value(chi) = (m, acc, den) the number
    # Sigma_k acc[k] zeta_m^k / den, len(acc) <= m.  Over an orbit of order
    # n the character sum is phi(n)/phi(M) times a trace, Tr zeta_M^j = c_M(j):
    #   |G| phi(M) D x_g = Sigma_chi phi(n) (D/den) Sigma_k acc[k]
    #                      c_M(k M/m + t M/n),  chi(g^-1) = zeta_n^t
    # for M = lcm(N, m, ...), D = lcm(den, ...), if each value is fixed by the
    # a = 1 mod n (so it is if its exponents are multiples of m / gcd(m, n)).
    N, orbits = _table(group)
    values = [value(chi) for chi, _, _, _ in orbits]
    M = lcm(N, *(m for m, _, _ in values))
    D = lcm(*(den for _, _, den in values))
    c = ramanujan_sums(M) * 2  # c_M at [0, 2M), so no index is taken mod M
    out = [0] * group.order
    for (chi, n, weight, exps), (m, acc, den) in zip(orbits, values):
        gens = _fixing(lcm(m, n), n)
        if gens and any(x for k, x in enumerate(acc) if k % (m // gcd(m, n))):
            v = from_exponents(m, acc)
            if any(v.galois(a) != v for a in gens):
                raise ValueError(
                    "character values are not Galois-equivariant: the value "
                    "at character %d is moved by its stabiliser" % chi.index)
        f, s = weight * (D // den), M // m
        sums = [f * sum(map(mul, acc, c[t * M // n::s])) for t in range(n)]
        out = list(map(add, out, map(sums.__getitem__, exps)))
    return _make(group, out, group.order * euler_phi(M) * D)


def lambda_assemble(group, h):
    # Inverse of psi_eval: builds the unique x with psi_eval(x, chi) = h(chi)
    # for every character chi, h a callable on characters.  Raises
    # ValueError unless h(chi^a) = sigma_a h(chi) for a on
    # generators of (Z/M)^*, which is exactly when the character sums are
    # rational, naming the first element, in element order, whose sum is not.
    N, _ = _table(group)
    chars = group.characters()
    values = [h(chi) for chi in chars]
    M = lcm(N, *(v.order for v in values))
    if any(values[(chi ** a).index] != v.galois(a)
           for a in _fixing(M, 1) for chi, v in zip(chars, values)):
        first = next(g for g in group.elements if not sum(
            (v * chi(group.inv(g)) for chi, v in zip(chars, values)),
            CyclotomicNumber.zero()).is_rational())
        raise ValueError(
            "character values are not Galois-equivariant: coefficient at %s "
            "came out irrational" % group.label(first))
    parts = [(v.order, list(v.nums), v.den) for v in values]
    return assemble_orbits(group, lambda chi: parts[chi.index])


def invert_unit(x):
    # inverse in Q[G] via 1/psi at the first character of each Galois orbit;
    # ZeroDivisionError if some component vanishes (x not a unit).  sigma_a
    # keeps zero, so the first vanishing character is the first of its orbit
    parts = {}
    for chi, _, _, _ in _table(x.group)[1]:
        v = psi_eval(x, chi)
        if v.is_zero():
            raise ZeroDivisionError(
                "not a unit: character component %d vanishes" % chi.index)
        v = v.inverse()
        parts[chi.index] = (v.order, list(v.nums), v.den)
    return assemble_orbits(x.group, lambda chi: parts[chi.index])


def _bareiss(N, A):
    # determinant of a square matrix of numerator rows at order N, fraction-
    # free: after step c the entries below and right of the pivot are 2 x 2
    # minors divided exactly by the previous pivot, through its inverse q / d
    n, prev = len(A), None
    for c in range(n - 1):
        piv = next((r for r in range(c, n) if any(A[r][c])), None)
        if piv is None:
            return A[c][c]  # zero, as is column c from row c down
        if piv != c:  # a swap that negates one row keeps the determinant
            A[c], A[piv] = A[piv], [[-s for s in e] for e in A[c]]
        p = A[c][c]
        if prev is not None:
            inv = from_exponents(N, prev).inverse()
            q, d = inv._at(N), inv.den
        for r in range(c + 1, n):
            f = A[r][c]
            row = [_reduce(N, [s - t for s, t in
                               zip(_product(p, a), _product(f, b))])
                   for a, b in zip(A[r][c + 1:], A[c][c + 1:])]
            if prev is not None:
                row = [[s // d for s in _reduce(N, _product(e, q))]
                       for e in row]
            A[r][c + 1:] = row
        prev = p
    return A[n - 1][n - 1]


def det_over_group_ring(M):
    # determinant over Q[G], at the first character of each Galois orbit and
    # reassembled: over one denominator D, Bareiss yields D^n times each value
    n = len(M)
    if not n:
        raise ValueError("empty matrix: a determinant needs at least one row")
    if any(len(row) != n for row in M):
        raise ValueError("non-square matrix")
    group = M[0][0].group
    if any(x.group != group for row in M for x in row):
        raise ValueError("an entry lies outside Q[%r]" % (group,))
    N, orbits = _table(group)
    if n == 1:  # the entry, once the group is known to have characters
        return M[0][0]
    W = getattr(group, "_coordinate_table", None)
    if W is None:  # W[c][t][i] = coordinate t of chi_c(g_i), chi_c a first
        z = [_reduce(N, [0] * k + [1]) for k in range(N)]  # zeta_N^k
        W = group._coordinate_table = {
            chi.index: [[z[k][t] for k in chi.row] for t in range(len(z[0]))]
            for chi, _, _, _ in orbits}
    D = lcm(*(x.den for row in M for x in row))
    S = [[[a * (D // x.den) for a in x.nums] for x in row] for row in M]
    return assemble_orbits(group, lambda chi: (N, _bareiss(N, [
        [[sum(map(mul, s, w)) for w in W[chi.index]] for s in row]
        for row in S]), D ** n))


def generating_set(group):
    # greedy in element order: each element outside the subgroup generated
    # by the ones before it is kept
    gens, sub = [], {group.identity}
    for g in group.elements:
        if g not in sub:
            gens.append(g)
            sub = closure(group, gens)
    return gens


def map_elements(x, target_group, f):
    # push x forward along g -> f(g); a ring homomorphism of group rings
    # whenever f is one of groups
    out = [0] * target_group.order
    for g, a in zip(x.group.elements, x.nums):
        if a:
            out[_slot(target_group, f(g))] += a
    return _make(target_group, out, x.den)


class EmbeddingSignature(NamedTuple):
    r1: int          # real embeddings
    r2: int          # conjugate pairs of complex embeddings
    r: int           # twist, a non-positive integer


def y_rank(sig):
    # rank of the twisted plus-part: r2 when the twist is odd, r1 + r2 when
    # even (r = 0 counts as even)
    if not (sig.r1 >= 0 and sig.r2 >= 0 and sig.r <= 0):
        raise ValueError("need r1, r2 >= 0 and r <= 0, got %r" % (sig,))
    if sig.r % 2 != 0:
        return sig.r2
    return sig.r1 + sig.r2
