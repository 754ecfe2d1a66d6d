# The group ring Q[G] of a finite abelian (and, for the plain ring
# operations, arbitrary finite) group, plus the character calculus:
#
#   psi_eval(x, chi)     Sigma c_g chi(g), the chi-component of x
#   lambda_assemble(...) the inverse of psi: given one value per character,
#                        the unique element with those components; raises if
#                        the values are not Galois-equivariant (detected as
#                        non-rational assembled coefficients)
#   det_over_group_ring  determinant via character-wise evaluation, each one
#                        fraction-free (Bareiss)
#
# psi_eval and lambda_assemble read a character through its exponent row
# (chi.row[i] = k with chi(group.elements[i]) = zeta_N^k, built once per
# character and kept with the group's cached characters): each sum is one
# integer accumulator reduced once, never a chain of cyclotomic products,
# and no exponent is recomputed per element.
#
# An element is `nums`, |G| integers indexed by group.index, over one
# denominator den > 0 with gcd(den, nums) = 1.  Sums add numerators, tau
# and map_elements permute them, and a product is an integer convolution:
# each nonzero index i of the left factor reads the row index(op(g_i, h)),
# built when first read and cached on the group, never as an eager table.
# Fractions occur only at the edges: coefficients given to the constructor
# or scale, coefficient(), augmentation() and repr.

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .abelian import closure
from .cyclotomic import CyclotomicNumber, from_exponents, rational_sums


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

    def augmentation(self):
        return Fraction(sum(self.nums), self.den)

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

    def __hash__(self):
        raise TypeError("GroupRingElement is not hashable")

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


def lambda_assemble(group, h):
    # Inverse of psi_eval: builds the unique x with psi_eval(x, chi) = h(chi)
    # for every character chi.  h: callable on characters, or dict keyed by
    # them.  Raises ValueError when the assembled coefficients fail to be
    # rational, which is exactly failure of Galois equivariance of h.
    chars = group.characters()
    values = [h[chi] if isinstance(h, dict) else h(chi) for chi in chars]
    # |G| x_g = Sigma_chi h(chi) chi(g^-1), so column i lists the exponent
    # of every chi at the inverse of elements[i]; kept on the group with chars
    kept = getattr(group, "_inverse_columns", None)
    if kept is None or kept[0] is not chars:
        columns = list(zip(*(chi.row for chi in chars)))
        kept = group._inverse_columns = (chars, [
            columns[group.index(group.inv(g))] for g in group.elements])
    nums, den = rational_sums(chars[0].root_order, values, kept[1])
    if len(nums) < group.order:
        raise ValueError(
            "character values are not Galois-equivariant: coefficient at %s "
            "came out irrational" % group.label(group.elements[len(nums)]))
    return _make(group, nums, den * group.order)


def character_components(x):
    # dict: character -> psi_eval(x, character)
    return {chi: psi_eval(x, chi) for chi in x.group.characters()}


def invert_unit(x):
    # inverse in Q[G] via 1/psi on every character; ZeroDivisionError if some
    # component vanishes (x not a unit)
    comps = character_components(x)
    for chi, v in comps.items():
        if v.is_zero():
            raise ZeroDivisionError(
                "not a unit: character component %d vanishes" % chi.index)
    return lambda_assemble(x.group, {chi: v.inverse() for chi, v in comps.items()})


def _field_det(M):
    # determinant of a square matrix of CyclotomicNumbers, fraction-free
    # (Bareiss): after step c the entries below and right of the pivot are
    # 2 x 2 minors divided exactly by the previous pivot, so the last entry
    # is the determinant and only steps past the first invert a pivot
    n = len(M)
    M = [row[:] for row in M]
    sign, prev = 1, None
    for c in range(n - 1):
        piv = next((r for r in range(c, n) if not M[r][c].is_zero()), None)
        if piv is None:
            return CyclotomicNumber.zero()
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            sign = -sign
        p = M[c][c]
        inv = None if prev is None else prev.inverse()
        for r in range(c + 1, n):
            f = M[r][c]
            row = [p * a - f * b for a, b in zip(M[r][c + 1:], M[c][c + 1:])]
            M[r][c + 1:] = row if inv is None else [a * inv for a in row]
        prev = p
    return M[n - 1][n - 1] if sign > 0 else -M[n - 1][n - 1]


def det_over_group_ring(M):
    # determinant of a square matrix over Q[G], computed one character at a
    # time and reassembled; exact, and multiplicative by construction
    if any(len(row) != len(M) for row in M):
        raise ValueError("non-square matrix")
    return lambda_assemble(M[0][0].group, lambda chi: _field_det(
        [[psi_eval(x, chi) for x in row] for row in M]))


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
