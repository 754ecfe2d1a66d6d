# Finite abelian groups with explicit invariant-factor coordinates.
#
# Group protocol used throughout the package (duck-typed, shared with the
# Cayley-table groups in brauer.py):
#   elements    -- list, fixed enumeration order
#   order       -- len(elements)
#   identity
#   op(a, b), inv(a)
#   index(a)    -- position in `elements`
#   label(a)    -- short stable string, used for serialization
#
# FiniteAbelianGroup stores an ascending divisor chain d_1 | d_2 | ... | d_k
# of invariant factors; elements are exponent tuples enumerated
# lexicographically.  Characters are indexed by the same tuples: the
# character with tuple t sends e to zeta_N^(sum_i t_i e_i N/d_i) where
# N = d_k is the exponent.  Character index = lexicographic position.
#
# AbelianCharacter is the one character type of the package, for every
# finite abelian group: FiniteAbelianGroup itself, the ResidueGroups of
# Dirichlet characters and the abelianizations H^ab of brauer.py.  Each
# character holds its group, the coordinates A of that group and a lookup
# from elements to coordinate tuples (the identity for FiniteAbelianGroup,
# the decomposition map for the others).  Characters report values as
# exponents: chi.exponent(g) is the k with chi(g) = zeta_N^k and
# chi.root_order is N; calling chi builds the CyclotomicNumber.  chi.row
# lists the exponents at group.elements, in order: it is built on first
# read, once per character, from the weights over the coordinates in their
# lexicographic order and one permutation into the group's order, kept on
# the group.  characters() is kept per group, so its rows are reused.  The
# Dirichlet convention lives only in ResidueGroup's lookup: an integer is
# reduced mod m, a non-unit has no coordinates (exponent None, value 0),
# and a unit outside the subgroup raises KeyError.
#
# decompose() turns any concretely-given finite abelian group (elements +
# multiplication) into such coordinates, constructively: pick x of maximal
# order N, split off <x>, recurse on the quotient, and lift quotient
# generators y with y^d = x^s to honest order-d elements y * x^(-s/d).
#
# left_cosets() is the one coset partition of the package: the quotient
# here, the abelianizations and quotient groups of brauer.py and the coset
# representatives of its component map all come from it.

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from .cyclotomic import CyclotomicNumber, euler_phi


@lru_cache(maxsize=None)
def _zeta_cached(n, k):
    return CyclotomicNumber.zeta(n, k)


def _same(e):
    return e


def _element_order(g, mul, identity):
    n = 1
    x = g
    while x != identity:
        x = mul(x, g)
        n += 1
    return n


def _element_orders(elems, mul, identity):
    # element -> order, with one walk per cyclic subgroup: a walk of g's
    # powers g, g^2, ..., g^n = 1 gives g^k the order n / gcd(k, n)
    orders = {}
    for g in elems:
        if g not in orders:
            powers = [g]
            while powers[-1] != identity:
                powers.append(mul(powers[-1], g))
            n = len(powers)
            for k, x in enumerate(powers, 1):
                orders[x] = n // gcd(k, n)
    return orders


def _power(g, e, mul, identity):
    x = identity
    for _ in range(e):
        x = mul(x, g)
    return x


def left_cosets(elems, mul, sub):
    # The left cosets x*sub of a subgroup `sub` among `elems` (a union of
    # them): (reps, coset_of), with cosets numbered in order of first
    # appearance in `elems`, reps[i] the first element of coset i, and
    # coset_of mapping every element to its coset's number.
    reps = []
    coset_of = {}
    for x in elems:
        if x not in coset_of:
            for h in sub:
                coset_of[mul(x, h)] = len(reps)
            reps.append(x)
    return reps, coset_of


def decompose(elems, mul, identity):
    # Returns (invariants, generators): invariants an ascending divisor
    # chain (d_1, ..., d_k), generators a list of elements with
    # order(generators[i]) == d_i and G the direct product of the <g_i>.
    elems = list(elems)
    if len(elems) == 1:
        return (), []
    orders = _element_orders(elems, mul, identity)
    exponent = 1
    for o in orders.values():
        exponent = exponent * o // gcd(exponent, o)
    # build x of order == exponent from prime-power pieces
    x = identity
    n = exponent
    p = 2
    while n > 1:
        if n % p == 0:
            pa = 1
            while n % p == 0:
                n //= p
                pa *= p
            carrier = next(g for g in elems if orders[g] % pa == 0)
            piece = _power(carrier, orders[carrier] // pa, mul, identity)
            x = mul(x, piece)
        p += 1 if p == 2 else 2
    assert _element_order(x, mul, identity) == exponent

    # quotient G / <x>, on coset indices
    xcyc = []
    t = identity
    for _ in range(exponent):
        xcyc.append(t)
        t = mul(t, x)
    reps, coset_of = left_cosets(elems, mul, xcyc)

    def qmul(i, j):
        return coset_of[mul(reps[i], reps[j])]

    qinv, qgens = decompose(range(len(reps)), qmul, coset_of[identity])

    generators = []
    for d, cbar in zip(qinv, qgens):
        y = reps[cbar]
        yd = _power(y, d, mul, identity)
        s = xcyc.index(yd)
        # y^d = x^s forces d | s (raise both sides to exponent/d), so the
        # corrected lift y * x^(-s/d) has honest order d in its coset
        assert s % d == 0
        y2 = mul(y, _power(x, (-(s // d)) % exponent, mul, identity))
        assert _element_order(y2, mul, identity) == d
        generators.append(y2)
    generators.append(x)
    invariants = tuple(qinv) + (exponent,)
    for a, b in zip(invariants, invariants[1:]):
        assert b % a == 0
    return invariants, generators


def coordinates(elems, mul, identity):
    # Full coordinate map: (FiniteAbelianGroup A, to_tuple, from_tuple)
    # where to_tuple[g] is the exponent tuple of g w.r.t. the decomposition
    # generators and from_tuple its inverse.
    invariants, gens = decompose(elems, mul, identity)
    A = FiniteAbelianGroup(invariants)
    # extend by one generator at a time, in the order of A.elements: the
    # powers of each g_i, then one product per element of each prefix
    table = [((), identity)]
    for gi, d in zip(gens, invariants):
        powers = [identity]
        for _ in range(d - 1):
            powers.append(mul(powers[-1], gi))
        table = [(e + (k,), mul(g, p))
                 for e, g in table for k, p in enumerate(powers)]
    from_tuple = dict(table)
    assert len(set(from_tuple.values())) == len(elems)
    to_tuple = {g: e for e, g in from_tuple.items()}
    return A, to_tuple, from_tuple


class FiniteAbelianGroup:
    # Z/d_1 x ... x Z/d_k, invariants an ascending divisor chain (each > 1;
    # empty tuple means the trivial group).

    def __init__(self, invariants):
        invariants = tuple(int(d) for d in invariants)
        if not all(d > 1 for d in invariants):
            raise ValueError("invariants %r must all exceed 1"
                             % (invariants,))
        for a, b in zip(invariants, invariants[1:]):
            if b % a:
                raise ValueError("invariants %r are not a divisor chain"
                                 % (invariants,))
        self.invariants = invariants
        self.exponent = invariants[-1] if invariants else 1
        self.elements = list(product(*[range(d) for d in invariants]))
        self.order = len(self.elements)
        self.identity = tuple(0 for _ in invariants)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._characters = None

    def op(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.invariants))

    def inv(self, a):
        return tuple((-x) % d for x, d in zip(a, self.invariants))

    def index(self, a):
        return self._index[a]

    def label(self, a):
        return "a" + "_".join(str(x) for x in a) if a else "e"

    def characters(self):
        if self._characters is None:
            self._characters = tuple(AbelianCharacter(self, self, t, _same)
                                     for t in self.elements)
        return self._characters

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.invariants == other.invariants

    def __hash__(self):
        return hash(self.invariants)

    def __repr__(self):
        return "FiniteAbelianGroup%r" % (self.invariants,)


def _positions(chi):
    # coords.index(lookup(g)) for g in group.elements: one list per group,
    # kept on it with the coordinates it was read in
    group, coords = chi.group, chi.coords
    kept = getattr(group, "_positions", None)
    if kept is None or kept[0] is not coords:
        kept = group._positions = (coords, [
            coords.index(chi._lookup(g)) for g in group.elements])
    return kept[1]


class AbelianCharacter:
    # The character with tuple t of a group whose elements have coordinates
    # in A = Z/d_1 x ... x Z/d_k (`coords`): for x = lookup(g),
    #   chi(g) = zeta_N ^ (sum_i t_i x_i N / d_i),  N = d_k = root_order,
    # and chi(g) = 0 where lookup(g) is None.

    __slots__ = ("group", "coords", "tuple", "root_order", "_lookup",
                 "_weights", "_row")

    def __init__(self, group, coords, t, lookup):
        self.group = group
        self.coords = coords
        self.tuple = tuple(t)
        self.root_order = N = coords.exponent
        self._lookup = lookup
        self._weights = tuple(ti * (N // d)
                              for ti, d in zip(self.tuple, coords.invariants))
        self._row = None

    @property
    def row(self):
        # [exponent(g) for g in group.elements], built on first read
        if self._row is None:
            exps = [0]  # at coords.elements, which are lexicographic
            for w, d in zip(self._weights, self.coords.invariants):
                exps = [e + w * x for e in exps for x in range(d)]
            N = self.root_order
            self._row = [exps[i] % N for i in _positions(self)]
        return self._row

    @property
    def index(self):
        return self.coords.index(self.tuple)

    @property
    def modulus(self):
        return self.group.modulus

    def exponent(self, g):
        # k in [0, N) with chi(g) = zeta_N^k; None where chi(g) = 0
        x = self._lookup(g)
        if x is None:
            return None
        return sum(w * xi for w, xi in zip(self._weights, x)) % self.root_order

    def __call__(self, g):
        k = self.exponent(g)
        if k is None:
            return CyclotomicNumber.zero()
        return _zeta_cached(self.root_order, k)

    def _with(self, t):
        return AbelianCharacter(self.group, self.coords, t, self._lookup)

    def is_trivial(self):
        return all(t == 0 for t in self.tuple)

    def __mul__(self, other):
        assert self.group == other.group
        return self._with(self.coords.op(self.tuple, other.tuple))

    def inverse(self):
        return self._with(self.coords.inv(self.tuple))

    conjugate = inverse

    def __pow__(self, e):
        return self._with(tuple((x * e) % d for x, d in
                                zip(self.tuple, self.coords.invariants)))

    def order(self):
        n = 1
        c = self
        while not c.is_trivial():
            c = c * self
            n += 1
        return n

    def is_odd(self):
        # value at -1 is -1 (only meaningful when -1 lies in the group)
        return self(-1) == CyclotomicNumber.from_rational(-1)

    def is_even(self):
        return self(-1) == CyclotomicNumber.one()

    def __eq__(self, other):
        return (isinstance(other, AbelianCharacter)
                and self.group == other.group and self.tuple == other.tuple)

    def __hash__(self):
        return hash((self.group, self.tuple))

    def __repr__(self):
        return "AbelianCharacter(%r, %r)" % (self.group, self.tuple)


class ResidueGroup:
    # A subgroup of (Z/m)^* given by an explicit residue list.  Elements are
    # ints in [0, m), enumerated in increasing residue order; labels "s<a>".

    def __init__(self, modulus, residues):
        self.modulus = modulus
        if modulus < 1:
            raise ValueError("modulus %d is not positive" % modulus)
        self.elements = sorted(int(a) % modulus for a in residues)
        self.order = len(self.elements)
        self.identity = 1 % modulus
        self._index = {a: i for i, a in enumerate(self.elements)}
        if len(self._index) < self.order:
            raise ValueError("repeated residue mod %d" % modulus)
        if self.identity not in self._index:
            raise ValueError("residues mod %d miss 1" % modulus)
        for a in self.elements:
            if gcd(a, modulus) != 1 and modulus != 1:
                raise ValueError("%d is not a unit mod %d" % (a, modulus))
        self._coords = None
        self._characters = None

    def op(self, a, b):
        return (a * b) % self.modulus

    def inv(self, a):
        return pow(a, -1, self.modulus) if self.modulus > 1 else 0

    def index(self, a):
        return self._index[a]

    def label(self, a):
        return "s%d" % a

    def __contains__(self, a):
        return (a % self.modulus) in self._index

    # --- abelian coordinates and characters ---

    def abelian_coordinates(self):
        if self._coords is None:
            self._coords = coordinates(self.elements, self.op, self.identity)
        return self._coords

    def characters(self):
        if self._characters is None:
            self._characters = tuple(self.character(i)
                                     for i in range(self.order))
        return self._characters

    def character(self, index):
        # the character with tuple A.elements[index], built alone
        A, to_tuple, _ = self.abelian_coordinates()
        m = self.modulus

        def lookup(a):
            # the Dirichlet convention (see the header)
            a %= m
            x = to_tuple.get(a)
            if x is None and gcd(a, m) == 1:
                raise KeyError("residue %d outside subgroup of (Z/%d)^*"
                               % (a, m))
            return x

        return AbelianCharacter(self, A, A.elements[index], lookup)

    def __eq__(self, other):
        return (isinstance(other, ResidueGroup)
                and self.modulus == other.modulus
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.modulus, tuple(self.elements)))

    def __repr__(self):
        return "ResidueGroup(%d, order %d)" % (self.modulus, self.order)


@lru_cache(maxsize=None)
def unit_group(m):
    # m < 1 is refused by ResidueGroup
    return ResidueGroup(m, [a for a in range(m) if gcd(a, m) == 1])


def subgroup_of_units(m, gens):
    # subgroup of (Z/m)^* generated by the given residues
    seen = {1 % m}
    frontier = [1 % m]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = (a * g) % m
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return ResidueGroup(m, sorted(seen))


def squares_subgroup(m):
    g = unit_group(m)
    return ResidueGroup(m, sorted({(a * a) % m for a in g.elements}))
