# Finite groups presented by Cayley tables: subgroup lattices carrying
# commutator subgroups and abelianizations, conjugacy classes, and the
# class space (the rational vector space on conjugacy classes).
#
# The central map here sends a conjugacy class, for every subgroup H, to
# the sum over cosets xH of the images of x^-1 g x in H^ab (zero when the
# conjugate falls outside H).  Stacking these components over the full
# subgroup lattice gives an injective integer matrix out of the class
# space; ideals over the class space are defined by pulling per-subgroup
# component lattices back through it.  A quotient map of groups induces
# compatible maps on both sides, and the resulting square is checked as an
# exact matrix identity.  The duality certificate checks the map against
# traces of induced representations, read off one monomial table per subgroup.

from fractions import Fraction
from itertools import permutations, product
from math import lcm
from typing import NamedTuple

from .abelian import AbelianCharacter, closure, coordinates, left_cosets
from .cyclotomic import from_exponents
from .groupring import GroupRingElement, generating_set, map_elements
from .intmat import hnf_columns, mat_mul, mat_vec
from .lattice import (canonicalize, contains_vector, map_image,
                      map_preimage)
from .towers import TowerDatum

SUBGROUP_ORDER_BUDGET = 32


class FiniteGroup:
    # Elements are the integers 0..order-1; table[a][b] is the index of the
    # product.  Construction finds the identity, builds the inverse table,
    # and checks associativity on a generating set.

    def __init__(self, table, labels=None):
        table = [tuple(row) for row in table]
        n = len(table)
        if n < 1:
            raise ValueError("table has no rows; the order must be at least 1")
        for i, row in enumerate(table):
            if len(row) != n:
                raise ValueError("row %d has %d entries, expected %d"
                                 % (i, len(row), n))
            for x in row:
                if not 0 <= x < n:
                    raise ValueError("row %d: entry %d is outside 0..%d"
                                     % (i, x, n - 1))
        self.order = n
        self.table = tuple(table)
        self.elements = tuple(range(n))
        if labels is None:
            labels = ["g%d" % i for i in range(n)]
        self.labels = tuple(str(s) for s in labels)
        if len(self.labels) != n:
            raise ValueError("%d labels for %d elements"
                             % (len(self.labels), n))
        for i, lab in enumerate(self.labels):
            if lab in self.labels[:i]:
                raise ValueError("duplicate label %r" % lab)
        ident = [e for e in range(n)
                 if all(table[e][j] == j and table[j][e] == j for j in range(n))]
        if len(ident) != 1:
            raise ValueError("table has no two-sided identity")
        self.identity = ident[0]
        invs = []
        for a in range(n):
            js = [b for b in range(n) if table[a][b] == self.identity]
            if len(js) != 1 or table[js[0]][a] != self.identity:
                raise ValueError("element %d has no two-sided inverse" % a)
            invs.append(js[0])
        self.inverses = tuple(invs)
        # Light's test: the s with (a s) c = a (s c) for all a, c are closed
        # under products, so checking the generators suffices
        for s in generating_set(self):
            for a, row in enumerate(table):
                left = table[row[s]]
                for c, sc in enumerate(table[s]):
                    if left[c] != row[sc]:
                        raise ValueError("table is not associative at "
                                         "(%d, %d, %d)" % (a, s, c))
        self._classes = None
        self._center = None

    def op(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverses[a]

    def index(self, a):
        return a

    def label(self, a):
        return self.labels[a]

    def conjugate(self, w, a):
        # w a w^-1
        return self.table[self.table[w][a]][self.inverses[w]]

    @property
    def conjugacy_classes(self):
        if self._classes is None:
            seen = set()
            classes = []
            for a in self.elements:
                if a in seen:
                    continue
                cls = frozenset(self.conjugate(w, a) for w in self.elements)
                seen |= cls
                classes.append(cls)
            self._classes = tuple(sorted(classes, key=min))
        return self._classes

    @property
    def center(self):
        if self._center is None:
            self._center = tuple(
                z for z in self.elements
                if all(self.table[z][g] == self.table[g][z] for g in self.elements))
        return self._center

    def __repr__(self):
        return "FiniteGroup(order %d)" % self.order


def from_cayley_text(text):
    # First line: the order n.  Next n lines: rows of the table as 0-based
    # indices.  An optional final line gives the n element labels.
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty Cayley table")
    n = _integer(lines[0], "order")
    if n < 1:
        raise ValueError("order %d; the order must be at least 1" % n)
    if len(lines) < n + 1:
        raise ValueError("expected %d table rows, found %d" % (n, len(lines) - 1))
    if len(lines) > n + 2:
        raise ValueError("%d lines after the table rows; only one, the labels, "
                         "may follow them" % (len(lines) - n - 1))
    table = [[_integer(tok, "row %d: entry" % i) for tok in lines[1 + i].split()]
             for i in range(n)]
    labels = lines[n + 1].split() if len(lines) > n + 1 else None
    return FiniteGroup(table, labels)


def _integer(token, what):
    try:
        return int(token)
    except ValueError:
        raise ValueError("%s %r is not an integer" % (what, token)) from None


def to_cayley_text(G):
    rows = [str(G.order)]
    rows += [" ".join(str(x) for x in row) for row in G.table]
    rows.append(" ".join(G.labels))
    return "\n".join(rows) + "\n"


def table_group(elems, mul, labels):
    # the group on a sequence of hashable elements under mul, by position
    pos = {e: i for i, e in enumerate(elems)}
    return FiniteGroup([[pos[mul(a, b)] for b in elems] for a in elems], labels)


def from_group(g):
    # Re-present any group with the elements/op/inv/label protocol as a
    # Cayley table, preserving element order and labels.
    return table_group(g.elements, g.op, map(g.label, g.elements))


# ---------------------------------------------------------------------------
# permutation-built standard groups

def _perm_mul(p, q):
    # apply q first, then p
    return tuple(p[q[i]] for i in range(len(p)))


def _perm_label(p):
    n = len(p)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = p[j]
        parts.append("(" + "".join(str(x) for x in cyc) + ")")
    return "".join(parts) if parts else "e"


def _perm_group(perms):
    return table_group(perms, _perm_mul, map(_perm_label, perms))


def cyclic_group(n):
    return table_group(range(n), lambda i, j: (i + j) % n,
                       ["e"] + ["t%d" % i for i in range(1, n)])


def product_cyclic(n, m):
    pairs = [(i, j) for i in range(n) for j in range(m)]
    add = lambda p, q: ((p[0] + q[0]) % n, (p[1] + q[1]) % m)
    return table_group(pairs, add, ["u%dv%d" % p for p in pairs])


def symmetric3():
    return _perm_group(sorted(permutations(range(3))))


def alternating4():
    # the squares in S4: 3-cycles square to 3-cycles, 4-cycles to the double
    # transpositions, and every other permutation to e
    return _perm_group(sorted({_perm_mul(p, p) for p in permutations(range(4))}))


def dihedral4():
    # symmetries of a square on vertices 1..4: rotations then reflections
    e = (0, 1, 2, 3)
    r = (1, 2, 3, 0)
    s = (0, 3, 2, 1)
    rots = [e, r, _perm_mul(r, r), _perm_mul(r, _perm_mul(r, r))]
    return _perm_group(rots + [_perm_mul(rot, s) for rot in rots])


def quaternion8():
    # units {1, -1, i, -i, j, -j, k, -k} as the 4-tuples +-e_t of
    # a + b i + c j + d k, multiplied by Hamilton's product
    units = [tuple(s * (t == axis) for t in range(4))
             for axis in range(4) for s in (1, -1)]
    names = [sign + nm for nm in "1ijk" for sign in ("", "-")]

    def mul(p, q):
        a, b, c, d = p
        e, f, g, h = q
        return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)

    return table_group(units, mul, names)


BUILTIN_GROUPS = {
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
    "C4": lambda: cyclic_group(4),
    "C6": lambda: cyclic_group(6),
    "C2xC2": lambda: product_cyclic(2, 2),
    "S3": symmetric3,
    "D4": dihedral4,
    "Q8": quaternion8,
    "A4": alternating4,
}


# ---------------------------------------------------------------------------
# subgroups

class SubgroupRecord:
    # A subgroup by its element set, with its commutator subgroup, the
    # abelianization presented as a quotient Cayley table on cosets, and
    # the projection onto it.

    def __init__(self, G, elements):
        self.group = G
        self.elements = tuple(sorted(elements))
        # [H, H] lies in H, as H is a subgroup, and is normal in H, as a
        # conjugate of a commutator is a commutator
        comm = closure(G, {
            G.op(G.op(a, b), G.op(G.inv(a), G.inv(b)))
            for a in self.elements for b in self.elements})
        self.commutator = tuple(sorted(comm))
        # elements ascend, so each representative is its coset's minimum
        reps, self.project = left_cosets(self.elements, G.op, self.commutator)
        self.reps = tuple(reps)
        self.cosets = tuple(frozenset(G.op(r, c) for c in self.commutator)
                            for r in reps)
        self.ab = table_group(
            reps, lambda a, b: reps[self.project[G.op(a, b)]],
            map(G.label, reps))
        self._characters = None

    def induced(self, other, f):
        # the map H^ab -> other^ab induced by a group map f sending this
        # subgroup into `other`, on coset indices: images[u] for coset u
        return tuple(other.project[f(r)] for r in self.reps)

    def push(self, x):
        # Q[H] (supported inside the subgroup) -> Q[H^ab]
        for g, a in zip(x.group.elements, x.nums):
            if a and g not in self.project:
                raise ValueError("element %s lies outside the subgroup"
                                 % self.group.label(g))
        return map_elements(x, self.ab, self.project.__getitem__)

    def characters(self):
        # all characters of the abelianization, on its coset indices
        if self._characters is None:
            A, to_tuple, _ = coordinates(
                list(self.ab.elements), self.ab.op, self.ab.identity)
            positions = [A.index(to_tuple[q]) for q in self.ab.elements]
            self._characters = tuple(
                AbelianCharacter(self.ab, A, t, to_tuple.__getitem__,
                                 positions)
                for t in A.elements)
        return self._characters

    def __repr__(self):
        return "SubgroupRecord(order %d: %s)" % (
            len(self.elements),
            ",".join(self.group.label(h) for h in self.elements))


def check_order_budget(G):
    # subgroup enumeration is refused above SUBGROUP_ORDER_BUDGET
    if G.order > SUBGROUP_ORDER_BUDGET:
        raise ValueError("order budget exceeded: %d > %d"
                         % (G.order, SUBGROUP_ORDER_BUDGET))


def subgroup_lattice(G):
    # every subgroup exactly once, ordered by (order, element labels), by
    # cyclic extension: each subgroup found keeps the generators it was
    # reached by, and <S, g> = <S, g s> for s in S, so one g per left coset
    # gS outside S extends S, as the closure of S's generators and g
    check_order_budget(G)
    subs = {frozenset([G.identity]): ()}
    frontier = list(subs)
    while frontier:
        nxt = []
        for S in frontier:
            gens = subs[S]
            for g in left_cosets(G.elements, G.op, S)[0]:
                if g in S:
                    continue
                T = closure(G, gens + (g,))
                if T not in subs:
                    subs[T] = gens + (g,)
                    nxt.append(T)
        frontier = nxt
    key = lambda S: (len(S), sorted(G.label(h) for h in S))
    return [SubgroupRecord(G, S) for S in sorted(subs, key=key)]


def conjugate_set(G, elements, w):
    return frozenset(G.conjugate(w, h) for h in elements)


def record_index(records, elements):
    eset = tuple(sorted(elements))
    for i, rec in enumerate(records):
        if rec.elements == eset:
            return i
    raise KeyError("no record for subgroup %r" % (eset,))


# ---------------------------------------------------------------------------
# the class space and the component map

class ClassSpace:
    # basis = conjugacy classes, labelled by their smallest element's label

    def __init__(self, G):
        self.group = G
        self.classes = G.conjugacy_classes
        self.labels = tuple(G.label(min(cls)) for cls in self.classes)
        self._class_of = {}
        for i, cls in enumerate(self.classes):
            for g in cls:
                self._class_of[g] = i

    @property
    def dimension(self):
        return len(self.classes)

    def class_of(self, g):
        return self._class_of[g]


class BrauerMap(NamedTuple):
    group: "FiniteGroup"
    records: list
    space: ClassSpace
    matrix: list          # stacked component blocks x class basis, integer
    offsets: tuple        # row offset of each record's block

    @property
    def rank(self):
        return len(hnf_columns(zip(*self.matrix), len(self.matrix)))

    def block(self, k):
        lo = self.offsets[k]
        hi = lo + self.records[k].ab.order
        return [row[:] for row in self.matrix[lo:hi]]

    def component(self, class_index, k):
        # the k-th subgroup's component of the given class, in Q[H^ab]
        rec = self.records[k]
        lo = self.offsets[k]
        return GroupRingElement.from_numerators(
            rec.ab, [self.matrix[lo + q][class_index] for q in rec.ab.elements])

    def long_labels(self):
        out = []
        for k, rec in enumerate(self.records):
            out.extend("H%02d:%s" % (k, lab) for lab in rec.ab.labels)
        return tuple(out)


def bgstar(G):
    # For each class (by its smallest representative) and each subgroup H:
    # sum over cosets xH with x^-1 g x in H of the image of x^-1 g x in
    # H^ab.  The value is independent of the representative g and of the
    # coset representatives x.
    records = subgroup_lattice(G)
    space = ClassSpace(G)
    offsets = []
    total = 0
    for rec in records:
        offsets.append(total)
        total += rec.ab.order
    matrix = [[0] * space.dimension for _ in range(total)]
    reps = [left_cosets(G.elements, G.op, rec.elements)[0] for rec in records]
    for c, cls in enumerate(space.classes):
        g = min(cls)
        for k, rec in enumerate(records):
            lo = offsets[k]
            for x in reps[k]:
                y = G.conjugate(G.inv(x), g)
                if y in rec.project:
                    matrix[lo + rec.project[y]][c] += 1
    return BrauerMap(G, records, space, matrix, tuple(offsets))


# ---------------------------------------------------------------------------
# certification of the component map against induced characters

def _monomial_table(G, rec):
    # each g in G on the cosets xH as a monomial matrix over H^ab: column j
    # has one entry, hs[j], in row i = perm[j], where g x_j = x_i h and h in
    # H projects to hs[j]; a character chi twists it into Ind chi (g)
    reps, coset_of = left_cosets(G.elements, G.op, rec.elements)
    table = []
    for g in G.elements:
        gx = [G.op(g, x) for x in reps]
        perm = [coset_of[y] for y in gx]
        table.append((perm, [rec.project[G.op(G.inv(reps[i]), y)]
                             for i, y in zip(perm, gx)]))
    return table


class DualityReport(NamedTuple):
    passed: bool
    checked: int
    witness: tuple  # (subgroup index, character index, class label) or ()


def duality_certificate(bmap):
    # Certify every component against the trace of the induced twisted
    # permutation representation, computed independently from the Cayley
    # table: each subgroup's monomial table twisted by chi.  M(e) = 1 and
    # M(g)M(x) = M(gx) for g in a generating set and all x extend by
    # induction on word length to all g.  A test's permutation half is the
    # same for every chi; its exponent equations a + b = c on H^ab are kept
    # once, keyed to their first test, up to the first permutation failure:
    # () for M(e) = 1, else the pair (g, x).
    #
    # Per class, the trace of Ind chi (g) is Sigma chi(h) over the cosets g
    # fixes, and the component is Sigma a_q q in Z[H^ab]; they agree iff the
    # one integer accumulator holding 1 at the exponent of each such h, less
    # a_q at the exponent of each q, is the zero number.  On a passing map
    # the h and the q are the same multiset, so every entry is 0 and
    # nothing is reduced.
    G = bmap.group
    gens = generating_set(G)
    checked = 0
    for k, rec in enumerate(bmap.records):
        mats = _monomial_table(G, rec)
        perm, hs = mats[G.identity]
        if perm != list(range(len(perm))):
            return DualityReport(False, checked, (k, 0, "identity"))
        eqs, fail = {(h, h, h): () for h in hs}, None  # chi(h) = 1
        for g, x in product(gens, G.elements):
            (pg, hg), (px, hx), (pgx, hgx) = mats[g], mats[x], mats[G.op(g, x)]
            # column j of M(g)M(x) is chi(hg[i]) chi(hx[j]) in row pg[i]
            for j, i in enumerate(px):
                eqs.setdefault((hg[i], hx[j], hgx[j]), (g, x))
            if [pg[i] for i in px] != pgx:
                fail = (g, x)
                break
        traces = []
        for c, cls in enumerate(bmap.space.classes):
            perm, hs = mats[min(cls)]
            nums = bmap.component(c, k).nums
            traces.append(([h for j, (i, h) in enumerate(zip(perm, hs))
                            if i == j],
                           [(q, a) for q, a in zip(rec.ab.elements, nums)
                            if a]))
        for ci, chi in enumerate(rec.characters()):
            N = chi.root_order
            row = [chi.exponent(q) % N for q in rec.ab.elements]
            bad = next((at for (a, b, c), at in eqs.items()
                        if (row[a] + row[b] - row[c]) % N), fail)
            if bad is not None:
                at = ("hom@%s,%s" % (G.label(bad[0]), G.label(bad[1]))
                      if bad else "identity")
                return DualityReport(False, checked, (k, ci, at))
            for c, (fixed, terms) in enumerate(traces):
                acc = [0] * N
                for h in fixed:
                    acc[row[h]] += 1
                for q, a in terms:
                    acc[row[q]] -= a
                if any(acc) and not from_exponents(N, acc).is_zero():
                    return DualityReport(False, checked,
                                         (k, ci, bmap.space.labels[c]))
                checked += 1
    return DualityReport(True, checked, ())


# ---------------------------------------------------------------------------
# component transport along conjugation, and the preimage ideal

def _map_matrix(images, rows):
    # 0/1 matrix of the basis map u -> images[u]
    return [[int(v == t) for v in images] for t in range(rows)]


def transport_matrix(records, i, j, w):
    # H^ab of record i -> H^ab of record j along h -> w h w^-1
    src, dst = records[i], records[j]
    G = src.group
    if conjugate_set(G, src.elements, w) != frozenset(dst.elements):
        raise ValueError("%s does not conjugate record %d onto record %d"
                         % (G.label(w), i, j))
    return _map_matrix(src.induced(dst, lambda h: G.conjugate(w, h)),
                       dst.ab.order)


def transport_component(records, i, j, w, ideal):
    return map_image(ideal, transport_matrix(records, i, j, w),
                     records[j].ab.labels)


def check_components(bmap, components):
    # every subgroup has a component, over its own abelianization
    for i, rec in enumerate(bmap.records):
        if i not in components:
            raise ValueError("no component datum for subgroup %r" % (rec,))
        if components[i].labels != rec.ab.labels:
            raise ValueError(
                "component %d for %r lives over %r, expected %r"
                % (i, rec, components[i].labels, rec.ab.labels))


def conjugation_consistency(bmap, components):
    # are the components invariant under transporting along every w in G?
    G = bmap.group
    records = bmap.records
    for i in range(len(records)):
        for w in G.elements:
            j = record_index(records, conjugate_set(G, records[i].elements, w))
            moved = transport_component(records, i, j, w, components[i])
            if moved != components[j]:
                return False, (i, j, G.label(w))
    return True, ()


def product_lattice(bmap, components):
    check_components(bmap, components)
    labels = bmap.long_labels()
    n = len(labels)
    d = lcm(*(ideal.denominator for ideal in components.values()))
    vecs = [[0] * lo + [d // components[k].denominator * x for x in col]
            + [0] * (n - lo - len(col))
            for k, lo in enumerate(bmap.offsets)
            for col in components[k].columns]
    return canonicalize(labels, d, vecs)


def nonabelian_J(bmap, components):
    # the sublattice of the class space whose image under the component
    # map lands in every prescribed per-subgroup lattice
    target = product_lattice(bmap, components)
    return map_preimage(target, bmap.matrix, bmap.space.labels)


def component_images(bmap, ideal):
    # synthetic per-subgroup data: the images of one class-space lattice
    # under each component block
    if ideal.labels != bmap.space.labels:
        raise ValueError("ambient mismatch: %r, expected the class space %r"
                         % (ideal.labels, bmap.space.labels))
    return {k: map_image(ideal, bmap.block(k), rec.ab.labels)
            for k, rec in enumerate(bmap.records)}


# ---------------------------------------------------------------------------
# quotient maps

def quotient_group(G, normal_elements):
    # the tower G -> G/N, projecting each element to its coset's index
    nset = frozenset(normal_elements)
    if G.identity not in nset:
        raise ValueError("normal subgroup lacks the identity")
    for h in nset:
        if not all(G.op(G.op(a, h), G.inv(a)) in nset for a in G.elements):
            raise ValueError("subgroup is not normal: a conjugate of %s "
                             "falls outside it" % G.label(h))
    # elements ascend, so each representative is its coset's minimum
    reps, coset_of = left_cosets(G.elements, G.op, nset)
    Q = table_group(reps, lambda a, b: reps[coset_of[G.op(a, b)]],
                    map(G.label, reps))
    return TowerDatum(G, Q, coset_of.__getitem__)


def class_quotient_matrix(tower):
    # Q{G} -> Q{G/N} on class bases
    big, small = ClassSpace(tower.big), ClassSpace(tower.quotient)
    M = [[0] * big.dimension for _ in range(small.dimension)]
    for c, cls in enumerate(big.classes):
        M[small.class_of(tower.project(min(cls)))][c] = 1
    return M


def _full_preimages(tower, bmap_big, bmap_small):
    # for each subgroup J of the quotient: (its index, the index of its full
    # preimage H in the big group, the map H^ab -> J^ab induced by the
    # projection)
    for kq, rec_q in enumerate(bmap_small.records):
        jset = set(rec_q.elements)
        kg = record_index(bmap_big.records, [g for g in tower.big.elements
                                             if tower.project(g) in jset])
        yield kq, kg, bmap_big.records[kg].induced(rec_q, tower.project)


def component_quotient_matrix(tower, bmap_big, bmap_small):
    # the dual of the inflation-assembly map: for each subgroup J of the
    # quotient, take the component at its full preimage H and push it
    # along H^ab -> J^ab; components at subgroups that are not full
    # preimages are dropped
    rows = sum(rec.ab.order for rec in bmap_small.records)
    cols = sum(rec.ab.order for rec in bmap_big.records)
    M = [[0] * cols for _ in range(rows)]
    for kq, kg, images in _full_preimages(tower, bmap_big, bmap_small):
        for u, v in enumerate(images):
            M[bmap_small.offsets[kq] + v][bmap_big.offsets[kg] + u] = 1
    return M


class NaturalityReport(NamedTuple):
    square_commutes: bool
    contained: bool
    witness: tuple

    @property
    def passed(self):
        return self.square_commutes and self.contained


def quotient_naturality(tower, components, bmap_big):
    # 1) the matrix identity: pushing components forward after the big
    #    component map equals the small component map after the class
    #    quotient; 2) the preimage ideal maps into the quotient's, built
    #    from the components pushed to each full preimage's image: the
    #    class quotient is linear and J_small a Z[1/2]-module, so 2) holds
    #    iff the image of each column of J_big is in J_small; the witness
    #    is the first failing column's image.  bmap_big is bgstar(tower.big),
    #    whose records key the components.
    if bmap_big.group is not tower.big:
        raise ValueError("the component map is not of the tower's big group")
    bmap_small = bgstar(tower.quotient)
    clsmat = class_quotient_matrix(tower)
    alphastar = component_quotient_matrix(tower, bmap_big, bmap_small)
    left = mat_mul(alphastar, bmap_big.matrix)
    right = mat_mul(bmap_small.matrix, clsmat)
    if left != right:
        return NaturalityReport(False, False, ("matrix identity",))
    check_components(bmap_big, components)
    components_small = {}
    for kq, kg, images in _full_preimages(tower, bmap_big, bmap_small):
        rec_q = bmap_small.records[kq]
        components_small[kq] = map_image(
            components[kg], _map_matrix(images, rec_q.ab.order),
            rec_q.ab.labels)
    J_big = nonabelian_J(bmap_big, components)
    J_small = nonabelian_J(bmap_small, components_small)
    for col in J_big.columns:
        v = [Fraction(x, J_big.denominator) for x in mat_vec(clsmat, col)]
        if not contains_vector(J_small, v):
            return NaturalityReport(True, False, (tuple(v),))
    return NaturalityReport(True, True, ())
