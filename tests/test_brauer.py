# Cayley-table groups, subgroup lattices, the per-subgroup component map
# out of the class space, its certification against induced characters,
# and naturality under quotient maps.

import re
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from galideal import brauer
from galideal.abelian import closure, left_cosets
from galideal.brauer import (BUILTIN_GROUPS, ClassSpace,
                             FiniteGroup, alternating4, bgstar,
                             check_components, component_images,
                             conjugation_consistency, cyclic_group,
                             dihedral4, duality_certificate,
                             from_cayley_text, from_group, nonabelian_J,
                             product_cyclic, quaternion8, quotient_group,
                             class_quotient_matrix, quotient_naturality,
                             record_index, subgroup_lattice, symmetric3,
                             to_cayley_text, transport_matrix)
from galideal.cycloideal import CyclotomicLevel, ideal_J_full
from galideal.cyclotomic import CyclotomicNumber
from galideal.groupring import GroupRingElement
from galideal.intmat import mat_mul
from galideal.lattice import (canonicalize, compare, contains_vector,
                              group_labels, map_image, unit_ideal,
                              zero_ideal)
from test_abelian import assert_decomposition
from test_towers import corestriction_matrix, quotient_matrix

from conftest import run_python

F = Fraction


def unit_components(bmap):
    return {k: unit_ideal(rec.ab) for k, rec in enumerate(bmap.records)}


def _golden_group(name):
    path = Path(__file__).parent / "golden" / name
    return lambda: from_cayley_text(path.read_text(encoding="utf-8"))


def test_builtin_groups_are_groups():
    # the constructor itself verifies identity/inverses/associativity
    abelian = {"C2", "C3", "C4", "C6", "C2xC2"}
    for name, make in BUILTIN_GROUPS.items():
        G = make()
        assert (len(G.center) == G.order) == (name in abelian)
        assert G.op(G.identity, 1 % G.order) == 1 % G.order


def test_rejects_non_group_tables():
    with pytest.raises(ValueError, match="no rows"):
        FiniteGroup([])
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup([[1, 1], [1, 1]])
    # a loop with identity and two-sided inverses but no associativity
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup([[0, 1, 2, 3, 4], [1, 2, 3, 4, 0], [2, 3, 4, 0, 1],
                     [3, 4, 0, 2, 1], [4, 0, 1, 2, 3]])
    # C34 with the products 1*2 and 1*3 swapped: the identity and the
    # inverses survive, and the order is above SUBGROUP_ORDER_BUDGET
    c34 = [[(a + b) % 34 for b in range(34)] for a in range(34)]
    c34[1][2], c34[1][3] = c34[1][3], c34[1][2]
    with pytest.raises(ValueError, match=r"not associative at \(1, 1, 1\)"):
        FiniteGroup(c34)


def test_cayley_text_round_trip():
    G = symmetric3()
    text = to_cayley_text(G)
    H = from_cayley_text(text)
    assert H.table == G.table and H.labels == G.labels
    with pytest.raises(ValueError, match="empty"):
        from_cayley_text("   \n ")
    with pytest.raises(ValueError, match="table rows"):
        from_cayley_text("3\n0 1 2\n1 2 0\n")


def test_from_group_preserves_order_and_labels():
    lev = CyclotomicLevel(7, 0)
    G = from_group(lev.group)
    assert G.order == 6
    assert G.labels == tuple(lev.group.label(a) for a in lev.group.elements)
    assert len(G.center) == G.order            # (Z/7)^* is abelian
    i3 = lev.group.elements.index(3)
    i2 = lev.group.elements.index(2)
    assert G.op(i3, i3) == i2  # 3*3 = 2 mod 7


def test_s3_structure():
    G = symmetric3()
    assert G.labels == ("e", "(23)", "(12)", "(123)", "(132)", "(13)")
    assert [sorted(c) for c in G.conjugacy_classes] == [[0], [1, 2, 5], [3, 4]]
    assert G.center == (0,)


def test_quaternion_relations():
    Q = quaternion8()
    assert Q.labels == ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    at = {lab: g for g, lab in zip(Q.elements, Q.labels)}

    def mul(*labels):
        x = at["1"]
        for lab in labels:
            x = Q.op(x, at[lab])
        return Q.labels[x]

    assert (mul("i", "i") == mul("j", "j") == mul("k", "k")
            == mul("i", "j", "k") == "-1")
    assert mul("i", "j") == "k" and mul("j", "i") == "-k"
    assert mul("-1", "-1") == "1" and Q.identity == at["1"]


def _permutation_group(perms):
    perms = sorted(perms)
    pos = {p: i for i, p in enumerate(perms)}
    return FiniteGroup([[pos[tuple(a[i] for i in b)] for b in perms]
                        for a in perms], ["".join(map(str, p)) for p in perms])


def _even(p):
    return sum(p[i] > p[j] for i in range(len(p))
               for j in range(i + 1, len(p))) % 2 == 0


def test_subgroup_lattice_counts(monkeypatch):
    for make, orders in [
        (symmetric3, [1, 2, 2, 2, 3, 6]),
        (quaternion8, [1, 2, 4, 4, 4, 8]),
        (lambda: cyclic_group(4), [1, 2, 4]),
        (dihedral4, [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]),
        (alternating4, [1, 2, 2, 2, 3, 3, 3, 3, 4, 12]),
    ]:
        assert [len(r.elements) for r in subgroup_lattice(make())] == orders
    for name, count in [("s4.txt", 30), ("d6.txt", 16)]:
        text = (Path(__file__).parent / "golden" / name).read_text(
            encoding="utf-8")
        assert len(subgroup_lattice(from_cayley_text(text))) == count, name
    # S4, A5 and S5 as permutations; A5 and S5 lie above the order budget,
    # raised here only
    monkeypatch.setattr(brauer, "SUBGROUP_ORDER_BUDGET", 120)
    for perms, count in [
            (permutations(range(4)), 30),
            (filter(_even, permutations(range(5))), 59),
            (permutations(range(5)), 156)]:
        assert len(subgroup_lattice(_permutation_group(perms))) == count


def test_subgroup_lattice_budget():
    with pytest.raises(ValueError, match="budget"):
        subgroup_lattice(cyclic_group(33))


def _reference_lattice(G):
    # the enumeration before cyclic extension: S closed with each g outside
    # it, S's elements all taken as generators; element tuples in the
    # records' order
    subs = {frozenset([G.identity])}
    frontier = list(subs)
    while frontier:
        nxt = []
        for S in frontier:
            for g in G.elements:
                if g not in S:
                    T = closure(G, S | {g})
                    if T not in subs:
                        subs.add(T)
                        nxt.append(T)
        frontier = nxt
    key = lambda S: (len(S), sorted(G.label(h) for h in S))
    return [tuple(sorted(S)) for S in sorted(subs, key=key)]


def _relabelled(G):
    # G with its element indices reversed, so the identity is the last
    # element and every coset's first element changes
    n = G.order
    table = [[n - 1 - G.op(n - 1 - a, n - 1 - b) for b in range(n)]
             for a in range(n)]
    return FiniteGroup(table, [G.label(n - 1 - a) for a in range(n)])


@pytest.mark.parametrize("make", [
    *BUILTIN_GROUPS.values(), _golden_group("s4.txt"),
    lambda: _relabelled(_golden_group("d6.txt")())],
    ids=[*BUILTIN_GROUPS, "S4", "D6-relabelled"])
def test_subgroup_lattice_matches_the_reference_enumeration(make):
    G = make()
    assert ([rec.elements for rec in subgroup_lattice(G)]
            == _reference_lattice(G))


@pytest.mark.parametrize("make, calls", [
    (alternating4, 40), (_golden_group("s4.txt"), 204)], ids=["A4", "S4"])
def test_subgroup_lattice_closes_once_per_coset(monkeypatch, make, calls):
    # one closure per (subgroup, left coset outside it), Sigma ([G:S] - 1);
    # the enumeration that closed S with every g outside it made 85 and 577
    G = make()
    made = []
    real = brauer.closure

    def counted(group, gens):
        made.append(gens)
        return real(group, gens)

    monkeypatch.setattr(brauer, "closure", counted)
    records = subgroup_lattice(G)
    # each record also closes its commutators once
    assert len(made) - len(records) == calls
    assert calls == sum(G.order // len(rec.elements) - 1 for rec in records)


def test_commutators_and_abelianizations():
    s3 = subgroup_lattice(symmetric3())[-1]
    assert s3.commutator == (0, 3, 4)          # the 3-cycles
    assert s3.ab.order == 2 and s3.ab.labels == ("e", "(23)")
    q8 = subgroup_lattice(quaternion8())[-1]
    assert q8.commutator == (0, 1)             # {1, -1}
    assert q8.ab.order == 4 and len(q8.ab.center) == 4
    a4 = subgroup_lattice(alternating4())[-1]
    assert len(a4.commutator) == 4             # the Klein subgroup
    assert a4.ab.order == 3


def test_class_space_s3():
    space = ClassSpace(symmetric3())
    assert space.labels == ("e", "(23)", "(123)")
    assert space.class_of(5) == 1              # (13) is conjugate to (23)


def test_bgstar_s3_frozen():
    bmap = bgstar(symmetric3())
    assert bmap.space.dimension == 3
    assert bmap.rank == 3  # injective
    # the order-3 subgroup sees the 3-cycle class as gamma + gamma^2
    k = 4
    rec = bmap.records[k]
    assert len(rec.elements) == 3
    comp = bmap.component(2, k)
    assert comp == GroupRingElement(rec.ab, {1: F(1), 2: F(1)})
    # the trivial subgroup sees the identity class with multiplicity |G|
    assert bmap.component(0, 0) == GroupRingElement(
        bmap.records[0].ab, {0: F(6)})
    # full-group block: identity class and 3-cycles collapse to the
    # trivial coset, transpositions to the sign coset
    assert bmap.block(5) == [[1, 0, 1], [0, 1, 0]]


def test_bgstar_injective_on_test_groups():
    for make in (symmetric3, dihedral4, quaternion8, alternating4):
        bmap = bgstar(make())
        assert bmap.rank == bmap.space.dimension


def test_abelian_blocks_factor_through_corestriction():
    # over an abelian group the H-block is exactly the corestriction
    # matrix Q[G] -> Q[H] (indices [G:H] on H, zero off it)
    for G in (cyclic_group(2), cyclic_group(4), cyclic_group(6),
              product_cyclic(2, 2)):
        bmap = bgstar(G)
        for k, rec in enumerate(bmap.records):
            embed = lambda q: min(rec.cosets[q])
            assert bmap.block(k) == corestriction_matrix(rec.ab, G, embed)
    bmap = bgstar(cyclic_group(2))
    assert bmap.block(0) == [[2, 0]]
    assert bmap.block(1) == [[1, 0], [0, 1]]


def test_duality_certificates_frozen(monkeypatch):
    # on a map that passes, each trace and its component hold the same
    # multiset of H^ab elements, so every accumulator is zero entrywise and
    # no cyclotomic number is reduced
    reduced = []
    real = brauer.from_exponents

    def counted(n, acc, den=1):
        reduced.append(n)
        return real(n, acc, den)

    monkeypatch.setattr(brauer, "from_exponents", counted)
    for make, n_checks in [(symmetric3, 36), (dihedral4, 135),
                           (quaternion8, 95), (alternating4, 104)]:
        report = duality_certificate(bgstar(make()))
        assert report.passed and report.witness == ()
        assert report.checked == n_checks
    assert reduced == []


def test_duality_negative_control():
    bmap = bgstar(symmetric3())
    bad = [row[:] for row in bmap.matrix]
    bad[0][0] += 1
    report = duality_certificate(bmap._replace(matrix=bad))
    assert not report.passed
    assert report.witness == (0, 0, "e")


class _OffByOne:
    # a character of H^ab whose exponent at one element q is one too large
    def __init__(self, chi, q):
        self.chi, self.q = chi, q
        self.root_order = chi.root_order

    def exponent(self, q):
        return self.chi.exponent(q) + (q == self.q)

    def __call__(self, q):
        return CyclotomicNumber.zeta(self.root_order, self.exponent(q))


@pytest.mark.parametrize("ci", [0, 1, 2])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_duality_detects_corrupted_character(monkeypatch, q, ci):
    # record 4 of S3 is A3, with H^ab = C3: shifting one exponent breaks
    # M(e) = 1 (at the identity q = 0) or multiplicativity.  On C2 the same
    # shift would turn the trivial character into the sign character, which
    # is still a homomorphism.
    bmap = bgstar(symmetric3())
    rec = bmap.records[4]
    assert rec.ab.order == 3 and rec.ab.identity == 0
    chars = list(rec.characters())
    chars[ci] = _OffByOne(chars[ci], q)
    monkeypatch.setattr(rec, "characters", lambda: tuple(chars))
    report = duality_certificate(bmap)
    assert not report.passed and report.witness[:2] == (4, ci)
    if q == 0:
        assert report.witness[2] == "identity"
    else:
        assert report.witness[2].startswith("hom@")
    if (q, ci) == (2, 1):
        assert report.witness[2] == "hom@(12),(12)"


@pytest.mark.parametrize("make", [symmetric3, quaternion8, alternating4])
def test_duality_detects_corrupted_permutation(monkeypatch, make):
    # swap two entries of the coset permutation of one non-identity element
    # g on the trivial subgroup's cosets; M(s)M(g) = M(sg) then fails for
    # the first generator s
    G = make()
    bmap = bgstar(G)
    g = next(g for g in G.elements if g != G.identity)
    table = brauer._monomial_table

    def corrupted(G, rec):
        mats = table(G, rec)
        if rec is bmap.records[0]:
            perm = mats[g][0]
            perm[0], perm[1] = perm[1], perm[0]
        return mats

    monkeypatch.setattr(brauer, "_monomial_table", corrupted)
    report = duality_certificate(bmap)
    assert not report.passed and report.witness[:2] == (0, 0)
    assert report.witness[2].startswith("hom@")


def _induced(G, rec, chi, g, cosets):
    # the reference, built per character: g on the cosets xH twisted by chi,
    # as a monomial matrix: column j has one entry, zeta_N^exps[j], in row
    # i = perm[j], where g x_j = x_i h with h in H and chi(h) = zeta_N^exps[j]
    reps, coset_of = cosets
    perm = [coset_of[G.op(g, x)] for x in reps]
    exps = [chi.exponent(rec.project[G.op(G.inv(reps[i]), G.op(g, x))])
            for i, x in zip(perm, reps)]
    return perm, exps


@pytest.mark.parametrize("make", [
    *BUILTIN_GROUPS.values(), _golden_group("d6.txt"),
    _golden_group("s4.txt")],
    ids=[*BUILTIN_GROUPS, "D6", "S4"])
def test_each_record_has_a_normal_commutator_and_a_decomposed_quotient(make):
    # [H, H] lies in H and is normal in it, and H^ab decomposes into a
    # divisor chain with coordinates
    G = make()
    for rec in subgroup_lattice(G):
        comm = set(rec.commutator)
        assert comm <= set(rec.elements)
        assert all(G.conjugate(h, c) in comm
                   for h in rec.elements for c in comm)
        assert_decomposition(rec.ab.elements, rec.ab.op, rec.ab.identity)


@pytest.mark.parametrize("make", [
    symmetric3, dihedral4, quaternion8, alternating4,
    _golden_group("d6.txt"), _golden_group("s4.txt")],
    ids=["S3", "D4", "Q8", "A4", "D6", "S4"])
def test_monomial_table_twisted_by_each_character_is_induced(make):
    G = make()
    for rec in subgroup_lattice(G):
        cosets = left_cosets(G.elements, G.op, rec.elements)
        mats = brauer._monomial_table(G, rec)
        assert len(mats) == G.order
        for chi in rec.characters():
            for g in G.elements:
                perm, hs = mats[g]
                twisted = (perm, [chi.exponent(h) for h in hs])
                assert twisted == _induced(G, rec, chi, g, cosets)


@pytest.mark.parametrize("make", [symmetric3, alternating4],
                         ids=["S3", "A4"])
def test_subgroup_characters_set_nothing_on_the_abelianization(make):
    # the positions a row reads come with the record's characters, one list
    # per record, and are kept on no FiniteGroup
    for rec in subgroup_lattice(make()):
        chars = rec.characters()
        for chi in chars:
            assert chi.row == [chi.exponent(q) for q in rec.ab.elements]
        assert len({id(chi._positions) for chi in chars}) == 1
        assert not hasattr(rec.ab, "_positions")


def test_monomial_table_is_built_once_per_subgroup(monkeypatch):
    # one table per subgroup, one entry per element, however many
    # characters the subgroup's abelianization has (A4 has up to 4)
    bmap = bgstar(alternating4())
    built = []
    table = brauer._monomial_table

    def counted(G, rec):
        mats = table(G, rec)
        built.extend((rec, g) for g in range(len(mats)))
        return mats

    monkeypatch.setattr(brauer, "_monomial_table", counted)
    assert duality_certificate(bmap).checked == 104
    assert max(len(rec.characters()) for rec in bmap.records) == 4
    assert len(built) == len(set(built)) == len(bmap.records) * 12


def test_transport_depends_on_conjugator():
    # the normalizer of the order-3 subgroup acts nontrivially on it:
    # conjugating by a transposition swaps the two 3-cycles
    G = symmetric3()
    records = subgroup_lattice(G)
    assert transport_matrix(records, 4, 4, 0) == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert transport_matrix(records, 4, 4, 1) == [
        [1, 0, 0], [0, 0, 1], [0, 1, 0]]


def test_transport_rejects_a_non_conjugator():
    # python -O strips asserts; a w that does not conjugate record i onto
    # record j must still raise ValueError.  The trivial subgroup sent into
    # A3 (records 0 and 4 of S3) would otherwise give a matrix silently.
    with pytest.raises(ValueError, match="does not conjugate record 0 onto"):
        transport_matrix(subgroup_lattice(symmetric3()), 0, 4, 0)
    script = """
from galideal.brauer import subgroup_lattice, symmetric3, transport_matrix
records = subgroup_lattice(symmetric3())
for i, j, w in [(0, 4, 0), (1, 2, 0), (4, 5, 1)]:
    try:
        transport_matrix(records, i, j, w)
        print(i, j, w)
    except ValueError:
        pass
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_conjugation_consistency():
    bmap = bgstar(symmetric3())
    comps = unit_components(bmap)
    assert conjugation_consistency(bmap, comps) == (True, ())
    # a component not fixed by the normalizer action is flagged
    comps[4] = canonicalize(bmap.records[4].ab.labels, 1, [[1, 1, 0]])
    ok, witness = conjugation_consistency(bmap, comps)
    assert not ok and witness == (4, 4, "(23)")


def test_check_components_requires_every_subgroup():
    # one component per conjugacy orbit is not enough: records 2 and 3 of
    # S3 are conjugates of record 1, and each needs its own component
    bmap = bgstar(symmetric3())
    check_components(bmap, unit_components(bmap))
    for missing in ([1, 2, 3, 4], [2, 3]):
        partial = {k: c for k, c in unit_components(bmap).items()
                   if k not in missing}
        with pytest.raises(ValueError, match=re.escape(
                "no component datum for subgroup %r"
                % bmap.records[missing[0]])):
            check_components(bmap, partial)


def test_components_over_the_wrong_ambient_are_rejected():
    # python -O strips asserts; a given component over another ambient must
    # still raise ValueError, naming the record and both label tuples.  It
    # would otherwise be read in the wrong coordinates: nonabelian_J gave a
    # rank-3 lattice from a 3-label component for record 1 of S3.
    bmap = bgstar(symmetric3())
    comps = unit_components(bmap)
    comps[1] = unit_ideal(cyclic_group(3))
    with pytest.raises(ValueError, match=re.escape(
            "component 1 for SubgroupRecord(order 2: e,(12)) lives over "
            "('e', 't1', 't2'), expected ('e', '(12)')")):
        check_components(bmap, comps)
    script = """
from galideal.brauer import bgstar, cyclic_group, nonabelian_J, symmetric3
from galideal.lattice import unit_ideal
bmap = bgstar(symmetric3())
for k in (1, 5):
    comps = {i: unit_ideal(rec.ab) for i, rec in enumerate(bmap.records)}
    comps[k] = unit_ideal(cyclic_group(3 if k == 1 else 2))
    try:
        print(nonabelian_J(bmap, comps))
    except ValueError:
        pass
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_nonabelian_J_with_unit_components():
    bmap = bgstar(symmetric3())
    J = nonabelian_J(bmap, unit_components(bmap))
    assert J == canonicalize(bmap.space.labels, 1,
                             [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert contains_vector(J, [1, 0, 0])


def test_zeroed_component_cuts_the_preimage():
    bmap = bgstar(symmetric3())
    comps = unit_components(bmap)
    J_full = nonabelian_J(bmap, comps)
    comps[3] = zero_ideal(bmap.records[3].ab.labels)
    J_cut = nonabelian_J(bmap, comps)
    assert compare(J_cut, J_full) == "subset"
    assert J_cut == canonicalize(bmap.space.labels, 1, [[0, 0, 1]])


def test_component_images_round_trip_abelian():
    # over an abelian group the component map has a one-sided inverse, so
    # pulling the per-subgroup images back recovers the ideal exactly
    for ell in (3, 5):
        lev = CyclotomicLevel(ell, 0)
        G = from_group(lev.group)
        bmap = bgstar(G)
        J = ideal_J_full(lev)
        assert J.labels == bmap.space.labels
        comps = component_images(bmap, J)
        assert conjugation_consistency(bmap, comps)[0]
        assert nonabelian_J(bmap, comps) == J


def test_component_images_round_trip_s3():
    # over S3 the full-group block is no longer invertible, so pulling
    # the images back can genuinely enlarge the lattice; the containment
    # direction always holds
    bmap = bgstar(symmetric3())
    J = canonicalize(bmap.space.labels, 1, [[1, 1, 0], [0, 3, 1]])
    comps = component_images(bmap, J)
    pre = nonabelian_J(bmap, comps)
    assert compare(J, pre) == "subset"
    assert pre == canonicalize(bmap.space.labels, 1,
                               [[1, 1, 0], [0, 3, 0], [0, 0, 1]])


def test_quotient_group_s3_mod_a3():
    G = symmetric3()
    tower = quotient_group(G, [0, 3, 4])
    assert tower.big is G and tower.validate() is tower
    Q = tower.quotient
    assert Q.order == 2 and Q.labels == ("e", "(23)")
    assert [tower.project(g) for g in G.elements] == [0, 1, 1, 0, 0, 1]
    assert sorted(tower.kernel) == [0, 3, 4]
    with pytest.raises(ValueError, match="normal"):
        quotient_group(G, [0, 1])


def test_class_quotient_matrix_s3():
    G = symmetric3()
    M = class_quotient_matrix(quotient_group(G, [0, 3, 4]))
    assert M == [[1, 0, 1], [0, 1, 0]]


def test_quotient_naturality_s3_a3():
    G = symmetric3()
    bmap = bgstar(G)
    rep = quotient_naturality(quotient_group(G, [0, 3, 4]),
                              unit_components(bmap), bmap)
    assert rep.square_commutes and rep.contained and rep.passed


def test_quotient_naturality_d4_center():
    G = dihedral4()
    assert len(G.center) == 2
    bmap = bgstar(G)
    rep = quotient_naturality(quotient_group(G, G.center),
                              unit_components(bmap), bmap)
    assert rep.passed


def test_quotient_naturality_c4():
    G = cyclic_group(4)
    bmap = bgstar(G)
    rep = quotient_naturality(quotient_group(G, [0, 2]),
                              unit_components(bmap), bmap)
    assert rep.passed


def test_quotient_naturality_abelian_tower():
    # (Z/5)^x mod {1,4}, components carved out of the full cyclotomic
    # ideal; the containment route through conjugacy classes agrees with
    # the group-ring quotient route column by column
    lev = CyclotomicLevel(5, 0)
    G = from_group(lev.group)
    J = ideal_J_full(lev)
    bmap = bgstar(G)
    comps = component_images(bmap, J)
    normal = [lev.group.elements.index(1), lev.group.elements.index(4)]
    quotient = quotient_group(G, normal)
    rep = quotient_naturality(quotient, comps, bmap)
    assert rep.passed

    from galideal.cycloideal import plus_tower
    clsmat = class_quotient_matrix(quotient)
    tower = plus_tower(5)
    image_classes = map_image(J, clsmat, tuple(quotient.quotient.labels))
    image_tower = map_image(J, quotient_matrix(tower),
                            group_labels(tower.quotient))
    assert image_classes.columns == image_tower.columns
    assert image_classes.denominator == image_tower.denominator


def test_quotient_naturality_refuses_a_map_of_another_group():
    # the map passed in stands for bgstar(tower.big), so it must be a map of
    # that group object: here it is one of a second S3 built alongside
    G = symmetric3()
    bmap = bgstar(symmetric3())
    with pytest.raises(ValueError, match="not of the tower's big group"):
        quotient_naturality(quotient_group(G, [0, 3, 4]),
                            unit_components(bmap), bmap)


def test_naturality_detects_wrong_small_components(monkeypatch):
    # forcing a too-small ideal on the quotient side breaks containment:
    # every pushed component becomes the zero ideal
    G = symmetric3()
    bmap = bgstar(G)
    monkeypatch.setattr(brauer, "map_image",
                        lambda ideal, matrix, labels: zero_ideal(labels))
    rep = quotient_naturality(quotient_group(G, [0, 3, 4]),
                              unit_components(bmap), bmap)
    assert rep.square_commutes and not rep.contained
    assert rep.witness != ()


# Naturality under restriction to a subgroup H of a non-abelian G: for
# every K <= H, block_K(bmap_G) = block_K(bmap_H) Res, where Res sends the
# class of g to the sum of class_H(x^-1 g x) over left coset
# representatives x of H with x^-1 g x in H.  Summing over x in G/H and
# then y in H/K is summing over xy in G/K.

def _subgroup_as_group(G, elements):
    # H with its own table: element i is the i-th smallest of `elements`,
    # labelled as in G, so H's coset minima carry G's labels
    els = sorted(elements)
    pos = {g: i for i, g in enumerate(els)}
    table = [[pos[G.op(a, b)] for b in els] for a in els]
    return FiniteGroup(table, [G.label(g) for g in els]), els


def _restriction_matrix(G, els, space_h):
    pos = {g: i for i, g in enumerate(els)}
    reps = left_cosets(G.elements, G.op, els)[0]
    res = [[0] * len(G.conjugacy_classes) for _ in range(space_h.dimension)]
    for c, cls in enumerate(G.conjugacy_classes):
        g = min(cls)
        for x in reps:
            y = G.conjugate(G.inv(x), g)
            if y in pos:
                res[space_h.class_of(pos[y])][c] += 1
    return res


def _restriction_failures(bmap_g, bmap_h, els, res):
    # the subgroups K <= H whose two sides differ; K's abelianization
    # indices are matched through its coset representatives' labels
    bad = []
    for kh, rec_h in enumerate(bmap_h.records):
        kg = record_index(bmap_g.records, [els[h] for h in rec_h.elements])
        rhs = mat_mul(bmap_h.block(kh), res)
        rows = [rhs[rec_h.ab.labels.index(lab)]
                for lab in bmap_g.records[kg].ab.labels]
        if bmap_g.block(kg) != rows:
            bad.append(kh)
    return bad


@pytest.mark.parametrize("order, classes", [(12, 4), (8, 5)],
                         ids=["A4", "D4"])
def test_restriction_square_into_s4(order, classes):
    G = _golden_group("s4.txt")()
    bmap_g = bgstar(G)
    # S4 has one subgroup of order 12 (A4) and three of order 8 (D4)
    H, els = _subgroup_as_group(G, next(
        rec.elements for rec in bmap_g.records if len(rec.elements) == order))
    assert len(H.conjugacy_classes) == classes  # non-abelian
    bmap_h = bgstar(H)
    assert len(bmap_h.records) == 10
    assert bmap_h.rank == bmap_h.space.dimension  # injective
    res = _restriction_matrix(G, els, bmap_h.space)
    assert _restriction_failures(bmap_g, bmap_h, els, res) == []
    # negative control: one unit of Res moved to another row of its column;
    # bmap_H is injective, so some K must see it
    c, a = max((c, a) for a, row in enumerate(res)
               for c, v in enumerate(row) if v)
    res[a][c] -= 1
    res[(a + 1) % len(res)][c] += 1
    assert _restriction_failures(bmap_g, bmap_h, els, res) != []
