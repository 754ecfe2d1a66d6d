# The inputs and the work of the check suites: the random group-ring
# elements are the ones a dict of Fractions gave, draw for draw, the brauer
# suite builds each component map once, the fixed-point suite builds each
# tower's parts and each full ideal once, and the integrality verdicts build
# no annihilator lattice.

import random
from fractions import Fraction

import pytest

from galideal import brauer, padic, suites, towers
from galideal.abelian import FiniteAbelianGroup, squares_subgroup, unit_group
from galideal.groupring import GroupRingElement
from galideal.suites import random_element, run_suite


def _fraction_dict_element(rng, group, top, bottom):
    # the reference construction: one Fraction per element, numerator drawn
    # before denominator, in element order
    return GroupRingElement(group, {
        g: Fraction(rng.randint(-top, top), rng.randint(1, bottom))
        for g in group.elements})


@pytest.mark.parametrize("seed", [0, 1, 2026, 999999])
def test_random_element_matches_fraction_dict(seed):
    # the groups and ranges of induced-det (3, 4) and fixed-point (4, 3 and
    # 5, 4); both generators must also end in the same state
    groups = [FiniteAbelianGroup(()), FiniteAbelianGroup((2,)),
              FiniteAbelianGroup((3,)), FiniteAbelianGroup((2, 4)),
              squares_subgroup(7), unit_group(7)]
    for top, bottom in [(3, 4), (4, 3), (5, 4)]:
        ours, ref = random.Random(seed), random.Random(seed)
        for group in groups:
            for _ in range(5):
                assert random_element(ours, group, top, bottom) == \
                    _fraction_dict_element(ref, group, top, bottom)
        assert ours.getstate() == ref.getstate()


def test_brauer_suite_builds_each_map_once(monkeypatch):
    # S3, D4, Q8 and A4, then the quotients S3/A3 and D4/center: the big
    # maps of the quotient checks are the ones the suite built first
    orders = []
    real = brauer.bgstar

    def counting(G):
        orders.append(G.order)
        return real(G)

    monkeypatch.setattr(brauer, "bgstar", counting)
    monkeypatch.setattr(suites, "bgstar", counting)
    results = run_suite("brauer")
    assert orders == [6, 8, 8, 12, 2, 4]
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("injective:S3", True, "rank 3 = 3 classes"),
        ("duality-certified:S3", True, "36 traces"),
        ("injective:D4", True, "rank 5 = 5 classes"),
        ("duality-certified:D4", True, "135 traces"),
        ("injective:Q8", True, "rank 5 = 5 classes"),
        ("duality-certified:Q8", True, "95 traces"),
        ("injective:A4", True, "rank 4 = 4 classes"),
        ("duality-certified:A4", True, "104 traces"),
        ("quotient-square:S3/A3", True, ""),
        ("quotient-containment:S3/A3", True, ""),
        ("quotient-square:D4/center", True, ""),
        ("quotient-containment:D4/center", True, ""),
    ]


def _counting(monkeypatch, module, name):
    # replace module.name by a wrapper that records its first argument
    calls, real = [], getattr(module, name)

    def counting(first, *args):
        calls.append(first)
        return real(first, *args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_integrality_verdicts_build_no_annihilator_lattice(monkeypatch):
    # annihilator_integrality and the nc-ideal suite read only the
    # annihilator's generators, so neither canonicalizes its ideal
    calls = _counting(monkeypatch, padic, "canonicalize")
    cases = [(m, ell, r) for ell in (3, 5, 7) for m in (ell, ell * ell)
             for r in (-1, -2)]
    assert len(cases) == 12
    for m, ell, r in cases:
        ok, worst, _ = padic.annihilator_integrality(
            m, ell, r, suites.theta(m, r))
        assert ok and worst >= 0, (m, ell, r)
    assert all(r.passed for r in suites.nc_ideal_suite())
    assert calls == []


def test_fixed_point_suite_builds_each_towers_parts_once(monkeypatch):
    # three suite towers and the plus towers at ell = 3, 5, 7: one kernel
    # idempotent each, although the suite maps 242 elements
    calls = _counting(monkeypatch, towers, "kernel_idempotent")
    assert all(r.passed for r in suites.fixed_point_suite())
    assert len(calls) == len({id(t) for t in calls}) == 6


def test_fixed_point_suite_builds_each_full_ideal_once(monkeypatch):
    # the lambda and iota containments share J at ell = 7
    calls = _counting(monkeypatch, suites, "ideal_J_full")
    assert all(r.passed for r in suites.fixed_point_suite())
    assert sorted(level.modulus for level in calls) == [3, 5, 7, 11]
