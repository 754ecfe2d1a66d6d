# The acceptance gate: one test per criterion, each driving a named check
# suite end to end with exact (zero-tolerance) arithmetic and a wall-clock
# budget.  Every criterion is also reachable from the command line as
# `galideal check --suite NAME`.

import time

from galideal.suites import run_suite


def run_criterion(number, suite, budget_s, expect_checks, **params):
    started = time.monotonic()
    results = run_suite(suite, **params)
    elapsed = time.monotonic() - started
    failures = [(r.name, r.detail) for r in results if not r.passed]
    verdict = "PASS" if not failures else "FAIL"
    print("criterion %02d [%s] %s: %d checks, %.2fs (budget %ds)"
          % (number, suite, verdict, len(results), elapsed, budget_s))
    assert not failures, failures
    assert len(results) == expect_checks, [r.name for r in results]
    assert elapsed < budget_s, "over budget: %.2fs >= %ds" % (elapsed,
                                                              budget_s)
    return {r.name: r for r in results}


def test_criterion_01_half_stickelberger_identity():
    # (1 - c) theta-tilde = theta for ell in {7, 11, 19, 23}, levels 0 and 1
    by_name = run_criterion(1, "half-stickelberger", 5, 8)
    moduli = {7, 49, 11, 121, 19, 361, 23, 529}
    assert {name for name in by_name} == {"one-minus-c:m=%d" % m
                                          for m in moduli}


def test_criterion_02_lvalue_identity():
    # L_S(0, rho psi) = 2 psi|_H(tau theta-tilde) for every even psi
    by_name = run_criterion(2, "lvalue-identity", 2, 2)
    assert by_name["pairing:ell=7"].detail == "all 3 even characters"
    assert by_name["pairing:ell=11"].detail == "all 5 even characters"


def test_criterion_03_base_change():
    # tau(B)^{-1} = 2 theta-tilde
    by_name = run_criterion(3, "base-change", 2, 2)
    assert set(by_name) == {"tau-inverse:ell=7", "tau-inverse:ell=11"}


def test_criterion_04_quotient_functoriality():
    # pi(theta_n(r)) = theta_(n-1)(r), three twists; J_n is generated by
    # theta_n and pi is a surjective ring map, so pi(J_n) = J_(n-1)
    by_name = run_criterion(4, "functoriality", 10, 6)
    assert set(by_name) == {
        "pi-minus:ell=%d,level=1->0,r=%d" % (ell, r)
        for ell in (3, 5) for r in (0, -1, -2)}


def test_criterion_05_induced_determinant():
    # both determinant routes agree on >= 100 random matrices per inclusion
    by_name = run_criterion(5, "induced-det", 10, 4)
    assert set(by_name) == {"det:1<C2", "det:C2<C4", "det:C3<C6",
                            "det:C2<C2xC2"}
    assert all(r.detail == "100 random matrices" for r in by_name.values())


def test_criterion_06_fixed_point_and_corestriction():
    # lambda is a unital ring hom with the right character description;
    # iota satisfies character duality and the containment on cyclotomic
    # fixtures
    by_name = run_criterion(6, "fixed-point", 5, 14)
    kinds = {}
    for name in by_name:
        kinds.setdefault(name.split(":")[0], set()).add(name)
    assert len(kinds["lambda-ring-hom"]) == 3
    assert len(kinds["lambda-character-description"]) == 3
    assert len(kinds["iota-duality"]) == 3
    assert kinds["lambda-containment"] == {"lambda-containment:ell=%d" % e
                                           for e in (3, 5, 7)}
    assert kinds["iota-containment"] == {"iota-containment:ell=%d" % e
                                         for e in (7, 11)}


def test_criterion_07_brauer_layer():
    # component map injective and duality-certified for S3, D4, Q8, A4;
    # the quotient square commutes for (S3, A3) and (D4, center)
    by_name = run_criterion(7, "brauer", 20, 12)
    for g in ("S3", "D4", "Q8", "A4"):
        assert "injective:%s" % g in by_name
        assert "duality-certified:%s" % g in by_name
    for pair in ("S3/A3", "D4/center"):
        assert "quotient-square:%s" % pair in by_name
        assert "quotient-containment:%s" % pair in by_name


def test_criterion_08_abelian_reduction():
    # the class-space preimage reproduces the abelian ideal exactly
    by_name = run_criterion(8, "abelian-reduction", 10, 2)
    assert set(by_name) == {"preimage-equals-direct:ell=3",
                            "preimage-equals-direct:ell=5"}


def test_criterion_09_integrality():
    # annihilator * theta is ell-integral for m in {ell, ell^2},
    # ell in {3, 5, 7}, r in {-1, -2}; plus the worked m = 3 case
    by_name = run_criterion(9, "integrality", 10, 13)
    assert "worked-case:m=3" in by_name
    assert {n for n in by_name if n != "worked-case:m=3"} == {
        "annihilator:m=%d,ell=%d,r=%d" % (m, ell, r)
        for ell in (3, 5, 7) for m in (ell, ell * ell) for r in (-1, -2)}


def test_criterion_10_noncommutative_ideal():
    # two_sided_check passes on covariant S3 data and detects the
    # non-covariant control; quotient compatibility for (S3, A3) and the
    # abelian C9 -> C3 drop with Stickelberger data
    by_name = run_criterion(10, "nc-ideal", 10, 4)
    assert set(by_name) == {"control-fails-two-sided:S3",
                            "covariant-two-sided:S3",
                            "quotient:S3/A3",
                            "quotient:C9->C3-stickelberger"}


def test_criterion_11_oracle_cross_checks():
    # both theta routes agree for all m <= 30 and four twists;
    # zeta(-1), B_{1,chi_-3}, and the frozen theta(7) vector
    by_name = run_criterion(11, "oracles", 10, 4)
    assert by_name["theta-dual-routes:m<=30"].detail == \
        "120 elements, both routes"
    assert set(by_name) == {"theta-dual-routes:m<=30", "zeta(-1)",
                            "B_{1,chi_-3}", "theta-hurwitz:m=7"}


def test_criterion_12_rank_formula():
    by_name = run_criterion(12, "rank", 1, 3)
    assert set(by_name) == {"y-rank:Q(zeta5)", "y-rank:Q(zeta7)",
                            "y-rank:Q(zeta7)+"}
