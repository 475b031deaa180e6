"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints `criterion N: pass|fail - <what it checks>` (visible under
`pytest -s`; under plain `pytest -v` the per-test PASSED/FAILED line carries
the same information) and enforces the documented runtime ceiling in exact
wall-clock terms.
"""

import random
import time
from fractions import Fraction

from confal import (
    associativity_report,
    coeff_growth_check,
    cur_dual_numbers,
    cur_matrix,
    growth_table,
    identity_report,
    matrix_findim,
    poly_zero,
    recognition_roundtrip,
    recognize_unital,
    simplicity_probe,
    transport_identity,
    weyl_algebra,
)
from confal.growth import enumerate_span, generator_order_bound

WEYL = weyl_algebra()
CUR2 = cur_matrix(2)


class _Criterion:
    def __init__(self, number: int, text: str, limit_s: float):
        self.number = number
        self.text = text
        self.limit = limit_s
        self.start = None

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "pass" if exc_type is None and elapsed < self.limit else "fail"
        print(f"criterion {self.number}: {verdict} - {self.text} "
              f"({elapsed:.2f}s / limit {self.limit:g}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit:g}s limit "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_01_oracle_agreement():
    with _Criterion(1, "symbolic products match the brute-force coefficient "
                       "oracle on both instances (n <= 4, |k| <= 6)", 10):
        for alg in (WEYL, CUR2):
            gens = alg.generator_items()
            for _, u in gens:
                for _, v in gens:
                    for n in range(5):
                        p = alg.nth(u, v, n)
                        for k in range(-6, 7):
                            direct = alg.phi(p, k)
                            brute = alg.oracle(u, v, n, k)
                            assert (direct - brute).is_zero(), (n, k)


def test_criterion_02_product_table():
    with _Criterion(2, "the Weyl product table is reproduced exactly, "
                       "including L (1) e = 0", 1):
        e, L = WEYL.generator("e"), WEYL.generator("L")
        f = WEYL.primitive
        from confal import Poly

        assert WEYL.nth(e, e, 0) == e
        assert WEYL.nth(e, L, 0) == L
        assert WEYL.nth(L, e, 0) == L
        assert WEYL.nth(e, L, 1) == -e
        assert WEYL.nth(L, L, 0) == f(Poly.monomial(2))
        assert WEYL.nth(L, L, 1) == -L
        # The entry L (1) e computes to 0, not to -e: the product rule
        # differentiates the RIGHT slot and delta(1) = 0.  Tables that fill
        # this entry by symmetry disagree with the coefficient computation;
        # the discrepancy is documented on the instance builder.
        assert WEYL.nth(L, e, 1).is_zero()


def test_criterion_03_associativity_both_expansions():
    with _Criterion(3, "both associativity expansions agree and hold for "
                       "m, n <= 4 on all generator triples of both instances", 30):
        for alg in (WEYL, CUR2):
            rep = associativity_report(alg, 4, 4)
            assert rep.ok, rep.failures
            assert rep.checked > 0


def test_criterion_04_growth_dichotomy():
    with _Criterion(4, "gamma = 4 (degree 0) on the current algebra and "
                       "gamma(r) = r + 1 (degree 1) on the Weyl instance", 120):
        cur_rep = growth_table(CUR2, 6)
        assert cur_rep.gamma == [4] * 6 and cur_rep.degree == 0
        weyl_rep = growth_table(WEYL, 8)
        assert weyl_rep.gamma == [r + 1 for r in range(1, 9)]
        assert weyl_rep.degree == 1


def test_criterion_05_coefficient_growth_bound():
    with _Criterion(5, "dim(V^1 + ... + V^r) respects the locality-window "
                       "bound on the Weyl instance for r <= 6", 120):
        rep = coeff_growth_check(WEYL, (-1, 1), 6)
        assert all(rep.bound_ok), list(zip(rep.coeff_dims, rep.bound_rhs))
        assert len(rep.coeff_dims) == 6


def test_criterion_06_over_order_monomials_vanish():
    with _Criterion(6, "100 sampled left-normed monomials with an order "
                       "above the locality bound evaluate to zero", 10):
        rng = random.Random(0)
        for alg in (WEYL, CUR2):
            bound = generator_order_bound(alg)
            span = enumerate_span(alg, 3)
            prefixes = [entry.elem for entry in span.entries]
            gens = [g for _, g in alg.generator_items()]
            for _ in range(50):
                left = rng.choice(prefixes)
                right = rng.choice(gens)
                n = rng.randint(bound + 1, bound + 4)
                assert alg.nth(left, right, n).is_zero()


def test_criterion_07_identity_suite():
    with _Criterion(7, "f_1 is an identity in both instances, the d-shifted "
                       "variant passes on the current algebra, u11 fails", 1):
        e_weyl = WEYL.generator("e")
        assert identity_report(WEYL, e_weyl).ok
        one = CUR2.generator("u11") + CUR2.generator("u22")
        assert identity_report(CUR2, one).ok
        shifted = one - CUR2.generator("u12").derive()
        assert identity_report(CUR2, shifted).ok
        assert not identity_report(CUR2, CUR2.generator("u11")).ok


def test_criterion_08_recognition_roundtrip():
    with _Criterion(8, "recognition recovers the derivation on the Weyl "
                       "instance and the matrix structure constants on the "
                       "current algebra, with the n <= 2 replay agreeing", 10):
        weyl_res = recognize_unital(WEYL)
        assert weyl_res.ok
        e_idx, l_idx = weyl_res.labels.index("e"), weyl_res.labels.index("L")
        assert weyl_res.delta[l_idx] == {e_idx: Fraction(1)}
        assert weyl_res.delta[e_idx] == {}
        replay = recognition_roundtrip(WEYL, weyl_res, n_max=2)
        assert replay["checked"] > 0  # raises on any mismatch

        cur_res = recognize_unital(CUR2)
        assert cur_res.ok and cur_res.closed and cur_res.delta_is_zero
        names = cur_res.labels
        for p in (1, 2):
            for q in (1, 2):
                for r in (1, 2):
                    for s in (1, 2):
                        got = cur_res.product[(names.index(f"u{p}{q}"),
                                               names.index(f"u{r}{s}"))]
                        want = {names.index(f"u{p}{s}"): Fraction(1)} if q == r else {}
                        assert got == want
        replay2 = recognition_roundtrip(CUR2, cur_res, n_max=2)
        assert replay2["skipped"] == 0


def test_criterion_09_transport():
    with _Criterion(9, "transported identities verify over 2x2 and 3x3 "
                       "matrix bases with nilpotent shifts", 5):
        m2 = matrix_findim(2)
        res2 = transport_identity(m2, m2.basis_element(m2.names.index("E(1,2)")))
        alg2 = res2.algebra
        want2 = (alg2.generator("E(1,1)") + alg2.generator("E(2,2)")
                 + alg2.generator("E(1,2)").derive())
        assert res2.identity == want2 and res2.report.ok

        m3 = matrix_findim(3)
        r3 = (m3.basis_element(m3.names.index("E(1,2)"))
              + m3.basis_element(m3.names.index("E(2,3)")))
        res3 = transport_identity(m3, r3)
        alg3 = res3.algebra
        want3 = alg3.zero_elem()
        for name in ("E(1,1)", "E(2,2)", "E(3,3)"):
            want3 = want3 + alg3.generator(name)
        want3 = want3 + (alg3.generator("E(1,2)") + alg3.generator("E(2,3)")).derive()
        want3 = want3 + alg3.apply_dop_power(alg3.generator("E(1,3)"), 2) * Fraction(1, 2)
        assert res3.identity == want3 and res3.report.ok


def test_criterion_10_simplicity_probes():
    with _Criterion(10, "ideal witnesses found for the dual-number and "
                        "zero-derivation instances; none for the simple "
                        "ones over 50 seeded trials", 60):
        assert simplicity_probe(cur_dual_numbers(), trials=50, degree_bound=5,
                                seed=0).witness_found
        polyrep = simplicity_probe(poly_zero(), trials=50, degree_bound=5, seed=0)
        assert polyrep.witness_found and "x" in polyrep.witness
        for alg in (CUR2, WEYL):
            rep = simplicity_probe(alg, trials=50, degree_bound=5, seed=0)
            assert not rep.witness_found, alg.name
