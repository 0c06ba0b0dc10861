import math

import numpy as np
import pytest
from conftest import random_admissible

from o2hopf import (InadmissibleRegime, ModelParams, SingularSystem, onset, onset_scan,
                    validate)
from o2hopf.normalform import (ROUTES, _projection_kernel, closed_form_constants,
                               coeffs, coeffs_report, solve_psi)

CANON = validate({"alpha": 2.0, "beta": 7.0})
RT3 = math.sqrt(3.0)

# Canonical direct-route values, frozen from an independent high-precision
# evaluation of the unsimplified expressions before this implementation was
# written; exact forms b = -11/24 - 7i/(8 sqrt 3), c = -11/4 + i sqrt(3)/4.
GOLDEN_B = complex(-11.0 / 24.0, -7.0 / (8.0 * RT3))
GOLDEN_C = complex(-11.0 / 4.0, RT3 / 4.0)


def _kernel(sets):
    return _projection_kernel(*(np.array(v) for v in zip(*[
        (p.alpha, *p.effective_diffusion(), p.half_length) for p in sets])))


class TestPsi:
    def test_canonical_psi_11000(self):
        psi = solve_psi(CANON)
        assert psi.psi_11000.indices() == [0]
        assert np.allclose(psi.psi_11000.amp(0), [0.0, 0.75], atol=1e-14)

    def test_psi_00001_vanishes(self):
        assert solve_psi(CANON).psi_00001.is_zero()

    def test_psi_00110_is_reflection(self):
        psi = solve_psi(CANON)
        d = psi.psi_00110 - psi.psi_11000.reflect()
        assert d.is_zero()
        # mode-0 solutions are real multiples of (0, 1)^T
        amp = psi.psi_11000.amp(0)
        assert abs(amp[0]) < 1e-14 and abs(amp[1].imag) < 1e-14

    def test_residuals_small(self):
        rng = np.random.default_rng(4)
        for p in [CANON] + [random_admissible(rng, vary_domain=True)
                            for _ in range(10)]:
            res = solve_psi(p).residuals(p)
            assert max(res.values()) <= 1e-12

    def test_batched_singular_mask(self):
        # delta1 = 4/7 at alpha = 2, delta2 = 1 makes P_2(0) = det M_2 vanish
        # (omega^2 = 9/7 > 0, though beta1 is past the admissibility bound):
        # the psi_10010 system is singular there and nowhere else in the batch
        singular_p = ModelParams(alpha=2.0, beta=1.0, delta1=4.0 / 7.0, delta2=1.0)
        k = _kernel([CANON, singular_p, CANON])
        assert k.singular.tolist() == [0, 4, 0]
        assert k.message(1) == "psi_10010: value 0.0 is in the spectrum of M_2"
        for i in (0, 2):
            assert abs(k.b[i] - GOLDEN_B) < 1e-12 and abs(k.c[i] - GOLDEN_C) < 1e-12
        # the single-point route raises the same text
        with pytest.raises(SingularSystem, match=r"^psi_10010: value 0\.0 is in"):
            coeffs(singular_p.with_beta(onset(singular_p).beta1))


def _at_onset(**constants):
    p = ModelParams(beta=1.0, **constants)
    return p.with_beta(onset(p).beta1)


@pytest.mark.parametrize("params", [
    *(_at_onset(alpha=2.0, delta1=d1) for d1 in (1e7, 1e10, 1e14)),
    # a short domain: k1^2 = 1e4 pi^2 rescales delta1 to about 1e7
    _at_onset(alpha=2.0, delta1=100.0, delta2=1e-5, half_length=0.01),
], ids=["delta1=1e7", "delta1=1e10", "delta1=1e14", "short_domain"])
def test_far_side_sets_are_solved(params):
    # beta1 up to 1e14: the resolvent systems are solved, not refused, within
    # the bounds the suite holds near the canonical point
    assert onset_scan(params, n_max=8).verdict == "hopf_onset"
    proj, direct = coeffs(params, "projection"), coeffs(params, "direct")
    for name in "abc":
        want = getattr(direct, name)
        assert abs(getattr(proj, name) - want) <= 1e-10 * (1.0 + abs(want)), name
    assert max(solve_psi(params).residuals(params).values()) <= 1e-12
    assert solve_psi(params).psi_00001.is_zero()


class TestCoeffA:
    def test_canonical_value(self):
        expected = 0.5 - 1j / (2.0 * RT3)
        for route in ("projection", "direct"):
            assert abs(coeffs(CANON, route).a - expected) < 1e-13
        assert coeffs(CANON, "direct").a.real == 0.5

    def test_routes_agree_on_random_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_admissible(rng, vary_domain=True)
            d2e = p.effective_diffusion()[1]
            expected = 0.5 - 1j * d2e / (2.0 * onset(p).omega)
            for route in ("projection", "direct"):
                a = coeffs(p, route).a
                assert abs(a - expected) <= 1e-12 * (1.0 + abs(expected))

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            coeffs(CANON, "nope")


class TestCoeffBC:
    def test_direct_canonical_goldens(self):
        assert abs(coeffs(CANON, "direct").b - GOLDEN_B) < 1e-12
        assert abs(coeffs(CANON, "direct").c - GOLDEN_C) < 1e-12

    def test_projection_matches_direct_canonical(self):
        assert abs(coeffs(CANON, "projection").b - GOLDEN_B) < 1e-12
        assert abs(coeffs(CANON, "projection").c - GOLDEN_C) < 1e-12

    def test_projection_matches_direct_random(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_admissible(rng, vary_domain=True)
            for name in ("b", "c"):
                vp = getattr(coeffs(p, "projection"), name)
                vd = getattr(coeffs(p, "direct"), name)
                assert abs(vp - vd) <= 1e-10 * (1.0 + abs(vd))

    def test_closed_form_canonical_constants(self):
        cf = closed_form_constants(CANON)
        expected = {"N_r": 66.0, "N_i": 12.0, "B_r": 18.0, "B_i": -33.0,
                    "C_2r": -192.0, "C_2i": 72.0 * RT3, "P2_0": 12.0,
                    "Q_r": 42.0, "Q_i": -20.0 * RT3}
        for key, want in expected.items():
            assert abs(cf[key] - want) <= 1e-12 * (1.0 + abs(want)), key
        assert abs(cf["b"].real + 17.0 / 8.0) < 1e-12
        assert abs(cf["c"].real - 11.0 / 4.0) < 1e-12
        assert abs((cf["b"] + cf["c"]).real - 5.0 / 8.0) < 1e-12
        # characteristic-polynomial values behind the reciprocal discrepancy
        assert abs(cf["P2_2iw"] - 12j * RT3) < 1e-12
        assert abs(cf["P0_2iw"] - (-8.0 - 4j * RT3)) < 1e-12

    def test_closed_form_differs_from_direct(self):
        # the published reciprocal of P_2(2i omega) is off by a constant
        # factor, so the fully simplified forms do not match direct division
        assert abs(coeffs(CANON, "closed_form").b
                   - coeffs(CANON, "direct").b) > 1.0

    def test_mu_independence(self):
        for route in ROUTES:
            at_onset = coeffs(CANON, route)
            offset = coeffs(CANON.with_beta(7.1), route)
            assert at_onset.a == offset.a
            assert at_onset.b == offset.b
            assert at_onset.c == offset.c

    def test_domain_rescaling_invariance(self):
        p = validate({"alpha": 2.0, "beta": 7.0, "delta1": 0.25,
                      "delta2": 0.25, "half_length": math.pi / 2})
        for route in ("projection", "direct"):
            nf = coeffs(p, route)
            assert abs(nf.b - GOLDEN_B) < 1e-12
            assert abs(nf.c - GOLDEN_C) < 1e-12


def test_residual_orthogonality():
    orth = coeffs_report(CANON)["residual_orthogonality"]
    assert max(orth.values()) <= 1e-12


def test_coeffs_report_structure():
    rep = coeffs_report(CANON)
    assert set(rep["routes"]) == set(ROUTES)
    assert rep["consistent"]["a:projection|direct"]
    assert rep["consistent"]["b:projection|direct"]
    assert rep["consistent"]["c:projection|direct"]
    assert not rep["consistent"]["b:projection|closed_form"]
    assert not rep["consistent"]["c:direct|closed_form"]
    assert rep["discrepancies"]["b:projection|direct"] < 1e-12
    assert rep["mean_zero_obstruction"]["verdict"] == "present"
    for key in ("N_r", "C_1", "C_2", "P2_2iw"):
        assert key in rep["constants"]


# omega^2 = 0.25 (1 + 0.1 - 2) - 4 < 0: no Hopf frequency
NO_OMEGA = ModelParams(alpha=0.5, beta=3.0, delta1=0.1, delta2=2.0)


@pytest.mark.parametrize("compute", [
    *(lambda p, route=route: coeffs(p, route) for route in ROUTES),
    closed_form_constants,
], ids=[*ROUTES, "closed_form_constants"])
def test_every_route_needs_a_hopf_frequency(compute):
    # the direct and closed-form routes divided by omega = 0
    with pytest.raises(InadmissibleRegime, match=r"^the normal form needs omega\^2 > 0$"):
        compute(NO_OMEGA)


def _random_sets(seed, count=120):
    rng = np.random.default_rng(seed)
    return [random_admissible(rng, vary_domain=True) for _ in range(count)]


class TestKernel:
    def test_matches_direct_on_random_sets(self):
        sets = _random_sets(30)
        assert {p.half_length for p in sets} == {math.pi, math.pi / 2, 2.0, 5.0}
        k = _kernel(sets)
        assert not k.singular.any()
        for i, p in enumerate(sets):
            direct = coeffs(p, "direct")
            for got, want in ((k.a[i], direct.a), (k.b[i], direct.b), (k.c[i], direct.c)):
                assert abs(got - want) <= 1e-10 * abs(want)

    def test_residuals_on_random_sets(self):
        for p in _random_sets(30):
            assert max(coeffs_report(p)["residual_orthogonality"].values()) <= 1e-12
            assert max(solve_psi(p).residuals(p).values()) <= 1e-12

    def test_batch_point_equals_single_point(self):
        sets = _random_sets(31, count=40)
        k = _kernel(sets)
        for i, p in enumerate(sets):
            nf = coeffs(p, "projection")
            psi = solve_psi(p)
            for got, want in ((k.a[i], nf.a), (k.b[i], nf.b), (k.c[i], nf.c)):
                assert abs(got - want) <= 1e-14 * abs(want)
            assert np.allclose(k.psi["psi_20000"][i], psi.psi_20000.amp(2),
                               rtol=1e-14, atol=0.0)
