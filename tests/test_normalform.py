import math

import numpy as np
import pytest
from conftest import admissible, random_admissible

from o2hopf import InadmissibleRegime, ModelParams, onset, onset_scan, validate
from o2hopf.normalform import (ROUTES, _evaluate, _point, _projection_kernel, coeffs,
                               coeffs_report, solve_psi)
from o2hopf.params import critical_values, onset_terms

CANON = validate({"alpha": 2.0, "beta": 7.0})
RT3 = math.sqrt(3.0)

# Canonical direct-route values, frozen from an independent high-precision
# evaluation of the unsimplified expressions before this implementation was
# written; exact forms b = -11/24 - 7i/(8 sqrt 3), c = -11/4 + i sqrt(3)/4.
GOLDEN_B = complex(-11.0 / 24.0, -7.0 / (8.0 * RT3))
GOLDEN_C = complex(-11.0 / 4.0, RT3 / 4.0)


def _published(p):
    """The report's published constants with the closed-form route's a, b and c."""
    report = coeffs_report(p)
    return {**report["constants"], **report["routes"]["closed_form"]}


def _kernel(sets):
    alpha, d1, d2 = (np.array(v) for v in zip(*[(p.alpha, *p.effective_diffusion())
                                                for p in sets]))
    beta1, omega_sq = critical_values(alpha, d1, d2)
    return _projection_kernel(alpha, d1, d2, beta1, np.sqrt(omega_sq))


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

    def test_point_past_the_bound_is_inadmissible(self):
        # delta1 = 4/7 at alpha = 2, delta2 = 1 makes P_2(0) = det M_2 vanish;
        # omega^2 = 9/7 > 0, but beta1 = 46/7 is past the Turing bound 6.3094,
        # so no route solves there
        past = ModelParams(alpha=2.0, beta=1.0, delta1=4.0 / 7.0, delta2=1.0)
        past = past.with_beta(onset_terms(past.alpha, past.delta1, past.delta2,
                                          past.half_length)[2])
        assert not admissible(past)
        for route in ROUTES:
            with pytest.raises(InadmissibleRegime,
                               match=r"^O\(2\)-Hopf analysis does not apply: omega\^2 = 1\.28571, "
                                     r"beta1 = 6\.57143, bound = 6\.30943$"):
                coeffs(past, route)


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


def test_large_m_constants_are_solved_by_every_route():
    # with delta = 1 and L = 1, m = alpha^2 / (1 + d1' + d2') is 4.8e10 at alpha = 1e6
    p = _at_onset(alpha=1e6, half_length=1.0)
    for route in ROUTES:
        nf = coeffs(p, route)
        assert np.isfinite([nf.a, nf.b, nf.c]).all(), route
    report = coeffs_report(p)
    for values in (*report["routes"].values(), report["constants"]):
        assert np.isfinite(list(values.values())).all()
    assert all(np.isfinite(psi.norm()) for psi in vars(solve_psi(p)).values())
    _assert_routes_match_80_digits(p)


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
        cf = _published(CANON)
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

    def test_onset_poly_at_2iw_has_an_exact_real_part(self):
        # Re P_2(2i omega) = 12 d1 d2 - 3 alpha^2 = 0 and Re P_0(2i omega) = 4 d2^2 - 3 alpha^2
        # = -8, with no rounding of omega^2 left in them
        cf = _published(CANON)
        assert cf["P2_2iw"].real == 0.0
        assert cf["P0_2iw"].real == -8.0

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


def test_the_report_holds_the_published_constants_of_its_pass():
    # the report's constants are the closed-form route's values, a, b and c aside, and a
    # route alone (coeffs) gives the bits it has in the pass over every route
    for p in [CANON, *_random_sets(34, count=5)]:
        rep, point = coeffs_report(p), _point(p, ROUTES)[1]
        closed = point["closed_form"]
        want = {key: v for key, v in closed.items() if key not in ("a", "b", "c")}
        assert list(rep["constants"]) == list(want)
        assert np.array(list(rep["constants"].values())).tobytes() == \
            np.array(list(want.values())).tobytes()
        for route in ROUTES:
            nf = coeffs(p, route)
            abc = [point[route][name] for name in "abc"]
            assert np.array([nf.a, nf.b, nf.c]).tobytes() == np.array(abc).tobytes()
            assert np.array(list(rep["routes"][route].values())).tobytes() == \
                np.array(abc).tobytes()


# omega^2 = 0.25 (1 + 0.1 - 2) - 4 < 0: no Hopf frequency
NO_OMEGA = ModelParams(alpha=0.5, beta=3.0, delta1=0.1, delta2=2.0)


@pytest.mark.parametrize("route", ROUTES)
def test_every_route_needs_a_hopf_frequency(route):
    # the direct and closed-form routes divided by omega = 0
    with pytest.raises(InadmissibleRegime,
                       match=r"^O\(2\)-Hopf analysis does not apply: omega\^2 = -4\.225, "):
        coeffs(NO_OMEGA, route)


def _random_sets(seed, count=120):
    rng = np.random.default_rng(seed)
    return [random_admissible(rng, vary_domain=True) for _ in range(count)]


class TestKernel:
    def test_matches_direct_on_random_sets(self):
        sets = _random_sets(30)
        assert {p.half_length for p in sets} == {math.pi, math.pi / 2, 2.0, 5.0}
        k = _kernel(sets)
        assert np.isfinite([k["a"], k["b"], k["c"]]).all()
        for i, p in enumerate(sets):
            direct = coeffs(p, "direct")
            for got, want in ((k["a"][i], direct.a), (k["b"][i], direct.b),
                              (k["c"][i], direct.c)):
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
            for got, want in ((k["a"][i], nf.a), (k["b"][i], nf.b), (k["c"][i], nf.c)):
                assert abs(got - want) <= 1e-14 * abs(want)
            assert np.allclose(k["psi_20000"][:, i], psi.psi_20000.amp(2),
                               rtol=1e-14, atol=0.0)


def test_projection_equals_direct_on_log_uniform_sets():
    # 3 000 admissible sets with alpha, delta1 and delta2 log-uniform and four domain
    # lengths: m = alpha^2 / (1 + d1' + d2') reaches about 1e16
    rng = np.random.default_rng(22)
    alpha, delta1, delta2 = (10.0 ** rng.uniform(lo, hi, 20000)
                             for lo, hi in ((-1.0, 8.0), (-3.0, 3.0), (-3.0, 3.0)))
    length = rng.choice([1.0, 2.0, math.pi, 7.0], 20000)
    d1, d2, _, _, mask = onset_terms(alpha, delta1, delta2, length)
    keep = np.flatnonzero(mask)[:3000]
    assert keep.size == 3000
    values, refused = _evaluate(alpha[keep], d1[keep], d2[keep], ROUTES)
    assert refused == [None] * keep.size
    for name in "abc":
        want = values["direct"][name]
        far = ~(np.abs(values["projection"][name] - want) <= 1e-13 * np.abs(want))
        assert not far.any(), (keep[far].tolist(), name)


def _direct_80_digits(mp, alpha, d1, d2):
    """a, b and c of the direct route's formula, to about 80 digits.

    The formula's terms cancel by up to about m = alpha^2 / (1 + d1 + d2), so it
    is evaluated with 80 digits more than log10 m.
    """
    with mp.workdps(30):
        m = mp.mpf(alpha) * alpha / (1 + mp.mpf(d1) + d2)
    with mp.workdps(80 + max(0, int(mp.log10(m)))):
        alpha, d1, d2, i = mp.mpf(alpha), mp.mpf(d1), mp.mpf(d2), mp.mpc(0, 1)
        a2 = alpha * alpha
        beta1 = 1 + a2 + d1 + d2
        w = mp.sqrt(a2 * (1 + d1 - d2) - d2 * d2)

        def poly(n2, z):   # P_n(z) at beta1
            return (z * z + (n2 - 1) * (d1 + d2) * z + a2 * (1 + n2 * (d1 - d2))
                    + n2 * (n2 - 1) * d1 * d2 - n2 * d2 * d2)

        brk = -a2 * (2 * i * w + 4 * d1 + 1) - (2 * i * w + 4 * d2) * (i * w - 1 - d1)
        fac = beta1 - 2 * (a2 + d2) + 2 * i * w
        b = (w - i * d2) / (2 * w * a2) * (5 * (a2 + d2) - 4 * beta1 + i * w
                                           + 2 / poly(4, 2 * i * w) * fac * brk)
        c1 = (4 / poly(4, 0) * (2 * (a2 + d2) - beta1) / alpha
              * (alpha * (4 * d1 + 1) - 4 * d2 / alpha * (i * w + 1 + d1)))
        c2 = (4 / poly(0, 2 * i * w) * fac / alpha
              * (-alpha * (2 * i * w + 1) + 2 * i * w / alpha * (1 + d1 - i * w)))
        c = -i * (d2 + i * w) / (2 * w) * ((2 * (a2 + d2) - 4 * beta1 + 2 * i * w) / a2 + c1 + c2)
        return {"a": complex((w - i * d2) / (2 * w)), "b": complex(b), "c": complex(c)}


def _assert_routes_match_80_digits(p):
    mp = pytest.importorskip("mpmath")
    want = _direct_80_digits(mp, p.alpha, *p.effective_diffusion())
    for route in ("projection", "direct"):
        nf = coeffs(p, route)
        for name in "abc":
            assert abs(getattr(nf, name) - want[name]) <= 1e-14 * abs(want[name]), (route, name)


@pytest.mark.parametrize("m", [1e2, 1e4, 1e6, 1e9, 1e12, 1e15])
@pytest.mark.parametrize("delta1, delta2, half_length",
                         [(1.0, 1.0, math.pi), (2.0, 0.5, 1.0), (0.3, 0.1, 7.0)])
def test_both_routes_match_an_80_digit_evaluation(m, delta1, delta2, half_length):
    # P_n(2i omega) must not be formed from -4 omega^2: its rounding, about 1e-16 alpha^2,
    # would cost both routes about 1e-16 sqrt(m) of relative accuracy
    d1, d2 = ModelParams(alpha=1.0, beta=1.0, delta1=delta1, delta2=delta2,
                         half_length=half_length).effective_diffusion()
    # alpha^2 / (1 + d1' + d2') = m
    _assert_routes_match_80_digits(_at_onset(alpha=math.sqrt(m * (1.0 + d1 + d2)),
                                             delta1=delta1, delta2=delta2,
                                             half_length=half_length))


def test_both_routes_match_an_80_digit_evaluation_at_the_turing_corner():
    # delta1' ~ delta2' = alpha / 2 and m = 1e12: beta1 is within 1e-4 of the Turing
    # bound; with d1' - d2' = 5e7, forming -4 omega^2 in P_n(2i omega) would cost 2e-13
    p = _at_onset(alpha=1e12, delta1=5e11 * (1.0 + 1e-4), delta2=5e11)   # admissible
    _assert_routes_match_80_digits(p)


def _turing_corner_sets(seed, count):
    """Admissible sets at delta2' = alpha U(0.5, 1), delta1' = delta2' (1 + 10^U(-12, -1)),
    alpha = 10^U(0, 10): the corner where the Turing bound meets omega = 0."""
    rng = np.random.default_rng(seed)
    sets = []
    while len(sets) < count:
        alpha = 10.0 ** rng.uniform(0.0, 10.0)
        delta2 = alpha * rng.uniform(0.5, 1.0)
        p = ModelParams(alpha=alpha, beta=1.0, delta2=delta2,
                        delta1=delta2 * (1.0 + 10.0 ** rng.uniform(-12.0, -1.0)))
        if admissible(p):
            sets.append(p.with_beta(onset(p).beta1))
    return sets


def test_omega_squared_does_not_cancel_at_the_turing_corner():
    # expanded, alpha^2 (1 + d1' - d2') - d2'^2 cancels terms of about alpha^2 here and
    # was up to 2.9e-13 of omega^2 off on these draws
    mp = pytest.importorskip("mpmath")
    for p in _turing_corner_sets(40, 2000):
        d1, d2 = p.effective_diffusion()
        with mp.workdps(60):
            alpha, x1, x2 = mp.mpf(p.alpha), mp.mpf(d1), mp.mpf(d2)
            want = alpha * alpha * (1 + x1 - x2) - x2 * x2
        assert abs(critical_values(p.alpha, d1, d2)[1] - want) <= 5e-16 * want, p


def test_both_routes_match_an_80_digit_evaluation_on_turing_corner_draws():
    # both routes to 1e-14, times |a| = |omega - i delta2'| / (2 omega) where that exceeds 1:
    # toward omega = 0 the projection route's b loses up to about 1e-14 |a|, with the exact
    # omega too.  With omega^2 expanded, a was up to 1.5e-14 and c 2.2e-14 off on these draws.
    mp = pytest.importorskip("mpmath")
    for p in _turing_corner_sets(29, 400):
        want = _direct_80_digits(mp, p.alpha, *p.effective_diffusion())
        scale = max(1.0, abs(want["a"]))
        for route in ("projection", "direct"):
            nf = coeffs(p, route)
            for name in "abc":
                got = getattr(nf, name)
                assert abs(got - want[name]) <= 1e-14 * scale * abs(want[name]), (route, name, p)
