"""Acceptance suite: the eight headline criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Criteria 6 and 7 integrate the PDE and take the longest.
"""

import math
import time

import numpy as np
from conftest import random_admissible

from o2hopf import (ReducedSystem, SimConfig, equivariance_test,
                    measure_growth_rate, onset, timestep_convergence_order,
                    validate)
from o2hopf.normalform import (closed_form_constants, coeffs, coeffs_report,
                               solve_psi)
from o2hopf.pdesim import amplitude_scaling_experiment
from o2hopf.reduced import (branch_frequency, branches, classify_regime,
                            integrate_truncated, reconstruct_wave)
from o2hopf.spectral import mode_eigenvalues, onset_scan, turing_check

CANON = validate({"alpha": 2.0, "beta": 7.0})
RT3 = math.sqrt(3.0)

# Canonical direct-route coefficients, frozen before the build from an
# independent complex-arithmetic evaluation of the unsimplified expressions.
GOLDEN_B = complex(-11.0 / 24.0, -7.0 / (8.0 * RT3))
GOLDEN_C = complex(-11.0 / 4.0, RT3 / 4.0)


def _report(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[{tag}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def _rel(x, y):
    return abs(x - y) / (1.0 + abs(y))


def test_criterion_1_closed_form_values():
    start = time.time()
    data = onset(CANON)
    cf = closed_form_constants(CANON)
    expected = {"N_r": 66.0, "N_i": 12.0, "B_r": 18.0, "B_i": -33.0,
                "C_2r": -192.0, "C_2i": 72.0 * RT3, "P2_0": 12.0,
                "Q_r": 42.0, "Q_i": -20.0 * RT3}
    errs = [_rel(data.beta1, 7.0), _rel(data.omega, RT3),
            _rel(cf["b"].real, -17.0 / 8.0), _rel(cf["c"].real, 11.0 / 4.0),
            _rel((cf["b"] + cf["c"]).real, 5.0 / 8.0)]
    errs += [_rel(cf[k], v) for k, v in expected.items()]
    elapsed = time.time() - start
    ok = max(errs) <= 1e-12 and elapsed < 1.0
    _report(1, "published constants at alpha=2, delta1=delta2=1", ok,
            f"max rel err {max(errs):.2e}, {elapsed:.2f}s")


def test_criterion_2_a_coefficient():
    rng = np.random.default_rng(20)
    worst = 0.0
    exact_half = coeffs(CANON, "direct").a.real == 0.5
    for p in [CANON] + [random_admissible(rng, vary_domain=True)
                        for _ in range(50)]:
        d2e = p.effective_diffusion()[1]
        expected = 0.5 - 1j * d2e / (2.0 * onset(p).omega)
        for route in ("projection", "direct"):
            worst = max(worst, abs(coeffs(p, route).a - expected)
                        / (1.0 + abs(expected)))
    ok = worst <= 1e-12 and exact_half
    _report(2, "a = 1/2 - i delta2/(2 omega) by both routes, 51 parameter sets",
            ok, f"worst rel err {worst:.2e}")


def test_criterion_3_route_consistency():
    rng = np.random.default_rng(21)
    worst = 0.0
    for p in [CANON] + [random_admissible(rng, vary_domain=True)
                        for _ in range(20)]:
        for name in ("b", "c"):
            vp = getattr(coeffs(p, "projection"), name)
            vd = getattr(coeffs(p, "direct"), name)
            worst = max(worst, abs(vp - vd) / (1.0 + abs(vd)))
    golden_err = max(abs(coeffs(CANON, "direct").b - GOLDEN_B),
                     abs(coeffs(CANON, "direct").c - GOLDEN_C))
    rep = coeffs_report(CANON)
    closed_gap = rep["discrepancies"]["b:direct|closed_form"]
    ok = worst <= 1e-10 and golden_err <= 1e-12 and closed_gap > 1e-2
    _report(3, "projection == direct on 21 sets; canonical pinned to oracle; "
               "closed-form discrepancy reported", ok,
            f"route gap {worst:.2e}, golden err {golden_err:.2e}, "
            f"closed-form gap {closed_gap:.2f}")


def test_criterion_4_psi_residuals():
    rng = np.random.default_rng(22)
    worst = 0.0
    for p in [CANON] + [random_admissible(rng) for _ in range(5)]:
        psi = solve_psi(p)
        worst = max(worst, max(psi.residuals(p).values()))
    psi = solve_psi(CANON)
    structural = (psi.psi_00001.is_zero()
                  and (psi.psi_00110 - psi.psi_11000.reflect()).is_zero())
    verdict = coeffs_report(CANON)["mean_zero_obstruction"]["verdict"]
    ok = worst <= 1e-12 and structural and verdict == "present"
    _report(4, "reduction-function residuals, structure, mean-zero obstruction",
            ok, f"max residual {worst:.2e}, verdict {verdict}")


def test_criterion_5_spectral_onset():
    start = time.time()
    scan = onset_scan(CANON, n_max=64)
    rec1 = [r for r in scan.records if r.n == 1][0]
    crit_ok = (max(abs(r.real) for r in rec1.roots) <= 1e-10
               and min(abs(r.imag - RT3) for r in rec1.roots) <= 1e-10
               and min(abs(r.imag + RT3) for r in rec1.roots) <= 1e-10)
    off_axis = all(max(abs(r.real) for r in rec.roots) > 1e-10
                   for rec in scan.records if rec.n >= 2)
    turing_ok = turing_check(CANON).both_positive_real_part

    rng = np.random.default_rng(23)
    vieta_worst = 0.0
    for _ in range(500):
        p = random_admissible(rng)
        n = int(rng.integers(0, 9))
        beta = float(rng.uniform(0.5, 12.0))
        rec = mode_eigenvalues(p.with_beta(beta), n)
        from conftest import beta_n, gamma_n
        bn, gn = beta_n(p, n), gamma_n(p, n)
        scale = 1.0 + abs(bn) + abs(gn)
        vieta_worst = max(
            vieta_worst,
            abs(rec.roots[0] + rec.roots[1] + (bn - beta)) / scale,
            abs(rec.roots[0] * rec.roots[1]
                - (gn - (n * p.k1) ** 2 * p.delta2 * beta)) / scale)
    elapsed = time.time() - start
    ok = (crit_ok and off_axis and turing_ok and vieta_worst <= 1e-12
          and scan.verdict == "hopf_onset" and elapsed < 1.0)
    _report(5, "onset spectrum, no-Turing check, Vieta on 500 random cases",
            ok, f"vieta {vieta_worst:.2e}, {elapsed:.2f}s")


def test_criterion_6_linear_regime():
    start = time.time()
    details = []
    ok = True
    for beta, k in ((7.05, 1), (6.95, 1), (7.0, 2), (7.0, 3)):
        rate, predicted = measure_growth_rate(CANON, beta, k)
        rel = abs(rate - predicted) / abs(predicted)
        details.append(f"k={k} beta={beta}: {rel:.1%}")
        ok = ok and rel <= 0.05
        if k == 1:
            ok = ok and abs(predicted - (beta - 7.0) / 2.0) < 1e-12
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    _report(6, "PDE growth/decay rates match the dispersion relation",
            ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_7_nonlinear_scaling():
    start = time.time()
    result = amplitude_scaling_experiment(CANON, [0.01, 0.02, 0.03, 0.05])
    slope_ok = abs(result["slope"] - 0.5) <= 0.1
    freq_ok = abs(result["frequency_at_zero"] - RT3) <= 0.05 * RT3

    config = SimConfig(n_grid=128, dt=1e-3, perturb_kind="random",
                       eps=1e-2, seed=1)
    eq = equivariance_test(CANON, config, phi=0.7, t_end=1.0)
    eq_ok = max(eq["translation"], eq["reflection"]) <= 1e-8
    order = timestep_convergence_order(CANON.with_beta(6.8))
    elapsed = time.time() - start
    ok = slope_ok and freq_ok and eq_ok and order >= 1.8 and elapsed <= 600.0
    _report(7, "sqrt-mu amplitude law, Hopf frequency limit, equivariance, "
               "second-order stepping", ok,
            f"slope {result['slope']:.3f}, freq {result['frequency_at_zero']:.4f}, "
            f"commutator {max(eq['translation'], eq['reflection']):.1e}, "
            f"order {order:.2f}, {elapsed:.0f}s")


def test_criterion_8_reduced_dynamics():
    nf = coeffs(CANON, "projection")
    sys = ReducedSystem.from_coeffs(nf, 0.1)
    bps = {b.kind: b for b in branches(sys)}
    r_star = bps["rotating_wave_1"].r1
    _, z1, z2 = integrate_truncated(sys, (r_star + 0.02) + 0j, 0.005 + 0j,
                                    t_max=300.0, dt=1.0)
    radius_err = max(abs(abs(z1[-1]) - r_star), abs(z2[-1]))

    sw_sys = ReducedSystem.from_coeffs(nf, 0.05)
    sw = {b.kind: b for b in branches(sw_sys)}["standing_wave"]
    n = 128
    w_star = branch_frequency(sw)
    _, u_t, _ = reconstruct_wave(CANON, sw_sys, sw, 0.2, 1.4, t=0.3, n_grid=n)
    _, u_s, _ = reconstruct_wave(CANON, sw_sys, sw, 0.2, 1.4,
                                 t=0.3 + math.pi / w_star, n_grid=n)
    sym_err = float(np.max(np.abs(np.roll(u_t, n // 2, axis=1) - u_s)))

    cf = coeffs(CANON, "closed_form")
    relations_ok = cf.b.real < 0.0 and (cf.b + cf.c).real > 0.0
    reg = classify_regime(ReducedSystem.from_coeffs(cf, 0.1))
    ok = (radius_err <= 1e-6 and sym_err <= 1e-10 and relations_ok
          and not reg["degenerate"])
    _report(8, "trajectory convergence to branch radii, standing-wave "
               "symmetry, published sign relations", ok,
            f"radius err {radius_err:.1e}, symmetry err {sym_err:.1e}")
