import math
import time

import numpy as np
import pytest
from conftest import beta_n, gamma_n, random_admissible

from o2hopf import InadmissibleRegime, InvalidConfig, ModelParams, onset, validate
from o2hopf.spectral import (inner_product, mode_eigenvalues, mode_matrix, onset_scan,
                             turing_check, xi1, xi1_star, xi2)

CANON = validate({"alpha": 2.0, "beta": 7.0})
RT3 = math.sqrt(3.0)


def test_beta_gamma_values():
    assert beta_n(CANON, 1) == 7.0
    assert beta_n(CANON, 0) == 5.0
    assert gamma_n(CANON, 0) == 4.0
    assert gamma_n(CANON, 1) == 10.0
    # gamma(1) - delta2*beta1 = omega^2
    assert abs(gamma_n(CANON, 1) - 1.0 * 7.0 - 3.0) < 1e-14


def test_gamma_omega_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = random_admissible(rng)
        data = onset(p)
        k2 = p.k1 ** 2
        assert abs(gamma_n(p, 1) - k2 * p.delta2 * data.beta1
                   - data.omega ** 2) < 1e-10 * (1 + data.beta1)


def test_critical_mode_roots():
    rec = mode_eigenvalues(CANON, 1)
    roots = sorted(rec.roots, key=lambda r: r.imag)
    assert abs(roots[1] - 1j * RT3) < 1e-12
    assert abs(roots[0] + 1j * RT3) < 1e-12


def test_zero_mode_roots():
    rec = mode_eigenvalues(CANON, 0)
    roots = sorted(rec.roots, key=lambda r: r.imag)
    assert abs(roots[1] - (1.0 + 1j * RT3)) < 1e-12
    assert abs(roots[0] - (1.0 - 1j * RT3)) < 1e-12


def test_mode_two_off_axis():
    rec = mode_eigenvalues(CANON, 2)
    assert all(abs(r.real) > 1e-6 for r in rec.roots)


def test_vieta_500_random():
    rng = np.random.default_rng(1)
    start = time.time()
    for _ in range(500):
        p = random_admissible(rng)
        n = int(rng.integers(0, 9))
        beta = float(rng.uniform(0.5, 12.0))
        rec = mode_eigenvalues(p.with_beta(beta), n)
        s = rec.roots[0] + rec.roots[1]
        pr = rec.roots[0] * rec.roots[1]
        bn, k2 = beta_n(p, n), (n * p.k1) ** 2
        gn = gamma_n(p, n)
        scale = 1.0 + abs(bn) + abs(gn)
        assert abs(s + (bn - beta)) < 1e-12 * scale
        assert abs(pr - (gn - k2 * p.delta2 * beta)) < 1e-12 * scale
    assert time.time() - start < 5.0


def test_evenness():
    for n in range(1, 6):
        a = mode_eigenvalues(CANON.with_beta(6.9), n)
        b = mode_eigenvalues(CANON.with_beta(6.9), -n)
        assert a.roots == b.roots


def test_onset_scan_verdicts():
    scan = onset_scan(CANON, n_max=16)
    assert scan.verdict == "hopf_onset"
    assert scan.critical_modes == [-1, 1]

    scan = onset_scan(CANON.with_beta(6.5), n_max=16)
    assert scan.verdict == "stable"
    assert scan.critical_modes == []
    assert all(r.max_real_part < 0 for r in scan.records if r.n != 0)

    scan = onset_scan(CANON.with_beta(7.5), n_max=16)
    assert scan.verdict == "unstable"


def test_onset_scan_requires_admissible():
    with pytest.raises(InadmissibleRegime):
        onset_scan(ModelParams(alpha=1.0, beta=1.0))


@pytest.mark.parametrize("n_max", [1, 100_001, 10**8])
def test_onset_scan_refuses_n_max_out_of_range(n_max):
    with pytest.raises(ValueError, match=f"^n_max must be at least 2 and at most 100000, "
                                         f"got {n_max}$"):
        onset_scan(CANON, n_max=n_max)


@pytest.mark.parametrize("n_max, named", [(64.0, "64.0"), (True, "True"), ("8", "'8'")],
                         ids=["float", "bool", "text"])
def test_onset_scan_needs_an_integer_n_max(n_max, named):
    # 64.0 and "8" raised untyped TypeErrors, from range and from the comparison
    with pytest.raises(InvalidConfig, match=f"^n_max must be an integer, got {named}$"):
        onset_scan(CANON, n_max=n_max)
    assert onset_scan(CANON, n_max=np.int64(8)) == onset_scan(CANON, n_max=8)


@pytest.mark.parametrize("helper", [onset_scan, xi1, xi2, xi1_star, turing_check])
def test_spectral_helpers_refuse_inadmissible_sets_as_validate_does(helper):
    # omega^2 < 0 here: xi1_star divided by omega = 0, xi1/xi2 used it and
    # turing_check returned a TuringReport
    p = ModelParams(alpha=0.5, beta=3.0, delta1=0.1, delta2=2.0)
    with pytest.raises(InadmissibleRegime) as want:
        validate(p)
    with pytest.raises(InadmissibleRegime) as got:
        helper(p)
    assert str(got.value) == str(want.value)


def test_onset_certificate():
    scan = onset_scan(CANON, n_max=64)
    assert scan.certificate_margin > 0
    # the closed-form bound really does minorize the constant terms
    for rec in scan.records:
        if rec.n == 0:
            continue
        k2 = rec.k ** 2
        const = gamma_n(CANON, rec.n) - k2 * CANON.delta2 * 7.0
        assert const >= k2 * scan.certificate_margin - 1e-12


def test_onset_certificate_of_an_overflowing_bound():
    # beta1 ~ 1e200 is finite, the bound (1 + alpha sqrt(delta1/delta2))^2 is
    # not: the margin is +inf without a warning
    p = ModelParams(alpha=1e100, beta=1.0, delta1=1e10, delta2=1e-200)
    p = p.with_beta(onset(p).beta1)   # admissible: onset raises otherwise
    assert onset_scan(p, n_max=2).certificate_margin == math.inf


def test_rescaled_domain_onset():
    # delta = 1/4 on half_length pi/2 has its Hopf onset at wave number 2
    p = validate({"alpha": 2.0, "beta": 7.0, "delta1": 0.25, "delta2": 0.25,
                  "half_length": math.pi / 2})
    scan = onset_scan(p, n_max=16)
    assert scan.verdict == "hopf_onset"
    assert scan.critical_modes == [-1, 1]
    assert abs(scan.records[1].k - 2.0) < 1e-14


def test_turing_check():
    rep = turing_check(CANON)
    assert rep.both_positive_real_part
    roots = sorted(rep.roots, key=lambda r: r.imag)
    assert abs(roots[1] - (1.0 + 1j * RT3)) < 1e-12

    rep = turing_check(ModelParams(alpha=10.0, beta=103.0))
    assert rep.both_positive_real_part


def test_eigenfunction_amplitudes():
    amp = xi1(CANON).amp(1)
    assert np.allclose(amp, [1.0, (-5.0 + 1j * RT3) / 4.0])
    assert xi2(CANON).indices() == [-1]
    assert np.allclose(xi2(CANON).amp(-1), amp)


def test_eigen_residuals():
    rng = np.random.default_rng(2)
    for p in [CANON] + [random_admissible(rng, vary_domain=True) for _ in range(10)]:
        data = onset(p)
        m1 = mode_matrix(p, 1, data.beta1)
        a1 = xi1(p).amp(1)
        assert np.linalg.norm(m1 @ a1 - 1j * data.omega * a1) \
            <= 1e-12 * (1 + np.linalg.norm(m1)) * np.linalg.norm(a1)
        a2 = xi2(p).amp(-1)
        m_1 = mode_matrix(p, -1, data.beta1)
        assert np.linalg.norm(m_1 @ a2 - 1j * data.omega * a2) \
            <= 1e-12 * (1 + np.linalg.norm(m1)) * np.linalg.norm(a2)
        # adjoint relation for the dual amplitude
        s1 = xi1_star(p).amp(1)
        assert np.linalg.norm(m1.conj().T @ s1 + 1j * data.omega * s1) \
            <= 1e-12 * (1 + np.linalg.norm(m1)) * np.linalg.norm(s1)


def test_inner_product_normalization():
    rng = np.random.default_rng(3)
    for p in [CANON] + [random_admissible(rng, vary_domain=True) for _ in range(10)]:
        data = onset(p)
        assert abs(inner_product(p, xi1(p), xi1_star(p)) - 1.0) < 1e-13
        assert inner_product(p, xi1(p), xi2(p)) == 0.0
        # pairing of e^{ix}(1,-1)^T with the dual
        from o2hopf.modes import ModeSum
        probe = ModeSum.single(1, [1.0, -1.0])
        d1e, d2e = p.effective_diffusion()
        expected = -1j * (d2e + 1j * data.omega) / (2.0 * data.omega)
        assert abs(inner_product(p, probe, xi1_star(p)) - expected) < 1e-13


def test_inner_product_domain_mismatch():
    from o2hopf import DomainMismatch
    with pytest.raises(DomainMismatch):
        inner_product(CANON, xi1(CANON), np.zeros(4))


def test_dispersion_curve_rows():
    # the onset --csv dispersion rows are read off these scan records
    records = onset_scan(CANON, n_max=8).records
    assert len(records) == 9
    rec = records[1]
    assert rec.n == 1 and abs(rec.k - 1.0) < 1e-14
    assert abs(rec.max_real_part) < 1e-12 and abs(rec.leading - 1j * RT3) < 1e-12


def test_leading_root_is_the_larger_real_then_imaginary_part():
    # a complex pair shares its real part, so the +i branch leads; a real pair by Re
    for beta, n in ((7.0, 1), (6.9, 2), (7.0, 0), (7.0, 20)):
        rec = mode_eigenvalues(CANON.with_beta(beta), n)
        assert rec.leading == max(rec.roots, key=lambda z: (z.real, z.imag))
        assert rec.leading.real == rec.max_real_part
        if rec.roots[0].imag:
            assert rec.leading.imag > 0.0 and rec.leading == rec.roots[0]
