import math

import numpy as np
import pytest
from conftest import evaluate_on_grid, random_admissible

from o2hopf import ModeSum, R01, R20, R30, onset, validate
from o2hopf.spectral import inner_product, xi1, xi1_star, xi2

CANON = validate({"alpha": 2.0, "beta": 7.0})
RT3 = math.sqrt(3.0)


def random_mode_sum(rng, n_modes=3, span=3):
    terms = {}
    for _ in range(n_modes):
        n = int(rng.integers(-span, span + 1))
        terms[n] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return ModeSum(terms)


class TestModeSum:
    def test_addition_merges_indices(self):
        a = ModeSum({1: [1.0, 0.0], 2: [0.0, 1.0]})
        b = ModeSum({1: [2.0, 1.0]})
        s = a + b
        assert np.allclose(s.amp(1), [3.0, 1.0])
        assert np.allclose(s.amp(2), [0.0, 1.0])

    def test_zero_amplitudes_dropped(self):
        assert ModeSum({3: [0.0, 0.0]}).terms == {}
        assert ModeSum.zero().is_zero()

    def test_conj_negates_index(self):
        v = ModeSum({2: [1.0 + 1j, 3.0]})
        c = v.conj()
        assert c.indices() == [-2]
        assert np.allclose(c.amp(-2), [1.0 - 1j, 3.0])

    def test_reflect_keeps_amplitude(self):
        v = ModeSum({1: [1j, 2.0]})
        r = v.reflect()
        assert r.indices() == [-1]
        assert np.allclose(r.amp(-1), [1j, 2.0])

    def test_scalar_multiplication_and_norm(self):
        v = ModeSum({0: [3.0, 4.0]})
        assert v.norm() == 5.0
        assert (2.0 * v).norm() == 10.0
        assert (v - v).is_zero()

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            ModeSum({0: [1.0, 2.0, 3.0]})


class TestPinnedValues:
    """Hand-checked values at alpha=2, delta1=delta2=1."""

    def test_r01_of_critical_eigenfunction(self):
        out = R01(xi1(CANON))
        assert out.indices() == [1]
        assert np.allclose(out.amp(1), [1.0, -1.0])

    def test_a_coefficient_pairing(self):
        val = inner_product(CANON, R01(xi1(CANON)), xi1_star(CANON))
        assert abs(val - (0.5 - 1j / (2.0 * RT3))) < 1e-14

    def test_r20_self_conjugate_pair(self):
        # -2 R20(xi1, conj xi1) = ((4(alpha^2+delta2) - 2 beta1)/alpha)(1,-1)^T
        out = -2.0 * R20(CANON, xi1(CANON), xi1(CANON).conj())
        assert out.indices() == [0]
        assert np.allclose(out.amp(0), [3.0, -3.0], atol=1e-14)

    def test_r20_self_interaction(self):
        # R20(xi1, xi1) = ((-2(alpha^2+delta2) + beta1 + 2 i omega)/alpha) e^{2ix}(1,-1)^T
        out = R20(CANON, xi1(CANON), xi1(CANON))
        expected = (-1.5 + 1j * RT3)
        assert out.indices() == [2]
        assert np.allclose(out.amp(2), expected * np.array([1.0, -1.0]))

    def test_r30_cubic_terms(self):
        x1 = xi1(CANON)
        out = 3.0 * R30(x1, x1, x1.conj())
        expected = (-15.0 + 1j * RT3) / 4.0
        assert np.allclose(out.amp(1), expected * np.array([1.0, -1.0]))

        x2 = xi2(CANON)
        out = 6.0 * R30(x1, x2, x2.conj())
        assert np.allclose(out.amp(1), 2.0 * expected * np.array([1.0, -1.0]))


class TestAlgebraicProperties:
    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            u, v = random_mode_sum(rng), random_mode_sum(rng)
            assert (R20(CANON, u, v) - R20(CANON, v, u)).norm() < 1e-12

    def test_r30_permutation_invariance(self):
        rng = np.random.default_rng(8)
        u, v, w = (random_mode_sum(rng) for _ in range(3))
        base = R30(u, v, w)
        for args in ((u, w, v), (v, u, w), (v, w, u), (w, u, v), (w, v, u)):
            assert (R30(*args) - base).norm() < 1e-12

    def test_index_additivity(self):
        u = ModeSum.single(2, [1.0, 0.5])
        v = ModeSum.single(-3, [0.3, 1.0])
        w = ModeSum.single(1, [1.0, 1.0])
        assert R20(CANON, u, v).indices() == [-1]
        assert R30(u, v, w).indices() == [0]

    def test_conjugation_equivariance(self):
        rng = np.random.default_rng(9)
        u, v = random_mode_sum(rng), random_mode_sum(rng)
        d = R20(CANON, u, v).conj() - R20(CANON, u.conj(), v.conj())
        assert d.norm() < 1e-12
        w = random_mode_sum(rng)
        d = R30(u, v, w).conj() - R30(u.conj(), v.conj(), w.conj())
        assert d.norm() < 1e-12


def test_consistency_with_pde_kinetics():
    """R20(v,v) + R30(v,v,v) equals the nonlinear remainder of the kinetics.

    The reaction terms are polynomial, so expanding u = (alpha, beta1/alpha) + v
    at beta = beta1 gives a quadratic-plus-cubic remainder exactly.
    """
    rng = np.random.default_rng(11)
    for params in (CANON, random_admissible(rng)):
        beta1 = onset(params).beta1
        v = random_mode_sum(rng, n_modes=4)
        v = 0.05 * (v + v.conj())   # real-valued small field
        x = np.linspace(-params.half_length, params.half_length, 96,
                        endpoint=False)
        vg = evaluate_on_grid(v, params, x).real
        alpha = params.alpha
        n1 = (beta1 / alpha) * vg[0] ** 2 + 2.0 * alpha * vg[0] * vg[1] \
            + vg[0] ** 2 * vg[1]
        algebraic = R20(params, v, v) + R30(v, v, v)
        ag = evaluate_on_grid(algebraic, params, x)
        assert np.max(np.abs(ag[0].real - n1)) < 1e-10
        assert np.max(np.abs(ag[1].real + n1)) < 1e-10
        assert np.max(np.abs(ag.imag)) < 1e-10
