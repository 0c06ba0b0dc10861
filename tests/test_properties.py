"""Property tests: the paper's invariants over admissible parameter sets.

Each example draws alpha, delta1, delta2 and the half-length, keeps the
sets where the O(2)-Hopf analysis applies, and sits at beta = beta1; the
far-side sets draw delta1 and delta2 log-uniformly, up to delta1 = 1e12.  The
algebraic properties draw 50 examples; the PDE properties draw a few short
runs (16-32 grid points, about 50 steps) to keep the suite fast.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from o2hopf import (ModelParams, SimConfig, Simulator, coeffs,
                    equivariance_test, initialize, mode_eigenvalues, onset, solve_psi)
from o2hopf.spectral import beta_n, gamma_n

PROPERTY = settings(max_examples=50, deadline=None, database=None)
PDE_PROPERTY = settings(max_examples=8, deadline=None, database=None)


@st.composite
def admissible_sets(draw):
    p = ModelParams(alpha=draw(st.floats(0.5, 3.0)), beta=1.0,
                    delta1=draw(st.floats(0.2, 2.0)), delta2=draw(st.floats(0.1, 1.5)),
                    half_length=draw(st.floats(1.0, 6.0)))
    data = onset(p)
    assume(data.admissible)
    return p.with_beta(data.beta1)


@PROPERTY
@given(admissible_sets())
def test_projection_equals_direct(p):
    proj, direct = coeffs(p, "projection"), coeffs(p, "direct")
    for name in "abc":
        want = getattr(direct, name)
        assert abs(getattr(proj, name) - want) <= 1e-10 * (1.0 + abs(want)), name


@PROPERTY
@given(admissible_sets())
def test_psi_residuals(p):
    assert max(solve_psi(p).residuals(p).values()) <= 1e-12


@st.composite
def far_side_sets(draw):
    """Admissible sets reaching delta1 >> delta2, where beta1 grows beyond 1e12."""
    p = ModelParams(alpha=draw(st.floats(0.5, 3.0)), beta=1.0,
                    delta1=10.0 ** draw(st.floats(-1.0, 12.0)),
                    delta2=10.0 ** draw(st.floats(-3.0, math.log10(1.5))),
                    half_length=draw(st.floats(1.0, 6.0)))
    data = onset(p)
    assume(data.admissible)
    return p.with_beta(data.beta1)


@PROPERTY
@given(far_side_sets())
def test_far_side_projection_equals_direct_with_small_residuals(p):
    proj, direct = coeffs(p, "projection"), coeffs(p, "direct")
    for name in "abc":
        want = getattr(direct, name)
        assert abs(getattr(proj, name) - want) <= 1e-10 * (1.0 + abs(want)), name
    assert max(solve_psi(p).residuals(p).values()) <= 1e-12


@PROPERTY
@given(admissible_sets(), st.integers(0, 8), st.floats(-1.0, 1.0))
def test_mode_eigenvalues_satisfy_vieta(p, n, mu):
    # lambda^2 + b lambda + c = 0 with b = beta(n) - beta, c = gamma(n) - k^2 delta2 beta
    beta = p.beta + mu
    b = beta_n(p, n) - beta
    c = gamma_n(p, n) - (n * p.k1) ** 2 * p.delta2 * beta
    r1, r2 = mode_eigenvalues(p.with_beta(beta), n).roots
    assert abs((r1 + r2) + b) <= 1e-12 * (1.0 + abs(r1) + abs(r2))
    assert abs(r1 * r2 - c) <= 1e-12 * (1.0 + abs(r1) * abs(r2))


@st.composite
def short_runs(draw):
    """A random-start SimConfig on 16-32 points with dt = 0.01."""
    return SimConfig(n_grid=draw(st.integers(16, 32)), dt=0.01, t_max=0.5,
                     perturb_kind="random", eps=1e-3, seed=draw(st.integers(0, 99)),
                     pin_mean=draw(st.booleans()))


@PDE_PROPERTY
@given(admissible_sets(), short_runs(),
       st.lists(st.tuples(st.floats(-0.2, 0.2), st.integers(30, 50)), min_size=2, max_size=3))
def test_batch_member_equals_solo_run(p, config, members):
    # each member runs at its own beta offset; alone it is a Simulator at that beta
    betas = [p.beta + offset for offset, _ in members]
    n_steps = [steps for _, steps in members]
    starts = np.stack([initialize(p.with_beta(beta), config) for beta in betas])
    batch = Simulator(p, config).advance(starts, betas, n_steps)
    for beta, steps, start, fields in zip(betas, n_steps, starts, batch):
        solo = Simulator(p.with_beta(beta), config).advance(start[None], [beta], [steps])
        assert np.array_equal(solo[0], fields)


@PDE_PROPERTY
@given(admissible_sets(), short_runs(), st.floats(-3.0, 3.0))
def test_flow_commutes_with_translation_and_reflection(p, config, phi):
    report = equivariance_test(p, config, phi, t_end=0.5)
    assert report["translation"] <= 1e-8
    assert report["reflection"] <= 1e-8
