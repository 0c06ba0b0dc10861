"""Property tests: the paper's algebraic invariants over admissible parameter sets.

Each example draws alpha, delta1, delta2 and the half-length, keeps the
sets where the O(2)-Hopf analysis applies, and sits at beta = beta1.  No
PDE runs here, so the examples stay cheap.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from o2hopf import ModelParams, coeffs, mode_eigenvalues, onset, solve_psi
from o2hopf.spectral import beta_n, gamma_n

PROPERTY = settings(max_examples=50, deadline=None, database=None)


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


@PROPERTY
@given(admissible_sets(), st.integers(0, 8), st.floats(-1.0, 1.0))
def test_mode_eigenvalues_satisfy_vieta(p, n, mu):
    # lambda^2 + b lambda + c = 0 with b = beta(n) - beta, c = gamma(n) - k^2 delta2 beta
    beta = p.beta + mu
    b = beta_n(p, n) - beta
    c = gamma_n(p, n) - (n * p.k1) ** 2 * p.delta2 * beta
    r1, r2 = mode_eigenvalues(p, n, beta).roots
    assert abs((r1 + r2) + b) <= 1e-12 * (1.0 + abs(r1) + abs(r2))
    assert abs(r1 * r2 - c) <= 1e-12 * (1.0 + abs(r1) * abs(r2))
