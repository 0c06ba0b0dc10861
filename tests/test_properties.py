"""Property tests: the paper's invariants over admissible parameter sets.

Each example draws alpha, delta1, delta2 and the half-length, keeps the
sets where the O(2)-Hopf analysis applies, and sits at beta = beta1; the
far-side sets draw delta1 and delta2 log-uniformly, up to delta1 = 1e12, and
the extreme constants reach alpha = 1e160 and delta = 1e308, admissible or
not.  The algebraic properties draw 50 examples (300 extreme ones); a point
is checked against the same point in a batch on 4 000 seeded admissible
draws, with the sets their sampler rejected, and on far-side batches; the PDE
properties draw a few short runs (16-32 grid points, about 50 steps) to keep
the suite fast.
"""

import math
import warnings

import numpy as np
import pytest
from conftest import admissible, beta_n, gamma_n, random_admissible
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_normalform import _direct_80_digits

from o2hopf import (InadmissibleRegime, ModelParams, ReducedSystem, SimConfig, Simulator,
                    branches, classify_regime, coeffs, equivariance_test, initialize,
                    mode_eigenvalues, onset, onset_scan, solve_psi)
from o2hopf.normalform import ROUTES, _evaluate, _point, coeffs_batch
from o2hopf.params import hopf_bound, onset_terms
from o2hopf.reduced import regime_batch
from o2hopf.spectral import onset_poly

PROPERTY = settings(max_examples=50, deadline=None, database=None)
PDE_PROPERTY = settings(max_examples=8, deadline=None, database=None)


@st.composite
def admissible_sets(draw):
    p = ModelParams(alpha=draw(st.floats(0.5, 3.0)), beta=1.0,
                    delta1=draw(st.floats(0.2, 2.0)), delta2=draw(st.floats(0.1, 1.5)),
                    half_length=draw(st.floats(1.0, 6.0)))
    assume(admissible(p))
    return p.with_beta(onset(p).beta1)


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
    assume(admissible(p))
    return p.with_beta(onset(p).beta1)


@PROPERTY
@given(far_side_sets())
def test_far_side_projection_equals_direct_with_small_residuals(p):
    proj, direct = coeffs(p, "projection"), coeffs(p, "direct")
    for name in "abc":
        want = getattr(direct, name)
        assert abs(getattr(proj, name) - want) <= 1e-10 * (1.0 + abs(want)), name
    assert max(solve_psi(p).residuals(p).values()) <= 1e-12


def _at_onset(**constants):
    p = ModelParams(beta=1.0, **constants)
    return p.with_beta(onset(p).beta1)


@PROPERTY
@given(st.one_of(admissible_sets(), far_side_sets()))
# alpha * alpha = 2.013636429095056, where libm gives alpha ** 2 = 2.0136364290950555
@example(_at_onset(alpha=1.419026578008691, delta1=1.0, delta2=0.5, half_length=2.0))
def test_onset_poly_is_the_characteristic_polynomial_at_beta1(p):
    # P_n(z) = z^2 + (beta(n) - beta1) z + gamma(n) - k^2 delta2 beta1 at the
    # four values the routes divide by, to the rounding of its largest term
    beta1, w = onset(p).beta1, onset(p).omega
    d1, d2 = p.effective_diffusion()
    for n, at in ((0, None), (0, w), (2, None), (2, w)):
        z = 0.0 if at is None else 2j * w
        k2d2 = (n * p.k1) ** 2 * p.delta2
        want = z * z + (beta_n(p, n) - beta1) * z + gamma_n(p, n) - k2d2 * beta1
        size = abs(z) ** 2 + beta_n(p, n) * abs(z) + gamma_n(p, n) + k2d2 * beta1
        assert abs(onset_poly(p.alpha, d1, d2, float(n * n), at) - want) <= 2e-14 * size
    # none of them vanishes below the Turing bound
    assert onset_poly(p.alpha, d1, d2, 0.0) == p.alpha * p.alpha
    assert onset_poly(p.alpha, d1, d2, 4.0) > 0.0
    for n2, im in ((4.0, 6.0 * w * (d1 + d2)), (0.0, -2.0 * w * (d1 + d2))):
        assert abs(onset_poly(p.alpha, d1, d2, n2, w).imag - im) <= 1e-15 * abs(im)


def _quadratic_roots(b, c):
    """Roots of lambda^2 + b lambda + c by the scalar formula: onset_scan's reference."""
    disc = b * b - 4.0 * c
    if disc >= 0.0:
        sq = math.sqrt(disc)
        q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else sq / 2.0
        if q == 0.0:
            return (0.0 + 0.0j, 0.0 + 0.0j)
        return (complex(q), complex(c / q))
    sq = math.sqrt(-disc)
    return (complex(-b / 2.0, sq / 2.0), complex(-b / 2.0, -sq / 2.0))


def _bits(*values):
    return [np.asarray(v).tobytes() for v in values]


def _assert_points_are_a_batch(sets):
    """Each set's scalar admissibility, onset, coefficients of every route and published
    constants carry the bits of its entry in one array evaluation of all the sets."""
    alpha, delta1, delta2, length = (np.array([getattr(p, name) for p in sets])
                                     for name in ("alpha", "delta1", "delta2", "half_length"))
    terms = onset_terms(alpha, delta1, delta2, length)
    bound = hopf_bound(alpha, delta1, delta2)
    mask = terms[-1]
    kept = [v[mask] for v in (alpha, *terms[:2])]
    values, errors = coeffs_batch(*kept)
    routes, refused = _evaluate(*kept, ROUTES)
    j = 0
    for i, p in enumerate(sets):
        assert _bits(*onset_terms(p.alpha, p.delta1, p.delta2, p.half_length),
                     hopf_bound(p.alpha, p.delta1, p.delta2)) == \
            _bits(*(t[i] for t in terms), bound[i])
        if not mask[i]:
            with pytest.raises(InadmissibleRegime):
                onset(p)
            continue
        data = onset(p)
        assert _bits(data.beta1, data.omega) == _bits(terms[2][i], np.sqrt(terms[3][i]))
        point = _point(p, ROUTES)[1]   # every route in one pass, as coeffs_report runs them
        nf, cf = point["projection"], point["closed_form"]
        assert errors[j] is None and refused[j] is None
        assert _bits(*(nf[name] for name in "abc"), cf["b"], cf["c"]) == _bits(*(
            values[name][j] for name in (
                "a", "b_projection", "c_projection", "b_closed_form", "c_closed_form")))
        for route, out in point.items():
            assert _bits(*out.values()) == _bits(*(routes[route][key][..., j] for key in out))
        j += 1


def test_a_point_is_a_batch_of_one_on_seeded_draws():
    # 4 000 admissible draws from admissible_sets' ranges, and the sets they rejected
    rng = np.random.default_rng(20)
    sets, n_admissible = [], 0
    while n_admissible < 4000:
        p = ModelParams(alpha=float(rng.uniform(0.5, 3.0)), beta=1.0,
                        delta1=float(rng.uniform(0.2, 2.0)),
                        delta2=float(rng.uniform(0.1, 1.5)),
                        half_length=float(rng.uniform(1.0, 6.0)))
        ok = admissible(p)
        n_admissible += ok
        sets.append(p.with_beta(onset(p).beta1) if ok else p)
    assert len(sets) > n_admissible
    _assert_points_are_a_batch(sets)


@PROPERTY
@given(st.lists(far_side_sets(), min_size=1, max_size=8))
def test_a_far_side_point_is_a_batch_of_one(sets):
    _assert_points_are_a_batch(sets)


def test_onset_scan_is_the_scalar_root_formula_in_one_pass():
    rng = np.random.default_rng(21)
    for _ in range(300):
        p = random_admissible(rng, vary_domain=True)
        p = p.with_beta(p.beta + float(rng.choice([0.0, rng.uniform(-1.0, 1.0)])))
        scan = onset_scan(p, n_max=64)
        assert [r.n for r in scan.records] == list(range(65))
        for rec in scan.records:
            k = rec.n * p.k1
            roots = _quadratic_roots(beta_n(p, rec.n) - p.beta,
                                     gamma_n(p, rec.n) - k * k * p.delta2 * p.beta)
            assert _bits(rec.k, rec.roots, rec.max_real_part) == \
                _bits(k, roots, max(r.real for r in roots))
            assert mode_eigenvalues(p, rec.n) == rec


@st.composite
def extreme_constants(draw):
    """Log-uniform constants up to alpha = 1e160 and delta = 1e308, admissible or not."""
    return ModelParams(alpha=10.0 ** draw(st.floats(-3.0, 160.0)), beta=1.0,
                       delta1=10.0 ** draw(st.floats(-10.0, 308.0)),
                       delta2=10.0 ** draw(st.floats(-10.0, 308.0)),
                       half_length=10.0 ** draw(st.floats(-2.0, 2.0)))


@settings(max_examples=300, deadline=None, database=None)
@given(extreme_constants())
def test_extreme_constants_are_solved_or_refused_in_one_line(p):
    # the coefficients do not depend on beta; a route either computes finite
    # a, b and c or refuses the set in one InadmissibleRegime line, and the
    # projection and direct routes compute them to 1e-14 where they do
    solved = {}
    for route in ROUTES:
        try:
            nf = coeffs(p, route)
        except InadmissibleRegime as exc:
            assert "\n" not in str(exc)
            continue
        assert all(math.isfinite(abs(v)) for v in (nf.a, nf.b, nf.c)), route
        solved[route] = nf
    if {"projection", "direct"} <= solved.keys():
        for name in "abc":
            want = getattr(solved["direct"], name)
            got = getattr(solved["projection"], name)
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want)), name
    exact = solved.keys() - {"closed_form"}
    if exact:
        mp = pytest.importorskip("mpmath")
        want = _direct_80_digits(mp, p.alpha, *p.effective_diffusion())
        for route in exact:
            for name in "abc":
                got = getattr(solved[route], name)
                assert abs(got - want[name]) <= 1e-14 * abs(want[name]), (route, name)


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


_COEFFICIENTS = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
_MAGNITUDES = st.one_of(st.sampled_from([5e-324, 1e-300, 1e-11, 1e154, 1e300, 1e308]),
                        st.floats(5e-324, 1.7e308))


def _verdict(a, b, c, mu):
    sys_ = ReducedSystem(mu=mu, omega=1.0, a=a, b=b, c=c)
    batch = regime_batch(*(np.array([v]) for v in (mu, 1.0, a, b, c)))
    relations = batch.pop("relations")
    # the radii and frequencies scale with mu; the rest of the record is the verdict
    return (classify_regime(sys_), [(p.kind, p.stability) for p in branches(sys_)],
            {k: bool(v[0]) for k, v in relations.items()},
            {(name, k): str(family[k][0]) for name, family in batch.items()
             for k in ("exists", "stability", "stable")})


@settings(max_examples=300, deadline=None, database=None)
@given(_COEFFICIENTS, _COEFFICIENTS, _COEFFICIENTS, _MAGNITUDES, st.sampled_from([1.0, -1.0]))
def test_wave_verdict_does_not_depend_on_the_scale_of_mu(a, b, c, magnitude, sign):
    # the equilibria's r^2 and radial eigenvalues are proportional to mu
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _verdict(a, b, c, sign * magnitude) == _verdict(a, b, c, sign * 0.1)


@st.composite
def short_runs(draw):
    """A random-start SimConfig on 16-32 points with dt = 0.01."""
    return SimConfig(n_grid=draw(st.integers(16, 32)), dt=0.01, t_max=0.5,
                     perturb_kind="random", eps=1e-3, seed=draw(st.integers(0, 99)),
                     pin_mean=draw(st.booleans()))


@PDE_PROPERTY
@given(admissible_sets(), short_runs(), st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=3),
       st.integers(30, 50), st.integers(1, 7))
def test_batch_member_equals_solo_run(p, config, offsets, n_steps, sample_every):
    # each member runs at its own beta offset and start; alone it is a Simulator at that beta
    betas = [p.beta + offset for offset in offsets]
    starts = np.stack([initialize(p.with_beta(beta), config) for beta in betas])
    modes = [(0, 1), (1, 0), (1, 2)]
    batch, samples = Simulator(p, config).advance(starts, betas, n_steps, sample_every, modes)
    for beta, start, fields, sampled in zip(betas, starts, batch, samples):
        solo, (solo_sampled,) = Simulator(p.with_beta(beta), config).advance(
            start[None], [beta], n_steps, sample_every, modes)
        assert solo[0].tobytes() == fields.tobytes()
        assert solo_sampled.tobytes() == sampled.tobytes()


@PDE_PROPERTY
@given(admissible_sets(), short_runs(), st.floats(-3.0, 3.0))
def test_flow_commutes_with_translation_and_reflection(p, config, phi):
    report = equivariance_test(p, config, phi, t_end=0.5)
    assert report["translation"] <= 1e-8
    assert report["reflection"] <= 1e-8
