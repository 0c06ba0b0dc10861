"""Simulator.advance against the member-major loop it replaced, kept as the reference.

The stepper carries its batch species-major so that every ufunc of a step
is a same-shape contiguous call; each element gets the same arithmetic in
the same order as in the loop below, which carries the batch as (B, 2, K)
spectra and hands each sample's spectra to an observer, so the fields and
every sampled coefficient must be the same bits.
"""

import numpy as np
import pytest
from numpy.fft._pocketfft_umath import irfft

from o2hopf import NumericalBlowup, SimConfig, Simulator, initialize, validate
from o2hopf.pdesim import BLOWUP_NORM

CANON = validate({"alpha": 2.0, "beta": 7.0})


def _check_bound(U, buf, t):
    if not np.abs(U, out=buf).max(initial=0.0) <= BLOWUP_NORM:   # False for NaN too
        raise NumericalBlowup(f"field norm exceeded {BLOWUP_NORM:g} at t = {t:g}")


def _coefficients(sim, betas):
    alpha = sim.params.alpha
    lin = np.stack([-(betas + 1.0), betas], axis=-1)[:, :, None] + 0j
    return lin, np.stack([np.full_like(betas, alpha), betas / alpha], axis=-1)


def _dealias(n):
    """The 2/3 rule by wave index, j <= 2 floor(N/2)/3, over N for the unit mean,
    signed for the two species."""
    kept = np.arange(n // 2 + 1) <= 2 * (n // 2) // 3
    return np.array([[1.0], [-1.0]]) * kept / n + 0j


def _stage(sim, out, base, S, U, lin, mask, h, cube, r, q):
    np.multiply(U[:, 0], U[:, 0], out=cube)
    cube *= U[:, 1]
    sim._rfft(cube, 1.0, out=r)
    np.multiply(r[:, None], mask, out=q)
    np.multiply(lin, S[:, :1], out=out)
    out += base
    out += q
    out[:, 0, 0] += h * sim.params.alpha
    return out


def reference_advance(sim, U, betas, n_steps, sample_every=0, observe=None):
    """The member-major advance loop, without its input checks.

    A pinned run's means are set at the start and after each stage, where
    the stepper's projected operator leaves them."""
    dt, n = sim.config.dt, sim.config.n_grid
    betas = np.asarray(betas, dtype=float)
    U = np.array(U, dtype=float)
    lin, mean = _coefficients(sim, betas)
    half_lin, full_lin = (0.5 * dt) * lin, dt * lin
    half_mask, full_mask = (0.5 * dt) * _dealias(n), dt * _dealias(n)
    S = sim._spectrum(U, 1.0 / n)
    S *= sim._half
    if sim.config.pin_mean:
        S[..., 0] = mean
    absU, cube, r = np.empty_like(U), np.empty_like(U[:, 0]), np.empty_like(S[:, 0])
    q, mid, S2 = np.empty_like(S), np.empty_like(S), np.empty_like(S)
    for i in range(1, n_steps + 1):
        irfft(S, 1.0, out=U)
        if i > 1:
            _check_bound(U, absU, (i - 1) * dt)
        _stage(sim, mid, S, S, U, half_lin, half_mask, 0.5 * dt, cube, r, q)
        if sim.config.pin_mean:
            mid[..., 0] = mean
        irfft(mid, 1.0, out=U)
        S, S2 = _stage(sim, S2, S, mid, U, full_lin, full_mask, dt, cube, r, q), S
        if sim.config.pin_mean:
            S[..., 0] = mean
        if sample_every and i % sample_every == 0 or i == n_steps:
            np.multiply(S, sim._half, out=mid)
        if sample_every and i % sample_every == 0:
            observe(mid)
        S *= sim._full
    if n_steps:
        irfft(mid, 1.0, out=U)
        _check_bound(U, absU, n_steps * dt)
    return U


# the batch stops on a sample step at every 1 and 7, the pair between two samples at 7
MEMBERS = {
    "solo": ([7.05], 40),
    "batch": ([6.9, 7.05, 7.1], 21),
    "pair": ([6.95, 7.1], 33),
    "zero_step": ([7.0, 6.95, 7.1], 0),
    "empty": ([], 12),
}


def _reference_samples(sim, starts, betas, n_steps, sample_every):
    """The reference loop's fields and its observed spectra, (B, samples, 2 (N//2 + 1)):
    each row every (species, wave index) coefficient of one member, species 0 first."""
    shape, rows = (len(starts), 2 * (sim.config.n_grid // 2 + 1)), []
    fields = reference_advance(sim, starts, betas, n_steps, sample_every,
                               lambda spectrum: rows.append(spectrum.reshape(shape).copy()))
    return fields, np.array(rows, dtype=complex).reshape((len(rows),) + shape).swapaxes(0, 1)


@pytest.mark.parametrize("sample_every", [0, 1, 7])
@pytest.mark.parametrize("n", [16, 17, 64, 128])
@pytest.mark.parametrize("pin_mean", [True, False])
def test_advance_is_the_reference_loop(pin_mean, n, sample_every):
    config = SimConfig(n_grid=n, dt=1e-2, perturb_kind="random", seed=5, eps=5e-2,
                       pin_mean=pin_mean)
    sim = Simulator(CANON, config)
    start = initialize(CANON, config)
    every_mode = [(s, k) for s in (0, 1) for k in range(n // 2 + 1)]
    for name, (betas, n_steps) in MEMBERS.items():
        offsets = 0.02 * np.arange(len(betas))[:, None, None] * [[0.0], [1.0]]
        starts = start + offsets
        reference, reference_samples = _reference_samples(sim, starts, betas, n_steps,
                                                          sample_every)
        if sample_every:
            fields, samples = sim.advance(starts, betas, n_steps, sample_every, every_mode)
            shape = (len(betas), n_steps // sample_every, len(every_mode))
            assert samples.shape == reference_samples.shape == shape, name
            assert samples.tobytes() == reference_samples.tobytes(), name
        else:
            fields = sim.advance(starts, betas, n_steps)
        assert fields.shape == starts.shape, name
        assert fields.tobytes() == reference.tobytes(), name


def test_blowup_is_named_as_in_the_reference():
    config = SimConfig(n_grid=32, dt=0.5, perturb_kind="random", seed=1, eps=0.5)
    sim = Simulator(CANON, config)
    starts = np.stack([initialize(CANON, config)] * 2)
    messages = []
    for stepper in (lambda *a: reference_advance(sim, *a), sim.advance):
        with pytest.raises(NumericalBlowup) as info:
            stepper(starts, [7.0, 40.0], 400)
        messages.append(str(info.value))
    assert messages[0] == messages[1]

