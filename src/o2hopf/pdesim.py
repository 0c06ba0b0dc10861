"""Pseudospectral simulation of the Brusselator on the periodic interval.

Strang splitting per step: exact diffusion half-steps in Fourier space
(multipliers exp(-delta k^2 dt/2)) around one explicit midpoint step of the
reaction terms.  The cubic product is formed in physical space and
dealiased by the 2/3 rule, by wave index: it keeps j <= 2 floor(N/2)/3
(SimConfig.cutoff), the same at every half-length.  The scheme is second
order in dt and bitwise deterministic for a fixed seed and configuration.

A state is the (2, N) array of u1 and u2 on the grid, as ``initialize``
returns it.  ``Simulator.advance`` is the one stepper: it integrates a
batch of B runs by one step count, given and returned as fields (B, 2, N),
and a single run is a batch of one.  It carries each run as its unit-mean
spectrum rfft(U)/N (coefficient 0 is the spatial mean) half a diffusion
step into the step, and a sample copies coefficients out of that spectrum:
a step takes four transforms and a sample none.  The transforms are numpy's
pocketfft gufuncs, called without the np.fft wrapper, whose cost at these
sizes is that of a transform; the results are np.fft's bits.  Inside the
step loop the batch is species-major, spectra (2, B, K) and fields
(2, B, N), in buffers allocated once per call, with the per-member
coefficients laid out as full (2, B, K) blocks: each operation of a step
is one ufunc call on contiguous arrays for both species, and each element
gets the same arithmetic as in a member-major layout.  Each step's field
is checked against the blow-up bound once, when the next step or the last
forms it.  Batch members are bitwise equal to solo runs.
A traveling start lies along the eigenvector (alpha^2, lambda - m11) of
its mode's leading root: the +i omega wave at onset.  ``rhs`` is the
operator the steps integrate; with SimConfig.pin_mean it is the projected
system, with no k = 0 reaction: the means hold (alpha, beta/alpha) from
the start, and pinned runs are second order at any amplitude.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
# The gufuncs np.fft.rfft/irfft call, bound once: the wrapper (asarray, result_type,
# axis normalisation) costs about as much as a 128-point transform, and the factor
# passed is the one np.fft computes from norm=, so the results are the same bits.
from numpy.fft._pocketfft_umath import irfft as _irfft
from numpy.fft._pocketfft_umath import rfft_n_even as _rfft_even
from numpy.fft._pocketfft_umath import rfft_n_odd as _rfft_odd

from .errors import InvalidConfig, NoSaturation, NumericalBlowup, WindowTooShort, shown
from .params import ModelParams, is_finite_real, is_integer, onset
from .spectral import mode_eigenvalues

BLOWUP_NORM = 1e6   # a field value beyond this ends a run as NumericalBlowup
GROWTH_EPS = 1e-5   # size of measure_growth_rate's perturbation
_MAX_GRID = 2 ** 20  # a run holds about 300 bytes per grid point: 330 MB at this bound


_PERTURB_KINDS = ("traveling", "random")


@dataclass(frozen=True)
class SimConfig:
    n_grid: int = 128
    dt: float = 1e-3
    t_max: float = 2000.0
    perturb_kind: str = "traveling"
    perturb_mode: int = 1
    eps: float = 1e-4
    seed: int = 0
    pin_mean: bool = False

    @property
    def cutoff(self) -> int:
        """Orszag's 2/3 rule: the highest wave index j <= 2 floor(N/2)/3 that the
        cubic term keeps, the same at every half-length."""
        return 2 * (self.n_grid // 2) // 3

    @property
    def n_steps(self) -> int:
        """The run's step count: t_max/dt to the nearest integer."""
        return round(self.t_max / self.dt)

    @property
    def sample_every(self) -> int:
        """Steps between samples 0.1 time units apart: 0.1/dt to the nearest, at least 1."""
        return max(round(0.1 / self.dt), 1)

    def sample_times(self) -> np.ndarray:
        """Times of the samples, every sample_every steps to n_steps; InvalidConfig if none."""
        if (every := self.sample_every) > self.n_steps:
            raise InvalidConfig(f"t_max = {self.t_max:g} is shorter than one sample "
                                f"interval ({every * self.dt:g})")
        return self.dt * np.arange(every, self.n_steps + 1, every)

    def __post_init__(self):
        """Raise InvalidConfig for a setting the integrator cannot run."""
        for name in ("dt", "t_max", "eps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InvalidConfig(f"{name} must be a real number, got {shown(value)}")
        if not (is_finite_real(self.dt) and float(self.dt) > 0.0):
            raise InvalidConfig(f"dt must be finite and > 0, got {shown(self.dt)}")
        if not (is_finite_real(self.t_max) and self.t_max >= self.dt):
            raise InvalidConfig(f"t_max must be finite and at least one step "
                                f"(dt = {float(self.dt):g}), got {shown(self.t_max)}")
        if not (steps := float(self.t_max) / float(self.dt)) < 2.0 ** 63:
            raise InvalidConfig(f"t_max/dt = {steps:.3g} steps is beyond int64")
        if not is_finite_real(self.eps):
            raise InvalidConfig(f"eps must be finite, got {shown(self.eps)}")
        for name in ("n_grid", "perturb_mode", "seed"):
            if not is_integer(value := getattr(self, name)):
                raise InvalidConfig(f"{name} must be an integer, got {shown(value)}")
        if not 2 <= self.n_grid <= _MAX_GRID:
            raise InvalidConfig(f"n_grid must be at least 2 and at most {_MAX_GRID}, "
                                f"got {shown(self.n_grid)}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be a non-negative integer, got {shown(self.seed)}")
        if self.perturb_kind not in _PERTURB_KINDS:
            raise InvalidConfig(f"unknown perturbation kind {self.perturb_kind!r}; "
                                f"expected one of {_PERTURB_KINDS}")
        # the highest wave index the perturbation excites ("random": 1..4)
        mode = 4 if self.perturb_kind == "random" else abs(int(self.perturb_mode))
        if self.eps != 0.0 and mode > self.cutoff:
            raise InvalidConfig(f"perturbed mode {shown(mode)} lies above the 2/3 cutoff "
                                f"(mode {self.cutoff}) of n_grid = {self.n_grid}")
        if not isinstance(self.pin_mean, (bool, np.bool_)):
            raise InvalidConfig(f"pin_mean must be a bool, got {shown(self.pin_mean)}")
        for name, kind in (("dt", float), ("t_max", float), ("eps", float), ("n_grid", int),
                           ("perturb_mode", int), ("seed", int), ("pin_mean", bool)):
            object.__setattr__(self, name, kind(getattr(self, name)))


def grid(params: ModelParams, n_grid: int) -> np.ndarray:
    L = params.half_length
    return -L + (2.0 * L / n_grid) * np.arange(n_grid)


def initialize(params: ModelParams, config: SimConfig) -> np.ndarray:
    """Uniform state (alpha, beta/alpha) as a (2, N) array of u1 and u2,
    perturbed as configured unless eps = 0."""
    x = grid(params, config.n_grid)
    U = np.empty((2, config.n_grid))
    U[0], U[1] = params.alpha, params.beta / params.alpha
    if config.eps != 0.0:
        if config.perturb_kind == "traveling":
            # one complex mode along (alpha^2, lambda - m11), the eigenvector of the leading
            # root lambda, so the tracked mode amplitude evolves as one clean exponential
            k = config.perturb_mode * params.k1
            m11 = -k * k * params.delta1 + params.beta - 1.0
            with np.errstate(invalid="ignore"):   # the leading root overflows at a huge beta
                v = np.array([params.alpha * params.alpha,
                              mode_eigenvalues(params, config.perturb_mode).leading - m11])
                v /= v[np.argmax(np.abs(v))]
            if not np.all(np.isfinite(v)):
                raise NumericalBlowup(f"no finite traveling start at beta = {params.beta:g}")
            wave = config.eps * np.real(np.exp(1j * k * x)[None, :] * v[:, None])
        else:   # "random"
            rng = np.random.default_rng(config.seed)
            coeffs = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            wave = np.zeros((2, config.n_grid))
            for j in range(1, 5):
                wave += np.real(coeffs[:, j - 1:j] * np.exp(1j * j * params.k1 * x)[None, :])
            wave *= config.eps / max(np.max(np.abs(wave)), 1e-300)
        U += wave
    return U


def _check_bound(U: np.ndarray, buf: np.ndarray, t: float) -> None:
    """Raise NumericalBlowup when a value of U at time t leaves the bound or is NaN."""
    # False for NaN; an empty batch reduces to the initial 0
    if not np.maximum.reduce(np.abs(U, out=buf), axis=None, initial=0.0) <= BLOWUP_NORM:
        raise NumericalBlowup(f"field norm exceeded {BLOWUP_NORM:g} at t = {t:g}")


class _Views(NamedTuple):
    """A species-major spectrum (2, B, K) and its views that a step uses, bound once."""
    whole: np.ndarray
    u1: np.ndarray        # whole[0]
    mean_u1: np.ndarray   # whole[0, :, 0]


def _views(X: np.ndarray) -> _Views:
    return _Views(X, X[0], X[0, :, 0])


def _block(a: np.ndarray, shape: tuple) -> np.ndarray:
    """a broadcast to shape, as a new contiguous array."""
    return np.ascontiguousarray(np.broadcast_to(a, shape))


class Simulator:
    """Strang-split pseudospectral stepper for a fixed params/config pair.

    ``advance`` steps a (B, 2, N) batch whose members share the grid, dt,
    mean pinning and step count; each has its own beta.  One run is
    ``advance(U[None], [beta], n_steps)[0]`` for a (2, N) state U.
    """

    def __init__(self, params: ModelParams, config: SimConfig):
        self.params = params
        self.config = config
        n = config.n_grid
        # _rfft(x, f) is f times the DFT of x (..., n) at wave indices 0..n//2, and
        # _irfft(X, f, out=x) f times the inverse sum onto the n points of out: f = 1/n
        # on one side and 1 on the other make a pair
        self._rfft = _rfft_even if n % 2 == 0 else _rfft_odd
        # angular wave numbers of the rfft coefficients on [-L, L): 2 pi rfftfreq(n, d),
        # computed as rfftfreq does
        d = 2.0 * params.half_length / n
        self._k = k = 2.0 * np.pi * (np.arange(n // 2 + 1) * (1.0 / (n * d)))
        delta = np.array([[params.delta1], [params.delta2]])
        self._symbol = -delta * (k * k)   # Laplacian symbol, (2, n//2 + 1)
        # complex multipliers: the same products without a cast on every use
        self._half = np.exp(self._symbol * (config.dt / 2.0)).astype(complex)
        self._full = np.exp(self._symbol * config.dt).astype(complex)
        # the modes the reaction moves; pinned means leave out k = 0, where alpha enters
        self._moving = np.arange(n // 2 + 1) >= config.pin_mean
        self._source = 0.0 if config.pin_mean else params.alpha
        # the 2/3 rule by wave index over N, the unit mean, signed for the two species
        kept = np.arange(n // 2 + 1) <= config.cutoff
        self._dealias = np.array([[1.0], [-1.0]]) * (kept & self._moving) / n + 0j

    def _coefficients(self, betas: np.ndarray):
        """Per-member lin = (-(beta + 1), beta) on the moving modes, (2, B, K)."""
        return np.stack([-(betas + 1.0), betas])[:, :, None] * self._moving + 0j

    def _spectrum(self, U, f):
        """_rfft(U, f) of fields U (..., N) into a new array."""
        if np.shape(U)[-1:] != (self.config.n_grid,):
            raise InvalidConfig(f"fields need {self.config.n_grid} grid points, "
                                f"got shape {np.shape(U)}")
        return self._rfft(U, f, out=np.empty(np.shape(U)[:-1] + self._k.shape, complex))

    def _check_batch(self, U: np.ndarray, caller: str) -> None:
        """Raise InvalidConfig unless U is a batch of fields, (B, 2, N)."""
        n = self.config.n_grid
        if U.ndim != 3 or U.shape[1:] != (2, n):
            raise InvalidConfig(f"{caller} needs fields of shape (B, 2, {n}), got {U.shape}")

    def _stage(self, out, base, s1, u, lin, mask, h, cube, r, q):
        """out = base + h F^ for F = (alpha + lin_1 u1 + u1^2 u2, lin_2 u1 - u1^2 u2).

        Species-major: base and F^, the unit-mean spectrum of F, are (2, B, K),
        s1 is that of u1, and u = (u1, u2) holds the fields (B, N); lin and the
        signed mask come times h, as arrays that broadcast to (2, B, K).  The
        mask is the 2/3 rule: the cubic term keeps wave indices
        j <= 2 floor(N/2)/3 (SimConfig.cutoff), the same at every half-length.
        u1^2 u2, its rfft and that masked go to cube, r and q (2, B, K); out is
        given as its _views, and each operation is one call for both species."""
        out, _, out_mean = out
        u1, u2 = u
        np.multiply(u1, u1, out=cube)
        cube *= u2
        self._rfft(cube, 1.0, out=r)
        np.multiply(r, mask, out=q)
        np.multiply(lin, s1, out=out)
        out += base
        out += q
        if self._source:   # pinned runs have none
            out_mean += h * self._source

    def rhs(self, U, beta) -> np.ndarray:
        """dU/dt of the semi-discrete system the steps integrate, for U (B, 2, N).

        Spectral diffusion plus the dealiased reaction; beta is one number
        or one per member.  With pin_mean it is the projected system, whose
        means are zero: pinned runs hold them at (alpha, beta/alpha) from the
        start, at second order for any amplitude.  Raises InvalidConfig
        unless U is (B, 2, N) and each beta a finite real number; a wrong
        grid is named as by translate.
        """
        U = np.asarray(U, dtype=float)
        S = self._spectrum(U, 1.0 / self.config.n_grid)
        self._check_batch(U, "rhs")
        if not all(map(is_finite_real, np.asarray(beta, dtype=object).flat)):
            raise InvalidConfig(f"rhs needs finite betas, got {shown(beta)}")
        lin = self._coefficients(np.full(len(U), beta, dtype=float))
        S = S.transpose(1, 0, 2)
        F = np.empty(S.shape, complex)
        self._stage(_views(F), self._symbol[:, None] * S, S[0], U.transpose(1, 0, 2), lin,
                    self._dealias[:, None], 1.0, np.empty(U[:, 0].shape),
                    np.empty(S[0].shape, complex), np.empty_like(F))
        dU = np.empty(U.shape)
        _irfft(F, 1.0, out=dU.transpose(1, 0, 2))
        return dU

    def advance(self, U, betas, n_steps, sample_every=0, modes=()):
        """Advance every member of U (B, 2, N) by n_steps steps of dt.

        Returns the final fields, a new array, or with sample_every > 0
        (fields, samples): samples is complex (B, n_steps // sample_every,
        len(modes)), its row [b, j] the coefficients of member b's unit-mean
        spectrum rfft(U)/N at the (species, wave index) pairs of modes at time
        (j + 1) * sample_every * dt.  Raises InvalidConfig unless U is
        (B, 2, N) with one finite beta per member, n_steps is one integer in
        0..2**63 - 1 and an integer sample_every >= 0 has one mode or more, each
        a pair of integers in 0..1 and 0..N//2, in a block numpy can shape;
        NumericalBlowup when the field of step i, checked as step i + 1 or the
        last step forms it, leaves the bound or is not finite (named as time i * dt).
        """
        dt, n = self.config.dt, self.config.n_grid
        out = np.array(U, dtype=float)
        self._check_batch(out, "advance")
        if np.shape(betas) != (len(out),):
            raise InvalidConfig(f"advance needs one beta per member; got {np.size(betas)} "
                                f"betas for {len(out)} members")
        if not all(map(is_finite_real, betas)):
            given = ", ".join(map(shown, np.asarray(betas, dtype=object).tolist()))
            raise InvalidConfig(f"advance needs finite betas, got [{given}]")
        betas = np.asarray(betas, dtype=float)
        if not (is_integer(n_steps) and n_steps >= 0):
            raise InvalidConfig(f"advance needs one integer step count >= 0 for the batch, "
                                f"got {shown(n_steps)}")
        if n_steps >= 2 ** 63:   # SimConfig's bound on t_max/dt
            raise InvalidConfig(f"advance takes fewer than 2**63 steps, got {shown(n_steps)}")
        if not is_integer(sample_every):
            raise InvalidConfig(f"sample_every must be an integer, got {sample_every!r}")
        if sample_every < 0:
            raise InvalidConfig(f"sample_every must be >= 0, got {sample_every!r}")
        S = self._spectrum(out.transpose(1, 0, 2), 1.0 / n)
        shape = S.shape
        if sample_every:   # the (species, wave index) pairs, as places in the spectrum
            modes = list(modes)
            if not modes or not all(np.shape(m) == (2,) and all(map(is_integer, m))
                                    and m[0] in (0, 1) and 0 <= m[1] <= n // 2 for m in modes):
                raise InvalidConfig(f"sampling needs modes, pairs of integers: species 0 or 1 "
                                    f"and wave index 0..{n // 2}; got {shown(modes)}")
            species, index = np.array(modes, dtype=np.intp).T[:, :, None]
            at = np.ravel_multi_index((species, np.arange(len(out)), index), shape)
            try:
                samples = np.empty((n_steps // sample_every, len(modes), len(out)), complex)
            except ValueError:   # numpy cannot shape the block
                raise InvalidConfig(f"{n_steps // sample_every} samples of {len(modes)} modes "
                                    f"for {len(out)} members exceed numpy's array size") from None
        S *= self._half[:, None]
        if self.config.pin_mean:   # the projected operator never moves them
            S[0, :, 0], S[1, :, 0] = self.params.alpha, betas / self.params.alpha
        lin = self._coefficients(betas)
        mask = self._dealias[:, None]
        half_lin, full_lin, half_mask, full_mask, half, full = (
            _block(a, shape) for a in ((0.5 * dt) * lin, dt * lin, (0.5 * dt) * mask,
                                       dt * mask, self._half[:, None], self._full[:, None]))
        # buffers: fields, |fields|, u1^2 u2, its rfft, that masked, midpoint, next S
        U = np.empty(shape[:2] + (n,))
        absU, cube, r, q = (np.empty_like(U), np.empty_like(U[0]), np.empty_like(S[0]),
                            np.empty_like(S))
        mid, S2 = _views(np.empty_like(S)), _views(np.empty_like(S))
        Sv, u = _views(S), (U[0], U[1])
        for i in range(1, n_steps + 1):
            _irfft(S, 1.0, out=U)
            if i > 1:
                _check_bound(U, absU, (i - 1) * dt)
            self._stage(mid, S, Sv.u1, u, half_lin, half_mask, 0.5 * dt, cube, r, q)
            _irfft(mid.whole, 1.0, out=U)
            self._stage(S2, S, mid.u1, u, full_lin, full_mask, dt, cube, r, q)
            Sv, S2 = S2, Sv
            S = Sv.whole
            sampled = sample_every and i % sample_every == 0
            if sampled or i == n_steps:
                np.multiply(S, half, out=mid.whole)
            if sampled:   # mode "clip" writes into out unbuffered; each place is in range
                mid.whole.take(at, out=samples[i // sample_every - 1], mode="clip")
            S *= full
        if n_steps:
            _irfft(mid.whole, 1.0, out=U)
            _check_bound(U, absU, n_steps * dt)
            out[:] = U.transpose(1, 0, 2)
        return (out, samples.transpose(2, 0, 1)) if sample_every else out

    def translate(self, U: np.ndarray, phi: float) -> np.ndarray:
        """R(phi): v(x) -> v(x - phi) on fields (..., N), via a spectral phase shift."""
        shifted = self._spectrum(U, 1.0) * np.exp(-1j * self._k * phi)
        return _irfft(shifted, 1.0 / self.config.n_grid, out=np.empty(np.shape(U)))


def oscillation_frequency(times: np.ndarray, series: np.ndarray) -> float:
    """Oscillation frequency of a complex amplitude series.

    Least-squares slope of the unwrapped phase.  Raises WindowTooShort when
    fewer than 3 periods of the detected oscillation fit in the window or
    the series has (near-)vanishing amplitude.
    """
    times = np.asarray(times, dtype=float)
    z = np.asarray(series, dtype=complex)
    if z.size < 8:
        raise WindowTooShort("need at least 8 samples")
    if np.min(np.abs(z)) <= 1e-300:
        raise WindowTooShort("series amplitude vanishes; phase undefined")
    phase = np.unwrap(np.angle(z))
    freq = abs(float(np.polyfit(times, phase, 1)[0]))
    window = times[-1] - times[0]
    if freq == 0.0 or window * freq / (2.0 * math.pi) < 3.0:
        raise WindowTooShort(
            f"window of {window:g} covers fewer than 3.0 periods at frequency {freq:g}")
    return float(freq)


def measure_growth_rate(params: ModelParams, beta: float, k: int,
                        t_end: float | None = None, dt: float = 2e-3, n_grid: int = 128):
    """Fitted exponential rate of an isolated small mode-k perturbation.

    The perturbation, of size GROWTH_EPS, is placed along the leading
    eigenvector of the mode matrix, so log |mode amplitude| is linear from
    the start; the first tenth of the window is still discarded.  The settings are checked
    as a SimConfig's: a k above its 2/3 cutoff or a t_end below one step is InvalidConfig.
    """
    params = params.with_beta(beta)
    config = SimConfig(n_grid=n_grid, dt=dt, t_max=dt, perturb_kind="traveling",
                       perturb_mode=k, eps=GROWTH_EPS)
    lead = mode_eigenvalues(params, k).max_real_part
    if t_end is None:
        # a few e-foldings of the predicted rate, capped because the uniform
        # mode (seeded at O(eps^2) by the quadratic terms) grows at an O(1)
        # rate near onset and contaminates long windows
        t_end = min(10.0, max(2.0, 3.0 / max(abs(lead), 0.3)))
    config = replace(config, t_max=t_end)
    base = params.alpha if k == 0 else 0.0  # uniform background of u1
    _, (samples,) = Simulator(params, config).advance(
        initialize(params, config)[None], [params.beta], config.n_steps, sample_every=5,
        modes=[(0, abs(k))])
    times = config.dt * np.arange(5, config.n_steps + 1, 5)
    amps = np.abs(samples[:, 0] - base)
    window = 0.1 * config.t_max
    keep = (times >= window) & (amps > 1e-14)
    if np.count_nonzero(keep) < 2:
        raise WindowTooShort(
            f"growth fit window [{window:g}, {config.t_max:g}] keeps "
            f"{np.count_nonzero(keep)} samples with amplitude > 1e-14; need 2")
    slope = np.polyfit(times[keep], np.log(amps[keep]), 1)[0]
    return float(slope), lead


def _reflect(U: np.ndarray) -> np.ndarray:
    """S: v(x) -> v(-x) on fields (..., N); exact grid permutation."""
    n = U.shape[-1]
    return U[..., (-np.arange(n)) % n]


def equivariance_test(params: ModelParams, config: SimConfig, phi: float,
                      t_end: float = 1.0) -> dict:
    """Commutator of the flow with translation R(phi), phi finite and real, and reflection S.

    The start and its two images run as one batch over t_end, checked as config's t_max.
    """
    if not is_finite_real(phi):
        raise InvalidConfig(f"phi must be a finite real number, got {shown(phi)}")
    config = replace(config, t_max=t_end)
    sim = Simulator(params, config)
    ops = {
        "translation": lambda U: sim.translate(U, float(phi)),
        "reflection": _reflect,
    }
    start = initialize(params, config)
    batch = np.stack([start] + [op(start) for op in ops.values()])
    final = sim.advance(batch, [params.beta] * len(batch), config.n_steps)
    report = {"phi": float(phi), "t_end": config.t_max}
    for j, (name, op) in enumerate(ops.items(), start=1):
        report[name] = float(np.max(np.abs(op(final[0]) - final[j])))
    return report


def _tail(series: np.ndarray) -> np.ndarray:
    """The window where saturation is read: the last fifth, at least 8 samples."""
    return series[-max(len(series) // 5, 8):]


def tail_fit(times: np.ndarray, series) -> tuple:
    """(amplitude, frequency, note, settled) of a complex series over its tail window.

    The largest |z| there and its oscillation_frequency, or a None frequency
    and the WindowTooShort message as the note when the fit fails; settled
    says that the largest |z| of the tail's two halves differ by at most
    0.5 %, which a tail of one sample never does.
    """
    z = _tail(np.asarray(series, dtype=complex))
    freq = note = None
    try:
        freq = oscillation_frequency(_tail(times), z)
    except WindowTooShort as exc:
        note = str(exc)
    amps = np.abs(z)
    half = len(amps) // 2
    settled = False
    if half:
        m1, m2 = np.max(amps[:half]), np.max(amps[half:])
        peak = max(m1, m2)
        settled = bool(peak > 0 and abs(m1 - m2) <= 0.005 * peak)
    return float(np.max(amps)), freq, note, settled


def amplitude_scaling_experiment(params: ModelParams, mus,
                                 config: SimConfig | None = None) -> dict:
    """Saturated mode-1 amplitude and frequency across supercritical offsets.

    Fits log amplitude against log mu; raises NoSaturation if any run fails
    the envelope-settling criterion, and reports a plain decay verdict when
    every amplitude dies out instead (subcritical sweeps): a row decays when
    its tail amplitude falls below 5 % of the perturbation size config.eps.
    Every mu runs as one batch to config's horizon.

    Without a config every mu runs at dt = 0.02 to one horizon, the one its
    slowest saturation needs: max(400, 16/|mu|) over the nonzero mu, or 400
    when every mu is 0.  Default runs pin the spatial means
    (SimConfig.pin_mean): the uniform mode is linearly unstable at onset, so
    on the horizons needed for the slow mode-1 saturation its deviation would
    otherwise overwhelm the pattern.  Pinned runs integrate the projected system, second order at
    any amplitude, with the means held at (alpha, beta/alpha) from the
    start: the square-root law and the limiting frequency are unaffected,
    though the law's constant reflects the pinned cubic coefficients.
    """
    mus = list(mus)
    if not mus:
        raise InvalidConfig("amplitude_scaling_experiment needs at least one mu; "
                            "the mu list is empty")
    for mu in mus:
        if not is_finite_real(mu):
            raise InvalidConfig(f"amplitude_scaling_experiment needs finite mu values, "
                                f"got mu = {shown(mu)}")
    mus = [float(mu) for mu in mus]
    base = onset(params)
    betas = [base.beta1 + mu for mu in mus]
    if config is None:
        slowest = min((abs(mu) for mu in mus if mu != 0), default=math.inf)
        config = SimConfig(dt=0.02, t_max=max(400.0, 16.0 / slowest), eps=1e-2,
                           perturb_kind="traveling", perturb_mode=1, pin_mean=True)
    starts = [initialize(params.with_beta(beta), config) for beta in betas]
    _, series = Simulator(params, config).advance(
        np.stack(starts), betas, config.n_steps, sample_every=config.sample_every,
        modes=[(0, 1)])
    times = config.sample_times()
    rows = []
    for mu, mode1 in zip(mus, series):
        tail_amp, freq, note, settled = tail_fit(times, mode1[:, 0])
        if mu > 0:
            if not settled:
                raise NoSaturation(f"mu = {mu}: amplitude not settled by t = {config.t_max}")
            if freq is None:
                raise WindowTooShort(note)
            rows.append({"mu": mu, "amplitude": tail_amp, "frequency": freq})
        else:
            rows.append({"mu": mu, "amplitude": tail_amp, "frequency": None,
                         "decayed": tail_amp < 0.05 * config.eps})

    sup = [r for r in rows if r["mu"] > 0]
    result = {"rows": rows, "omega": base.omega}
    if len(sup) >= 2:
        logs = np.log([r["mu"] for r in sup])
        loga = np.log([r["amplitude"] for r in sup])
        slope, intercept = np.polyfit(logs, loga, 1)
        result["slope"] = float(slope)
        result["intercept"] = float(intercept)
        result["residuals"] = [float(x) for x in loga - (slope * logs + intercept)]
        freqs = np.array([r["frequency"] for r in sup])
        mus_ = np.array([r["mu"] for r in sup])
        result["frequency_at_zero"] = float(np.polyfit(mus_, freqs, 1)[1])
    elif all(r.get("decayed") for r in rows):
        result["verdict"] = "decay"
    return result


def timestep_convergence_order(params: ModelParams, dt: float = 0.02,
                               t_end: float = 1.0, n_grid: int = 64) -> float:
    """Observed order at dt and dt/2 against a dt/8 reference; random start, eps 1e-2."""
    def solve(step):
        cfg = SimConfig(n_grid=n_grid, dt=step, t_max=t_end, eps=1e-2,
                        perturb_kind="random", seed=3)
        return Simulator(params, cfg).advance(initialize(params, cfg)[None],
                                              [params.beta], cfg.n_steps)[0]

    ref = solve(dt / 8.0)
    e = [np.max(np.abs(solve(step) - ref)) for step in (dt, dt / 2.0)]
    return float(np.log2(e[0] / e[1]))
