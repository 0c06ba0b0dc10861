import csv
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from o2hopf import (InvalidConfig, ModelParams, NonPositiveParameter, NoSaturation,
                    NumericalBlowup, SimConfig, Simulator, WindowTooShort,
                    equivariance_test, initialize, measure_growth_rate,
                    mode_eigenvalues, mode_matrix, onset, oscillation_frequency,
                    timestep_convergence_order, validate)
from o2hopf import pdesim
from o2hopf.cli import dispatch
from o2hopf.pdesim import amplitude_scaling_experiment

CANON = validate({"alpha": 2.0, "beta": 7.0})
RT3 = math.sqrt(3.0)


class TestInitialize:
    def test_unperturbed_state_is_equilibrium(self):
        config = SimConfig(n_grid=64, eps=0.0)
        U = initialize(CANON, config)
        assert U.shape == (2, 64)
        sim = Simulator(CANON, config)
        assert np.max(np.abs(sim.rhs(U[None], CANON.beta))) <= 1e-13
        stepped = sim.advance(U[None], [CANON.beta], [1])[0]
        assert np.max(np.abs(stepped - U)) <= 1e-13

    def test_perturbation_amplitude(self):
        config = SimConfig(n_grid=64, perturb_kind="traveling", eps=1e-4)
        U = initialize(CANON, config)
        dev = np.max(np.abs(U - [[CANON.alpha], [7.0 / CANON.alpha]]))
        assert 1e-5 < dev < 1e-3

    @pytest.mark.parametrize("offset", [-0.05, 0.0, 0.05])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_traveling_start_is_the_leading_branch(self, offset, k):
        # the index-k spectrum of the start is an eigenvector of M_k for the leading
        # root, +i omega rather than its conjugate, whatever the rounding
        params = CANON.with_beta(onset(CANON).beta1 + offset)
        spectrum = np.fft.rfft(initialize(params, SimConfig(n_grid=64, perturb_mode=k)))[:, k]
        lead = mode_eigenvalues(params, k).leading
        m = mode_matrix(params, k, params.beta)
        assert lead.imag > 0.0
        assert (np.linalg.norm(m @ spectrum - lead * spectrum)
                <= 1e-9 * np.linalg.norm(m) * np.linalg.norm(spectrum))

    def test_random_seed_determinism(self):
        config = SimConfig(n_grid=64, perturb_kind="random", seed=42)
        assert np.array_equal(initialize(CANON, config), initialize(CANON, config))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            initialize(CANON, SimConfig(perturb_kind="bogus"))


@pytest.mark.parametrize("settings, message", [
    ({"dt": 0.0}, "dt must be finite and > 0"),
    ({"dt": -0.01}, "dt must be finite and > 0"),
    ({"dt": math.nan}, "dt must be finite and > 0"),
    ({"t_max": 5e-4}, "t_max must be finite and at least one step"),
    ({"t_max": math.inf}, "t_max must be finite and at least one step"),
    ({"eps": math.nan}, "eps must be finite"),
    ({"n_grid": 0}, "n_grid must be at least 2"),
    ({"n_grid": 64, "perturb_mode": 22}, "perturbed mode 22 lies above the 2/3 cutoff"),
    ({"n_grid": 64, "perturb_mode": -22}, "perturbed mode 22 lies above the 2/3 cutoff"),
    ({"n_grid": 10, "perturb_kind": "random"}, "perturbed mode 4 lies above"),
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"perturb_kind": "none"}, "unknown perturbation kind 'none'"),
    ({"perturb_mode": 1.5}, "perturb_mode must be an integer, got 1.5"),
    ({"n_grid": 64.0}, "n_grid must be an integer, got 64.0"),
    ({"seed": 1.5, "perturb_kind": "random"}, "seed must be an integer, got 1.5"),
    ({"dt": "0.1"}, "dt must be a real number, got '0.1'"),
    ({"dt": True}, "dt must be a real number, got True"),
    ({"eps": None}, "eps must be a real number, got None"),
    ({"t_max": 10**400}, "t_max must be finite and at least one step"),
    ({"n_grid": 10**9}, "n_grid must be at least 2 and at most 1048576, got 1000000000"),
    # round(t_max/dt) has no int64 step count
    ({"dt": 1e-300, "t_max": 1.0}, r"^t_max/dt = 1e\+300 steps is beyond int64$"),
    ({"dt": 1e-10, "t_max": 1e300}, r"^t_max/dt = inf steps is beyond int64$"),
])
def test_config_validation(settings, message):
    with pytest.raises(InvalidConfig, match=message):
        SimConfig(**settings)


def test_config_limits_that_pass():
    SimConfig(n_grid=64, perturb_mode=21)                      # 21 = 2/3 of 32
    SimConfig(n_grid=12, perturb_kind="random")
    SimConfig(n_grid=8, perturb_mode=200, eps=0.0)              # nothing perturbed
    SimConfig(n_grid=2, eps=0.0, t_max=1e-3)
    SimConfig(n_grid=np.int64(64), perturb_mode=np.int32(2), seed=np.uint8(3))
    with pytest.raises(InvalidConfig):
        replace(SimConfig(), dt=0.0)


# an integer of more than 4 300 digits has no str: it is named by its bit count
HUGE = 10 ** 5000


@pytest.mark.parametrize("settings, message", [
    ({"dt": HUGE}, "dt must be finite and > 0"),
    ({"t_max": HUGE}, "t_max must be finite and at least one step"),
    ({"eps": HUGE}, "eps must be finite"),
    ({"n_grid": HUGE}, "n_grid must be at least 2 and at most 1048576"),
    ({"seed": -HUGE}, "seed must be a non-negative integer"),
    ({"perturb_mode": HUGE, "n_grid": 64}, "perturbed mode"),
])
def test_config_names_a_huge_integer_by_its_size(settings, message):
    with pytest.raises(InvalidConfig, match=rf"^{message}.*an integer of 16610 bits"):
        SimConfig(**settings)


@pytest.mark.parametrize("make, error, message", [
    (lambda: SimConfig(eps=Fraction(HUGE, 3)), InvalidConfig,
     "eps must be finite, got a fraction with a 16610-bit numerator and a 2-bit denominator"),
    (lambda: SimConfig(dt=Fraction(-HUGE, 3)), InvalidConfig,
     "dt must be finite and > 0, got a fraction with a 16610-bit numerator"),
    (lambda: SimConfig(t_max=Fraction(HUGE, 3)), InvalidConfig,
     "t_max must be finite and at least one step .* 16610-bit numerator"),
    (lambda: validate({"alpha": Fraction(HUGE, 3), "beta": 7.0}), NonPositiveParameter,
     "'alpha' must be a real number within the float range, got a fraction with a 16610-bit"),
    # > 0 exactly, but 0.0 as the float the step runs on
    (lambda: SimConfig(dt=Fraction(1, HUGE)), InvalidConfig,
     "dt must be finite and > 0, got a fraction with a 1-bit numerator and a 16610-bit"),
    (lambda: SimConfig(dt=Fraction(1, 3), t_max=0.1), InvalidConfig,
     r"at least one step \(dt = 0.333333\), got 0.1"),
    (lambda: SimConfig(dt=Fraction(1, 10 ** 300), t_max=Fraction(1)), InvalidConfig,
     r"t_max/dt = 1e\+300 steps is beyond int64"),
], ids=["eps", "dt", "t_max", "alpha", "dt_zero_as_float", "dt_formatted", "steps_formatted"])
def test_config_names_a_fraction_by_its_terms(make, error, message):
    """A fraction whose digits do not print, or that is 0.0 as a float, is a typed error."""
    with pytest.raises(error, match=message):
        make()


@pytest.mark.parametrize("settings", [{"eps": Fraction(1, 3)},
                                      {"dt": Fraction(1, 100), "t_max": 1}])
def test_fraction_settings_run_as_their_floats(settings):
    # these passed SimConfig, then initialize or Simulator met an object array
    config = SimConfig(n_grid=16, **settings)
    floats = SimConfig(n_grid=16, **{name: float(value) for name, value in settings.items()})
    assert config == floats
    runs = [Simulator(CANON, c).advance(initialize(CANON, c)[None], [CANON.beta], [3])
            for c in (config, floats)]
    assert runs[0].tobytes() == runs[1].tobytes()


def test_config_holds_plain_numbers():
    config = SimConfig(n_grid=np.int64(16), dt=np.float32(0.5), t_max=np.int64(2),
                       eps=Fraction(1, 4), perturb_mode=np.int32(2), seed=np.uint8(3),
                       pin_mean=np.bool_(True))
    kinds = {"dt": float, "t_max": float, "eps": float, "n_grid": int, "perturb_mode": int,
             "seed": int, "pin_mean": bool}
    assert {name: type(getattr(config, name)) for name in kinds} == kinds


@pytest.mark.parametrize("pin_mean", [2, "no", None])
def test_pin_mean_must_be_a_bool(pin_mean):
    # 2 ran with the reaction off at wave index 1 as well; "no" and None reached a TypeError
    with pytest.raises(InvalidConfig, match=rf"^pin_mean must be a bool, got {pin_mean!r}$"):
        SimConfig(pin_mean=pin_mean)


def test_traveling_start_at_a_huge_beta_is_a_blowup():
    # the eigenvector was inf/inf: a NaN u2 row, with numpy's RuntimeWarning
    with pytest.raises(NumericalBlowup, match=r"^no finite traveling start at beta = 1e\+300$"):
        initialize(CANON.with_beta(1e300), SimConfig(n_grid=8, dt=0.01, t_max=1.0))


class TestObservables:
    def test_uniform_mode_amplitude(self):
        modes = np.fft.rfft(initialize(CANON, SimConfig(n_grid=64, eps=0.0))[0]) / 64
        assert modes[1] == 0.0
        assert abs(modes[0] - CANON.alpha) < 1e-14

    def test_nyquist_guard(self):
        # SimConfig's 2/3 cutoff rejects every index above the Nyquist mode
        with pytest.raises(InvalidConfig, match=r"perturbed mode 70 lies above the 2/3 "
                                                r"cutoff \(mode 42\) of n_grid = 128"):
            measure_growth_rate(CANON, 7.0, 70, t_end=0.1)

    def test_oscillation_frequency_synthetic(self):
        t = np.arange(0, 40.0, 0.1)
        z = 0.3 * np.exp(1j * RT3 * t)
        assert abs(oscillation_frequency(t, z) - RT3) < 1e-10

    def test_window_too_short(self):
        t = np.arange(0, 0.5, 0.1)
        with pytest.raises(WindowTooShort):
            oscillation_frequency(t, np.exp(1j * t))
        t = np.arange(0, 40.0, 0.1)
        with pytest.raises(WindowTooShort):
            oscillation_frequency(t, np.zeros_like(t, dtype=complex))


class TestDeterminismAndSafety:
    def test_run_is_deterministic(self):
        config = SimConfig(n_grid=64, dt=1e-2, perturb_kind="random",
                           seed=5, eps=1e-3)
        outs = [Simulator(CANON, config).advance(initialize(CANON, config)[None],
                                                 [CANON.beta], [200])
                for _ in range(2)]
        assert np.array_equal(outs[0], outs[1])

    def test_blowup_detection(self):
        sim = Simulator(CANON, SimConfig(n_grid=64, dt=1e-2))
        with pytest.raises(NumericalBlowup):
            sim.advance(np.full((1, 2, 64), 1e7), [CANON.beta], [1])

    def test_nan_in_u2_is_a_blowup(self):
        # the field of step 1 carries the NaN: a one-step run checks it at its
        # end, a longer one as step 2 forms it, and both name t = dt
        sim = Simulator(CANON, SimConfig(n_grid=64, dt=1e-2))
        bad = np.empty((1, 2, 64))
        bad[0, 0], bad[0, 1] = 2.0, 3.5
        bad[0, 1, 10] = np.nan
        for n_steps in (1, 5):
            with pytest.raises(NumericalBlowup, match=r"at t = 0\.01$"):
                sim.advance(bad, [CANON.beta], [n_steps])


class TestEngine:
    CONFIG = SimConfig(n_grid=64, dt=1e-2, perturb_kind="random", seed=4,
                       eps=1e-2, pin_mean=True)

    def test_batch_members_equal_solo_runs(self):
        # members leave at different horizons, one between two sample points;
        # the observed samples are the members' spectra, compared bitwise
        betas, n_steps = [6.9, 7.05, 7.1], [40, 23, 60]
        starts = initialize(CANON, self.CONFIG) + [[[0.0], [0.01 * j]] for j in range(3)]
        engine = Simulator(CANON, self.CONFIG)

        def collect(store):
            def observe(i, members, spectra):
                for b, spectrum in zip(members, spectra):
                    store.setdefault(int(b), []).append((i, spectrum.copy()))
            return observe

        batch_samples = {}
        batch = engine.advance(starts, betas, n_steps, sample_every=5,
                               observe=collect(batch_samples))
        for b in range(3):
            solo_samples = {}
            solo = engine.advance(starts[b:b + 1], betas[b:b + 1], n_steps[b:b + 1],
                                  sample_every=5, observe=collect(solo_samples))
            assert np.array_equal(batch[b], solo[0])
            assert ([i for i, _ in batch_samples[b]] == [i for i, _ in solo_samples[0]]
                    == list(range(5, n_steps[b] + 1, 5)))
            assert all(np.array_equal(a, c) for (_, a), (_, c)
                       in zip(batch_samples[b], solo_samples[0]))
            # the betas passed are the ones stepped, not the Simulator's params.beta
            other = Simulator(CANON.with_beta(betas[b]), self.CONFIG)
            assert np.array_equal(other.advance(starts[b:b + 1], betas[b:b + 1],
                                                n_steps[b:b + 1])[0], batch[b])

    def test_run_matches_repeated_steps(self):
        sim = Simulator(CANON, self.CONFIG)
        start = initialize(CANON, self.CONFIG)[None]
        stepped = start
        for _ in range(50):
            stepped = sim.advance(stepped, [7.05], [1])
        ran = sim.advance(start, [7.05], [50])
        assert np.max(np.abs(ran - stepped)) <= 1e-12

    def test_sample_times(self):
        seen = []
        Simulator(CANON, self.CONFIG).advance(
            initialize(CANON, self.CONFIG)[None], [7.0], [50], sample_every=7,
            observe=lambda i, members, spectrum: seen.append((i, members.tolist(),
                                                              spectrum.shape)))
        assert seen == [(i, [0], (1, 2, 33)) for i in range(7, 51, 7)]

    @pytest.mark.parametrize("pin_mean", [True, False])
    def test_sampling_leaves_the_run_unchanged(self, pin_mean):
        config = replace(self.CONFIG, pin_mean=pin_mean)
        sim = Simulator(CANON, config)
        start = initialize(CANON, config)[None]
        plain = sim.advance(start, [7.05], [500])
        for every in (1, 3, 7):
            sampled = sim.advance(start, [7.05], [500], sample_every=every,
                                  observe=lambda *_: None)
            assert np.array_equal(sampled, plain)

    def test_observed_spectrum_is_read_only(self):
        """A write into the observed spectrum or members raises; reading them changes no bit."""
        config = SimConfig(n_grid=32, dt=0.01, eps=1e-2)
        sim = Simulator(CANON, config)
        start = initialize(CANON, config)[None]
        for write in (lambda members, spectrum: spectrum.fill(0),
                      lambda members, spectrum: members.fill(0)):
            with pytest.raises(ValueError, match="read-only"):
                sim.advance(start, [7.0], [10], sample_every=5,
                            observe=lambda i, members, spectrum: write(members, spectrum))
        plain = sim.advance(start, [7.0], [10])
        assert np.max(plain) > 3.5
        peaks = []
        observed = sim.advance(start, [7.0], [10], sample_every=5,
                               observe=lambda i, members, spectrum: peaks.append(
                                   np.max(np.abs(spectrum))))
        assert observed.tobytes() == plain.tobytes()
        assert len(peaks) == 2

    @pytest.mark.parametrize("sample_every", [0, 1, 5, 7])
    def test_fft_budget(self, monkeypatch, sample_every):
        """Four transforms a step, one to start and one for the fields at the end."""
        calls = []
        for name in ("_rfft_even", "_rfft_odd", "_irfft"):
            def counted(*args, _transform=getattr(pdesim, name), **kwargs):
                calls.append(1)
                return _transform(*args, **kwargs)
            monkeypatch.setattr(pdesim, name, counted)
        n = 100
        starts = np.stack([initialize(CANON, self.CONFIG)] * 3)
        Simulator(CANON, self.CONFIG).advance(starts, [6.9, 7.0, 7.1], [n] * 3,
                                              sample_every=sample_every,
                                              observe=lambda *_: None)
        assert len(calls) == 4 * n + 2

    @pytest.mark.parametrize("pin_mean", [True, False])
    def test_observed_spectrum_is_the_fields(self, pin_mean):
        """The spectrum observed at step i is that of the fields advance returns at i."""
        config = replace(self.CONFIG, pin_mean=pin_mean)
        n = config.n_grid
        sim = Simulator(CANON, config)
        start = initialize(CANON, config)[None]
        spectra = {}

        def observe(i, _members, spectrum):
            spectra[i] = spectrum[0].copy()

        sim.advance(start, [7.05], [200], sample_every=3, observe=observe)
        stops = sorted(spectra)
        assert stops == list(range(3, 201, 3))
        # one member stopped at each sample point
        stopped = sim.advance(np.repeat(start, len(stops), axis=0), [7.05] * len(stops), stops)
        for i, fields in zip(stops, stopped):
            assert np.array_equal(np.fft.irfft(spectra[i], n=n, norm="forward"), fields)
            assert np.max(np.abs(spectra[i] - np.fft.rfft(fields) / n)) <= 1e-14


@pytest.mark.parametrize("n", [16, 17])
def test_bound_transforms_are_numpy_fft(n):
    """The gufuncs the stepper calls give np.fft's bits for both factors it passes."""
    from numpy.fft import _pocketfft_umath   # the module pdesim binds its transforms from

    rfft = Simulator(CANON, SimConfig(n_grid=n, eps=0.0))._rfft
    assert rfft is (_pocketfft_umath.rfft_n_even if n % 2 == 0 else _pocketfft_umath.rfft_n_odd)
    assert pdesim._irfft is _pocketfft_umath.irfft
    rng = np.random.default_rng(n)
    fields = rng.standard_normal((3, n))                     # (B, N), as _stage transforms
    spectra = np.fft.rfft(rng.standard_normal((3, 2, n)))    # (B, 2, N//2+1)
    m = n // 2 + 1
    pairs = [
        (rfft(fields, 1.0, out=np.empty((3, m), complex)), np.fft.rfft(fields)),
        (rfft(fields, 1.0 / n, out=np.empty((3, m), complex)),
         np.fft.rfft(fields, norm="forward")),
        (pdesim._irfft(spectra, 1.0, out=np.empty((3, 2, n))),
         np.fft.irfft(spectra, n=n, norm="forward")),
        (pdesim._irfft(spectra, 1.0 / n, out=np.empty((3, 2, n))), np.fft.irfft(spectra, n=n)),
    ]
    for ours, theirs in pairs:
        assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("shape, betas, n_steps, settings, message", [
    ((2, 2, 16), [7.0], [5, 5], {}, "one beta and one step count per member; got 1 betas "
                                    "and 2 for 2 members"),
    ((2, 2, 16), [7.0, 7.0], [5], {}, "got 2 betas and 1 for 2 members"),
    ((1, 2, 16), [7.0], [5], {"sample_every": -1}, "sample_every must be >= 0, got -1"),
    ((1, 2, 16), [7.0], [5], {"sample_every": 2}, "sample_every = 2 needs an observer"),
    ((1, 2, 32), [7.0], [5], {}, r"fields of shape \(B, 2, 16\), got \(1, 2, 32\)$"),
    ((2, 16), [7.0], [5], {}, r"fields of shape \(B, 2, 16\), got \(2, 16\)$"),
    ((1, 2, 16), [7.0], [-3], {}, r"finite betas and step counts >= 0; got betas \[7\.0\] "
                                  r"and steps \[-3\]$"),
    ((1, 2, 16), [math.nan], [5], {}, r"got betas \[nan\] and steps \[5\]$"),
    ((1, 2, 16), [7.0], [2.5], {}, r"integer step counts, got \[2\.5\]$"),
    ((1, 2, 16), [7.0], [True], {}, r"integer step counts, got \[True\]$"),
    ((2, 2, 16), [7.0, 7.0], [True, 3], {}, r"integer step counts, got \[True, 3\]$"),
    ((1, 2, 16), [7.0], [5], {"sample_every": 2.5, "observe": print},
     "sample_every must be an integer, got 2.5"),
    ((1, 2, 16), [7.0], [5], {"sample_every": True, "observe": print},
     "sample_every must be an integer, got True"),
], ids=["betas", "n_steps", "negative_sampling", "no_observer", "grid", "no_batch_axis",
        "negative_steps", "nan_beta", "fractional_steps", "bool_steps", "bool_among_steps",
        "fractional_sampling", "bool_sampling"])
def test_advance_input_errors(shape, betas, n_steps, settings, message):
    config = SimConfig(n_grid=16, dt=1e-2)
    U = np.broadcast_to(initialize(CANON, replace(config, n_grid=shape[-1])), shape)
    with pytest.raises(InvalidConfig, match=message):
        Simulator(CANON, config).advance(U, betas, n_steps, **settings)


def test_rhs_and_translate_need_the_grid():
    sim = Simulator(CANON, SimConfig(n_grid=16, dt=1e-2))
    fields = initialize(CANON, SimConfig(n_grid=17, dt=1e-2))
    with pytest.raises(InvalidConfig, match=r"fields need 16 grid points, got shape \(1, 2, 17\)"):
        sim.rhs(fields[None], 7.0)
    with pytest.raises(InvalidConfig, match=r"fields need 16 grid points, got shape \(2, 17\)"):
        sim.translate(fields, 0.3)


def test_rhs_needs_the_batch_axis():
    # the same check and message as advance, not numpy's broadcasting error
    config = SimConfig(n_grid=32, dt=1e-2)
    sim, fields = Simulator(CANON, config), initialize(CANON, config)
    with pytest.raises(InvalidConfig, match=r"rhs needs fields of shape \(B, 2, 32\), "
                                            r"got \(2, 32\)$"):
        sim.rhs(fields, 7.0)
    with pytest.raises(InvalidConfig, match=r"rhs needs fields of shape \(B, 2, 32\), "
                                            r"got \(4, 3, 32\)$"):
        sim.rhs(np.zeros((4, 3, 32)), 7.0)


class TestLinearRegime:
    def test_mode1_growth_and_decay(self):
        for mu in (0.05, -0.05):
            rate, predicted = measure_growth_rate(CANON, 7.0 + mu, 1)
            assert abs(predicted - mu / 2.0) < 1e-12
            assert abs(rate - predicted) <= 0.05 * abs(predicted)

    def test_growth_window_without_samples(self):
        # mode 20 decays at rate 399: by the end of settling it is below 1e-14
        with pytest.raises(WindowTooShort, match="keeps 0 samples"):
            measure_growth_rate(CANON, 7.0, 20, t_end=1.0)
        # one sample (t = 0.01) survives settling
        with pytest.raises(WindowTooShort, match=r"window \[0\.001, 0\.01\] keeps 1 "):
            measure_growth_rate(CANON, 7.05, 1, t_end=0.01)

    def test_damped_mode_rate(self):
        rate, predicted = measure_growth_rate(CANON, 7.0, 2)
        assert abs(predicted + 3.0) < 1e-12
        assert abs(rate - predicted) <= 0.05 * abs(predicted)

    def test_subcritical_decay_of_pattern(self):
        # beta1 - 0.2: every k != 0 mode is damped, so a pinned-mean run
        # relaxes back to the uniform state
        beta = 6.8
        config = SimConfig(n_grid=64, dt=5e-3, perturb_kind="random",
                           eps=1e-3, seed=2, pin_mean=True)
        U = Simulator(CANON, config).advance(initialize(CANON.with_beta(beta), config)[None],
                                             [beta], [8000])[0]
        modes = np.abs(np.fft.rfft(U[0])) / config.n_grid
        assert modes[1] < 1e-5 and modes[2] < 1e-5


@pytest.mark.parametrize("pin_mean", [False, True])
def test_step_integrates_rhs(pin_mean):
    """One step's difference quotient tends to Simulator.rhs at first order in dt.

    The field carries modes 1-15 on 32 points, so the cubic term has content
    above the 2/3 cutoff and only the dealiased operator is the one stepped.
    Its means are the uniform state (alpha, beta/alpha), so a pinned step
    starts where the field is, and a pinned rhs is the projected operator:
    its spatial means are zero.
    """
    n = 32
    rng = np.random.default_rng(7)
    x = 2.0 * np.pi * np.arange(n) / n - np.pi
    waves = np.exp(1j * np.outer(np.arange(1, 16), x))
    U = np.array([[2.0], [3.5]]) + np.real(
        0.05 * (rng.standard_normal((2, 15)) + 1j * rng.standard_normal((2, 15))) @ waves)
    for dt in (1e-4, 1e-5, 1e-6):
        sim = Simulator(CANON, SimConfig(n_grid=n, dt=dt, pin_mean=pin_mean))
        quotient = (sim.advance(U[None], [CANON.beta], [1])[0] - U) / dt
        rhs = sim.rhs(U[None], CANON.beta)[0]
        assert np.max(np.abs(quotient - rhs)) <= 1e4 * dt
        if pin_mean:
            assert np.max(np.abs(rhs.mean(axis=-1))) <= 1e-13
    uniform = initialize(CANON, SimConfig(n_grid=n, eps=0.0))
    assert np.max(np.abs(sim.rhs(uniform[None], 7.0))) <= 1e-13


@pytest.mark.parametrize("half_length", [math.pi, math.pi / 2, 2.0, 3.0, 5.0, 7.3, 13.0, 100.0])
def test_dealiasing_keeps_the_cutoff_modes_at_every_length(half_length):
    """The cubic term keeps wave indices j <= 2 floor(N/2)/3, whatever the half-length.

    With u1 = 1 and alpha = beta + 1, dU1/dt is the dealiased u1^2 u2 = u2, so
    the modes of u2 that rhs passes to it are the ones the stepper keeps.
    """
    params = ModelParams(alpha=2.0, beta=1.0, half_length=half_length)
    wrong = []
    for n in range(2, 600):
        u2 = np.random.default_rng(n).standard_normal(n)
        sim = Simulator(params, SimConfig(n_grid=n, eps=0.0, t_max=1.0))
        du1 = sim.rhs(np.stack([np.ones(n), u2])[None], params.beta)[0, 0]
        V, X = np.fft.rfft(u2) / n, np.fft.rfft(du1) / n
        kept, dropped = np.abs(X - V) <= 1e-10, np.abs(X) <= 1e-10
        if not (kept | dropped).all() or np.flatnonzero(kept).tolist() != list(
                range(2 * (n // 2) // 3 + 1)):
            wrong.append(n)
    assert wrong == []


def test_mean_identity():
    """d/dt of mean(v1 + v2) equals -mean(v1) along the flow."""
    config = SimConfig(n_grid=64, dt=1e-3, perturb_kind="random",
                       eps=5e-2, seed=9)
    sim = Simulator(CANON, config)
    # let the quadratic terms build up a genuine mean deviation first
    U = sim.advance(initialize(CANON, config)[None], [CANON.beta], [1000])
    means = []
    for _ in range(3):
        means.append((np.mean(U[0, 0]) - CANON.alpha, np.mean(U[0, 1]) - 7.0 / CANON.alpha))
        U = sim.advance(U, [CANON.beta], [1])
    lhs = ((means[2][0] + means[2][1]) - (means[0][0] + means[0][1])) \
        / (2.0 * config.dt)
    rhs = -means[1][0]
    assert abs(lhs - rhs) <= 1e-3 * abs(rhs)


def test_equivariance_commutators():
    config = SimConfig(n_grid=128, dt=1e-3, perturb_kind="random",
                       eps=1e-2, seed=1)
    rep = equivariance_test(CANON, config, phi=0.7, t_end=1.0)
    assert rep["translation"] <= 1e-8
    assert rep["reflection"] <= 1e-8
    rep0 = equivariance_test(CANON, config, phi=0.0, t_end=0.05)
    assert rep0["translation"] <= 1e-14


def test_timestep_convergence_order():
    order = timestep_convergence_order(CANON.with_beta(6.8))
    assert order >= 1.8


@pytest.mark.parametrize("raw", [
    {"alpha": 2.0, "beta": 7.0},
    # the standing-wave point, where pinned runs settle on standing waves
    {"alpha": 3.642485, "beta": 7.0, "delta1": 0.957092, "delta2": 0.876726},
], ids=["canonical", "standing_wave"])
def test_pinned_runs_are_second_order_at_finite_amplitude(raw):
    """A pinned run integrates the projected system, whose means never move,
    so both stages see the pinned means and the order is two at eps = 0.3 too."""
    params = validate(raw)
    beta = onset(params).beta1 + 0.05
    params = params.with_beta(beta)

    def solve(dt):
        config = SimConfig(n_grid=64, dt=dt, t_max=2.0, eps=0.3, perturb_kind="random",
                           seed=1, pin_mean=True)
        return Simulator(params, config).advance(initialize(params, config)[None], [beta],
                                                 [round(2.0 / dt)])[0]

    reference = solve(0.02 / 16)
    errors = [np.max(np.abs(solve(dt) - reference)) for dt in (0.02, 0.01, 0.005)]
    orders = np.log2(np.divide(errors[:-1], errors[1:]))
    assert orders.min() >= 1.8, orders


def test_subcritical_scaling_reports_decay():
    config = SimConfig(n_grid=64, dt=0.02, t_max=300.0, eps=1e-3,
                       perturb_kind="traveling", pin_mean=True)
    result = amplitude_scaling_experiment(CANON, [-0.05], config=config)
    assert result["verdict"] == "decay"
    assert result["rows"][0]["decayed"]


def test_scaling_needs_a_mu():
    with pytest.raises(InvalidConfig, match="the mu list is empty"):
        amplitude_scaling_experiment(CANON, [])


def test_scaling_rejects_a_nonfinite_mu():
    config = SimConfig(n_grid=32, dt=0.05, t_max=1.0, eps=1e-3)
    with pytest.raises(InvalidConfig, match="got mu = nan"):
        amplitude_scaling_experiment(CANON, [0.1, float("nan")], config=config)


def test_scaling_batch_equals_single_runs():
    config = SimConfig(n_grid=32, dt=0.05, t_max=20.0, eps=1e-3,
                       perturb_kind="traveling", pin_mean=True)
    mus = [-0.05, -0.1]
    batch = amplitude_scaling_experiment(CANON, mus, config=config)["rows"]
    for mu, row in zip(mus, batch):
        assert amplitude_scaling_experiment(CANON, [mu], config=config)["rows"] == [row]


def test_no_saturation_names_first_failing_mu():
    config = SimConfig(n_grid=32, dt=0.05, t_max=10.0, eps=1e-2,
                       perturb_kind="traveling", pin_mean=True)
    with pytest.raises(NoSaturation, match=r"mu = 0\.3:"):
        amplitude_scaling_experiment(CANON, [-0.05, 0.3, 0.2], config=config)


def test_decay_verdict_reads_the_config_eps():
    # the mode-1 amplitude is still 98.6 % of its start: not decayed
    config = SimConfig(n_grid=32, dt=0.05, t_max=10.0, eps=1e-4,
                       perturb_kind="traveling", pin_mean=True)
    result = amplitude_scaling_experiment(CANON, [-0.01], config=config)
    assert not result["rows"][0]["decayed"]
    assert "verdict" not in result


def test_simulate_and_scaling_sample_alike(tmp_path, monkeypatch):
    # at dt = 0.015, 0.1 / dt = 6.67: both sample every 7 steps
    dt = 0.015
    spacing = []
    advance = Simulator.advance

    def spy(self, U, betas, n_steps, sample_every=0, observe=None):
        spacing.append(sample_every)
        return advance(self, U, betas, n_steps, sample_every, observe)

    monkeypatch.setattr(Simulator, "advance", spy)
    config = SimConfig(n_grid=32, dt=dt, t_max=3.0, eps=1e-3, pin_mean=True)
    amplitude_scaling_experiment(CANON, [-0.05], config=config)
    series = tmp_path / "series.csv"
    assert dispatch(["simulate", "--alpha", "2", "--mu", "-0.05", "--dt", repr(dt),
                     "--tmax", "3", "--n-grid", "32", "--series", str(series),
                     "--out", str(tmp_path / "sim.json")]) == 0
    times = [float(row["t"]) for row in csv.DictReader(series.open())]
    assert spacing == [7, 7]
    assert abs(times[1] - times[0] - 7 * dt) < 1e-12
