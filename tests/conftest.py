"""Shared helpers for the test suite."""

import math

import numpy as np

from o2hopf import ModelParams, onset
from o2hopf.params import onset_terms
from o2hopf.spectral import _beta_gamma


def admissible(p):
    """Whether the Hopf analysis applies to p, charted as the sweep charts it."""
    return bool(onset_terms(p.alpha, p.delta1, p.delta2, p.half_length)[-1])


def random_admissible(rng, vary_domain=False):
    """Rejection-sample a validated parameter set at beta = beta1."""
    lengths = (math.pi, math.pi / 2, 2.0, 5.0) if vary_domain else (math.pi,)
    while True:
        p = ModelParams(alpha=float(rng.uniform(0.5, 3.0)),
                        beta=1.0,
                        delta1=float(rng.uniform(0.2, 2.0)),
                        delta2=float(rng.uniform(0.1, 1.5)),
                        half_length=float(rng.choice(lengths)))
        if admissible(p):
            return p.with_beta(onset(p).beta1)


def beta_n(params, n):
    """beta(n) of mode n, from spectral's one definition."""
    k = n * params.k1
    return _beta_gamma(params.alpha, params.delta1, params.delta2, k * k)[0]


def gamma_n(params, n):
    """gamma(n) of mode n, from spectral's one definition."""
    k = n * params.k1
    return _beta_gamma(params.alpha, params.delta1, params.delta2, k * k)[1]


def evaluate_on_grid(mode_sum, params, x):
    """Sample a ModeSum on grid points x, returning a (2, len(x)) array."""
    out = np.zeros((2, x.size), dtype=complex)
    for n, amp in mode_sum.terms.items():
        out += amp[:, None] * np.exp(1j * n * params.k1 * x)[None, :]
    return out
