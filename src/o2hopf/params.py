"""Model parameters, validation, and derived onset quantities.

The nondimensional Brusselator on the periodic interval [-half_length,
half_length) is

    du1/dt = delta1 u1_xx - (beta+1) u1 + u1^2 u2 + alpha,
    du2/dt = delta2 u2_xx + beta u1 - u1^2 u2,

with uniform equilibrium (alpha, beta/alpha).  The critical wave number is
k1 = pi/half_length; the analysis for a general half_length is identical to
the half_length = pi case with the diffusion rates rescaled by k1^2.

A ModelParams holds its five constants as floats, and a pdesim.SimConfig its run
settings as floats, ints and a bool: each checks and converts its fields once, when
it is built, and refuses a bad value there with a typed error that names it as given.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import InadmissibleRegime, NonPositiveParameter

_POSITIVE_FIELDS = ("alpha", "beta", "delta1", "delta2", "half_length")


@dataclass(frozen=True)
class ModelParams:
    alpha: float
    beta: float
    delta1: float = 1.0
    delta2: float = 1.0
    half_length: float = math.pi

    def __post_init__(self):
        """Refuse the first constant that is not a finite real > 0, named as given."""
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not isinstance(real := _as_float(value), float):
                raise NonPositiveParameter(name, value, "a real number within the float range")
            if not (math.isfinite(real) and real > 0.0):
                raise NonPositiveParameter(name, value)
            object.__setattr__(self, name, real)

    @property
    def k1(self) -> float:
        """Fundamental (critical) wave number of the periodic domain."""
        return math.pi / self.half_length

    def effective_diffusion(self):
        """Diffusion rates rescaled so the critical mode has unit wave number."""
        return _rescaled(self.delta1, self.delta2, self.half_length)

    def with_beta(self, beta: float) -> "ModelParams":
        return replace(self, beta=beta)


@dataclass(frozen=True)
class OnsetData:
    beta1: float       # critical control value, 1 + alpha^2 + k1^2(delta1+delta2)
    omega: float       # Hopf frequency (0.0 when inadmissible)
    mu: float          # beta - beta1
    admissible: bool


def _rescaled(delta1, delta2, half_length):
    """(delta1, delta2) * k1^2; floats or numpy arrays."""
    k1 = math.pi / half_length   # k1 * k1 overflows to inf where a float's ** raises
    return delta1 * (k1 * k1), delta2 * (k1 * k1)


def critical_values(alpha, d1e, d2e):
    """beta1 and omega^2 from alpha and the rescaled diffusion rates.

    Pure arithmetic, so it takes floats or numpy arrays alike.  omega^2 =
    alpha^2 (1 + d1e - d2e) - d2e^2 is formed as (alpha - d2e)(alpha + d2e) +
    alpha^2 (d1e - d2e), which does not cancel terms of about alpha^2 where
    d2e -> alpha and d1e ~ d2e (the Turing bound meets omega = 0).
    """
    alpha2 = alpha * alpha
    return 1.0 + alpha2 + d1e + d2e, (alpha - d2e) * (alpha + d2e) + alpha2 * (d1e - d2e)


def hopf_bound(alpha, delta1, delta2):
    """(1 + alpha sqrt(delta1/delta2))^2: the Hopf analysis needs beta1 below it."""
    root = 1.0 + alpha * np.sqrt(delta1 / delta2)
    return root * root


def onset_terms(alpha, delta1, delta2, half_length):
    """(d1e, d2e, beta1, omega^2, admissible) of positive model constants.

    The constants may be floats or numpy arrays; ``onset``, ``validate``
    and the vectorised sweep share this one definition of admissibility.
    """
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is inadmissible
        d1e, d2e = _rescaled(delta1, delta2, half_length)
        beta1, omega_sq = critical_values(alpha, d1e, d2e)
        # beta1 below the bound is finite; omega^2 = inf is an overflow too
        admissible = ((omega_sq > 0.0) & np.isfinite(omega_sq)
                      & (beta1 < hopf_bound(alpha, delta1, delta2)))
    return d1e, d2e, beta1, omega_sq, admissible


def is_positive(value):
    """Whether a model constant is finite and strictly positive (elementwise on arrays)."""
    return np.isfinite(value) & (value > 0.0)


def _as_float(value):
    """float(value) for a real number, not a bool, within the float range; else value."""
    if type(value) is float or isinstance(value, bool) or not isinstance(value, numbers.Real):
        return value
    try:
        return float(value)
    except OverflowError:   # an integer beyond the float range
        return value


def is_finite_real(value) -> bool:
    """Whether value is a real number, not a bool, that is finite as a float."""
    value = _as_float(value)
    return isinstance(value, float) and math.isfinite(value)


def validate(raw) -> ModelParams:
    """The ModelParams raw is or is built from, if the Hopf analysis applies to it;
    else InadmissibleRegime (omega^2 <= 0 or not finite, or beta1 >= hopf_bound)."""
    params = raw if isinstance(raw, ModelParams) else ModelParams(**dict(raw))
    _, _, beta1, w2, admissible = onset_terms(params.alpha, params.delta1, params.delta2,
                                              params.half_length)
    if not admissible:
        with np.errstate(over="ignore"):
            bound = hopf_bound(params.alpha, params.delta1, params.delta2)
        raise InadmissibleRegime(f"O(2)-Hopf analysis does not apply: omega^2 = {w2:.6g}, "
                                 f"beta1 = {beta1:.6g}, bound = {bound:.6g}")
    return params


def onset(params: ModelParams) -> OnsetData:
    """Critical value beta1, Hopf frequency omega, and offset mu = beta - beta1.

    Inadmissibility is reported through the flag, never raised, so that
    parameter sweeps can chart the admissibility boundary.
    """
    _, _, beta1, omega_sq, admissible = onset_terms(
        params.alpha, params.delta1, params.delta2, params.half_length)
    omega = math.sqrt(omega_sq) if omega_sq > 0.0 else 0.0
    return OnsetData(beta1=beta1, omega=omega, mu=params.beta - beta1,
                     admissible=bool(admissible))


def read_config(path) -> dict:
    """The ``key = value`` lines of a parameter file, as floats, unvalidated.

    A line that is not ``key = value``, an unknown key, a key given twice or
    a value that is not a number raises ValueError naming the file and line.
    """
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _POSITIVE_FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise ValueError(f"{path}:{lineno}: {key!r} is given more than once")
            try:
                raw[key] = float(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be a number, "
                                 f"got {value!r}") from None
    return raw
