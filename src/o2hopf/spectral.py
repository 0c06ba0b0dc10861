"""Linear stability analysis of the uniform state.

Mode n (integer, wave number k = n*pi/half_length) contributes the 2x2 matrix

    M_n = [[-k^2 delta1 + beta - 1,  alpha^2   ],
           [-beta,                  -k^2 delta2 - alpha^2]]

with characteristic polynomial P_n(lambda, beta) = lambda^2 +
(beta(n)-beta) lambda + gamma(n) - k^2 delta2 beta.  At beta = beta1 the
modes n = +-1 carry the doubled pure-imaginary pair +-i omega; all other
nonzero modes stay off the imaginary axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatch
from .modes import ModeSum
from .params import ModelParams, hopf_bound, onset, validate

DEFAULT_IMAG_AXIS_TOL = 1e-10
DEFAULT_N_MAX = 64


@dataclass(frozen=True)
class ModeRecord:
    n: int
    k: float
    roots: tuple
    max_real_part: float


@dataclass(frozen=True)
class ScanResult:
    records: list
    verdict: str                 # "hopf_onset" | "stable" | "unstable"
    critical_modes: list
    certificate_margin: float    # uniform lower bound on (gamma(n) - k^2 d2 beta)/k^2


@dataclass(frozen=True)
class TuringReport:
    roots: tuple
    both_positive_real_part: bool


def _beta_gamma(alpha, d1, d2, k2):
    """beta(k) and gamma(k) at wave number squared k2; floats or arrays."""
    a2 = alpha ** 2
    return (1.0 + a2 + k2 * (d1 + d2),
            k2 * d2 + k2 * d1 * a2 + k2 ** 2 * d1 * d2 + a2)


def beta_n(params: ModelParams, n: int) -> float:
    return _beta_gamma(params.alpha, params.delta1, params.delta2,
                       (n * params.k1) ** 2)[0]


def gamma_n(params: ModelParams, n: int) -> float:
    return _beta_gamma(params.alpha, params.delta1, params.delta2,
                       (n * params.k1) ** 2)[1]


def onset_poly(alpha, d1, d2, n2, z):
    """P_n(z) at beta = beta1, written without beta1; floats or numpy arrays.

    With the rescaled diffusion rates d1, d2 and n2 = n^2,
    P_n(z) = z^2 + (n^2 - 1)(d1 + d2) z + alpha^2 (1 + n^2 (d1 - d2))
    + n^2 (n^2 - 1) d1 d2 - n^2 d2^2: beta(n) - beta1 and gamma(n) - n^2 d2
    beta1 are formed without subtracting beta1, which a double cannot hold
    next to alpha^2 when d1 + d2 is far smaller.  The constant is expanded as
    the published P_2(0) writes it, so the closed form keeps its bits.
    """
    return (z * z + (n2 - 1.0) * (d1 + d2) * z + alpha ** 2 * (1.0 + n2 * (d1 - d2))
            + n2 * (n2 - 1.0) * d1 * d2 - n2 * d2 ** 2)


def mode_matrix(params: ModelParams, n: int, beta: float) -> np.ndarray:
    k2, a2 = (n * params.k1) ** 2, params.alpha ** 2
    return np.array([[-k2 * params.delta1 + beta - 1.0, a2],
                     [-beta, -k2 * params.delta2 - a2]], dtype=complex)


def _quadratic_roots(b: float, c: float):
    """Roots of lambda^2 + b lambda + c, cancellation-safe."""
    disc = b * b - 4.0 * c
    if disc >= 0.0:
        sq = math.sqrt(disc)
        q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else sq / 2.0
        if q == 0.0:
            return (0.0 + 0.0j, 0.0 + 0.0j)
        r1 = complex(q)
        r2 = complex(c / q)
        return (r1, r2)
    sq = math.sqrt(-disc)
    return (complex(-b / 2.0, sq / 2.0), complex(-b / 2.0, -sq / 2.0))


def mode_eigenvalues(params: ModelParams, n: int) -> ModeRecord:
    """Roots of the mode-n characteristic polynomial at params.beta."""
    k2 = (n * params.k1) ** 2
    bk, gk = _beta_gamma(params.alpha, params.delta1, params.delta2, k2)
    b = bk - params.beta
    c = gk - k2 * params.delta2 * params.beta
    roots = _quadratic_roots(b, c)
    return ModeRecord(n=n, k=n * params.k1, roots=roots,
                      max_real_part=max(r.real for r in roots))


def onset_scan(params: ModelParams, n_max: int = DEFAULT_N_MAX) -> ScanResult:
    """Classify the spectrum over modes |n| <= n_max at params.beta."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    validate(params)
    records = [mode_eigenvalues(params, n) for n in range(0, n_max + 1)]
    tol = DEFAULT_IMAG_AXIS_TOL
    critical = [r.n for r in records
                if r.n != 0 and abs(r.max_real_part) <= tol
                and max(abs(root.real) for root in r.roots) <= tol]
    unstable = [r.n for r in records if r.n != 0 and r.max_real_part > tol]
    if critical and not unstable:
        verdict = "hopf_onset"
    elif unstable:
        verdict = "unstable"
    else:
        verdict = "stable"

    # Closed-form certificate: gamma(n) - k^2 d2 beta >= k^2 d2 (bound - beta),
    # uniform over all nonzero modes.
    with np.errstate(over="ignore"):   # the bound may overflow where beta1 does not
        margin = float(params.delta2 * (hopf_bound(params.alpha, params.delta1, params.delta2)
                                         - params.beta))

    crit = sorted(set(critical) | {-n for n in critical})
    return ScanResult(records=records, verdict=verdict, critical_modes=crit,
                      certificate_margin=margin)


def turing_check(params: ModelParams) -> TuringReport:
    """Diffusionless (n = 0) spectrum at beta1: both roots in the right half plane."""
    data = onset(params)
    rec = mode_eigenvalues(params.with_beta(data.beta1), 0)
    return TuringReport(roots=rec.roots,
                        both_positive_real_part=all(r.real > 0 for r in rec.roots))


def xi1_amp(alpha, d2e, omega):
    """Amplitude of xi1 at wave index 1; floats or (B,) arrays -> (..., 2)."""
    a2 = alpha ** 2
    second = (-a2 - d2e + 1j * omega) / a2
    return np.stack(np.broadcast_arrays(1.0 + 0.0j, second), axis=-1)


def xi1_star_amp(alpha, d2e, omega, half_length):
    """Amplitude of the dual xi1* at wave index 1, normalized so <xi1, xi1*> = 1."""
    a2 = alpha ** 2
    pref = 1j * (a2 / (4.0 * half_length * omega))
    first = pref * ((d2e + a2 - 1j * omega) / a2)
    return np.stack(np.broadcast_arrays(first, pref * 1.0), axis=-1)


def xi1(params: ModelParams) -> ModeSum:
    """Eigenfunction of the critical mode n = 1 for eigenvalue +i omega (admissible sets)."""
    return ModeSum.single(1, xi1_amp(params.alpha, params.effective_diffusion()[1],
                                     onset(validate(params)).omega))


def xi2(params: ModelParams) -> ModeSum:
    """Reflected eigenfunction S xi1 (mode -1, same amplitude, eigenvalue +i omega)."""
    return xi1(params).reflect()


def xi1_star(params: ModelParams) -> ModeSum:
    """Dual eigenfunction, normalized so <xi1, xi1*> = 1 (admissible sets)."""
    return ModeSum.single(1, xi1_star_amp(params.alpha, params.effective_diffusion()[1],
                                          onset(validate(params)).omega, params.half_length))


def inner_product(params: ModelParams, f: ModeSum, g: ModeSum) -> complex:
    """Hermitian pairing int (f1 conj(g1) + f2 conj(g2)) dx over one period.

    Computed exactly by mode orthogonality.  Fields sampled on grids are
    handled by the simulation module; this pairing is the algebraic one.
    """
    if not isinstance(f, ModeSum) or not isinstance(g, ModeSum):
        raise DomainMismatch("inner_product expects two ModeSums over the same domain")
    total = 0.0 + 0.0j
    for n, a in f.terms.items():
        b = g.terms.get(n)
        if b is not None:
            total += np.dot(a, np.conj(b))
    return complex(2.0 * params.half_length * total)
