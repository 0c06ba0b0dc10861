"""Linear stability analysis of the uniform state.

Mode n (integer, wave number k = n*pi/half_length) contributes the 2x2 matrix

    M_n = [[-k^2 delta1 + beta - 1,  alpha^2   ],
           [-beta,                  -k^2 delta2 - alpha^2]]

with characteristic polynomial P_n(lambda, beta) = lambda^2 +
(beta(n)-beta) lambda + gamma(n) - k^2 delta2 beta.  At beta = beta1 the
modes n = +-1 carry the doubled pure-imaginary pair +-i omega; all other
nonzero modes stay off the imaginary axis.  The roots of every mode come
from one array evaluation (``mode_eigenvalues`` is a batch of one), and a
record's leading root has the larger real part, then the larger imaginary
part: +i omega at onset.  Squares are products, as numpy's arrays form
them; a float raised to the power 2 is libm pow, which is not x*x for about
0.08 % of doubles, so a point would part from the same point in a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatch, InvalidConfig, shown
from .modes import ModeSum
from .params import ModelParams, hopf_bound, is_integer, onset

DEFAULT_IMAG_AXIS_TOL = 1e-10
DEFAULT_N_MAX = 64
_MAX_N_MAX = 100_000   # a mode's record takes about 0.5 kB: 1e5 modes scan in 0.5 s and 50 MB


@dataclass(frozen=True)
class ModeRecord:
    n: int
    k: float
    roots: tuple
    max_real_part: float

    @property
    def leading(self) -> complex:
        """The leading root: the larger real part, then the larger imaginary part."""
        return max(self.roots, key=lambda z: (z.real, z.imag))


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
    a2 = alpha * alpha
    return (1.0 + a2 + k2 * (d1 + d2),
            k2 * d2 + k2 * d1 * a2 + k2 * k2 * d1 * d2 + a2)


def onset_poly(alpha, d1, d2, n2, w=None):
    """P_n(0), or P_n(2i w) at the Hopf frequency w, at beta = beta1; floats or arrays.

    With the rescaled diffusion rates d1, d2 and n2 = n^2,
    P_n(z) = z^2 + (n^2 - 1)(d1 + d2) z + alpha^2 (1 + n^2 (d1 - d2))
    + n^2 (n^2 - 1) d1 d2 - n^2 d2^2: beta(n) - beta1 and gamma(n) - n^2 d2
    beta1 are formed without subtracting beta1, which a double cannot hold
    next to alpha^2 when d1 + d2 is far smaller.  P_n(0) is expanded as the
    published P_2(0) writes it, so the closed form keeps its bits.  z^2 =
    -4 w^2 is not formed from the rounded w: its rounding, about 1e-16 alpha^2,
    would stay in a real part that the alpha^2 terms cancel to (12 d1 d2 -
    3 alpha^2 for n = 2).  w^2 = alpha^2 (1 + d1 - d2) - d2^2 is substituted.
    """
    a2 = alpha * alpha
    if w is None:
        return a2 * (1.0 + n2 * (d1 - d2)) + n2 * (n2 - 1.0) * d1 * d2 - n2 * (d2 * d2)
    return (a2 * ((n2 - 4.0) * (d1 - d2) - 3.0) + n2 * (n2 - 1.0) * d1 * d2
            + (4.0 - n2) * (d2 * d2) + 1j * ((n2 - 1.0) * (d1 + d2) * (2.0 * w)))


def mode_matrix(params: ModelParams, n: int, beta: float) -> np.ndarray:
    k2, a2 = (n * params.k1) * (n * params.k1), params.alpha * params.alpha
    return np.array([[-k2 * params.delta1 + beta - 1.0, a2],
                     [-beta, -k2 * params.delta2 - a2]], dtype=complex)


def _mode_records(params: ModelParams, ns) -> list:
    """ModeRecords of the modes ns at params.beta from one array evaluation: the
    cancellation-safe roots of lambda^2 + b lambda + c, q = -(b + sign(b) sqrt(disc))/2
    and c/q (both 0 where q is) or -b/2 +- i sqrt(-disc)/2; like a float, it never warns."""
    k = np.asarray(ns, dtype=float) * params.k1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bk, gk = _beta_gamma(params.alpha, params.delta1, params.delta2, k * k)
        b = bk - params.beta
        c = gk - k * k * params.delta2 * params.beta
        disc = b * b - 4.0 * c
        sq = np.sqrt(np.abs(disc))
        q = np.where(b != 0.0, -0.5 * (b + np.copysign(sq, b)), 0.5 * sq)
        real = disc >= 0.0
        roots = np.empty((2, k.size), complex)   # set by parts: no sign of a zero moves
        roots.real = np.where(real & (q != 0.0), (q, c / q), np.where(real, 0.0, -0.5 * b))
        roots.imag = np.where(real, 0.0, (0.5 * sq, -0.5 * sq))
    return [ModeRecord(n=n, k=kn, roots=(r1, r2), max_real_part=max(r1.real, r2.real))
            for n, kn, (r1, r2) in zip(ns, k.tolist(), roots.T.tolist())]


def mode_eigenvalues(params: ModelParams, n: int) -> ModeRecord:
    """Roots of the mode-n characteristic polynomial at params.beta: a batch of one."""
    return _mode_records(params, [n])[0]


def onset_scan(params: ModelParams, n_max: int = DEFAULT_N_MAX) -> ScanResult:
    """Classify the spectrum over modes |n| <= n_max at params.beta."""
    if not is_integer(n_max):
        raise InvalidConfig(f"n_max must be an integer, got {shown(n_max)}")
    if not 2 <= n_max <= _MAX_N_MAX:
        raise InvalidConfig(f"n_max must be at least 2 and at most {_MAX_N_MAX}, got {n_max}")
    onset(params)   # refuses an inadmissible set
    records = _mode_records(params, range(n_max + 1))
    tol = DEFAULT_IMAG_AXIS_TOL
    critical = [r.n for r in records[1:] if max(abs(z.real) for z in r.roots) <= tol]
    unstable = [r.n for r in records[1:] if r.max_real_part > tol]
    verdict = "unstable" if unstable else "hopf_onset" if critical else "stable"

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
    a2 = alpha * alpha
    second = (-a2 - d2e + 1j * omega) / a2
    return np.stack(np.broadcast_arrays(1.0 + 0.0j, second), axis=-1)


def xi1(params: ModelParams) -> ModeSum:
    """Eigenfunction of the critical mode n = 1 for eigenvalue +i omega (admissible sets)."""
    return ModeSum.single(1, xi1_amp(params.alpha, params.effective_diffusion()[1],
                                     onset(params).omega))


def xi2(params: ModelParams) -> ModeSum:
    """Reflected eigenfunction S xi1 (mode -1, same amplitude, eigenvalue +i omega)."""
    return xi1(params).reflect()


def xi1_star(params: ModelParams) -> ModeSum:
    """Dual eigenfunction, normalized so <xi1, xi1*> = 1 (admissible sets)."""
    omega = onset(params).omega
    a2, d2e = params.alpha * params.alpha, params.effective_diffusion()[1]
    pref = 1j * (a2 / (4.0 * params.half_length * omega))
    return ModeSum.single(1, np.array([pref * ((d2e + a2 - 1j * omega) / a2), pref]))


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
