"""Cubic truncated normal form: branches, stability, trajectories, waves.

In polar coordinates z1 = r1 e^{i th1}, z2 = r2 e^{i th2} the truncation
decouples into a planar radial system and two phase equations,

    r1' = r1 (Re a mu + Re b r1^2 + Re c r2^2),
    r2' = r2 (Re a mu + Re b r2^2 + Re c r1^2),
    th1' = omega + Im a mu + Im b r1^2 + Im c r2^2,
    th2' = omega + Im a mu + Im b r2^2 + Im c r1^2.

Nontrivial radial equilibria are the rotating waves (one radius zero) and
the standing waves (equal radii); stability is always read off the radial
Jacobian, never transcribed from a diagram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, StepSizeUnderflow
from .params import ModelParams, onset
from .pdesim import grid
from .spectral import xi1, xi2

DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class ReducedSystem:
    mu: float
    omega: float
    a: complex
    b: complex
    c: complex

    @classmethod
    def from_coeffs(cls, nf, mu: float) -> "ReducedSystem":
        return cls(mu=mu, omega=nf.omega, a=nf.a, b=nf.b, c=nf.c)


@dataclass(frozen=True)
class BranchPoint:
    kind: str            # "trivial" | "rotating_wave_1" | "rotating_wave_2" | "standing_wave"
    r1: float
    r2: float
    stability: str       # "stable" | "unstable" | "degenerate"
    frequencies: tuple   # (th1', th2') at the equilibrium


def polar_vector_field(sys: ReducedSystem, r1: float, r2: float):
    """(r1', r2', th1', th2'); by O(2) symmetry they do not depend on the phases."""
    aR, bR, cR = sys.a.real, sys.b.real, sys.c.real
    aI, bI, cI = sys.a.imag, sys.b.imag, sys.c.imag
    dr1 = r1 * (aR * sys.mu + bR * r1 ** 2 + cR * r2 ** 2)
    dr2 = r2 * (aR * sys.mu + bR * r2 ** 2 + cR * r1 ** 2)
    dth1 = sys.omega + aI * sys.mu + bI * r1 ** 2 + cI * r2 ** 2
    dth2 = sys.omega + aI * sys.mu + bI * r2 ** 2 + cI * r1 ** 2
    return dr1, dr2, dth1, dth2


def _tolerance(b, c):
    """Degeneracy threshold of a coefficient pair; floats or arrays."""
    return DEGENERACY_TOL * (1.0 + abs(b) + abs(c))


def _radial_eigenvalues(aR, bR, cR, mu, r1, r2):
    """Eigenvalues of the radial Jacobian at an equilibrium, in closed form.

    The Jacobian is [[p1, q], [q, p2]] with q = 2 Re c r1 r2.  On the
    trivial and rotating waves q = 0 and the eigenvalues are p1 and p2; on
    the standing waves p1 = p2 = p and they are p + q and p - q.  Both cases
    are p1 + q and p2 - q.  Floats or arrays.
    """
    s1, s2 = r1 * r1, r2 * r2
    q = 2.0 * cR * r1 * r2
    return (aR * mu + 3.0 * bR * s1 + cR * s2 + q,
            aR * mu + 3.0 * bR * s2 + cR * s1 - q)


def _stability_flags(eigs, scale):
    """(degenerate, stable) of two real eigenvalues; floats or arrays."""
    e1, e2 = eigs
    return ((abs(e1) <= scale) | (abs(e2) <= scale)), ((e1 < 0.0) & (e2 < 0.0))


def _stability(sys: ReducedSystem, r1: float, r2: float) -> str:
    degenerate, stable = _stability_flags(
        _radial_eigenvalues(sys.a.real, sys.b.real, sys.c.real, sys.mu, r1, r2),
        _tolerance(sys.b, sys.c))
    if degenerate:
        return "degenerate"
    return "stable" if stable else "unstable"


def _branch(sys: ReducedSystem, kind: str, r1: float, r2: float,
            stability: str | None = None) -> BranchPoint:
    _, _, dth1, dth2 = polar_vector_field(sys, r1, r2)
    return BranchPoint(kind=kind, r1=r1, r2=r2,
                       stability=stability or _stability(sys, r1, r2),
                       frequencies=(dth1, dth2))


def branches(sys: ReducedSystem) -> list:
    """Trivial branch plus every nontrivial family existing at this mu."""
    aR, bR, cR = sys.a.real, sys.b.real, sys.c.real
    tol = _tolerance(sys.b, sys.c)
    out = [_branch(sys, "trivial", 0.0, 0.0)]

    if abs(bR) <= tol:
        out.append(_branch(sys, "rotating_wave_1", 0.0, 0.0, stability="degenerate"))
        out.append(_branch(sys, "rotating_wave_2", 0.0, 0.0, stability="degenerate"))
    elif -aR * sys.mu / bR > 0.0:
        r = math.sqrt(-aR * sys.mu / bR)
        out.append(_branch(sys, "rotating_wave_1", r, 0.0))
        out.append(_branch(sys, "rotating_wave_2", 0.0, r))

    bc = bR + cR
    if abs(bc) <= tol:
        out.append(_branch(sys, "standing_wave", 0.0, 0.0, stability="degenerate"))
    elif -aR * sys.mu / bc > 0.0:
        r = math.sqrt(-aR * sys.mu / bc)
        out.append(_branch(sys, "standing_wave", r, r))
    return out


def classify_regime(sys: ReducedSystem) -> dict:
    """Non-degeneracy relations and which wave family is orbitally stable.

    Uses the (A, B) = (c, b - c) correspondence for the quadrant report but
    derives stability from the radial Jacobian, not from a diagram.
    """
    bR, cR = sys.b.real, sys.c.real
    tol = _tolerance(sys.b, sys.c)
    A = sys.c
    B = sys.b - sys.c
    relations = {
        "Re_B_nonzero": abs(B.real) > tol,                 # Re(b - c) != 0
        "Re_A_plus_B_nonzero": abs(bR) > tol,              # Re b != 0
        "Re_2A_plus_B_nonzero": abs(bR + cR) > tol,        # Re(b + c) != 0
    }
    degenerate = not all(relations.values())

    stable_kinds = []
    if not degenerate:
        probe = sys if sys.mu != 0.0 else ReducedSystem(
            mu=-math.copysign(1e-3, bR), omega=sys.omega, a=sys.a, b=sys.b, c=sys.c)
        for bp in branches(probe):
            if bp.kind != "trivial" and bp.stability == "stable":
                stable_kinds.append(bp.kind)

    return {
        "A_real": A.real,
        "B_real": B.real,
        "sector": (int(np.sign(A.real)), int(np.sign(B.real))),
        "relations": relations,
        "degenerate": degenerate,
        "stable_families": sorted(set(
            "rotating_wave" if k.startswith("rotating") else "standing_wave"
            for k in stable_kinds)),
    }


def regime_batch(a, b, c, mu) -> dict:
    """Existence, stability and regime of the wave families for arrays of points.

    a, b, c (complex) and mu (real) are (P,) arrays.  Per point this is
    what ``branches`` and ``classify_regime`` report, with the same
    tolerance, the same eigenvalues and the same mu = 0 probe:
    rotating_exists/standing_exists say that the family exists at mu with a
    nondegenerate stability, rotating_stable/standing_stable that it is in
    classify_regime's stable_families.  Returns bool arrays under those keys.
    """
    aR, bR, cR = a.real, b.real, c.real
    tol = _tolerance(b, c)
    bc = bR + cR
    degenerate = (np.abs(bR - cR) <= tol) | (np.abs(bR) <= tol) | (np.abs(bc) <= tol)
    probe = np.where(mu != 0.0, mu, -np.copysign(1e-3, bR))

    def family(at_mu, coef, standing):
        """Whether the family exists at at_mu with a nondegenerate stability, and is stable."""
        with np.errstate(divide="ignore", invalid="ignore"):
            r_sq = -aR * at_mu / coef
        exists = (np.abs(coef) > tol) & (r_sq > 0.0)
        r = np.sqrt(np.where(exists, r_sq, 0.0))
        flat, stable = _stability_flags(
            _radial_eigenvalues(aR, bR, cR, at_mu, r, r if standing else 0.0), tol)
        return exists & ~flat, exists & ~flat & stable

    rotating_exists, _ = family(mu, bR, False)
    standing_exists, _ = family(mu, bc, True)
    _, rotating_stable = family(probe, bR, False)
    _, standing_stable = family(probe, bc, True)
    return {"rotating_exists": rotating_exists, "standing_exists": standing_exists,
            "rotating_stable": rotating_stable & ~degenerate,
            "standing_stable": standing_stable & ~degenerate}


def integrate_truncated(sys: ReducedSystem, z1_0: complex, z2_0: complex,
                        t_max: float, dt: float):
    """Trajectory of the four-real-dimensional truncation, sampled every dt.

    Integrates the polar system of the module docstring in the state
    (r1, r2, th1, th2), which carries no fast rotation: the radii follow
    the planar radial system and the phases are a quadrature of it.  Each
    z_j = 0 is invariant (r_j' is a multiple of r_j), so a zero start stays
    exactly zero.  scipy is imported here, on the first call, so that the
    rest of the package loads with numpy alone.

    Returns (t, z1, z2) arrays; deterministic for fixed inputs.
    """
    for name, value in (("t_max", t_max), ("dt", dt)):
        if not (math.isfinite(value) and value > 0.0):
            raise InvalidConfig(f"{name} must be finite and > 0, got {value!r}")
    from scipy.integrate import solve_ivp

    def rhs(_, y):
        return polar_vector_field(sys, y[0], y[1])

    t_eval = np.arange(0.0, t_max + 0.5 * dt, dt)
    y0 = [abs(z1_0), abs(z2_0), np.angle(z1_0), np.angle(z2_0)]
    sol = solve_ivp(rhs, (0.0, t_max), y0, t_eval=t_eval, rtol=1e-10, atol=1e-12,
                    method="RK45")
    if not sol.success:
        raise StepSizeUnderflow(sol.message)
    r1, r2, th1, th2 = sol.y
    return sol.t, r1 * np.exp(1j * th1), r2 * np.exp(1j * th2)


def branch_frequency(branch: BranchPoint) -> float:
    """Common rotation rate omega*(mu) of the nonzero components at a branch point.

    On rotating_wave_2 only z2 is nonzero, so its rate is th2'; th1' there
    is the rate of a vanishing component and differs.
    """
    return branch.frequencies[1] if branch.r1 == 0.0 else branch.frequencies[0]


def reconstruct_wave(params: ModelParams, sys: ReducedSystem, branch: BranchPoint,
                     phi1: float, phi2: float, t: float, n_grid: int = 256):
    """Sample the leading-order bifurcated wave on the collocation grid.

    Returns (x, u) with u of shape (2, n_grid); the wave is the uniform
    state plus  z1 xi1 + z2 xi2 + conjugates  with z_j = r_j e^{i(w* t + phi_j)}.
    """
    if branch.kind == "trivial":
        raise ValueError("reconstruct_wave requires a nontrivial branch")
    w_star = branch_frequency(branch)
    z1 = branch.r1 * np.exp(1j * (w_star * t + phi1))
    z2 = branch.r2 * np.exp(1j * (w_star * t + phi2))

    x = grid(params, n_grid)
    k1 = params.k1
    amp1 = next(iter(xi1(params).terms.values()))
    amp2 = next(iter(xi2(params).terms.values()))
    wave = (z1 * np.exp(1j * k1 * x)[None, :] * amp1[:, None]
            + z2 * np.exp(-1j * k1 * x)[None, :] * amp2[:, None])
    field = wave + np.conj(wave)

    beta = onset(params).beta1 + sys.mu
    uniform = np.array([params.alpha, beta / params.alpha])
    u = uniform[:, None] + field.real
    imag_residue = float(np.max(np.abs(field.imag)))
    return x, u, imag_residue
