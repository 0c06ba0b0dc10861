"""Cubic truncated normal form: branches, stability, trajectories, waves.

In polar coordinates z1 = r1 e^{i th1}, z2 = r2 e^{i th2} the truncation
decouples into a planar radial system and two phase equations,

    r1' = r1 (Re a mu + Re b r1^2 + Re c r2^2),
    r2' = r2 (Re a mu + Re b r2^2 + Re c r1^2),
    th1' = omega + Im a mu + Im b r1^2 + Im c r2^2,
    th2' = omega + Im a mu + Im b r2^2 + Im c r1^2.

Nontrivial radial equilibria are the rotating waves (one radius zero) and
the standing waves (equal radii); stability is always read off the radial
Jacobian, never transcribed from a diagram.  One record, regime_batch,
holds the wave families of a batch of systems; branches and
classify_regime read it for a batch of one.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, StepSizeUnderflow, shown
from .params import ModelParams, is_finite_real, onset
from .pdesim import grid
from .spectral import xi1, xi2

DEGENERACY_TOL = 1e-10


def _is_finite_number(value, kind=numbers.Complex) -> bool:
    """Whether value is a number of kind, not a bool, whose parts are finite floats."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and is_finite_real(value.real) and is_finite_real(value.imag))


def _held(name, value, kind):
    """value as kind, float or complex, or a (P,) array as a kind array; InvalidConfig
    unless each number in it is finite (not NaN, inf, a bool or beyond the float range)."""
    if np.ndim(value):
        array = np.asarray(value)
        if array.dtype.kind in ("iuf" if kind is float else "iufc") and np.isfinite(array).all():
            return array.astype(kind, copy=False)
    elif _is_finite_number(value, numbers.Real if kind is float else numbers.Complex):
        return kind(value)
    raise InvalidConfig(f"{name} must be finite, got {shown(value)}")


@dataclass(frozen=True)
class ReducedSystem:
    """The truncation at one mu; regime_batch also takes (P,) arrays as fields.

    mu and omega are held as floats and a, b and c as complex numbers, or as
    arrays of them: each field is checked and converted once, when the record
    is built, and one that is not finite is InvalidConfig.
    """

    mu: float
    omega: float
    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        for name, kind in (("mu", float), ("omega", float), ("a", complex), ("b", complex),
                           ("c", complex)):
            object.__setattr__(self, name, _held(name, getattr(self, name), kind))

    @classmethod
    def from_coeffs(cls, nf, mu: float) -> "ReducedSystem":
        return cls(mu=mu, omega=nf.omega, a=nf.a, b=nf.b, c=nf.c)


def _check_point(sys: ReducedSystem, caller: str) -> None:
    """Raise InvalidConfig unless every field of sys is a number: the batch record
    of (P,) arrays is regime_batch's alone."""
    if any(np.ndim(getattr(sys, name)) for name in ("mu", "omega", "a", "b", "c")):
        raise InvalidConfig(f"{caller} takes a ReducedSystem of numbers, got one of arrays; "
                            f"regime_batch reads a batch")


@dataclass(frozen=True)
class BranchPoint:
    kind: str            # "trivial" | "rotating_wave_1" | "rotating_wave_2" | "standing_wave"
    r1: float
    r2: float
    stability: str       # "stable" | "unstable" | "degenerate"
    frequencies: tuple   # (th1', th2') at the equilibrium


def _polar_vector_field(sys: ReducedSystem, r1: float, r2: float):
    """(r1', r2', th1', th2'); by O(2) symmetry they do not depend on the phases."""
    aR, bR, cR = sys.a.real, sys.b.real, sys.c.real
    aI, bI, cI = sys.a.imag, sys.b.imag, sys.c.imag
    s1, s2 = r1 * r1, r2 * r2
    dr1 = r1 * (aR * sys.mu + bR * s1 + cR * s2)
    dr2 = r2 * (aR * sys.mu + bR * s2 + cR * s1)
    dth1 = sys.omega + aI * sys.mu + bI * s1 + cI * s2
    dth2 = sys.omega + aI * sys.mu + bI * s2 + cI * s1
    return dr1, dr2, dth1, dth2


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


def regime_batch(sys: ReducedSystem) -> dict:
    """The wave-family record of sys, whose fields are floats or (P,) arrays.

    "relations" holds the three non-degeneracy relations, with (A, B) =
    (c, b - c).  "trivial" (radii (0, 0)), "rotating_wave" (cubic
    coefficient Re b, radii (r, 0)) and "standing_wave" (Re b + Re c, radii
    (r, r)) each map
      exists: the family is a branch at mu, an equilibrium there or, when
        its coefficient is within tolerance of zero (flat), the origin;
      radius: r = sqrt(-Re a mu / coefficient), 0 where it does not exist;
      stability: "degenerate" at mu = 0, for a flat family, or when a
        radial eigenvalue at the equilibrium is within DEGENERACY_TOL |Re a|
        of zero; else "stable" or "unstable";
      stable: at the probe offset, the relations hold and the family exists
        and is stable (classify_regime's stable_families);
      frequencies: (th1', th2') at the equilibrium.
    The equilibrium's r^2 and eigenvalues are proportional to mu, so the
    rule is read once, at the unit offset sign(mu): the verdict is the same
    at every mu of one sign, however small or large.  At mu = 0 only a flat
    family exists and every branch is degenerate; the probe offset there is
    -sign(Re b), just off onset.
    """
    a, b, c, mu = (np.asarray(v) for v in (sys.a, sys.b, sys.c, sys.mu))
    aR, bR, cR = a.real, b.real, c.real
    live = mu != 0.0
    unit = np.where(live, np.sign(mu), -np.copysign(1.0, bR))
    tol = DEGENERACY_TOL * (1.0 + abs(b) + abs(c))
    relations = {
        "Re_B_nonzero": abs(bR - cR) > tol,                # Re(b - c) != 0
        "Re_A_plus_B_nonzero": abs(bR) > tol,              # Re b != 0
        "Re_2A_plus_B_nonzero": abs(bR + cR) > tol,        # Re(b + c) != 0
    }
    regular = np.logical_and.reduce(list(relations.values()))
    scale = DEGENERACY_TOL * abs(aR)   # the radial eigenvalues are Re a times ratios
    record = {"relations": relations}
    shape = np.shape(unit)
    every, zero = np.full(shape, True), np.zeros(shape)
    # flat, exists at the probe, exists at mu, radius at the probe and at mu
    families = {"trivial": (~every, every, every, zero, zero)}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for name, coef, nonzero in (
                ("rotating_wave", bR, relations["Re_A_plus_B_nonzero"]),
                ("standing_wave", bR + cR, relations["Re_2A_plus_B_nonzero"])):
            unit_sq, r_sq = -aR * unit / coef, -aR * mu / coef
            exists = nonzero & (unit_sq > 0.0)
            families[name] = (~nonzero, exists, ~nonzero | (exists & live),
                              np.sqrt(np.where(exists, unit_sq, 0.0)),
                              np.sqrt(np.where(exists & live, r_sq, 0.0)))
        for name, (flat, exists, listed, u, r) in families.items():
            u2, r2 = (u, r) if name == "standing_wave" else (0.0, 0.0)
            e1, e2 = _radial_eigenvalues(aR, bR, cR, unit, u, u2)
            degenerate = flat | (abs(e1) <= scale) | (abs(e2) <= scale)
            negative = (e1 < 0.0) & (e2 < 0.0)
            record[name] = {
                "exists": listed,
                "radius": r,
                "stability": np.where(degenerate | ~live, "degenerate",
                                      np.where(negative, "stable", "unstable")),
                "stable": exists & ~degenerate & negative & regular,
                "frequencies": _polar_vector_field(sys, r, r2)[2:],
            }
    return record


def branches(sys: ReducedSystem) -> list:
    """The branch points of ``regime_batch`` at this mu: its batch of one.

    The trivial branch, then rotating_wave_1 (r, 0), rotating_wave_2
    (0, r) and standing_wave (r, r) where the family exists; a flat family
    is listed at the origin as degenerate.
    """
    _check_point(sys, "branches")
    record = regime_batch(sys)
    out = []
    for name in ("trivial", "rotating_wave", "standing_wave"):
        family = record[name]
        if family["exists"]:
            r, stability = float(family["radius"]), str(family["stability"])
            th1, th2 = map(float, family["frequencies"])
            out += ([BranchPoint("rotating_wave_1", r, 0.0, stability, (th1, th2)),
                     BranchPoint("rotating_wave_2", 0.0, r, stability, (th2, th1))]
                    if name == "rotating_wave" else
                    [BranchPoint(name, r, r, stability, (th1, th2))])
    return out


def classify_regime(sys: ReducedSystem) -> dict:
    """Non-degeneracy relations and which wave family is orbitally stable.

    Both are ``regime_batch``'s, of the batch of one; (A, B) = (c, b - c)
    gives the quadrant report.
    """
    _check_point(sys, "classify_regime")
    record = regime_batch(sys)
    relations = {name: bool(holds) for name, holds in record["relations"].items()}
    A = sys.c
    B = sys.b - sys.c
    return {
        "A_real": A.real,
        "B_real": B.real,
        "sector": (int(np.sign(A.real)), int(np.sign(B.real))),
        "relations": relations,
        "degenerate": not all(relations.values()),
        "stable_families": [name for name in ("rotating_wave", "standing_wave")
                            if record[name]["stable"]],
    }


# The embedded 5(4) pair of Dormand & Prince (1980): stage coefficients
# A, fifth-order weights B (the last stage is the new point, FSAL) and the
# error weights E = B - B*, the fifth- minus the fourth-order weights.
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200,
                          22 / 525, -1 / 40)
RTOL, ATOL = 1e-10, 1e-12


def _dp54_step(sys: ReducedSystem, y: tuple, k1: tuple, h: float):
    """One Dormand-Prince step of size h from y = (r1, r2, th1, th2).

    k1 is the vector field at y.  Returns the fifth-order point, the vector
    field there (the next step's k1) and the RMS of the error estimate in
    units of atol + rtol |y|, which is not finite when a stage is not.  The
    phases do not enter the vector field, so only the radii are staged.
    """
    f = _polar_vector_field
    r1, r2, th1, th2 = y
    u1, v1, p1, q1 = k1
    u2, v2, p2, q2 = f(sys, r1 + h * A21 * u1, r2 + h * A21 * v1)
    u3, v3, p3, q3 = f(sys, r1 + h * (A31 * u1 + A32 * u2),
                       r2 + h * (A31 * v1 + A32 * v2))
    u4, v4, p4, q4 = f(sys, r1 + h * (A41 * u1 + A42 * u2 + A43 * u3),
                       r2 + h * (A41 * v1 + A42 * v2 + A43 * v3))
    u5, v5, p5, q5 = f(sys, r1 + h * (A51 * u1 + A52 * u2 + A53 * u3 + A54 * u4),
                       r2 + h * (A51 * v1 + A52 * v2 + A53 * v3 + A54 * v4))
    u6, v6, p6, q6 = f(sys, r1 + h * (A61 * u1 + A62 * u2 + A63 * u3 + A64 * u4 + A65 * u5),
                       r2 + h * (A61 * v1 + A62 * v2 + A63 * v3 + A64 * v4 + A65 * v5))
    new = (r1 + h * (B1 * u1 + B3 * u3 + B4 * u4 + B5 * u5 + B6 * u6),
           r2 + h * (B1 * v1 + B3 * v3 + B4 * v4 + B5 * v5 + B6 * v6),
           th1 + h * (B1 * p1 + B3 * p3 + B4 * p4 + B5 * p5 + B6 * p6),
           th2 + h * (B1 * q1 + B3 * q3 + B4 * q4 + B5 * q5 + B6 * q6))
    k7 = u7, v7, p7, q7 = f(sys, new[0], new[1])
    err = (h * (E1 * u1 + E3 * u3 + E4 * u4 + E5 * u5 + E6 * u6 + E7 * u7),
           h * (E1 * v1 + E3 * v3 + E4 * v4 + E5 * v5 + E6 * v6 + E7 * v7),
           h * (E1 * p1 + E3 * p3 + E4 * p4 + E5 * p5 + E6 * p6 + E7 * p7),
           h * (E1 * q1 + E3 * q3 + E4 * q4 + E5 * q5 + E6 * q6 + E7 * q7))
    scaled = [e / (ATOL + RTOL * max(abs(a), abs(b))) for e, a, b in zip(err, y, new)]
    return new, k7, math.sqrt(sum(e * e for e in scaled) / 4.0)


def integrate_truncated(sys: ReducedSystem, z1_0: complex, z2_0: complex,
                        t_max: float, dt: float):
    """Trajectory of the four-real-dimensional truncation, sampled every dt.

    Integrates the polar system of the module docstring in the state
    (r1, r2, th1, th2), which carries no fast rotation: the radii follow
    the planar radial system and the phases are a quadrature of it.  Each
    z_j = 0 is invariant (r_j' is a multiple of r_j), so a zero start stays
    exactly zero.  The integrator is the embedded Dormand-Prince 5(4) pair
    on plain floats, with rtol = 1e-10 and atol = 1e-12 on the RMS error
    estimate, a safety factor 0.9 and step ratios in [0.2, 5]; its steps land
    on every sample time.  A step whose estimate is not finite is rejected
    and shrunk, so a finite-time blow-up (or an overflowing start) ends in
    StepSizeUnderflow naming the time reached.

    Returns (t, z1, z2) arrays; deterministic for fixed inputs.
    """
    _check_point(sys, "integrate_truncated")
    for name, value in (("t_max", t_max), ("dt", dt)):
        if not (is_finite_real(value) and value > 0.0):
            raise InvalidConfig(f"{name} must be finite and > 0, got {shown(value)}")
    for name, value in (("z1_0", z1_0), ("z2_0", z2_0)):
        if not _is_finite_number(value):
            raise InvalidConfig(f"{name} must be finite, got {shown(value)}")

    t_eval = np.arange(0.0, t_max + 0.5 * dt, dt)
    z1_0, z2_0 = complex(z1_0), complex(z2_0)
    y = (abs(z1_0), abs(z2_0), cmath.phase(z1_0), cmath.phase(z2_0))
    k = _polar_vector_field(sys, y[0], y[1])
    samples = [y]
    t, h = 0.0, dt
    for t_next in t_eval[1:].tolist():
        while t < t_next:
            land = t + 1.01 * h >= t_next   # no sliver of a step before a sample
            step = t_next - t if land else h
            y_new, k_new, err = _dp54_step(sys, y, k, step)
            if err <= 1.0:                 # never true for a NaN estimate
                t, y, k = (t_next if land else t + step), y_new, k_new
                h = step * (5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2))
            else:
                h = step * (max(0.2, 0.9 * err ** -0.2) if err < math.inf else 0.2)
                if h < 10.0 * math.ulp(t):
                    raise StepSizeUnderflow(
                        f"step size underflow at t = {t:.6g}: the trajectory "
                        "blows up or leaves the floating-point range there")
        samples.append(y)
    r1, r2, th1, th2 = np.array(samples).T
    return t_eval, r1 * np.exp(1j * th1), r2 * np.exp(1j * th2)


def branch_frequency(branch: BranchPoint) -> float:
    """Common rotation rate omega*(mu) of the nonzero components at a branch point.

    On rotating_wave_2 only z2 is nonzero, so its rate is th2'; th1' there
    is the rate of a vanishing component and differs.
    """
    return branch.frequencies[1] if branch.r1 == 0.0 else branch.frequencies[0]


def reconstruct_wave(params: ModelParams, sys: ReducedSystem, branch: BranchPoint,
                     phi1: float, phi2: float, t: float, n_grid: int = 256):
    """Sample the leading-order bifurcated wave on the collocation grid.

    Returns (x, u, imag_residue) with u of shape (2, n_grid); the wave is
    the uniform state plus  z1 xi1 + z2 xi2 + conjugates  with
    z_j = r_j e^{i(w* t + phi_j)}, and imag_residue is the largest |Im| of
    that sum, zero up to round-off when the conjugate pairs cancel.
    """
    _check_point(sys, "reconstruct_wave")
    if branch.kind == "trivial":
        raise ValueError("reconstruct_wave requires a nontrivial branch")
    for name, value in (("phi1", phi1), ("phi2", phi2), ("t", t)):
        if not is_finite_real(value):
            raise InvalidConfig(f"{name} must be a finite real number, got {shown(value)}")
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
