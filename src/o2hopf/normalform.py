"""Normal-form coefficients a, b, c of the cubic O(2)-Hopf reduction.

Three routes are provided:

* ``projection`` (authoritative): solve the four 2x2 resolvent systems for
  the quadratic-order reduction functions, assemble the cubic-order
  residual sums with the multilinear maps, and project onto the dual
  eigenfunction.
* ``direct``: literal complex-arithmetic evaluation of the unsimplified
  projection expressions, with reciprocals of P_2(2i omega), P_0(2i omega)
  and P_2(0) computed by actual complex division.
* ``closed_form``: the fully simplified published expressions through
  the constants N_r, N_i, B_r, B_i, C_2r, C_2i, Q_r, Q_i, P_2(0).  These
  embed a reciprocal of P_2(2i omega) that disagrees with direct division
  by a constant factor, so this route is reproduced and reported as-is
  rather than reconciled; the discrepancy against the other two routes is
  part of the coefficient report.

The projection route is one array kernel over a batch of B parameter
points.  Every function it touches sits at a single wave index: xi1 at 1
and its conjugate at -1, psi_11000 and psi_10100 at 0, psi_20000 and
psi_10010 at 2, while psi_00001 vanishes.  Every value of R20 and R30 is a
multiple s (1, -1).  So each function is held as a (B, 2) complex
amplitude at its fixed index, the multilinear maps become elementwise
products, (z I - M_n) psi = s (1, -1) is solved in closed form, with
P_n(z) from ``spectral.onset_poly``, and the pairing of s (1, -1) with
xi1* is s (omega - i delta2') / (2 omega), in which the domain length
cancels.  On an admissible set no P_n(z) the routes divide by vanishes
(P_0(0) = alpha^2, P_2(0) = det M_2(beta1) > 0 below the Turing bound,
and Im P_2(2i omega), Im P_0(2i omega) are +-omega multiples of d1 + d2),
so every route requires admissibility and nothing else.  ``coeffs``,
``solve_psi`` and ``coeffs_report`` run the kernel with B = 1; the
ModeSum algebra of ``modes`` stays the independent reference with which
``PsiTable.residuals`` and the report's residual orthogonality rebuild
the vectors.  Constants so extreme that a route's values overflow are an
inadmissible regime.

All coefficients depend only on alpha and the rescaled diffusion rates
delta1', delta2', never on mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InadmissibleRegime
from .meanzero import zero_mode_content
from .modes import ModeSum, R01, R20, R30
from .params import ModelParams, OnsetData, critical_values, onset, validate
from .spectral import inner_product, mode_matrix, onset_poly, xi1, xi1_amp, xi1_star, xi2

ROUTES = ("projection", "direct", "closed_form")

_OVERFLOW = "O(2)-Hopf analysis does not apply: the {} route overflows at these constants"
CONSISTENCY_TOL = 1e-8

# The kernel's resolvent systems: (reduction function, whether the resolvent
# value is 2i omega rather than 0, wave index of the system).
_SYSTEMS = (("psi_11000", False, 0), ("psi_20000", True, 2),
            ("psi_10100", True, 0), ("psi_10010", False, 2))


@dataclass(frozen=True)
class PsiTable:
    psi_00001: ModeSum
    psi_11000: ModeSum
    psi_00110: ModeSum
    psi_20000: ModeSum
    psi_10100: ModeSum
    psi_10010: ModeSum

    def residuals(self, params: ModelParams) -> dict:
        """Relative residual |(z I - L) psi - rhs| / (1 + |rhs|) of each resolvent equation.

        Its floor is about 1e-16 alpha: in psi_20000's equation terms of about
        alpha^2 cancel to a rhs of about alpha (with delta = L = 1: 9e-14 at
        alpha = 1e3, 9e-11 at 1e6, 1e-7 at 1e9), while the normwise backward
        error of the kernel's psi stays below 1e-16.
        """
        w = onset(params).omega
        x1, x2 = xi1(params), xi2(params)
        checks = {
            "psi_11000": (0.0, 0, self.psi_11000,
                          2.0 * R20(params, x1, x1.conj())),
            "psi_20000": (2j * w, 2, self.psi_20000,
                          R20(params, x1, x1)),
            "psi_10100": (2j * w, 0, self.psi_10100,
                          2.0 * R20(params, x1, x2)),
            "psi_10010": (0.0, 2, self.psi_10010,
                          2.0 * R20(params, x1, x2.conj())),
        }
        out = {}
        beta1 = onset(params).beta1
        for name, (z, n, psi, rhs) in checks.items():
            lhs = ModeSum({m: (z * np.eye(2) - mode_matrix(params, m, beta1)) @ amp
                           for m, amp in psi.terms.items()})   # (z I - L_{beta1}) psi
            out[name] = (lhs - rhs).norm() / (1.0 + rhs.norm())
        m0 = mode_matrix(params, 0, beta1) + np.array([[1.0, 0.0], [-1.0, 0.0]])
        out["psi_00001"] = float(np.linalg.norm(m0 @ self.psi_00001.amp(0)))
        return out


@dataclass(frozen=True)
class NormalFormCoeffs:
    a: complex
    b: complex
    c: complex
    route: str
    omega: float
    beta1: float


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise product of two complex arrays of one shape, from real parts.

    numpy's array loops may fuse the multiply-adds of a complex product
    where its scalar arithmetic does not.  Forming the product from the
    real and imaginary parts rounds it as the scalar arithmetic does, so a
    kernel point carries the same bits as the ModeSum route run on numpy
    floats.
    """
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    out = np.empty_like(x)
    out.real = xr * yr - xi * yi
    out.imag = xr * yi + xi * yr
    return out


def _solve(s, w, n: int, alpha, d1, d2):
    """psi with (z I - M_n(beta1)) psi = s (1, -1) for a batch; z = 2i w, or 0 if w is None.

    psi = s (z + n^2 d2, -(z + n^2 d1 + 1)) / P_n(z): beta1 has cancelled.
    psi is NaN where P_n(z) overflowed.
    """
    k2 = float(n * n)
    z = 0.0 if w is None else 2j * w
    det = onset_poly(alpha, d1, d2, k2, w)
    coef = np.where(np.isfinite(det), s, np.nan) / det
    return np.stack([_cmul(coef, z + k2 * d2), _cmul(coef, -(z + k2 * d1 + 1.0))], axis=-1)


class _Batch(NamedTuple):
    """Projection-route results for B parameter points."""
    a: np.ndarray          # (B,) complex
    b: np.ndarray
    c: np.ndarray
    psi: dict              # name -> (B, 2) amplitude at its wave index (_SYSTEMS)
    beta1: np.ndarray
    omega: np.ndarray
    finite: np.ndarray     # (B,) bool: a, b and c finite


def _projection_kernel(alpha, d1, d2) -> _Batch:
    """Projection-route a, b and c for a batch of parameter points.

    alpha and the rescaled diffusion rates d1, d2 are (B,) float arrays of
    admissible points, and the results depend on them alone.  The scalar
    route's overflow check becomes the mask finite; the a, b, c and psi of
    a masked point are meaningless.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # masked below
        beta1, omega_sq = critical_values(alpha, d1, d2)
        w = np.sqrt(omega_sq)
        ratio = beta1 / alpha
        x1 = xi1_amp(alpha, d2, w)          # at 1
        x1c = x1.conj()                     # conj xi1 at -1; conj xi2 at 1

        def r20(u, v):   # s with R20(u, v) = s (1, -1)
            return (alpha * (_cmul(u[:, 0], v[:, 1]) + _cmul(u[:, 1], v[:, 0]))
                    + _cmul(ratio * u[:, 0], v[:, 0]))

        def project(s):   # <s (1, -1), xi1*> at wave index 1 = s (omega - i d2) / (2 omega)
            return _cmul(s, (w - 1j * d2) / (2.0 * w))

        s11 = 2.0 * r20(x1, x1c)            # 2 R20(xi1, conj xi2)
        s20 = r20(x1, x1)                   # R20(xi1, xi2)
        rhs = {"psi_11000": s11, "psi_20000": s20, "psi_10100": 2.0 * s20, "psi_10010": s11}
        psi = {name: _solve(rhs[name], w if at_2iw else None, n, alpha, d1, d2)
               for name, at_2iw, n in _SYSTEMS}

        # cubic = R30(xi1, xi1, conj xi1) = R30(xi1, xi2, conj xi2)
        u, v, cv = x1[:, 0], x1[:, 1], x1c
        cubic = (_cmul(_cmul(u, u), cv[:, 1]) + _cmul(_cmul(u, v), cv[:, 0])
                 + _cmul(_cmul(v, u), cv[:, 0])) / 3.0
        p11 = psi["psi_11000"]              # psi_00110 = S psi_11000: same amplitude at 0
        a = project(x1[:, 0])               # R01(xi1); the psi_00001 term vanishes
        b = project(2.0 * r20(x1, p11) + 2.0 * r20(x1c, psi["psi_20000"]) + 3.0 * cubic)
        c = project(2.0 * r20(x1, p11) + 2.0 * r20(x1, psi["psi_10010"])
                    + 2.0 * r20(x1c, psi["psi_10100"]) + 6.0 * cubic)
    finite = np.isfinite(a) & np.isfinite(b) & np.isfinite(c)
    return _Batch(a=a, b=b, c=c, psi=psi, beta1=beta1, omega=w, finite=finite)


class _Projection(NamedTuple):
    a: complex
    b: complex
    c: complex
    psi: PsiTable
    onset: OnsetData


def _finite(route: str, compute, *args) -> dict:
    """compute(*args), a dict of numbers, unless one overflows at these constants."""
    try:   # a Python float's / raises where numpy's gives inf
        values = compute(*args)
        if np.isfinite(list(values.values())).all():
            return values
    except ArithmeticError:
        pass
    raise InadmissibleRegime(_OVERFLOW.format(route))


def _project(params: ModelParams) -> _Projection:
    """The projection kernel at B = 1; raises where it overflows."""
    data = onset(validate(params))
    k = _projection_kernel(*np.array([[params.alpha, *params.effective_diffusion()]]).T)
    if not k.finite[0]:
        raise InadmissibleRegime(_OVERFLOW.format("projection"))
    amps = {name: ModeSum.single(n, k.psi[name][0]) for name, _, n in _SYSTEMS}
    psi = PsiTable(psi_00001=ModeSum.zero(), psi_00110=amps["psi_11000"].reflect(),
                   **amps)
    return _Projection(complex(k.a[0]), complex(k.b[0]), complex(k.c[0]), psi, data)


def solve_psi(params: ModelParams) -> PsiTable:
    """Quadratic-order reduction functions from the four resolvent systems."""
    return _project(params).psi


def _asymptotic_a(params: ModelParams) -> complex:
    """a of the direct and closed-form routes, from the critical eigenvalue."""
    # d/dmu of lambda_+(mu) = mu/2 + i sqrt(omega^2 - d2 mu - mu^2/4) at mu = 0
    d2 = params.effective_diffusion()[1]
    return 0.5 - 1j * d2 / (2.0 * onset(params).omega)


def _c1(alpha, d1, d2, beta1, w, p20):
    """The P_2(0) term of c, shared by the direct route and the constant C_1."""
    a2 = alpha * alpha
    return (4.0 / p20) * ((2.0 * (a2 + d2) - beta1) / alpha) \
        * (alpha * (4.0 * d1 + 1.0) - (4.0 * d2 / alpha) * (1j * w + 1.0 + d1))


def _direct(params: ModelParams) -> dict:
    """a, b and c with literal complex division by P_2(2i omega), P_2(0) and P_0(2i omega)."""
    alpha, (d1, d2) = params.alpha, params.effective_diffusion()
    a2 = alpha * alpha
    data = onset(params)
    beta1, w = data.beta1, data.omega
    p2w = onset_poly(alpha, d1, d2, 4.0, w)
    pref = (w - 1j * d2) / (2.0 * w * a2)
    term = 5.0 * (a2 + d2) - 4.0 * beta1 + 1j * w
    fac = -2.0 * (a2 + d2) + beta1 + 2j * w
    brk = -a2 * (2j * w + 4.0 * d1 + 1.0) - (2j * w + 4.0 * d2) * (1j * w - 1.0 - d1)
    b = pref * (term + (2.0 / p2w) * fac * brk)

    p20 = onset_poly(alpha, d1, d2, 4.0)
    p02w = onset_poly(alpha, d1, d2, 0.0, w)
    c1 = _c1(alpha, d1, d2, beta1, w, p20)
    c2 = (4.0 / p02w) * ((beta1 - 2.0 * (a2 + d2) + 2j * w) / alpha) \
        * (-alpha * (2j * w + 1.0) + (2j * w / alpha) * (-1j * w + 1.0 + d1))
    pref = -1j * (d2 + 1j * w) / (2.0 * w)
    c = pref * ((2.0 * (a2 + d2) - 4.0 * beta1 + 2j * w) / a2 + c1 + c2)
    return {"a": _asymptotic_a(params), "b": b, "c": c}


def _closed_form(alpha, d1, d2, beta1, w) -> dict:
    """The published constants from rescaled parameters; floats or arrays."""
    a2 = alpha * alpha
    w2 = w * w
    p20 = onset_poly(alpha, d1, d2, 4.0)

    n_common = 2.0 * w2 + 4.0 * d2 + 4.0 * d1 * d2 - a2 - 4.0 * a2 * d1
    m_common = 2.0 + 2.0 * d1 - 4.0 * d2 - 2.0 * a2
    nr = (beta1 - 2.0 * a2 - 2.0 * d2) * n_common - 2.0 * w2 * m_common
    ni = (beta1 - 2.0 * a2 - 2.0 * d2) * m_common + 2.0 * n_common

    e, s = a2 - 4.0 * d1 * d2, d1 + d2
    denom = e * e + 4.0 * (s * s) * w2
    br = (-6.0 / denom) * (e * nr - 2.0 * w2 * s * ni)
    bi = (-6.0 / denom) * (e * ni + 2.0 * s * nr)

    re_b = (5.0 * a2 + 5.0 * d2 - 4.0 * beta1 + br + d2 + d2 * bi) / (2.0 * a2)
    im_b = (w2 + w2 * bi - 5.0 * d2 * a2 - 5.0 * (d2 * d2) + 4.0 * d2 * beta1
            - d2 * br) / (2.0 * w * a2)

    inner1 = (1.0 + d1 - d2 - a2) * (2.0 * w2 - a2) - 4.0 * (1.0 + d1 - a2) * w2
    inner2 = 2.0 * w2 - a2 + (1.0 + d1 - d2 - a2) * (1.0 + d1 - a2)
    c2r = e * inner1 - 4.0 * w2 * s * inner2
    c2i = 2.0 * w * (s * inner1 + e * inner2)

    qr = (2.0 * (a2 + d2) - 4.0 * beta1
          + (4.0 / p20) * (2.0 * a2 + 2.0 * d2 - beta1)
          * (4.0 * a2 * d1 + a2 - 4.0 * d2 - 4.0 * d1 * d2)
          - 12.0 * c2r / denom)
    qi = (2.0 * w - (16.0 * d2 * w / p20) * (2.0 * a2 + 2.0 * d2 - beta1)
          - 12.0 * c2i / denom)

    re_c = (w * qr + d2 * qi) / (2.0 * w * a2)
    im_c = (w * qi - d2 * qr) / (2.0 * w * a2)

    return {
        "N_r": nr, "N_i": ni, "B_r": br, "B_i": bi,
        "C_2r": c2r, "C_2i": c2i, "Q_r": qr, "Q_i": qi,
        "P2_0": p20,
        "P2_2iw": onset_poly(alpha, d1, d2, 4.0, w),
        "P0_2iw": onset_poly(alpha, d1, d2, 0.0, w),
        "b": re_b + 1j * im_b,
        "c": re_c + 1j * im_c,
        "C_1": _c1(alpha, d1, d2, beta1, w, p20),
        "C_2": -12.0 * (c2r + 1j * c2i) / (a2 * denom),
    }


def closed_form_constants(params: ModelParams) -> dict:
    """The published intermediate constants, evaluated literally."""
    data = onset(validate(params))
    return _finite("closed_form", _closed_form, params.alpha, *params.effective_diffusion(),
                   data.beta1, data.omega)


def coeffs_batch(alpha, d1, d2):
    """Projection a, b, c and closed-form b, c for arrays of points.

    alpha and the rescaled diffusion rates d1, d2 are (P,) arrays of
    admissible points.  Returns (values, errors): values maps
    "a", "b_projection", "c_projection", "b_closed_form" and
    "c_closed_form" to (P,) complex arrays; errors[i] is the error that
    ``coeffs`` and then ``closed_form_constants`` raise for point i, else
    None.  Values are NaN from a point's first failure on, so a point whose
    published constants alone overflow keeps its projection values.
    """
    k = _projection_kernel(alpha, d1, d2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # masked below
        closed = _closed_form(alpha, d1, d2, k.beta1, k.omega)
    closed_ok = k.finite & np.isfinite(list(closed.values())).all(axis=0)
    errors = [InadmissibleRegime(_OVERFLOW.format("projection")) if not ok_p else
              InadmissibleRegime(_OVERFLOW.format("closed_form")) if not ok_c else None
              for ok_p, ok_c in zip(k.finite.tolist(), closed_ok.tolist())]
    return {"a": np.where(k.finite, k.a, np.nan),
            "b_projection": np.where(k.finite, k.b, np.nan),
            "c_projection": np.where(k.finite, k.c, np.nan),
            "b_closed_form": np.where(closed_ok, closed["b"], np.nan),
            "c_closed_form": np.where(closed_ok, closed["c"], np.nan)}, errors


def coeffs(params: ModelParams, route: str = "projection") -> NormalFormCoeffs:
    """a, b and c by one of ROUTES; an unknown route raises ValueError."""
    if route == "projection":
        a, b, c, _, data = _project(params)
    elif route == "direct":
        data = onset(validate(params))
        a, b, c = _finite("direct", _direct, params).values()
    elif route == "closed_form":
        constants = closed_form_constants(params)
        data = onset(params)
        a, b, c = _asymptotic_a(params), constants["b"], constants["c"]
    else:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    return NormalFormCoeffs(a=a, b=b, c=c, route=route,
                            omega=data.omega, beta1=data.beta1)


def _orthogonality(params: ModelParams, proj: _Projection) -> dict:
    """|<residual, xi1*>| for the three projected residual vectors.

    Each residual (the assembled sum minus its coefficient times xi1) must
    lie in the range of (i omega - L), hence be orthogonal to xi1*.  The
    sums are rebuilt with the ModeSum algebra, independently of the kernel.
    """
    x1, x2 = xi1(params), xi2(params)
    star = xi1_star(params)
    psi = proj.psi
    vec_a = -proj.a * x1 + R01(x1) + 2.0 * R20(params, x1, psi.psi_00001)
    vec_b = (-proj.b * x1 + 2.0 * R20(params, x1, psi.psi_11000)
             + 2.0 * R20(params, x1.conj(), psi.psi_20000)
             + 3.0 * R30(x1, x1, x1.conj()))
    vec_c = (-proj.c * x1 + 2.0 * R20(params, x1, psi.psi_00110)
             + 2.0 * R20(params, x2, psi.psi_10010)
             + 2.0 * R20(params, x2.conj(), psi.psi_10100)
             + 6.0 * R30(x1, x2, x2.conj()))
    return {name: abs(inner_product(params, vec, star))
            for name, vec in (("a", vec_a), ("b", vec_b), ("c", vec_c))}


def coeffs_report(params: ModelParams) -> dict:
    """All routes, all intermediate constants, and pairwise discrepancies."""
    proj = _project(params)
    data = proj.onset
    constants = closed_form_constants(params)
    per_route = {
        "projection": {"a": proj.a, "b": proj.b, "c": proj.c},
        "direct": _finite("direct", _direct, params),
        "closed_form": {"a": _asymptotic_a(params), "b": constants["b"], "c": constants["c"]},
    }

    discrepancies = {}
    consistent = {}
    for i, r1 in enumerate(ROUTES):
        for r2 in ROUTES[i + 1:]:
            for name in ("a", "b", "c"):
                v1, v2 = per_route[r1][name], per_route[r2][name]
                gap = abs(v1 - v2)
                discrepancies[f"{name}:{r1}|{r2}"] = gap
                consistent[f"{name}:{r1}|{r2}"] = \
                    gap <= CONSISTENCY_TOL * (1.0 + max(abs(v1), abs(v2)))

    return {
        "params": params,
        "beta1": data.beta1,
        "omega": data.omega,
        "routes": per_route,
        "constants": {k: v for k, v in constants.items() if k not in ("b", "c")},
        "psi_residuals": proj.psi.residuals(params),
        "residual_orthogonality": _orthogonality(params, proj),
        "discrepancies": discrepancies,
        "consistent": consistent,
        "mean_zero_obstruction": zero_mode_content(params, proj.psi),
    }
