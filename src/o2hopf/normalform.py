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

Each route is one array function of (alpha, delta1', delta2', beta1,
omega) over P points, and one pass evaluates the routes a caller names,
in its order.  A point is its batch of one: ``coeffs``, ``solve_psi`` and
``coeffs_report`` run the pass with P = 1, ``coeffs_batch`` over the
sweep's grid; a point's published constants are ``coeffs_report``'s
"constants".  Constants so extreme that a route overflows are an
inadmissible regime: a point's values are NaN from that route on, and a
single point raises its refusal.

The projection kernel holds each function as a (2, P) amplitude at its
single wave index: xi1 at 1, psi_11000 and psi_10100 at 0, psi_20000 and
psi_10010 at 2, while psi_00001 vanishes.  Every value of R20 and R30 is
a multiple s (1, -1), so (z I - M_n) psi = s (1, -1) is solved in closed
form with P_n(z) from ``spectral.onset_poly``, and the pairing with xi1*
is s (omega - i delta2') / (2 omega).  No P_n(z) the routes divide by
vanishes on an admissible set (P_0(0) = alpha^2, P_2(0) = det M_2(beta1)
> 0 below the Turing bound, and Im P_2(2i omega), Im P_0(2i omega) are
+-omega multiples of d1 + d2).  The ModeSum algebra of ``modes`` stays
the independent reference with which ``PsiTable.residuals`` and the
report's residual orthogonality rebuild the vectors.

All coefficients depend only on alpha and the rescaled diffusion rates
delta1', delta2', never on mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleRegime
from .meanzero import zero_mode_content
from .modes import ModeSum, R01, R20, R30
from .params import ModelParams, critical_values, onset
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

    numpy's array loops may fuse the multiply-adds of a complex product,
    depending on the instructions the machine offers.  Forming the product
    from the real and imaginary parts rounds every operation on its own,
    so a route carries the same bits on every machine.
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
    return np.stack([_cmul(coef, z + k2 * d2), _cmul(coef, -(z + k2 * d1 + 1.0))])


def _projection_kernel(alpha, d1, d2, beta1, w) -> dict:
    """Projection-route a, b and c, and the amplitude of each psi of _SYSTEMS at its wave index."""
    ratio = beta1 / alpha
    x1 = xi1_amp(alpha, d2, w).T        # at 1
    x1c = x1.conj()                     # conj xi1 at -1; conj xi2 at 1

    def r20(u, v):   # s with R20(u, v) = s (1, -1)
        return alpha * (_cmul(u[0], v[1]) + _cmul(u[1], v[0])) + _cmul(ratio * u[0], v[0])

    def project(s):   # <s (1, -1), xi1*> at wave index 1 = s (omega - i d2) / (2 omega)
        return _cmul(s, (w - 1j * d2) / (2.0 * w))

    s11 = 2.0 * r20(x1, x1c)            # 2 R20(xi1, conj xi2)
    s20 = r20(x1, x1)                   # R20(xi1, xi2)
    rhs = {"psi_11000": s11, "psi_20000": s20, "psi_10100": 2.0 * s20, "psi_10010": s11}
    psi = {name: _solve(rhs[name], w if at_2iw else None, n, alpha, d1, d2)
           for name, at_2iw, n in _SYSTEMS}

    # cubic = R30(xi1, xi1, conj xi1) = R30(xi1, xi2, conj xi2)
    u, v, cv = x1[0], x1[1], x1c
    cubic = (_cmul(_cmul(u, u), cv[1]) + _cmul(_cmul(u, v), cv[0])
             + _cmul(_cmul(v, u), cv[0])) / 3.0
    p11 = psi["psi_11000"]              # psi_00110 = S psi_11000: same amplitude at 0
    a = project(x1[0])                  # R01(xi1); the psi_00001 term vanishes
    b = project(2.0 * r20(x1, p11) + 2.0 * r20(x1c, psi["psi_20000"]) + 3.0 * cubic)
    c = project(2.0 * r20(x1, p11) + 2.0 * r20(x1, psi["psi_10010"])
                + 2.0 * r20(x1c, psi["psi_10100"]) + 6.0 * cubic)
    return {"a": a, "b": b, "c": c, **psi}


def _asymptotic_a(d2, w):
    """a of the direct and closed-form routes, d/dmu of the critical eigenvalue
    mu/2 + i sqrt(omega^2 - d2 mu - mu^2/4) at mu = 0: (omega - i d2) / (2 omega)."""
    return 0.5 - 1j * (d2 / (2.0 * w))


def _c1(alpha, d1, d2, beta1, w, p20):
    """The P_2(0) term of c, shared by the direct route and the constant C_1."""
    a2 = alpha * alpha
    return (4.0 / p20) * ((2.0 * (a2 + d2) - beta1) / alpha) \
        * (alpha * (4.0 * d1 + 1.0) - (4.0 * d2 / alpha) * (1j * w + 1.0 + d1))


def _direct(alpha, d1, d2, beta1, w) -> dict:
    """a, b and c with literal complex division by P_2(2i omega), P_2(0) and P_0(2i omega)."""
    a2 = alpha * alpha
    a = _asymptotic_a(d2, w)
    p2w = onset_poly(alpha, d1, d2, 4.0, w)
    den = 2.0 * w * a2
    # numpy divides a complex by a real through a rounded reciprocal; real quotients do not
    pref = w / den - 1j * (d2 / den)
    term = 5.0 * (a2 + d2) - 4.0 * beta1 + 1j * w
    fac = -2.0 * (a2 + d2) + beta1 + 2j * w
    brk = -a2 * (2j * w + 4.0 * d1 + 1.0) - _cmul(2j * w + 4.0 * d2, 1j * w - 1.0 - d1)
    b = _cmul(pref, term + _cmul(_cmul(2.0 / p2w, fac), brk))

    p20 = onset_poly(alpha, d1, d2, 4.0)
    p02w = onset_poly(alpha, d1, d2, 0.0, w)
    c1 = _c1(alpha, d1, d2, beta1, w, p20)
    c2 = _cmul(_cmul(4.0 / p02w, (beta1 - 2.0 * (a2 + d2)) / alpha + 1j * (2.0 * w / alpha)),
               -alpha * (2j * w + 1.0) + _cmul(1j * (2.0 * w / alpha), -1j * w + 1.0 + d1))
    c = _cmul(a, (2.0 * (a2 + d2) - 4.0 * beta1) / a2 + 1j * (2.0 * w / a2) + c1 + c2)
    return {"a": a, "b": b, "c": c}


def _closed_form(alpha, d1, d2, beta1, w) -> dict:
    """The published constants and the route's a, b and c."""
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
        "a": _asymptotic_a(d2, w),
        "b": re_b + 1j * im_b,
        "c": re_c + 1j * im_c,
        "C_1": _c1(alpha, d1, d2, beta1, w, p20),
        "C_2": -12.0 * c2r / (a2 * denom) + 1j * (-12.0 * c2i / (a2 * denom)),
    }


_COMPUTE = {"projection": _projection_kernel, "direct": _direct, "closed_form": _closed_form}


def _evaluate(alpha, d1, d2, routes) -> tuple:
    """The named routes, in the order given, over (P,) arrays of admissible points.

    alpha and the rescaled diffusion rates d1, d2 fix beta1 and omega.
    Returns (values, refused): values maps each route to its dict of
    arrays, the point on the last axis, and refused[i] names the first
    route with a value that is not finite at point i, else None.  A
    point's values are NaN from that route on.
    """
    ok = np.ones(np.shape(alpha), dtype=bool)
    refused = np.full(ok.shape, None, dtype=object)
    values = {}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # masked below
        beta1, omega_sq = critical_values(alpha, d1, d2)
        w = np.sqrt(omega_sq)
        for route in routes:
            out = _COMPUTE[route](alpha, d1, d2, beta1, w)
            # one row per (P,) value, two per psi
            finite = ok & np.isfinite(np.vstack(list(out.values()))).all(axis=0)
            refused[ok & ~finite] = route
            ok = finite
            values[route] = out if ok.all() else {name: np.where(ok, v, np.nan)
                                                  for name, v in out.items()}
    return values, refused.tolist()


def _point(params: ModelParams, routes) -> tuple:
    """onset(params) and the named routes' values at params: a batch of one.

    Raises onset's refusal of an inadmissible set, then the refusal of the
    first route with a value that is not finite.
    """
    data = onset(params)
    values, refused = _evaluate(*np.array([[params.alpha, *params.effective_diffusion()]]).T,
                                routes)
    if refused[0] is not None:
        raise InadmissibleRegime(_OVERFLOW.format(refused[0]))
    return data, {route: {name: v[..., 0].tolist() for name, v in out.items()}
                  for route, out in values.items()}


def _psi_table(kernel: dict) -> PsiTable:
    """The reduction functions of one point's projection-kernel values."""
    amps = {name: ModeSum.single(n, kernel[name]) for name, _, n in _SYSTEMS}
    return PsiTable(psi_00001=ModeSum.zero(), psi_00110=amps["psi_11000"].reflect(),
                    **amps)


def solve_psi(params: ModelParams) -> PsiTable:
    """Quadratic-order reduction functions from the four resolvent systems."""
    return _psi_table(_point(params, ("projection",))[1]["projection"])


def coeffs_batch(alpha, d1, d2):
    """Projection a, b, c and closed-form b, c for arrays of points.

    alpha and the rescaled diffusion rates d1, d2 are (P,) arrays of
    admissible points.  Returns (values, errors): values maps
    "a", "b_projection", "c_projection", "b_closed_form" and
    "c_closed_form" to (P,) complex arrays; errors[i] is the error that
    ``coeffs(p, "projection")`` and then ``coeffs(p, "closed_form")`` raise
    for point i, else None.  Values are NaN from a point's first failure
    on, so a point whose published constants alone overflow keeps its
    projection values.
    """
    values, refused = _evaluate(alpha, d1, d2, ("projection", "closed_form"))
    proj, closed = values["projection"], values["closed_form"]
    errors = [None if route is None else InadmissibleRegime(_OVERFLOW.format(route))
              for route in refused]
    return {"a": proj["a"], "b_projection": proj["b"], "c_projection": proj["c"],
            "b_closed_form": closed["b"], "c_closed_form": closed["c"]}, errors


def coeffs(params: ModelParams, route: str = "projection") -> NormalFormCoeffs:
    """a, b and c by one of ROUTES; an unknown route raises ValueError."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    data, values = _point(params, (route,))
    return NormalFormCoeffs(**{name: values[route][name] for name in "abc"}, route=route,
                            omega=data.omega, beta1=data.beta1)


def _orthogonality(params: ModelParams, proj: dict, psi: PsiTable) -> dict:
    """|<residual, xi1*>| for the three projected residual vectors.

    Each residual (the assembled sum minus its coefficient times xi1) must
    lie in the range of (i omega - L), hence be orthogonal to xi1*.  The
    sums are rebuilt with the ModeSum algebra, independently of the kernel.
    """
    x1, x2 = xi1(params), xi2(params)
    star = xi1_star(params)
    vec_a = -proj["a"] * x1 + R01(x1) + 2.0 * R20(params, x1, psi.psi_00001)
    vec_b = (-proj["b"] * x1 + 2.0 * R20(params, x1, psi.psi_11000)
             + 2.0 * R20(params, x1.conj(), psi.psi_20000)
             + 3.0 * R30(x1, x1, x1.conj()))
    vec_c = (-proj["c"] * x1 + 2.0 * R20(params, x1, psi.psi_00110)
             + 2.0 * R20(params, x2, psi.psi_10010)
             + 2.0 * R20(params, x2.conj(), psi.psi_10100)
             + 6.0 * R30(x1, x2, x2.conj()))
    return {name: abs(inner_product(params, vec, star))
            for name, vec in (("a", vec_a), ("b", vec_b), ("c", vec_c))}


def coeffs_report(params: ModelParams) -> dict:
    """All routes, the published constants ("constants"), and pairwise discrepancies."""
    data, values = _point(params, ("projection", "closed_form", "direct"))
    per_route = {route: {name: values[route][name] for name in "abc"} for route in ROUTES}
    psi = _psi_table(values["projection"])

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
        "constants": {k: v for k, v in values["closed_form"].items() if k not in ("a", "b", "c")},
        "psi_residuals": psi.residuals(params),
        "residual_orthogonality": _orthogonality(params, per_route["projection"], psi),
        "discrepancies": discrepancies,
        "consistent": consistent,
        "mean_zero_obstruction": zero_mode_content(psi),
    }
