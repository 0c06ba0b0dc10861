"""Finite Fourier-mode sums and the Brusselator nonlinearity on them.

A ModeSum stores a finite map from integer wave index n to a two-component
complex amplitude; the represented field is  sum_n amp(n) * exp(i n k1 x).
The quadratic and cubic parts of the reaction kinetics act on ModeSums as
multilinear maps with additive wave indices.  The control parameter enters
the quadratic map only through the critical value beta1; the mu-dependent
piece at cubic order is the separate linear map R01.
"""

from __future__ import annotations

import numpy as np

from .params import ModelParams, onset

_PM = np.array([1.0, -1.0])


class ModeSum:
    """Immutable finite sum of Fourier modes with C^2 amplitudes."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        for n, amp in (terms or {}).items():
            a = np.asarray(amp, dtype=complex)
            if a.shape != (2,):
                raise ValueError("amplitudes must be two-component vectors")
            if a.any():
                cleaned[int(n)] = a
        self.terms = cleaned

    @classmethod
    def single(cls, n: int, amp) -> "ModeSum":
        return cls({n: amp})

    @classmethod
    def zero(cls) -> "ModeSum":
        return cls()

    def amp(self, n: int) -> np.ndarray:
        return self.terms.get(n, np.zeros(2, dtype=complex))

    def indices(self):
        return sorted(self.terms)

    def __add__(self, other: "ModeSum") -> "ModeSum":
        merged = {n: a.copy() for n, a in self.terms.items()}
        for n, a in other.terms.items():
            merged[n] = merged.get(n, 0) + a
        return ModeSum(merged)

    def __rmul__(self, scalar) -> "ModeSum":
        return ModeSum({n: scalar * a for n, a in self.terms.items()})

    __mul__ = __rmul__

    def __neg__(self) -> "ModeSum":
        return -1.0 * self

    def __sub__(self, other: "ModeSum") -> "ModeSum":
        return self + (-other)

    def conj(self) -> "ModeSum":
        """Complex conjugate of the represented field: negates n, conjugates amp."""
        return ModeSum({-n: np.conj(a) for n, a in self.terms.items()})

    def reflect(self) -> "ModeSum":
        """Spatial reflection S: v(x) -> v(-x), i.e. n -> -n."""
        return ModeSum({-n: a.copy() for n, a in self.terms.items()})

    def norm(self) -> float:
        if not self.terms:
            return 0.0
        return float(np.sqrt(sum(np.sum(m * m) for m in map(np.abs, self.terms.values()))))

    def is_zero(self) -> bool:
        return self.norm() == 0.0

    def __repr__(self):
        inner = ", ".join(f"{n}: {a}" for n, a in sorted(self.terms.items()))
        return f"ModeSum({{{inner}}})"


def R01(v: ModeSum) -> ModeSum:
    """Linear part of the mu-perturbation: per mode (v1, -v1)^T."""
    return ModeSum({n: a[0] * _PM for n, a in v.terms.items()})


def R20(params: ModelParams, u: ModeSum, v: ModeSum) -> ModeSum:
    """Symmetric quadratic map with beta1 baked in; every value is a multiple of (1, -1)."""
    alpha = params.alpha
    beta1 = onset(params).beta1
    out = {}
    for m, a in u.terms.items():
        for n, b in v.terms.items():
            s = alpha * (a[0] * b[1] + a[1] * b[0]) + (beta1 / alpha) * a[0] * b[0]
            if s != 0:
                out[m + n] = out.get(m + n, 0) + s * _PM
    return ModeSum(out)


def R30(u: ModeSum, v: ModeSum, w: ModeSum) -> ModeSum:
    """Symmetric cubic map, prefactor 1/3; it involves no model constant."""
    out = {}
    for mu_, a in u.terms.items():
        for nu_, b in v.terms.items():
            for rho, c in w.terms.items():
                s = (a[0] * b[0] * c[1] + a[0] * b[1] * c[0] + a[1] * b[0] * c[0]) / 3.0
                if s != 0:
                    key = mu_ + nu_ + rho
                    out[key] = out.get(key, 0) + s * _PM
    return ModeSum(out)

