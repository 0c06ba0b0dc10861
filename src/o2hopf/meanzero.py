"""Constant-mode content of the reduction functions.

The zero-wave-number solutions of the resolvent systems carry a nonzero
constant Fourier mode whenever 4(alpha^2 + delta2) != 2 beta1; restricting
the analysis to mean-zero perturbation spaces therefore leaves those
systems unsolvable.  This module turns that observation into a concrete
verdict on an already-computed PsiTable.
"""

from __future__ import annotations

import numpy as np

from .params import ModelParams, onset

_DEGENERACY_TOL = 1e-12


def zero_mode_content(params: ModelParams, psi) -> dict:
    """Mode-0 amplitude of each reduction function plus an obstruction verdict.

    verdict is "present" when psi_11000 or psi_10100 has a nonzero constant
    mode, "inconclusive" on the measure-zero degeneracy where the shared
    numerator 4(alpha^2+delta2) - 2 beta1 vanishes, and "absent" otherwise.
    """
    d1, d2 = params.effective_diffusion()
    beta1 = onset(params).beta1
    numerator = 4.0 * (params.alpha * params.alpha + d2) - 2.0 * beta1

    amplitudes = {
        name: getattr(psi, name).amp(0)
        for name in ("psi_00001", "psi_11000", "psi_00110",
                     "psi_20000", "psi_10100", "psi_10010")
    }
    obstructed = any(np.linalg.norm(amplitudes[name]) > 0
                     for name in ("psi_11000", "psi_10100"))
    scale = 1.0 + abs(beta1) + params.alpha * params.alpha
    if abs(numerator) <= _DEGENERACY_TOL * scale:
        # measure-zero degeneracy where psi_11000 vanishes; no claim is made
        verdict = "inconclusive"
    else:
        verdict = "present" if obstructed else "absent"
    return {
        "zero_mode_amplitudes": amplitudes,
        "degeneracy_numerator": numerator,
        "verdict": verdict,
    }
