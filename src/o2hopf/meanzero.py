"""Constant-mode content of the reduction functions.

At wave index 0, psi_10100 is 2 s20 (2i omega, -(2i omega + 1)) / P_0(2i omega)
with s20 = (beta1 - 2 alpha^2 - 2 delta2' + 2i omega) / alpha, so Im s20 =
2 omega / alpha > 0 and its constant mode is nonzero on every admissible set:
restricting the analysis to mean-zero perturbation spaces leaves the
resolvent systems unsolvable.  This module reads that verdict off an
already-computed PsiTable.
"""

from __future__ import annotations

import numpy as np


def zero_mode_content(psi) -> dict:
    """Mode-0 amplitude of each reduction function, and the verdict "present"
    when one of them is nonzero, else "absent"."""
    amplitudes = {
        name: getattr(psi, name).amp(0)
        for name in ("psi_00001", "psi_11000", "psi_00110",
                     "psi_20000", "psi_10100", "psi_10010")
    }
    present = any(np.any(amp) for amp in amplitudes.values())
    return {"zero_mode_amplitudes": amplitudes, "verdict": "present" if present else "absent"}
