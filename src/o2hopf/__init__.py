"""O(2)-equivariant Hopf analysis of the diffusive Brusselator.

Dispersion/onset computation, critical eigenfunctions, normal-form
coefficients by independent routes, reduced-dynamics branch and stability
classification, and a pseudospectral simulator for cross-checking the
bifurcated waves in the full PDE.
"""

__version__ = "0.1.0"

from .errors import (DomainMismatch, InadmissibleRegime, InvalidConfig,
                     NonPositiveParameter, NoSaturation, NumericalBlowup,
                     O2HopfError, StepSizeUnderflow, WindowTooShort)
from .meanzero import zero_mode_content
from .modes import ModeSum, R01, R20, R30
from .normalform import (NormalFormCoeffs, PsiTable, closed_form_constants, coeffs,
                         coeffs_report, solve_psi)
from .params import ModelParams, OnsetData, onset, validate
from .pdesim import (SimConfig, Simulator, amplitude_scaling_experiment,
                     equivariance_test, grid, initialize, measure_growth_rate,
                     oscillation_frequency, timestep_convergence_order)
from .reduced import (BranchPoint, ReducedSystem, branch_frequency, branches,
                      classify_regime, integrate_truncated, reconstruct_wave)
from .spectral import (ModeRecord, ScanResult, TuringReport, inner_product,
                       mode_eigenvalues, mode_matrix, onset_scan, turing_check,
                       xi1, xi1_star, xi2)

__all__ = [
    # errors
    "DomainMismatch", "InadmissibleRegime", "InvalidConfig", "NonPositiveParameter",
    "NoSaturation", "NumericalBlowup", "O2HopfError", "StepSizeUnderflow",
    "WindowTooShort",
    # parameters and onset
    "ModelParams", "OnsetData", "onset", "validate",
    # spectrum and critical eigenfunctions
    "ModeRecord", "ScanResult", "TuringReport", "inner_product", "mode_eigenvalues",
    "mode_matrix", "onset_scan", "turing_check", "xi1", "xi1_star", "xi2",
    # mode sums and the nonlinearity
    "ModeSum", "R01", "R20", "R30",
    # normal-form coefficients
    "NormalFormCoeffs", "PsiTable", "closed_form_constants", "coeffs",
    "coeffs_report", "solve_psi", "zero_mode_content",
    # reduced dynamics
    "BranchPoint", "ReducedSystem", "branch_frequency", "branches",
    "classify_regime", "integrate_truncated", "reconstruct_wave",
    # PDE simulation
    "SimConfig", "Simulator", "amplitude_scaling_experiment", "equivariance_test",
    "grid", "initialize", "measure_growth_rate", "oscillation_frequency",
    "timestep_convergence_order",
]
