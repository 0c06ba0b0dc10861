import math

import numpy as np
from conftest import random_admissible

from o2hopf import validate, zero_mode_content
from o2hopf.normalform import solve_psi


def test_canonical_obstruction_present():
    p = validate({"alpha": 2.0, "beta": 7.0})
    rep = zero_mode_content(solve_psi(p))
    assert rep["verdict"] == "present"
    amps = rep["zero_mode_amplitudes"]
    assert np.linalg.norm(amps["psi_00001"]) == 0.0
    assert np.linalg.norm(amps["psi_11000"]) > 0.1
    assert np.linalg.norm(amps["psi_10100"]) > 0.1
    # the mode-2 solutions carry no constant mode at all
    assert np.linalg.norm(amps["psi_20000"]) == 0.0
    assert np.linalg.norm(amps["psi_10010"]) == 0.0


def test_random_sets_generically_obstructed():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = random_admissible(rng)
        rep = zero_mode_content(solve_psi(p))
        assert rep["verdict"] == "present"


def test_constant_mode_is_present_where_psi_11000_vanishes():
    # on alpha^2 = 1 + delta1 - delta2 the numerator 4(alpha^2 + delta2) - 2 beta1 of
    # psi_11000 vanishes, but psi_10100's constant mode carries Im s20 = 2 omega/alpha > 0
    d1, d2 = 1.0, 0.5
    alpha = math.sqrt(1.0 + d1 - d2)
    p = validate({"alpha": alpha, "beta": 1.0 + alpha ** 2 + d1 + d2,
                  "delta1": d1, "delta2": d2})
    rep = zero_mode_content(solve_psi(p))
    amps = rep["zero_mode_amplitudes"]
    assert np.linalg.norm(amps["psi_11000"]) < 1e-12
    assert np.linalg.norm(amps["psi_10100"]) > 1.0
    assert rep["verdict"] == "present"
