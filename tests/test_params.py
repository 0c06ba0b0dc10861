import math
import sys
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from o2hopf import (InadmissibleRegime, ModelParams, NonPositiveParameter, SimConfig,
                    Simulator, closed_form_constants, coeffs, coeffs_report, initialize,
                    onset, onset_scan, validate)
from o2hopf.normalform import ROUTES
from o2hopf.params import is_finite_real, onset_terms, read_config


def test_canonical_onset():
    p = validate({"alpha": 2.0, "beta": 7.0, "delta1": 1.0, "delta2": 1.0})
    data = onset(p)
    assert data.admissible
    assert data.beta1 == 7.0
    assert abs(data.omega - math.sqrt(3.0)) < 1e-15
    assert data.mu == 0.0


def test_mu_is_offset_from_beta1():
    p = ModelParams(alpha=2.0, beta=7.1)
    assert abs(onset(p).mu - 0.1) < 1e-12


def test_hand_substitution_case():
    # alpha=3, delta1=2, delta2=1: beta1 = 1+9+3 = 13, omega^2 = 9*2-1 = 17
    p = ModelParams(alpha=3.0, beta=13.0, delta1=2.0, delta2=1.0)
    data = onset(p)
    assert data.beta1 == 13.0
    assert abs(data.omega ** 2 - 17.0) < 1e-12


def test_omega_squared_boundary_rejected():
    # alpha=1, delta1=delta2=1: omega^2 = 1*(1+1-1) - 1 = 0
    with pytest.raises(InadmissibleRegime):
        validate({"alpha": 1.0, "beta": 1.0, "delta1": 1.0, "delta2": 1.0})


def test_nonpositive_parameter_named():
    with pytest.raises(NonPositiveParameter) as exc:
        validate({"alpha": 2.0, "beta": 7.0, "delta1": 0.0, "delta2": 1.0})
    assert exc.value.name == "delta1"

    with pytest.raises(NonPositiveParameter):
        validate({"alpha": -2.0, "beta": 7.0})
    with pytest.raises(NonPositiveParameter):
        validate({"alpha": 2.0, "beta": float("nan")})


_NOT_A_REAL = r"must be a real number within the float range, got "


@pytest.mark.parametrize("call, message", [
    (lambda: validate(ModelParams(alpha=10**400, beta=1.0)),
     r"^parameter 'alpha' " + _NOT_A_REAL + "an integer of 1329 bits$"),
    (lambda: validate({"alpha": 10**400, "beta": 1.0}),
     r"^parameter 'alpha' " + _NOT_A_REAL + "an integer of 1329 bits$"),
    (lambda: onset(ModelParams(alpha=2, beta=10**400)),
     r"^parameter 'beta' " + _NOT_A_REAL + "an integer of 1329 bits$"),
    (lambda: onset(ModelParams(alpha=2.0, beta=7.0, delta2=-10**5000)),
     r"^parameter 'delta2' " + _NOT_A_REAL + "an integer of 16610 bits$"),
    (lambda: validate(ModelParams(alpha="2", beta=1.0)),
     r"^parameter 'alpha' " + _NOT_A_REAL + "'2'$"),
    (lambda: validate({"alpha": "2", "beta": 1.0}),
     r"^parameter 'alpha' " + _NOT_A_REAL + "'2'$"),
    (lambda: validate(ModelParams(alpha=True, beta=1.0)),
     r"^parameter 'alpha' " + _NOT_A_REAL + "True$"),
    (lambda: validate({"alpha": 2.0, "beta": 7.0, "half_length": None}),
     r"^parameter 'half_length' " + _NOT_A_REAL + "None$"),
], ids=["int_alpha", "int_alpha_mapping", "int_beta", "negative_int", "str_alpha",
        "str_alpha_mapping", "bool_alpha", "none_half_length"])
def test_a_constant_that_is_not_a_real_in_float_range_is_named(call, message):
    # these raised OverflowError or TypeError, or read True as 1 and a mapping's '2' as 2.0
    with pytest.raises(NonPositiveParameter, match=message):
        call()


def test_is_finite_real():
    assert all(map(is_finite_real, [1.0, -2.0, 0.0, 3, 10**300, np.float32(2.0),
                                    np.int64(-4), np.float64(1e308)]))
    assert not any(map(is_finite_real, [math.inf, -math.inf, math.nan, 10**400, True,
                                        np.bool_(True), "1", None, 1j, np.float64(math.inf)]))


@pytest.mark.parametrize("field, value", [("delta2", 0.0), ("delta1", -1.0)])
def test_onset_rejects_nonpositive_constant(field, value):
    # onset and closed_form_constants reached a ZeroDivisionError and a math domain
    # error on these; the record refuses them when it is built
    with pytest.raises(NonPositiveParameter) as exc:
        ModelParams(alpha=2.0, beta=1.0, **{field: value})
    assert exc.value.name == field


def _entry_points(p):
    """Every entry point's output at p, each float printed to its last bit."""
    config = SimConfig(n_grid=16, dt=0.01, t_max=0.03, eps=1e-3)
    U = Simulator(p, config).advance(initialize(p, config)[None], [p.beta], [3])
    outputs = [validate(p), onset(p), onset_scan(p), *(coeffs(p, route) for route in ROUTES),
               closed_form_constants(p), coeffs_report(p), U]
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
        return repr(outputs)


@pytest.mark.parametrize("kind", [Fraction, np.float32, np.int64, int])
def test_constants_of_any_real_type_give_the_bits_of_their_floats(kind):
    # a Fraction reached numpy as an object and failed in coeffs, onset_scan and the
    # stepper, and a float32 or an integer was computed on as given
    constants = {"alpha": 3, "beta": 12, "delta1": 2, "delta2": 1, "half_length": 4}
    p = ModelParams(**{name: kind(value) for name, value in constants.items()})
    assert all(type(getattr(p, field.name)) is float for field in fields(p))
    floats = ModelParams(**{name: float(value) for name, value in constants.items()})
    assert _entry_points(p) == _entry_points(floats)


def test_a_large_integer_constant_is_the_float_a_batch_computes_on():
    # onset computed alpha^2 on the exact integer and parted from the sweep's value
    alpha = 2 ** 53 + 1
    batch = onset_terms(np.array([float(alpha)]), np.ones(1), np.ones(1), np.array([math.pi]))
    assert onset(ModelParams(alpha=alpha, beta=1.0)).beta1 == batch[2][0]


def test_with_beta_refuses_a_beta_beyond_the_float_range():
    # float(10**400) raised an untyped OverflowError
    with pytest.raises(NonPositiveParameter, match="'beta' must be a real number within "
                                                   "the float range, got an integer of 1329"):
        ModelParams(alpha=2.0, beta=7.0).with_beta(10 ** 400)


def test_onset_reports_inadmissible_without_raising():
    p = ModelParams(alpha=1.0, beta=1.0)
    data = onset(p)
    assert not data.admissible
    assert data.omega == 0.0


@pytest.mark.parametrize("field, value", [("half_length", 1e-200), ("half_length", 1e-100),
                                          ("alpha", 1e200), ("delta2", 1e200)])
def test_onset_of_an_overflowing_constant_is_inadmissible(field, value):
    # k1^2 or alpha^2 overflows to inf: inadmissible, not an OverflowError
    p = ModelParams(**{"alpha": 2.0, "beta": 7.0, field: value})
    data = onset(p)
    assert not data.admissible
    assert data.omega == 0.0 or not math.isfinite(data.omega)
    with pytest.raises(InadmissibleRegime):
        validate(p)


def test_onset_is_deterministic():
    p = ModelParams(alpha=1.7, beta=6.3, delta1=0.8, delta2=0.6)
    assert onset(p) == onset(p)


def test_domain_rescaling():
    p = ModelParams(alpha=2.0, beta=7.0, delta1=0.25, delta2=0.25,
                    half_length=math.pi / 2)
    assert p.k1 == 2.0
    d1e, d2e = p.effective_diffusion()
    assert abs(d1e - 1.0) < 1e-15 and abs(d2e - 1.0) < 1e-15
    # equivalent to the unit-wave-number canonical set
    data = onset(p)
    assert abs(data.beta1 - 7.0) < 1e-12
    assert abs(data.omega - math.sqrt(3.0)) < 1e-12


def test_with_beta_returns_new_instance():
    p = ModelParams(alpha=2.0, beta=7.0)
    q = p.with_beta(7.2)
    assert q.beta == 7.2 and p.beta == 7.0
    assert q.alpha == p.alpha


def test_load_config(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("# canonical set\nalpha = 2.0\nbeta = 7.0\n"
                   "delta1 = 1.0\ndelta2 = 1.0\n")
    p = validate(read_config(cfg))
    assert p.alpha == 2.0 and p.beta == 7.0

    bad = tmp_path / "bad.cfg"
    bad.write_text("gamma = 3\n")
    with pytest.raises(ValueError):
        validate(read_config(bad))

    nokv = tmp_path / "nokv.cfg"
    nokv.write_text("alpha 2.0\n")
    with pytest.raises(ValueError):
        validate(read_config(nokv))

    # every bad entry is named by file and line
    for text, message in (
            ("alpha = 2.0\n\ndelta1 = two\n", "3: delta1 must be a number, got 'two'"),
            ("alpha = \n", "1: alpha must be a number, got ''"),
            ("alpha = 2.0\n# again\nalpha = 3.0\n", "3: 'alpha' is given more than once"),
            ("gamma = 3\n", "1: unknown key 'gamma'"),
            ("alpha 2.0\n", "1: expected 'key = value', got 'alpha 2.0'")):
        cfg.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_config(cfg)
        assert str(exc.value) == f"{cfg}:{message}"
