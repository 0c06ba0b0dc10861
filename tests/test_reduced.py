import math
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_admissible
from scipy.integrate import solve_ivp

from o2hopf import (InvalidConfig, ReducedSystem, StepSizeUnderflow, onset,
                    validate)
from o2hopf.normalform import coeffs
from o2hopf.reduced import (_dp54_step, _polar_vector_field, branch_frequency, branches,
                            classify_regime, integrate_truncated, reconstruct_wave,
                            regime_batch)

CANON = validate({"alpha": 2.0, "beta": 7.0})
RT3 = math.sqrt(3.0)
NF = coeffs(CANON, "projection")
A_CANON = 0.5 - 1j / (2.0 * RT3)


def closed_form_system(mu):
    # the published simplified coefficients (Re b = -17/8, Re c = 11/4)
    cf = coeffs(CANON, "closed_form")
    return ReducedSystem(mu=mu, omega=RT3, a=cf.a, b=cf.b, c=cf.c)


def projection_system(mu):
    return ReducedSystem.from_coeffs(NF, mu)


def cartesian_reference(sys, z0, t_end, t_eval=None):
    """Independent DOP853 solution of the Cartesian form z' = (i omega + ...) z."""
    def rhs(_, y):
        z = y[:2] + 1j * y[2:]
        s = np.abs(z) ** 2
        f = (1j * sys.omega + sys.a * sys.mu + sys.b * s + sys.c * s[::-1]) * z
        return np.concatenate([f.real, f.imag])
    return solve_ivp(rhs, (0.0, t_end), np.concatenate([z0.real, z0.imag]),
                     t_eval=t_eval, method="DOP853", rtol=1e-13, atol=1e-15)


FIELDS = {"mu": 0.1, "omega": NF.omega, "a": NF.a, "b": NF.b, "c": NF.c}


@pytest.mark.parametrize("field, value, named", [
    ("mu", math.nan, "nan"),         # branches listed the trivial branch as "unstable"
    ("b", math.nan, "nan"),          # classify_regime: cannot convert float NaN to integer
    ("mu", 10 ** 400, "an integer of 1329 bits"),   # an untyped OverflowError
    ("mu", True, "True"),            # integrate_truncated ran it as mu = 1
    ("omega", -math.inf, "-inf"),
    ("a", complex(0.5, math.inf), r"\(0\.5\+infj\)"),
    ("c", "1", "'1'"),
    ("a", None, "None"),
    ("omega", 1j, "1j"),             # a real field
    ("mu", np.array([0.1, math.nan]), r"array\(\[0\.1, nan\]\)"),
    ("b", np.array([-1.0, math.inf]), r"array\(\[-1\., inf\]\)"),
    ("c", np.array([True, False]), r"array\(\[ True, False\]\)"),
    ("omega", np.array([1.0, 2j]), r"array\(\[1\.\+0\.j, 0\.\+2\.j\]\)"),
    ("a", np.array([0.5, None]), r"array\(\[0\.5, None\], dtype=object\)"),
], ids=["nan_mu", "nan_b", "huge_mu", "bool_mu", "inf_omega", "inf_a", "text_c", "none_a",
        "complex_omega", "nan_in_batch", "inf_in_batch", "bool_batch", "complex_batch_omega",
        "object_batch"])
def test_record_fields_are_checked_when_built(field, value, named):
    with pytest.raises(InvalidConfig, match=f"^{field} must be finite, got {named}$"):
        ReducedSystem(**{**FIELDS, field: value})


def test_record_holds_floats_and_complex_numbers():
    """A Fraction, numpy or int field or start gives the float-built record's bits."""
    want = ReducedSystem(mu=0.25, omega=2.0, a=0.5 + 0.25j, b=-1.0 + 0.5j, c=-2.0 + 0j)
    trajectory = integrate_truncated(want, 0.25 + 0j, 0.5j, t_max=5.0, dt=1.0)
    for got in (ReducedSystem(mu=Fraction(1, 4), omega=2, a=complex(0.5, 0.25),
                              b=np.complex128(-1.0 + 0.5j), c=Fraction(-2)),
                ReducedSystem(mu=np.float32(0.25), omega=np.int64(2),
                              a=np.complex64(0.5 + 0.25j), b=-1.0 + 0.5j, c=-2)):
        assert got == want
        assert [type(getattr(got, name)) for name in FIELDS] == [float, float] + [complex] * 3
        assert branches(got) == branches(want)
        assert classify_regime(got) == classify_regime(want)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(
            integrate_truncated(got, Fraction(1, 4), np.complex64(0.5j), t_max=5.0, dt=1.0),
            trajectory))
    batch = ReducedSystem(mu=np.array([1, -2]), omega=1.0, a=np.array([0.5, 1.0]),
                          b=np.array([-1.0 + 0.5j, 2.0]), c=np.array([-2.0, 0.5j]))
    assert [getattr(batch, name).dtype for name in ("mu", "a", "b", "c")] == [
        np.dtype(float)] + [np.dtype(complex)] * 3


POINT_BRANCH = branches(ReducedSystem(mu=0.1, omega=1.0, a=0.5, b=-1.0, c=-2.0))[1]


@pytest.mark.parametrize("caller, run", [
    ("branches", branches),
    ("classify_regime", classify_regime),
    ("integrate_truncated", lambda sys: integrate_truncated(sys, 0.1, 0.1, t_max=1.0, dt=0.5)),
    ("reconstruct_wave", lambda sys: reconstruct_wave(CANON, sys, POINT_BRANCH, 0.0, 0.0, 0.0)),
])
@pytest.mark.parametrize("batch", [
    {"mu": np.array([0.1, 0.2])},
    {"c": np.array([-2.0, -3.0])},
], ids=["mu", "c"])
def test_point_functions_refuse_a_batch_record(caller, run, batch):
    # numpy's untyped ValueError: an ambiguous truth value, or an array element set to a sequence
    sys = ReducedSystem(**{"mu": 0.1, "omega": 1.0, "a": 0.5, "b": -1.0, "c": -2.0, **batch})
    with pytest.raises(InvalidConfig, match=f"^{caller} takes a ReducedSystem of numbers, "
                                            f"got one of arrays; regime_batch reads a batch$"):
        run(sys)
    assert len(regime_batch(sys)["rotating_wave"]["radius"]) == 2


class TestVectorField:
    def test_origin(self):
        sys = projection_system(0.2)
        dr1, dr2, dth1, dth2 = _polar_vector_field(sys, 0.0, 0.0)
        assert dr1 == 0.0 and dr2 == 0.0
        expected = RT3 + sys.a.imag * 0.2
        assert abs(dth1 - expected) < 1e-14 and dth1 == dth2

    def test_exchange_symmetry(self):
        sys = projection_system(0.07)
        rng = np.random.default_rng(0)
        for _ in range(5):
            r1, r2 = rng.uniform(0, 0.5, 2)
            f = _polar_vector_field(sys, r1, r2)
            g = _polar_vector_field(sys, r2, r1)
            assert abs(f[0] - g[1]) < 1e-14 and abs(f[1] - g[0]) < 1e-14
            assert abs(f[2] - g[3]) < 1e-14 and abs(f[3] - g[2]) < 1e-14

    def test_rotating_equilibrium_closed_form(self):
        mu = 0.17
        sys = closed_form_system(mu)
        r_star = math.sqrt(4.0 * mu / 17.0)   # -mu/(2 Re b), Re b = -17/8
        dr1, _, _, _ = _polar_vector_field(sys, r_star, 0.0)
        assert abs(dr1) < 1e-14


class TestBranches:
    def test_closed_form_mu_positive(self):
        out = {b.kind: b for b in branches(closed_form_system(0.1))}
        assert set(out) == {"trivial", "rotating_wave_1", "rotating_wave_2"}
        r = math.sqrt(0.4 / 17.0)
        assert abs(out["rotating_wave_1"].r1 - r) < 1e-14
        assert out["rotating_wave_1"].r2 == 0.0
        assert out["rotating_wave_2"].r1 == 0.0

    def test_closed_form_standing_is_subcritical(self):
        # Re b + Re c = 5/8 > 0, so the standing family needs mu < 0
        out = {b.kind: b for b in branches(closed_form_system(-0.1))}
        assert "standing_wave" in out
        assert abs(out["standing_wave"].r1 - math.sqrt(0.05 / 0.625)) < 1e-14
        assert out["standing_wave"].r1 == out["standing_wave"].r2

    def test_projection_branches_and_stability(self):
        out = {b.kind: b for b in branches(projection_system(0.1))}
        assert set(out) == {"trivial", "rotating_wave_1", "rotating_wave_2",
                            "standing_wave"}
        assert out["trivial"].stability == "unstable"
        assert out["rotating_wave_1"].stability == "stable"
        assert out["rotating_wave_2"].stability == "stable"
        assert out["standing_wave"].stability == "unstable"
        assert abs(out["rotating_wave_1"].r1
                   - math.sqrt(0.05 * 24.0 / 11.0)) < 1e-12

    def test_mu_zero_only_trivial(self):
        out = branches(projection_system(0.0))
        assert [b.kind for b in out] == ["trivial"]

    def test_all_three_families(self):
        sys = ReducedSystem(mu=0.2, omega=1.0, a=0.5 + 0j,
                            b=-1.0 + 0j, c=-3.0 + 0j)
        kinds = {b.kind for b in branches(sys)}
        assert len(kinds) == 4

    def test_sqrt_mu_scaling_of_radii(self):
        mus = np.geomspace(1e-4, 1e-2, 7)
        radii = []
        for mu in mus:
            out = {b.kind: b for b in branches(projection_system(float(mu)))}
            radii.append(out["rotating_wave_1"].r1)
        slope = np.polyfit(np.log(mus), np.log(radii), 1)[0]
        assert abs(slope - 0.5) < 1e-6

    def test_theta_dot_stays_positive(self):
        for mu in (0.01, 0.05, -0.05):
            sys = projection_system(mu)
            for bp in branches(sys):
                assert bp.frequencies[0] >= sys.omega / 2.0


class TestClassification:
    def test_canonical_closed_form_relations(self):
        reg = classify_regime(closed_form_system(0.1))
        assert not reg["degenerate"]
        assert reg["A_real"] == pytest.approx(11.0 / 4.0)
        # Re b < 0 and Re b + Re c > 0 under the published values
        assert reg["relations"]["Re_A_plus_B_nonzero"]
        sys = closed_form_system(0.1)
        assert sys.b.real < 0.0 and (sys.b + sys.c).real > 0.0

    def test_degenerate_flag(self):
        sys = ReducedSystem(mu=0.1, omega=1.0, a=0.5 + 0j,
                            b=-1.0 + 0.2j, c=-1.0 + 0.2j)
        reg = classify_regime(sys)
        assert reg["degenerate"]
        assert reg["stable_families"] == []

    def test_projection_regime_stable_family(self):
        reg = classify_regime(projection_system(0.1))
        assert reg["stable_families"] == ["rotating_wave"]

    def test_consistency_with_branches(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            b = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
            c = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
            sys = ReducedSystem(mu=0.1, omega=1.0, a=0.5 - 0.1j, b=b, c=c)
            reg = classify_regime(sys)
            if reg["degenerate"]:
                continue
            probe = sys if any(bp.kind != "trivial" for bp in branches(sys)) \
                else ReducedSystem(mu=-0.1, omega=1.0, a=sys.a, b=b, c=c)
            stable = {"rotating_wave" if bp.kind.startswith("rotating")
                      else bp.kind
                      for bp in branches(probe)
                      if bp.kind != "trivial" and bp.stability == "stable"}
            assert set(reg["stable_families"]) == stable


    def test_batch_matches_branches_and_classification(self):
        rng = np.random.default_rng(8)
        n = 400
        a = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        b = rng.uniform(-3, 3, n) + 1j * rng.uniform(-1, 1, n)
        c = rng.uniform(-3, 3, n) + 1j * rng.uniform(-1, 1, n)
        mu = rng.choice([-0.1, 0.0, 0.05, 0.2], n)
        omega = rng.uniform(0.5, 2.0, n)
        # degenerate coefficient pairs: Re b = 0, Re b + Re c = 0, Re b = Re c
        b[:20] = 1j * b[:20].imag
        c[20:40] = -b[20:40].real + 1j * c[20:40].imag
        c[40:60] = b[40:60].real + 1j * c[40:60].imag
        got = regime_batch(ReducedSystem(mu=mu, omega=omega, a=a, b=b, c=c))
        layouts = {"trivial": [("trivial", False)],
                   "rotating_wave": [("rotating_wave_1", False), ("rotating_wave_2", True)],
                   "standing_wave": [("standing_wave", False)]}
        for i in range(n):
            sys = ReducedSystem(mu=float(mu[i]), omega=float(omega[i]), a=complex(a[i]),
                                b=complex(b[i]), c=complex(c[i]))
            points = {bp.kind: bp for bp in branches(sys)}
            stable = classify_regime(sys)["stable_families"]
            for name, layout in layouts.items():
                family = {k: v[i] if k != "frequencies" else (v[0][i], v[1][i])
                          for k, v in got[name].items()}
                assert family["exists"] == all(kind in points for kind, _ in layout)
                assert family["stable"] == (name in stable) or name == "trivial"
                for kind, mirrored in layout:
                    if kind not in points:
                        continue
                    bp = points[kind]
                    r, frequencies = family["radius"], family["frequencies"]
                    radii = (bp.r2, bp.r1) if mirrored else (bp.r1, bp.r2)
                    assert radii == (r, r if name == "standing_wave" else 0.0)
                    assert bp.frequencies == (frequencies[::-1] if mirrored else frequencies)
                    assert bp.stability == family["stability"]
            kinds = {kind for kind, bp in points.items() if bp.stability != "degenerate"}
            # the sweep's tw_exists and sw_exists columns
            for name, kind in (("rotating_wave", "rotating_wave_1"),
                               ("standing_wave", "standing_wave")):
                column = got[name]["exists"][i] and got[name]["stability"][i] != "degenerate"
                assert column == (kind in kinds)

    def test_stability_is_the_closed_form_sign_table(self):
        # at Re a mu > 0 the rotating waves are stable iff Re b < 0 and Re c < Re b,
        # the standing waves iff Re(b + c) < 0 and Re c > Re b; otherwise neither.
        # The table is exact, so it holds at every scale of the coefficients.
        rng = np.random.default_rng(21)
        b, c = (10.0 ** rng.uniform(-3, 200, 50_000)
                * np.exp(2j * np.pi * rng.uniform(0, 1, 50_000)) for _ in range(2))
        # each relation at least 1e-6 (|b| + |c|) from zero
        gap = 1e-6 * (abs(b) + abs(c))
        keep = ((abs(b.real) >= gap) & (abs((b + c).real) >= gap)
                & (abs((b - c).real) >= gap))
        m = 20_000
        b, c = b[keep][:m], c[keep][:m]
        assert len(b) == m
        aR = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-6, 6, m)
        mu = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-6, 2, m)
        a = aR + 1j * rng.uniform(-1, 1, m)
        got = regime_batch(ReducedSystem(mu=mu, omega=1.0, a=a, b=b, c=c))
        supercritical = aR * mu > 0.0
        bR, cR = b.real, c.real
        want = {"rotating_wave": supercritical & (bR < 0.0) & (cR < bR),
                "standing_wave": supercritical & (bR + cR < 0.0) & (cR > bR)}
        for name, stable in want.items():
            family = got[name]
            assert np.array_equal(family["stable"], stable), name
            labels = family["stability"][family["exists"]]
            assert np.array_equal(labels == "stable", stable[family["exists"]]), name
            assert not np.any(labels == "degenerate"), name
        assert not np.any(got["trivial"]["stability"] == "degenerate")

    def test_stability_labels_match_the_flow(self):
        # an independent reference for the labels: start 1e-3 off each branch
        # point along the radial and the transverse direction and integrate;
        # Re b < 0 and Re(b + c) < 0 bound the radial flow
        def jacobian_eigenvalues(sys, r1, r2, h=1e-6):
            cols = [[(u - d) / (2.0 * h) for u, d in
                     zip(_polar_vector_field(sys, r1 + e1, r2 + e2)[:2],
                         _polar_vector_field(sys, r1 - e1, r2 - e2)[:2])]
                    for e1, e2 in ((h, 0.0), (0.0, h))]
            return np.linalg.eigvals(np.array(cols).T)

        rng = np.random.default_rng(5)
        labels, n_systems = set(), 0
        while n_systems < 10:
            b = complex(rng.uniform(-3, 0), rng.uniform(-1, 1))
            c = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
            sys = ReducedSystem(mu=0.1, omega=1.0, a=complex(0.5, rng.uniform(-1, 1)),
                                b=b, c=c)
            if (b + c).real >= 0.0:
                continue
            points = branches(sys)[1:]
            slowest = min(np.min(np.abs(jacobian_eigenvalues(sys, p.r1, p.r2)))
                          for p in points)
            if slowest < 0.02:
                continue
            n_systems += 1
            assert [p.kind for p in points] == ["rotating_wave_1", "rotating_wave_2",
                                                "standing_wave"]
            t_max = 10.0 / slowest
            for p in points:
                at = np.array([p.r1, p.r2])
                radial = at / np.hypot(*at)
                transverse = np.array([radial[1], -radial[0]]) if p.r1 and p.r2 \
                    else radial[::-1]
                dist = []
                for direction in (radial, transverse):
                    start = at + 1e-3 * direction
                    _, z1, z2 = integrate_truncated(sys, complex(start[0]), complex(start[1]),
                                                    t_max=t_max, dt=t_max)
                    dist.append(np.hypot(abs(z1[-1]) - p.r1, abs(z2[-1]) - p.r2))
                if p.stability == "stable":
                    assert max(dist) <= 1e-6, (p, dist)
                else:
                    assert p.stability == "unstable" and max(dist) >= 1e-2, (p, dist)
                labels.add((p.kind[:8], p.stability))
        # both outcomes of the exchange of stability between the families
        assert labels == {("rotating", "stable"), ("rotating", "unstable"),
                          ("standing", "stable"), ("standing", "unstable")}


class TestTrajectories:
    def test_origin_is_fixed(self):
        sys = projection_system(0.05)
        _, z1, z2 = integrate_truncated(sys, 0.0, 0.0, t_max=5.0, dt=0.5)
        assert np.max(np.abs(z1)) == 0.0 and np.max(np.abs(z2)) == 0.0

    def test_convergence_to_rotating_radius(self):
        mu = 0.1
        sys = projection_system(mu)
        out = {b.kind: b for b in branches(sys)}
        r_star = out["rotating_wave_1"].r1
        _, z1, z2 = integrate_truncated(sys, (r_star + 0.02) + 0j, 0.005 + 0j,
                                        t_max=300.0, dt=1.0)
        assert abs(abs(z1[-1]) - r_star) < 1e-6
        assert abs(z2[-1]) < 1e-6

    def test_phase_winding_on_branch(self):
        mu = 0.05
        sys = projection_system(mu)
        out = {b.kind: b for b in branches(sys)}
        for bp in (out["rotating_wave_1"], out["rotating_wave_2"]):
            _, z1, z2 = integrate_truncated(sys, bp.r1 + 0j, bp.r2 + 0j,
                                            t_max=10.0, dt=0.01)
            z = z1 if bp.r1 else z2
            winding = np.unwrap(np.angle(z))[-1] - np.angle(z[0])
            assert abs(winding - branch_frequency(bp) * 10.0) < 1e-6, bp.kind

    @pytest.mark.parametrize("mu", [0.05, 0.1])
    def test_rotating_waves_share_frequency(self, mu):
        sys = projection_system(mu)
        out = {b.kind: b for b in branches(sys)}
        w1 = branch_frequency(out["rotating_wave_1"])
        assert branch_frequency(out["rotating_wave_2"]) == w1
        assert w1 == out["rotating_wave_1"].frequencies[0]

    @pytest.mark.parametrize("mu", [0.05, 0.1])
    def test_stays_on_each_branch(self, mu):
        # z_j(t) = r_j e^{i(w* t + phi_j)} on every nontrivial family
        sys = projection_system(mu)
        phi = np.array([0.3, -1.1])
        for bp in branches(sys)[1:]:
            r = np.array([bp.r1, bp.r2])
            t, z1, z2 = integrate_truncated(sys, *(r * np.exp(1j * phi)),
                                            t_max=300.0, dt=1.0)
            exact = r[:, None] * np.exp(1j * (branch_frequency(bp) * t + phi[:, None]))
            assert np.max(np.abs(np.stack([z1, z2]) - exact)) <= 1e-9, bp.kind

    def test_agrees_with_cartesian_reference(self):
        def cartesian(sys, z0, t):
            sol = cartesian_reference(sys, z0, t[-1], t_eval=t)
            return sol.y[:2] + 1j * sol.y[2:]

        rng = np.random.default_rng(12)
        for _ in range(12):
            nf = coeffs(random_admissible(rng, vary_domain=True), "projection")
            bR, cR = nf.b.real, nf.c.real
            # mu > 0 only where the cubic terms bound the radii (Re b < 0 and
            # Re b + Re c < 0); elsewhere a decaying start
            mu = 0.08 if bR < 0.0 and bR + cR < 0.0 else -0.08
            scale = math.sqrt(abs(nf.a.real * mu) / (abs(bR) + abs(cR)))
            z0 = (scale * rng.uniform(0.2, 0.8, 2)
                  * np.exp(1j * rng.uniform(-math.pi, math.pi, 2)))
            sys = ReducedSystem.from_coeffs(nf, mu)
            t, z1, z2 = integrate_truncated(sys, complex(z0[0]), complex(z0[1]),
                                            t_max=60.0, dt=0.5)
            ref = cartesian(sys, z0, t)
            assert np.max(np.abs(np.stack([z1, z2]) - ref)) <= 1e-7 * np.max(np.abs(ref))

    def test_zero_component_stays_zero(self):
        sys = projection_system(0.1)
        _, z1, z2 = integrate_truncated(sys, 0.1 + 0.05j, 0.0, t_max=50.0, dt=0.5)
        assert np.all(z2 == 0.0)
        assert np.min(np.abs(z1)) > 0.0

    def test_identical_calls_are_bitwise_equal(self):
        sys = projection_system(0.1)
        first = integrate_truncated(sys, 0.2 - 0.1j, 0.05j, t_max=40.0, dt=0.5)
        second = integrate_truncated(sys, 0.2 - 0.1j, 0.05j, t_max=40.0, dt=0.5)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_blowup_ends_in_step_size_underflow(self):
        # Re b > 0 and mu > 0: the radii reach infinity in finite time
        sys = ReducedSystem(mu=0.1, omega=1.0, a=0.5 + 0j, b=1.0 + 0.2j, c=0.5 + 0j)
        with pytest.raises(StepSizeUnderflow, match=r"at t = \d") as info:
            integrate_truncated(sys, 0.5 + 0j, 0.1 + 0j, t_max=10.0, dt=1.0)
        t_stop = float(re.search(r"at t = (\S+):", str(info.value)).group(1))
        ref = cartesian_reference(sys, np.array([0.5 + 0j, 0.1 + 0j]), 10.0)
        assert ref.status == -1   # the reference solver fails at the blow-up too
        assert abs(t_stop - ref.t[-1]) < 1e-4

    @pytest.mark.parametrize("field", ["mu", "omega", "a", "b", "c", "z1_0", "z2_0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_input_is_invalid_config(self, field, bad):
        coefs = {"mu": 0.1, "omega": NF.omega, "a": NF.a, "b": NF.b, "c": NF.c}
        start = {"z1_0": 0.1 + 0j, "z2_0": 0.05 + 0j}
        if field in start:   # a non-finite real part in z1_0, imaginary part in z2_0
            start[field] = complex(bad, 0.0) if field == "z1_0" else complex(0.0, bad)
        else:
            coefs[field] = bad
        with pytest.raises(InvalidConfig, match=f"{field} must be finite"):
            integrate_truncated(ReducedSystem(**coefs), start["z1_0"], start["z2_0"],
                                t_max=10.0, dt=1.0)

    @pytest.mark.parametrize("sys, z1_0", [
        (ReducedSystem(mu=0.1, omega=1.0, a=0.5 + 0j, b=-1.0 + 0j, c=1.0 + 0j), 1e200),
        (ReducedSystem(mu=0.1, omega=1.0, a=0.5 + 0j, b=-1e300 + 0j, c=0j), 1e5),
    ])
    def test_nan_error_estimate_is_never_accepted(self, sys, z1_0):
        # finite inputs whose vector field overflows give a NaN error
        # estimate at every step size; the step shrinks to underflow at t = 0
        y0 = (z1_0, 0.0, 0.0, 0.0)
        assert math.isnan(_dp54_step(sys, y0, _polar_vector_field(sys, z1_0, 0.0), 1e-3)[2])
        with pytest.raises(StepSizeUnderflow, match="at t = 0:"):
            integrate_truncated(sys, z1_0, 0.0, t_max=10.0, dt=1.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            integrate_truncated(projection_system(0.1), 0.1, 0.1, -1.0, 0.1)

    # an integer beyond the float range raised math.isfinite's OverflowError
    @pytest.mark.parametrize("t_max, named", [(math.nan, "nan"), (math.inf, "inf"),
                                              (10 ** 5000, "an integer of 16610 bits")],
                             ids=["nan", "inf", "huge"])
    def test_nonfinite_horizon_is_invalid_config(self, t_max, named):
        with pytest.raises(InvalidConfig, match=f"t_max must be finite and > 0, got {named}"):
            integrate_truncated(projection_system(0.1), 0.1, 0.1, t_max, 0.1)

    @pytest.mark.parametrize("z1_0, z2_0, message", [
        # cmath.isfinite raised an untyped OverflowError
        (10 ** 400, 0.0, "^z1_0 must be finite, got an integer of 1329 bits$"),
        (0.1, True, "^z2_0 must be finite, got True$"),
        (0.1, "0.1", "^z2_0 must be finite, got '0.1'$"),
    ], ids=["huge", "bool", "text"])
    def test_start_must_be_a_finite_number(self, z1_0, z2_0, message):
        with pytest.raises(InvalidConfig, match=message):
            integrate_truncated(projection_system(0.1), z1_0, z2_0, t_max=1.0, dt=0.5)


class TestReconstruction:
    def test_field_is_real(self):
        sys = projection_system(0.05)
        bp = {b.kind: b for b in branches(sys)}["standing_wave"]
        _, u, residue = reconstruct_wave(CANON, sys, bp, 0.3, 1.1, t=0.7)
        assert residue <= 1e-13
        assert u.shape == (2, 256)

    @pytest.mark.parametrize("phases, named", [
        ((0.0, 0.0, math.nan), "t must be a finite real number, got nan"),   # a NaN field
        ((math.inf, 0.0, 0.0), "phi1 must be a finite real number, got inf"),
        ((0.0, 1j, 0.0), "phi2 must be a finite real number, got 1j"),
        ((0.0, 0.0, True), "t must be a finite real number, got True"),
    ], ids=["nan_t", "inf_phi1", "complex_phi2", "bool_t"])
    def test_phases_and_time_are_checked(self, phases, named):
        sys = projection_system(0.05)
        bp = {b.kind: b for b in branches(sys)}["standing_wave"]
        with pytest.raises(InvalidConfig, match=f"^{named}$"):
            reconstruct_wave(CANON, sys, bp, *phases)

    def test_trivial_branch_rejected(self):
        sys = projection_system(0.05)
        bp = {b.kind: b for b in branches(sys)}["trivial"]
        with pytest.raises(ValueError):
            reconstruct_wave(CANON, sys, bp, 0.0, 0.0, t=0.0)

    def test_standing_wave_reflection_symmetry(self):
        # R(phi2 - phi1) S U = U, with phases chosen on the grid
        n = 256
        sys = projection_system(0.05)
        bp = {b.kind: b for b in branches(sys)}["standing_wave"]
        m = 37
        phi1, phi2 = 0.45, 0.45 + 2.0 * math.pi * m / n
        _, u, _ = reconstruct_wave(CANON, sys, bp, phi1, phi2, t=0.8, n_grid=n)
        reflected = u[:, (-np.arange(n)) % n]
        translated = np.roll(reflected, m, axis=1)
        assert np.max(np.abs(translated - u)) < 1e-10

    def test_standing_wave_half_period_translation(self):
        # R(pi) U(t) = U(t + pi/omega*)
        n = 128
        sys = projection_system(0.05)
        bp = {b.kind: b for b in branches(sys)}["standing_wave"]
        w_star = branch_frequency(bp)
        _, u_t, _ = reconstruct_wave(CANON, sys, bp, 0.2, 1.4, t=0.3, n_grid=n)
        _, u_shift, _ = reconstruct_wave(CANON, sys, bp, 0.2, 1.4,
                                         t=0.3 + math.pi / w_star, n_grid=n)
        assert np.max(np.abs(np.roll(u_t, n // 2, axis=1) - u_shift)) < 1e-10

    def test_uniform_offset_matches_beta(self):
        sys = projection_system(0.05)
        bp = {b.kind: b for b in branches(sys)}["rotating_wave_1"]
        _, u, _ = reconstruct_wave(CANON, sys, bp, 0.0, 0.0, t=0.0)
        beta = onset(CANON).beta1 + sys.mu
        assert abs(np.mean(u[0]) - CANON.alpha) < 1e-12
        assert abs(np.mean(u[1]) - beta / CANON.alpha) < 1e-12
