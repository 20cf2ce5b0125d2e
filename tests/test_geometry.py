"""Tests for the frame-metric curvature decomposition and endpoint classes."""

import json
import math
import random

import numpy as np
import pytest

from halphen_lab import geometry
from halphen_lab.errors import DegenerateMetric, DomainError, InsufficientData
from halphen_lab.geometry import (
    classify_endpoint,
    classify_geometry,
    connection,
    curvature_decomp,
    frame_coefficients,
    onshell_weyl,
    proper_time,
    taub_nut_check,
    taub_nut_endpoints,
    CurvatureDecomp,
)
from halphen_lab.conformal import ConformalState, asd_curvature_identity
from halphen_lab.halphen import (
    RealTriAxial,
    TriAxial,
    Trajectory,
    halphen_closed_form_real,
    integrate,
    taub_nut_family,
)


def _decomp_norm(d):
    return max(
        abs(x) for x in d.weyl_plus + d.weyl_minus + d.ricci_plus + d.ricci_minus
    ) + abs(d.scalar)


class TestConnection:
    def test_dh_antiself_dual_coefficient_is_half(self):
        c = connection((0.8, 1.3, 2.1), system="dh")
        assert np.allclose(c.v, 0.5)

    def test_lagrange_antiself_dual_coefficient_vanishes(self):
        c = connection((0.8, 1.3, 2.1), system="lagrange")
        assert np.allclose(c.v, 0.0)

    def test_time_reversal_swaps_roles(self):
        # reversing the flow direction turns the self-dual coefficient into
        # the constant -1/2 while v becomes nontrivial
        Om = (0.8, 1.3, 2.1)
        forward = connection(Om, system="dh")
        from halphen_lab.halphen import dh_rhs, TriAxial

        rev_dot = tuple(-x for x in dh_rhs(TriAxial(Om, 0j)))
        reversed_ = connection(Om, Omega_dot=rev_dot)
        assert np.allclose(reversed_.u, -0.5)
        assert not np.allclose(reversed_.v, 0.5)
        assert np.allclose(forward.v, 0.5)

    def test_degenerate_metric(self):
        with pytest.raises(DegenerateMetric):
            connection((0.0, 1.0, 2.0), system="dh")


class TestCurvatureDecomp:
    @pytest.mark.parametrize("system", ["dh", "lagrange"])
    def test_self_duality_both_branches(self, system):
        rng = np.random.default_rng(2)
        for _ in range(10):
            Om = tuple(rng.uniform(0.3, 3.0, 3))
            d = curvature_decomp(Om, system)
            scale = 1 + max(abs(x) for x in d.weyl_plus)
            bad = (
                max(abs(x) for x in d.weyl_minus)
                + max(abs(x) for x in d.ricci_plus + d.ricci_minus)
                + abs(d.scalar)
            )
            assert bad < 1e-8 * scale

    def test_flat_isotropic(self):
        # Omega = 1/(T - T0) has vanishing Riemann tensor
        d = curvature_decomp((0.5, 0.5, 0.5), "dh")
        assert _decomp_norm(d) < 1e-9

    def test_json_roundtrip(self):
        d = curvature_decomp((0.8, 1.1, 1.4), "dh")
        payload = json.loads(d.to_json())
        assert payload["scalar"] == pytest.approx(d.scalar)


class TestClassify:
    def test_dh_point_is_self_dual(self):
        flags = classify_geometry(curvature_decomp((0.8, 1.1, 1.4), "dh"), 1e-8)
        assert flags["SelfDual"] and flags["RicciFlat"] and flags["Einstein"]
        assert flags["ConformallySelfDual"]
        assert not flags["AntiSelfDual"] and not flags["ConformallyFlat"]

    def test_generic_decomposition_has_no_flags(self):
        d = CurvatureDecomp(
            scalar=1.3,
            weyl_plus=(0.2, 0.1, -0.3),
            weyl_minus=(0.4, -0.2, -0.2),
            ricci_plus=(0.5, 0.1, 0.2),
            ricci_minus=(0.3, 0.2, 0.1),
            scalar_cross=0.7,
        )
        flags = classify_geometry(d, 1e-8)
        assert not any(
            flags[k]
            for k in (
                "Einstein",
                "RicciFlat",
                "SelfDual",
                "AntiSelfDual",
                "ConformallySelfDual",
                "ConformallyAntiSelfDual",
                "ConformallyFlat",
            )
        )

    def test_synthetic_einstein(self):
        d = CurvatureDecomp(
            scalar=2.0,
            weyl_plus=(0.2, 0.1, -0.3),
            weyl_minus=(0.4, -0.2, -0.2),
            ricci_plus=(0.0, 0.0, 0.0),
            ricci_minus=(0.0, 0.0, 0.0),
            scalar_cross=0.0,
        )
        flags = classify_geometry(d, 1e-10)
        assert flags["Einstein"] and not flags["RicciFlat"]


class TestOnshellWeyl:
    def test_dh_point_minus_part_vanishes(self):
        plus, minus = onshell_weyl(curvature_decomp((0.8, 1.1, 1.4), "dh"), 0.0)
        m_weyl, m_trace, m_cross = minus
        assert max(abs(x) for x in m_weyl) < 1e-12
        assert abs(m_trace) < 1e-12
        assert max(abs(x) for x in m_cross) < 1e-12
        assert max(abs(x) for x in plus[0]) > 0.1  # curvature lives in W+

    def test_einstein_lambda_cancellation(self):
        d = CurvatureDecomp(
            scalar=2.4,
            weyl_plus=(0.2, 0.1, -0.3),
            weyl_minus=(0.0, 0.0, 0.0),
            ricci_plus=(0.0, 0.0, 0.0),
            ricci_minus=(0.0, 0.0, 0.0),
            scalar_cross=0.0,
        )
        plus, minus = onshell_weyl(d, Lambda=1.2)  # Lambda = s/2
        assert abs(plus[1]) < 1e-14 and abs(minus[1]) < 1e-14

    def test_generic_not_quaternionic(self):
        d = CurvatureDecomp(
            scalar=1.0,
            weyl_plus=(0.1, 0.2, -0.3),
            weyl_minus=(0.3, -0.1, -0.2),
            ricci_plus=(0.1, 0.0, 0.2),
            ricci_minus=(0.2, 0.1, 0.0),
            scalar_cross=0.4,
        )
        _, minus = onshell_weyl(d, 0.0)
        assert max(abs(x) for x in minus[0]) > 1e-3


class TestEndpoints:
    def test_nut_for_taub_nut(self):
        T = np.linspace(1.0, 60.0, 400)
        Om = np.array([taub_nut_family(t, 0.0, -1.0).Omega for t in T])
        traj = Trajectory.from_samples("dh", T, Om)
        ep = classify_endpoint(traj, end="last")
        assert ep.kind == "nut"
        assert np.allclose(ep.exponents, 1 / 3, atol=0.05)

    def test_bolt_for_halphen(self):
        T = np.linspace(0.5, 7.0, 600)
        Om = np.array([halphen_closed_form_real(t).Omega for t in T])
        traj = Trajectory.from_samples("dh", T, Om)
        ep = classify_endpoint(traj, end="last")
        assert ep.kind == "bolt"
        assert ep.bolt_degree == pytest.approx(4.0, abs=0.1)
        assert ep.bolt_radius == pytest.approx(math.sqrt(math.pi / 2), rel=0.02)

    def test_taubian_and_singularity(self):
        both = taub_nut_endpoints(0.0, -1.0)
        assert both["outer"].kind == "nut"
        assert both["inner"].kind == "taubian_infinity"
        sing = taub_nut_endpoints(0.0, 1.0)
        assert sing["inner"].kind == "curvature_singularity"

    def test_insufficient_data(self):
        T = np.linspace(1.0, 2.0, 5)
        Om = np.array([taub_nut_family(t, 0.0, -1.0).Omega for t in T])
        with pytest.raises(InsufficientData):
            classify_endpoint(Trajectory.from_samples("dh", T, Om))

    def test_proper_time_monotone(self):
        traj = integrate("dh", RealTriAxial((1.0, 2.0, 3.0), 1.0), 10.0)
        tau = proper_time(traj)
        assert np.all(np.diff(tau) > 0)

    def test_frame_coefficients(self):
        f = frame_coefficients((2.0, 3.0, 6.0))
        assert f == (3.0, 2.0, 1.0)


def _lstsq_slope(x, y):
    """The np.linalg.lstsq slope of y (or of each column) against x: the
    reference for the closed form of `geometry._log_slope`."""
    coef, *_ = np.linalg.lstsq(np.vstack([x, np.ones_like(x)]).T, y, rcond=None)
    return coef[0]


def _endpoint_runs():
    """Seeded DH and Lagrange runs with mixed-sign data, and sampled
    Taub-NUT families with a nut, a taubian infinity and a singularity."""
    rng = np.random.default_rng(41)
    runs = []
    for k in range(12):
        system = "dh" if k % 2 else "lagrange"
        init = RealTriAxial(tuple(rng.uniform(-3, 3, 3)), 1.0)
        runs.append(integrate(system, init, 1.0 + rng.uniform(-3.0, 8.0), tol=1e-10))
    for T0, T_star in ((0.0, -1.0), (0.0, 1.0)):
        T = np.linspace(abs(T_star) + 0.05, 40.0, 300)
        Om = np.array([taub_nut_family(t, T0, T_star).Omega for t in T])
        runs.append(Trajectory.from_samples("dh", T, Om))
    return [r for r in runs if len(r.T) >= 30]


class TestLogSlope:
    def test_matches_lstsq(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = np.sort(rng.uniform(-2.0, 5.0, 25))
            noise = 0.1 * rng.normal(size=(25, 3))
            y = rng.normal(size=3) + np.outer(x, rng.normal(size=3)) + noise
            ref = _lstsq_slope(x, y)
            assert np.all(np.abs(geometry._log_slope(x, y) - ref) <= 1e-12 * np.abs(ref))
            assert abs(geometry._log_slope(x, y[:, 1]) - ref[1]) <= 1e-12 * abs(ref[1])

    @pytest.mark.parametrize("end", ["last", "first"])
    def test_classification_unchanged_from_lstsq(self, monkeypatch, end):
        runs = _endpoint_runs()
        new = [classify_endpoint(traj, end=end) for traj in runs]
        monkeypatch.setattr(geometry, "_log_slope", _lstsq_slope)
        old = [classify_endpoint(traj, end=end) for traj in runs]
        assert {ep.kind for ep in new} >= {"nut", "taubian_infinity", "curvature_singularity"}
        for a, b in zip(new, old):
            assert a.kind == b.kind
            assert a.exponents == b.exponents
            assert a.detail.get("shrinking_axis") == b.detail.get("shrinking_axis")


class TestTaubNutCheck:
    @pytest.mark.parametrize("m,r", [(1.0, 3.0), (2.0, 2.5)])
    def test_self_dual(self, m, r):
        flags = classify_geometry(taub_nut_check(m, r), 1e-8)
        assert flags["SelfDual"]

    def test_asymptotic_flatness(self):
        norms = [_decomp_norm(taub_nut_check(1.0, r)) for r in (10.0, 100.0, 1000.0)]
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            taub_nut_check(1.0, 0.5)
        with pytest.raises(DomainError):
            taub_nut_check(-1.0, 2.0)


# ---------------------------------------------------------------------------
# reference: the cyclic, comprehension-based curvature core that the
# straight-line one in `geometry` replaced, with its own Omega' and Omega''

_CYC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _ref_components(state):
    if isinstance(state, TriAxial):
        return state.omega
    if isinstance(state, RealTriAxial):
        return state.Omega
    return tuple(state)


def _ref_rhs(system, Om):
    if system == "dh":
        return tuple(Om[j] * Om[k] - Om[i] * (Om[j] + Om[k]) for i, j, k in _CYC)
    return tuple(Om[j] * Om[k] for i, j, k in _CYC)


def _ref_omega_ddot(w, d, D, Dd):
    return tuple([
        d[j] * w[k] + w[j] * d[k] - d[i] * (D[j] + D[k]) - w[i] * (Dd[j] + Dd[k])
        for i, j, k in _CYC
    ])


def _ref_derivatives(system, Om):
    Od = _ref_rhs(system, Om)
    D, Dd = (Om, Od) if system == "dh" else ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    return Od, _ref_omega_ddot(Om, Od, D, Dd)


def _ref_dual_connection(s, Om, Omega_dot, Omega_ddot):
    Z = [Omega_dot[i] + s * Om[j] * Om[k] for i, j, k in _CYC]
    z = tuple(
        (Z[i] / Om[i] - Z[j] / Om[j] - Z[k] / Om[k]) / (4 * Om[i]) for i, j, k in _CYC
    )
    if Omega_ddot is None:
        return z, (math.nan, math.nan, math.nan)
    Zd = [Omega_ddot[i] + s * Omega_dot[j] * Om[k] + s * Om[j] * Omega_dot[k]
          for i, j, k in _CYC]
    dZO = [(Zd[i] * Om[i] - Z[i] * Omega_dot[i]) / Om[i] ** 2 for i in range(3)]
    z_dot = tuple(
        (dZO[i] - dZO[j] - dZO[k]) / (4 * Om[i]) - z[i] * Omega_dot[i] / Om[i]
        for i, j, k in _CYC
    )
    return z, z_dot


def _ref_curvature_blocks(Om, Omega_dot, Omega_ddot):
    blocks = []
    for s in (1, -1):
        z, z_dot = _ref_dual_connection(s, Om, Omega_dot, Omega_ddot)
        phi, chi = [], []
        for i, j, k in _CYC:
            dT = z_dot[i] / (2 * Om[j] * Om[k])
            jk = -s * (s * z[i] + 2 * z[j] * z[k]) / (2 * Om[i])
            phi.append(dT + jk)
            chi.append(dT - jk)
        blocks += [phi, chi]
    return blocks


def _ref_curvature_decomp(state, system):
    Om = _ref_components(state)
    s_phi, s_chi, a_phi, a_chi = _ref_curvature_blocks(Om, *_ref_derivatives(system, Om))
    s = 4 * sum(s_phi)
    return (
        s,
        tuple(2 * x - s / 6 for x in s_phi),
        tuple(2 * x - s / 6 for x in a_chi),
        tuple(2 * x for x in s_chi),
        tuple(2 * x for x in a_phi),
        4 * sum(a_chi),
    )


def _ref_connection(state, system=None, Omega_dot=None):
    Om = _ref_components(state)
    Omega_ddot = None
    if Omega_dot is None:
        Omega_dot, Omega_ddot = _ref_derivatives(system, Om)
    return (_ref_dual_connection(1, Om, Omega_dot, Omega_ddot)
            + _ref_dual_connection(-1, Om, Omega_dot, Omega_ddot))


def _ref_asd_identity(delta, Om):
    d = delta
    Omdot = tuple(Om[j] * Om[k] - Om[i] * (d[j] + d[k]) for i, j, k in _CYC)
    Omddot = _ref_omega_ddot(Om, Omdot, d, _ref_rhs("dh", d))
    _, _, a_phi, a_chi = _ref_curvature_blocks(Om, Omdot, Omddot)
    res = []
    for i, j, k in _CYC:
        target = (d[j] * d[k] / (Om[j] * Om[k]) - d[i] / Om[i]) / (2 * Om[i])
        res.append(max(abs(a_phi[i] - target), abs(a_chi[i])))
    return tuple(res)


def _text(x):
    """repr of nested tuples of numbers, numpy scalars as the plain number
    of the same value (the reference keeps numpy float64 from numpy rows)."""
    if isinstance(x, (tuple, list)):
        return "(" + ", ".join(_text(v) for v in x) + ")"
    return repr(complex(x)) if isinstance(x, complex) else repr(float(x))


def _states(kind, rng):
    """Seeded states of one kind, 60 of them."""
    out = []
    for _ in range(60):
        if kind == "mixed signs":
            out.append(tuple(rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-3, 3)
                             for _ in range(3)))
        elif kind == "integer valued":
            ints = tuple(rng.choice((-3, -2, -1, 1, 2, 3, 4)) for _ in range(3))
            out.append(ints if rng.random() < 0.5 else tuple(float(w) for w in ints))
        elif kind == "numpy rows":
            out.append(tuple(np.array([rng.uniform(-3.0, 3.0) for _ in range(3)])))
        elif kind == "complex":
            out.append(TriAxial(tuple(
                complex(rng.uniform(-2, 2), rng.choice((0.0, -0.0, rng.uniform(-2, 2))))
                for _ in range(3))))
        else:
            out.append(taub_nut_family(rng.uniform(0.1, 30.0), 0.0, rng.choice((-1.0, 1.0))))
    return out


_KINDS = ["mixed signs", "integer valued", "numpy rows", "complex", "taub-nut"]


class TestCoreMatchesReference:
    """The straight-line core rounds every value, signs of exact zeros
    included, as the cyclic formulas it replaced."""

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("system", ["dh", "lagrange"])
    def test_curvature_decomp(self, kind, system):
        for state in _states(kind, random.Random(kind)):
            d = curvature_decomp(state, system)
            got = (d.scalar, d.weyl_plus, d.weyl_minus, d.ricci_plus, d.ricci_minus,
                   d.scalar_cross)
            assert _text(got) == _text(_ref_curvature_decomp(state, system))

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("system", ["dh", "lagrange", None])
    def test_connection(self, kind, system):
        Omega_dot = None if system else (1.5, -0.25, 2.0)
        for state in _states(kind, random.Random(kind)):
            c = connection(state, system, Omega_dot)
            got = ((c.u, c.u_dot), (c.v, c.v_dot))
            ref = _ref_connection(state, system, Omega_dot)
            assert _text(got) == _text(((ref[0], ref[1]), (ref[2], ref[3])))

    @pytest.mark.parametrize("kind", _KINDS)
    def test_asd_curvature_identity(self, kind):
        rng = random.Random(kind)
        for state in _states(kind, rng):
            Om = _ref_components(state)
            delta = tuple(rng.choice((0, 1, -2, w)) for w in Om)
            st = ConformalState(delta, Om)
            assert _text(asd_curvature_identity(st)) == _text(
                _ref_asd_identity(st.delta, st.omega))

    def test_real_input_gives_plain_floats(self):
        row = tuple(np.array([0.8, 1.3, 2.1]))
        d = curvature_decomp(row, "dh")
        values = (d.scalar, d.scalar_cross, *d.weyl_plus, *d.weyl_minus,
                  *d.ricci_plus, *d.ricci_minus)
        assert all(type(x) is float for x in values)
        assert all(type(x) is float for x in connection(row, "lagrange").v_dot)
        assert all(type(x) is complex for x in curvature_decomp(TriAxial(row), "dh").weyl_plus)
