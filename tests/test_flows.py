"""Tests for the Ricci-flow runs on homogeneous three-spheres.

The closed-form scalar curvature of the slice metric is validated here
against an independent finite-difference computation in an explicit
Euler-angle coordinate chart.
"""

import json
import math

import numpy as np
import pytest

from halphen_lab.errors import DegenerateMetric, DomainError, OutOfRange
from halphen_lab.flows import (
    attractor_check,
    flow_run,
    flow_time,
    isotropy_ratio,
    slice_metric,
    slice_scalar_curvature,
    slice_volume,
    volume_rate_check,
)
from halphen_lab.halphen import RealTriAxial, integrate


# ---------------------------------------------------------------------------
# independent oracle: scalar curvature of g = sum_i A_i sigma^i x sigma^i in
# the Euler-angle chart, by finite-difference Christoffel symbols


def _chart_metric(x, A):
    th, _, ps = x
    s1 = np.array([math.cos(ps), math.sin(ps) * math.sin(th), 0.0])
    s2 = np.array([-math.sin(ps), math.cos(ps) * math.sin(th), 0.0])
    s3 = np.array([0.0, math.cos(th), 1.0])
    return A[0] * np.outer(s1, s1) + A[1] * np.outer(s2, s2) + A[2] * np.outer(s3, s3)


def _chart_scalar_curvature(x, A, h=1e-5):
    x = np.asarray(x, dtype=float)
    g0 = _chart_metric(x, A)
    ginv = np.linalg.inv(g0)
    dg = np.empty((3, 3, 3))
    for k in range(3):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        dg[k] = (_chart_metric(xp, A) - _chart_metric(xm, A)) / (2 * h)
    Gam = 0.5 * np.einsum("ls,kis->lik", ginv, dg + np.swapaxes(dg, 0, 1))
    Gam -= 0.5 * np.einsum("ls,sik->lik", ginv, dg)
    dGam = np.empty((3, 3, 3, 3))
    for k in range(3):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h

        def christoffel(y):
            g = _chart_metric(y, A)
            gi = np.linalg.inv(g)
            d = np.empty((3, 3, 3))
            for m in range(3):
                yp, ym = y.copy(), y.copy()
                yp[m] += h
                ym[m] -= h
                d[m] = (_chart_metric(yp, A) - _chart_metric(ym, A)) / (2 * h)
            G = 0.5 * np.einsum("ls,kis->lik", gi, d + np.swapaxes(d, 0, 1))
            G -= 0.5 * np.einsum("ls,sik->lik", gi, d)
            return G

        dGam[k] = (christoffel(xp) - christoffel(xm)) / (2 * h)
    ric = (
        np.einsum("llij->ij", dGam)
        - np.einsum("jlil->ij", dGam)
        + np.einsum("lls,sij->ij", Gam, Gam)
        - np.einsum("ljs,sil->ij", Gam, Gam)
    )
    return float(np.einsum("ij,ij->", ginv, ric))


class TestSliceCurvatureOracle:
    @pytest.mark.parametrize("x", [(0.7, 0.3, 0.4), (1.1, -0.2, 2.0)])
    def test_formula_matches_chart_computation(self, x):
        # Omega_i = A_j A_k makes the frame coefficients
        # A_i = sqrt(Om_j Om_k / Om_i) come out as (1.1, 0.8, 1.3)
        state = (0.8 * 1.3, 1.3 * 1.1, 1.1 * 0.8)
        A = slice_metric(state)
        assert np.allclose(A, (1.1, 0.8, 1.3))
        got = slice_scalar_curvature(state)
        ref = _chart_scalar_curvature(np.array(x), A)
        assert abs(got - ref) < 1e-4 * abs(ref)

    def test_round_sphere(self):
        # A_i = a: R = 3/(2a) for this frame normalization
        state = (1.0, 1.0, 1.0)
        assert slice_scalar_curvature(state) == pytest.approx(
            _chart_scalar_curvature(np.array([0.9, 0.1, 0.3]), slice_metric(state)),
            rel=1e-4,
        )


class TestSliceHelpers:
    def test_metric_and_volume_homogeneity(self):
        s = (0.7, 1.9, 1.1)
        s2 = tuple(2 * x for x in s)
        A1, A2 = np.array(slice_metric(s)), np.array(slice_metric(s2))
        assert np.allclose(A2, math.sqrt(2) * A1)
        assert slice_volume(s2) == pytest.approx(2**0.75 * slice_volume(s))

    def test_volume_definition(self):
        s = (0.7, 1.9, 1.1)
        assert slice_volume(s) == pytest.approx((s[0] * s[1] * s[2]) ** 0.25)

    def test_degenerate(self):
        with pytest.raises(DegenerateMetric):
            slice_scalar_curvature((0.0, 1.0, 1.0))


class TestFlowRun:
    def test_positivity_and_asymptote(self):
        run = flow_run(RealTriAxial((1.0, 2.0, 3.0), 1.0), 50.0)
        assert np.all(run.traj.Omega > 0)
        assert np.max(np.abs(50.0 * run.traj.Omega[-1] - 1.0)) < 0.05

    def test_isotropic_exact(self):
        run = flow_run(RealTriAxial((0.5, 0.5, 0.5), 1.0), 10.0)
        ref = 1.0 / (run.traj.T - (-1.0))
        assert np.max(np.abs(run.traj.Omega - ref[:, None])) < 1e-8

    def test_flow_time_increasing(self):
        run = flow_run(RealTriAxial((1.0, 2.0, 3.0), 1.0), 10.0)
        assert np.all(np.diff(run.t) > 0)
        assert np.all(np.diff(flow_time(run.traj)) > 0)

    def test_json_is_flat(self):
        # the trajectory contributes only its times and stop reason
        run = flow_run(RealTriAxial((1.0, 2.0, 3.0), 1.0), 3.0)
        payload = json.loads(run.to_json())
        assert sorted(payload) == ["T", "anisotropy", "meta", "reason", "scalar", "t", "volume"]
        assert payload["T"] == run.traj.T.tolist()
        assert payload["volume"] == run.volume.tolist()
        assert payload["reason"] == run.traj.reason

    def test_volume_shrinks(self):
        run = flow_run(RealTriAxial((0.5, 0.5, 0.5), 1.0), 5.0)
        assert np.all(np.diff(run.volume) < 0)

    def test_attractor_check_rejects_nonpositive_init(self):
        with pytest.raises(DomainError):
            attractor_check(RealTriAxial((-1.0, 2.0, 3.0), 1.0))


class TestIsotropy:
    def test_generic_isotropizes(self):
        run = flow_run(RealTriAxial((1.0, 2.0, 3.0), 1.0), 50.0)
        assert isotropy_ratio(run.traj.Omega[-1]) < 0.1

    def test_isotropic_stays_isotropic(self):
        run = flow_run(RealTriAxial((0.5, 0.5, 0.5), 1.0), 10.0)
        assert max(isotropy_ratio(o) for o in run.traj.Omega) < 1e-10

    def test_biaxial_ratio_decreases(self):
        run = flow_run(RealTriAxial((1.0, 1.0, 5.0), 1.0), 30.0)
        ratios = run.anisotropy
        assert ratios[-1] < 0.2 * ratios[0]
        assert np.all(np.diff(ratios[len(ratios) // 2 :]) <= 0)
        assert np.max(np.abs(run.traj.Omega[:, 0] - run.traj.Omega[:, 1])) < 1e-9


class TestVolumeRate:
    def test_residual_small_generic(self):
        run = flow_run(RealTriAxial((1.0, 2.0, 3.0), 1.0), 10.0)
        assert volume_rate_check(run, T=5.0) < 1e-3

    def test_scaling_leaves_residual_small(self):
        run = flow_run(RealTriAxial((2.0, 4.0, 6.0), 1.0), 10.0)
        assert volume_rate_check(run, T=5.0) < 1e-3

    def test_out_of_range(self):
        run = flow_run(RealTriAxial((1.0, 2.0, 3.0), 1.0), 10.0)
        with pytest.raises(OutOfRange):
            volume_rate_check(run, T=40.0)


class TestTrapping:
    def test_random_positive_inits_stay_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            init = RealTriAxial(tuple(rng.uniform(0.1, 10.0, 3)), 0.0)
            traj = integrate("dh", init, 50.0, tol=1e-9)
            assert traj.reason == "completed"
            assert np.all(traj.Omega > 0)

    def test_sign_recovery(self):
        # one negative component becomes positive after a finite time
        traj = integrate(
            "dh", RealTriAxial((-1.0, 2.0, 3.0), 0.0), 10.0, stop_on_root=False
        )
        assert traj.Omega[0, 0] < 0
        assert np.all(traj.Omega[-1] > 0)

    def test_attractor_check_summary(self):
        out = attractor_check(RealTriAxial((1.0, 2.0, 3.0), 1.0))
        assert out["stayed_positive"]
        assert out["deviation"] < 0.05
