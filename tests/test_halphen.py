"""Tests for the Lagrange / Darboux-Halphen systems and their solutions."""

import cmath
import json
import math
import operator
import random

import mpmath as mp
import numpy as np
import pytest

from halphen_lab import halphen as H
from halphen_lab.errors import DomainError, NotConverged, StepUnderflow
from halphen_lab.halphen import (
    ChazyData,
    ModularTriplet,
    RealTriAxial,
    TriAxial,
    chazy_from_dh,
    chazy_residual,
    dh_from_lambda,
    dh_residual,
    dh_rhs,
    halphen_closed_form,
    halphen_closed_form_real,
    halphen_triplet,
    integrate,
    integrate_ray,
    lagrange_rhs,
    omegas_from_chazy,
    reflection_check,
    schwarz_lambda,
    schwarz_residual,
    sl2_generate,
    sl2_generate_real,
    system_rhs,
    system_second_derivative,
    taub_nut_family,
)
from halphen_lab.conformal import ConformalState, w_lambda_system_residual
from halphen_lab.modforms import Moebius, eisenstein_holo


class TestRHS:
    def test_dh_isotropic(self):
        assert dh_rhs(TriAxial((1, 1, 1), 0j)) == (-1, -1, -1)

    def test_dh_biaxial_symmetry(self):
        r = dh_rhs(TriAxial((0.4 + 0.1j, 0.4 + 0.1j, 1.5), 0j))
        assert r[0] == r[1]

    def test_dh_matches_closed_form_derivative(self):
        z = 1.7j
        sol = halphen_closed_form(z)
        rhs = dh_rhs(sol)
        h = 1e-5
        for i in range(3):
            fd = (
                halphen_closed_form(z + h).omega[i]
                - halphen_closed_form(z - h).omega[i]
            ) / (2 * h)
            assert abs(rhs[i] - fd) < 1e-8

    def test_lagrange(self):
        assert lagrange_rhs(TriAxial((1, 1, 1), 0j)) == (1, 1, 1)
        assert lagrange_rhs(TriAxial((0, 2, 3), 0j)) == (6, 0, 0)


@pytest.mark.parametrize("make, name", [
    (lambda v: TriAxial(v), "TriAxial"),
    (lambda v: RealTriAxial(v), "RealTriAxial"),
    (lambda v: ConformalState(delta=v, omega=(1, 2, 3)), "delta"),
    (lambda v: ConformalState(delta=(1, 2, 3), omega=v), "omega"),
])
def test_triple_check_messages(make, name):
    # one check behind every triple, each message naming its owner
    assert make((1, 2, 3.5))
    with pytest.raises(DomainError, match=f"^{name} needs exactly 3 components$"):
        make((1, 2))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=f"^{name} components must be finite$"):
            make((1, bad, 3))


class TestIntegrate:
    def test_isotropic_exact(self):
        traj = integrate("dh", RealTriAxial((1.0, 1.0, 1.0), 1.0), 3.0, tol=1e-11)
        assert np.max(np.abs(traj.Omega - 1.0 / traj.T[:, None])) < 1e-8

    def test_taub_nut_family_tracked(self):
        init = taub_nut_family(1.0, 0.0, -1.0)
        traj = integrate("dh", init, 4.0, tol=1e-11)
        ref = np.array([taub_nut_family(t, 0.0, -1.0).Omega for t in traj.T])
        assert np.max(np.abs(traj.Omega - ref)) < 1e-8

    def test_closed_form_endpoint(self):
        init = halphen_closed_form_real(0.5)
        traj = integrate("dh", init, 2.5, tol=1e-11)
        end = halphen_closed_form_real(2.5)
        assert np.max(np.abs(traj.Omega[-1] - end.Omega)) < 1e-7

    def test_tolerance_sweep_monotone(self):
        errs = []
        for tol in (1e-6, 1e-9, 1e-12):
            traj = integrate("dh", halphen_closed_form_real(0.5), 2.5, tol=tol)
            end = halphen_closed_form_real(2.5)
            errs.append(np.max(np.abs(traj.Omega[-1] - end.Omega)))
        assert errs[0] > errs[1] > errs[2]

    def test_biaxial_closure(self):
        traj = integrate("lagrange", RealTriAxial((0.7, 0.7, 1.9), 0.0), 2.0)
        assert np.max(np.abs(traj.Omega[:, 0] - traj.Omega[:, 1])) < 1e-9

    def test_root_crossing_event(self):
        traj = integrate("dh", RealTriAxial((-1.0, 2.0, 3.0), 0.0), 50.0)
        assert traj.reason == "root_crossing"
        assert traj.root_component == 0
        assert abs(traj.Omega[-1, 0]) < 1e-8

    def test_blowup_toward_pole(self):
        traj = integrate("dh", RealTriAxial((1.0, 1.0, 1.0), 1.0), 0.0, tol=1e-6)
        assert traj.reason == "blowup"
        assert np.max(np.abs(traj.Omega[-1])) > 1e5

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_nonfinite_or_nonpositive_tol(self, tol):
        # a NaN tol made every step NaN, which never underflows: the run hung
        with pytest.raises(DomainError, match="tol must be finite and positive"):
            integrate("dh", RealTriAxial((1.0, 2.0, 3.0), 1.0), 3.0, tol=tol)

    @pytest.mark.parametrize("T0, T_end", [(1.0, math.nan), (1.0, math.inf),
                                           (1.0, -math.inf), (math.nan, 3.0)])
    def test_rejects_nonfinite_times(self, T0, T_end):
        # T_end = NaN integrated backwards and stopped at a root at T = 0.83
        with pytest.raises(DomainError, match="must be finite"):
            integrate("dh", RealTriAxial((1.0, 2.0, 3.0), T0), T_end)

    def test_step_budget(self, monkeypatch):
        # a run without a finite-time pole that grows without bound crawled
        # for minutes (4.6 million RHS calls in 8 s) with the blowup stop off
        init = RealTriAxial((0.5130535765347357, -2.7246622455318072, -2.8132098709847924),
                            1.5940486882264957)
        monkeypatch.setattr(H, "MAX_STEPS", 2000)
        budget = r"budget of 2000 spent at t = 1\.95\d*, short of 6\.797"
        with pytest.raises(NotConverged, match=budget):
            integrate("dh", init, 6.797139938788122, tol=1e-6,
                      stop_on_root=False, stop_on_blowup=False)

    def test_overflowing_rhs_is_step_underflow(self):
        # the scaled RHS overflowed, so the first step was 0 and the
        # initial-step rule divided by it
        with pytest.raises(StepUnderflow, match="first step is 0"):
            integrate("dh", RealTriAxial((1e300, 2.0, 3.0), 1.0), 2.0)

    def test_trajectory_serialization(self):
        traj = integrate("dh", RealTriAxial((1.0, 2.0, 3.0), 1.0), 2.0)
        lines = traj.to_csv().splitlines()
        assert lines[0].split(",")[0] == "T"
        assert len(lines) == len(traj.T) + 1
        assert "dh" in traj.to_json()

    def test_json_layout(self):
        # one line, sorted keys, arrays as nested lists of floats
        traj = integrate("dh", RealTriAxial((1.0, 2.0, 3.0), 1.0), 2.0)
        text = traj.to_json()
        payload = json.loads(text)
        assert list(payload) == sorted(payload)
        assert "\n" not in text and text.startswith('{"Omega": [[')
        assert payload["Omega"] == traj.Omega.tolist()
        assert payload["Omega_dot"] == traj.Omega_dot.tolist()
        assert payload["T"] == traj.T.tolist()
        assert payload["meta"] == traj.meta


class TestSecondDerivative:
    @pytest.mark.parametrize("system", ["dh", "lagrange"])
    def test_matches_difference_of_rhs(self, system):
        # Omega'' = d/dT rhs(Omega(T)) = (rhs(Om + h Om') - rhs(Om - h Om')) / 2h + O(h^2)
        rhs = system_rhs(system)
        rng = np.random.default_rng(4)
        for _ in range(5):
            Om = tuple(rng.uniform(-2.0, 2.0, 3))
            d = rhs(Om)
            h = 1e-5
            up = rhs(tuple(w + h * v for w, v in zip(Om, d)))
            down = rhs(tuple(w - h * v for w, v in zip(Om, d)))
            fd = [(a - b) / (2 * h) for a, b in zip(up, down)]
            assert system_second_derivative(system, Om) == pytest.approx(fd, rel=1e-7, abs=1e-7)


def _scipy_integrate(system, init, T_end, tol=1e-9, stop_on_root=True, stop_on_blowup=True):
    """Reference run: scipy's RK45 with the same terminal events, returning
    (T, Omega, nfev, reason, root_component)."""
    from scipy.integrate import solve_ivp

    rhs = system_rhs(system)
    events = []
    if stop_on_root:
        for i in range(3):
            ev = lambda t, y, i=i: y[i]
            ev.terminal = True
            events.append(ev)
    if stop_on_blowup:
        blow = lambda t, y: max(abs(y[0]), abs(y[1]), abs(y[2])) - 1.0 / tol
        blow.terminal = True
        events.append(blow)
    sol = solve_ivp(lambda t, y: rhs(y), (init.T, T_end), np.asarray(init.Omega),
                    method="RK45", rtol=tol, atol=tol, events=events)
    reason, root_component = "completed", None
    if sol.status == 1:
        hit = [i for i, te in enumerate(sol.t_events) if len(te)][0]
        if stop_on_root and hit < 3:
            reason, root_component = "root_crossing", hit
        else:
            reason = "blowup"
    return sol.t, sol.y.T, sol.nfev, reason, root_component


class TestIntegratorParity:
    """The Dormand-Prince stepper against scipy's RK45, the same method:
    same steps, RHS calls and stopping event; times and states agree to
    rounding (the last digits differ with the order of the tableau sums)."""

    @pytest.mark.parametrize(
        "system, init, T0, T_end, tol, reason",
        [
            ("dh", (1.0, 2.0, 3.0), 1.0, 10.0, 1e-10, "completed"),
            ("lagrange", (0.3, 0.2, 0.1), 0.0, 1.0, 1e-9, "completed"),
            ("dh", (-1.0, 2.0, 3.0), 0.0, 50.0, 1e-9, "root_crossing"),
            ("lagrange", (0.3, -0.2, 0.1), 0.0, 3.0, 1e-9, "root_crossing"),
            ("dh", (1.0, 2.0, 3.0), 1.0, 0.0, 1e-9, "root_crossing"),
            ("lagrange", (0.1, 0.5, 0.6), 1.0, -5.0, 1e-9, "root_crossing"),
            ("dh", (1.0, 1.0, 1.0), 1.0, 0.0, 1e-6, "blowup"),
            ("dh", (0.3, 0.5, -0.4), 1.0, -10.0, 1e-9, "blowup"),
            ("lagrange", (0.7, 0.7, 1.9), 0.0, 2.0, 1e-9, "blowup"),
        ],
    )
    def test_matches_scipy_rk45(self, system, init, T0, T_end, tol, reason):
        start = RealTriAxial(init, T0)
        T, Omega, nfev, ref_reason, ref_root = _scipy_integrate(system, start, T_end, tol)
        traj = integrate(system, start, T_end, tol=tol)
        assert (traj.reason, ref_reason) == (reason, reason)
        assert traj.root_component == ref_root
        assert len(traj.T) == len(T)
        assert traj.meta == {"nfev": nfev, "status": 0 if reason == "completed" else 1}
        if reason == "completed":
            assert traj.T[-1] == T[-1]
            assert np.max(np.abs(traj.Omega[-1] - Omega[-1])) <= 1e-12 * np.max(np.abs(Omega[-1]))
        else:
            # relative to max(|T|, 1): the blowup from (1,1,1) ends at T ~ 1e-6
            assert abs(traj.T[-1] - T[-1]) <= 1e-13 * max(abs(T[-1]), 1.0)

    def test_omega_dot_is_rhs_of_samples(self):
        traj = integrate("dh", RealTriAxial((-1.0, 2.0, 3.0), 0.0), 50.0)
        ref = np.array([dh_rhs(tuple(row)) for row in traj.Omega])
        assert np.array_equal(traj.Omega_dot, ref)

    @pytest.mark.parametrize("system, public", [("dh", dh_rhs), ("lagrange", lagrange_rhs)])
    def test_stepper_rhs_is_public_rhs(self, monkeypatch, system, public):
        # the right-hand side integrate hands the stepper, on the list states
        # the stepper passes it, against the public one on a RealTriAxial
        from halphen_lab import halphen

        seen = []
        dopri5 = halphen._dopri5

        def spy(rhs, *args, **kwargs):
            seen.append(rhs)
            return dopri5(rhs, *args, **kwargs)

        monkeypatch.setattr(halphen, "_dopri5", spy)
        integrate(system, RealTriAxial((0.3, 0.2, 0.1), 0.0), 0.5)
        (rhs,) = seen
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = [float(x) for x in rng.choice((-1.0, 1.0), 3) * 10 ** rng.uniform(-3, 3, 3)]
            assert repr(rhs(w)) == repr(public(RealTriAxial(tuple(w))))
        for w in ([1.0, 0.0, -0.0], [-2.0, -0.0, 3.0], [0.0, 0.0, 0.0]):
            assert repr(rhs(w)) == repr(public(RealTriAxial(tuple(w))))

    def test_step_underflow_without_blowup_stop(self):
        # Omega = 1/(2 - T) has a pole at T = 2 that nothing stops at
        with pytest.raises(StepUnderflow, match="spacing between numbers"):
            integrate("lagrange", RealTriAxial((1, 1, 1), 1), 10, stop_on_blowup=False)


    @pytest.mark.parametrize(
        "z0, theta, s_end, tol",
        [
            (0.5j, math.pi / 2, 1.0, 1e-11),
            (0.1 + 0.9j, math.pi / 3, 0.8, 1e-10),
            (1.2j, math.pi / 2, -0.4, 1e-9),
        ],
    )
    def test_ray_matches_scipy_rk45(self, z0, theta, s_end, tol):
        from scipy.integrate import solve_ivp

        init = halphen_closed_form(z0)
        s, omega = integrate_ray("dh", init, s_end, theta_angle=theta, tol=tol)
        d = cmath.exp(1j * theta)
        ref = solve_ivp(lambda t, y: d * np.array(dh_rhs(tuple(y))), (0.0, s_end),
                        np.array(init.omega), method="RK45", rtol=tol, atol=tol)
        assert len(s) == len(ref.t)
        assert s[-1] == ref.t[-1]
        end = ref.y[:, -1]
        assert np.max(np.abs(omega[-1] - end)) <= 1e-12 * np.max(np.abs(end))


def _rms_reference(v):
    return math.sqrt(sum([x * x for x in v])) / len(v) ** 0.5


def _dopri5_reference(rhs, t0, y0, t_end, rtol, atol, events=()):
    """The Dormand-Prince stepper for real states of any length, written as
    comprehensions over the components: the reference that the unrolled
    three-component `_dopri5` must match bit for bit."""
    from halphen_lab.halphen import (
        _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
        _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6,
        _E1, _E3, _E4, _E5, _E6, _E7, _MAX_FACTOR, _MIN_FACTOR, _SAFETY,
        _dense_output, _locate_root,
    )

    t, t_end = float(t0), float(t_end)
    direction = 1.0 if t_end > t else -1.0
    y = [float(v) for v in y0]
    f = rhs(y)
    ts, ys, fs = [t], [y], [f]

    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms_reference([v / s for v, s in zip(y, scale)])
    d1 = _rms_reference([v / s for v, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(t_end - t))
    f1 = rhs([v + h0 * direction * d for v, d in zip(y, f)])
    nfev = 2
    d2 = _rms_reference([(b - a) / s for a, b, s in zip(f, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, abs(t_end - t))

    g = [ev(y) for ev in events]
    while True:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepUnderflow("Required step size is less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            k1 = f
            k2 = rhs([a + h * (_A21 * p) for a, p in zip(y, k1)])
            k3 = rhs([a + h * (_A31 * p + _A32 * q) for a, p, q in zip(y, k1, k2)])
            k4 = rhs([
                a + h * (_A41 * p + _A42 * q + _A43 * r)
                for a, p, q, r in zip(y, k1, k2, k3)
            ])
            k5 = rhs([
                a + h * (_A51 * p + _A52 * q + _A53 * r + _A54 * u)
                for a, p, q, r, u in zip(y, k1, k2, k3, k4)
            ])
            k6 = rhs([
                a + h * (_A61 * p + _A62 * q + _A63 * r + _A64 * u + _A65 * v)
                for a, p, q, r, u, v in zip(y, k1, k2, k3, k4, k5)
            ])
            y_new = [
                a + h * (_B1 * p + _B3 * r + _B4 * u + _B5 * v + _B6 * w)
                for a, p, r, u, v, w in zip(y, k1, k3, k4, k5, k6)
            ]
            k7 = rhs(y_new)
            nfev += 6
            err = _rms_reference([
                h * (_E1 * p + _E3 * r + _E4 * u + _E5 * v + _E6 * w + _E7 * x)
                / (atol + max(abs(a), abs(b)) * rtol)
                for a, b, p, r, u, v, w, x in zip(y, y_new, k1, k3, k4, k5, k6, k7)
            ])
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            rejected = True

        if events:
            g_new = [ev(y_new) for ev in events]
            active = [
                i for i, (a, b) in enumerate(zip(g, g_new))
                if a <= 0 <= b or a >= 0 >= b
            ]
            if active:
                dense = _dense_output(t, h, y, (k1, k2, k3, k4, k5, k6, k7))
                key, hit = min(
                    (direction * _locate_root(events[i], dense, t, t_new, g[i]), i)
                    for i in active
                )
                y_hit = dense(direction * key)
                ts.append(direction * key)
                ys.append(y_hit)
                fs.append(rhs(y_hit))
                return ts, ys, fs, nfev, hit
            g = g_new
        t, y, f = t_new, y_new, k7
        ts.append(t)
        ys.append(y)
        fs.append(f)
        if direction * (t - t_end) >= 0:
            return ts, ys, fs, nfev, None


def _stepper_run(dopri5, rhs, t0, y0, t_end, tol, *stops):
    """A run's (ts, ys, fs, nfev, hit), with states and derivatives as tuples;
    `stops` are the stop conditions as `dopri5` takes them."""
    ts, ys, fs, nfev, hit = dopri5(rhs, t0, y0, t_end, tol, tol, *stops)
    return ts, [tuple(y) for y in ys], [tuple(f) for f in fs], nfev, hit


def _stepper_events(roots, tol):
    events = [operator.itemgetter(i) for i in range(3)] if roots else []
    limit = 1.0 / tol
    events.append(lambda y: max(abs(y[0]), abs(y[1]), abs(y[2])) - limit)
    return events


class TestStepperBitIdentity:
    """The unrolled stepper against the comprehension-based reference:
    every sample, derivative, RHS count and stopping event is the same
    float for float."""

    def test_seeded_runs(self):
        # mixed signs, forward and backward, three tolerances
        rng = random.Random(8)
        hits = set()
        for run in range(96):
            system = ("dh", "lagrange")[run % 2]
            rhs = system_rhs(system)
            y0 = [rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 3.0) for _ in range(3)]
            t0 = rng.uniform(-2.0, 2.0)
            t_end = t0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 15.0)
            tol = rng.choice((1e-6, 1e-9, 1e-10))
            roots = run % 3 != 2
            new = _stepper_run(H._dopri5, rhs, t0, y0, t_end, tol, roots, 1.0 / tol)
            ref = _stepper_run(_dopri5_reference, rhs, t0, y0, t_end, tol,
                               _stepper_events(roots, tol))
            assert repr(new) == repr(ref)
            hits.add(new[-1])
        # runs ended on each root event, on blowup and at t_end
        assert hits == {0, 1, 2, 3, None}

    @pytest.mark.parametrize("system", ["dh", "lagrange"])
    @pytest.mark.parametrize(
        "y0, t0, t_end",
        [
            ((1, 2, 3), 1, 4),  # integer-valued data
            ((-1, 2, 3), 0, -3),
            ((1.0, -0.0, 2.0), 1.0, 3.0),  # -0.0 stops at once on its root event
            ((0.5, 0.25, -1.5), 0.0, -6.0),
            ((0.0, 0.0, 0.0), 0.0, 1.0),  # a rest point: zero derivative
        ],
    )
    @pytest.mark.parametrize("roots", [True, False])
    def test_edge_data(self, system, y0, t0, t_end, roots):
        rhs = system_rhs(system)
        new = _stepper_run(H._dopri5, rhs, t0, y0, t_end, 1e-9, roots, 1.0 / 1e-9)
        ref = _stepper_run(_dopri5_reference, rhs, t0, y0, t_end, 1e-9,
                           _stepper_events(roots, 1e-9))
        assert repr(new) == repr(ref)

    def test_step_underflow(self):
        # Omega = 1/(2 - T) has a pole at T = 2 that nothing stops at
        for dopri5 in (H._dopri5, _dopri5_reference):
            with pytest.raises(StepUnderflow, match="spacing between numbers"):
                dopri5(system_rhs("lagrange"), 1, (1, 1, 1), 10, 1e-9, 1e-9)


def _mp_halphen_real(T):
    """Omega(T) at 40 digits from mpmath's theta functions and the E2 Lambert
    series, all summed directly at the nome e^(-pi T)."""
    with mp.workdps(40):
        p = mp.exp(-mp.pi * mp.mpf(T))
        t2, t3, t4 = (mp.jtheta(j, 0, p) ** 4 for j in (2, 3, 4))
        q = p * p
        e2, qm, m = mp.mpf(1), mp.mpf(1), 0
        while True:
            m += 1
            qm *= q
            term = 24 * m * qm / (1 - qm)
            e2 -= term
            if term < mp.mpf(10) ** -45:
                break
        pref = mp.pi / 6
        return [float(pref * (e2 - t2 - t3)), float(pref * (e2 + t3 + t4)),
                float(pref * (e2 + t2 - t4))]


class TestClosedForm:
    def test_dh_residual_random_points(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 3.0))
            assert dh_residual(halphen_closed_form, z) < 1e-12

    def test_real_form_ordering(self):
        for T in (0.3, 1.0, 2.5):
            O = halphen_closed_form_real(T).Omega
            assert O[0] < 0 < O[2] < O[1]

    def test_large_T_asymptotics(self):
        T = 3.0
        O = halphen_closed_form_real(T).Omega
        assert abs(O[1] - math.pi / 2) < 0.1 * (math.pi / 2)
        for i, sign in ((0, -1.0), (2, 1.0)):
            ref = sign * 4 * math.pi * math.exp(-math.pi * T)
            assert abs(O[i] - ref) < 0.1 * abs(ref)

    def test_small_T_asymptotics(self):
        T = 0.05
        O = halphen_closed_form_real(T).Omega
        assert abs(O[0] + math.pi / (2 * T**2)) < 0.05 * (math.pi / (2 * T**2))
        for i in (1, 2):
            assert abs(O[i] - 1 / T) < 0.05 / T

    @pytest.mark.parametrize("T", [0.04, 0.01, 1e-4])
    def test_small_T_below_the_complex_floor(self, T):
        # Im(tau) = T < 0.05 is refused by the complex series; the real form
        # reflects to 1/T and keeps the asymptotics
        O = halphen_closed_form_real(T).Omega
        assert abs(O[0] + math.pi / (2 * T**2) - 1 / T) < 1e-12 * math.pi / (2 * T**2)
        for i in (1, 2):
            assert abs(O[i] - 1 / T) < 1e-12 / T
        with pytest.raises(DomainError, match="fold into the fundamental domain"):
            halphen_closed_form(1j * T)

    @pytest.mark.parametrize("T", [0.05, 0.3, 0.9, 1.0, 1.1, 3.3, 10.0, 19.0])
    def test_real_form_matches_direct_series(self, T):
        direct = [(1j * w).real for w in halphen_closed_form(1j * T).omega]
        O = halphen_closed_form_real(T).Omega
        assert max(abs(a - b) for a, b in zip(O, direct)) < 1e-12 * max(map(abs, direct))

    @pytest.mark.parametrize("T", [0.01, 0.04, 0.05, 0.3, 0.9, 1.0, 1.1, 3.3, 10.0, 100.0])
    def test_real_form_matches_mpmath(self, T):
        ref = _mp_halphen_real(T)
        O = halphen_closed_form_real(T).Omega
        assert max(abs(a - b) for a, b in zip(O, ref)) <= 2e-15 * max(map(abs, ref))

    def test_rejects_nonpositive_T(self):
        with pytest.raises(DomainError):
            halphen_closed_form_real(-1.0)

    def test_triplet_constraint(self):
        tri = halphen_triplet(1.3j)
        assert abs(tri.E1 - tri.E2 + tri.E3) < 1e-10
        with pytest.raises(DomainError):
            ModularTriplet(1.0, 2.0, 3.0)

    def test_lambda_triplet_meets_the_constraint_to_rounding(self):
        # (l'/l, l'/(l-1), l'/(l(l-1))) has E1 - E2 + E3 = 0 by algebra, so
        # dh_from_lambda needs no tolerance of its own
        rng = np.random.default_rng(7)
        for _ in range(2000):
            lam, d1 = complex(*rng.uniform(-3, 3, 2)), complex(*rng.uniform(-1e3, 1e3, 2))
            if min(abs(lam), abs(lam - 1)) > 1e-3:
                tri = ModularTriplet(d1 / lam, d1 / (lam - 1), d1 / (lam * (lam - 1)))
                scale = max(1.0, abs(tri.E1), abs(tri.E2), abs(tri.E3))
                assert abs(tri.E1 - tri.E2 + tri.E3) <= 1e-15 * scale

    def test_integrate_ray_matches_closed_form(self):
        # march up the imaginary axis from 0.5i and compare with the formula
        init = halphen_closed_form(0.5j)
        s_vals, omegas = integrate_ray(
            "dh", init, 1.0, theta_angle=math.pi / 2, tol=1e-11
        )
        z_end = 0.5j + s_vals[-1] * 1j
        ref = halphen_closed_form(z_end)
        assert max(abs(omegas[-1][i] - ref.omega[i]) for i in range(3)) < 1e-7


class TestReflection:
    @pytest.mark.parametrize("T", [1.0, 2.0, 0.5, 5.0])
    def test_residual(self, T):
        assert max(reflection_check(T)) < 1e-8

    def test_checks_the_direct_series(self, monkeypatch):
        # a complex closed form that breaks the reflection must show up, so
        # the check may not route through the reflected real form
        exact = H.halphen_closed_form

        def skewed(z):
            w = exact(z)
            return TriAxial((w.omega[0] * (1 + 1e-6), *w.omega[1:]), w.z)

        monkeypatch.setattr(H, "halphen_closed_form", skewed)
        assert max(reflection_check(0.5)) > 1e-7


class TestSL2:
    def test_identity(self):
        sol = sl2_generate(halphen_closed_form, Moebius(1, 0, 0, 1))
        z = 0.9j
        base = halphen_closed_form(z)
        assert max(abs(sol(z).omega[i] - base.omega[i]) for i in range(3)) < 1e-12

    def test_translation_permutes_triplet(self):
        # z -> z+1 permutes the weight-2 triplet (up to signs); the generated
        # solution is just the closed form evaluated at z+1
        sol = sl2_generate(halphen_closed_form, Moebius(1, 1, 0, 1))
        z = 1.1j
        got = sol(z).omega
        ref = halphen_closed_form(z + 1).omega
        assert max(abs(got[i] - ref[i]) for i in range(3)) < 1e-12

    def test_random_matrices_give_dh_solutions(self):
        rng = np.random.default_rng(41)
        count = 0
        while count < 10:
            a, b, c, d = rng.uniform(-2, 2, 4)
            if a * d - b * c < 0.1:  # orientation-preserving maps only
                continue
            M = Moebius(a, b, c, d)
            z = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.5))
            w = (M.a * z + M.b) / (M.c * z + M.d)
            if abs(M.c * z + M.d) < 0.3 or w.imag < 0.4:
                continue
            sol = sl2_generate(halphen_closed_form, M)
            assert dh_residual(sol, z) < 1e-12
            count += 1

    def test_real_matrix_on_real_solution(self):
        # the real-form map sends real DH solutions to real DH solutions
        iso = lambda T: RealTriAxial((1 / T, 1 / T, 1 / T), T)
        gen = sl2_generate_real(iso, 2.0, 1.0, 1.0, 3.0)
        T, h = 1.7, 1e-5
        rhs = dh_rhs(TriAxial(gen(T).Omega, complex(T)))
        for i in range(3):
            fd = (gen(T + h).Omega[i] - gen(T - h).Omega[i]) / (2 * h)
            assert abs(rhs[i] - fd) < 1e-8
        with pytest.raises(DomainError):
            sl2_generate_real(iso, 1.0, 0.0, 0.0, -1.0)


class TestTransportOracle:
    """The SL(2,R) transport of the real closed form is an exact
    Darboux-Halphen trajectory, so it checks `integrate` at every sample.

    The runs stop short of the singular ends of the moved argument
    Mt = (At+B)/(Ct+D), Mt -> 0 and Ct + D -> 0, near which the error
    relative to max(1, |Omega|) grows with |Omega|.  None lowers Mt from a
    value of a few or more towards 1: there the components differ by about
    e^(-pi Mt) relative, rounding the initial data perturbs that difference,
    and a falling Mt amplifies the perturbation.  Neither error comes from
    the integrator."""

    # Mt crosses 1, where the closed form switches to its reflection, on the
    # forward run of (1, -0.5, 0.3, 0.9) and the backward run of (2, 1, 1, 3)
    CASES = [  # (A, B, C, D), t0, t1, how the run ends
        ((2.0, 1.0, 1.0, 3.0), 1.0, 3.0, "root_crossing"),
        ((2.0, 1.0, 1.0, 3.0), 3.0, 0.5, "root_crossing"),
        ((1.0, 0.0, 0.5, 1.0), 1.0, 3.0, "root_crossing"),
        ((1.0, 0.0, 0.5, 1.0), 3.0, 0.5, "root_crossing"),
        ((1.0, -0.5, 0.3, 0.9), 1.0, 3.0, "root_crossing"),
        ((1.0, -0.5, 0.3, 0.9), 3.0, 0.5, "root_crossing"),
        ((3.0, 1.0, -0.2, 0.3), 1.0, 1.45, "completed"),
        ((3.0, 1.0, -0.2, 0.3), 1.45, 0.5, "completed"),
    ]

    @pytest.mark.parametrize("tol", [1e-9, 1e-11])
    @pytest.mark.parametrize("M, t0, t1, reason", CASES)
    def test_integrator_follows_the_transport(self, M, t0, t1, reason, tol):
        exact = sl2_generate_real(halphen_closed_form_real, *M)
        traj = integrate("dh", exact(t0), t1, tol=tol)
        assert traj.reason == reason
        for T, Om in zip(traj.T.tolist(), traj.Omega.tolist()):
            ref = exact(T).Omega
            err = max(abs(a - b) for a, b in zip(Om, ref)) / max(1.0, *map(abs, ref))
            assert err <= 4 * tol, (T, err / tol)


class TestSchwarz:
    def test_lambda_residual(self):
        assert schwarz_residual(schwarz_lambda, 1.2j) < 1e-12

    def test_triplet_from_lambda(self):
        z = 1.2j
        tri = dh_from_lambda(schwarz_lambda, z)
        ref = halphen_triplet(z)
        for got, want in ((tri.E1, ref.E1), (tri.E2, ref.E2), (tri.E3, ref.E3)):
            assert abs(got - want) < 1e-13

    def test_lambda_decays(self):
        assert abs(schwarz_lambda(6j)) < 1e-6


_Y_FN = lambda z: 1j * math.pi * eisenstein_holo(2, z)  # noqa: E731


def _unsampled(t):
    raise AssertionError(f"sampled at {t}")


@pytest.mark.parametrize(
    "check",
    [dh_residual, chazy_residual, schwarz_residual, dh_from_lambda, w_lambda_system_residual],
)
@pytest.mark.parametrize(
    "z", [1 - 1j, 2, 0j, complex(math.nan, 1), complex(0, math.inf), complex(math.inf, 1)]
)
def test_residual_checks_need_finite_z_in_the_upper_half_plane(check, z):
    # the checks sample on a circle of radius Im(z)/3, so below the real
    # axis they would return a number for a callable such as 1/z
    with pytest.raises(DomainError, match=r"Im\(tau\) > 0"):
        check(_unsampled, z)


def test_dh_residual_near_the_real_axis():
    # omega_i = 1/z solves DH; at Im z = 1e-6 the circle has radius 3.3e-7,
    # so adding it to z = 1 costs about eps/r = 7e-10 relative
    iso = lambda z: TriAxial((1 / z,) * 3, z)  # noqa: E731
    assert dh_residual(iso, 1 + 1e-6j) < 1e-9


class TestChazy:
    def test_y_is_pi_e2(self):
        z = 1.5j
        cd = chazy_from_dh(halphen_closed_form(z))
        assert abs(cd.y - 1j * math.pi * eisenstein_holo(2, z)) < 1e-8

    def test_chazy_residual(self):
        assert chazy_residual(_Y_FN, 1.5j) < 1e-12

    def test_cubic_reconstruction(self):
        st = halphen_closed_form(1.3j)
        cd = chazy_from_dh(st)
        rec = omegas_from_chazy(cd, reference=st.omega)
        assert max(abs(rec[i] - st.omega[i]) for i in range(3)) < 1e-8

    def test_cubic_reconstruction_generic(self):
        om = (0.3 + 0.2j, -0.8 + 0.5j, 1.1 - 0.4j)
        cd = chazy_from_dh(TriAxial(om, 0j))
        rec = omegas_from_chazy(cd, reference=om)
        assert max(abs(rec[i] - om[i]) for i in range(3)) < 1e-10
