"""Lagrange and Darboux--Halphen triples.

The two quadratic systems

    Lagrange:        w1' = w2 w3                    (cyclic)
    Darboux-Halphen: w1' = w2 w3 - w1 (w2 + w3)     (cyclic)

are integrated adaptively with event detection (root crossings, blowup),
and the anisotropic Darboux--Halphen system is solved in closed form by
the Halphen theta-quartic triplet.  The module also carries the SL(2,C)
solution-generating map and the Schwarz / Chazy correspondences.

Real solutions of the real time T are related to complex ones by
Omega(T) = i omega(iT); both satisfy the same quadratic right-hand
sides, so a single RHS serves both.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from . import numdiff
from .errors import DomainError, NotConverged, PoleHit, StepUnderflow, dump_json
from .modforms import Moebius, _as_point, _fourth_powers, _series, thetas_e2, weight2_transport

__all__ = [
    "TriAxial",
    "RealTriAxial",
    "Trajectory",
    "ModularTriplet",
    "ChazyData",
    "dh_rhs",
    "lagrange_rhs",
    "system_rhs",
    "system_second_derivative",
    "integrate",
    "integrate_ray",
    "halphen_closed_form",
    "halphen_closed_form_real",
    "halphen_triplet",
    "taub_nut_family",
    "sl2_generate",
    "sl2_generate_real",
    "schwarz_lambda",
    "schwarz_residual",
    "dh_from_lambda",
    "chazy_from_dh",
    "chazy_residual",
    "omegas_from_chazy",
    "reflection_check",
    "dh_residual",
]


def _finite_triple(name: str, values, kind) -> tuple:
    """`values` as a tuple of three finite `kind` (complex or float) numbers:
    the one check of a triple, DomainError naming `name` otherwise."""
    if len(values) != 3:
        raise DomainError(f"{name} needs exactly 3 components")
    values = tuple(map(kind, values))
    if not all(map(cmath.isfinite, values)):
        raise DomainError(f"{name} components must be finite")
    return values


@dataclass(frozen=True)
class TriAxial:
    """An ordered triple of complex Darboux-Halphen/Lagrange variables."""

    omega: tuple
    z: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "omega", _finite_triple("TriAxial", self.omega, complex))


@dataclass(frozen=True)
class RealTriAxial:
    """Real triple Omega(T) on the imaginary axis, Omega(T) = i*omega(iT)."""

    Omega: tuple
    T: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "Omega", _finite_triple("RealTriAxial", self.Omega, float))


@dataclass(frozen=True)
class ModularTriplet:
    """Weight-2 Gamma(2) forms (E1, E2, E3) with E1 - E2 + E3 = 0."""

    E1: complex
    E2: complex
    E3: complex

    def __post_init__(self):
        scale = max(1.0, abs(self.E1), abs(self.E2), abs(self.E3))
        if abs(self.E1 - self.E2 + self.E3) > 1e-10 * scale:
            raise DomainError("triplet violates E1 - E2 + E3 = 0")


@dataclass(frozen=True)
class ChazyData:
    y: complex
    y_prime: complex
    y_double_prime: complex


_CYC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))  # (i, j, k) in cyclic order


def _omega_dot(w, D=None):
    """Omega_i' = Omega_j Omega_k - Omega_i (Delta_j + Delta_k) (cyclic) at the
    plain triples Omega = w, Delta = D: the one law of conformal system II
    and, with Delta = Omega (D omitted), of Darboux-Halphen."""
    w1, w2, w3 = w
    D1, D2, D3 = w if D is None else D
    return (
        w2 * w3 - w1 * (D2 + D3),
        w3 * w1 - w2 * (D3 + D1),
        w1 * w2 - w3 * (D1 + D2),
    )


def _lagrange(w):
    """Lagrange right-hand side of a plain triple (cyclic)."""
    w1, w2, w3 = w
    return (w2 * w3, w3 * w1, w1 * w2)


def dh_rhs(state):
    """Darboux-Halphen right-hand side (cyclic) of a state or triple."""
    return _omega_dot(_components(state))


def lagrange_rhs(state):
    """Lagrange right-hand side (cyclic) of a state or triple."""
    return _lagrange(_components(state))


# name -> (right-hand side of a state or triple, the same of a plain triple)
_SYSTEMS = {"dh": (dh_rhs, _omega_dot), "lagrange": (lagrange_rhs, _lagrange)}
_ZERO = (0.0, 0.0, 0.0)


def _system(system: str):
    try:
        return _SYSTEMS[system.lower()]
    except KeyError:
        raise DomainError(f"unknown system {system!r}; use 'dh' or 'lagrange'")


def system_rhs(system: str):
    return _system(system)[0]


def system_second_derivative(system: str, omega, omega_dot=None):
    """Second derivatives along a solution, by differentiating the RHS:
    Delta = Omega for Darboux-Halphen, Delta = 0 for Lagrange."""
    w = _components(omega)
    return _flow_derivatives(system, w, None if omega_dot is None else _components(omega_dot))[1]


def _flow_derivatives(system: str, w, d=None):
    """(Omega', Omega'') along `system` at the plain triple Omega = w, with
    Omega' = d when given, else from the RHS."""
    rhs = _system(system)[1]
    if d is None:
        d = rhs(w)
    if rhs is _omega_dot:
        return d, _omega_ddot(w, d, w, d)
    return d, _omega_ddot(w, d, _ZERO, _ZERO)


def _omega_ddot(w, d, D, Dd):
    """Omega'' from Omega = w, Omega' = d, Delta = D and Delta' = Dd along
    Omega_i' = Omega_j Omega_k - Omega_i (Delta_j + Delta_k), by the product rule."""
    w1, w2, w3 = w
    d1, d2, d3 = d
    D1, D2, D3 = D
    E1, E2, E3 = Dd
    return (
        d2 * w3 + w2 * d3 - d1 * (D2 + D3) - w1 * (E2 + E3),
        d3 * w1 + w3 * d1 - d2 * (D3 + D1) - w2 * (E3 + E1),
        d1 * w2 + w1 * d2 - d3 * (D1 + D2) - w3 * (E1 + E2),
    )


def _components(state):
    if isinstance(state, TriAxial):
        return state.omega
    if isinstance(state, RealTriAxial):
        return state.Omega
    w1, w2, w3 = state
    return w1, w2, w3


# ---------------------------------------------------------------------------
# integration

# Dormand-Prince 5(4) pair (Dormand & Prince 1980) with the step control and
# initial-step rule of Hairer-Norsett-Wanner, Solving ODEs I, II.4-5, and
# Shampine's quartic dense output: the method and constants of scipy's RK45.
# Stage k_s is rhs(y + h sum_j A_sj k_j); k7 = rhs(y_new) is reused as the
# next step's k1 (FSAL).
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# error estimate: difference of the embedded 4th-order and the 5th-order result
_E1, _E3, _E4, _E5, _E6, _E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40,
)
# dense output y(t + x h) = y + h sum_m Q_m x^(m+1) with Q_m = sum_s P_sm k_s
_P = (
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0, 0, 0, 0),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
MAX_STEPS = 100_000  # accepted steps per run; a few hundred is typical
_EPS = sys.float_info.epsilon
_SQRT3 = 3 ** 0.5


def _rms(a, b, c) -> float:
    """RMS norm of a real or complex triple, sqrt(|a|^2 + |b|^2 + |c|^2) / sqrt(3)."""
    a, b, c = abs(a), abs(b), abs(c)
    return math.sqrt(a * a + b * b + c * c) / _SQRT3


def _dopri5(rhs, t0, y0, t_end, rtol, atol, roots=False, limit=None):
    """Integrate the autonomous system y' = rhs(y) from t0 towards t_end.

    The state is a triple: `y0` holds three real or complex numbers (a
    complex entry stays complex, any other becomes a float), and `rhs` maps
    a triple to a triple.  The error of a step is the RMS over the three
    components of |error_i| / (atol + max(|y_i|, |y_new_i|) rtol).

    Two stop tests on a real state run inline on each accepted step:
    with `roots`, a sign change of each component y_i (y_i <= 0 <= y_new_i
    or the reverse); with a float `limit`, a sign change of
    max|y_i| - limit.  Only when one fires are the event functions g(y)
    built (the three components in order when `roots`, then the limit
    test) and the run ended at the root of g on the step's dense output,
    found by bisection to 4 EPS: the earliest root in the direction of
    integration wins, then the lowest event index.

    Returns (ts, ys, fs, nfev, hit): the accepted sample times, states and
    derivatives, the number of rhs calls made by the stepper, and the index
    of the event that ended the run in that list (None if it reached
    t_end).  Raises StepUnderflow when the step falls below ten float
    spacings of t (or the first step is 0, because the scaled right-hand
    side overflows), and NotConverged after MAX_STEPS accepted steps.
    """
    t, t_end = float(t0), float(t_end)
    direction = 1.0 if t_end > t else -1.0
    y1, y2, y3 = (complex(v) if isinstance(v, complex) else float(v) for v in y0)
    y = (y1, y2, y3)
    f = rhs(y)
    ts, ys, fs = [t], [y], [f]
    # stage s of a step is (ks1, ks2, ks3); k1 is the last step's k7 (FSAL)
    k11, k12, k13 = f

    # initial step (Hairer-Norsett-Wanner II.4)
    s1, s2, s3 = atol + abs(y1) * rtol, atol + abs(y2) * rtol, atol + abs(y3) * rtol
    d0 = _rms(y1 / s1, y2 / s2, y3 / s3)
    d1 = _rms(k11 / s1, k12 / s2, k13 / s3)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(t_end - t))
    if not h0 > 0:
        raise StepUnderflow(f"first step is 0: the scaled right-hand side at t = {t} overflows")
    h = h0 * direction
    u1, u2, u3 = rhs((y1 + h * k11, y2 + h * k12, y3 + h * k13))
    nfev = 2
    d2 = _rms((u1 - k11) / s1, (u2 - k12) / s2, (u3 - k13) / s3) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, abs(t_end - t))

    if limit is not None:
        g_limit = max(abs(y1), abs(y2), abs(y3)) - limit
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
            k21, k22, k23 = rhs((
                y1 + h * (_A21 * k11),
                y2 + h * (_A21 * k12),
                y3 + h * (_A21 * k13),
            ))
            k31, k32, k33 = rhs((
                y1 + h * (_A31 * k11 + _A32 * k21),
                y2 + h * (_A31 * k12 + _A32 * k22),
                y3 + h * (_A31 * k13 + _A32 * k23),
            ))
            k41, k42, k43 = rhs((
                y1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31),
                y2 + h * (_A41 * k12 + _A42 * k22 + _A43 * k32),
                y3 + h * (_A41 * k13 + _A42 * k23 + _A43 * k33),
            ))
            k51, k52, k53 = rhs((
                y1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41),
                y2 + h * (_A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42),
                y3 + h * (_A51 * k13 + _A52 * k23 + _A53 * k33 + _A54 * k43),
            ))
            k61, k62, k63 = rhs((
                y1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51),
                y2 + h * (_A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42 + _A65 * k52),
                y3 + h * (_A61 * k13 + _A62 * k23 + _A63 * k33 + _A64 * k43 + _A65 * k53),
            ))
            n1 = y1 + h * (_B1 * k11 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61)
            n2 = y2 + h * (_B1 * k12 + _B3 * k32 + _B4 * k42 + _B5 * k52 + _B6 * k62)
            n3 = y3 + h * (_B1 * k13 + _B3 * k33 + _B4 * k43 + _B5 * k53 + _B6 * k63)
            y_new = (n1, n2, n3)
            k7 = rhs(y_new)
            k71, k72, k73 = k7
            nfev += 6
            err = _rms(
                h * (_E1 * k11 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61 + _E7 * k71)
                / (atol + max(abs(y1), abs(n1)) * rtol),
                h * (_E1 * k12 + _E3 * k32 + _E4 * k42 + _E5 * k52 + _E6 * k62 + _E7 * k72)
                / (atol + max(abs(y2), abs(n2)) * rtol),
                h * (_E1 * k13 + _E3 * k33 + _E4 * k43 + _E5 * k53 + _E6 * k63 + _E7 * k73)
                / (atol + max(abs(y3), abs(n3)) * rtol),
            )
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            rejected = True

        fired = roots and (
            y1 <= 0 <= n1 or y1 >= 0 >= n1
            or y2 <= 0 <= n2 or y2 >= 0 >= n2
            or y3 <= 0 <= n3 or y3 >= 0 >= n3
        )
        if limit is not None:
            g_new = max(abs(n1), abs(n2), abs(n3)) - limit
            fired = fired or g_limit <= 0 <= g_new or g_limit >= 0 >= g_new
            g_limit = g_new
        if fired:
            events = [operator.itemgetter(i) for i in range(3)] if roots else []
            if limit is not None:
                events.append(lambda y: max(abs(y[0]), abs(y[1]), abs(y[2])) - limit)
            g = [ev(y) for ev in events]
            g_new = [ev(y_new) for ev in events]
            active = [
                i for i, (a, b) in enumerate(zip(g, g_new))
                if a <= 0 <= b or a >= 0 >= b
            ]
            ks = (
                (k11, k12, k13), (k21, k22, k23), (k31, k32, k33), (k41, k42, k43),
                (k51, k52, k53), (k61, k62, k63), k7,
            )
            dense = _dense_output(t, h, y, ks)
            # earliest root in the direction of integration, then lowest index
            key, hit = min(
                (direction * _locate_root(events[i], dense, t, t_new, g[i]), i)
                for i in active
            )
            y_hit = dense(direction * key)
            ts.append(direction * key)
            ys.append(y_hit)
            fs.append(rhs(y_hit))
            return ts, ys, fs, nfev, hit
        t, y = t_new, y_new
        y1, y2, y3 = y_new
        k11, k12, k13 = k7
        ts.append(t)
        ys.append(y_new)
        fs.append(k7)
        if direction * (t - t_end) >= 0:
            return ts, ys, fs, nfev, None
        if len(ts) > MAX_STEPS:
            raise NotConverged(f"step budget of {MAX_STEPS} spent at t = {t}, short of {t_end}")


def _dense_output(t_old, h, y_old, ks):
    """The step's quartic interpolant t -> y(t) from its seven stages."""
    Q = [
        [sum([row[m] * k for row, k in zip(_P, kcol)]) for m in range(4)]
        for kcol in zip(*ks)
    ]

    def y_at(t):
        x = (t - t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return [
            a + h * (q0 * x + q1 * x2 + q2 * x3 + q3 * x4)
            for a, (q0, q1, q2, q3) in zip(y_old, Q)
        ]

    return y_at


def _locate_root(event, dense, a, b, g_a):
    """Root of event(dense(t)) between a and b, given g_a = event(dense(a)),
    by bisection to 4 EPS (absolute plus relative)."""
    if g_a == 0:
        return a
    while abs(b - a) > 4 * _EPS * (1 + abs(b)):
        m = 0.5 * (a + b)
        g_m = event(dense(m))
        if g_m == 0:
            return m
        if (g_m > 0) == (g_a > 0):
            a = m
        else:
            b = m
    return 0.5 * (a + b)


@dataclass
class Trajectory:
    """Samples of an integrated run plus integrator metadata."""

    system: str
    T: np.ndarray
    Omega: np.ndarray  # shape (n, 3)
    Omega_dot: np.ndarray  # shape (n, 3)
    tol: float
    reason: str  # 'completed' | 'root_crossing' | 'blowup'
    root_component: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        dT = np.diff(self.T)
        if not (np.all(dT > 0) or np.all(dT < 0)):
            raise DomainError("trajectory time must be strictly monotone")

    def to_csv(self) -> str:
        # a float's repr never needs CSV quoting
        rows = np.column_stack((self.T, self.Omega, self.Omega_dot)).tolist()
        return "T,Omega1,Omega2,Omega3,Omega1_dot,Omega2_dot,Omega3_dot\n" + "".join(
            [",".join(map(repr, row)) + "\n" for row in rows]
        )

    def to_json(self) -> str:
        return dump_json(vars(self))

    @classmethod
    def from_samples(cls, system, T, Omega, tol=0.0, meta=None):
        """Build a trajectory from closed-form samples; Omega_dot from the
        system RHS."""
        T = np.asarray(T, dtype=float)
        Omega = np.asarray(Omega, dtype=float)
        rhs = _system(system)[1]
        Omega_dot = np.array([rhs(row) for row in Omega.tolist()], dtype=float)
        return cls(system=system, T=T, Omega=Omega, Omega_dot=Omega_dot,
                   tol=tol, reason="completed", meta=meta or {})


def integrate(
    system: str,
    init: RealTriAxial,
    T_end: float,
    tol: float = 1e-9,
    stop_on_root: bool = True,
    stop_on_blowup: bool = True,
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) integration with terminal events.

    Root crossings of any component and |Omega| blowup past 1/tol are
    located on the integrator's dense output and terminate the run when
    the corresponding flag is set.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    if not (math.isfinite(init.T) and math.isfinite(T_end)):
        raise DomainError(f"initial time {init.T} and T_end {T_end} must be finite")
    if T_end == init.T:
        raise DomainError("T_end must differ from the initial time")
    if stop_on_root and 0.0 in init.Omega:
        i = init.Omega.index(0.0)
        raise DomainError(
            f"root at start: initial Omega{i + 1} = 0, so the run would stop at T = {init.T}"
        )
    rhs = _system(system)[1]
    limit = 1.0 / tol if stop_on_blowup else None
    T, Omega, Omega_dot, nfev, hit = _dopri5(
        rhs, init.T, init.Omega, T_end, tol, tol, stop_on_root, limit
    )
    reason = "completed"
    root_component = None
    if hit is not None:
        if stop_on_root and hit < 3:
            reason = "root_crossing"
            root_component = hit
        else:
            reason = "blowup"
    return Trajectory(
        system=system.lower(),
        T=np.array(T),
        Omega=np.array(Omega),
        Omega_dot=np.array(Omega_dot),
        tol=tol,
        reason=reason,
        root_component=root_component,
        meta={"nfev": nfev, "status": 0 if hit is None else 1},
    )


def integrate_ray(
    system: str,
    init: TriAxial,
    s_end: float,
    theta_angle: float = math.pi / 2,
    tol: float = 1e-9,
):
    """Integrate the complex system along the ray z(s) = z0 + s e^{i theta}.

    Returns (s values, complex omega samples of shape (n, 3)).
    """
    if s_end == 0:
        raise DomainError("s_end must differ from 0")
    rhs = _system(system)[1]
    direction = cmath.exp(1j * theta_angle)

    def f(w):
        d1, d2, d3 = rhs(w)
        return (direction * d1, direction * d2, direction * d3)

    s, omega, _, _, _ = _dopri5(f, 0.0, init.omega, s_end, tol, tol)
    return np.array(s), np.array(omega)


# ---------------------------------------------------------------------------
# closed forms


def _halphen(pref, e2, th2, th3, th4):
    """The Halphen combination pref (E2 - theta2^4 - theta3^4, E2 + theta3^4 +
    theta4^4, E2 + theta2^4 - theta4^4) of E2 and the thetas at v = 0."""
    t2, t3, t4 = _fourth_powers(th2, th3, th4)
    return pref * (e2 - t2 - t3), pref * (e2 + t3 + t4), pref * (e2 + t2 - t4)


def halphen_closed_form(z) -> TriAxial:
    """The Halphen solution of the Darboux-Halphen system,

    omega1 = (pi/6i)(E2 - theta2^4 - theta3^4)   (and partners),
    thetas at v = 0.
    """
    z = complex(z)
    return TriAxial(_halphen(cmath.pi / 6j, *_series(z)), z)


def halphen_closed_form_real(T: float) -> RealTriAxial:
    """Real Halphen solution Omega(T) = i omega(iT), for every T > 0.

    The series run at S = max(T, 1/T) >= 1 on the float nome p = e^(-pi S),
    where |q| = p^2 <= e^(-2 pi) ~ 1.9e-3, in real arithmetic:
    Omega(S) = (pi/6)(E2 - theta2^4 - theta3^4, E2 + theta3^4 + theta4^4,
    E2 + theta2^4 - theta4^4).  For T < 1 the quasimodular reflection
    Omega^{1,2,3}(T) = -(1/T^2) Omega^{2,1,3}(1/T) + 1/T carries the value
    back, so small T neither meets the Im(tau) >= 0.05 floor of the complex
    series nor loses digits to a slowly converging E2.  As T -> 0,
    Omega1 ~ -pi/(2 T^2) and Omega2, Omega3 ~ 1/T.
    """
    if not T > 0:
        raise DomainError(f"real Halphen solution needs T > 0, got T = {T}")
    S = T if T >= 1 else 1.0 / T
    th = thetas_e2(math.exp(-math.pi * S), math.exp(-0.25 * math.pi * S))
    w1, w2, w3 = _halphen(math.pi / 6, *th)
    if T < 1:
        w1, w2, w3 = S - S * S * w2, S - S * S * w1, S - S * S * w3
    return RealTriAxial((w1, w2, w3), T)


def halphen_triplet(z) -> ModularTriplet:
    """The weight-2 Gamma(2) triplet behind the Halphen solution:
    (i pi theta4^4, -i pi theta2^4, -i pi theta3^4)."""
    t2, t3, t4 = _fourth_powers(*_series(complex(z))[1:])
    return ModularTriplet(1j * cmath.pi * t4, -1j * cmath.pi * t2, -1j * cmath.pi * t3)


def taub_nut_family(T: float, T0: float, T_star: float) -> RealTriAxial:
    """Biaxial Darboux-Halphen solution Omega^{1,2} = 1/(T-T0),
    Omega^3 = (T-T_star)/(T-T0)^2."""
    if T == T0:
        raise PoleHit("T = T0 is the pole of the biaxial solution")
    a = 1.0 / (T - T0)
    return RealTriAxial((a, a, (T - T_star) * a * a), T)


# ---------------------------------------------------------------------------
# SL(2, C) action


def sl2_generate(sol, M: Moebius):
    """Map a solution z -> TriAxial through
    w~(z) = (cz+d)^-2 w((az+b)/(cz+d)) + c/(cz+d) (`weight2_transport`)."""
    w = weight2_transport(lambda z: _components(sol(z)), M)
    return lambda z: TriAxial(w(z), complex(z))


def sl2_generate_real(sol, A: float, B: float, C: float, D: float):
    """Real form of the solution map for SL(2, R) matrices acting on
    Omega(T): the matrix is renormalized to det = 1, so it must have
    det > 0."""
    if A * D - B * C <= 0:
        raise DomainError("real matrix must have positive determinant")
    w = weight2_transport(lambda T: _components(sol(T)), Moebius(A, B, C, D))
    return lambda T: RealTriAxial(w(T), T)


def _circle(z):
    """z, checked by `ModularPoint`, and the radius Im(z)/3 of the circle on
    which the residual checks sample."""
    z = _as_point(z).tau
    return z, z.imag / 3


def dh_residual(sol, z) -> float:
    """Max-norm residual of the Darboux-Halphen equations for a callable
    z -> TriAxial, holomorphic on |t - z| < Im(z); the derivatives of all
    three components come from one `numdiff.deriv1` call."""
    z, r = _circle(z)
    deriv = numdiff.deriv1(lambda t: np.array(_components(sol(t))), z, r)
    return max(abs(deriv - dh_rhs(sol(z))))


# ---------------------------------------------------------------------------
# Schwarz and Chazy correspondences


def schwarz_lambda(z) -> complex:
    """lambda_H(z) = theta2(0|z)^4 / theta3(0|z)^4."""
    t2, t3, _ = _fourth_powers(*_series(complex(z))[1:])
    return t2 / t3


def schwarz_residual(lambda_fn, z) -> float:
    """|Schwarz expression| for a candidate lambda(z), holomorphic on
    |t - z| < Im(z), with derivatives by `numdiff`:

    lambda'''/lambda' - (3/2)(lambda''/lambda')^2
      + (1/2)(1/l^2 + 1/(l-1)^2 - 1/(l(l-1))) lambda'^2
    """
    z, r = _circle(z)
    lam = lambda_fn(z)
    d1, d2, d3 = (d(lambda_fn, z, r) for d in (numdiff.deriv1, numdiff.deriv2, numdiff.deriv3))
    expr = d3 / d1 - 1.5 * (d2 / d1) ** 2 + 0.5 * (
        1 / lam**2 + 1 / (lam - 1) ** 2 - 1 / (lam * (lam - 1))
    ) * d1**2
    return abs(expr)


def dh_from_lambda(lambda_fn, z) -> ModularTriplet:
    """Triplet (lambda'/lambda, lambda'/(lambda-1), lambda'/(lambda(lambda-1)))
    for lambda holomorphic on |t - z| < Im(z), lambda' by `numdiff`."""
    z, r = _circle(z)
    lam = lambda_fn(z)
    d1 = numdiff.deriv1(lambda_fn, z, r)
    return ModularTriplet(d1 / lam, d1 / (lam - 1), d1 / (lam * (lam - 1)))


def chazy_from_dh(state) -> ChazyData:
    """Symmetric functions of a Darboux-Halphen triple:
    y = -2 sum(w), y' = 2 sum(w_i w_j), y'' = -12 w1 w2 w3."""
    w1, w2, w3 = _components(state)
    return ChazyData(
        y=-2 * (w1 + w2 + w3),
        y_prime=2 * (w1 * w2 + w2 * w3 + w3 * w1),
        y_double_prime=-12 * w1 * w2 * w3,
    )


def chazy_residual(y_fn, z) -> float:
    """|y''' - 2 y y'' + 3 (y')^2| for y holomorphic on |t - z| < Im(z),
    derivatives by `numdiff`."""
    z, r = _circle(z)
    y = y_fn(z)
    d1, d2, d3 = (d(y_fn, z, r) for d in (numdiff.deriv1, numdiff.deriv2, numdiff.deriv3))
    return abs(d3 - 2 * y * d2 + 3 * d1 * d1)


def omegas_from_chazy(cd: ChazyData, reference=None):
    """Recover {omega_i} as roots of
    w^3 + y/2 w^2 + y'/2 w + y''/12 = 0.

    If `reference` is given, roots are matched to it by the permutation
    of least total distance, so the returned order is meaningful.
    """
    roots = np.roots([1.0, cd.y / 2, cd.y_prime / 2, cd.y_double_prime / 12])
    if reference is None:
        return tuple(roots)
    ref = _components(reference)
    perm = min(
        itertools.permutations(range(3)),
        key=lambda p: sum(abs(roots[j] - w) for j, w in zip(p, ref)),
    )
    return tuple(roots[j] for j in perm)


def reflection_check(T: float):
    """Residual triple of the quasimodular reflection identity
    Omega^{1,2,3}(T) = -(1/T^2) Omega^{2,1,3}(1/T) + 1/T
    on the real Halphen solution, both sides summed directly at tau = iT and
    tau = i/T (so Im(tau) >= 0.05 bounds T to [0.05, 20])."""
    if not (T > 0 and 1.0 / T > 0):
        raise DomainError("T and 1/T must both be positive")
    # both sides by the direct series Omega(T) = i omega(iT): the real closed
    # form applies this very reflection below T = 1, so it cannot check it
    direct, mirror = (
        [(1j * w).real for w in halphen_closed_form(1j * t).omega] for t in (T, 1.0 / T)
    )
    perm = (1, 0, 2)
    return tuple(
        abs(direct[i] + mirror[perm[i]] / T**2 - 1.0 / T) for i in range(3)
    )
