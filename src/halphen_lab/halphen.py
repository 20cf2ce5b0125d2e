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
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import numdiff
from .errors import DomainError, OutOfRange, PoleHit, StepTooLarge, StepUnderflow
from .modforms import (
    DEFAULT_TRUNC,
    Moebius,
    QTruncation,
    eisenstein_holo,
    theta,
)

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


@dataclass(frozen=True)
class TriAxial:
    """An ordered triple of complex Darboux-Halphen/Lagrange variables."""

    omega: tuple
    z: complex = 0j

    def __post_init__(self):
        if len(self.omega) != 3:
            raise DomainError("TriAxial needs exactly 3 components")
        object.__setattr__(self, "omega", tuple(complex(w) for w in self.omega))
        for w in self.omega:
            if not (math.isfinite(w.real) and math.isfinite(w.imag)):
                raise DomainError("TriAxial components must be finite")


@dataclass(frozen=True)
class RealTriAxial:
    """Real triple Omega(T) on the imaginary axis, Omega(T) = i*omega(iT)."""

    Omega: tuple
    T: float = 0.0

    def __post_init__(self):
        if len(self.Omega) != 3:
            raise DomainError("RealTriAxial needs exactly 3 components")
        object.__setattr__(self, "Omega", tuple(float(w) for w in self.Omega))
        for w in self.Omega:
            if not math.isfinite(w):
                raise DomainError("RealTriAxial components must be finite")


@dataclass(frozen=True)
class ModularTriplet:
    """Weight-2 Gamma(2) forms (E1, E2, E3) with E1 - E2 + E3 = 0."""

    E1: complex
    E2: complex
    E3: complex
    tol: float = 1e-10

    def __post_init__(self):
        scale = max(1.0, abs(self.E1), abs(self.E2), abs(self.E3))
        if abs(self.E1 - self.E2 + self.E3) > self.tol * scale:
            raise DomainError("triplet violates E1 - E2 + E3 = 0")


@dataclass(frozen=True)
class ChazyData:
    y: complex
    y_prime: complex
    y_double_prime: complex


def dh_rhs(state):
    """Darboux-Halphen right-hand side (cyclic)."""
    w1, w2, w3 = _components(state)
    return (
        w2 * w3 - w1 * (w2 + w3),
        w3 * w1 - w2 * (w3 + w1),
        w1 * w2 - w3 * (w1 + w2),
    )


def lagrange_rhs(state):
    """Lagrange right-hand side (cyclic)."""
    w1, w2, w3 = _components(state)
    return (w2 * w3, w3 * w1, w1 * w2)


_SYSTEMS = {"dh": dh_rhs, "lagrange": lagrange_rhs}


def system_rhs(system: str):
    try:
        return _SYSTEMS[system.lower()]
    except KeyError:
        raise DomainError(f"unknown system {system!r}; use 'dh' or 'lagrange'")


def system_second_derivative(system: str, omega, omega_dot=None):
    """Second derivatives along a solution, by differentiating the RHS."""
    rhs = system_rhs(system)
    w1, w2, w3 = _components(omega)
    if omega_dot is None:
        d1, d2, d3 = rhs((w1, w2, w3))
    else:
        d1, d2, d3 = _components(omega_dot)
    if system.lower() == "dh":
        return (
            d2 * w3 + w2 * d3 - d1 * (w2 + w3) - w1 * (d2 + d3),
            d3 * w1 + w3 * d1 - d2 * (w3 + w1) - w2 * (d3 + d1),
            d1 * w2 + w1 * d2 - d3 * (w1 + w2) - w3 * (d1 + d2),
        )
    return (d2 * w3 + w2 * d3, d3 * w1 + w3 * d1, d1 * w2 + w1 * d2)


def _components(state):
    if isinstance(state, TriAxial):
        return state.omega
    if isinstance(state, RealTriAxial):
        return state.Omega
    w1, w2, w3 = state
    return w1, w2, w3


# ---------------------------------------------------------------------------
# integration


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

    @property
    def T_start(self) -> float:
        return float(self.T[0])

    @property
    def T_end(self) -> float:
        return float(self.T[-1])

    def state_at(self, T: float) -> RealTriAxial:
        """Linear interpolation between samples (monotone T assumed)."""
        Ts = self.T if self.T[0] < self.T[-1] else self.T[::-1]
        Om = self.Omega if self.T[0] < self.T[-1] else self.Omega[::-1]
        if not (Ts[0] <= T <= Ts[-1]):
            raise OutOfRange(f"T = {T} outside run [{Ts[0]}, {Ts[-1]}]")
        vals = [float(np.interp(T, Ts, Om[:, i])) for i in range(3)]
        return RealTriAxial(tuple(vals), T)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(["T", "Omega1", "Omega2", "Omega3",
                         "Omega1_dot", "Omega2_dot", "Omega3_dot"])
        for i in range(len(self.T)):
            writer.writerow(
                [repr(float(self.T[i]))]
                + [repr(float(v)) for v in self.Omega[i]]
                + [repr(float(v)) for v in self.Omega_dot[i]]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "system": self.system,
            "tol": self.tol,
            "reason": self.reason,
            "root_component": self.root_component,
            "meta": self.meta,
            "T": [float(t) for t in self.T],
            "Omega": [[float(v) for v in row] for row in self.Omega],
            "Omega_dot": [[float(v) for v in row] for row in self.Omega_dot],
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    @classmethod
    def from_samples(cls, system, T, Omega, tol=0.0, reason="completed", meta=None):
        """Build a trajectory from closed-form samples; Omega_dot from the
        system RHS."""
        T = np.asarray(T, dtype=float)
        Omega = np.asarray(Omega, dtype=float)
        rhs = system_rhs(system)
        Omega_dot = np.array([rhs(tuple(row)) for row in Omega], dtype=float)
        return cls(system=system, T=T, Omega=Omega, Omega_dot=Omega_dot,
                   tol=tol, reason=reason, meta=meta or {})


def integrate(
    system: str,
    init: RealTriAxial,
    T_end: float,
    tol: float = 1e-9,
    stop_on_root: bool = True,
    stop_on_blowup: bool = True,
    max_step: float = np.inf,
) -> Trajectory:
    """Adaptive RK45 integration with terminal events.

    Root crossings of any component and |Omega| blowup past 1/tol are
    located by the integrator's root finder and terminate the run when
    the corresponding flag is set.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    if T_end == init.T:
        raise DomainError("T_end must differ from the initial time")
    if stop_on_root and 0.0 in init.Omega:
        i = init.Omega.index(0.0)
        raise DomainError(
            f"root at start: initial Omega{i + 1} = 0, so the run would stop at T = {init.T}"
        )
    from scipy.integrate import solve_ivp

    rhs = system_rhs(system)

    def f(t, y):
        return rhs(y)

    events = []
    if stop_on_root:
        for i in range(3):
            ev = lambda t, y, i=i: y[i]
            ev.terminal = True
            events.append(ev)
    blow = None
    if stop_on_blowup:
        limit = 1.0 / tol

        def blow(t, y):
            return max(abs(y[0]), abs(y[1]), abs(y[2])) - limit

        blow.terminal = True
        events.append(blow)

    sol = solve_ivp(
        f,
        (init.T, T_end),
        np.asarray(init.Omega, dtype=float),
        method="RK45",
        rtol=tol,
        atol=tol,
        max_step=max_step,
        events=events,
        dense_output=False,
    )
    if sol.status == -1:
        raise StepUnderflow(sol.message)

    reason = "completed"
    root_component = None
    if sol.status == 1:
        hit = [i for i, te in enumerate(sol.t_events) if len(te)]
        if stop_on_root and hit and hit[0] < 3:
            reason = "root_crossing"
            root_component = hit[0]
        else:
            reason = "blowup"

    T = sol.t
    Omega = sol.y.T
    Omega_dot = np.array([rhs(tuple(row)) for row in Omega], dtype=float)
    return Trajectory(
        system=system.lower(),
        T=T,
        Omega=Omega,
        Omega_dot=Omega_dot,
        tol=tol,
        reason=reason,
        root_component=root_component,
        meta={"nfev": int(sol.nfev), "status": int(sol.status)},
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
    from scipy.integrate import solve_ivp

    rhs = system_rhs(system)
    direction = cmath.exp(1j * theta_angle)

    def f(s, y):
        w = (y[0] + 1j * y[1], y[2] + 1j * y[3], y[4] + 1j * y[5])
        d = [direction * dw for dw in rhs(w)]
        return [d[0].real, d[0].imag, d[1].real, d[1].imag, d[2].real, d[2].imag]

    y0 = []
    for w in init.omega:
        y0 += [w.real, w.imag]
    sol = solve_ivp(f, (0.0, s_end), y0, method="RK45", rtol=tol, atol=tol)
    if sol.status == -1:
        raise StepUnderflow(sol.message)
    omega = sol.y[0::2].T + 1j * sol.y[1::2].T
    return sol.t, omega


# ---------------------------------------------------------------------------
# closed forms


def _theta4(j: int, z, trunc: QTruncation) -> complex:
    return theta(j, 0.0, z, trunc) ** 4


def halphen_closed_form(z, trunc: QTruncation = DEFAULT_TRUNC) -> TriAxial:
    """The Halphen solution of the Darboux-Halphen system,

    omega1 = (pi/6i)(E2 - theta2^4 - theta3^4)   (and partners),
    thetas at v = 0.
    """
    z = complex(z)
    if not z.imag > 0:
        raise DomainError(f"Im(z) must be > 0, got {z}")
    e2 = eisenstein_holo(2, z, trunc)
    t2, t3, t4 = (_theta4(j, z, trunc) for j in (2, 3, 4))
    pref = cmath.pi / 6j
    return TriAxial(
        omega=(pref * (e2 - t2 - t3), pref * (e2 + t3 + t4), pref * (e2 + t2 - t4)),
        z=z,
    )


def halphen_closed_form_real(T: float, trunc: QTruncation = DEFAULT_TRUNC) -> RealTriAxial:
    """Real Halphen solution Omega(T) = i omega(iT), defined for T > 0."""
    if not T > 0:
        raise DomainError(f"real Halphen solution needs T > 0, got T = {T}")
    w = halphen_closed_form(1j * T, trunc).omega
    vals = []
    for c in w:
        c = 1j * c
        if abs(c.imag) > 1e-9 * max(1.0, abs(c.real)):
            raise DomainError(f"non-real value {c} on the imaginary axis")
        vals.append(c.real)
    return RealTriAxial(tuple(vals), T)


def halphen_triplet(z, trunc: QTruncation = DEFAULT_TRUNC) -> ModularTriplet:
    """The weight-2 Gamma(2) triplet behind the Halphen solution:
    (i pi theta4^4, -i pi theta2^4, -i pi theta3^4)."""
    t2, t3, t4 = (_theta4(j, z, trunc) for j in (2, 3, 4))
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
    w~(z) = (cz+d)^-2 w((az+b)/(cz+d)) + c/(cz+d)."""

    def generated(z):
        z = complex(z)
        denom = M.c * z + M.d
        if abs(denom) < 1e-12:
            raise PoleHit(f"c z + d = {denom} below tolerance")
        base = sol((M.a * z + M.b) / denom)
        w = _components(base)
        shift = M.c / denom
        return TriAxial(tuple(wi / denom**2 + shift for wi in w), z=z)

    return generated


def sl2_generate_real(sol, A: float, B: float, C: float, D: float):
    """Real form of the solution map for SL(2, R) matrices acting on
    Omega(T)."""
    det = A * D - B * C
    if det <= 0:
        raise DomainError("real matrix must have positive determinant")
    r = math.sqrt(det)
    A, B, C, D = A / r, B / r, C / r, D / r

    def generated(T):
        denom = C * T + D
        if abs(denom) < 1e-12:
            raise PoleHit(f"C T + D = {denom} below tolerance")
        base = sol((A * T + B) / denom)
        w = _components(base)
        return RealTriAxial(
            tuple(wi / denom**2 + C / denom for wi in w), T
        )

    return generated


def dh_residual(sol, z, h=None) -> float:
    """Max-norm residual of the Darboux-Halphen equations for a callable
    z -> TriAxial, derivatives by 4th-order central differences."""
    z = complex(z)
    if h is None:
        h = 1e-4 * max(abs(z.imag), 0.1)
    w = _components(sol(z))
    rhs = dh_rhs(w)
    res = 0.0
    for i in range(3):
        deriv = numdiff.deriv1(lambda t, i=i: _components(sol(t))[i], z, h)
        res = max(res, abs(deriv - rhs[i]))
    return res


# ---------------------------------------------------------------------------
# Schwarz and Chazy correspondences


def schwarz_lambda(z, trunc: QTruncation = DEFAULT_TRUNC) -> complex:
    """lambda_H(z) = theta2(0|z)^4 / theta3(0|z)^4."""
    z = complex(z)
    if not z.imag > 0:
        raise DomainError("Im(z) must be > 0")
    return _theta4(2, z, trunc) / _theta4(3, z, trunc)


def schwarz_residual(lambda_fn, z, h) -> float:
    """|Schwarz expression| for a candidate lambda(z):

    lambda'''/lambda' - (3/2)(lambda''/lambda')^2
      + (1/2)(1/l^2 + 1/(l-1)^2 - 1/(l(l-1))) lambda'^2
    """
    z = complex(z)
    if h > z.imag / 10:
        raise StepTooLarge(f"h = {h} too large for Im(z) = {z.imag}")
    lam = lambda_fn(z)
    d1 = numdiff.deriv1(lambda_fn, z, h)
    d2 = numdiff.deriv2(lambda_fn, z, h)
    d3 = numdiff.deriv3(lambda_fn, z, h)
    expr = d3 / d1 - 1.5 * (d2 / d1) ** 2 + 0.5 * (
        1 / lam**2 + 1 / (lam - 1) ** 2 - 1 / (lam * (lam - 1))
    ) * d1**2
    return abs(expr)


def dh_from_lambda(lambda_fn, z, h) -> ModularTriplet:
    """Triplet (lambda'/lambda, lambda'/(lambda-1), lambda'/(lambda(lambda-1)))."""
    lam = lambda_fn(z)
    d1 = numdiff.deriv1(lambda_fn, z, h)
    return ModularTriplet(d1 / lam, d1 / (lam - 1), d1 / (lam * (lam - 1)), tol=1e-6)


def chazy_from_dh(state) -> ChazyData:
    """Symmetric functions of a Darboux-Halphen triple:
    y = -2 sum(w), y' = 2 sum(w_i w_j), y'' = -12 w1 w2 w3."""
    w1, w2, w3 = _components(state)
    return ChazyData(
        y=-2 * (w1 + w2 + w3),
        y_prime=2 * (w1 * w2 + w2 * w3 + w3 * w1),
        y_double_prime=-12 * w1 * w2 * w3,
    )


def chazy_residual(y_fn, z, h) -> float:
    """|y''' - 2 y y'' + 3 (y')^2| by central differences."""
    z = complex(z)
    if h > z.imag / 10:
        raise StepTooLarge(f"h = {h} too large for Im(z) = {z.imag}")
    y = y_fn(z)
    d1 = numdiff.deriv1(y_fn, z, h)
    d2 = numdiff.deriv2(y_fn, z, h)
    d3 = numdiff.deriv3(y_fn, z, h)
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


def reflection_check(T: float, trunc: QTruncation = DEFAULT_TRUNC):
    """Residual triple of the quasimodular reflection identity
    Omega^{1,2,3}(T) = -(1/T^2) Omega^{2,1,3}(1/T) + 1/T
    on the real Halphen solution."""
    if not (T > 0 and 1.0 / T > 0):
        raise DomainError("T and 1/T must both be positive")
    direct = halphen_closed_form_real(T, trunc).Omega
    mirror = halphen_closed_form_real(1.0 / T, trunc).Omega
    perm = (1, 0, 2)
    return tuple(
        abs(direct[i] + mirror[perm[i]] / T**2 - 1.0 / T) for i in range(3)
    )
