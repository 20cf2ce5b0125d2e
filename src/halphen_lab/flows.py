"""The Darboux-Halphen flow read as a geometric flow of 3-metrics.

Each time slice of the triaxial Bianchi IX metric is a homogeneous
3-metric on SU(2),

    g(T) = A1 sigma1^2 + A2 sigma2^2 + A3 sigma3^2,
    A_i = sqrt(Omega_j Omega_k / Omega_i),

and the flow parameter of interest is the proper time
dt = sqrt(Omega1 Omega2 Omega3) dT.  The scalar curvature of the slice is

    Rbar = [2 (A1 A2 + A2 A3 + A3 A1) - A1^2 - A2^2 - A3^2] / (2 A1 A2 A3),

and on the Darboux-Halphen flow the slice volume obeys the
(unnormalised) Yamabe-type rate dV/dt = -(1/2) V Rbar.  Late times drive
the Halphen attractor Omega ~ (1/T)(1, 1, 1) + const corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InsufficientData, OutOfRange, dump_json
from .geometry import frame_coefficients, proper_time
from .halphen import RealTriAxial, Trajectory, _components, integrate

__all__ = [
    "FlowRun",
    "slice_metric",
    "slice_scalar_curvature",
    "slice_volume",
    "flow_time",
    "flow_run",
    "isotropy_ratio",
    "volume_rate_check",
    "attractor_check",
]


# the slice coefficients A_i are the frame coefficients of the 4-metric
slice_metric = frame_coefficients


def slice_scalar_curvature(state) -> float:
    """Scalar curvature of the homogeneous slice metric."""
    A, B, C = slice_metric(state)
    return (2 * (A * B + B * C + C * A) - A * A - B * B - C * C) / (2 * A * B * C)


def slice_volume(state) -> float:
    """Volume density sqrt(A1 A2 A3) = |Omega1 Omega2 Omega3|^(1/4).

    (The invariant volume of the SU(2) orbit times this density is the
    slice volume; the constant orbit factor is dropped.)
    """
    A, B, C = slice_metric(state)
    return math.sqrt(abs(A * B * C))


# flow time is the proper time of the 4-metric
flow_time = proper_time


@dataclass
class FlowRun:
    """A Darboux-Halphen run with per-sample slice diagnostics."""

    traj: Trajectory
    t: np.ndarray  # flow time
    volume: np.ndarray
    scalar: np.ndarray
    anisotropy: np.ndarray
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The flat JSON layout: the trajectory contributes only its times
        and stop reason."""
        payload = {k: v for k, v in vars(self).items() if k != "traj"}
        return {**payload, "T": self.traj.T, "reason": self.traj.reason}

    def to_json(self) -> str:
        return dump_json(self.to_dict())


def isotropy_ratio(state) -> float:
    """Relative spread max|Omega_i - Omega_j| / max|Omega_i|."""
    Om = _components(state)
    spread = max(abs(Om[i] - Om[j]) for i in range(3) for j in range(i + 1, 3))
    return spread / max(abs(w) for w in Om)


def flow_run(
    init: RealTriAxial,
    T_end: float,
    tol: float = 1e-10,
) -> FlowRun:
    """Integrate the Darboux-Halphen system and attach slice diagnostics.

    Root crossings are not terminal here: the slice metric only sees
    |Omega_i| through A_i, so the flow continues across a sign change.
    """
    traj = integrate("dh", init, T_end, tol=tol, stop_on_root=False)
    rows = traj.Omega.tolist()
    vol = np.array([slice_volume(row) for row in rows])
    sc = np.array([slice_scalar_curvature(row) for row in rows])
    anis = np.array([isotropy_ratio(row) for row in rows])
    return FlowRun(
        traj=traj,
        t=flow_time(traj),
        volume=vol,
        scalar=sc,
        anisotropy=anis,
        meta={"tol": tol},
    )


def volume_rate_check(run: FlowRun, T: float | None = None) -> float:
    """Relative residual of dV/dt + (1/2) V Rbar = 0.

    With `T` given, the residual at the interior sample closest to T;
    otherwise the maximum over the run.  The derivative is a centred
    difference on the (non-uniform) flow-time grid, so the first and last
    two samples are excluded.
    """
    t, V, R = run.t, run.volume, run.scalar
    skip = 2
    if len(t) < 2 * skip + 3:
        raise InsufficientData("run too short for the rate check")
    if T is not None:
        lo, hi = sorted((run.traj.T[skip], run.traj.T[-skip - 1]))
        if not (lo <= T <= hi):
            raise OutOfRange(f"T = {T} not interior to the run")
        i = int(np.argmin(np.abs(run.traj.T - T)))
        i = min(max(i, skip), len(t) - skip - 1)
        indices = [i]
    else:
        indices = range(skip, len(t) - skip)
    res = 0.0
    for i in indices:
        h1 = t[i] - t[i - 1]
        h2 = t[i + 1] - t[i]
        dV = (
            V[i + 1] * h1 / (h2 * (h1 + h2))
            - V[i - 1] * h2 / (h1 * (h1 + h2))
            + V[i] * (h2 - h1) / (h1 * h2)
        )
        target = -0.5 * V[i] * R[i]
        scale = max(abs(target), 1e-12 * abs(V[i]))
        res = max(res, abs(dV - target) / scale)
    return float(res)


def attractor_check(init: RealTriAxial) -> dict:
    """Late-time test of trapping by the isotropic attractor.

    Positive initial data stays positive and each T * Omega_i(T) tends
    to 1.  Integrates at tol 1e-10 to T_probe = 50 and returns the worst
    deviation max_i |T_probe Omega_i - 1| there.
    """
    T_probe = 50.0
    if min(init.Omega) <= 0:
        raise DomainError("attractor check needs positive initial data")
    if T_probe <= init.T:
        raise DomainError("T_probe must exceed the initial time")
    traj = integrate("dh", init, T_probe, tol=1e-10, stop_on_root=True)
    stayed_positive = bool(traj.reason != "root_crossing")
    if not stayed_positive:
        return {"stayed_positive": False, "deviation": math.inf, "traj": traj}
    Om = traj.Omega[-1]
    dev = max(abs(T_probe * w - 1.0) for w in Om)
    return {"stayed_positive": True, "deviation": float(dev), "traj": traj}
