"""Curvature of diagonal triaxial Bianchi IX metrics.

The metric is taken in the frame

    ds^2 = Omega1 Omega2 Omega3 dT^2
           + (Omega2 Omega3 / Omega1) sigma1^2 + (cyclic),

with sigma_i the left-invariant SU(2) one-forms, d sigma1 = sigma2 ^ sigma3
(cyclic).  The curvature two-form splits into self-dual and anti-self-dual
parts; for a diagonal metric both blocks are diagonal 3x3 matrices built
from two auxiliary triples

    u_i = [X_i/Omega_i - X_j/Omega_j - X_k/Omega_k] / (4 Omega_i),
    v_i = [Y_i/Omega_i - Y_j/Omega_j - Y_k/Omega_k] / (4 Omega_i),

with X_i = Omega_i' + Omega_j Omega_k and Y_i = Omega_i' - Omega_j Omega_k.
The Lagrange flow makes Y = 0 (so v = 0) and the Darboux-Halphen flow
makes v_i = 1/2 constant; either way the anti-self-dual curvature block
vanishes identically, which is the self-duality of both branches.

The curvature is evaluated one sample at a time, in straight-line scalar
arithmetic: real components (numpy float64 included) are taken as plain
floats, so `curvature_decomp` and `connection` return plain floats for
real input, and complex components stay complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMetric, DomainError, InsufficientData, dump_json
from .halphen import Trajectory, _components, _flow_derivatives, taub_nut_family

__all__ = [
    "ConnectionCoeffs",
    "CurvatureDecomp",
    "EndpointClass",
    "connection",
    "curvature_decomp",
    "classify_geometry",
    "onshell_weyl",
    "frame_coefficients",
    "proper_time",
    "classify_endpoint",
    "taub_nut_check",
    "taub_nut_endpoints",
]


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Self-dual (u) and anti-self-dual (v) connection triples and their
    T-derivatives."""

    u: tuple
    v: tuple
    u_dot: tuple
    v_dot: tuple


@dataclass(frozen=True)
class CurvatureDecomp:
    """Diagonal entries of the curvature blocks in an orthonormal
    (anti)self-dual two-form basis.

    scalar        : scalar curvature s
    weyl_plus     : self-dual Weyl eigenvalues (trace-free)
    weyl_minus    : anti-self-dual Weyl eigenvalues (trace-free)
    ricci_plus    : trace-free Ricci block seen from the self-dual side
    ricci_minus   : the same block seen from the anti-self-dual side
    """

    scalar: float
    weyl_plus: tuple
    weyl_minus: tuple
    ricci_plus: tuple
    ricci_minus: tuple
    scalar_cross: float = 0.0

    def to_json(self) -> str:
        return dump_json(vars(self))


@dataclass(frozen=True)
class EndpointClass:
    """Result of endpoint classification of a trajectory."""

    kind: str  # 'nut' | 'bolt' | 'taubian_infinity' | 'curvature_singularity'
    T_end: float
    proper_time_end: float | None  # None when infinite
    exponents: tuple
    bolt_degree: float | None = None
    bolt_radius: float | None = None
    detail: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return dump_json(vars(self))


def _require_nondegenerate(Omega):
    w1, w2, w3 = Omega
    if min(abs(w1), abs(w2), abs(w3)) < 1e-300:
        raise DegenerateMetric(f"vanishing metric coefficient in {Omega}")


def _plain(state):
    """The three components of a state or triple, real ones (int, float,
    numpy float64) as plain floats and any other type as given.  numpy
    float64 is a float subclass, so no value changes, but plain float
    arithmetic is about twice as fast."""
    w1, w2, w3 = _components(state)
    return (
        float(w1) if isinstance(w1, (int, float)) else w1,
        float(w2) if isinstance(w2, (int, float)) else w2,
        float(w3) if isinstance(w3, (int, float)) else w3,
    )


def _dual_connection(s, Om, Omega_dot, Omega_ddot):
    """The triple u (s = +1.0, from X) or v (s = -1.0, from Y) of the module
    docstring and its T-derivative, which is NaN without Omega_ddot.

    Straight-line code that rounds, down to the sign of an exact zero, as
    the cyclic formulas Z_i = Omega_i' + s Omega_j Omega_k and
    z_i = (Z_i/Omega_i - Z_j/Omega_j - Z_k/Omega_k) / (4 Omega_i): the
    products with s stay, since a complex product with -1 is not a plain
    negation, and Omega_i ** 2 stays a power, which rounds unlike
    Omega_i * Omega_i.
    """
    O1, O2, O3 = Om
    d1, d2, d3 = Omega_dot
    Z1 = d1 + s * O2 * O3
    Z2 = d2 + s * O3 * O1
    Z3 = d3 + s * O1 * O2
    q1 = Z1 / O1
    q2 = Z2 / O2
    q3 = Z3 / O3
    z1 = (q1 - q2 - q3) / (4.0 * O1)
    z2 = (q2 - q3 - q1) / (4.0 * O2)
    z3 = (q3 - q1 - q2) / (4.0 * O3)
    if Omega_ddot is None:
        return (z1, z2, z3), (math.nan, math.nan, math.nan)
    dd1, dd2, dd3 = Omega_ddot
    # (Z_i'/Omega_i)' with Z_i' = Omega_i'' + s Omega_j' Omega_k + s Omega_j Omega_k'
    p1 = ((dd1 + s * d2 * O3 + s * O2 * d3) * O1 - Z1 * d1) / O1 ** 2
    p2 = ((dd2 + s * d3 * O1 + s * O3 * d1) * O2 - Z2 * d2) / O2 ** 2
    p3 = ((dd3 + s * d1 * O2 + s * O1 * d2) * O3 - Z3 * d3) / O3 ** 2
    return (z1, z2, z3), (
        (p1 - p2 - p3) / (4.0 * O1) - z1 * d1 / O1,
        (p2 - p3 - p1) / (4.0 * O2) - z2 * d2 / O2,
        (p3 - p1 - p2) / (4.0 * O3) - z3 * d3 / O3,
    )


def _curvature_blocks(Om, Omega_dot, Omega_ddot):
    """Coefficients (s_phi, s_chi, a_phi, a_chi) of the self-dual and
    anti-self-dual curvature two-forms

        S_i = u_i' dT ^ sigma_i - (u_i + 2 u_j u_k) sigma_j ^ sigma_k,
        A_i = v_i' dT ^ sigma_i + (2 v_j v_k - v_i) sigma_j ^ sigma_k,

    on the orthonormal (anti)self-dual basis, via

        dT ^ sigma_i        = (phi_i + chi_i) / (2 Omega_j Omega_k),
        sigma_j ^ sigma_k   = (phi_i - chi_i) / (2 Omega_i).

    Real or complex triples; the derivatives are supplied by the caller.
    """
    O1, O2, O3 = Om
    e1 = 2.0 * O2 * O3
    e2 = 2.0 * O3 * O1
    e3 = 2.0 * O1 * O2
    f1 = 2.0 * O1
    f2 = 2.0 * O2
    f3 = 2.0 * O3
    blocks = []
    for s in (1.0, -1.0):
        (z1, z2, z3), (y1, y2, y3) = _dual_connection(s, Om, Omega_dot, Omega_ddot)
        t1 = y1 / e1
        t2 = y2 / e2
        t3 = y3 / e3
        # -(u_i + 2 u_j u_k) for s = +1 and 2 v_j v_k - v_i for s = -1, rounded
        # alike down to the sign of an exact zero
        j1 = -s * (s * z1 + 2.0 * z2 * z3) / f1
        j2 = -s * (s * z2 + 2.0 * z3 * z1) / f2
        j3 = -s * (s * z3 + 2.0 * z1 * z2) / f3
        blocks += [(t1 + j1, t2 + j2, t3 + j3), (t1 - j1, t2 - j2, t3 - j3)]
    return blocks


def connection(state, system: str | None = None, Omega_dot=None) -> ConnectionCoeffs:
    """Connection triples (u, v) and their derivatives along a solution.

    Either `system` ('dh' or 'lagrange', derivatives from the flow) or an
    explicit Omega_dot triple must be supplied; second derivatives are
    only available on-flow.
    """
    Om = _plain(state)
    _require_nondegenerate(Om)
    if Omega_dot is None:
        if system is None:
            raise DomainError("need either a system name or Omega_dot")
        Omega_dot, Omega_ddot = _flow_derivatives(system, Om)
    else:
        Omega_dot, Omega_ddot = _plain(Omega_dot), None
    u, u_dot = _dual_connection(1.0, Om, Omega_dot, Omega_ddot)
    v, v_dot = _dual_connection(-1.0, Om, Omega_dot, Omega_ddot)
    return ConnectionCoeffs(u=u, v=v, u_dot=u_dot, v_dot=v_dot)


def curvature_decomp(state, system: str) -> CurvatureDecomp:
    """Full curvature decomposition at a point of an on-flow solution,
    from the blocks of `_curvature_blocks`."""
    Om = _plain(state)
    _require_nondegenerate(Om)
    try:
        s_phi, s_chi, a_phi, a_chi = _curvature_blocks(Om, *_flow_derivatives(system, Om))
    except OverflowError:
        raise DomainError(f"the curvature at Omega = {Om} overflows a float")
    s = 4 * sum(s_phi)
    w = s / 6
    p1, p2, p3 = s_phi
    m1, m2, m3 = a_chi
    r1, r2, r3 = s_chi
    n1, n2, n3 = a_phi
    return CurvatureDecomp(
        scalar=s,
        weyl_plus=(2 * p1 - w, 2 * p2 - w, 2 * p3 - w),
        weyl_minus=(2 * m1 - w, 2 * m2 - w, 2 * m3 - w),
        ricci_plus=(2 * r1, 2 * r2, 2 * r3),
        ricci_minus=(2 * n1, 2 * n2, 2 * n3),
        scalar_cross=4 * sum(a_chi),
    )


def classify_geometry(dec: CurvatureDecomp, tol: float = 1e-10) -> dict:
    """Classification flags read off a curvature decomposition.

    All comparisons are relative to the largest coefficient present, so
    the flags are scale invariant.
    """
    d = dec
    scale = max(
        1.0,
        abs(d.scalar),
        abs(d.scalar_cross),
        *(abs(x) for x in d.weyl_plus + d.weyl_minus + d.ricci_plus + d.ricci_minus),
    )

    def small(vals):
        return bool(all(abs(x) <= tol * scale for x in vals))

    einstein = small(d.ricci_plus) and small(d.ricci_minus) and bool(
        abs(d.scalar_cross) <= tol * scale
    )
    ricci_flat = einstein and bool(abs(d.scalar) <= tol * scale)
    csd = small(d.weyl_minus)
    casd = small(d.weyl_plus)
    return {
        "Einstein": einstein,
        "RicciFlat": ricci_flat,
        "SelfDual": ricci_flat and csd,
        "AntiSelfDual": ricci_flat and casd,
        "ConformallySelfDual": csd,
        "ConformallyAntiSelfDual": casd,
        "ConformallyFlat": csd and casd,
        "scalar": float(d.scalar),
    }


def onshell_weyl(dec: CurvatureDecomp, Lambda: float = 0.0):
    """Coefficient sets of the on-shell Weyl tensor with cosmological constant.

    Each part is (weyl eigenvalues, trace coefficient, cross coefficients):
    the self-dual block carries W+ together with (s - 2*Lambda)/12 and half
    the mixed Ricci coefficients, and analogously for the anti-self-dual
    block.  A quaternionic space is one whose minus part vanishes.
    """
    trace = (dec.scalar - 2.0 * Lambda) / 12.0
    plus = (dec.weyl_plus, trace, tuple(c / 2.0 for c in dec.ricci_plus))
    minus = (dec.weyl_minus, trace, tuple(c / 2.0 for c in dec.ricci_minus))
    return plus, minus


# ---------------------------------------------------------------------------
# endpoint classification


def frame_coefficients(state):
    """|f_i| with f_i = sqrt(Omega_j Omega_k / Omega_i), from a
    RealTriAxial or an Omega triple.

    Absolute values are taken throughout: solutions with one negative
    component describe the same geometry up to an overall sign of the
    metric.
    """
    return tuple(_frame(_triple_array(state)).tolist())


def _triple_array(state):
    """The three components of a state or triple as a float array, or a
    complex one if any component is complex."""
    w = _components(state)
    return np.array(w, dtype=np.result_type(*w, 1.0))


def _frame(Om):
    """sqrt|Omega_j Omega_k / Omega_i|, (i, j, k) cyclic, for the Omega
    triples along the last axis of an array: the one formula behind
    `frame_coefficients`, the endpoint window and the flow's slice metric.
    DegenerateMetric names the first triple with a component below 1e-300
    in size; a product that leaves the float range gives inf or NaN
    silently, as plain floats do."""
    if not np.abs(Om).min() >= 1e-300:
        for row in Om.reshape(-1, 3).tolist():
            _require_nondegenerate(tuple(row))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(np.abs(Om[..., [1, 2, 0]] * Om[..., [2, 0, 1]] / Om))


def proper_time(traj: Trajectory) -> np.ndarray:
    """Cumulative proper time tau(T) = int sqrt|Omega1 Omega2 Omega3| dT."""
    dens = np.sqrt(np.abs(np.prod(traj.Omega, axis=1)))
    tau = np.concatenate([[0.0], np.cumsum(np.diff(traj.T) * 0.5 * (dens[1:] + dens[:-1]))])
    return tau


_PATTERNS = {
    # ratios p_i / sum(p) of the frame-coefficient exponents near the end
    "nut": (1 / 3, 1 / 3, 1 / 3),
    "bolt": (0.0, 0.0, 1.0),
    "taubian_infinity": (1 / 2, 1 / 2, 0.0),
    "curvature_singularity": (-1.0, 1.0, 1.0),
}


def _log_slope(x, y):
    """Least-squares slope of y against x, or of each column of a 2-D y:
    sum (x - mean x)(y - mean y) / sum (x - mean x)^2."""
    xc = x - x.mean()
    return xc @ (y - y.mean(axis=0)) / (xc @ xc)


def classify_endpoint(traj: Trajectory, end: str = "last") -> EndpointClass:
    """Classify the approached endpoint of an integrated trajectory from
    its last (or, with end="first", its first) 25 samples.

    The frame coefficients f_i behave as powers of the remaining proper
    time delta-tau near a geometric endpoint.  The exponent ratios
    r_i = (d log f_i / dT) / (sum_j d log f_j / dT) are invariant under
    monotone reparametrisation and distinguish the four endpoint types:

        nut                     (1/3, 1/3, 1/3)   all f_i ~ delta-tau
        bolt                    (0, 0, 1)         one collapsing circle
        taubian infinity        (1/2, 1/2, 0)     tau diverges
        curvature singularity   (-1, 1, 1)

    For a bolt the degree n = 2 df/dtau of the shrinking direction and
    the limiting radius of the other two are estimated as well.
    """
    window = 25
    if len(traj.T) < window + 5:
        raise InsufficientData(
            f"need at least {window + 5} samples, got {len(traj.T)}"
        )
    step = -1 if end == "first" else 1
    T, Om = traj.T[::step][-window:], traj.Omega[::step][-window:]

    f = _frame(Om)
    slopes = _log_slope(T, np.log(f))
    total = slopes.sum()
    if abs(total) < 1e-14:
        raise InsufficientData("frame coefficients are stationary; integrate further")
    ratios = slopes / total

    best, dist = None, math.inf
    order = None
    for kind, pat in _PATTERNS.items():
        # ratios are attached to axes; try all relabelings
        for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            d = max(abs(ratios[perm[i]] - pat[i]) for i in range(3))
            if d < dist:
                best, dist, order = kind, d, perm

    tau = proper_time(traj)
    if end == "first":
        tau = tau[-1] - tau[::-1]
    tau_win = tau[-window:]

    detail = {"ratios": ratios.tolist(), "pattern_distance": float(dist)}
    T_end_est = float(T[-1])
    tau_end = None
    bolt_degree = None
    bolt_radius = None

    # proper time diverges at a taubian infinity: T_end_est stays the last T
    if best != "taubian_infinity":
        # extrapolate tau_end from the fastest-growing |log f|: the
        # collapsing/blowing coefficient g obeys log g ~ p log(dtau),
        # i.e. d tau/dT = -dtau * (d log g/dT)/p, so
        # dtau ~ (dtau/dT)/(d log g /dT) * p at the last sample.
        i_fast = int(np.argmax(np.abs(slopes)))
        # exponent vs proper time of the dominant coefficient
        p = {"nut": 0.5, "bolt": 1.0, "curvature_singularity": -1.0 / 3.0}[best]
        dtau_dT = math.sqrt(abs(float(np.prod(Om[-1]))))
        g_rate = slopes[i_fast]
        dtau_rem = abs(p * dtau_dT / g_rate)
        tau_end = float(tau_win[-1] + dtau_rem)
        # refine T_end by the same local model
        T_end_est = float(T[-1] + dtau_rem / dtau_dT * (1 if T[-1] >= T[0] else -1))

    exps = tuple(np.array(_PATTERNS[best])[np.argsort(order)].tolist())

    if best == "bolt":
        i_shrink = order[2]
        keep = [i for i in range(3) if i != i_shrink]
        # the collapsing direction closes like f ~ (n/2) dtau
        rate = _log_slope(tau_win, f[:, i_shrink])
        bolt_degree = float(2 * abs(rate))
        bolt_radius = float(np.mean([f[-1, k] for k in keep]))
        detail["shrinking_axis"] = int(i_shrink)

    return EndpointClass(
        kind=best,
        T_end=T_end_est,
        proper_time_end=tau_end,
        exponents=exps,
        bolt_degree=bolt_degree,
        bolt_radius=bolt_radius,
        detail=detail,
    )


def taub_nut_check(m: float, r: float) -> CurvatureDecomp:
    """Curvature decomposition of the Taub-NUT solution at radius ``r``.

    The mass parameter fixes the biaxial family via m**2 = 1/(T0 - T*),
    and the radial coordinate maps to flow time through
    m*(r - m) = 2/(T - T0); the curvature does not depend on T0, which is
    taken as 0.  The result must classify as self-dual.
    """
    if m <= 0:
        raise DomainError(f"mass must be positive, got {m}")
    if r <= m:
        raise DomainError(f"need r > m, got r={r}, m={m}")
    state = taub_nut_family(2.0 / (m * (r - m)), 0.0, -1.0 / m**2)
    return curvature_decomp(state, system="dh")


def taub_nut_endpoints(T0: float, T_star: float) -> dict:
    """Sample the biaxial family at 200 times and classify both ends.

    For T_star < T0 the solution runs from a nut at T -> +inf down to a
    'taubian infinity' as T -> T0+; for T_star > T0 the inner end is a
    curvature singularity at T -> T_star+ instead.
    """
    if T_star == T0:
        raise DomainError("degenerate family: T0 == T_star")
    inner = max(T0, T_star)
    lo = inner + 0.02 * max(1.0, abs(inner))
    hi = inner + 60.0
    T = np.concatenate([
        inner + np.geomspace(lo - inner, 1.0, 100, endpoint=False),
        np.linspace(inner + 1.0, hi, 100),
    ])
    Om = np.array([taub_nut_family(t, T0, T_star).Omega for t in T])
    traj = Trajectory.from_samples("dh", T, Om)
    outer = classify_endpoint(traj, end="last")
    inner_cls = classify_endpoint(traj, end="first")
    return {
        "outer": outer,
        "inner": inner_cls,
        "expected_inner": "taubian_infinity" if T_star < T0 else "curvature_singularity",
        "expected_outer": "nut",
    }
