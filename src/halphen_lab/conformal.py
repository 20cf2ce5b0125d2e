"""Conformally self-dual Bianchi IX foliations with zero scalar curvature.

Two coupled first-order systems in the auxiliary triple Delta and the
metric triple Omega:

    I:   Delta1' = Delta2 Delta3 - Delta1 (Delta2 + Delta3)   (cyclic)
    II:  Omega1' = Omega2 Omega3 - Omega1 (Delta2 + Delta3)   (cyclic)

System I is the Darboux-Halphen flow in Delta; Delta = Omega reduces II
to Darboux-Halphen and Delta = 0 to Lagrange, the two Ricci-flat
branches.  With delta_i = -(1/2) d/dz log E_i for a weight-2 triplet
E_i, the rescaled variables

    w_i = omega_i / sqrt(E_j E_k)

obey dw1/dlambda = w2 w3 / lambda (and partners) in the Schwarz variable
lambda, carry the first integral w1^2 - w2^2 + w3^2, and are solved by
ratios of theta constants with characteristics.  The limit of integer
characteristics recovers the Ricci-flat triaxial instanton.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import numdiff
from .errors import (
    DomainError,
    PoleHit,
    SingularLambda,
    StepTooLarge,
    ThetaZeroDivision,
)
from .geometry import _curvature_blocks
from .halphen import _CYC, _circle, _finite_triple, _halphen, _omega_ddot
from .halphen import _omega_dot as system_two_rhs, dh_rhs as system_one_rhs, schwarz_lambda
from .modforms import (
    ThetaChar,
    _fourth_powers,
    _series,
    theta_char,
    theta_char_vderiv,
    weight2_transport,
)

__all__ = [
    "ConformalState",
    "WVars",
    "CPField",
    "systems_rhs",
    "system_one_rhs",
    "system_two_rhs",
    "w_theta_solution",
    "ah_limit_solution",
    "first_integral",
    "w_lambda_rhs",
    "w_lambda_system_residual",
    "sl2_generate_pair",
    "asd_curvature_identity",
    "cp_harmonic_check",
    "cp_f_cp2",
    "cp_f_heisenberg",
    "cp_f_eisenstein",
]


@dataclass(frozen=True)
class ConformalState:
    """Joint state (Delta, Omega) of systems I and II at a point z."""

    delta: tuple
    omega: tuple
    z: complex = 0j

    def __post_init__(self):
        for name in ("delta", "omega"):
            object.__setattr__(self, name, _finite_triple(name, getattr(self, name), complex))


@dataclass(frozen=True)
class WVars:
    """Rescaled system-II variables and the Schwarz coordinate."""

    w: tuple
    lam: complex

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(complex(v) for v in self.w))


def systems_rhs(state: ConformalState):
    """(Delta', Omega') of the coupled systems I and II."""
    return system_one_rhs(state.delta), system_two_rhs(state.omega, state.delta)


def first_integral(w) -> complex:
    w1, w2, w3 = tuple(w)
    return w1 * w1 - w2 * w2 + w3 * w3


def w_theta_solution(a: complex, b: complex, z: complex) -> WVars:
    """Theta-characteristic solution of the w-system,

        w1 = d_v theta[a+1; b](0|z) / (2 pi th2 th3 theta[a; b](0|z)),
        w2 = e^{-i pi a/2} d_v theta[a; b+1](0|z) / (2 pi th3 th4 ...),
        w3 = -e^{-i pi a/2} d_v theta[a+1; b+1](0|z) / (2 pi th2 th4 ...),

    with first integral w1^2 - w2^2 + w3^2 = 1/4.  The shifted
    characteristics are used literally (no mod-2 reduction), which keeps
    the family smooth in (a, b).
    """
    z = complex(z)
    _, th2, th3, th4 = _series(z)
    denom = theta_char(ThetaChar(a, b), 0.0, z)
    if abs(denom) < 1e-12:
        raise ThetaZeroDivision(f"theta[{a};{b}](0|z) = {denom} below tolerance")
    phase = cmath.exp(-1j * cmath.pi * a / 2)
    d1 = theta_char_vderiv(ThetaChar(a + 1, b), 0.0, z)
    d2 = theta_char_vderiv(ThetaChar(a, b + 1), 0.0, z)
    d3 = theta_char_vderiv(ThetaChar(a + 1, b + 1), 0.0, z)
    t2, t3, _ = _fourth_powers(th2, th3, th4)
    tp = 2 * cmath.pi
    return WVars(
        w=(
            d1 / (tp * th2 * th3 * denom),
            phase * d2 / (tp * th3 * th4 * denom),
            -phase * d3 / (tp * th2 * th4 * denom),
        ),
        lam=t2 / t3,
    )


def ah_limit_solution(z0: complex, z: complex) -> WVars:
    """Integer-characteristic limit of the theta family,
    a = 1 + 2 eps, b = 1 + 2 z0 eps, eps -> 0:

        w1 = -(1/(pi th2^2 th3^2)) (i/(z+z0) - (pi/6)(E2 - th2^4 - th3^4)),

    and partners.  z0 -> i inf recovers the Ricci-flat triaxial
    instanton combination.
    """
    z = complex(z)
    z0 = complex(z0)
    e2, th2, th3, th4 = _series(z)
    if abs(z + z0) < 1e-12:
        raise PoleHit(f"z + z0 = {z + z0} below tolerance")
    o1, o2, o3 = _halphen(cmath.pi / 6, e2, th2, th3, th4)
    t2, t3, _ = _fourth_powers(th2, th3, th4)
    pole = 1j / (z + z0)
    return WVars(
        w=(
            -(pole - o1) / (cmath.pi * th2**2 * th3**2),
            -1j * (pole - o2) / (cmath.pi * th3**2 * th4**2),
            -1j * (pole - o3) / (cmath.pi * th2**2 * th4**2),
        ),
        lam=t2 / t3,
    )


def w_lambda_rhs(w, lam):
    """(dw1, dw2, dw3)/dlambda = (w2 w3/lambda, w3 w1/(lambda-1),
    w1 w2/(lambda (lambda-1))); SingularLambda within 0.05 of a branch point."""
    lam = complex(lam)
    if min(abs(lam), abs(lam - 1)) < 0.05:
        raise SingularLambda(f"lambda = {lam} within 0.05 of a branch point")
    w1, w2, w3 = tuple(w)
    return (w2 * w3 / lam, w3 * w1 / (lam - 1), w1 * w2 / (lam * (lam - 1)))


def w_lambda_system_residual(w_of_z, z: complex):
    """Residuals of the lambda-form of system II for a callable z -> WVars,
    holomorphic on |t - z| < Im(z): d w/d lambda = (d w/d z) / lambda'(z),
    with w and lambda differentiated by one `numdiff.deriv1` call."""
    import numpy as np

    z, r = _circle(z)
    *dwdz, lam_prime = numdiff.deriv1(lambda t: np.array((*w_of_z(t).w, schwarz_lambda(t))), z, r)
    if abs(lam_prime) < 1e-14:
        raise SingularLambda("lambda'(z) vanishes; lambda is not a coordinate here")
    rhs = w_lambda_rhs(w_of_z(z).w, schwarz_lambda(z))
    return tuple(abs(d / lam_prime - f) for d, f in zip(dwdz, rhs))


def sl2_generate_pair(delta_fn, omega_fn, M):
    """Transport a joint solution of systems I and II: Delta by
    `weight2_transport` with its shift c/(cz+d), Omega without it."""
    delta, omega = weight2_transport(delta_fn, M), weight2_transport(omega_fn, M, s=0)
    return lambda z: ConformalState(delta=delta(z), omega=omega(z), z=complex(z))


def asd_curvature_identity(state: ConformalState) -> tuple:
    """Residuals of the on-shell anti-self-dual curvature identity.

    For joint solutions of systems I and II the anti-self-dual curvature
    collapses to

        A_i = (1 / 2 Omega_i)(Delta_j Delta_k / (Omega_j Omega_k)
              - Delta_i / Omega_i) phi_i,

    which is compared against the anti-self-dual block of the metric
    curvature (`geometry._curvature_blocks`), with Omega' from system II
    and Omega'' from differentiating it along systems I and II.  Since
    both A_i coefficients (on phi_i and chi_i) must agree with (coef, 0),
    the returned residual per axis is the max of the two mismatches.
    """
    d, Om = state.delta, state.omega
    Omdot = system_two_rhs(Om, d)
    Omddot = _omega_ddot(Om, Omdot, d, system_one_rhs(d))
    _, _, a_phi, a_chi = _curvature_blocks(Om, Omdot, Omddot)
    res = []
    for i, j, k in _CYC:
        target = (d[j] * d[k] / (Om[j] * Om[k]) - d[i] / Om[i]) / (2 * Om[i])
        res.append(max(abs(a_phi[i] - target), abs(a_chi[i])))
    return tuple(res)


# ---------------------------------------------------------------------------
# quaternionic metrics with two commuting isometries: the harmonic F check


@dataclass(frozen=True)
class CPField:
    """A candidate potential F(rho, eta) on the half-plane rho > 0."""

    F: object  # callable (rho, eta) -> float
    name: str = ""

    def __call__(self, rho: float, eta: float) -> float:
        if rho <= 0:
            raise DomainError("F is defined for rho > 0")
        return self.F(rho, eta)


def cp_f_cp2() -> CPField:
    """F = sqrt(rho + eta^2 / rho), the complex-projective-plane potential."""
    return CPField(lambda r, e: math.sqrt(r + e * e / r), "cp2")


def cp_f_heisenberg(rho0: float = 1.0) -> CPField:
    """F = (rho^2 - rho0^2) / (2 sqrt(rho)), Heisenberg-symmetric potential."""
    return CPField(lambda r, e: (r * r - rho0 * rho0) / (2 * math.sqrt(r)), "heis")


def cp_f_eisenstein() -> CPField:
    """F = E_{3/2}(eta + i rho), the non-holomorphic Eisenstein potential.

    Evaluated through the Fourier-Bessel expansion, which is smooth in
    both arguments; the direct lattice sum is too noisy under the second
    differences of the harmonic check.
    """
    from .maass import eisenstein_fourier

    return CPField(
        lambda r, e: eisenstein_fourier(1.5, complex(e, r)).value, "E3/2"
    )


def cp_harmonic_check(field: CPField, rho: float, eta: float, h: float) -> float:
    """Relative residual of the weighted harmonic equation

        rho^2 (F_rho_rho + F_eta_eta) = (3/4) F

    by 5-point central differences in each variable.  DomainError unless
    rho, eta and the residual are finite."""
    if not (math.isfinite(rho) and math.isfinite(eta)):
        raise DomainError(f"rho and eta must be finite, got rho = {rho}, eta = {eta}")
    numdiff.check_step(h)
    if rho <= 2 * h:
        raise StepTooLarge(f"need rho > 2h, got rho = {rho}, h = {h}")
    F0 = field(rho, eta)
    Frr = numdiff.second_5pt([field(rho + k * h, eta) for k in (-2, -1, 0, 1, 2)], h)
    Fee = numdiff.second_5pt([field(rho, eta + k * h) for k in (-2, -1, 0, 1, 2)], h)
    res = abs(rho * rho * (Frr + Fee) - 0.75 * F0) / max(abs(F0), 1e-300)
    if not math.isfinite(res):
        raise DomainError(f"the residual at rho = {rho}, eta = {eta} overflows a float")
    return res
