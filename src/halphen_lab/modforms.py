"""Holomorphic q-series objects on the upper half-plane.

Dedekind eta, holomorphic Eisenstein series E2/E4/E6, Jacobi theta
functions (with characteristics and v-derivatives) and Moebius maps.
All evaluators are plain truncated q-series in binary64: they sum until
their terms drop below ``TOL`` (relative to ``max(1, |partial|)`` for the
theta functions), raise TruncationNotReached past ``MAX_TERMS`` terms, and
refuse to work below Im(tau) = 0.05, where a q-series is the wrong tool
(fold into the fundamental domain first, as
:func:`maass.fold_to_fundamental` does).

:func:`thetas_e2` is the one kernel for E2 and the theta constants at
v = 0, one loop over powers of the nome; E4 and E6 are polynomials in the
theta constants, so there is no Lambert series.  It takes the nome itself
and has no domain check: :func:`_series` is its complex-tau entry with the
Im(tau) >= 0.05 floor, and on the imaginary axis the real closed form
reflects T < 1 to 1/T > 1 instead of approaching the floor.  Eta is the
theta function with characteristics [1/3; 1] at 3 tau, Euler's pentagonal
series, which needs no root of a theta constant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, PoleHit, TruncationNotReached

__all__ = [
    "ModularPoint",
    "ThetaChar",
    "Moebius",
    "dedekind_eta",
    "eisenstein_holo",
    "theta",
    "theta_char",
    "theta_char_vderiv",
    "thetas_e2",
    "apply_moebius",
    "weight2_transport",
]

MIN_IM_TAU = 0.05
TOL = 1e-12  # a series stops at its first term below TOL * max(1, |partial sum|)
MAX_TERMS = 10**6  # work bound: past this many terms a series raises TruncationNotReached


@dataclass(frozen=True)
class ModularPoint:
    """A point tau in the upper half-plane, carrying its nome q: the one
    check that turns input into such a point."""

    tau: complex

    def __post_init__(self):
        if not (self.tau.imag > 0 and cmath.isfinite(self.tau)):
            raise DomainError(f"tau must be finite with Im(tau) > 0, got tau = {self.tau}")
        if not abs(self.q) < 1:
            raise DomainError(f"|q| must be < 1, got |q| = {abs(self.q)} at tau = {self.tau}")

    @property
    def q(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.tau)

    def require_qseries_domain(self):
        if self.tau.imag < MIN_IM_TAU:
            raise DomainError(
                f"Im(tau) = {self.tau.imag} < {MIN_IM_TAU}: fold into the "
                "fundamental domain before calling a q-series evaluator"
            )


@dataclass(frozen=True)
class ThetaChar:
    """Characteristics (a, b) of theta[a;b](v|tau); integers mod 2 give
    the four classical thetas."""

    a: complex
    b: complex

    def __post_init__(self):
        for name in ("a", "b"):
            x = complex(getattr(self, name))
            if not (math.isfinite(x.real) and math.isfinite(x.imag)):
                raise DomainError(f"characteristic {name} must be finite")


@dataclass(frozen=True)
class Moebius:
    """An SL(2,C) matrix (a b; c d), renormalized to det = 1; a real one with
    det > 0 stays real."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det == 0:
            raise DomainError("Moebius matrix is singular")
        r = cmath.sqrt(det) if isinstance(det, complex) or det < 0 else math.sqrt(det)
        object.__setattr__(self, "a", self.a / r)
        object.__setattr__(self, "b", self.b / r)
        object.__setattr__(self, "c", self.c / r)
        object.__setattr__(self, "d", self.d / r)

    def __call__(self, z):
        """(Mz, cz + d) with Mz = (az + b)/(cz + d): the package's one Moebius
        map and pole check (PoleHit when |cz + d| < 1e-12)."""
        j = self.c * z + self.d
        if abs(j) < 1e-12:
            raise PoleHit(f"c z + d = {j} below tolerance")
        return (self.a * z + self.b) / j, j


def _as_point(tau) -> ModularPoint:
    return tau if isinstance(tau, ModularPoint) else ModularPoint(complex(tau))


_ETA_CHAR = ThetaChar(1 / 3, 1)


def dedekind_eta(tau) -> complex:
    """eta(tau) = q^(1/24) prod_{n>=1} (1 - q^n) = sum_k (-1)^k q^((6k+1)^2/24)
    (Euler's pentagonal theorem) = e^(-i pi/6) theta[1/3; 1](0 | 3 tau), with
    q^(1/24) = e^(i pi tau/12) so that eta(tau + 1) = e^(i pi/12) eta(tau)."""
    pt = _as_point(tau)
    pt.require_qseries_domain()
    return cmath.exp(-1j * cmath.pi / 6) * theta_char(_ETA_CHAR, 0, 3 * pt.tau)


def eisenstein_holo(k: int, tau) -> complex:
    """Holomorphic Eisenstein series E_k, k in {2, 4, 6}, from the theta
    constants of :func:`thetas_e2`: with a, b, c = theta2^4, theta3^4,
    theta4^4, E4 = (a^2 + b^2 + c^2)/2 and E6 = (b + c)(a + b)(c - a)/2."""
    if k not in (2, 4, 6):
        raise DomainError(f"k must be one of 2, 4, 6, got {k}")
    e2, *th = _series(tau)
    if k == 2:
        return e2
    a, b, c = _fourth_powers(*th)
    return (a * a + b * b + c * c) / 2 if k == 4 else (b + c) * (a + b) * (c - a) / 2


_CLASSICAL_CHARS = {
    1: ThetaChar(1, 1),
    2: ThetaChar(1, 0),
    3: ThetaChar(0, 0),
    4: ThetaChar(0, 1),
}


def theta(j: int, v, tau) -> complex:
    """Jacobi theta function theta_j(v|tau), j in {1, 2, 3, 4}."""
    if j not in _CLASSICAL_CHARS:
        raise DomainError(f"j must be one of 1..4, got {j}")
    return theta_char(_CLASSICAL_CHARS[j], v, tau)


def _theta_terms(ch: ThetaChar, v, tau, weight):
    """Sum weight(m + a/2) * exp(i pi tau (m+a/2)^2 + 2 i pi (v+b/2)(m+a/2))
    symmetrically around the peak of the Gaussian envelope, stopping once
    three flanking pairs in a row fall below TOL * max(1, |partial|).

    Re a is first reduced modulo 2 into [-1, 1] (theta[a + 2; b] =
    theta[a; b]: the shift relabels m) and Re v modulo 1 into [-1/2, 1/2]
    (theta[a; b](v + k) = e^(i pi a k) theta[a; b](v) for integer k, and
    so for the v-derivative), both exactly, so a huge characteristic or v
    costs no digits and no terms; a in [-1, 1] and v with |Re v| <= 1/2
    are left as they are."""
    pt = _as_point(tau)
    pt.require_qseries_domain()
    z = pt.tau
    a = complex(ch.a)
    a = complex(math.remainder(a.real, 2), a.imag)
    b = complex(ch.b)
    v = complex(v)
    if not cmath.isfinite(v):
        raise DomainError(f"theta needs a finite v, got v = {v}")
    shift = v.real - math.remainder(v.real, 1)  # an integer k, exactly
    phase_v = v - shift + b / 2

    def term(m: int) -> complex:
        n = m + a / 2
        return weight(n) * cmath.exp(
            1j * cmath.pi * z * n * n + 2j * cmath.pi * phase_v * n
        )

    center = int(round(-a.real / 2))
    quiet = 0
    try:
        total = term(center)
        # flank the center until both one-sided tails are below tolerance for
        # a few consecutive terms (guards against the phase factor masking a
        # not-yet-decaying Gaussian)
        for step in range(1, MAX_TERMS + 1):
            t_hi = term(center + step)
            t_lo = term(center - step)
            total += t_hi + t_lo
            if max(abs(t_hi), abs(t_lo)) < TOL * max(1.0, abs(total)):
                quiet += 1
                if quiet >= 3:
                    break
            else:
                quiet = 0
        if shift:
            p, q = a.real.as_integer_ratio()
            turns = p * int(shift) % (2 * q) / q  # Re(a) k modulo 2
            total *= (-1.0 if turns == 1 else cmath.exp(1j * math.pi * turns)) * math.exp(
                -math.pi * a.imag * shift)
    except OverflowError:  # cmath.exp, math.exp or abs past the float range
        total = cmath.nan
    if not cmath.isfinite(total):
        raise DomainError(f"theta at v = {v}, tau = {z} overflows a float")
    if quiet < 3:
        raise TruncationNotReached(f"theta series: MAX_TERMS = {MAX_TERMS} terms spent")
    return total


def theta_char(ch: ThetaChar, v, tau) -> complex:
    """theta[a;b](v|tau) with arbitrary complex characteristics."""
    return _theta_terms(ch, v, tau, lambda n: 1.0)


def theta_char_vderiv(ch: ThetaChar, v, tau) -> complex:
    """d/dv of theta[a;b](v|tau), term-by-term."""
    return _theta_terms(ch, v, tau, lambda n: 2j * cmath.pi * n)


def thetas_e2(p, p4):
    """(E2, theta2, theta3, theta4) at v = 0 from the nome
    p = e^(i pi tau), |p| < 1, and p4 = p^(1/4) = e^(i pi tau/4):

        theta3, theta4 = 1 + 2 sum_{n>=1} (+-1)^n p^(n^2)
        theta2         = 2 p^(1/4) B,      B  = sum_{n>=0} p^(n(n+1))
        E2             = 3 + 12 B'/B - theta3^4 - theta4^4,
                                           B' = sum_{n>=1} n(n+1) p^(n(n+1))

    E2 is Halphen's E2 + theta3^4 + theta4^4 = 24 D log theta2 with
    D = q d/dq, q = p^2.  The powers come by recurrence, p^((n+1)^2) =
    p^(n^2) p^(2n+1), so the four sums share one set of products and no
    exponential is taken per term.  The same code runs on a float nome
    (tau = iS, p = e^(-pi S)) in real arithmetic and on a complex one.  The
    loop stops once |p^(n^2)| and |n(n+1) p^(n(n+1))| are both below TOL;
    past MAX_TERMS it raises TruncationNotReached.
    """
    s = alt = b_sum = db_sum = 0.0  # sum p^(n^2), sum (-1)^n p^(n^2), B - 1, B', n >= 1
    a = b = 1.0  # p^(n^2), p^(n(n+1)) at n = 0
    odd = p  # p^(2n - 1)
    sign = 1.0
    for n in range(1, MAX_TERMS + 1):
        a *= odd
        odd *= p
        b *= odd
        odd *= p
        sign = -sign
        s += a
        alt += sign * a
        b_sum += b
        db = n * (n + 1) * b
        db_sum += db
        if abs(a) < TOL and abs(db) < TOL:
            break
    else:
        raise TruncationNotReached(f"thetas_e2: MAX_TERMS = {MAX_TERMS} terms spent")
    th3, th4 = 1 + 2 * s, 1 + 2 * alt
    e2 = 3 + 12 * db_sum / (1 + b_sum) - (th3 * th3) * (th3 * th3) - (th4 * th4) * (th4 * th4)
    return e2, 2 * p4 * (1 + b_sum), th3, th4


def _series(tau):
    """:func:`thetas_e2` at tau, Im tau >= 0.05: the one tau entry, behind E_k,
    the Halphen closed forms, the Schwarz lambda and the conformal w."""
    pt = _as_point(tau)
    pt.require_qseries_domain()
    z = pt.tau
    return thetas_e2(cmath.exp(1j * cmath.pi * z), cmath.exp(0.25j * cmath.pi * z))


def _fourth_powers(th2, th3, th4):
    """(theta2^4, theta3^4, theta4^4) by two squarings each."""
    return (th2 * th2) * (th2 * th2), (th3 * th3) * (th3 * th3), (th4 * th4) * (th4 * th4)


def apply_moebius(M: Moebius, tau):
    """M tau: a ModularPoint when possible, else the bare complex value (the
    map can leave the upper half-plane for complex matrices)."""
    value = M(_as_point(tau).tau)[0]
    return ModularPoint(value) if value.imag > 0 else value


def weight2_transport(w, M: Moebius, s: int = 1):
    """The function z -> (cz+d)^-2 w(Mz) + s c/(cz+d), componentwise, for a
    triple-valued w: the one weight-2 action.  s = 1 (the law of E2) carries
    Darboux-Halphen solutions to solutions; s = 0 is the plain weight-2 law.
    A real M and a real z give real values."""

    def transported(z):
        mz, j = M(z)
        return tuple(v / j**2 + s * M.c / j for v in w(mz))

    return transported
