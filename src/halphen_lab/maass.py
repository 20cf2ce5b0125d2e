"""Non-holomorphic (Maass) Eisenstein series E_s(tau, taubar).

Two independent evaluation routes:

* a direct lattice sum over Z + tau*Z with a shell cutoff and an
  integral tail estimate (converges for s > 1 only), and
* the Bessel--Fourier expansion
  2 xi(2s) E_s = 2 xi(2s) y^s + 2 xi(2s-1) y^(1-s)
               + 4 sqrt(y) sum_{n!=0} sigma_{2s-1}(|n|)/|n|^(s-1/2)
                 K_{s-1/2}(2 pi |n| y) e^(2 pi i n x),
  which converges for every s != 1.

The two routes cross-check each other; neither is derived from the
other anywhere in this package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooLarge, DivergentParameter, DomainError, OutOfRange, PoleAtS
from .modforms import _as_point
from .numdiff import check_step, second_5pt

__all__ = [
    "LatticeSumSpec",
    "MaassValue",
    "eisenstein_lattice",
    "eisenstein_fourier",
    "laplacian_eigencheck",
    "divisor_sigma",
    "completed_zeta",
    "riemann_zeta",
    "fold_to_fundamental",
]


@dataclass(frozen=True)
class LatticeSumSpec:
    """Truncation policy for sums over Z + tau*Z.

    R is the largest |m + n tau| of the Eisenstein lattice sum and the
    half-width of the square momentum grid of the D_n and graph sums; each
    sum estimates its own dropped tail.
    """

    R: float = 120.0

    def __post_init__(self):
        if self.R < 2:
            raise DomainError("shell cutoff R must be >= 2")


MAX_ARRAY_BYTES = 2**28  # the largest array one lattice or momentum sum may build


def _check_array_size(items, itemsize: int, what: str):
    """CutoffTooLarge if the largest array `what` builds, `items` entries of
    `itemsize` bytes, exceeds MAX_ARRAY_BYTES."""
    size = items * itemsize
    if not size <= MAX_ARRAY_BYTES:
        raise CutoffTooLarge(f"{what} would build an array of up to {size / 2**30:.3g} GiB, "
                             f"above the {MAX_ARRAY_BYTES >> 20} MiB budget")


@dataclass(frozen=True)
class MaassValue:
    value: float
    est_error: float = 0.0
    note: str = ""

    def __post_init__(self):
        if self.est_error < 0:
            raise DomainError("est_error must be >= 0")

    def agrees_with(self, other: "MaassValue") -> bool:
        return abs(self.value - other.value) <= self.est_error + other.est_error


def lattice_points(tau, R: float):
    """One point of each pair +-p of Z + tau*Z with 0 < |p| <= R: the rows
    n > 0, and n = 0 with m > 0, as a complex array of p = m + n*tau.

    Row n holds |m + n x| <= sqrt(R^2 - n^2 y^2); it is taken one m wider
    on each side than that window, then cut at |p| <= R, so rounding at
    the edge keeps exactly the points of the full cut.  The full set is
    this half and its negation, and -p has the bits of p negated, so any
    even function of p has the same value on both halves, and twice a sum
    over the half is the sum over the whole set with the same rounding,
    since doubling is exact."""
    tau = _as_point(tau).tau
    x, y = tau.real, tau.imag
    # floor(R/y) + 1 rows of at most 2R + 5 points each
    _check_array_size((R / y + 1) * (2 * R + 5), 16, f"the lattice sum at R = {R}")
    n = np.arange(int(math.floor(R / y)) + 1)
    reach = np.sqrt(np.maximum(R * R - (n * y) ** 2, 0.0))
    lo = np.floor(-n * x - reach).astype(np.int64) - 1
    hi = np.ceil(-n * x + reach).astype(np.int64) + 1
    lo[0] = 1  # row 0 keeps m > 0 only
    # the rows side by side: a running index, less its row's start, plus lo
    width = hi - lo + 1
    start = np.cumsum(width) - width
    rows = np.repeat(n, width)
    m = np.arange(width.sum()) + np.repeat(lo - start, width)
    p = m + rows * tau
    return p[np.abs(p) <= R]


def eisenstein_lattice(
    s: float, tau, spec: LatticeSumSpec = LatticeSumSpec()
) -> MaassValue:
    """E_s(tau) = sum_{p in Z + tau Z, p != 0} y^s / |p|^(2s), truncated
    at |p| <= R plus the continuum tail

        int_{|p| > R} y^s |p|^(-2s) d^2p / y = 2 pi y^(s-1) R^(2-2s) / (2s-2)

    (lattice density 1/y).  The tail matches the discrete remainder to a
    few parts in 10^3, so it is added to the value; the quoted error is
    the empirically calibrated residual of that correction, tail*30/R^2,
    plus the rounding of the sum.  The terms are even in p, so the sum
    runs over lattice_points' half lattice and is doubled.  numpy sums
    the n positive terms pairwise, which rounds by at most
    (ceil(log2 n) + 18) 2^-53 of the sum (`_pairwise_rounding`)."""
    _check_s(s)
    if not s > 1:
        raise DivergentParameter(f"lattice sum needs s > 1, got s = {s}")
    tau = _as_point(tau).tau
    y = tau.imag
    p = lattice_points(tau, spec.R)
    # (y/|p|^2)^s underflows to 0 far out where |p|^(2s) alone would overflow
    with np.errstate(over="ignore"):  # an overflowing term is caught below
        terms = (y / (p.real**2 + p.imag**2)) ** s
        value = 2.0 * float(terms.sum())
    if value == math.inf:  # p = 1 adds y^s, so y ** (s - 1) cannot overflow alone
        raise DomainError(f"E_s overflows a float at s = {s}, tau = {tau}")
    tail = 2 * math.pi * y ** (s - 1) * spec.R ** (2 - 2 * s) / (2 * s - 2)
    return MaassValue(value=value + tail,
                      est_error=tail * 30.0 / spec.R**2 + _pairwise_rounding(terms.size) * value)


def _pairwise_rounding(n: int) -> float:
    """Relative rounding bound of numpy's pairwise sum of n >= 1 terms of
    one sign: (ceil(log2 n) + 18) 2^-53.  numpy halves an array of more
    than 128 terms recursively; a block of at most 128 goes into 8 running
    sums of at most 16 terms, a tree of depth 3 joins them and its last
    n mod 8 terms are added one by one.  So no term passes through more
    than ceil(log2 n) + 17 roundings, and one more 2^-53 covers their
    product."""
    return (math.ceil(math.log2(n)) + 18) * 2.0**-53


def _check_s(s):
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got s = {s}")


def divisor_sigma(alpha: float, n: int) -> float:
    """sigma_alpha(n) = sum over divisors d of n of d^alpha."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    total = 0.0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += float(d) ** alpha
            e = n // d
            if e != d:
                total += float(e) ** alpha
        d += 1
    return total


def riemann_zeta(s: float) -> float:
    """zeta(s) for real s != 1 via the alternating (Dirichlet eta) series
    with Euler-transform acceleration; continued to s <= 0 through the
    functional equation."""
    if s == 1:
        raise PoleAtS("zeta has a pole at s = 1")
    if s < 0:
        if s % 2 == 0:
            # the trivial zeros, where sin(pi s/2) rounds to about 1e-16 |s|
            return 0.0
        # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
        try:
            gamma = math.gamma(1 - s)
        except OverflowError:
            raise DomainError(f"Gamma(1 - s) in zeta's functional equation overflows at s = {s}")
        return (
            2.0**s
            * math.pi ** (s - 1)
            * math.sin(math.pi * s / 2)
            * gamma
            * riemann_zeta(1 - s)
        )
    if s >= 55:
        # zeta(s) - 1 < 2^-54 rounds away, and k^s would overflow for s > 170.7
        return 1.0
    weights, dn = _eta_weights(64)
    eta = 0.0
    for k, w in enumerate(weights, 1):
        eta += w / float(k) ** s
    eta /= dn
    return eta / (1 - 2.0 ** (1 - s))


@functools.cache
def _eta_weights(n: int):
    """Signed Cohen--Rodriguez Villegas--Zagier weights (-1)^(k-1)(d_n -
    d_(k-1)), k = 1..n, and d_n, for eta(s) = sum (-1)^(k-1) k^-s."""
    dk = [float(n)]
    t = float(n)
    for i in range(1, n + 1):
        t = t * 2 * (n + i - 1) * (n - i + 1) / ((2 * i - 1) * (2 * i))
        dk.append(dk[-1] + t)
    dn = dk[n]
    return tuple((-1) ** (k - 1) * (dn - dk[k - 1]) for k in range(1, n + 1)), dn


def completed_zeta(s: float) -> float:
    """xi(s) = zeta(s) Gamma(s/2) pi^(-s/2); satisfies xi(s) = xi(1-s)."""
    if s in (0.0, 1.0):
        raise PoleAtS(f"completed zeta has a pole at s = {s}")
    try:
        if s >= 0.5:
            return riemann_zeta(s) * math.gamma(s / 2) * math.pi ** (-s / 2)
        # For s < 1/2 the naive product is 0 * inf at the trivial zeros;
        # combine zeta's functional equation with the Gamma reflection
        # formula into a form finite everywhere:
        #   xi(s) = 2^s pi^(s/2 - 1) Gamma(1-s) zeta(1-s) / Gamma(1 - s/2) * pi
        return (
            2.0**s
            * math.pi ** (s / 2)
            * math.gamma(1 - s)
            / math.gamma(1 - s / 2)
            * riemann_zeta(1 - s)
        )
    except OverflowError:
        raise DomainError(f"completed zeta overflows a float at s = {s}")


def _besselk(nu: float, x):
    """K_nu(x) for an array of x > 0 by the trapezoid rule on

        K_nu(x) = e^(-x) int_0^inf e^(-x (cosh t - 1)) cosh(nu t) dt,

    which converges geometrically in the step for this integrand.  The
    step is h = min(0.2, 0.5/sqrt(x), 1.5/(|nu| + 1)) and the rule runs to
    t_max with x (cosh t - 1) - |nu| t = 40."""
    nu = abs(nu)
    if x.size == 0:
        return x
    h = np.minimum(np.minimum(0.2, 0.5 / np.sqrt(x)), 1.5 / (nu + 1))
    t_max = np.arccosh(1 + 40 / x)
    for _ in range(8):  # contraction: slope nu / (x sinh t) < nu / (40 + nu t)
        t_max = np.arccosh(1 + (40 + nu * t_max) / x)
    t = np.arange(1, int(np.ceil(np.max(t_max / h))) + 1) * h[:, None]
    e = x[:, None] * (np.cosh(t) - 1)
    f = 0.5 * (np.exp(nu * t - e) + np.exp(-nu * t - e))
    return np.exp(-x) * h * (0.5 + f.sum(axis=1))


def eisenstein_fourier(s: float, tau, n_max: int = 30) -> MaassValue:
    """E_s by the Bessel--Fourier expansion; valid for all real s != 1.

    Normalized to the full lattice sum sum' y^s/|p|^(2s), i.e. 2*zeta(2s)
    times the primitive (coprime-pair) Eisenstein series whose expansion
    has leading term y^s.  E_s is SL(2,Z)-invariant, so tau is first
    folded into the fundamental domain, where Im tau >= sqrt(3)/2.
    """
    _check_s(s)
    if s == 1:
        raise PoleAtS("E_s has a pole at s = 1")
    tau = fold_to_fundamental(tau)
    x, y = tau.real, tau.imag
    norm = 2 * riemann_zeta(2 * s)
    xi2s = completed_zeta(2 * s)
    try:  # the zero modes
        modes = [y**s, completed_zeta(2 * s - 1) / xi2s * y ** (1 - s)]
    except OverflowError:
        modes = [math.inf]
    last_term = 0.0
    besselk = _besselk(s - 0.5, 2 * math.pi * np.arange(1, n_max + 1) * y)
    for n, bessel in enumerate(besselk.tolist(), 1):
        if bessel == 0.0 or not math.isfinite(bessel):
            # underflow of the exponentially small tail: legitimately drop
            last_term = 0.0
            break
        coef = (
            4
            * math.sqrt(y)
            * divisor_sigma(2 * s - 1, n)
            / n ** (s - 0.5)
            * bessel
            / (2 * xi2s)
        )
        modes.append(coef * 2 * math.cos(2 * math.pi * n * x))
        last_term = abs(coef) * 2
    total = 0.0
    for mode in modes:  # one rounding per mode, in order on every Python version
        total += mode
    value = norm * total
    if not math.isfinite(value):
        raise DomainError(f"E_s overflows a float at s = {s}, tau = {tau}")
    # the first dropped mode, plus a rounding floor of 2^-53 per mode added
    # of the sum of |mode|; 2 zeta(2s) is negative at many s < 1/2 (s = 1/4
    # among them)
    rounding = len(modes) * 2.0**-53 * sum(map(abs, modes))
    return MaassValue(value=value, est_error=abs(norm) * (last_term + rounding))


def laplacian_eigencheck(s: float, tau, h: float) -> float:
    """|y^2 (d_xx + d_yy) E_s - s(s-1) E_s| / |E_s| with 5-point stencils
    on Fourier-path values (40 modes)."""
    tau = _as_point(tau).tau
    x, y = tau.real, tau.imag
    check_step(h, y / 10, "Im(tau)/10")

    def E(xx, yy):
        return eisenstein_fourier(s, complex(xx, yy), n_max=40).value

    steps = (-2, -1, 0, 1, 2)
    e0 = E(x, y)
    exx = second_5pt([E(x + k * h, y) for k in steps], h)
    eyy = second_5pt([E(x, y + k * h) for k in steps], h)
    return abs(y * y * (exx + eyy) - s * (s - 1) * e0) / abs(e0)


def fold_to_fundamental(tau) -> complex:
    """Apply T: tau -> tau + 1 and S: tau -> -1/tau until |Re| <= 1/2 and
    |tau| >= 1 (the SL(2,Z) fundamental domain); OutOfRange after 200 rounds."""
    tau = _as_point(tau).tau
    for _ in range(200):
        tau = complex(tau.real - round(tau.real), tau.imag)
        if abs(tau) >= 1 - 1e-15:
            return tau
        tau = -1 / tau
    raise OutOfRange("fold_to_fundamental did not converge")
