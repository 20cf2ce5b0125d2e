"""Non-holomorphic (Maass) Eisenstein series E_s(tau, taubar).

Two independent evaluation routes:

* a direct lattice sum over Z + tau*Z with a shell cutoff and an
  integral tail estimate (converges for s > 1 only), and
* the Bessel--Fourier expansion
  2 xi(2s) E_s = 2 xi(2s) y^s + 2 xi(2s-1) y^(1-s)
               + 4 sqrt(y) sum_{n!=0} sigma_{2s-1}(|n|)/|n|^(s-1/2)
                 K_{s-1/2}(2 pi |n| y) e^(2 pi i n x),
  which converges for every s != 1.  Its Bessel factors come in closed
  form where s is an integer and the order s - 1/2 is n + 1/2 with n up
  to CLOSED_FORM_MAX_N, and from one trapezoid table elsewhere.

The two routes cross-check each other; neither is derived from the
other anywhere in this package.  numpy is imported only by the functions
that build arrays: the lattice route and the Bessel table.  The integer-s
Fourier route runs without it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
    sum estimates its own dropped tail.  D_3 and C_{2,2,1}, which the
    amplitudes module takes from their Eisenstein reductions, check R but
    do not use it.
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
    import numpy as np

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
    import numpy as np

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


def _zeta_condition(w: float) -> float:
    """How far riemann_zeta(w) amplifies rounding past its own few 2^-53,
    in units of 2^-53: 2^(1-w)/|1 - 2^(1-w)| from the denominator that
    cancels near the pole, and below 0 |(pi w/2)/sin(pi w/2)| from sin near
    the trivial zeros plus twice the condition of zeta(1 - w), for the
    rounding of 1 - w."""
    if w >= 55 or (w < 0 and w % 2 == 0):  # 1.0 and the trivial zeros are exact
        return 0.0
    if w < 0:
        half = math.pi * w / 2
        return abs(half / math.sin(half)) + 2 * _zeta_condition(1 - w)
    return 2 ** (1 - w) / abs(1 - 2 ** (1 - w))


def _xi_condition(w: float) -> float:
    """The same for completed_zeta(w), through the zeta it calls."""
    return _zeta_condition(w) if w >= 0.5 else 2 * _zeta_condition(1 - w)


def _besselk_modes(nu: float, x1: float, count: int):
    """K_nu(n x1) for n = 1 .. count and x1 > 0, by the trapezoid rule on

        K_nu(x) = e^(-x) int_0^inf e^(-x (cosh t - 1)) cosh(nu t) dt,

    which converges geometrically in the step for this integrand.  With
    g = e^(-x1 (cosh t - 1)), mode n's integrand is g^n cosh(nu t), mode
    1's times g^(n-1), so one table serves every mode: a cumulative product
    of g, then one matrix-vector product with mode 1's integrand.  The
    step is mode count's, the smallest of min(0.2, 0.5/sqrt(x), 1.5/(|nu| +
    1)), and the table runs to mode 1's t_max, the largest, where x1 (cosh t
    - 1) - |nu| t = 40.  Mode 1's integrand is formed as (e^(nu t - e) +
    e^(-nu t - e))/2 with e = x1 (cosh t - 1), so no factor overflows where
    K_nu(x1) does not."""
    import numpy as np

    nu = abs(nu)
    if count == 0:
        return np.empty(0)
    h = min(0.2, 0.5 / math.sqrt(count * x1), 1.5 / (nu + 1))
    t_max = math.acosh(1 + 40 / x1)
    for _ in range(8):  # contraction: slope nu / (x1 sinh t) < nu / (40 + nu t)
        t_max = math.acosh(1 + (40 + nu * t_max) / x1)
    t = np.arange(1, math.ceil(t_max / h) + 1) * h
    e = x1 * (np.cosh(t) - 1)
    f = 0.5 * (np.exp(nu * t - e) + np.exp(-nu * t - e))
    powers = np.empty((count, t.size))  # g^(n-1), n = 1 .. count
    powers[0] = 1.0
    powers[1:] = np.exp(-e)
    powers.cumprod(axis=0, out=powers)
    return np.exp(-x1 * np.arange(1, count + 1)) * h * (0.5 + powers @ f)


# K_(n+1/2) is taken in closed form up to this n.  Through n = 29 it is
# faster than the table (1.3x at 30 modes and n = 29, 8x at 12 modes and
# n = 0) and closer to mpmath (2-12 units of 2^-53, the table up to 354); at
# n = 39 and 30 modes the two cost the same
CLOSED_FORM_MAX_N = 29


def _besselk_half_modes(coefs: tuple, x1: float, count: int) -> list:
    """K_(n+1/2)(m x1) for m = 1 .. count and x1 > 0 in closed form (DLMF
    10.49.12),

        K_(n+1/2)(x) = sqrt(pi/(2x)) e^(-x) sum_(k<=n) a_k (2x)^(-k),
        a_k = (n+k)! / (k! (n-k)!),

    with coefs = (a_n, .., a_0), for Horner's rule in t = 1/(2x).  Every
    term is positive, so the sum rounds by at most 3n + 1 units of 2^-53:
    2n in Horner's products and sums, one in the rounded coefficients, and
    n from the rounding of t, which the sum amplifies by t P'(t)/P(t) <= n."""
    out = []
    for m in range(1, count + 1):
        x = m * x1
        t = 0.5 / x
        p = 0.0
        for a in coefs:
            p = p * t + a
        out.append(math.sqrt(math.pi * t) * math.exp(-x) * p)
    return out


MODE_BAR = 2.0**-60  # modes whose bound is below this share of the zero modes are not summed
MAX_MODES = 30  # work bound: at most this many Fourier modes of E_s are summed


def _tail_bound(n: int, beta: float, x1: float, inv_xi: float) -> float:
    """A bound on |mode k| summed over k >= n >= 1, where mode k (k and -k
    together) is 4 sqrt(y) F_k K_beta(k x1) cos(2 pi k x) / xi(2s) with
    F_k = sigma_{-2 beta}(k) k^beta, beta = |s - 1/2|, x1 = 2 pi y and
    inv_xi = 1/|xi(2s)|; inf where the bound does not hold yet.

    F_k <= d(k) k^beta <= 2 k^(beta + 1/2), and from the integral of DLMF
    10.32.8, K_beta(x) <= sqrt(pi/(2x)) e^(-x) c(x) with c = 1 for
    beta <= 1/2 and c = (1 - (beta - 1/2)/(2x))^(-(beta + 1/2)) for
    2x > beta - 1/2, decreasing in x.  So |mode k| <= 4 inv_xi c(k x1)
    k^beta e^(-k x1), and with r = (1 + 1/n)^beta e^(-x1) < 1, the largest
    ratio of consecutive terms of k^beta e^(-k x1) from n on, the tail is
    at most 4 inv_xi c(n x1) n^beta e^(-n x1) / (1 - r)."""
    if inv_xi == 0.0:  # every mode carries 1/xi(2s)
        return 0.0
    r = (1 + 1 / n) ** beta * math.exp(-x1)
    if not (2 * n * x1 > beta - 0.5 and r < 1):
        return math.inf
    log_c = 0.0 if beta <= 0.5 else -(beta + 0.5) * math.log1p(-(beta - 0.5) / (2 * n * x1))
    log_tail = math.log(4 * inv_xi) + log_c + beta * math.log(n) - n * x1 - math.log1p(-r)
    return math.exp(log_tail) if log_tail < 709 else math.inf


def _mode_count(s: float, x1: float, xi2s: float, bar: float):
    """(N, tail) for `eisenstein_fourier`: N the first n >= 0 whose
    `_tail_bound` from mode n + 1 on is below `bar`, at most MAX_MODES, and
    tail that bound from N + 1 on.  Every factor of the bound but
    4 e^(-n x1) / |xi(2s)| is >= 1, so the search starts just below the
    first n where this one falls under `bar`."""
    beta, inv_xi = abs(s - 0.5), 1 / abs(xi2s)
    n = 0
    if 0 < bar < math.inf and inv_xi > 0:
        first = (math.log(4 * inv_xi) - math.log(bar)) / x1
        n = max(0, math.floor(min(MAX_MODES + 1.0, first)) - 1)
    while True:
        tail = _tail_bound(n + 1, beta, x1, inv_xi)
        if tail < bar or n == MAX_MODES:
            return n, tail
        n += 1


def _log_xi(w: float) -> tuple:
    """(log xi(w), c) for w > 1, where xi(w) = zeta(w) Gamma(w/2) pi^(-w/2)
    is positive, through math.lgamma, and c a bound on the absolute rounding
    of the log in units of 2^-53: 8 per unit of lgamma(w/2) and (w/2) log(pi),
    a few lgamma ulps each, and zeta's condition.  exp of the log then
    rounds by c + 1 units, relative."""
    lg, lp = math.lgamma(w / 2), w / 2 * math.log(math.pi)
    return lg - lp + math.log(riemann_zeta(w)), 8 * (lg + lp) + 4 + _zeta_condition(w)


@functools.lru_cache(maxsize=256)
def _fourier_factors(s: float) -> tuple:
    """The factors of `eisenstein_fourier` that depend on s alone:
    (2 zeta(2s), xi(2s), xi(2s - 1)/xi(2s), (F_n for n = 1 .. MAX_MODES),
    conditions, coefs), the conditions those of the first, of the third and
    of each mode n >= 1 (`_zeta_condition`), and F_n = sigma_{-2 beta}(n)
    n^beta, beta = |s - 1/2|, which is
    sigma_{1-2s}(n) n^(s-1/2) = sigma_{2s-1}(n) / n^(s-1/2).  Neither of its
    two factors is larger than F_n, so they stay in the float range
    wherever F_n does; an F_n past it is stored as inf, and E_s overflows
    (DomainError) only if its mode n is summed.

    Where beta = n + 1/2 with an integer n <= CLOSED_FORM_MAX_N (integer s
    from -CLOSED_FORM_MAX_N to CLOSED_FORM_MAX_N + 1), coefs are the
    closed-form coefficients of `_besselk_half_modes` and each mode's
    condition has their 3n + 1 added; elsewhere coefs is None.

    Above s = 171.6, Gamma(s) overflows in completed_zeta(2s) although
    xi(2s) is a float up to s = 219; there xi(2s) and the ratio are taken
    through logs (`_log_xi`).

    Cached on s, never on tau.
    """
    norm = 2 * riemann_zeta(2 * s)
    try:
        # xi(2s) has its pole at s = 0, where every mode divided by it vanishes
        xi2s = math.inf if s == 0 else completed_zeta(2 * s)
        ratio = completed_zeta(2 * s - 1) / xi2s
    except DomainError:
        if s < 1:  # Gamma(1 - 2s) overflows in zeta's reflection: not taken in logs
            raise
        (log_xi2s, xi_cond), (log_xi, ratio_cond) = _log_xi(2 * s), _log_xi(2 * s - 1)
        try:
            xi2s = math.exp(log_xi2s)
        except OverflowError:
            raise DomainError(f"xi(2s) overflows a float at s = {s}")
        ratio = math.exp(log_xi - log_xi2s)
        ratio_cond += xi_cond
    else:
        xi_cond = 0.0 if s == 0 else _xi_condition(2 * s)
        ratio_cond = _xi_condition(2 * s - 1) + xi_cond
    beta = abs(s - 0.5)
    factors = []
    for n in range(1, MAX_MODES + 1):
        try:
            factors.append(divisor_sigma(-2 * beta, n) * n**beta)
        except OverflowError:
            factors.append(math.inf)
    coefs, mode_cond = None, xi_cond
    order = beta - 0.5  # K_(order+1/2)
    if order.is_integer() and order <= CLOSED_FORM_MAX_N:
        n = int(order)
        coefs = tuple(float(math.factorial(n + k) // (math.factorial(k) * math.factorial(n - k)))
                      for k in range(n, -1, -1))
        mode_cond += 3 * n + 1
    conditions = (_zeta_condition(2 * s), ratio_cond, mode_cond)
    return norm, xi2s, ratio, tuple(factors), conditions, coefs


def eisenstein_fourier(s: float, tau) -> MaassValue:
    """E_s by the Bessel--Fourier expansion, for real s other than 1 and
    1/2 (PoleAtS).  At s = 1/2 the poles of zeta(2s) and xi(2s - 1) cancel,
    and that limit is not taken.

    Normalized to the full lattice sum sum' y^s/|p|^(2s), i.e. 2*zeta(2s)
    times the primitive (coprime-pair) Eisenstein series whose expansion
    has leading term y^s.  Every other mode carries 1/xi(2s), which
    vanishes at the pole s = 0 of xi(2s), so E_0 = 2 zeta(0) = -1.  E_s is
    SL(2,Z)-invariant, so tau is first folded into the fundamental domain,
    where Im tau >= sqrt(3)/2.  The factors that depend on s alone come
    from `_fourier_factors`, computed once per s.

    The modes 1 .. N are summed, N the first n whose tail bound
    (`_tail_bound`) from n + 1 on is below MODE_BAR of the zero modes, and
    at most MAX_MODES.  Their Bessel factors K_(s-1/2) come in closed form
    (`_besselk_half_modes`) at integer s from -CLOSED_FORM_MAX_N to
    CLOSED_FORM_MAX_N + 1, s = 2 .. 30 among them, and from one table
    (`_besselk_modes`) at every other s.  The bar is the tail bound from
    mode N + 1 on plus a rounding floor: 2^-53 per possible mode,
    MAX_MODES + 2, of the sum of |mode|, 2^-53 2 (|s - 1/2| + 2 pi N y) of
    the sum of |mode n| over n >= 1, and 2^-53 (3n + 1) more of it for a
    closed form of order n + 1/2, and the rounding of the s-only factors
    where zeta or sin cancels (near s = 1/2, 1 and the trivial zeros of
    zeta(2s)) or where xi(2s) is taken through logs (s > 171.6).
    """
    _check_s(s)
    if s == 1:
        raise PoleAtS("E_s has a pole at s = 1")
    if s == 0.5:
        raise PoleAtS("E_s at s = 1/2 is the limit where the poles of zeta(2s) and "
                      "xi(2s - 1) cancel, and that limit is not taken")
    tau = fold_to_fundamental(tau)
    x, y = tau.real, tau.imag
    norm, xi2s, ratio, factors, (norm_cond, ratio_cond, mode_cond), coefs = _fourier_factors(s)
    try:  # the zero modes
        modes = [y**s, ratio * y ** (1 - s)]
    except OverflowError:
        modes = [math.inf]
    x1 = 2 * math.pi * y
    count, tail = _mode_count(s, x1, xi2s, MODE_BAR * sum(map(abs, modes)))
    if coefs is None:
        besselk = _besselk_modes(s - 0.5, x1, count).tolist()
    else:
        besselk = _besselk_half_modes(coefs, x1, count)
    for n, (bessel, factor) in enumerate(zip(besselk, factors), 1):
        if bessel == 0.0:  # underflow of the exponentially small tail
            break
        coef = 4 * math.sqrt(y) * factor * bessel / (2 * xi2s)
        modes.append(coef * 2 * math.cos(2 * math.pi * n * x))
    total = 0.0
    for mode in modes:  # one rounding per mode, in order on every Python version
        total += mode
    value = norm * total
    if not math.isfinite(value):
        raise DomainError(f"E_s overflows a float at s = {s}, tau = {tau}")
    # 2^-53 per possible mode of the sum of |mode|, twice |nu| + x per mode
    # n >= 1 (K_nu(x) amplifies the rounding of x = 2 pi n y by up to
    # |nu| + x), the conditions of the s-only factors and the closed form's
    # rounding; 2 zeta(2s) is negative at many s < 1/2 (s = 1/4 among them)
    per_mode = 2 * (abs(s - 0.5) + count * x1) + mode_cond
    rounding = 2.0**-53 * ((MAX_MODES + 2) * sum(map(abs, modes)) + ratio_cond * abs(modes[1])
                           + per_mode * sum(map(abs, modes[2:])))
    est_error = abs(norm) * (tail + rounding) + 2.0**-53 * norm_cond * abs(value)
    return MaassValue(value=value, est_error=est_error)


def laplacian_eigencheck(s: float, tau, h: float) -> float:
    """|y^2 (d_xx + d_yy) E_s - s(s-1) E_s| / |E_s| with 5-point stencils
    on Fourier-path values."""
    tau = _as_point(tau).tau
    x, y = tau.real, tau.imag
    check_step(h, y / 10, "Im(tau)/10")

    def E(xx, yy):
        return eisenstein_fourier(s, complex(xx, yy)).value

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
