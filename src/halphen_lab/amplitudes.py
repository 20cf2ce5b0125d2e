"""Four-point string amplitudes and torus lattice sums.

Genus zero: the closed-form Gamma-ratio amplitude, its odd-zeta
exponential expansion, and the sigma_n power-sum recursion.  Genus one:
the torus propagator in theta and momentum-space forms, and the
Kronecker-Eisenstein graph sums D_n and the two-loop graph sums, with the
Eisenstein reductions

    D_2 = E_2 / (4 pi)^2,
    D_3 = E_3 / (4 pi)^3 + zeta(3) / 64,
    C_{2,2,1} = ((2/5) E_5 / pi^5 + zeta(5) / 30) / 4^5

(the last from D'Hoker--Green--Vanhove, arXiv:1502.06698).  D_3 and
C_{2,2,1} are evaluated by their reductions; every other sum is summed on
the momentum lattice.  numpy is imported only by the functions that build
the momentum grids and sum over them (the weight grid, its transforms and
the box sums), so the genus-zero amplitudes, D_3 and C_{2,2,1} run without
it.

Conventions: lattice momenta p = m + n tau exclude the origin; every
propagator carries tau_2 / (4 pi |p|^2).  The 1/(4 pi) normalization is
fixed by the D_2 identity together with the theta-form propagator (the
exact relation P = -1/4 log|th1(z)/th1'(0)|^2 + pi Im(z)^2/(2 tau_2)
= sum_p' tau_2 e^{2 pi i (n u - m v)} / (4 pi |p|^2) + log|sqrt(2 pi) eta|
for z = u + v tau).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import (
    DivergentParameter,
    DomainError,
    KinematicsDegenerate,
    LatticePointHit,
    NotConverged,
    PoleHit,
    WeightTooLarge,
)
from .maass import (
    LatticeSumSpec, MaassValue, _check_array_size, eisenstein_fourier, fold_to_fundamental,
    riemann_zeta,
)
from .modforms import ModularPoint, dedekind_eta, theta

__all__ = [
    "Mandelstam",
    "GraphMultiplicities",
    "tree_amplitude_gamma",
    "tree_amplitude_series",
    "sigma_n",
    "sigma_recursion_check",
    "dimension_dn",
    "genus_one_propagator",
    "genus_one_propagator_momentum",
    "kronecker_eisenstein_Dn",
    "graph_D",
]


@dataclass(frozen=True)
class Mandelstam:
    """Massless four-point kinematics; u is forced to -(s+t).  alpha' s,
    alpha' t, alpha' u and their product (the amplitude's pole prefactor)
    must be finite."""

    s: float
    t: float
    alpha_prime: float = 1.0

    def __post_init__(self):
        if self.alpha_prime <= 0:
            raise DomainError("alpha_prime must be positive")
        x, y, z = self.xs
        if not math.isfinite(x * y * z):
            raise DomainError(
                f"alpha' s t u must be finite, got s = {self.s}, t = {self.t}, "
                f"alpha' = {self.alpha_prime}"
            )

    @property
    def u(self) -> float:
        return -(self.s + self.t)

    @property
    def xs(self) -> tuple:
        """(alpha' s, alpha' t, alpha' u)."""
        ap = self.alpha_prime
        return (ap * self.s, ap * self.t, ap * self.u)


def _gamma_safe(x: float) -> float:
    if x <= 0 and abs(x - round(x)) < 1e-9:
        raise PoleHit(f"Gamma({x}) is at or near a pole")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"Gamma({x}) overflows a float")


def _finite_amplitude(value: float, k: Mandelstam) -> float:
    """value, unless the amplitude at k overflows a float (DomainError)."""
    if math.isfinite(value):
        return value
    s, t, _ = k.xs
    raise DomainError(f"the amplitude at alpha' s = {s}, alpha' t = {t} overflows a float")


def tree_amplitude_gamma(k: Mandelstam) -> float:
    """A = Gamma(1+a's) Gamma(1+a't) Gamma(1+a'u)
         / (a'^3 stu Gamma(1-a's) Gamma(1-a't) Gamma(1-a'u))."""
    xs = k.xs
    pref = xs[0] * xs[1] * xs[2]
    if pref == 0:
        raise KinematicsDegenerate("s t u = 0: pole prefactor is singular")
    num = den = 1.0
    for x in xs:
        num *= _gamma_safe(1 + x)
        den *= _gamma_safe(1 - x)
    # pref * den underflows to 0 only where the amplitude overflows
    scale = pref * den
    return _finite_amplitude(num / scale if scale else math.inf, k)


def sigma_n(k: Mandelstam, n: int) -> float:
    """Direct power sum sigma_n = (a's)^n + (a't)^n + (a'u)^n, n >= 2."""
    if n < 2:
        raise DomainError("sigma_n needs n >= 2 (sigma_1 vanishes identically)")
    return sum(x**n for x in k.xs)


def sigma_recursion_check(k: Mandelstam, n: int) -> float:
    """|sigma_n(direct) - n * sum_{2p+3q=n} ((p+q-1)!/(p! q!))
    (sigma_2/2)^p (sigma_3/3)^q|."""
    s2 = sigma_n(k, 2) / 2
    s3 = sigma_n(k, 3) / 3
    total = 0.0
    for p in range(n // 2 + 1):
        q, rem = divmod(n - 2 * p, 3)
        if rem or p == q == 0:
            continue
        total += (math.factorial(p + q - 1) / (math.factorial(p) * math.factorial(q))
                  * s2**p * s3**q)
    return abs(sigma_n(k, n) - n * total)


MAX_TERMS = 10**5  # the most exponent terms tree_amplitude_series takes

# 2 zeta(2n+1) / (2n+1), the exponent coefficient of sigma_{2n+1}, for
# 2n+1 = 3 .. 53; from 55 on riemann_zeta is exactly 1.0
_ZETA_COEFS = tuple(2 * riemann_zeta(2 * n + 1) / (2 * n + 1) for n in range(1, 27))


def tree_amplitude_series(k: Mandelstam, N: int, tol: float = 1e-12) -> float:
    """Exponential form of the tree amplitude,

        A = (1 / a'^3 stu) exp(-sum_{n>=1}^{N}
                                2 zeta(2n+1)/(2n+1) sigma_{2n+1}),

    with only odd power sums in the exponent (the even ones cancel
    between Gamma(1+x) and Gamma(1-x)).  NotConverged when the last
    retained exponent term still exceeds tol.

    It stops once every (a'x)^(2n+1) has underflowed to 0, as all later
    terms then have; where they never do (|a'x| near 1), N above
    MAX_TERMS raises NotConverged.
    """
    xs = k.xs
    if max(abs(x) for x in xs) >= 1:
        raise NotConverged("series needs |alpha' s|, |alpha' t|, |alpha' u| < 1")
    pref = xs[0] * xs[1] * xs[2]
    if pref == 0:
        raise KinematicsDegenerate("s t u = 0: pole prefactor is singular")
    x, y, z = xs
    expo = last = 0.0
    for n in range(1, min(N, MAX_TERMS) + 1):
        e = 2 * n + 1
        a, b, c = x**e, y**e, z**e
        if not (a or b or c):
            last = 0.0
            break
        last = (_ZETA_COEFS[n - 1] if n <= len(_ZETA_COEFS) else 2 / e) * (a + b + c)
        expo -= last
    else:
        if N > MAX_TERMS:
            raise NotConverged(f"term budget of {MAX_TERMS} spent before the terms underflowed")
    if N > 0 and abs(last) > tol:
        raise NotConverged(f"last exponent term {last:.3e} above tol = {tol}; increase N")
    return _finite_amplitude(math.exp(expo) / pref, k)


def dimension_dn(n: int) -> int:
    """Dimension of the space of holomorphic modular forms of weight n,
    spanned by E4^a E6^b with 4a + 6b = n.

    With k = n/2 the count is floor((k+2)/2) - floor((k+2)/3); odd
    weights carry no forms.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n % 2:
        return 0
    k = n // 2
    return (k + 2) // 2 - (k + 2) // 3


# ---------------------------------------------------------------------------
# genus one


def genus_one_propagator(z: complex, tau: ModularPoint) -> float:
    """P(z) = -1/4 log|th1(z|tau)/th1'(0|tau)|^2 + pi Im(z)^2 / (2 tau_2)."""
    z = complex(z)
    th1 = theta(1, z, tau.tau)
    if abs(th1) < 1e-12:
        raise LatticePointHit(f"z = {z} is on (or too near) the lattice")
    th1p = 2j * cmath.pi * dedekind_eta(tau.tau) ** 3
    return float(
        -0.5 * math.log(abs(th1 / th1p)) + math.pi * z.imag**2 / (2 * tau.tau.imag)
    )


def _cutoff(R) -> int:
    """The half-width of a square momentum grid as an int: R must be
    integral (120.0 is accepted) and >= 2, else DomainError, and its weight
    grid, which every momentum sum builds, must fit the array budget."""
    if not (R >= 2 and float(R).is_integer()):
        raise DomainError(f"momentum cutoff R must be an integer >= 2, got {R!r}")
    R = int(R)
    _check_array_size((R + 1) * (2 * R + 1), 8, f"the momentum grid at R = {R}")
    return R


def _weight_grid(tau: complex, R: int):
    """W(p) = tau_2 / (4 pi |p|^2) on the half plane m >= 0 of the grid
    p = m + n tau, as an (R+1) x (2R+1) array: row m = 0..R, column
    n + R for n = -R..R.

    W(-p) = W(p), so the rows m < 0 are redundant.  |p|^2 =
    (m + n x)^2 + (n y)^2 is formed from real parts: a complex p and
    np.abs would take a square root only to square it again.  The
    origin's |p|^2 is inf, so W(0) = 0 exactly.
    """
    import numpy as np

    m = np.arange(R + 1.0)[:, None]
    n = np.arange(-R, R + 1.0)
    p2 = (m + n * tau.real) ** 2 + (n * tau.imag) ** 2
    p2[0, R] = math.inf
    return tau.imag / (4 * math.pi * p2)


def _half_sum(A) -> float:
    """Sum over the full grid of an array that is even in p, given its
    half-plane rows m >= 0: each row m > 0 stands for itself and -m."""
    return float(2 * A[1:].sum() + A[0].sum())


def _next_5_smooth(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _half_transform(A, L: int):
    """A_hat(k) = sum_p A(p) e^(-2 pi i p.k / L) on an L x L torus, for A
    even in p and given by its rows m >= 0 as `_weight_grid` builds them,
    (R+1) x (2R+1) with 2R < L, or for a stack of such grids along leading
    axes.  A_hat is real and even: an rfft along n, rephased to centre
    p = 0, then, with m moved to the contiguous last axis, an inverse real
    FFT along m (rows m < 0 are the conjugates of rows m > 0).

    The result is (..., L//2 + 1, L): row k_n = 0 .. L/2, column k_m, and
    it holds A_hat(-k_m, k_n).  The inverse transform reflects k_m, which
    only relabels the torus, so no sum over k changes.

    Parseval: for even A_1 .. A_j on boxes whose half-widths add up to
    less than L, no sum of box momenta wraps to 0 mod L, so

        sum_k A_hat_1(k) ... A_hat_j(k) / L^2
            = sum over p_1 + ... + p_j = 0 of A_1(p_1) ... A_j(p_j),

    momentum conserved and every p_i uncut in its own box.  `_torus_sum`
    takes the sum over k.
    """
    import numpy as np

    R = A.shape[-2] - 1
    F = np.fft.rfft(A, L, axis=-1)
    F *= np.exp(2j * math.pi * R / L * np.arange(L // 2 + 1))
    return np.fft.irfft(np.ascontiguousarray(np.swapaxes(F, -1, -2)), L, axis=-1, norm="forward")


def _torus_sum(X, Y) -> float:
    """sum_k X(k) Y(k) / L^2 over the L x L torus, for X and Y even in k
    given by the rows k_n = 0 .. L/2 of `_half_transform`: one pass over
    the rows, then rows 0 and, for even L, L/2 count once (they are their
    own mirror images) and every other row counts twice."""
    import numpy as np

    L = X.shape[-1]
    rows = np.einsum("ij,ij->i", X, Y)
    mid = (L + 1) // 2
    return float(rows[0] + 2 * rows[1:mid].sum() + rows[mid:].sum()) / (L * L)


def genus_one_propagator_momentum(
    z: complex,
    tau: ModularPoint,
    R: int = 80,
) -> float:
    """Modular-invariant momentum form

        Phat(z) = sum_{p != 0} tau_2 e^{2 pi i (n u - m v)} / (4 pi |p|^2),

    where z = u + v tau.  The full propagator is Phat + C with
    C = log|sqrt(2 pi) eta(tau)|.
    """
    import numpy as np

    R = _cutoff(R)
    z = complex(z)
    t = tau.tau
    v = z.imag / t.imag
    u = z.real - v * t.real
    m = np.arange(R + 1)[:, None]
    n = np.arange(-R, R + 1)
    # the phase is even in p like W, so the half plane carries the sum
    return _half_sum(_weight_grid(t, R) * np.cos(2 * math.pi * (n * u - m * v)))


def modular_anomaly(tau: ModularPoint) -> float:
    """C(tau) = log|sqrt(2 pi) eta(tau)|."""
    return float(math.log(math.sqrt(2 * math.pi) * abs(dedekind_eta(tau.tau))))


def _dn_tail(n: int, tau: complex, R: int) -> float:
    """Crude tail bound for the square-cutoff D_n sum: the slowest-decaying
    contribution pairs one far momentum ~R against near ones, giving
    O(R^{-2}) per excluded shell times the convergent remainder."""
    t2 = tau.imag
    base = t2 / (4 * math.pi)
    # sum over |p| > R of 1/|p|^4 ~ 2 pi R^{-2} / t2 (continuum estimate)
    far = 2 * math.pi / (t2 * R**2)
    near = 8.0 * base  # bounded by a few small-|p| terms of the (n-2)-fold sum
    try:
        return float(base**2 * far * max(1.0, near) ** max(0, n - 2))
    except OverflowError:  # at a huge Im(tau); `_finite_sum` reports it
        return math.inf


def _finite_sum(value: float, est_error: float, what: str, tau: complex,
                note: str = "") -> MaassValue:
    """The momentum sum `what` at tau with its bar, unless either overflows a
    float (DomainError): the one check of D_n and graph_D."""
    if not (math.isfinite(value) and math.isfinite(est_error)):
        raise DomainError(f"{what} at tau = {tau} overflows a float")
    return MaassValue(value=value, est_error=est_error, note=note)


# Eisenstein reductions a E_s + b zeta(s): (s, a, b zeta(s), the formula).
# The sums of D'Hoker--Green--Vanhove are 4^weight times these, and their
# E_s is E_s / pi^s here.
_D3 = (3, (4 * math.pi) ** -3, 1 / 64 * riemann_zeta(3),
       "D_3 = E_3/(4 pi)^3 + zeta(3)/64, no cutoff")
_C221 = (5, 0.4 / (4 * math.pi) ** 5, 1 / (30 * 4**5) * riemann_zeta(5),
         "C_2,2,1 = ((2/5) E_5/pi^5 + zeta(5)/30)/4^5, no cutoff")

# the relative error of riemann_zeta at the s of the reductions: against
# mpmath, riemann_zeta(3) and riemann_zeta(5) are 5.4 and 2.5 2^-53 off
ZETA_ERROR = 8 * 2.0**-53


def _eisenstein_reduction(reduction, tau: complex, what: str) -> MaassValue:
    """a E_s(tau) + b zeta(s) for reduction = (s, a, b zeta(s), formula),
    with `note` the formula.  The bar adds the scaled bar of
    `eisenstein_fourier`, the error of `riemann_zeta` and 8 roundings of
    each term: the rounded coefficients (pi^5 among them), the two products
    and the sum."""
    s, a, z_term, formula = reduction
    try:
        E = eisenstein_fourier(s, tau)
    except DomainError:  # E_s overflows a float, so does the sum: `_finite_sum` names it
        E = MaassValue(math.inf)
    e_term = a * E.value
    est_error = a * E.est_error + ZETA_ERROR * z_term + 8 * 2.0**-53 * (abs(e_term) + z_term)
    return _finite_sum(e_term + z_term, est_error, what, tau, formula)


def kronecker_eisenstein_Dn(
    n: int,
    tau: ModularPoint,
    spec: LatticeSumSpec = LatticeSumSpec(),
) -> MaassValue:
    """D_n = sum over p_1 + ... + p_n = 0 (all p_i != 0) of
    prod tau_2 / (4 pi |p_i|^2).

    D_3 is its Eisenstein reduction E_3/(4 pi)^3 + zeta(3)/64, accurate to
    about 1e-15 at every tau; spec.R is checked but not used, and `note`
    says so.  D_2 and D_4 are box sums at the cutoff R (`_dn_lattice`) at
    the image of tau in the fundamental domain: D_n is SL(2,Z)-invariant,
    and there the box is nearly a square of the lattice, which its bar
    assumes.
    n in {2, 3, 4} are supported (higher n has no reduction to check and
    explodes in cost).
    """
    if n < 2:
        raise DivergentParameter("D_n needs n >= 2")
    if n > 4:
        raise WeightTooLarge("D_n implemented for n in {2, 3, 4}")
    R = _cutoff(spec.R)
    if n == 3:
        return _eisenstein_reduction(_D3, tau.tau, "D_3")
    return _dn_lattice(n, fold_to_fundamental(tau), R)


def _dn_lattice(n: int, t: complex, R: int) -> MaassValue:
    """D_n at tau = t with every p_i in the (2R+1)^2 box.

    D_2 is sum W^2 over the weight grid.  D_3 and D_4 are Parseval sums
    sum_k W_hat(k)^n / L^2 over one transform (`_half_transform`), exact
    for L > nR; L is the next 5-smooth length (2^a 3^b 5^c) at or above
    nR + 1, where numpy's FFT is fast.
    """
    import numpy as np

    with np.errstate(over="ignore"):  # an overflowing sum is caught by `_finite_sum`
        if n == 2:
            value = _half_sum(_weight_grid(t, R) ** 2)
        else:
            L = _next_5_smooth(n * R + 1)
            _check_array_size(L * (L // 2 + 1), 8, f"the D_{n} transform at R = {R}")
            W_hat = _half_transform(_weight_grid(t, R), L)
            if n == 3:
                value = _torus_sum(W_hat * W_hat, W_hat)
            else:
                P = np.square(W_hat, out=W_hat)
                value = _torus_sum(P, P)
    return _finite_sum(value, _dn_tail(n, t, R), f"D_{n}", t)


@dataclass(frozen=True)
class GraphMultiplicities:
    """Link multiplicities n_ij, 1 <= i < j <= 4, keyed in the fixed
    order (12, 13, 14, 23, 24, 34)."""

    n: tuple

    _EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def __post_init__(self):
        if len(self.n) != 6:
            raise DomainError("need 6 multiplicities (12, 13, 14, 23, 24, 34)")
        n = tuple(int(v) for v in self.n)
        if any(v < 0 for v in n):
            raise DomainError("multiplicities must be non-negative")
        if sum(n) < 1:
            raise DomainError("total weight must be >= 1")
        object.__setattr__(self, "n", n)

    @property
    def weight(self) -> int:
        return sum(self.n)

    def edges(self):
        """Expanded edge list [(i, j), ...] with repetition."""
        return [e for e, mult in zip(self._EDGES, self.n) for _ in range(mult)]


@functools.cache
def _topology(n: tuple) -> tuple:
    """(bridge, loops, sizes) of the graph with multiplicities n: whether
    some edge lies on no cycle, the number of independent loops, and the
    sorted sizes of the classes of the other edges, edges that carry the
    same momentum.  All three are read off component counts C of the graph
    on vertices 0..3: loops = E - V + C, an edge is a bridge when deleting
    it raises C, and two edges share a class when deleting both does, so
    edge e's class is e and the new bridges of the graph without e.

    A pure function of n, so it is cached; `graph_D` caps the weight at 6
    first, so at most 923 tuples reach it.
    """
    edges = GraphMultiplicities(n).edges()

    def components(kept) -> int:  # union-find over the edges indexed by kept
        root = [0, 1, 2, 3]
        count = 4
        for i in kept:
            a, b = edges[i]
            while root[a] != a:
                a = root[a]
            while root[b] != b:
                b = root[b]
            if a != b:
                root[a] = b
                count -= 1
        return count

    def bridges(kept) -> set:
        count = components(kept)
        return {e for e in kept if components(kept - {e}) > count}

    every = frozenset(range(len(edges)))
    cut = bridges(every)
    classes = {frozenset({e} | bridges(every - {e}) - cut) for e in every - cut}
    loops = len(edges) - 4 + components(every)
    return bool(cut), loops, tuple(sorted(map(len, classes)))


def graph_D(
    mult: GraphMultiplicities,
    tau: ModularPoint,
    spec: LatticeSumSpec = LatticeSumSpec(R=40),
) -> MaassValue:
    """General four-puncture Kronecker-Eisenstein graph sum.

    Vertex momentum conservation leaves the edges of a class, edges that
    every cycle crosses together, one momentum (`_topology`), so the sum
    depends only on the class sizes, not on the labelling.  A bridge is
    forced to p = 0 and, under the p != 0 convention, makes the whole sum
    vanish (flagged in `note`).  Banana topologies (all links between one
    pair) are D_n.  A two-loop graph with classes of 1, 2 and 2 edges is
    C_{2,2,1}: its Eisenstein reduction, accurate to about 1e-15, with
    spec.R checked but not used and the formula in `note`.  Every other
    one- or two-loop graph is summed at the cutoff R (`_graph_lattice`,
    which leaves the smallest class uncut) at the image of tau in the
    fundamental domain, like D_n.  Graphs with three or more loops, bananas
    aside, raise WeightTooLarge.
    """
    if mult.weight > 6:
        raise WeightTooLarge("total weight capped at 6")
    R = _cutoff(spec.R)
    bridge, loops, sizes = _topology(mult.n)

    # a bridge, an edge outside every cycle, carries zero momentum
    if bridge:
        return MaassValue(value=0.0, est_error=0.0, note="zero-mode-excluded")

    if mult.n.count(0) == 5:
        return kronecker_eisenstein_Dn(mult.weight, tau, LatticeSumSpec(R=spec.R))

    if loops > 2:
        raise WeightTooLarge(
            f"{loops} independent loops: only bananas and graphs with at most two are summed"
        )

    if sizes == (1, 2, 2):
        return _eisenstein_reduction(_C221, tau.tau, f"the graph sum {mult.n}")
    return _graph_lattice(mult, fold_to_fundamental(tau), R)


def _graph_lattice(mult: GraphMultiplicities, t: complex, R: int) -> MaassValue:
    """The sum of a one- or two-loop graph with no bridge at tau = t, each
    loop momentum in the (2R+1)^2 box.

    The edges of a class carry one momentum.  A graph with one class (one
    loop) or two (loops that are disjoint or meet at one vertex) is a
    product of box sums sum_q W(q)^k, one per class of k edges.  A graph
    with classes of k3 <= k1 <= k2 edges, on q1 + q2, q1 and q2, is the
    Parseval sum of three transforms (`_half_transform`), of W^k1 and W^k2
    on the (2R+1)^2 box of q1 and q2 and of W^k3 on the (4R+1)^2 box that
    holds every q1 + q2 uncut, with L the next 5-smooth length >= 4R + 1.
    The small box is a slice of the large box's weight grid, and W^k1 and
    W^k2 (k1 != k2) are transformed in one stacked call.
    """
    import numpy as np

    *_, sizes = _topology(mult.n)
    with np.errstate(over="ignore"):  # an overflowing sum is caught by `_finite_sum`
        if len(sizes) < 3:
            W = _weight_grid(t, R)
            box = {k: _half_sum(W**k) for k in set(sizes)}  # one sum per class size
            value = math.prod(box[k] for k in sizes)
        else:
            k3, k1, k2 = sizes
            L = _next_5_smooth(4 * R + 1)
            # the largest array is the stacked transform of W^k1 and W^k2,
            # 2 x (L//2 + 1) x L floats
            _check_array_size(2 * (L // 2 + 1) * L, 8, f"the two-loop convolution at R = {R}")
            W2 = _weight_grid(t, 2 * R)
            W = W2[: R + 1, R : 3 * R + 1]  # the (2R+1)^2 box: _weight_grid(t, R) bit for bit
            if k1 == k2:
                A = B = _half_transform(W**k1, L)
            else:
                A, B = _half_transform(np.stack((W**k1, W**k2)), L)
            value = _torus_sum(A * B, _half_transform(W2**k3, L))
    return _finite_sum(value, _dn_tail(mult.weight, t, R), f"the graph sum {mult.n}", t)
