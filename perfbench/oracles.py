"""Independent reference values for the benchmark checks.

Everything here is built from mpmath or numpy and the defining series or
closed forms of the source paper and of D'Hoker--Green--Vanhove
(arXiv:1502.06698); nothing imports ``halphen_lab``.  Oracle work is never
timed: the runner calls these only after the timed phase.

Normalisations follow the package: lattice momenta p = m + n*tau (p != 0),
E_s = sum' y^s / |p|^(2s), every graph edge weighs tau_2 / (4 pi |p|^2).
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import mpmath as mp

DPS = 30
REFS_PATH = Path(__file__).with_name("refs.json")

_CLASSICAL = {1: (1, 1), 2: (1, 0), 3: (0, 0), 4: (0, 1)}


def _mpc(z):
    return mp.mpc(z)


def fold_tau(tau: complex) -> complex:
    """SL(2,Z) image of tau with |Re| <= 1/2 and |tau| >= 1."""
    x, y = complex(tau).real, complex(tau).imag
    if not y > 0:
        raise ValueError(f"tau must lie in the upper half-plane, got {tau}")
    for _ in range(1000):
        x -= round(x)
        r2 = x * x + y * y
        if r2 >= 1 - 1e-15:
            return complex(x, y)
        x, y = -x / r2, y / r2
    raise ValueError("fold_tau did not converge")


# ---------------------------------------------------------------------------
# holomorphic q-series, summed term by term


def theta_char(a, b, v, tau, deriv: bool = False):
    """theta[a;b](v|tau) = sum_m exp(i pi tau n^2 + 2 i pi n (v + b/2)),
    n = m + a/2; with ``deriv`` the v-derivative.  The q^(n^2/2) phase is
    built from exp(i pi tau n^2) directly, so theta_2 carries exp(i pi
    tau/4) with no branch choice."""
    with mp.workdps(DPS):
        a, b, v, t = _mpc(a), _mpc(b), _mpc(v), _mpc(tau)
        eps = mp.mpf(10) ** (-DPS - 3)

        def term(m):
            n = m + a / 2
            e = mp.exp(1j * mp.pi * t * n * n + 2j * mp.pi * n * (v + b / 2))
            return 2j * mp.pi * n * e if deriv else e

        c = int(round(-float(a.real) / 2))
        total = term(c)
        quiet = 0
        k = 1
        while quiet < 3:
            hi, lo = term(c + k), term(c - k)
            total += hi + lo
            quiet = quiet + 1 if max(abs(hi), abs(lo)) < eps * max(1, abs(total)) else 0
            k += 1
        return total


def theta(j: int, v, tau):
    a, b = _CLASSICAL[j]
    return theta_char(a, b, v, tau)


def e2_holo(tau):
    """E_2 = 1 - 24 sum sigma_1(n) q^n."""
    with mp.workdps(DPS):
        q = mp.exp(2j * mp.pi * _mpc(tau))
        total = mp.mpc(1)
        n = 1
        eps = mp.mpf(10) ** (-DPS - 3)
        while True:
            t = -24 * sum(d for d in range(1, n + 1) if n % d == 0) * q**n
            total += t
            if abs(t) < eps and n > 2:
                return total
            n += 1


def halphen_complex(z):
    """Halphen solution omega_1 = (pi/6i)(E2 - th2^4 - th3^4), omega_2 =
    (pi/6i)(E2 + th3^4 + th4^4), omega_3 = (pi/6i)(E2 + th2^4 - th4^4)."""
    with mp.workdps(DPS):
        z = _mpc(z)
        e2 = e2_holo(z)
        t2, t3, t4 = (theta(j, 0, z) ** 4 for j in (2, 3, 4))
        pref = mp.pi / 6j
        return (pref * (e2 - t2 - t3), pref * (e2 + t3 + t4), pref * (e2 + t2 - t4))


def halphen_real(T: float):
    """Real Halphen solution Omega(T) = i omega(iT)."""
    with mp.workdps(DPS):
        return tuple(float(mp.re(1j * w)) for w in halphen_complex(1j * T))


def taub_nut(T: float, T0: float, T_star: float):
    """Exact biaxial Darboux--Halphen solution."""
    a = 1.0 / (T - T0)
    return (a, a, (T - T_star) * a * a)


def _rhs(system):
    if system == "dh":
        return lambda t, w: [
            w[1] * w[2] - w[0] * (w[1] + w[2]),
            w[2] * w[0] - w[1] * (w[2] + w[0]),
            w[0] * w[1] - w[2] * (w[0] + w[1]),
        ]
    return lambda t, w: [w[1] * w[2], w[2] * w[0], w[0] * w[1]]


@lru_cache(maxsize=64)
def ode_solution(system: str, init: tuple, T0: float, T1: float):
    """Omega(T1) by mpmath's Taylor-series ODE solver at 20 digits."""
    with mp.workdps(20):
        f = mp.odefun(_rhs(system), mp.mpf(T0), [mp.mpf(x) for x in init])
        return tuple(float(x) for x in f(mp.mpf(T1)))


def w_theta(a, b, z):
    """Theta-characteristic solution of the rescaled w-system."""
    with mp.workdps(DPS):
        th2, th3, th4 = (theta(j, 0, z) for j in (2, 3, 4))
        den = theta_char(a, b, 0, z)
        ph = mp.exp(-1j * mp.pi * _mpc(a) / 2)
        d1 = theta_char(a + 1, b, 0, z, deriv=True)
        d2 = theta_char(a, b + 1, 0, z, deriv=True)
        d3 = theta_char(a + 1, b + 1, 0, z, deriv=True)
        tp = 2 * mp.pi
        return (
            complex(d1 / (tp * th2 * th3 * den)),
            complex(ph * d2 / (tp * th3 * th4 * den)),
            complex(-ph * d3 / (tp * th2 * th4 * den)),
        )


W_FIRST_INTEGRAL = 0.25  # w1^2 - w2^2 + w3^2 on the theta family


# ---------------------------------------------------------------------------
# non-holomorphic Eisenstein series and lattice sums


@lru_cache(maxsize=256)
def eisenstein(s: float, tau: complex) -> float:
    """E_s(tau) = sum' y^s/|m + n tau|^(2s) by the Fourier--Bessel sum

        2 zeta(2s) y^s + 2 sqrt(pi) Gamma(s-1/2) zeta(2s-1)/Gamma(s) y^(1-s)
        + 8 pi^s sqrt(y)/Gamma(s) sum n^(s-1/2) sigma_(1-2s)(n)
          K_(s-1/2)(2 pi n y) cos(2 pi n x),

    evaluated at the folded point (E_s is SL(2,Z)-invariant)."""
    t = fold_tau(tau)
    with mp.workdps(DPS):
        s = mp.mpf(s)
        x, y = mp.mpf(t.real), mp.mpf(t.imag)
        total = 2 * mp.zeta(2 * s) * y**s + 2 * mp.sqrt(mp.pi) * mp.gamma(
            s - 0.5
        ) * mp.zeta(2 * s - 1) / mp.gamma(s) * y ** (1 - s)
        pref = 8 * mp.pi**s * mp.sqrt(y) / mp.gamma(s)
        eps = mp.mpf(10) ** (-DPS - 3)
        n = 1
        while True:
            sig = sum(mp.mpf(d) ** (1 - 2 * s) for d in range(1, n + 1) if n % d == 0)
            term = (
                pref * mp.mpf(n) ** (s - 0.5) * sig
                * mp.besselk(s - 0.5, 2 * mp.pi * n * y) * mp.cos(2 * mp.pi * n * x)
            )
            total += term
            if n > 2 and abs(term) < eps * abs(total):
                return float(total)
            n += 1


def zeta(s) -> float:
    return float(mp.zeta(s))


def d2(tau) -> float:
    """D_2 = E_2 / (4 pi)^2."""
    return eisenstein(2.0, complex(tau)) / (4 * math.pi) ** 2


def d3(tau) -> float:
    """D_3 = E_3 / (4 pi)^3 + zeta(3)/64."""
    return eisenstein(3.0, complex(tau)) / (4 * math.pi) ** 3 + zeta(3) / 64


def c221(tau) -> float:
    """C_{2,2,1} = (2/5) E_5/pi^5 + zeta(5)/30 in DGV normalisation, which
    is 4^5 times this package's weight-5 graph sum."""
    return (0.4 * eisenstein(5.0, complex(tau)) / math.pi**5 + zeta(5) / 30) / 4**5


def double_banana(tau) -> float:
    """Two disjoint two-edge bananas: D_2^2."""
    return d2(tau) ** 2


def tree_gamma(s: float, t: float) -> float:
    """Gamma(1+s)Gamma(1+t)Gamma(1+u) / (s t u Gamma(1-s)Gamma(1-t)Gamma(1-u)),
    u = -s-t, alpha' = 1."""
    with mp.workdps(DPS):
        s, t = mp.mpf(s), mp.mpf(t)
        u = -s - t
        num = mp.gamma(1 + s) * mp.gamma(1 + t) * mp.gamma(1 + u)
        den = s * t * u * mp.gamma(1 - s) * mp.gamma(1 - t) * mp.gamma(1 - u)
        return float(num / den)


# ---------------------------------------------------------------------------
# sums with no closed form: converged numpy FFT references (see make_refs.py)


@lru_cache(maxsize=1)
def _refs():
    return json.loads(REFS_PATH.read_text())


def reference(kind: str, tau: complex) -> float:
    """Stored converged value of ``kind`` ('c211' or 'd4') at tau."""
    for row in _refs()[kind]:
        if complex(row["tau"][0], row["tau"][1]) == complex(tau):
            return row["value"]
    raise KeyError(f"no {kind} reference at tau = {tau}; rerun make_refs.py")
