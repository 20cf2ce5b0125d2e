"""Regenerate refs.json: converged values of the sums with no closed form.

C_{2,1,1} (graph multiplicities 2,1,0,1,0,0) and D_4 are summed with numpy
FFT convolutions on square cutoffs R = 128, 256, 512 and extrapolated with
the model V(R) = V + (a + b log R) / R^2, which also fits the log
corrections of the three-edge sums.  The same procedure applied to D_3 and
C_{2,2,1}, whose closed forms are known, gives the recorded
``method_check`` errors.

    python3 perfbench/make_refs.py        # about 30 s, ~200 MB peak
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

import oracles

CUTOFFS = (128, 256, 512)
C211_POOL = 16
D4_TAUS = (2j,)


def weight_grid(tau: complex, R: int) -> np.ndarray:
    m = np.arange(-R, R + 1)
    M, N = np.meshgrid(m, m, indexing="ij")
    p2 = np.abs(M + N * tau) ** 2
    W = np.zeros_like(p2)
    W[p2 > 0] = tau.imag / (4 * math.pi * p2[p2 > 0])
    return W


def _conv(a, b):
    shape = (a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1)
    return np.fft.irfft2(np.fft.rfft2(a, shape) * np.fft.rfft2(b, shape), shape)


def three_edge(tau: complex, R: int, a: int, b: int, c: int) -> float:
    """sum over p1 + p2 + p3 = 0 of W^a(p1) W^b(p2) W^c(p3), |m|,|n| <= R."""
    W = weight_grid(tau, R)
    g = _conv(W**a, W**b)
    Wc = np.zeros_like(g)
    Wc[R : 3 * R + 1, R : 3 * R + 1] = (W**c)[::-1, ::-1]
    return float(np.sum(g * Wc))


def d4_sum(tau: complex, R: int) -> float:
    W = weight_grid(tau, R)
    g = _conv(W, W)
    return float(np.sum(g * g[::-1, ::-1]))


def extrapolate(fn) -> float:
    """Solve V(R) = V + (a + b log R)/R^2 through the three cutoffs."""
    A = np.array([[1.0, R**-2.0, math.log(R) * R**-2.0] for R in CUTOFFS])
    y = np.array([fn(R) for R in CUTOFFS])
    return float(np.linalg.solve(A, y)[0])


def pool_taus(n: int):
    rng = random.Random(2012)
    out = []
    while len(out) < n:
        x, y = round(rng.uniform(-0.5, 0.5), 4), round(rng.uniform(0.87, 2.0), 4)
        if x * x + y * y >= 1:
            out.append(complex(x, y))
    return out


def main():
    refs = {"cutoffs": list(CUTOFFS), "c211": [], "d4": [], "method_check": {}}
    for tau in pool_taus(C211_POOL):
        v = extrapolate(lambda R: three_edge(tau, R, 2, 1, 1))
        refs["c211"].append({"tau": [tau.real, tau.imag], "value": v})
    for tau in D4_TAUS:
        refs["d4"].append({"tau": [tau.real, tau.imag], "value": extrapolate(lambda R: d4_sum(tau, R))})
    for tau in (2j, pool_taus(1)[0]):
        key = f"{tau.real}+{tau.imag}i"
        e3 = extrapolate(lambda R: three_edge(tau, R, 1, 1, 1))
        e5 = extrapolate(lambda R: three_edge(tau, R, 2, 2, 1))
        refs["method_check"][key] = {
            "d3_rel_error": abs(e3 / oracles.d3(tau) - 1),
            "c221_rel_error": abs(e5 / oracles.c221(tau) - 1),
        }
    oracles.REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n")
    print(json.dumps(refs["method_check"], indent=1))


if __name__ == "__main__":
    main()
