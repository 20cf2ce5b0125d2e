"""Derivatives for the residual checks.

`deriv1/2/3` take Cauchy's integral for f^(k)(z) by the trapezoid rule on
the circle |t - z| = r, f^(k)(z) ~ k!/(N r^k) sum_j f(z + r w^j) w^(-jk)
with w = exp(2 pi i/N): for f holomorphic on a wider disc the error falls
geometrically in N (Lyness & Moler 1967), with no step to choose.  f may
return a numpy array, differentiated from the same N samples.  The checks
of real functions use `second_5pt` and `check_step`.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, StepTooLarge

__all__ = ["N", "check_step", "deriv1", "deriv2", "deriv3", "second_5pt"]

N = 32
_NODES = [cmath.exp(2j * cmath.pi * j / N) for j in range(N)]


def check_step(h, limit=math.inf, bound="limit"):
    """Validate a finite-difference step: DomainError unless h > 0 (so also
    for NaN) and 12 h^2, the denominator of `second_5pt`, is not 0,
    StepTooLarge if h exceeds `limit`, which the message calls `bound`."""
    if not h > 0:
        raise DomainError(f"step h must be positive, got h = {h}")
    if not 12 * h * h > 0:
        raise DomainError(f"step h = {h} is too small: 12 h^2 underflows to 0")
    if h > limit:
        raise StepTooLarge(f"h = {h} too large: {bound} = {limit}")


def _cauchy(f, z, r, k):
    total = 0
    for node in _NODES:
        total += f(z + r * node) * node**-k
    return total * (math.factorial(k) / (N * r**k))


def deriv1(f, z, r):
    """f'(z) from N samples on the circle |t - z| = r."""
    return _cauchy(f, z, r, 1)


def deriv2(f, z, r):
    """f''(z) from N samples on the circle |t - z| = r."""
    return _cauchy(f, z, r, 2)


def deriv3(f, z, r):
    """f'''(z) from N samples on the circle |t - z| = r."""
    return _cauchy(f, z, r, 3)


def second_5pt(values, h):
    """f'' from the 5 samples f(x-2h)..f(x+2h), O(h^4)."""
    fm2, fm1, f0, fp1, fp2 = values
    return (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)
