"""Fourth-order central-difference stencils, complex-step friendly.

Used by the residual checks (Schwarz, Chazy, conformal systems, the
Calderbank--Pedersen Laplacian).  `direction` lets the stencil march
along an arbitrary ray in the complex plane.
"""

from __future__ import annotations

import math

from .errors import DomainError, StepTooLarge

__all__ = ["check_step", "deriv1", "deriv2", "deriv3", "second_5pt"]


def check_step(h, limit=math.inf, bound="limit"):
    """Validate a finite-difference step: DomainError unless h > 0 (so also
    for NaN), StepTooLarge if h exceeds `limit`, which the message calls
    `bound`."""
    if not h > 0:
        raise DomainError(f"step h must be positive, got h = {h}")
    if h > limit:
        raise StepTooLarge(f"h = {h} too large: {bound} = {limit}")


def _samples(f, z, h, direction, offsets):
    return [f(z + k * h * direction) for k in offsets]


def deriv1(f, z, h, direction=1.0):
    """f'(z), O(h^4)."""
    fm2, fm1, fp1, fp2 = _samples(f, z, h, direction, (-2, -1, 1, 2))
    return (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h * direction)


def deriv2(f, z, h, direction=1.0):
    """f''(z), O(h^4)."""
    return second_5pt(_samples(f, z, h, direction, (-2, -1, 0, 1, 2)), h * direction)


def deriv3(f, z, h, direction=1.0):
    """f'''(z), O(h^4)."""
    fm3, fm2, fm1, fp1, fp2, fp3 = _samples(f, z, h, direction, (-3, -2, -1, 1, 2, 3))
    return (fm3 - 8 * fm2 + 13 * fm1 - 13 * fp1 + 8 * fp2 - fp3) / (
        8 * h**3 * direction**3
    )


def second_5pt(values, h):
    """f'' from the 5 samples f(x-2h)..f(x+2h), O(h^4)."""
    fm2, fm1, f0, fp1, fp2 = values
    return (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)
