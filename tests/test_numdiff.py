"""Tests for the finite-difference stencils."""

import cmath
import math

import numpy as np
import pytest

from halphen_lab.errors import DomainError, StepTooLarge
from halphen_lab.numdiff import check_step, deriv1, deriv2, deriv3, second_5pt


class TestDerivatives:
    def test_first_derivative_exp(self):
        x = 0.3
        assert deriv1(math.exp, x, 1e-3) == pytest.approx(math.exp(x), abs=1e-10)

    def test_second_derivative_trig(self):
        x = 0.7
        assert deriv2(math.sin, x, 1e-3) == pytest.approx(-math.sin(x), abs=1e-8)

    def test_third_derivative_exp(self):
        x = 0.2
        assert deriv3(math.exp, x, 1e-2) == pytest.approx(math.exp(x), abs=1e-7)

    def test_third_derivative_polynomial_exact(self):
        # cubic: stencil must be exact up to rounding
        f = lambda t: 2.0 * t**3 - t**2 + 4.0 * t - 1.0
        assert deriv3(f, 1.3, 1e-2) == pytest.approx(12.0, abs=1e-8)

    def test_complex_direction(self):
        # derivative along the imaginary axis of exp(z)
        f = lambda z: np.exp(z)
        z0 = 0.1 + 0.8j
        d = deriv1(f, z0, 1e-4, direction=1j)
        assert abs(d - np.exp(z0)) < 1e-10

    def test_complex_direction_second(self):
        f = lambda z: np.exp(2 * z)
        z0 = 0.3 + 0.4j
        d = deriv2(f, z0, 1e-3, direction=cmath.exp(0.7j))
        assert abs(d - 4 * np.exp(2 * z0)) < 1e-7

    def test_complex_direction_third(self):
        f = lambda z: np.exp(2 * z)
        z0 = 0.4j
        d = deriv3(f, z0, 1e-2, direction=1j)
        assert abs(d - 8 * np.exp(2 * z0)) < 1e-6


class TestSecondFromSamples:
    def test_second_5pt(self):
        h = 1e-3
        x = 0.5 + h * np.arange(-2, 3)
        vals = np.cos(x)
        assert second_5pt(vals, h) == pytest.approx(-math.cos(0.5), abs=1e-9)


class TestCheckStep:
    @pytest.mark.parametrize("h", [0.0, -0.0, -1e-3, math.nan, -math.inf])
    def test_nonpositive_or_nan_is_domain_error(self, h):
        with pytest.raises(DomainError, match="step h must be positive"):
            check_step(h, 1.0)

    def test_limit(self):
        check_step(1e-3)
        check_step(0.1, 0.1, "Im(z)/10")  # the limit itself is allowed
        with pytest.raises(StepTooLarge, match=r"h = 0.2 too large: Im\(z\)/10 = 0.1"):
            check_step(0.2, 0.1, "Im(z)/10")
