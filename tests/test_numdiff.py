"""Tests for the Cauchy-integral derivatives and the real stencils."""

import cmath
import math

import numpy as np
import pytest

from halphen_lab.errors import DomainError, StepTooLarge
from halphen_lab.numdiff import N, check_step, deriv1, deriv2, deriv3, second_5pt

_Z = [0.3 + 0.2j, -1 + 2j, 3 - 1j]


class TestDerivatives:
    def test_first_derivative_exp(self):
        for z in _Z:
            assert abs(deriv1(cmath.exp, z, 0.5) - cmath.exp(z)) <= 1e-13 * abs(cmath.exp(z))

    def test_second_derivative_trig(self):
        for z in _Z:
            assert abs(deriv2(cmath.sin, z, 0.5) + cmath.sin(z)) <= 1e-13 * abs(cmath.sin(z))

    def test_third_derivative_exp(self):
        for z in _Z:
            assert abs(deriv3(cmath.exp, z, 0.5) - cmath.exp(z)) <= 1e-13 * abs(cmath.exp(z))

    def test_third_derivative_polynomial_exact(self):
        # the trapezoid sum aliases degree k + N onto degree k, so below
        # degree N only rounding is left
        rng = np.random.default_rng(5)
        p = np.polynomial.Polynomial(rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N))
        z = 0.3 + 0.2j
        want = p.deriv(3)(z)
        for r in (0.3, 0.5):
            assert abs(deriv3(p, z, r) - want) <= 1e-13 * abs(want)

    def test_vector_valued_f_is_sampled_once_per_node(self):
        calls = []

        def f(t):
            calls.append(t)
            return np.array([cmath.exp(2 * t), cmath.sin(t), t**3])

        z = 0.4 + 0.9j
        d = deriv2(f, z, 0.3)
        assert len(calls) == N
        want = [4 * cmath.exp(2 * z), -cmath.sin(z), 6 * z]
        assert np.max(np.abs(d - want)) <= 1e-13 * np.max(np.abs(want))


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

    @pytest.mark.parametrize("h", [1e-200, 5e-324])
    def test_step_whose_square_underflows_is_domain_error(self, h):
        # second_5pt divided by 12 h^2 = 0: a ZeroDivisionError traceback
        with pytest.raises(DomainError, match=f"step h = {h} is too small"):
            check_step(h)

    def test_limit(self):
        check_step(1e-3)
        check_step(0.1, 0.1, "Im(z)/10")  # the limit itself is allowed
        with pytest.raises(StepTooLarge, match=r"h = 0.2 too large: Im\(z\)/10 = 0.1"):
            check_step(0.2, 0.1, "Im(z)/10")
