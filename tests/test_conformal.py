"""Tests for the coupled conformally-self-dual systems and the w-variables."""

import cmath
import math

import numpy as np
import pytest

from halphen_lab import numdiff
from halphen_lab.conformal import (
    ConformalState,
    WVars,
    ah_limit_solution,
    asd_curvature_identity,
    cp_f_cp2,
    cp_f_eisenstein,
    cp_f_heisenberg,
    cp_harmonic_check,
    first_integral,
    sl2_generate_pair,
    system_one_rhs,
    system_two_rhs,
    systems_rhs,
    w_lambda_rhs,
    w_lambda_system_residual,
    w_theta_solution,
)
from halphen_lab.errors import (
    DomainError,
    PoleHit,
    SingularLambda,
    StepTooLarge,
    ThetaZeroDivision,
)
from halphen_lab.halphen import (
    dh_rhs,
    halphen_closed_form,
    lagrange_rhs,
    schwarz_lambda,
)
from halphen_lab.modforms import (
    Moebius,
    ThetaChar,
    eisenstein_holo,
    theta,
    theta_char,
    theta_char_vderiv,
)


class TestSystemsRhs:
    def test_delta_equals_omega_reduces_to_dh(self):
        om = (0.3 + 0.1j, -0.2 + 0.4j, 1.1 - 0.3j)
        state = ConformalState(delta=om, omega=om)
        d_dot, o_dot = systems_rhs(state)
        assert d_dot == dh_rhs(om)
        assert o_dot == dh_rhs(om)

    def test_delta_zero_reduces_to_lagrange(self):
        om = (0.3 + 0.1j, -0.2 + 0.4j, 1.1 - 0.3j)
        state = ConformalState(delta=(0, 0, 0), omega=om)
        _, o_dot = systems_rhs(state)
        assert o_dot == pytest.approx(lagrange_rhs(om))

    def test_system_one_is_dh(self):
        d = (1.0, 2.0 + 1j, -0.5)
        assert system_one_rhs(d) == dh_rhs(d)

    def test_closed_form_solves_system_one(self):
        z = 0.2 + 1.3j
        r = z.imag / 3
        om = halphen_closed_form(z).omega
        rhs = system_one_rhs(om)
        for i in range(3):
            dw = numdiff.deriv1(lambda t, i=i: halphen_closed_form(t).omega[i], z, r)
            assert abs(dw - rhs[i]) < 1e-13

    def test_bad_shape(self):
        with pytest.raises(DomainError):
            ConformalState(delta=(1, 2), omega=(1, 2, 3))


class TestWThetaSolution:
    def test_first_integral_quarter(self):
        sol = w_theta_solution(0.3, 0.7, 1.1j)
        assert abs(first_integral(sol.w) - 0.25) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_first_integral_constant_in_z(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.1, 0.9, 2)
        vals = [
            first_integral(w_theta_solution(a, b, complex(x, y)).w)
            for x, y in [(0.0, 1.0), (0.3, 1.4), (-0.2, 0.9)]
        ]
        assert max(abs(v - 0.25) for v in vals) < 1e-9

    def test_lambda_ode_residual(self):
        res = w_lambda_system_residual(lambda z: w_theta_solution(0.3, 0.7, z), 1.3j)
        assert max(res) < 1e-12

    def test_integer_characteristics_divide_by_zero(self):
        # theta[1;1](0|z) vanishes identically
        with pytest.raises(ThetaZeroDivision):
            w_theta_solution(1, 1, 1.1j)

    def test_requires_upper_half_plane(self):
        with pytest.raises(DomainError):
            w_theta_solution(0.3, 0.7, -1.1j)


class TestAhLimit:
    def test_limit_of_theta_family(self):
        # a = 1 + 2 eps, b = 1 + 2 z0 eps converges to the closed form
        # linearly in eps
        z0, z = 0.4j, 1.2j
        lim = ah_limit_solution(z0, z)
        errs = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            fam = w_theta_solution(1 + 2 * eps, 1 + 2 * z0 * eps, z)
            errs.append(max(abs(a - b) for a, b in zip(fam.w, lim.w)))
        assert errs[0] < 0.05
        # linear convergence: halving eps roughly halves the error
        assert errs[1] < 0.6 * errs[0]
        assert errs[2] < 0.6 * errs[1]

    def test_first_integral_quarter(self):
        sol = ah_limit_solution(0.4j, 1.2j)
        assert abs(first_integral(sol.w) - 0.25) < 1e-10

    def test_lambda_ode_residual(self):
        res = w_lambda_system_residual(lambda z: ah_limit_solution(0.4j, z), 1.2j)
        assert max(res) < 1e-11

    def test_pole(self):
        with pytest.raises(PoleHit):
            ah_limit_solution(-1.2j, 1.2j)


class TestAgainstGeneralThetas:
    """Both w-solutions take E2 and the theta constants from one shared-nome
    kernel call; the reference here writes them from the general theta
    series and the E2 Lambert series."""

    @staticmethod
    def thetas(z):
        return [theta(j, 0, z) for j in (2, 3, 4)]

    def samples(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 2.0))
            yield z, rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), complex(
                rng.uniform(-1.0, 1.0), rng.uniform(0.2, 2.0)
            )

    @staticmethod
    def assert_close(got, ref_w, ref_lam):
        for g, r in zip(got.w, ref_w):
            assert abs(g - r) <= 1e-14 * abs(r)
        assert abs(got.lam - ref_lam) <= 1e-14 * abs(ref_lam)

    def test_w_theta_solution(self):
        for z, a, b, _ in self.samples():
            th2, th3, th4 = self.thetas(z)
            den = theta_char(ThetaChar(a, b), 0, z)
            d1, d2, d3 = (
                theta_char_vderiv(ThetaChar(a + i, b + j), 0, z) for i, j in ((1, 0), (0, 1), (1, 1))
            )
            phase = cmath.exp(-1j * math.pi * a / 2)
            tp = 2 * math.pi
            ref = (
                d1 / (tp * th2 * th3 * den),
                phase * d2 / (tp * th3 * th4 * den),
                -phase * d3 / (tp * th2 * th4 * den),
            )
            self.assert_close(w_theta_solution(a, b, z), ref, th2**4 / th3**4)

    def test_ah_limit_solution(self):
        for z, _, _, z0 in self.samples():
            th2, th3, th4 = self.thetas(z)
            e2 = eisenstein_holo(2, z)
            pole = 1j / (z + z0)
            p6 = math.pi / 6
            ref = (
                -(pole - p6 * (e2 - th2**4 - th3**4)) / (math.pi * th2**2 * th3**2),
                -1j * (pole - p6 * (e2 + th3**4 + th4**4)) / (math.pi * th3**2 * th4**2),
                -1j * (pole - p6 * (e2 + th2**4 - th4**4)) / (math.pi * th2**2 * th4**2),
            )
            self.assert_close(ah_limit_solution(z0, z), ref, th2**4 / th3**4)


class TestWLambda:
    def test_rhs_shape(self):
        w = (1.0, 2.0, 3.0)
        lam = 0.3 + 0.1j
        r = w_lambda_rhs(w, lam)
        assert r[0] == pytest.approx(6.0 / lam)
        assert r[1] == pytest.approx(3.0 / (lam - 1))
        assert r[2] == pytest.approx(2.0 / (lam * (lam - 1)))

    def test_singular_lambda(self):
        with pytest.raises(SingularLambda):
            w_lambda_rhs((1, 1, 1), 1.001)

    def test_residual_accepts_wvars_callable(self):
        res = w_lambda_system_residual(lambda z: w_theta_solution(0.25, 0.55, z), 1.1j)
        assert max(res) < 1e-12


class TestSl2Pair:
    @pytest.mark.parametrize(
        "mat", [(1, 1, 0, 1), (2, 1, 1, 1), (1, 0, 1, 1), (3, 2, 1, 1)]
    )
    def test_transported_joint_solution(self, mat):
        M = Moebius(*mat)
        delta_fn = lambda z: halphen_closed_form(z).omega
        gen = sl2_generate_pair(delta_fn, delta_fn, M)
        z = 0.15 + 1.4j
        r = z.imag / 3
        st = gen(z)
        d_rhs, o_rhs = systems_rhs(st)
        for i in range(3):
            dd = numdiff.deriv1(lambda t, i=i: gen(t).delta[i], z, r)
            do = numdiff.deriv1(lambda t, i=i: gen(t).omega[i], z, r)
            assert abs(dd - d_rhs[i]) < 1e-13
            assert abs(do - o_rhs[i]) < 1e-13

    def test_pole(self):
        M = Moebius(0, -1, 1, 0)
        gen = sl2_generate_pair(
            lambda z: halphen_closed_form(z).omega,
            lambda z: halphen_closed_form(z).omega,
            M,
        )
        with pytest.raises(PoleHit):
            gen(0.0)


class TestAsdIdentity:
    def test_generic_joint_solution(self):
        # transported pair gives Delta != Omega with both systems on shell
        M = Moebius(2, 1, 1, 1)
        delta_fn = lambda z: halphen_closed_form(z).omega
        z = 0.1 + 1.2j
        st_dh = sl2_generate_pair(delta_fn, delta_fn, M)(z)
        assert max(asd_curvature_identity(st_dh)) < 1e-7

    def test_special_dh_point(self):
        om = halphen_closed_form(1.3j).omega
        st = ConformalState(delta=om, omega=om, z=1.3j)
        assert max(asd_curvature_identity(st)) < 1e-10

    @pytest.mark.parametrize("delta", [(0, 0, 0), (0.7, 0, 0), (0, 0, -1.3)])
    def test_constant_delta(self, delta):
        # a constant Delta with two zero components solves system I; Delta = 0
        # turns II into Lagrange, whose anti-self-dual curvature vanishes
        rng = np.random.default_rng(7)
        for _ in range(5):
            om = tuple(rng.uniform(0.3, 3.0, 3) + 1j * rng.uniform(-1.0, 1.0, 3))
            st = ConformalState(delta=delta, omega=om)
            assert max(asd_curvature_identity(st)) < 1e-12 * max(abs(w) for w in om) ** 2

    def test_distinct_delta_omega(self):
        # Delta from the closed form, Omega from an SL(2) transport of it:
        # still a joint solution, with Delta != Omega
        M = Moebius(1, 0, 1, 1)
        z = 0.2 + 1.5j
        denom = M.c * z + M.d
        zz = (M.a * z + M.b) / denom
        om = tuple(v / denom**2 for v in halphen_closed_form(zz).omega)
        d = tuple(
            v / denom**2 + M.c / denom for v in halphen_closed_form(zz).omega
        )
        st = ConformalState(delta=d, omega=om, z=z)
        # this (Delta, Omega) pair does NOT solve system II jointly unless
        # Delta is transported too, so use the transported Delta
        assert max(asd_curvature_identity(st)) < 1e-7


class TestCpPotentials:
    def test_cp2(self):
        assert cp_harmonic_check(cp_f_cp2(), 1.0, 0.7, 1e-4) < 1e-6

    def test_heisenberg(self):
        assert cp_harmonic_check(cp_f_heisenberg(), 2.0, 0.3, 1e-4) < 1e-6

    def test_eisenstein(self):
        assert cp_harmonic_check(cp_f_eisenstein(), 1.0, 0.2, 1e-3) < 1e-4

    def test_heisenberg_rho0_family(self):
        assert cp_harmonic_check(cp_f_heisenberg(2.5), 1.5, -0.4, 1e-4) < 1e-6

    def test_step_too_large(self):
        with pytest.raises(StepTooLarge):
            cp_harmonic_check(cp_f_cp2(), 1e-4, 0.0, 1e-3)

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan])
    def test_step_must_be_positive(self, h):
        with pytest.raises(DomainError, match="positive"):
            cp_harmonic_check(cp_f_cp2(), 1.0, 0.2, h)

    @pytest.mark.parametrize("rho, eta", [(math.inf, 0.2), (math.nan, 0.2), (1.0, math.inf),
                                          (1.0, math.nan)])
    def test_nonfinite_point(self, rho, eta):
        with pytest.raises(DomainError, match="rho and eta must be finite"):
            cp_harmonic_check(cp_f_cp2(), rho, eta, 1e-3)

    @pytest.mark.parametrize("rho, eta", [(1e300, 0.2), (1.0, 1e300)])
    def test_overflowing_residual(self, rho, eta):
        # rho^2 overflowed to inf and met a zero second difference: NaN
        with pytest.raises(DomainError, match="overflows"):
            cp_harmonic_check(cp_f_cp2(), rho, eta, 1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            cp_f_cp2()(-1.0, 0.0)
