"""Tests for the q-series building blocks: eta, Eisenstein, theta."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from halphen_lab import modforms
from halphen_lab.errors import DomainError, PoleHit, TruncationNotReached
from halphen_lab.modforms import (
    ModularPoint,
    Moebius,
    ThetaChar,
    apply_moebius,
    dedekind_eta,
    eisenstein_holo,
    theta,
    theta_char,
    theta_char_vderiv,
    thetas_e2,
    weight2_transport,
)


def _random_taus(rng, n, y_lo=0.5, y_hi=3.0):
    return [complex(rng.uniform(-0.5, 0.5), rng.uniform(y_lo, y_hi)) for _ in range(n)]


class TestModularPoint:
    def test_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            ModularPoint(0.3 - 0.2j)

    def test_nome_modulus(self):
        p = ModularPoint(0.3 + 1.1j)
        assert abs(p.q) == pytest.approx(math.exp(-2 * math.pi * 1.1), rel=1e-12)

    @pytest.mark.parametrize(
        "tau", [complex(math.nan, 1), complex(0.2, math.inf), complex(math.inf, 1)]
    )
    def test_rejects_nonfinite(self, tau):
        with pytest.raises(DomainError, match="tau must be finite with Im"):
            ModularPoint(tau)

    def test_rejects_a_nome_that_rounds_to_one(self):
        # Im(tau) = 1e-300 gives |q| = 1 in binary64
        with pytest.raises(DomainError, match="must be < 1"):
            ModularPoint(0.1 + 1e-300j)


class TestDedekindEta:
    def test_value_at_i(self):
        # closed form eta(i) = Gamma(1/4) / (2 pi^{3/4})
        exact = math.gamma(0.25) / (2 * math.pi**0.75)
        assert abs(dedekind_eta(1j) - exact) < 1e-12

    def test_large_imaginary_part(self):
        # |q| ~ 5e-28 kills every product factor
        val = dedekind_eta(10j)
        assert abs(val - cmath.exp(-20 * math.pi / 24)) < 1e-12 * abs(val)

    def test_inversion_modulus(self):
        z = 0.3 + 1.1j
        lhs = abs(dedekind_eta(-1 / z))
        rhs = abs(cmath.sqrt(-1j * z) * dedekind_eta(z))
        assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("z", [0.3 + 1j, -0.45 + 0.9j, 0.1 + 1.7j, 1.2 + 0.8j])
    def test_automorphy_with_phase(self, z):
        eta = dedekind_eta(z)
        assert abs(dedekind_eta(z + 1) - cmath.exp(1j * math.pi / 12) * eta) < 1e-10 * abs(eta)
        assert abs(dedekind_eta(-1 / z) - cmath.sqrt(-1j * z) * eta) < 1e-10 * abs(eta)

    def test_log_derivative_is_e2(self):
        # (12 / i pi) d/dz log eta = E2
        z, h = 0.2 + 1.3j, 1e-5
        d = (cmath.log(dedekind_eta(z + h)) - cmath.log(dedekind_eta(z - h))) / (2 * h)
        assert abs(12 / (1j * math.pi) * d - eisenstein_holo(2, z)) < 1e-8

    def test_truncation_not_reached(self, monkeypatch):
        monkeypatch.setattr(modforms, "MAX_TERMS", 2)
        with pytest.raises(TruncationNotReached):
            dedekind_eta(0.06j)


class TestEisensteinHolo:
    def test_e2_at_i(self):
        assert abs(eisenstein_holo(2, 1j) - 3 / math.pi) < 1e-12

    def test_e6_vanishes_at_i(self):
        assert abs(eisenstein_holo(6, 1j)) < 1e-12

    def test_e4_vanishes_at_order_three_point(self):
        rho = cmath.exp(2j * math.pi / 3)
        assert abs(eisenstein_holo(4, rho)) < 1e-10

    def test_weight_transformations(self):
        z = 0.21 + 0.83j
        for k in (4, 6):
            lhs = eisenstein_holo(k, -1 / z)
            rhs = z**k * eisenstein_holo(k, z)
            assert abs(lhs - rhs) < 1e-9 * max(1, abs(rhs))

    def test_e2_anomaly(self):
        z = 0.15 + 0.9j
        lhs = eisenstein_holo(2, -1 / z)
        rhs = z**2 * eisenstein_holo(2, z) + 12 * z / (2j * math.pi)
        assert abs(lhs - rhs) < 1e-9

    def test_bad_weight(self):
        with pytest.raises(DomainError):
            eisenstein_holo(3, 1j)


class TestTheta:
    def test_theta3_at_i(self):
        # closed form pi^{1/4} / Gamma(3/4)
        exact = math.pi**0.25 / math.gamma(0.75)
        assert abs(theta(3, 0.0, 1j) - exact) < 1e-12

    def test_theta1_odd(self):
        for tau in (1j, 0.3 + 0.8j):
            assert abs(theta(1, 0.0, tau)) < 1e-14
            v = 0.17 + 0.05j
            assert abs(theta(1, v, tau) + theta(1, -v, tau)) < 1e-12

    def test_jacobi_quartic_random(self):
        rng = np.random.default_rng(11)
        for tau in _random_taus(rng, 20):
            t2, t3, t4 = (theta(j, 0.0, tau) for j in (2, 3, 4))
            assert abs(t2**4 + t4**4 - t3**4) < 1e-10

    def test_char_00_is_theta3(self):
        assert theta_char(ThetaChar(0, 0), 0.0, 1j) == pytest.approx(
            theta(3, 0.0, 1j)
        )

    def test_char_11_vanishes(self):
        for tau in (1j, 0.4 + 1.7j):
            assert abs(theta_char(ThetaChar(1, 1), 0.0, tau)) < 1e-14

    def test_periodicity_in_v(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a, b = rng.uniform(-1, 1, 2)
            v = complex(*rng.uniform(-0.3, 0.3, 2))
            tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.7, 2.0))
            lhs = theta_char(ThetaChar(a, b), v + 1, tau)
            rhs = cmath.exp(1j * math.pi * a) * theta_char(ThetaChar(a, b), v, tau)
            assert abs(lhs - rhs) < 1e-12 * max(1, abs(rhs))

    def test_characteristic_shift_relation(self):
        # theta[a+2w; b+2v](0|z) = theta[a+2w; b](v|z)
        #                        = exp(i pi w (w z + 2v + b)) theta[a; b](v+wz|z)
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = rng.uniform(-1, 1, 2)
            w = int(rng.integers(-2, 3))
            v = complex(*rng.uniform(-0.4, 0.4, 2))
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
            mid = theta_char(ThetaChar(a + 2 * w, b), v, z)
            lhs = theta_char(ThetaChar(a + 2 * w, b + 2 * v), 0.0, z)
            rhs = cmath.exp(1j * math.pi * w * (w * z + 2 * v + b)) * theta_char(
                ThetaChar(a, b), v + w * z, z
            )
            assert abs(lhs - mid) < 1e-10
            assert abs(mid - rhs) < 1e-10

    def test_shift_relation_spec_point(self):
        z = 1.3j
        lhs = theta_char(ThetaChar(0 + 2, 1 + 0), 0.0, z)
        rhs = cmath.exp(1j * math.pi * (z + 1)) * theta_char(ThetaChar(0, 1), z, z)
        assert abs(lhs - rhs) < 1e-12


    def test_huge_real_v_costs_no_digits(self):
        # Re v is reduced modulo 1 first, exactly: 1e14, 1e16 and 1e300 are
        # even integers, so theta_3 there is theta_3(0) and theta_1 is
        # theta_1(0) = 0 (the phase of the unreduced series was 1.1e-4 and
        # 0.85 off at the first two)
        assert theta(3, 1e14, 0.5j) == theta(3, 0.0, 0.5j)
        for v in (1e16, 1e300):
            assert abs(theta(1, v, 1j)) <= 1e-12

    @pytest.mark.parametrize("a,k", [(0.375, 3), (0.375, 2**40 + 1), (complex(-0.6, 0.02), -7)])
    def test_shift_of_v_by_an_integer(self, a, k):
        # theta[a; b](v + k) = e^(i pi a k) theta[a; b](v), Re(a) k taken
        # modulo 2 exactly
        a = complex(a)
        ch, v, z = ThetaChar(a, 0.2), 0.125 + 0.05j, 0.3 + 1.1j
        phase = cmath.exp(1j * math.pi * float(Fraction(a.real) * k % 2) - math.pi * a.imag * k)
        for f in (theta_char, theta_char_vderiv):
            ref = phase * f(ch, v, z)
            assert f(ch, v + k, z) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_huge_characteristic_is_reduced_modulo_two(self, monkeypatch):
        # theta[a + 2; b] = theta[a; b]: Re a is reduced into [-1, 1] first,
        # so a = 1e300 sums as a = 0 in a few terms (it spent the whole
        # MAX_TERMS budget), and a in [-1, 1] is left as it is
        monkeypatch.setattr(modforms, "MAX_TERMS", 40)
        v, z = 0.1 - 0.05j, 0.2 + 1.1j
        for a, reduced in ((1e300, 0.0), (0.25 + 2 * 10**6, 0.25),
                           (complex(-5.5, 0.1), complex(0.5, 0.1)), (3.0, -1.0)):
            for f in (theta_char, theta_char_vderiv):
                assert f(ThetaChar(a, 0.3), v, z) == f(ThetaChar(reduced, 0.3), v, z), a

class TestThetaVDeriv:
    def test_even_char_derivative_vanishes(self):
        assert abs(theta_char_vderiv(ThetaChar(0, 0), 0.0, 1j)) < 1e-14

    def test_theta1_prime_eta_cubed(self):
        # with this series convention d/dv theta[1;1](0|tau) = -2 pi eta(tau)^3
        for tau in (1j, 0.2 + 1.4j):
            d = theta_char_vderiv(ThetaChar(1, 1), 0.0, tau)
            assert abs(d + 2 * math.pi * dedekind_eta(tau) ** 3) < 1e-9

    def test_central_difference(self):
        tau, h = 0.2 + 1.1j, 1e-5
        ch = ThetaChar(1, 0)
        fd = (theta_char(ch, h, tau) - theta_char(ch, -h, tau)) / (2 * h)
        assert abs(fd - theta_char_vderiv(ch, 0.0, tau)) < 1e-8


class TestSharedNomeKernel:
    def test_matches_general_evaluators(self):
        # seeded tau with Im(tau) >= 0.3, against theta_char
        rng = np.random.default_rng(31)
        for _ in range(40):
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 3.0))
            _, th2, th3, th4 = thetas_e2(cmath.exp(1j * math.pi * z), cmath.exp(0.25j * math.pi * z))
            for j, got in ((2, th2), (3, th3), (4, th4)):
                ref = theta(j, 0, z)
                assert abs(got - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("S", [0.05, 0.4, 1.0, 2.5])
    def test_float_nome_stays_real(self, S):
        # tau = iS: the float nome e^(-pi S) gives floats equal to the complex run
        vals = thetas_e2(math.exp(-math.pi * S), math.exp(-0.25 * math.pi * S))
        ref = thetas_e2(cmath.exp(1j * math.pi * 1j * S), cmath.exp(0.25j * math.pi * 1j * S))
        for v, r in zip(vals, ref):
            assert type(v) is float
            assert abs(v - r) <= 1e-14 * abs(r)

    def test_truncation_not_reached(self, monkeypatch):
        z = 0.06j
        p, p4 = cmath.exp(1j * math.pi * z), cmath.exp(0.25j * math.pi * z)
        monkeypatch.setattr(modforms, "MAX_TERMS", 2)
        with pytest.raises(TruncationNotReached):
            thetas_e2(p, p4)


def _mp_reference(mp, z):
    """E2, E4, E6 by their Lambert series, eta by its product and theta2..4 at
    v = 0, at 40 digits."""
    out = {}
    with mp.workdps(40):
        tau = mp.mpc(z.real, z.imag)
        q = mp.exp(2j * mp.pi * tau)
        for k, coef in ((2, -24), (4, 240), (6, -504)):
            total, qm, m = 0, mp.mpc(1), 0
            while True:
                m += 1
                qm *= q
                term = m ** (k - 1) * qm / (1 - qm)
                total += term
                if abs(term) < mp.mpf(10) ** -45:
                    break
            out[f"E{k}"] = complex(1 + coef * total)
        out["eta"] = complex(mp.exp(1j * mp.pi * tau / 12) * mp.qp(q))
        # jtheta's principal p^(1/4) is e^(i pi tau/4) for |Re tau| < 1
        p = mp.exp(1j * mp.pi * tau)
        for j in (2, 3, 4):
            out[f"theta{j}"] = complex(mp.jtheta(j, 0, p))
    return out


class TestAgainstMpmath:
    """E2, E4, E6, eta and theta2..4 at v = 0 against 40-digit mpmath on
    seeded tau with |Re tau| <= 1, relative to max(1, |value|), and to
    |value| for eta, which falls to 0.02 at Im tau = 0.05.  Below the
    fundamental domain the error of E4 and E6 is up to 2e-15 max|theta|^8
    absolute, so near their zeros close to the cusp the relative error
    can exceed these bounds (9.4e-14 at tau = 0.7306+0.0668i, where
    |E4| = 3.4 and |theta|^8 = 182; the Lambert series was 5.1e-13 off)."""

    @pytest.mark.parametrize("y_lo, y_hi, bound", [
        (math.sqrt(3) / 2, 3.0, 5e-15),
        (0.3, math.sqrt(3) / 2, 5e-14),
        (0.1, 0.3, 5e-14),
        (0.05, 0.07, 5e-14),
    ])
    def test_q_series_constants(self, y_lo, y_hi, bound):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(53)
        for _ in range(24):
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(y_lo, y_hi))
            ref = _mp_reference(mpmath, z)
            _, th2, th3, th4 = thetas_e2(cmath.exp(1j * math.pi * z), cmath.exp(0.25j * math.pi * z))
            got = {"E2": eisenstein_holo(2, z), "E4": eisenstein_holo(4, z),
                   "E6": eisenstein_holo(6, z), "theta2": th2, "theta3": th3, "theta4": th4,
                   "eta": dedekind_eta(z)}
            for name, value in got.items():
                scale = abs(ref[name]) if name == "eta" else max(1.0, abs(ref[name]))
                assert abs(value - ref[name]) <= bound * scale, (name, z)


class TestMoebius:
    def test_normalization(self):
        M = Moebius(2, 0, 0, 2)
        assert abs(M.a * M.d - M.b * M.c - 1) < 1e-12

    def test_identity_and_fixed_point(self):
        assert apply_moebius(Moebius(1, 0, 0, 1), 0.4 + 0.7j).tau == pytest.approx(
            0.4 + 0.7j
        )
        assert apply_moebius(Moebius(0, -1, 1, 0), 1j).tau == pytest.approx(1j)

    def test_translation(self):
        assert apply_moebius(Moebius(1, 1, 0, 1), 0.3 + 0.9j).tau == pytest.approx(
            1.3 + 0.9j
        )

    def test_pole(self):
        with pytest.raises(PoleHit):
            apply_moebius(Moebius(1, 0, 1, -1j), 1j)
        with pytest.raises(PoleHit):
            Moebius(2, 1, 1, 3)(-3.0)

    def test_call_returns_image_and_automorphy_factor(self):
        M = Moebius(2, 1, 1, 3)
        z = 0.3 + 0.8j
        mz, j = M(z)
        assert j == M.c * z + M.d
        assert mz == (M.a * z + M.b) / j
        assert apply_moebius(M, z).tau == mz

    def test_real_matrix_stays_real(self):
        # det > 0 is normalized by a real square root, so a real point maps
        # to a real point; det < 0 needs an imaginary one
        M = Moebius(2.0, 1.0, 1.0, 3.0)
        assert all(type(x) is float for x in (M.a, M.b, M.c, M.d))
        mz, j = M(1.5)
        assert type(mz) is float and type(j) is float
        assert M.a * M.d - M.b * M.c == pytest.approx(1, abs=1e-15)
        N = Moebius(1.0, 0.0, 0.0, -1.0)
        assert isinstance(N.a, complex)
        assert N.a * N.d - N.b * N.c == pytest.approx(1, abs=1e-15)


class TestWeight2Transport:
    @pytest.mark.parametrize("M", [(1, 2, 0, 1), (1, 0, 2, 1), (1, -2, 2, -3)])
    def test_gamma2_fixes_the_halphen_solution_and_its_triplet(self, M):
        # Gamma(2) fixes the Halphen solution under the shifted law (s = 1)
        # and its theta^4 triplet under the plain weight-2 law (s = 0)
        from halphen_lab.halphen import halphen_closed_form, halphen_triplet

        def triplet(z):
            t = halphen_triplet(z)
            return t.E1, t.E2, t.E3

        omega = lambda z: halphen_closed_form(z).omega
        z = 0.13 + 1.2j
        for w, s in ((omega, 1), (triplet, 0)):
            got, ref = weight2_transport(w, Moebius(*M), s)(z), w(z)
            assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-12 * max(map(abs, ref))

    def test_constant_solution_family(self):
        # Omega = 1/T solves Darboux-Halphen; its transport is 1/(T - T0)
        # with T0 = -B/A, the pole where the moved argument vanishes
        A, B, C, D = 2.0, 1.0, 1.0, 3.0
        M = Moebius(A, B, C, D)
        got = weight2_transport(lambda t: (1 / t,) * 3, M)(1.7)
        assert got == pytest.approx((1 / (1.7 + B / A),) * 3, rel=1e-14)
