"""Acceptance suite: the headline identities and behaviors, end to end.

Each test is a self-contained check at its stated tolerance; the module
tests carry the fine-grained oracles.
"""

import math

import numpy as np
import pytest
from scipy.special import zeta

from halphen_lab import geometry, numdiff
from halphen_lab.amplitudes import (
    Mandelstam,
    _dn_lattice,
    kronecker_eisenstein_Dn,
    tree_amplitude_gamma,
    tree_amplitude_series,
)
from halphen_lab.conformal import (
    cp_f_cp2,
    cp_f_eisenstein,
    cp_f_heisenberg,
    cp_harmonic_check,
    first_integral,
    w_lambda_rhs,
    w_lambda_system_residual,
    w_theta_solution,
)
from halphen_lab.halphen import (
    RealTriAxial,
    chazy_residual,
    dh_from_lambda,
    dh_residual,
    halphen_closed_form,
    halphen_closed_form_real,
    integrate,
    omegas_from_chazy,
    chazy_from_dh,
    halphen_triplet,
    reflection_check,
    schwarz_lambda,
    schwarz_residual,
    sl2_generate,
    taub_nut_family,
)
from halphen_lab.maass import (
    eisenstein_fourier,
    eisenstein_lattice,
    laplacian_eigencheck,
    LatticeSumSpec,
)
from halphen_lab.modforms import (
    Moebius,
    ModularPoint,
    ThetaChar,
    dedekind_eta,
    eisenstein_holo,
    theta,
    theta_char,
    theta_char_vderiv,
)


def test_01_halphen_solves_dh():
    # closed form satisfies the quadratic system along the imaginary axis
    for T in np.linspace(0.2, 3.0, 50):
        assert dh_residual(halphen_closed_form, complex(0, T)) < 1e-10


def test_02_self_duality_of_both_branches():
    for system, init in (
        ("dh", RealTriAxial((1.0, 2.0, 3.0), 1.0)),
        ("lagrange", RealTriAxial((0.5, 1.1, 0.8), 1.0)),
    ):
        traj = integrate(system, init, 4.0, tol=1e-11)
        for row in traj.Omega[:: max(1, len(traj.T) // 25)]:
            dec = geometry.curvature_decomp(tuple(row), system)
            scale = max(abs(x) for x in dec.weyl_plus + dec.weyl_minus) + 1.0
            bad = (
                max(abs(x) for x in dec.weyl_minus)
                + max(abs(x) for x in dec.ricci_plus + dec.ricci_minus)
                + abs(dec.scalar)
            )
            assert bad / scale < 1e-8


def test_03_taub_nut_pipeline():
    # T_star < T0: nut at large T, taubian infinity approaching T0
    report = geometry.taub_nut_endpoints(0.0, -1.0)
    assert report["outer"].kind == "nut"
    assert report["inner"].kind == "taubian_infinity"
    # T_star > T0: the inner end is a curvature singularity instead
    report = geometry.taub_nut_endpoints(0.0, 1.0)
    assert report["inner"].kind == "curvature_singularity"


def test_04_atiyah_hitchin_bolt():
    T = np.linspace(0.5, 7.0, 400)
    Om = np.array([halphen_closed_form_real(t).Omega for t in T])
    from halphen_lab.halphen import Trajectory

    traj = Trajectory.from_samples("dh", T, Om)
    ep = geometry.classify_endpoint(traj, end="last")
    assert ep.kind == "bolt"
    assert ep.bolt_degree == pytest.approx(4.0, abs=0.1)
    assert ep.bolt_radius == pytest.approx(math.sqrt(math.pi / 2), rel=0.02)


def test_05_quasimodular_reflection():
    for T in np.linspace(0.3, 5.0, 20):
        assert max(reflection_check(T)) < 1e-8


def test_06_ricci_flow_trapping_and_asymptote():
    rng = np.random.default_rng(7)
    # asymptote clause: unit-scale initial data reaches the 1/T attractor
    # to 5% by T = 50
    for _ in range(100):
        init = RealTriAxial(tuple(rng.uniform(0.5, 2.0, 3)), 1.0)
        traj = integrate("dh", init, 50.0, tol=1e-8)
        assert traj.reason == "completed"
        assert np.all(traj.Omega > 0)
        assert np.max(np.abs(50.0 * traj.Omega[-1] - 1.0)) < 0.05
    # trapping clause: arbitrary-scale positive data never leaves the
    # positive octant (the 1/T approach is scale-delayed, so only
    # positivity is asserted here)
    for _ in range(100):
        init = RealTriAxial(tuple(rng.uniform(0.1, 10.0, 3)), 0.0)
        traj = integrate("dh", init, 50.0, tol=1e-8)
        assert traj.reason == "completed"
        assert np.all(traj.Omega > 0)


def test_07_chazy_schwarz_correspondences():
    z = 0.1 + 1.1j
    assert schwarz_residual(schwarz_lambda, z) < 1e-11
    y_fn = lambda t: 1j * math.pi * eisenstein_holo(2, t)
    assert chazy_residual(y_fn, z) < 1e-11
    # cubic reconstruction: the omegas are the roots of the Chazy cubic
    cd = chazy_from_dh(halphen_closed_form(z))
    rec = omegas_from_chazy(cd, reference=halphen_closed_form(z).omega)
    errs = [abs(a - b) for a, b in zip(rec, halphen_closed_form(z).omega)]
    assert max(errs) < 1e-8


def test_08_sl2_solution_generation():
    rng = np.random.default_rng(11)
    count = 0
    while count < 10:
        a, b, c, d = rng.uniform(-2, 2, 4)
        if abs(a * d - b * c) < 0.1:
            continue
        M = Moebius(a, b, c, d)
        z = 0.1 + 1.5j
        if abs(M.c * z + M.d) < 0.3:
            continue
        mapped = (M.a * z + M.b) / (M.c * z + M.d)
        if mapped.imag < 0.4:
            continue
        gen = sl2_generate(halphen_closed_form, M)
        assert dh_residual(gen, z) < 1e-12
        count += 1


def test_09_maass_series():
    for s in (2.0, 3.0):
        tau = 0.2 + 1.3j
        lat = eisenstein_lattice(s, tau, LatticeSumSpec(R=120))
        fou = eisenstein_fourier(s, tau)
        assert lat.agrees_with(fou)
    for s, tau in ((1.5, 0.3 + 1.2j), (2.0, 0.1 + 0.9j)):
        assert laplacian_eigencheck(s, tau, 1e-3) < 1e-5


def test_10_kronecker_eisenstein_identities():
    tau = ModularPoint(1.3j)
    d2 = kronecker_eisenstein_Dn(2, tau)
    ref2 = eisenstein_fourier(2, tau.tau).value / (4 * math.pi) ** 2
    assert abs(d2.value - ref2) / abs(ref2) < 1e-4

    tau3 = ModularPoint(2.0j)
    d3 = _dn_lattice(3, tau3.tau, 120)
    ref3 = eisenstein_fourier(3, tau3.tau).value / (4 * math.pi) ** 3
    assert abs(d3.value - ref3 - zeta(3) / 64) < 1e-3


def test_11_tree_amplitude():
    grid = np.linspace(-0.2, 0.2, 5)
    for s in grid:
        for t in grid:
            if abs(s) < 1e-9 or abs(t) < 1e-9 or abs(s + t) < 1e-9:
                continue
            k = Mandelstam(float(s), float(t))
            assert abs(
                tree_amplitude_gamma(k) - tree_amplitude_series(k, 14, tol=math.inf)
            ) < 1e-8
    s, t = 0.11, 0.23
    u = -(s + t)
    import itertools

    ref = tree_amplitude_gamma(Mandelstam(s, t))
    for a, b in itertools.permutations((s, t, u), 2):
        assert abs(tree_amplitude_gamma(Mandelstam(a, b)) - ref) < 1e-12 * abs(ref)


def test_12_conformal_sector():
    sol = w_theta_solution(0.3, 0.7, 1.1j)
    assert abs(first_integral(sol.w) - 0.25) < 1e-10
    res = w_lambda_system_residual(lambda z: w_theta_solution(0.3, 0.7, z), 1.1j)
    assert max(res) < 1e-11
    assert cp_harmonic_check(cp_f_cp2(), 1.0, 0.7, 1e-4) < 1e-6
    assert cp_harmonic_check(cp_f_heisenberg(), 2.0, 0.3, 1e-4) < 1e-6
    assert cp_harmonic_check(cp_f_eisenstein(), 1.0, 0.2, 1e-3) < 1e-4


def test_13_q_series_identity_suite():
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        # Jacobi quartic identity
        t2, t3, t4 = (theta(j, 0.0, z) ** 4 for j in (2, 3, 4))
        assert abs(t3 - t2 - t4) < 1e-9
        # E2 anomaly under inversion
        zz = -1 / z
        lhs = eisenstein_holo(2, zz)
        rhs = z**2 * eisenstein_holo(2, z) + 6 * z / (1j * math.pi)
        assert abs(lhs - rhs) < 1e-9
        # characteristic shift relation
        a, b = rng.uniform(0.1, 0.9, 2)
        w, v = 1, rng.uniform(-0.4, 0.4)
        left = theta_char(ThetaChar(a + 2 * w, b), v, z)
        phase = np.exp(1j * math.pi * w * (w * z + 2 * v + b))
        right = phase * theta_char(ThetaChar(a, b), v + w * z, z)
        assert abs(left - right) < 1e-9 * max(1.0, abs(left))
        # theta-prime / eta-cubed cross-check (series convention fixes
        # the sign: d/dv theta1(0|z) = -2 pi eta(z)^3)
        d = theta_char_vderiv(ThetaChar(1, 1), 0.0, z)
        assert abs(d + 2 * math.pi * dedekind_eta(z) ** 3) < 1e-9


# z where the residual checks must reach rounding: the w-system's lambda
# comes within 0.05 of a branch point at the last two
_RESIDUAL_Z = [1j, 0.3 + 1.1j, -0.4 + 0.7j, 0.1 + 0.3j, 2j]


@pytest.mark.parametrize("z", _RESIDUAL_Z)
def test_14_residual_checks_at_rounding(z):
    # each residual is at most 1e-11 of the largest term of its equation
    w1, w2, w3 = halphen_closed_form(z).omega
    dh_scale = max(map(abs, (w2 * w3, w3 * w1, w1 * w2, w1 * (w2 + w3), w2 * (w3 + w1),
                              w3 * (w1 + w2))))
    assert dh_residual(halphen_closed_form, z) <= 1e-11 * dh_scale

    cd = chazy_from_dh(halphen_closed_form(z))
    chazy_scale = max(abs(2 * cd.y * cd.y_double_prime), abs(3 * cd.y_prime**2))
    y_fn = lambda t: -2 * sum(halphen_closed_form(t).omega)
    assert chazy_residual(y_fn, z) <= 1e-11 * chazy_scale

    r = z.imag / 3
    lam = schwarz_lambda(z)
    d1, d2, d3 = (d(schwarz_lambda, z, r) for d in (numdiff.deriv1, numdiff.deriv2,
                                                    numdiff.deriv3))
    q = 1 / lam**2 + 1 / (lam - 1) ** 2 - 1 / (lam * (lam - 1))
    schwarz_scale = max(abs(d3 / d1), abs(1.5 * (d2 / d1) ** 2), abs(0.5 * q * d1**2))
    assert schwarz_residual(schwarz_lambda, z) <= 1e-11 * schwarz_scale

    tri, ref = dh_from_lambda(schwarz_lambda, z), halphen_triplet(z)
    pairs = ((tri.E1, ref.E1), (tri.E2, ref.E2), (tri.E3, ref.E3))
    assert max(abs(a - b) for a, b in pairs) <= 1e-11 * max(abs(b) for _, b in pairs)

    if z in _RESIDUAL_Z[:3]:
        w_fn = lambda t: w_theta_solution(0.3, 0.7, t)
        w_scale = max(map(abs, w_lambda_rhs(w_fn(z).w, lam)))
        assert max(w_lambda_system_residual(w_fn, z)) <= 1e-11 * w_scale
