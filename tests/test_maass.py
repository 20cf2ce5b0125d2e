"""Tests for the non-holomorphic Eisenstein series evaluators."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import kv

from halphen_lab.errors import (
    CutoffTooLarge, DivergentParameter, DomainError, PoleAtS, StepTooLarge
)
from halphen_lab.maass import (
    MAX_MODES,
    MODE_BAR,
    LatticeSumSpec,
    _besselk_modes,
    _fourier_factors,
    _mode_count,
    _xi_condition,
    _zeta_condition,
    completed_zeta,
    divisor_sigma,
    eisenstein_fourier,
    eisenstein_lattice,
    fold_to_fundamental,
    laplacian_eigencheck,
    lattice_points,
    riemann_zeta,
)


def brute_lattice(s, tau, R):
    """Independent dense-grid oracle for the lattice sum (no tail)."""
    m, n = np.meshgrid(np.arange(-R, R + 1), np.arange(-R, R + 1), indexing="ij")
    p2 = (m + n * tau.real) ** 2 + (n * tau.imag) ** 2
    p2[R, R] = np.inf
    keep = p2 <= R * R
    return float(tau.imag**s * np.sum(np.where(keep, p2 ** (-s), 0.0)))


def rectangle_lattice_points(tau, R):
    """Reference enumerator: every m + n tau with 0 < |p| <= R, cut from
    the padded rectangle |n| <= R/y, |m| <= R + |x| n_max + 1."""
    n_max = int(math.floor(R / tau.imag))
    m_pad = int(math.ceil(R + abs(tau.real) * n_max)) + 1
    mm, nn = np.meshgrid(
        np.arange(-m_pad, m_pad + 1), np.arange(-n_max, n_max + 1), indexing="ij"
    )
    p = mm + nn * tau
    ap = np.abs(p)
    return p[(ap > 0) & (ap <= R)]


def rectangle_lattice_sum(s, tau, R):
    """The lattice route of E_s over the full reference set, fsum plus the
    continuum tail, term for term as eisenstein_lattice forms them."""
    y = tau.imag
    p = rectangle_lattice_points(tau, R)
    terms = (y / (p.real**2 + p.imag**2)) ** s
    tail = 2 * math.pi * y ** (s - 1) * R ** (2 - 2 * s) / (2 * s - 2)
    return math.fsum(terms) + tail


# (tau, R): a steep thin lattice, |Re tau| > 1 both ways, a non-integer
# cutoff and a cutoff below Im tau (only the row n = 0)
_LATTICE_CASES = [
    (0.2 + 0.06j, 37.5),
    (1.3 + 0.9j, 60.0),
    (-1.3 + 1.4j, 37.5),
    (0.3 + 3.0j, 2.0),
    (-0.45 + 2.5j, 2.0),
] + [
    (complex(x, y), 60.0)
    for x, y in np.random.default_rng(29).uniform((-0.5, 0.5), (0.5, 2.0), (6, 2))
]


def mpmath_fourier(s, tau, terms=40):
    """Oracle: the lattice-normalized Fourier--Bessel expansion of E_s,
    2 zeta(2s) y^s + 2 sqrt(pi) Gamma(s-1/2) zeta(2s-1) y^(1-s) / Gamma(s)
    + 8 pi^s sqrt(y) / Gamma(s) sum n^(s-1/2) sigma_(1-2s)(n)
      K_(s-1/2)(2 pi n y) cos(2 pi n x), in 30-digit arithmetic."""
    with mp.workdps(30):
        s, x, y = mp.mpf(s), tau.real, tau.imag
        total = 2 * mp.zeta(2 * s) * y**s + 2 * mp.sqrt(mp.pi) * mp.gamma(
            s - 0.5
        ) * mp.zeta(2 * s - 1) * y ** (1 - s) / mp.gamma(s)
        for n in range(1, terms + 1):
            sigma = sum(mp.mpf(d) ** (1 - 2 * s) for d in range(1, n + 1) if n % d == 0)
            total += (
                8 * mp.pi**s * mp.sqrt(y) / mp.gamma(s) * mp.mpf(n) ** (s - 0.5)
                * sigma * mp.besselk(s - 0.5, 2 * mp.pi * n * y) * mp.cos(2 * mp.pi * n * x)
            )
        return float(total)


class TestScalarHelpers:
    def test_divisor_sigma(self):
        assert divisor_sigma(3, 1) == 1
        assert divisor_sigma(1, 6) == 12
        assert divisor_sigma(3, 4) == 73

    def test_riemann_zeta(self):
        assert riemann_zeta(2) == pytest.approx(math.pi**2 / 6, rel=1e-12)
        assert riemann_zeta(3) == pytest.approx(1.2020569031595943, rel=1e-12)
        assert riemann_zeta(1.5) == pytest.approx(2.612375348685488, rel=1e-11)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 5.0, 41.0, 55.0, 100.0, 170.0])
    def test_riemann_zeta_matches_uncached_loop(self, s):
        # the accelerated eta series with its weights rebuilt on every call
        n = 64
        dk = np.zeros(n + 1)
        t = float(n)
        dk[0] = t
        for i in range(1, n + 1):
            t = t * 2 * (n + i - 1) * (n - i + 1) / ((2 * i - 1) * (2 * i))
            dk[i] = dk[i - 1] + t
        dn = dk[n]
        eta = 0.0
        for k in range(1, n + 1):
            eta += (-1) ** (k - 1) * (dn - dk[k - 1]) / float(k) ** s
        eta /= dn
        assert riemann_zeta(s) == eta / (1 - 2.0 ** (1 - s))

    @pytest.mark.parametrize("s", [171.0, 400.0, 1e6])
    def test_riemann_zeta_is_one_past_overflow(self, s):
        # k^s overflows for s > 170.7; zeta(s) - 1 < 2^-54 already at s = 55
        assert riemann_zeta(s) == 1.0

    def test_riemann_zeta_reflection_overflow_is_domain_error(self):
        # Gamma(1 - s) overflows for s < -170.6
        assert riemann_zeta(-169.0) == pytest.approx(float(mp.zeta(-169)), rel=1e-12)
        with pytest.raises(DomainError, match="s = -180.5"):
            riemann_zeta(-180.5)

    @pytest.mark.parametrize("s", [-2.0, -170.0, -169.0])
    def test_riemann_zeta_matches_mpmath_at_negative_integers(self, s):
        # the trivial zeros are exact: sin(pi s/2) would leave 1e-16 |s| Gamma(1 - s)
        ref = float(mp.zeta(s))
        if s % 2 == 0:
            assert riemann_zeta(s) == ref == 0.0
        else:
            assert riemann_zeta(s) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("s", [400.0, -400.0])
    def test_completed_zeta_overflow_is_domain_error(self, s):
        with pytest.raises(DomainError, match=f"s = {s}"):
            completed_zeta(s)

    def test_completed_zeta_values(self):
        assert completed_zeta(2) == pytest.approx(math.pi / 6, rel=1e-12)
        assert completed_zeta(4) == pytest.approx(math.pi**2 / 90, rel=1e-12)

    def test_completed_zeta_reflection(self):
        assert completed_zeta(3) == pytest.approx(completed_zeta(-2), rel=1e-10)

    def test_completed_zeta_poles(self):
        for s in (0.0, 1.0):
            with pytest.raises(PoleAtS):
                completed_zeta(s)

    @staticmethod
    def modes(x1):
        # every mode the shared table returns, as many as stay above e^-700
        count = min(30, max(1, int(700 // x1)))
        return count, x1 * np.arange(1, count + 1)

    def test_bessel_half_integer_closed_form(self):
        # K_{1/2}(x) = sqrt(pi / 2x) e^{-x}; sanity for the kernel we rely on
        for x1 in np.geomspace(0.2, 700.0, 25):
            count, xs = self.modes(x1)
            exact = np.sqrt(np.pi / (2 * xs)) * np.exp(-xs)
            assert _besselk_modes(0.5, x1, count) == pytest.approx(exact, rel=1e-12), x1
        assert _besselk_modes(0.5, 2.0, 0).shape == (0,)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, -3.7, 10.0])
    def test_bessel_matches_mpmath(self, nu):
        for x1 in np.geomspace(0.2, 700.0, 25):
            count, xs = self.modes(x1)
            ref = [float(mp.besselk(nu, x)) for x in xs]
            assert _besselk_modes(nu, x1, count) == pytest.approx(ref, rel=1e-13, abs=0), x1


class TestLattice:
    def test_value_at_i(self):
        ref = brute_lattice(2.0, 1j, 2000)
        got = eisenstein_lattice(2.0, 1j, LatticeSumSpec(R=200))
        assert abs(got.value - 6.0268120) < 2e-6
        assert abs(got.value - ref) < max(got.est_error, 1e-6)

    def test_self_consistency_across_cutoffs(self):
        lo = eisenstein_lattice(3.0, 1j, LatticeSumSpec(R=50))
        hi = eisenstein_lattice(3.0, 1j, LatticeSumSpec(R=500))
        assert abs(lo.value - hi.value) <= lo.est_error + hi.est_error

    def test_translation_invariance(self):
        tau = 0.3 + 1.2j
        a = eisenstein_lattice(2.0, tau, LatticeSumSpec(R=80))
        b = eisenstein_lattice(2.0, tau + 1, LatticeSumSpec(R=80))
        assert abs(a.value - b.value) < 1e-12 * abs(a.value) + a.est_error + b.est_error

    def test_large_s_does_not_overflow(self):
        # y^s / |p|^(2s) overflowed |p|^200 past |p| = 34 and warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eisenstein_lattice(100.0, 0.1 + 1.2j, LatticeSumSpec(R=120))
        # p = +-1 give 2 y^s; every other point has |p| >= |tau| and adds < 1e-15 of it
        assert got.value == pytest.approx(2 * 1.2**100, rel=1e-9)

    def test_divergent_s(self):
        with pytest.raises(DivergentParameter):
            eisenstein_lattice(1.0, 1j)

    @pytest.mark.parametrize("evaluate", [eisenstein_lattice, eisenstein_fourier])
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_nonfinite_s(self, evaluate, s):
        with pytest.raises(DomainError, match="s must be finite"):
            evaluate(s, 2j)

    def test_cutoff_above_the_array_budget(self):
        # R = 100000 asked numpy for 58.5 GiB before the |p| <= R cut
        with pytest.raises(CutoffTooLarge, match="149 GiB"):
            lattice_points(2j, 100000)
        with pytest.raises(CutoffTooLarge):
            eisenstein_lattice(2.0, 2j, LatticeSumSpec(R=math.inf))

    @pytest.mark.parametrize("tau,R", _LATTICE_CASES)
    def test_half_lattice_holds_one_of_each_pair(self, tau, R):
        full = rectangle_lattice_points(tau, R).tolist()
        half = lattice_points(tau, R)
        kept, mirror = set(half.tolist()), set((-half).tolist())
        assert len(full) == 2 * len(half) == len(kept | mirror)
        assert not kept & mirror
        assert kept | mirror == set(full)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 7.0])
    def test_bit_identical_to_full_lattice_sum(self, s):
        # the same terms as the exactly rounded reference, summed pairwise:
        # within (ceil(log2 n) + 16) 2^-53 of it (the bar allows + 18, the
        # worst case of numpy's blocking)
        for tau, R in _LATTICE_CASES:
            got = eisenstein_lattice(s, tau, LatticeSumSpec(R=R)).value
            ref = rectangle_lattice_sum(s, tau, R)
            n = lattice_points(tau, R).size
            assert abs(got - ref) <= (math.ceil(math.log2(n)) + 16) * 2.0**-53 * ref, (s, tau, R)


class TestFourier:
    def test_matches_lattice(self):
        lat = eisenstein_lattice(2.0, 1j, LatticeSumSpec(R=200))
        fou = eisenstein_fourier(2.0, 1j)
        assert abs(lat.value - fou.value) <= lat.est_error + fou.est_error + 1e-8

    def test_x_periodicity(self):
        a = eisenstein_fourier(1.5, 0.2 + 1.4j)
        b = eisenstein_fourier(1.5, 1.2 + 1.4j)
        assert abs(a.value - b.value) < 1e-12 * abs(a.value)

    def test_zero_mode_truncation_bound(self):
        y, s = 2.0, 1.5
        full = eisenstein_fourier(s, 1j * y).value
        zero_modes = 2 * riemann_zeta(2 * s) * (
            y**s + completed_zeta(2 * s - 1) / completed_zeta(2 * s) * y ** (1 - s))
        # first dropped term (n = +-1) in the lattice-normalized expansion
        bound = (
            2
            * (4 * math.pi**1.5 / math.gamma(1.5))
            * math.sqrt(y)
            * divisor_sigma(-2, 1)
            * kv(1.0, 4 * math.pi)
        )
        # tiny headroom for the n >= 2 terms riding on top of the n = 1 bound
        assert abs(full - zero_modes) < 1.01 * bound

    def test_pole_at_one(self):
        with pytest.raises(PoleAtS):
            eisenstein_fourier(1.0, 1j)

    @pytest.mark.parametrize("tau", [1.1j, 0.3 + 2j, -0.45 + 0.9j])
    def test_s_zero_is_two_zeta_zero(self, tau):
        # every mode but y^s carries 1/xi(2s), which vanishes at s = 0, so
        # E_0 = 2 zeta(0) = -1 exactly, and E_s is continuous there
        assert eisenstein_fourier(0.0, tau).value == -1.0
        for s in (1e-7, -1e-7):
            assert abs(eisenstein_fourier(s, tau).value + 1) <= 1e-6

    def test_mode_count_is_capped(self):
        # no tail bound is below a bar of 0: the search stops at MAX_MODES,
        # with the finite bound from there on, at the bottom of the domain
        x1 = 2 * math.pi * math.sqrt(3) / 2
        for s in (-2.3, 1.5, 40.0):
            count, tail = _mode_count(s, x1, completed_zeta(2 * s), 0.0)
            assert count == MAX_MODES and 0 < tail < math.inf, s

    def test_one_half_is_still_a_pole(self):
        # named as itself, not as zeta's pole at 1 reached through zeta(2s)
        with pytest.raises(PoleAtS, match=r"s = 1/2 is the limit where the poles of zeta\(2s\)"):
            eisenstein_fourier(0.5, 1.1j)

    @pytest.mark.parametrize("s", [0.25, 0.3, -0.5, -1.2, -2.3])
    def test_functional_equation_below_one_half(self, s):
        # xi(2s) E_s / (2 zeta(2s)) is the completed primitive series,
        # invariant under s -> 1 - s; 2 zeta(2s) < 0 at every s here but -1.2
        def completed(a, tau):
            return completed_zeta(2 * a) * eisenstein_fourier(a, tau).value / (
                2 * riemann_zeta(2 * a)
            )

        for tau in (1j, 0.1 + 1.1j, -0.3 + 2.0j):
            ref = completed(1 - s, tau)
            assert abs(completed(s, tau) - ref) <= 1e-14 * abs(ref)

    def test_cached_factors_keep_the_bits(self):
        # 40 seeded (s, tau), s = 0, negative s and s >= 55 among them; s = 120
        # is finite, as F_n = sigma_{1-2s}(n) n^(s-1/2) stays in the float range
        rng = np.random.default_rng(43)
        s_list = [0.0, -1.0, -2.3, 55.0, 80.0, 120.0] + list(rng.uniform(-6.0, 60.0, 34))
        cases = [(float(s), complex(rng.uniform(-2, 2), rng.uniform(0.05, 3.0))) for s in s_list]

        def uncached(s, tau):
            # the expansion with every s-only factor rebuilt on each call
            tau = fold_to_fundamental(tau)
            x, y = tau.real, tau.imag
            norm = 2 * riemann_zeta(2 * s)
            xi2s = math.inf if s == 0 else completed_zeta(2 * s)
            modes = [y**s, completed_zeta(2 * s - 1) / xi2s * y ** (1 - s)]
            x1, beta = 2 * math.pi * y, abs(s - 0.5)
            count, tail = _mode_count(s, x1, xi2s, MODE_BAR * sum(map(abs, modes)))
            for n, k in enumerate(_besselk_modes(s - 0.5, x1, count).tolist(), 1):
                if k == 0.0:
                    break
                factor = divisor_sigma(-2 * beta, n) * n**beta
                coef = 4 * math.sqrt(y) * factor * k / (2 * xi2s)
                modes.append(coef * 2 * math.cos(2 * math.pi * n * x))
            total = 0.0
            for mode in modes:
                total += mode
            xi_cond = 0.0 if s == 0 else _xi_condition(2 * s)
            rounding = 2.0**-53 * (
                (MAX_MODES + 2) * sum(map(abs, modes))
                + (_xi_condition(2 * s - 1) + xi_cond) * abs(modes[1])
                + (2 * (beta + count * x1) + xi_cond) * sum(map(abs, modes[2:])))
            value = norm * total
            return value, abs(norm) * (tail + rounding) + 2.0**-53 * _zeta_condition(
                2 * s) * abs(value)

        def values():
            out = []
            for s, tau in cases:
                try:
                    v = eisenstein_fourier(s, tau)
                    out.append((v.value, v.est_error))
                except DomainError as exc:
                    out.append(str(exc))
            return out

        _fourier_factors.cache_clear()
        cold = values()
        warm = values()
        assert _fourier_factors.cache_info().hits >= len(cases)
        assert warm == cold
        assert [i for i, v in enumerate(cold) if isinstance(v, str)] == []
        for case, got in zip(cases, cold):
            assert got == uncached(*case), case

    @pytest.mark.parametrize(
        "s", [-2.3, 0.25, 0.75, 1.5, 2.0, 3.0, 5.0, 8.0, 20.0, 40.0, 110.0]
    )
    def test_bar_covers_the_expansion(self, s):
        # Im tau from sqrt(3)/2, where the most modes are summed, to 8, where
        # the fewest are, and two images from outside the fundamental domain,
        # each against the oracle at the point it folds to
        rng = np.random.default_rng(61)
        taus = [complex(0.5, math.sqrt(3) / 2)]
        for y in np.geomspace(0.9, 8.0, 5):
            x = rng.uniform(-0.5, 0.5)
            while x * x + y * y < 1:
                x = rng.uniform(-0.5, 0.5)
            taus.append(complex(x, y))
        taus += [-1 / taus[1], 3 - 1 / taus[2]]
        for tau in taus:
            got = eisenstein_fourier(s, tau)
            ref = mpmath_fourier(s, fold_to_fundamental(tau))
            assert abs(got.value - ref) <= got.est_error < math.inf, (tau, got, ref)

    @pytest.mark.parametrize("s", [110.0, 120.0])
    def test_large_s_stays_in_the_float_range(self, s):
        # sigma_{2s-1}(n) overflowed a float from about s = 105 on; a 40-digit
        # lattice sum over |m|, |n| <= 8 leaves out less than 10^-60 of E_s here
        for tau in (1.1j, 0.3 + 2j, 8j):
            with mp.workdps(40):
                x, y = mp.mpf(tau.real), mp.mpf(tau.imag)
                ref = sum((y / ((m + n * x) ** 2 + (n * y) ** 2)) ** s
                          for m in range(-8, 9) for n in range(-8, 9) if m or n)
            got = eisenstein_fourier(s, tau)
            assert abs(got.value - ref) <= got.est_error <= 1e-14 * got.value, (tau, got)

    def test_mode_search_when_the_zero_modes_dwarf_xi(self):
        # 4/xi(342) over 2^-60 y^171 at y = 50 underflows a float: the mode
        # search takes it in logs (it raised ValueError); E_171 is 2 y^171
        assert eisenstein_fourier(171.0, 50j).value == pytest.approx(2 * 50.0**171, rel=1e-14)

    def test_pole_is_raised_on_every_call(self):
        for _ in range(2):
            with pytest.raises(PoleAtS):
                eisenstein_fourier(0.5, 1.1j)

    @pytest.mark.parametrize("s", [1.5, 2.0])
    def test_folds_tau_near_real_axis(self, s):
        # 0.2 + 0.06i folds by S then T^5; the oracle expands there
        tau = mp.mpc(-1) / mp.mpc(0.2, 0.06) + 5
        assert abs(tau) > 1 and abs(tau.real) <= 0.5
        assert eisenstein_fourier(s, 0.2 + 0.06j).value == pytest.approx(
            mpmath_fourier(s, tau), rel=1e-12
        )


class TestAgreement:
    @pytest.mark.parametrize("s", [2.0, 3.0])
    def test_methods_agree_random_taus(self, s):
        rng = np.random.default_rng(17)
        for _ in range(10):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.5))
            lat = eisenstein_lattice(s, tau, LatticeSumSpec(R=120))
            fou = eisenstein_fourier(s, tau)
            assert lat.agrees_with(fou), (s, tau, lat, fou)

    @pytest.mark.parametrize("s", [3.5, 4.0, 5.0])
    def test_bars_cover_rounding(self, s):
        # the Fourier bar's last mode and, from about s = 3.5 up, the lattice
        # truncation bar lie below binary64 rounding: the floors carry them
        rng = np.random.default_rng(23)
        for _ in range(6):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.87, 2.0))
            ref = mpmath_fourier(s, tau)
            lattice = eisenstein_lattice(s, tau, LatticeSumSpec(R=120))
            for got in (lattice, eisenstein_fourier(s, tau)):
                assert abs(got.value - ref) <= got.est_error, (s, tau, got)

    @pytest.mark.parametrize("s", [1.5, 2.0, 2.5])
    def test_modular_invariance(self, s):
        tau = 0.34 + 0.77j
        base = eisenstein_fourier(s, fold_to_fundamental(tau)).value
        for gamma in (tau + 1, -1 / tau):
            moved = eisenstein_fourier(s, fold_to_fundamental(gamma)).value
            assert abs(moved - base) < 1e-7 * abs(base)


class TestEigencheck:
    @pytest.mark.parametrize(
        "s,tau", [(2.0, 0.2 + 1.3j), (1.5, 1j), (2.5, 0.1 + 1.1j)]
    )
    def test_laplacian_eigenfunction(self, s, tau):
        assert laplacian_eigencheck(s, tau, 1e-3) < 1e-5

    def test_step_too_large(self):
        with pytest.raises(StepTooLarge):
            laplacian_eigencheck(2.0, 1j, 0.5)

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan])
    def test_step_must_be_positive(self, h):
        with pytest.raises(DomainError, match="step h must be positive"):
            laplacian_eigencheck(2.0, 1j, h)

    def test_step_whose_square_underflows(self):
        # 12 h^2 underflowed to 0 and second_5pt raised ZeroDivisionError
        with pytest.raises(DomainError, match="h = 1e-200 is too small"):
            laplacian_eigencheck(2, 1.1j, 1e-200)
