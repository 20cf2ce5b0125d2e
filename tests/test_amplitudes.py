"""Tests for tree-level amplitudes and genus-one lattice sums."""

import itertools
import math
from collections import Counter

import mpmath as mp
import numpy as np
import pytest
from scipy.special import zeta

from halphen_lab.amplitudes import (
    MAX_TERMS,
    ZETA_ERROR,
    GraphMultiplicities,
    Mandelstam,
    _dn_lattice,
    _graph_lattice,
    _half_transform,
    _topology,
    _torus_sum,
    _weight_grid,
    _zeta_coef,
    dimension_dn,
    genus_one_propagator,
    genus_one_propagator_momentum,
    graph_D,
    kronecker_eisenstein_Dn,
    modular_anomaly,
    sigma_n,
    sigma_recursion_check,
    tree_amplitude_gamma,
    tree_amplitude_series,
)
from halphen_lab.errors import (
    CutoffTooLarge,
    DivergentParameter,
    DomainError,
    KinematicsDegenerate,
    LatticePointHit,
    NotConverged,
    PoleHit,
    WeightTooLarge,
)
from halphen_lab.maass import LatticeSumSpec, eisenstein_fourier, fold_to_fundamental, riemann_zeta
from halphen_lab.modforms import ModularPoint


class TestTreeAmplitude:
    def test_u_is_forced(self):
        k = Mandelstam(0.2, 0.3)
        assert k.u == pytest.approx(-0.5)

    @pytest.mark.parametrize("s, t", [(math.nan, 0.1), (math.inf, 0.2), (1e300, 0.2),
                                      (0.2, -math.inf)])
    def test_nonfinite_kinematics(self, s, t):
        # NaN printed a NaN amplitude; inf and 1e300 overflowed in Gamma
        with pytest.raises(DomainError, match="alpha' s t u must be finite"):
            Mandelstam(s, t)

    def test_gamma_vs_series(self):
        k = Mandelstam(0.1, 0.15)
        assert tree_amplitude_gamma(k) == pytest.approx(
            tree_amplitude_series(k, 12), abs=1e-10
        )

    def test_crossing_symmetry(self):
        s, t = 0.11, 0.23
        u = -(s + t)
        ref = tree_amplitude_gamma(Mandelstam(s, t))
        for a, b in itertools.permutations((s, t, u), 2):
            assert tree_amplitude_gamma(Mandelstam(a, b)) == pytest.approx(
                ref, rel=1e-12
            )

    def test_field_theory_limit(self):
        # alpha' -> 0: A ~ 1/(alpha'^3 s t u), so alpha'^3 A stu -> 1
        s, t = 0.3, 0.4
        for ap in (1e-2, 1e-3):
            k = Mandelstam(s, t, alpha_prime=ap)
            prod = k.xs[0] * k.xs[1] * k.xs[2]
            assert tree_amplitude_gamma(k) * prod == pytest.approx(1.0, abs=10 * ap**3)

    def test_series_with_no_terms(self):
        # N = 0 keeps only the pole prefactor
        k = Mandelstam(0.1, 0.15)
        prod = k.xs[0] * k.xs[1] * k.xs[2]
        assert tree_amplitude_series(k, 0) == pytest.approx(1.0 / prod)

    def test_not_converged(self):
        with pytest.raises(NotConverged):
            tree_amplitude_series(Mandelstam(0.4, 0.4), 2, tol=1e-12)

    def test_series_domain(self):
        with pytest.raises(NotConverged):
            tree_amplitude_series(Mandelstam(1.5, 0.1), 5)

    def test_degenerate_kinematics(self):
        with pytest.raises(KinematicsDegenerate):
            tree_amplitude_gamma(Mandelstam(0.0, 0.3))

    def test_gamma_pole(self):
        with pytest.raises(PoleHit):
            tree_amplitude_gamma(Mandelstam(1.0, 0.3))

    def test_bad_alpha_prime(self):
        with pytest.raises(DomainError):
            Mandelstam(0.1, 0.1, alpha_prime=-1.0)

    def test_series_matches_uncached_loop(self):
        # the exponent with every odd zeta recomputed on each call
        rng = np.random.default_rng(37)
        for _ in range(20):
            s, t = rng.uniform(-0.25, 0.25, 2)
            ap = rng.choice([0.5, 1.0, 2.0])
            k = Mandelstam(s / ap, t / ap, alpha_prime=ap)
            N = int(rng.integers(20, 25))
            expo = 0.0
            for n in range(1, N + 1):
                expo -= 2 * riemann_zeta(2 * n + 1) / (2 * n + 1) * sigma_n(k, 2 * n + 1)
            xs = k.xs
            assert tree_amplitude_series(k, N) == math.exp(expo) / (xs[0] * xs[1] * xs[2])

    def test_series_stops_once_the_terms_underflow(self):
        # 0.3^(2n+1) underflows near n = 310: every later term is 0, so N
        # past it changes neither the value nor the work, and the odd zetas
        # are cached only below 2n+1 = 55, where riemann_zeta reaches 1.0
        k = Mandelstam(0.1, 0.2)
        assert tree_amplitude_series(k, 10**8) == tree_amplitude_series(k, 400)
        assert _zeta_coef.cache_info().currsize <= 26

    def test_series_term_budget(self):
        # |alpha' s| near 1: the terms never underflow
        k = Mandelstam(0.999, -0.0005)
        tree_amplitude_series(k, MAX_TERMS, tol=math.inf)
        with pytest.raises(NotConverged, match=f"term budget of {MAX_TERMS}"):
            tree_amplitude_series(k, MAX_TERMS + 1, tol=math.inf)

    @pytest.mark.parametrize("s, t", [(1e-120, 1e-100), (-1e-120, 1e-100)])
    def test_amplitude_overflow(self, s, t):
        # alpha'^3 stu is subnormal, and 1 / stu overflows
        for form in (tree_amplitude_gamma, lambda k: tree_amplitude_series(k, 20)):
            with pytest.raises(DomainError, match="overflows a float"):
                form(Mandelstam(s, t))


class TestSigma:
    def test_low_n_recursions_exact(self):
        k = Mandelstam(0.17, -0.29)
        assert sigma_recursion_check(k, 2) == 0.0
        assert sigma_recursion_check(k, 3) == 0.0

    def test_n_five(self):
        k = Mandelstam(0.17, -0.29)
        assert sigma_recursion_check(k, 5) < 1e-14

    def test_higher_n(self):
        k = Mandelstam(0.3, 0.2)
        for n in (4, 6, 7):
            assert sigma_recursion_check(k, n) < 1e-13

    def test_sigma_one_rejected(self):
        with pytest.raises(DomainError):
            sigma_n(Mandelstam(0.1, 0.2), 1)

    def test_dimension_count(self):
        assert dimension_dn(4) == 1
        assert dimension_dn(2) == 0
        assert dimension_dn(12) == 2
        # weights 0, 4, 6, 8, 10 each carry exactly one form; odd none
        assert [dimension_dn(n) for n in range(13)] == [
            1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2,
        ]
        with pytest.raises(DomainError):
            dimension_dn(-1)


class TestPropagator:
    def test_even_in_z(self):
        tau = ModularPoint(1.3j)
        z = 0.21 + 0.35j
        assert genus_one_propagator(z, tau) == pytest.approx(
            genus_one_propagator(-z, tau), abs=1e-12
        )

    def test_double_periodicity(self):
        tau = ModularPoint(0.2 + 1.3j)
        z = 0.21 + 0.35j
        base = genus_one_propagator(z, tau)
        assert genus_one_propagator(z + 1, tau) == pytest.approx(base, abs=1e-9)
        assert genus_one_propagator(z + tau.tau, tau) == pytest.approx(base, abs=1e-9)

    def test_momentum_form_agreement(self):
        tau = ModularPoint(1.1j)
        z = 0.3 + 0.2j
        direct = genus_one_propagator(z, tau)
        momentum = genus_one_propagator_momentum(z, tau, R=80) + modular_anomaly(tau)
        assert abs(direct - momentum) < 1e-3

    def test_lattice_point(self):
        tau = ModularPoint(1.3j)
        with pytest.raises(LatticePointHit):
            genus_one_propagator(0.0, tau)
        with pytest.raises(LatticePointHit):
            genus_one_propagator(1 + tau.tau, tau)

    def test_torus_average_is_anomaly(self):
        # the momentum form has no zero mode, so the average of the direct
        # propagator over the torus is the anomaly constant
        tau = ModularPoint(1.1j)
        n = 14
        vals = [
            genus_one_propagator((i + 0.5) / n + ((j + 0.5) / n) * tau.tau, tau)
            for i in range(n)
            for j in range(n)
        ]
        assert abs(float(np.mean(vals)) - modular_anomaly(tau)) < 1e-2

    @pytest.mark.parametrize("R", [0, -3, 1, 2.5])
    def test_momentum_form_rejects_bad_cutoff(self, R):
        with pytest.raises(DomainError, match="cutoff"):
            genus_one_propagator_momentum(0.3 + 0.2j, ModularPoint(1.1j), R=R)

    def test_momentum_form_grid_average_vanishes(self):
        tau = ModularPoint(1.1j)
        n = 12
        vals = [
            genus_one_propagator_momentum(
                (i + 0.5) / n + ((j + 0.5) / n) * tau.tau, tau, R=40
            )
            for i in range(n)
            for j in range(n)
        ]
        assert abs(float(np.mean(vals))) < 1e-2


def _meshgrid_weight_grid(tau, R):
    """Reference: W(p) = tau_2 / (4 pi |p|^2), W(0) = 0, on the full
    (2R+1)^2 grid of complex p = m + n tau, origin at the centre."""
    M, N = np.meshgrid(np.arange(-R, R + 1), np.arange(-R, R + 1), indexing="ij")
    p2 = np.abs(M + N * tau) ** 2
    W = np.zeros_like(p2)
    mask = p2 > 0
    W[mask] = tau.imag / (4 * math.pi * p2[mask])
    return W


_GRID_R = pytest.mark.parametrize("R", [2, 3, 60])
_GRID_TAU = pytest.mark.parametrize("tau", [2j, 0.3 + 1.1j, 1.3 + 0.7j])


class TestWeightGrid:
    @_GRID_R
    @_GRID_TAU
    def test_half_grid_is_reference_rows_m_nonnegative(self, tau, R):
        Wh = _weight_grid(tau, R)
        assert Wh.shape == (R + 1, 2 * R + 1)
        assert Wh[0, R] == 0.0
        np.testing.assert_allclose(Wh, _meshgrid_weight_grid(tau, R)[R:], rtol=2e-15, atol=0)

    @_GRID_R
    @_GRID_TAU
    def test_full_grid_mirrors_half(self, tau, R):
        # row -m is row m reversed: the even extension the transforms assume
        Wh = _weight_grid(tau, R)
        W = np.concatenate([Wh[:0:-1, ::-1], Wh])
        np.testing.assert_allclose(W, _meshgrid_weight_grid(tau, R), rtol=2e-15, atol=0)
        assert np.array_equal(W, W[::-1, ::-1])  # W(-p) == W(p) exactly, row m = 0 too

    @_GRID_R
    @_GRID_TAU
    def test_d2_is_sum_of_squares(self, tau, R):
        # over the grid of the image of tau in the fundamental domain
        ref = float(np.sum(_meshgrid_weight_grid(fold_to_fundamental(tau), R) ** 2))
        got = kronecker_eisenstein_Dn(2, ModularPoint(tau), LatticeSumSpec(R=R))
        assert got.value == pytest.approx(ref, rel=1e-14, abs=0)


def _torus_grid(Wh, L):
    """Reference: the even half-plane grid Wh mirrored to the full (2R+1)^2
    box and wrapped onto the L x L torus, p = (m, n) at (m mod L, n mod L)."""
    R = Wh.shape[0] - 1
    full = np.concatenate([Wh[:0:-1, ::-1], Wh])
    T = np.zeros((L, L))
    k = np.arange(-R, R + 1) % L
    T[np.ix_(k, k)] = full
    return T


class TestParsevalKernel:
    @pytest.mark.parametrize("R", [2, 7, 20])
    @pytest.mark.parametrize("extra", [1, 2])  # odd and even L
    def test_stacked_transform_is_per_grid_transform(self, R, extra):
        W = _weight_grid(0.3 + 1.1j, R)
        L = 4 * R + extra
        stacked = _half_transform(np.stack((W**2, W**3)), L)
        assert stacked.shape == (2, L // 2 + 1, L)
        assert np.array_equal(stacked[0], _half_transform(W**2, L))
        assert np.array_equal(stacked[1], _half_transform(W**3, L))

    @pytest.mark.parametrize("tau", [2j, -0.27 + 1.4j])
    @pytest.mark.parametrize("R, L", [(3, 7), (3, 8), (5, 16), (5, 17), (8, 25), (8, 30)])
    def test_torus_sum_is_full_torus_sum(self, tau, R, L):
        # the full-torus transform by fft2 knows nothing of the half-plane
        # layout, the reflected k_m or the mirror weights of the rows
        W = _weight_grid(tau, R)
        X_full = np.fft.fft2(_torus_grid(W, L)).real
        Y_full = np.fft.fft2(_torus_grid(W**2, L)).real
        ref = float(np.sum(X_full * Y_full)) / L**2
        got = _torus_sum(_half_transform(W, L), _half_transform(W**2, L))
        assert got == pytest.approx(ref, rel=1e-13, abs=0)

    @pytest.mark.parametrize("tau", [2j, -0.27 + 1.4j])
    @pytest.mark.parametrize("R", [2, 8, 20])
    def test_twice_cutoff_grid_slice_is_weight_grid(self, tau, R):
        # graph_D takes the (2R+1)^2 box of q1 and q2 from the 4R box's grid
        box = _weight_grid(tau, 2 * R)[: R + 1, R : 3 * R + 1]
        assert np.array_equal(box, _weight_grid(tau, R))

    def test_cached_topology_is_fresh_classification(self):
        # the sizes come sorted: `_graph_lattice` leaves sizes[0], the
        # smallest class, uncut
        for mult in itertools.product(range(7), repeat=6):
            if 1 <= sum(mult) <= 6:
                assert _topology(mult) == _reference_topology(mult), mult


class TestDn:
    @pytest.mark.parametrize("n, R, size", [(2, 100000, "149 GiB"), (4, 3000, "0.55 GiB")])
    def test_cutoff_above_the_array_budget(self, n, R, size):
        # R = 100000 asked numpy for a 149 GiB weight grid
        with pytest.raises(CutoffTooLarge, match=size):
            kronecker_eisenstein_Dn(n, ModularPoint(2j), LatticeSumSpec(R=R))

    def test_d2_is_eisenstein(self):
        tau = ModularPoint(1.2j)
        d2 = kronecker_eisenstein_Dn(2, tau)
        ref = eisenstein_fourier(2, tau.tau).value / (4 * math.pi) ** 2
        assert abs(d2.value - ref) / abs(ref) < 1e-4

    def test_d3_offset(self):
        tau = ModularPoint(2.0j)
        d3 = _dn_lattice(3, tau.tau, 120)
        ref = eisenstein_fourier(3, tau.tau).value / (4 * math.pi) ** 3
        assert d3.value - ref == pytest.approx(zeta(3) / 64, abs=1e-3)

    def test_tau_translation_invariance(self):
        a = kronecker_eisenstein_Dn(2, ModularPoint(0.3 + 1.2j))
        b = kronecker_eisenstein_Dn(2, ModularPoint(1.3 + 1.2j))
        assert a.agrees_with(b)

    def test_tau_inversion_invariance(self):
        t = 0.3 + 1.2j
        a = kronecker_eisenstein_Dn(2, ModularPoint(t))
        b = kronecker_eisenstein_Dn(2, ModularPoint(-1 / t))
        assert abs(a.value - b.value) < 3 * (a.est_error + b.est_error)

    @pytest.mark.parametrize("tau", [0.3 + 1.1j, 1.3 + 0.7j, 2j])
    @pytest.mark.parametrize("R", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_enumeration(self, n, R, tau):
        got = _dn_lattice(n, tau, R)
        assert got.value == pytest.approx(_enumerated_dn(n, tau, R), rel=1e-12, abs=0)

    def test_non_integral_cutoff_rejected(self):
        tau = ModularPoint(2j)
        with pytest.raises(DomainError, match="37.9"):
            kronecker_eisenstein_Dn(2, tau, LatticeSumSpec(R=37.9))
        assert kronecker_eisenstein_Dn(4, tau, LatticeSumSpec(R=5.0)) == (
            kronecker_eisenstein_Dn(4, tau, LatticeSumSpec(R=5))
        )

    def test_divergent_and_capped(self):
        with pytest.raises(DivergentParameter):
            kronecker_eisenstein_Dn(1, ModularPoint(1j))
        with pytest.raises(WeightTooLarge):
            kronecker_eisenstein_Dn(5, ModularPoint(1j))


DOUBLE_BANANA = GraphMultiplicities((2, 0, 0, 0, 0, 2))
_FAR_TAUS = [5.3 + 1.1j, 20.3 + 1.1j, 0.03 + 0.05j]


class TestFolding:
    """The box sums are SL(2,Z)-invariant, and their bars hold for a box
    that is nearly a square of the lattice: tau is folded into the
    fundamental domain first."""

    @pytest.mark.parametrize("tau", _FAR_TAUS)
    def test_far_tau_meets_eisenstein(self, tau):
        # D_2 = E_2/(4 pi)^2 and the double banana is its square; unfolded,
        # D_2 missed its bar 6x at 5.3 + 1.1i and 87x at 20.3 + 1.1i
        ref = eisenstein_fourier(2, tau).value / (4 * math.pi) ** 2
        d2 = kronecker_eisenstein_Dn(2, ModularPoint(tau), LatticeSumSpec(R=120))
        assert abs(d2.value - ref) <= d2.est_error
        banana = graph_D(DOUBLE_BANANA, ModularPoint(tau), LatticeSumSpec(R=20))
        assert abs(banana.value - ref**2) <= banana.est_error

    @pytest.mark.parametrize("tau", [0.3 + 1.1j, *_FAR_TAUS])
    @pytest.mark.parametrize("f", [
        lambda t: kronecker_eisenstein_Dn(2, t, LatticeSumSpec(R=120)),
        lambda t: kronecker_eisenstein_Dn(4, t, LatticeSumSpec(R=20)),
        lambda t: graph_D(DOUBLE_BANANA, t, LatticeSumSpec(R=20)),
        lambda t: graph_D(GraphMultiplicities((2, 1, 0, 1, 0, 0)), t, LatticeSumSpec(R=20)),
    ], ids=["D2", "D4", "double-banana", "C211"])
    def test_invariance_witness(self, f, tau):
        # |f(gamma tau) - f(tau)| <= bar(gamma tau) + bar(tau) for gamma = T and
        # ST; S witnesses nothing, as the square box is S-invariant
        base = f(ModularPoint(tau))
        for moved in (tau + 1, -1 / (tau + 1)):
            image = f(ModularPoint(moved))
            assert abs(image.value - base.value) <= image.est_error + base.est_error, moved


def _enumerated_dn(n, tau, R):
    """Reference: D_3 or D_4 by direct enumeration, p_1 .. p_(n-1) over the
    (2R+1)^2 box and p_n = -(p_1 + ... + p_(n-1)) kept when it lies in the
    box too."""
    k = np.arange(-R, R + 1)
    M, N = np.meshgrid(k, k, indexing="ij")
    p2 = np.abs(M + N * tau) ** 2
    W = np.zeros(p2.shape)
    W[p2 > 0] = tau.imag / (4 * math.pi * p2[p2 > 0])

    def weight(m, n):
        inside = (np.abs(m) <= R) & (np.abs(n) <= R)
        return np.where(inside, W[np.clip(m, -R, R) + R, np.clip(n, -R, R) + R], 0.0)

    m, n_, w = M.ravel(), N.ravel(), W.ravel()
    pair = w[:, None] * w[None, :]
    m12, n12 = m[:, None] + m[None, :], n_[:, None] + n_[None, :]
    if n == 3:
        return math.fsum((pair * weight(-m12, -n12)).ravel().tolist())
    return math.fsum(
        w3 * math.fsum((pair * weight(-m12 - m3, -n12 - n3)).ravel().tolist())
        for m3, n3, w3 in zip(m, n_, w)
    )


def _fundamental_cycles(edges):
    """Spanning-forest cycle basis of a multigraph on vertices {0..3}.

    Returns signed cycle vectors over the edge list, one per chord.
    Momentum conservation factorizes over connected components, so a
    single forest-wide basis is correct for disconnected graphs too.
    """
    verts = sorted({v for e in edges for v in e})
    adj = {v: [] for v in verts}
    for idx, (a, b) in enumerate(edges):
        adj[a].append((b, idx, +1))  # edge oriented a -> b carries +p
        adj[b].append((a, idx, -1))
    parent = {}  # vertex -> (prev vertex, edge idx, sign into vertex) | None
    for root in verts:
        if root in parent:
            continue
        parent[root] = None
        order = [root]
        for vtx in order:  # breadth first: the loop visits what it appends
            for nb, idx, sgn in adj[vtx]:
                if nb not in parent:
                    parent[nb] = (vtx, idx, sgn)
                    order.append(nb)

    def path_to_root(v):  # (edge, sign into its vertex) up to v's root
        while parent[v] is not None:
            v, idx, sgn = parent[v]
            yield idx, sgn

    cycles = []
    tree = {parent[v][1] for v in parent if parent[v] is not None}
    for idx, (a, b) in enumerate(edges):
        if idx in tree:
            continue
        vec = [0] * len(edges)
        vec[idx] = 1  # loop momentum flows a -> b on the chord
        # close the loop through the forest: b -> root against each tree
        # edge's orientation into its vertex, root -> a along it
        for e, sgn in path_to_root(b):
            vec[e] -= sgn
        for e, sgn in path_to_root(a):
            vec[e] += sgn
        cycles.append(vec)
    return verts, cycles


def _reference_topology(mult):
    """(bridge, loops, sorted class sizes) from the cycle basis: an edge on
    no cycle is a bridge, and edges whose cycle vectors agree up to sign
    carry one momentum, so they share a class."""
    edges = GraphMultiplicities(mult).edges()
    _, cycles = _fundamental_cycles(edges)
    columns = [tuple(c[i] for c in cycles) for i in range(len(edges))]
    classes = Counter(max(col, tuple(-x for x in col)) for col in columns if any(col))
    return not all(map(any, columns)), len(cycles), tuple(sorted(classes.values()))


def _enumerated_graph_sum(mult, tau, R):
    """Reference: the sum over q1 and q2 in the (2R+1)^2 box by direct
    enumeration (O(R^4)), with the classes of `_topology`.  A class of k
    edges on one momentum contributes W^k; of three classes, the smallest
    is on q1 + q2, uncut."""
    _, _, sizes = _topology(mult)
    rng = np.arange(-R, R + 1)
    M, N = np.meshgrid(rng, rng, indexing="ij")
    P = (M + N * tau).ravel()

    def weights(p):
        w = np.zeros(p.shape)
        mask = np.abs(p) > 1e-12
        w[mask] = tau.imag / (4 * math.pi * np.abs(p[mask]) ** 2)
        return w

    W = weights(P)
    if len(sizes) < 3:
        return math.prod(float(np.sum(W**k)) for k in sizes)
    k3, k1, k2 = sizes
    return sum(float(w1**k1 * np.sum(W**k2 * weights(q1 + P) ** k3)) for q1, w1 in zip(P, W))


class TestGraphD:
    def test_cutoff_above_the_array_budget(self):
        with pytest.raises(CutoffTooLarge, match="two-loop convolution"):
            graph_D(GraphMultiplicities((2, 1, 0, 1, 0, 0)), ModularPoint(2j),
                    LatticeSumSpec(R=2000))

    def test_cycles_conserve_momentum(self):
        _, cycles = _fundamental_cycles(GraphMultiplicities((1, 1, 0, 1, 0, 0)).edges())
        assert cycles == [[1, -1, 1]]
        for w in range(1, 7):
            for mult in itertools.product(range(w + 1), repeat=6):
                if sum(mult) != w:
                    continue
                edges = GraphMultiplicities(mult).edges()
                verts, cycles = _fundamental_cycles(edges)
                for c in cycles:
                    for v in verts:
                        inflow = sum(q * ((b == v) - (a == v)) for q, (a, b) in zip(c, edges))
                        assert inflow == 0, (mult, c, v)

    def test_fft_reduction_matches_enumeration(self):
        # every multiplicity vector of weight <= 6 at a generic tau, at an
        # odd torus length (R = 3, L = 15) and at an even one (R = 4,
        # L = 18), whose column L/2 is its own mirror image
        tau = ModularPoint(0.3 + 1.1j)
        for R in (3, 4):
            spec = LatticeSumSpec(R=R)
            summed = 0
            for w in range(1, 7):
                for mult in itertools.product(range(w + 1), repeat=6):
                    if sum(mult) != w:
                        continue
                    bridged, loops, _ = _reference_topology(mult)
                    banana = sum(1 for v in mult if v) == 1
                    if bridged:
                        g = graph_D(GraphMultiplicities(mult), tau, spec)
                        assert g.value == 0.0 and g.note == "zero-mode-excluded"
                    elif banana:
                        continue  # delegated to D_n, see test_banana_matches_dn
                    elif loops > 2:
                        with pytest.raises(WeightTooLarge):
                            graph_D(GraphMultiplicities(mult), tau, spec)
                    else:
                        g = _graph_lattice(GraphMultiplicities(mult), tau.tau, R)
                        ref = _enumerated_graph_sum(mult, tau.tau, R)
                        assert g.value == pytest.approx(ref, rel=1e-12, abs=0), mult
                        summed += 1
            assert summed == 64  # 7 one-loop and 57 two-loop graphs

    def test_banana_matches_dn(self):
        tau = ModularPoint(1.1j)
        spec = LatticeSumSpec(R=40)
        for n in (2, 3, 4):
            mult = [0] * 6
            mult[0] = n
            g = graph_D(GraphMultiplicities(tuple(mult)), tau, spec)
            d = kronecker_eisenstein_Dn(n, tau, spec)
            assert g.value == pytest.approx(d.value, rel=1e-12, abs=0)

    def test_triangle_is_single_loop_eisenstein(self):
        # one cycle forces the same momentum through all three edges:
        # sum_p W(p)^3 = E_3 / (4 pi)^3
        tau = ModularPoint(1.1j)
        g = graph_D(GraphMultiplicities((1, 1, 0, 1, 0, 0)), tau, LatticeSumSpec(R=40))
        ref = eisenstein_fourier(3, tau.tau).value / (4 * math.pi) ** 3
        assert g.value == pytest.approx(ref, rel=1e-6)

    def test_every_labelling_sums_the_same_bits(self):
        # C_{a,b,c} is symmetric in a, b and c: graphs whose classes have
        # the same sizes are one graph labelled differently, so they sum
        # the same box
        by_sizes = {}
        for mult in itertools.product(range(7), repeat=6):
            if 1 <= sum(mult) <= 6:
                bridge, loops, sizes = _reference_topology(mult)
                if not bridge and loops == 2:
                    by_sizes.setdefault(sizes, []).append(GraphMultiplicities(mult))
        assert sum(map(len, by_sizes.values())) == 63
        for tau in (ModularPoint(2j), ModularPoint(0.3 + 1.1j)):
            for R in (20, 40):
                for graphs in by_sizes.values():
                    first = graph_D(graphs[0], tau, LatticeSumSpec(R=R))
                    for graph in graphs[1:]:
                        got = graph_D(graph, tau, LatticeSumSpec(R=R))
                        assert (got.value, got.est_error) == (first.value, first.est_error), (
                            graph.n, graphs[0].n, tau, R)

    def test_bridge_vanishes(self):
        tau = ModularPoint(1.1j)
        g = graph_D(GraphMultiplicities((1, 0, 0, 0, 0, 1)), tau)
        assert g.value == 0.0
        assert g.note == "zero-mode-excluded"

    def test_double_banana_factorizes(self):
        tau = ModularPoint(1.1j)
        spec = LatticeSumSpec(R=40)
        g = graph_D(GraphMultiplicities((2, 0, 0, 0, 0, 2)), tau, spec)
        d2 = kronecker_eisenstein_Dn(2, tau, spec)
        assert g.value == pytest.approx(d2.value**2, rel=1e-10, abs=0)

    def test_bananas_sharing_a_vertex_factorize(self):
        # no edge carries q1 +- q2: the uncut convolution sums to a product
        tau = ModularPoint(1.1j)
        R = 40
        spec = LatticeSumSpec(R=R)
        g = graph_D(GraphMultiplicities((2, 0, 0, 2, 0, 0)), tau, spec)
        d2 = kronecker_eisenstein_Dn(2, tau, spec)
        assert g.value == pytest.approx(d2.value**2, rel=1e-12, abs=0)
        W2 = _meshgrid_weight_grid(tau.tau, R) ** 2
        # reference: the full linear convolution by zero-padded FFT
        shape = (4 * R + 1, 4 * R + 1)
        conv = np.fft.irfft2(np.fft.rfft2(W2, shape) ** 2, shape)
        assert g.value == pytest.approx(float(np.sum(conv)), rel=1e-13, abs=0)

    def test_non_integral_cutoff_rejected(self):
        tau = ModularPoint(1.1j)
        for mult in ((2, 1, 0, 1, 0, 0), (1, 0, 0, 0, 0, 1)):
            with pytest.raises(DomainError, match="37.9"):
                graph_D(GraphMultiplicities(mult), tau, LatticeSumSpec(R=37.9))
        triangle = GraphMultiplicities((1, 1, 0, 1, 0, 0))
        assert graph_D(triangle, tau, LatticeSumSpec(R=8.0)) == (
            graph_D(triangle, tau, LatticeSumSpec(R=8))
        )

    def test_weight_cap(self):
        with pytest.raises(WeightTooLarge):
            graph_D(GraphMultiplicities((4, 0, 0, 0, 0, 3)), ModularPoint(1j))

    def test_bad_multiplicities(self):
        with pytest.raises(DomainError):
            GraphMultiplicities((1, 2, 3))
        with pytest.raises(DomainError):
            GraphMultiplicities((0, 0, 0, 0, 0, 0))


def _mp_eisenstein(s, tau):
    """Oracle: E_s(tau) = sum' y^s / |m + n tau|^(2s) by its Fourier--Bessel
    expansion in 30-digit arithmetic, at the image of tau in the
    fundamental domain, folded in the same arithmetic."""
    with mp.workdps(30):
        t = mp.mpc(tau)
        while True:
            t -= mp.nint(t.real)
            if abs(t) >= 1:
                break
            t = -1 / t
        s, x, y = mp.mpf(s), t.real, t.imag
        total = 2 * mp.zeta(2 * s) * y**s + 2 * mp.sqrt(mp.pi) * mp.gamma(s - 0.5) * mp.zeta(
            2 * s - 1
        ) * y ** (1 - s) / mp.gamma(s)
        for n in range(1, 41):  # K_(s-1/2)(2 pi 40 y) < e^-200 at y >= sqrt(3)/2
            sigma = sum(mp.mpf(d) ** (1 - 2 * s) for d in range(1, n + 1) if n % d == 0)
            total += (
                8 * mp.pi**s * mp.sqrt(y) / mp.gamma(s) * mp.mpf(n) ** (s - 0.5)
                * sigma * mp.besselk(s - 0.5, 2 * mp.pi * n * y) * mp.cos(2 * mp.pi * n * x)
            )
        return total


def _mp_d3(tau):
    with mp.workdps(30):
        return _mp_eisenstein(3, tau) / (4 * mp.pi) ** 3 + mp.zeta(3) / 64


def _mp_c221(tau):
    with mp.workdps(30):
        return (mp.mpf(2) / 5 * _mp_eisenstein(5, tau) / mp.pi**5 + mp.zeta(5) / 30) / 4**5


def _reduction_taus():
    """24 seeded tau in the fundamental domain, Im tau up to 3, each with
    its images tau + 1 and -1/tau, and 20.3 + 1.1i."""
    rng = np.random.default_rng(41)
    taus = []
    while len(taus) < 3 * 24:
        t = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.86, 3.0))
        if abs(t) >= 1:
            taus += [t, t + 1, -1 / t]
    return taus + [20.3 + 1.1j]


C221 = GraphMultiplicities((1, 1, 1, 1, 1, 0))


class TestEisensteinReductions:
    @pytest.mark.parametrize("s", [3, 5])
    def test_zeta_error_bounds_riemann_zeta(self, s):
        with mp.workdps(30):
            assert abs(riemann_zeta(s) - mp.zeta(s)) <= ZETA_ERROR * riemann_zeta(s)

    def test_values_within_their_bars(self):
        for tau in _reduction_taus():
            mt = ModularPoint(tau)
            for got, ref in ((kronecker_eisenstein_Dn(3, mt), _mp_d3(tau)),
                             (graph_D(C221, mt), _mp_c221(tau))):
                with mp.workdps(30):
                    assert abs(got.value - ref) <= got.est_error, (tau, got, ref)
                assert got.est_error <= 1e-14 * got.value

    def test_cutoff_is_checked_but_unused(self):
        tau = ModularPoint(0.3 + 1.1j)
        for R in (2, 8, 120):
            spec = LatticeSumSpec(R=R)
            assert kronecker_eisenstein_Dn(3, tau, spec) == kronecker_eisenstein_Dn(3, tau)
            assert graph_D(C221, tau, spec) == graph_D(C221, tau)
        assert kronecker_eisenstein_Dn(3, tau).note.startswith("D_3 = E_3/(4 pi)^3")
        assert graph_D(C221, tau).note.startswith("C_2,2,1 = ((2/5) E_5/pi^5")
        with pytest.raises(DomainError, match="37.9"):
            kronecker_eisenstein_Dn(3, tau, LatticeSumSpec(R=37.9))
        with pytest.raises(DomainError, match="37.9"):
            graph_D(C221, tau, LatticeSumSpec(R=37.9))

    def test_weight_three_banana_is_d3(self):
        for tau in (ModularPoint(2j), ModularPoint(-0.27 + 1.4j)):
            d3 = kronecker_eisenstein_Dn(3, tau)
            for i in range(6):
                mult = [0] * 6
                mult[i] = 3
                assert graph_D(GraphMultiplicities(tuple(mult)), tau) == d3

    def test_every_221_graph_takes_the_reduction(self):
        # the six graphs of K_4 less one edge: a theta graph with paths of
        # 1, 2 and 2 edges, in every labelling
        tau = ModularPoint(-0.27 + 1.4j)
        R = 40
        ref = graph_D(C221, tau)
        found = 0
        for mult in itertools.product(range(6), repeat=6):
            if sum(mult) != 5:
                continue
            bridge, loops, sizes = _topology(mult)
            if bridge or loops != 2 or sizes != (1, 2, 2):
                continue
            found += 1
            graph = GraphMultiplicities(mult)
            assert graph_D(graph, tau, LatticeSumSpec(R=R)) == ref
            box = _graph_lattice(graph, tau.tau, R).value
            assert box == pytest.approx(ref.value, rel=0.05 * (1 + math.log(R)) / R**2, abs=0)
        assert found == 6
