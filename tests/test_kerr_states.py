import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrosc.fock import (
    FockOperator,
    TruncationError,
    annihilation_operator,
    coherent_state,
    expectation,
    number_state,
)
from kerrosc.kerr_states import (
    KerrStateParams,
    deformed_ladder,
    kerr_state,
    mandel_q,
    mandel_q_state,
    modified_displacement,
    quadrature_variance_ratios,
)


def quadrature_ops(n_trunc):
    a = annihilation_operator(n_trunc).matrix
    x = (a + a.conj().T) / 2.0
    p = (a - a.conj().T) / 2.0j
    return (FockOperator(x), FockOperator(x @ x),
            FockOperator(p), FockOperator(p @ p))


def fock_variance_ratios(beta, xi, n_trunc=70):
    x, x2, p, p2 = quadrature_ops(n_trunc)
    s = kerr_state(KerrStateParams(beta, xi), n_trunc)
    var_q = expectation(x2, s).real - expectation(x, s).real ** 2
    var_p = expectation(p2, s).real - expectation(p, s).real ** 2
    return math.sqrt(var_q / 0.25), math.sqrt(var_p / 0.25)


class TestKerrState:
    def test_xi_zero_is_coherent(self):
        s = kerr_state(KerrStateParams(1.3 + 0.2j, 0.0), 50)
        c = coherent_state(1.3 + 0.2j, 50)
        np.testing.assert_allclose(s.amplitudes, c.amplitudes, atol=1e-14)

    def test_vacuum_fixed_point(self):
        s = kerr_state(KerrStateParams(0.0, 1.7), 10)
        expected = np.zeros(10)
        expected[0] = 1.0
        np.testing.assert_allclose(s.amplitudes, expected)

    def test_two_pi_periodicity_exact(self):
        s0 = kerr_state(KerrStateParams(0.9, 0.0), 40)
        s1 = kerr_state(KerrStateParams(0.9, 2.0 * math.pi), 40)
        np.testing.assert_allclose(s0.amplitudes, s1.amplitudes, atol=1e-12)

    def test_unit_norm(self):
        s = kerr_state(KerrStateParams(1.9 * np.exp(1.1j), 0.8))
        assert abs(s.norm() - 1.0) < 1e-12

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            kerr_state(KerrStateParams(3.0, 0.4), 12)

    @pytest.mark.parametrize("beta", [3.0, 1.0])
    @pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
                                      (1, 6), (1, 8), (3, 8), (2, 5)])
    def test_fractional_revival_is_a_gauss_sum(self, beta, p, q):
        # at xi = pi p/q the state is sum_k c_k |beta e^{-2 pi i k/L}>, with
        # L = q for even pq, else 2q, and c_k the Gauss sum
        # L^-1 sum_{m<L} e^{-i pi p m^2/q} e^{2 pi i k m/L} (Averbukh and
        # Perelman, Phys. Lett. A 139, 449 (1989)); exactly q weights are
        # nonzero, each 1/q
        n_levels = 60
        big_l = q if p * q % 2 == 0 else 2 * q
        m = np.arange(big_l)
        c = np.exp(-1j * math.pi * p * m ** 2 / q
                   + 2j * math.pi * np.outer(m, m) / big_l).mean(axis=1)
        superposition = sum(
            ck * coherent_state(beta * np.exp(-2j * math.pi * k / big_l),
                                n_levels).amplitudes
            for k, ck in enumerate(c))
        s = kerr_state(KerrStateParams(beta, math.pi * p / q), n_levels)
        assert np.abs(s.amplitudes - superposition).max() <= 1e-13
        weights = np.abs(c) ** 2
        nonzero = weights[weights > 1e-12]
        assert nonzero.size == q
        np.testing.assert_allclose(nonzero, 1.0 / q, rtol=0.0, atol=1e-12)


class TestDeformedLadder:
    def test_xi_zero_reduces_to_annihilation(self):
        np.testing.assert_allclose(deformed_ladder(0.0, 12).matrix,
                                   annihilation_operator(12).matrix)

    def test_matrix_elements(self):
        xi = 0.37
        b = deformed_ladder(xi, 10).matrix
        for n in range(9):
            expected = math.sqrt(n + 1) * np.exp(1j * xi * (2 * (n + 1) - 1))
            assert abs(b[n, n + 1] - expected) < 1e-14

    def test_eigenrelation_on_kerr_state(self):
        par = KerrStateParams(1.2 * np.exp(0.7j), 0.9)
        s = kerr_state(par, 70)
        b = deformed_ladder(par.xi, 70)
        resid = np.linalg.norm(b.matrix @ s.amplitudes - par.beta * s.amplitudes)
        assert resid < 1e-9

    def test_heisenberg_algebra_on_interior_block(self):
        n_trunc = 40
        b = deformed_ladder(0.6, n_trunc).matrix
        comm = b @ b.conj().T - b.conj().T @ b
        interior = comm[: n_trunc - 1, : n_trunc - 1]
        assert np.abs(interior - np.eye(n_trunc - 1)).max() < 1e-12

    def test_number_commutators(self):
        n_trunc = 20
        b = deformed_ladder(0.6, n_trunc).matrix
        n_mat = np.diag(np.arange(n_trunc, dtype=complex))
        np.testing.assert_allclose(n_mat @ b - b @ n_mat, -b, atol=1e-12)

    def test_modified_displacement_builds_the_state(self):
        par = KerrStateParams(1.1 * np.exp(0.3j), 0.8)
        n_trunc = 60
        d_b = modified_displacement(par, n_trunc)
        from_vacuum = d_b.matrix @ number_state(0, n_trunc).amplitudes
        target = kerr_state(par, n_trunc)
        assert np.linalg.norm(from_vacuum - target.amplitudes) < 1e-9


class TestKerrHamiltonianForm:
    def test_number_squared_identity(self):
        # a^dag a + a^dag a^dag a a = n^2 as matrices (exact on the interior;
        # the quartic term leaks only off the top two levels)
        n_trunc = 30
        a = annihilation_operator(n_trunc).matrix
        ad = a.conj().T
        lhs = ad @ a + ad @ ad @ a @ a
        n_sq = np.diag(np.arange(n_trunc, dtype=complex) ** 2)
        assert np.abs(lhs - n_sq).max() < 1e-10


class TestExcitationDistribution:
    def test_vacuum(self):
        p = kerr_state(KerrStateParams(0.0, 0.5), 10).occupations()
        assert p[0] == 1.0 and p[1:].max() == 0.0

    def test_integer_mean_has_two_modes(self):
        p = kerr_state(KerrStateParams(3.0, 0.3), 60).occupations()
        assert abs(p[8] - p[9]) < 1e-15
        assert p[8] > p[7] and p[9] > p[10]

    def test_normalized_over_window(self):
        p = kerr_state(KerrStateParams(2.0, 1.0)).occupations()
        assert abs(p.sum() - 1.0) < 1e-12

    @given(st.floats(0.1, 2.5), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=25, deadline=None)
    def test_xi_independent(self, b, xi):
        p0 = kerr_state(KerrStateParams(b, 0.0), 40).occupations()
        p1 = kerr_state(KerrStateParams(b, xi), 40).occupations()
        assert np.abs(p0 - p1).max() < 1e-12

    def test_matches_state_occupations(self):
        par = KerrStateParams(1.4 * np.exp(0.9j), 1.3)
        s = kerr_state(par, 50)
        mu = abs(par.beta) ** 2
        p = [math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))
             for n in range(50)]
        assert np.abs(s.occupations() - p).max() < 1e-10


class TestQuadratureVarianceRatios:
    def test_coherent_baseline(self):
        rq, rp = quadrature_variance_ratios(KerrStateParams(0.8, 0.0))
        assert abs(rq - 1.0) < 1e-12
        assert abs(rp - 1.0) < 1e-12

    def test_against_fock_moments_at_50_random_points(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            beta = rng.uniform(0.1, 2.0) * np.exp(2j * math.pi * rng.uniform())
            xi = rng.uniform(0.0, 2 * math.pi)
            rq_c, rp_c = quadrature_variance_ratios(KerrStateParams(beta, xi))
            rq_f, rp_f = fock_variance_ratios(beta, xi)
            assert abs(rq_c - rq_f) < 1e-8
            assert abs(rp_c - rp_f) < 1e-8

    def test_position_squeezing_exists_for_small_beta(self):
        xis = np.linspace(1e-3, math.pi - 1e-3, 800)
        rqs = [quadrature_variance_ratios(KerrStateParams(0.5, float(x)))[0]
               for x in xis]
        assert min(rqs) < 1.0

    def test_array_xi_matches_scalar_calls(self):
        # one broadcast call, as `kerrosc variances` makes, keeps xi's shape
        # and agrees with the scalar calls up to the rounding of np.exp
        beta = 1.2 * np.exp(0.7j)
        xis = np.linspace(0.0, 2 * math.pi, 24).reshape(4, 6)
        rq, rp = quadrature_variance_ratios(KerrStateParams(beta, xis))
        assert rq.shape == rp.shape == xis.shape
        want = np.array([quadrature_variance_ratios(KerrStateParams(beta, x))
                         for x in xis.ravel()])
        np.testing.assert_allclose(np.column_stack([rq.ravel(), rp.ravel()]),
                                   want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("beta, xi, name", [
        (complex(math.nan), 0.1, "beta"),
        (complex(0.5, math.inf), 0.1, "beta"),
        (0.5, -math.inf, "xi"),
        (0.5, np.array([0.1, math.nan]), "xi"),
    ])
    def test_non_finite_parameter_refused(self, beta, xi, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            KerrStateParams(beta, xi)

    def test_state_constructors_refuse_an_array_xi(self):
        with pytest.raises(TypeError):
            kerr_state(KerrStateParams(0.5, np.array([0.1, 0.2])), 20)

    def test_pi_periodicity(self):
        for xi in (0.3, 1.1, 2.0):
            r0 = quadrature_variance_ratios(KerrStateParams(0.7, xi))
            r1 = quadrature_variance_ratios(KerrStateParams(0.7, xi + math.pi))
            r2 = quadrature_variance_ratios(
                KerrStateParams(0.7, xi + 2 * math.pi))
            assert abs(r0[0] - r2[0]) < 1e-12 and abs(r0[1] - r2[1]) < 1e-12
            assert abs(r0[0] - r1[0]) < 1e-12 and abs(r0[1] - r1[1]) < 1e-12


class TestMandelQ:
    def test_zero_for_kerr_states(self):
        res = mandel_q(KerrStateParams(1.0, 0.7), 60)
        assert abs(res.q) < 1e-9

    def test_g2_is_unity(self):
        res = mandel_q(KerrStateParams(1.0, 0.7), 60)
        assert abs(res.g2_zero - 1.0) < 1e-9

    def test_number_state_control(self):
        res = mandel_q_state(number_state(4, 12))
        assert abs(res.q - (-1.0)) < 1e-12

    def test_vacuum_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            mandel_q(KerrStateParams(0.0, 0.3))

    @given(st.floats(0.2, 2.0), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=25, deadline=None)
    def test_xi_independence_of_number_moments(self, b, xi):
        q0 = mandel_q(KerrStateParams(b, 0.0), 60).q
        q1 = mandel_q(KerrStateParams(b, xi), 60).q
        assert abs(q0 - q1) < 1e-11
