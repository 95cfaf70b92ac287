import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrosc.fock import (
    FockOperator,
    FockState,
    TruncationError,
    annihilation_operator,
    apply,
    coherent_amplitudes,
    coherent_state,
    default_truncation,
    expectation,
    inner,
    log_factorial,
    number_state,
    poisson_tail,
)


def poisson_pmf(mu, n):
    return math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1)) if mu > 0 \
        else float(n == 0)


class TestCoherentState:
    def test_vacuum_amplitudes(self):
        s = coherent_state(0.0, 8)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(s.amplitudes, expected)

    def test_amplitudes_broadcast_over_an_array(self):
        alphas = np.array([[0.0, 0.5 - 1.2j], [3.0, -2.0 + 0.1j]])
        amps = coherent_amplitudes(alphas, 30)
        assert amps.shape == (2, 2, 30)
        for idx in np.ndindex(alphas.shape):
            a = complex(alphas[idx])
            direct = [a ** k / math.sqrt(math.factorial(k))
                      * math.exp(-abs(a) ** 2 / 2) for k in range(30)]
            np.testing.assert_allclose(amps[idx], direct, rtol=1e-13,
                                       atol=1e-300)
        np.testing.assert_array_equal(amps[0, 0], np.eye(30)[0])

    def test_mean_occupation_alpha_3(self):
        # direct Poisson-summation oracle at mu = 9
        mu = 9.0
        oracle = sum(n * poisson_pmf(mu, n) for n in range(60))
        s = coherent_state(3.0, 60)
        n_op = FockOperator(np.diag(np.arange(60)))
        mean = expectation(n_op, s).real
        assert abs(mean - oracle) < 1e-9
        assert abs(mean - 9.0) < 1e-9

    def test_single_excitation_probability(self):
        s = coherent_state(0.5)
        p1 = abs(s.amplitudes[1]) ** 2
        assert abs(p1 - poisson_pmf(0.25, 1)) < 1e-12
        assert abs(p1 - 0.19470019576785122) < 1e-11

    def test_norm_is_unity_after_renormalization(self):
        s = coherent_state(2.0 - 1.5j)
        assert abs(s.norm() - 1.0) < 1e-12
        assert s.normalized

    def test_rejects_too_small_truncation(self):
        with pytest.raises(TruncationError):
            coherent_state(3.0, 12)

    def test_default_truncation_rule(self):
        assert default_truncation(3.0) == math.ceil(9 + 10 * math.sqrt(10) + 10)

    def test_large_amplitude_stays_finite(self):
        s = coherent_state(14.0)  # mean 196 needs n > 170 factorials
        assert s.n_trunc > 170
        assert np.isfinite(s.amplitudes).all()
        assert abs(s.norm() - 1.0) < 1e-12

    @given(st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                              allow_infinity=False))
    @settings(max_examples=30, deadline=None)
    def test_norm_property(self, alpha):
        s = coherent_state(alpha)
        assert abs(s.norm() - 1.0) < 1e-12


class TestApply:
    def test_identity(self):
        s = coherent_state(1.0 + 0.5j, 30)
        out = apply(FockOperator(np.eye(30)), s)
        np.testing.assert_allclose(out.amplitudes, s.amplitudes)

    def test_annihilation_eigenrelation(self):
        alpha = 1.3 + 0.4j
        s = coherent_state(alpha)
        out = apply(annihilation_operator(s.n_trunc), s)
        # top basis level carries the truncation artifact; compare below it
        diff = out.amplitudes[:-1] - alpha * s.amplitudes[:-1]
        assert np.linalg.norm(diff) < 1e-9

    def test_number_state_eigenrelation(self):
        s = number_state(3, 10)
        out = apply(FockOperator(np.diag(np.arange(10))), s)
        np.testing.assert_allclose(out.amplitudes, 3.0 * s.amplitudes)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply(FockOperator(np.eye(5)), number_state(0, 6))


class TestExpectation:
    def test_coherent_number_moments(self):
        beta = 1.7 * np.exp(0.3j)
        s = coherent_state(beta, 60)
        n_op = FockOperator(np.diag(np.arange(60)))
        n2_op = FockOperator(n_op.matrix @ n_op.matrix)
        mu = abs(beta) ** 2
        assert abs(expectation(n_op, s) - mu) < 1e-9
        assert abs(expectation(n2_op, s) - (mu ** 2 + mu)) < 1e-8

    def test_vacuum(self):
        s = coherent_state(0.0, 8)
        assert expectation(FockOperator(np.diag(np.arange(8))), s) == 0.0

    @given(st.integers(min_value=2, max_value=12), st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_hermitian_expectation_is_real(self, dim, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        herm = FockOperator(m + m.conj().T)
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = FockState(v / np.linalg.norm(v), normalized=True)
        assert abs(expectation(herm, state).imag) < 1e-10


class TestOperatorAlgebra:
    def test_ladder_matrix_elements_exact(self):
        n_trunc = 12
        a = annihilation_operator(n_trunc).matrix
        for n in range(n_trunc - 1):
            assert a[n, n + 1] == math.sqrt(n + 1)

    def test_commutator_on_interior_block(self):
        n_trunc = 40
        a = annihilation_operator(n_trunc).matrix
        comm = a @ a.conj().T - a.conj().T @ a
        interior = comm[: n_trunc - 1, : n_trunc - 1]
        assert np.abs(interior - np.eye(n_trunc - 1)).max() < 1e-12
        # truncation artifact stays confined to the top diagonal entry
        assert abs(comm[-1, -1] - (1 - n_trunc)) < 1e-10

    def test_number_ladder_commutator_sign(self):
        # matrix realization fixes [n, a] = -a
        n_trunc = 15
        a = annihilation_operator(n_trunc).matrix
        n_mat = np.diag(np.arange(n_trunc))
        np.testing.assert_allclose(n_mat @ a - a @ n_mat, -a, atol=1e-12)


class TestHelpers:
    def test_poisson_tail_matches_direct_sum(self):
        mu, cut = 4.0, 15
        direct = sum(poisson_pmf(mu, n) for n in range(cut, 200))
        assert abs(poisson_tail(mu, cut) - direct) < 1e-13

    def test_poisson_tail_matches_scipy_gammainc(self):
        # scipy is an independent reference here only; kerrosc never loads it
        from scipy.special import gammainc

        for mu in np.geomspace(1e-3, 300.0, 41):
            n = np.arange(int(mu + 20.0 * math.sqrt(mu) + 40.0) + 1)
            ours = np.array([poisson_tail(mu, int(k)) for k in n])
            np.testing.assert_allclose(ours, gammainc(n, mu), rtol=1e-10,
                                       atol=0.0, err_msg=f"mean {mu}")

    def test_log_factorial_matches_scipy_gammaln(self):
        from scipy.special import gammaln

        np.testing.assert_allclose(log_factorial(500),
                                   gammaln(np.arange(500) + 1.0),
                                   rtol=1e-12, atol=0.0)
        assert log_factorial(0).size == 0
        with pytest.raises(ValueError):
            log_factorial(10)[3] = 0.0

    def test_negative_sizes_refused(self):
        with pytest.raises(ValueError, match="n >= 0, got -5"):
            log_factorial(-5)
        with pytest.raises(ValueError, match="n >= 0, got -5"):
            poisson_tail(9.0, -5)

    def test_minimal_accepted_truncation_unchanged(self):
        # the smallest basis coherent_state accepts is the one the
        # incomplete-gamma tail (scipy's gammainc) puts under 1e-12
        from scipy.special import gammainc

        n = np.arange(1, 400)
        for mag in np.linspace(0.0, 15.0, 151):
            n_min = int(n[np.argmax(gammainc(n, mag ** 2) < 1e-12)])
            coherent_state(mag, n_min)
            if n_min > 1:
                with pytest.raises(TruncationError):
                    coherent_state(mag, n_min - 1)

    @pytest.mark.parametrize("scale", [math.sqrt(3.0), 1.0 + 2e-9, 0.0,
                                       math.nan])
    def test_normalized_claim_checked(self, scale):
        # a vector marked normalized more than 1e-9 from unit norm is refused,
        # with its norm in the message; within 1e-9 it is kept as given
        v = np.ones(3) / math.sqrt(3.0)
        norm = np.linalg.norm(scale * v)
        with pytest.raises(ValueError, match=f"norm {norm:.12g}, more than"):
            FockState(scale * v, normalized=True)
        FockState(scale * v)  # no claim, no check
        kept = FockState((1.0 + 5e-10) * v, normalized=True)
        assert kept.norm() == pytest.approx(1.0 + 5e-10, abs=1e-15)

    def test_inner_conjugates_first_argument(self):
        s1 = coherent_state(1.0, 25)
        s2 = coherent_state(1j, 25)
        assert inner(s1, s2) == pytest.approx(np.conj(inner(s2, s1)))

    def test_amplitudes_read_only(self):
        s = coherent_state(1.0, 20)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    @pytest.mark.parametrize("amplitudes", [np.ones((2, 2)), np.ones(0)],
                             ids=["2-D", "empty"])
    def test_state_must_be_a_non_empty_vector(self, amplitudes):
        with pytest.raises(ValueError, match="^amplitudes must be a non-empty "
                                             "1-D vector$"):
            FockState(amplitudes)

    def test_operator_must_be_square(self):
        with pytest.raises(ValueError,
                           match="^operator matrix must be square$"):
            FockOperator(np.ones((2, 3)))
