import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bell_density, random_hermitian
from hensim.validation import (
    PAULI_Z,
    DensityMatrixError,
    matrix_exponential,
    partial_trace,
    validate_density,
)


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        red = partial_trace(bell_density(), [2, 2], {0})
        assert np.abs(red - np.eye(2) / 2).max() < 1e-14

    def test_product_factorization(self, rng):
        ha = random_hermitian(rng, 2)
        rho_a = ha @ ha.conj().T
        rho_a /= np.trace(rho_a)
        hb = random_hermitian(rng, 2)
        rho_b = hb @ hb.conj().T
        rho_b /= np.trace(rho_b)
        red = partial_trace(np.kron(rho_a, rho_b), [2, 2], {0})
        assert np.abs(red - rho_a).max() < 1e-13

    def test_three_qubit_pure_state_vs_outer_product_oracle(self, rng):
        # scalar oracle: form the outer product and sum over the traced index
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        rho = np.outer(amps, amps.conj())
        red = partial_trace(rho, [2, 2, 2], {1, 2})
        oracle = np.zeros((4, 4), dtype=complex)
        psi = amps.reshape(2, 2, 2)
        for i in range(2):
            oracle += np.outer(psi[i].ravel(), psi[i].ravel().conj())
        assert np.abs(red - oracle).max() < 1e-13

    def test_trace_preserved_and_validity(self, rng):
        h = random_hermitian(rng, 8)
        rho = h @ h.conj().T
        rho /= np.trace(rho)
        red = partial_trace(rho, [2, 2, 2], {0, 2})
        assert abs(np.trace(red) - np.trace(rho)) <= 1e-13
        validate_density(red)

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, [2, 3], {0})
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, [2, 2], set())


class TestMatrixExponential:
    def test_zero_hamiltonian(self):
        assert np.abs(matrix_exponential(np.zeros((4, 4)), 3.7) - np.eye(4)).max() < 1e-15

    def test_diagonal_case(self):
        u = matrix_exponential(PAULI_Z / 2, 1.3)
        expected = np.diag([np.exp(-0.5j * 1.3), np.exp(0.5j * 1.3)])
        assert np.abs(u - expected).max() < 1e-14

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    @settings(max_examples=30)
    @given(t1=st.floats(-10, 10), t2=st.floats(-10, 10), seed=st.integers(0, 2**31))
    def test_unitary_and_group_property(self, t1, t2, seed):
        h = random_hermitian(np.random.default_rng(seed), 4)
        u1 = matrix_exponential(h, t1)
        assert np.abs(u1.conj().T @ u1 - np.eye(4)).max() <= 1e-12
        u2 = matrix_exponential(h, t2)
        u12 = matrix_exponential(h, t1 + t2)
        assert np.abs(u1 @ u2 - u12).max() <= 1e-10


class TestValidateDensity:
    def test_maximally_mixed_valid(self):
        validate_density(np.eye(2) / 2)

    def test_positivity_error(self):
        with pytest.raises(DensityMatrixError, match="positive"):
            validate_density(np.diag([1.5, -0.5]).astype(complex))

    def test_trace_error(self):
        with pytest.raises(DensityMatrixError, match="trace"):
            validate_density(np.eye(2))

    def test_hermiticity_error(self):
        rho = np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex)
        with pytest.raises(DensityMatrixError, match="Hermitian"):
            validate_density(rho)

