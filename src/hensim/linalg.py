"""Dense complex linear algebra for small (dim 2/4/8) qubit systems.

Everything here operates on plain numpy arrays with value semantics: inputs are
never mutated and all functions are pure, so they are safe to call from any
number of concurrent workers.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 8

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)


class DensityMatrixError(ValueError):
    """A candidate density matrix violates hermiticity, trace or positivity."""


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product restricted to total dimension <= 8."""
    a = _as_square(a)
    b = _as_square(b)
    if a.shape[0] * b.shape[0] > MAX_DIM:
        raise ValueError(
            f"kron dimension {a.shape[0]}x{b.shape[0]} exceeds {MAX_DIM}"
        )
    return np.kron(a, b)


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` gives the subsystem dimensions in tensor order; ``keep`` is a set
    of subsystem indices to retain. The kept subsystems stay in their original
    relative order.
    """
    rho = _as_square(rho)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if rho.shape[0] != total:
        raise ValueError(f"dims {dims} do not multiply to matrix dim {rho.shape[0]}")
    keep = sorted({int(k) for k in keep})
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep {keep} out of range for {len(dims)} subsystems")
    n = len(dims)
    reshaped = rho.reshape(dims + dims)
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out = np.einsum(reshaped, row + col)
    kept_dim = int(np.prod([dims[k] for k in keep]))
    return np.ascontiguousarray(out.reshape(kept_dim, kept_dim))


def matrix_exponential(h, t, herm_tol: float = 1e-12) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via eigendecomposition.

    Diagonalize, exponentiate the phases, recompose. Serves as the structurally
    independent oracle for the closed-form propagators.
    """
    h = _as_square(h)
    dev = np.abs(h - h.conj().T).max()
    if dev > herm_tol:
        raise ValueError(f"matrix is not Hermitian: max |h - h^dag| = {dev:.3e}")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * float(t))) @ v.conj().T


def validate_density(
    rho,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-12,
    eig_floor: float = -1e-10,
) -> np.ndarray:
    """Check hermiticity, unit trace and positivity; return the validated matrix.

    The positivity floor is slightly negative on purpose: finite-sample ensemble
    averages and round-off produce tiny negative eigenvalues that are not logic
    errors.

    Raises DensityMatrixError naming the violated invariant and its magnitude.
    """
    rho = _as_square(rho)
    herm = np.abs(rho - rho.conj().T).max()
    if herm > herm_tol:
        raise DensityMatrixError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise DensityMatrixError(f"trace is not 1: |Tr rho - 1| = {abs(tr - 1.0):.3e}")
    lam_min = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if lam_min < eig_floor:
        raise DensityMatrixError(f"not positive semidefinite: lambda_min = {lam_min:.3e}")
    return rho


def check_state_vector(psi, tol: float = 1e-12) -> np.ndarray:
    """Validate that ``psi`` is a normalized state vector."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if not np.all(np.isfinite(psi.view(float))):
        raise ValueError("state vector contains non-finite entries")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state vector is not normalized: |psi| = {norm!r}")
    return psi
