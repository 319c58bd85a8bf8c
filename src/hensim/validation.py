"""Dense-matrix oracles and the cross-check suite that compares the closed forms against them.

This is the only module with dense-matrix code: Pauli operators, the Hermitian
matrix exponential, partial trace, density-matrix validation, the general
Wootters concurrence, the dense realization Hamiltonians and the closed-form
single-qubit propagator. It also holds assemble, which copies the three real
columns a realization kernel yields into its (real, complex) pair, the X-state
record (XState), the diagonal of an X state at gamma^2 (xstate_diagonal) and
the complex averaged X state (avg_xstate_two), against which the real-only
analytic.xstate_gap is checked, and the sweep that checks the brackets
(nextafter(t_c, 0), t_c) of entanglement.find_tc_batch's roots, which runs no
sweep of its own (check_tc_bracket). No production path uses them; the CLI imports this
module only for `validate`. The dense functions act on one matrix (n, n) or a stack
(..., n, n) alike, and never mutate their inputs. Basis conventions (|+> first):
  single-qubit system: 4x4 matrices in the product basis A (x) B, i.e.
  {|++>, |+->, |-+>, |-->};
  two-qubit system: 8x8 matrices in the product basis A2 (x) A1 (x) B1
  (auxiliary qubit first), so tracing out subsystem 0 leaves (A1, B1).

Each check_* draws its cases from the generator (or master seed) it is given
and returns the measured deviation. A per-case check holds all its cases in
one scenario record whose fields are (R, 1) columns, one row per case, and
makes one call per side on it: the closed forms and the realization kernels
take that record as the dense oracle does. run_suite holds every check's
name, seed, case count and bound, and turns them into the (name, passed,
detail) lines of the CLI `validate` report. The acceptance tests call the
same checks with their own seeds and bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from hensim.analytic import avg_population_single, xstate_gap
from hensim.ensemble import evolve_single_realization, evolve_two_realization, sample_ensemble, workspace
from hensim.entanglement import BLOCK_POINTS, FINITE, UNRESOLVED, concurrence, concurrence_x, find_tc_batch
from hensim.scenarios import SingleQubitScenario, TwoQubitScenario, coupling_c, subset, time_grid

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
_YY = np.kron(PAULI_Y, PAULI_Y)
# the constant operators of the realization Hamiltonians: Z on one factor of
# A (x) B, the A-B flip-flop, and Z on one factor of A2 (x) A1 (x) B1
_Z_A, _Z_B = np.kron(PAULI_Z, IDENTITY_2), np.kron(IDENTITY_2, PAULI_Z)
_FLIP_AB = np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS)
_Z_A2, _Z_A1, _Z_B1 = (reduce(np.kron, ops) for ops in ((PAULI_Z, IDENTITY_2, IDENTITY_2),
                       (IDENTITY_2, PAULI_Z, IDENTITY_2), (IDENTITY_2, IDENTITY_2, PAULI_Z)))
_FLIP_A2A1 = reduce(np.kron, (SIGMA_MINUS, SIGMA_PLUS, IDENTITY_2)) + reduce(
    np.kron, (SIGMA_PLUS, SIGMA_MINUS, IDENTITY_2))

PLUS = np.array([1.0, 0.0], dtype=complex)
MINUS = np.array([0.0, 1.0], dtype=complex)
BELL = np.kron(PLUS, PLUS) / np.sqrt(2) + np.kron(MINUS, MINUS) / np.sqrt(2)
# the two-qubit initial states: auxiliary qubit up/down, working pair in the Bell state
_AUX_UP_BELL, _AUX_DOWN_BELL = np.kron(PLUS, BELL), np.kron(MINUS, BELL)

# (low, high) of the uniform draws behind one random scenario, in draw order;
# a single-qubit scenario has xb = mag e^{i phase}
SINGLE_RANGES = {"omega_a": (-5, 5), "alpha": (0.5, 5.0), "phase": (0, 2 * np.pi), "mag": (0, 1)}
TWO_RANGES = {"x": (0.0, 1.0), "omega_a": (-5, 5), "alpha": (0.5, 5.0), "var_a": (0, 2),
              "var_b": (0, 2)}


@dataclass
class XState:
    """The five nonzero entries (a, b, c, d, z) of a two-qubit X state.

    In the standard {|++>, |+->, |-+>, |-->} basis the diagonal is
    (b, a, d, c) and z sits on the |++><--| corner; a, b, c, d are real and z
    is complex. The entries may be scalars or arrays over realizations and
    times, for one realization or for an ensemble average.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    z: np.ndarray


class DensityMatrixError(ValueError):
    """A candidate density matrix violates hermiticity, trace or positivity."""


def _require(ok, measure, error, message: str):
    """Raise error(message.format(measure)) for the first matrix whose ok is False.

    ok and measure hold one value per matrix (0-d for one matrix); for a stack
    the message starts with the index of that matrix.
    """
    if not ok.all():
        i = tuple(int(k) for k in np.unravel_index(np.argmin(ok), ok.shape))
        where = f"matrix {i[0] if len(i) == 1 else i} of the stack: " if i else ""
        raise error(where + message.format(measure[i]))


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    count = np.count_nonzero(~np.isfinite(m), axis=(-2, -1))
    _require(count == 0, count, ValueError,
             "matrix contains non-finite entries" if m.ndim == 2 else "{} non-finite entries")
    return m


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``, for each matrix of a stack (..., n, n).

    ``dims`` gives the subsystem dimensions in tensor order; ``keep`` is a set
    of subsystem indices to retain. The kept subsystems stay in their original
    relative order.
    """
    rho = _as_square(rho)
    dims = [int(d) for d in dims]
    if rho.shape[-1] != int(np.prod(dims)):
        raise ValueError(f"dims {dims} do not multiply to matrix dim {rho.shape[-1]}")
    keep = sorted({int(k) for k in keep})
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep {keep} out of range for {len(dims)} subsystems")
    n = len(dims)
    reshaped = rho.reshape(rho.shape[:-2] + tuple(dims + dims))
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out = np.einsum(reshaped, [Ellipsis] + row + col)
    kept_dim = int(np.prod([dims[k] for k in keep]))
    return np.ascontiguousarray(out.reshape(rho.shape[:-2] + (kept_dim, kept_dim)))


def matrix_exponential(h, t) -> np.ndarray:
    """exp(-i h t) for Hermitian h, or each h of a stack (..., n, n), via eigendecomposition.

    Diagonalize, exponentiate the phases, recompose; t broadcasts against the
    stack's shape. The structurally independent oracle for the closed-form propagators.
    """
    h = _as_square(h)
    dev = np.abs(h - _dagger(h)).max(axis=(-2, -1))
    _require(dev <= 1e-12, dev, ValueError, "matrix is not Hermitian: max |h - h^dag| = {:.3e}")
    w, v = np.linalg.eigh(h)
    phase = np.exp(-1j * w * np.asarray(t, dtype=float)[..., None])
    return (v * phase[..., None, :]) @ _dagger(v)


def validate_density(rho) -> np.ndarray:
    """Check hermiticity and unit trace to 1e-12, and positivity; return the validated matrix.

    Every matrix of a stack (..., n, n) must pass. The positivity floor, -1e-10,
    is slightly negative on purpose: finite-sample ensemble averages and
    round-off produce tiny negative eigenvalues that are not logic errors.

    Raises DensityMatrixError naming the violated invariant, its magnitude and,
    for a stack, the index of the first matrix that violates it.
    """
    rho = _as_square(rho)
    herm = np.abs(rho - _dagger(rho)).max(axis=(-2, -1))
    _require(herm <= 1e-12, herm, DensityMatrixError, "not Hermitian: max |rho - rho^dag| = {:.3e}")
    tr = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    _require(tr <= 1e-12, tr, DensityMatrixError, "trace is not 1: |Tr rho - 1| = {:.3e}")
    lam_min = np.linalg.eigvalsh((rho + _dagger(rho)) / 2)[..., 0]
    _require(lam_min >= -1e-10, lam_min, DensityMatrixError,
             "not positive semidefinite: lambda_min = {:.3e}")
    return rho


def concurrence_general(rho):
    """Wootters concurrence of a two-qubit density matrix, or of each in a stack (..., 4, 4).

    The spin-flip roots are the singular values of sqrt(rho) (sy (x) sy) sqrt(rho)*,
    whose squares are the eigenvalues of the usual product rho (sy (x) sy) rho* (sy (x) sy).
    Singular values near 0 come out to round-off, where the square roots of
    eigenvalues near 0 would be off by up to sqrt(eps), 1.5e-8.
    Returns a float for one matrix, else an array of the stack's shape.
    """
    rho = validate_density(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit density matrix, got {rho.shape}")
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _dagger(v)
    roots = np.linalg.svd(sqrt_rho @ _YY @ sqrt_rho.conj(), compute_uv=False)  # descending
    c = np.clip(roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3], 0.0, 1.0)
    return float(c) if c.ndim == 0 else c


def xstate_diagonal(gamma2, s: TwoQubitScenario):
    """(a, b, c, d) of the X state at gamma^2 (ensemble.evolve_two_realization's real column).

    a = x c^2 gamma^2 / 2, d = y c^2 gamma^2 / 2, b = (x + y)/2 - d and
    c = (x + y)/2 - a: affine in gamma^2, so the mean of gamma^2 maps onto the
    means of all four, and its standard error, scaled by x c^2 / 2 and
    y c^2 / 2, is that of a and c and that of b and d.
    s's fields may be (R, 1) columns, to meet gamma^2 of shape (R, N).
    """
    c2 = coupling_c(s.alpha) ** 2
    h = 0.5 * (s.x + s.y)
    a, d = 0.5 * s.x * c2 * gamma2, 0.5 * s.y * c2 * gamma2
    return a, h - d, h - a, d


def xstate_matrix(elems) -> np.ndarray:
    """Assemble the 4x4 X-state density matrix in the standard product basis.

    Diagonal (b, a, d, c) with z on the |++><--| corner. Elements of shape S
    give a stack (*S, 4, 4); scalars give one matrix.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in (elems.a, elems.b, elems.c, elems.d, elems.z)))
    rho = np.zeros(shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = elems.b
    rho[..., 1, 1] = elems.a
    rho[..., 2, 2] = elems.d
    rho[..., 3, 3] = elems.c
    rho[..., 0, 3] = elems.z
    rho[..., 3, 0] = np.conj(rho[..., 0, 3])
    return rho


def assemble(columns) -> tuple[np.ndarray, np.ndarray]:
    """The (real, complex) columns of the three a realization kernel yields, as new arrays."""
    real, re, im = map(np.copy, columns)
    return real, re + 1j * im


def coupling_strength(eps: float, alpha: float, omega_a: float) -> float:
    """f(eps) = sqrt(alpha^2 - 1/4) (eps - omega_a); real-valued.

    np.square, here and in propagator_single_closed, rounds a scalar as it
    rounds each entry of a stack; a float's ** 2 can round an ulp apart, and
    the phase E t would carry that ulp.
    """
    return np.sqrt(np.square(alpha) - 0.25) * (eps - omega_a)


def _per_matrix(*values):
    """Each value as a float array with two trailing unit axes, to scale a stack of matrices."""
    return [np.asarray(v, dtype=float)[..., None, None] for v in values]


def build_h_single(eps, s: SingleQubitScenario) -> np.ndarray:
    """4x4 realization Hamiltonian for the working qubit + auxiliary qubit pair.

    eps and s's fields may be arrays (s a record of a stack of cases); they
    broadcast to a stack shape S, and the result is (*S, 4, 4).
    """
    eps, omega_a, alpha = _per_matrix(eps, s.omega_a, s.alpha)
    f = coupling_strength(eps, alpha, omega_a)
    return 0.5 * (omega_a * _Z_A + eps * _Z_B) + f * _FLIP_AB


def propagator_single_closed(eps, t, s: SingleQubitScenario) -> np.ndarray:
    """Closed-form evolution operator for build_h_single, block by block.

    The {|+->, |-+>} block rotates with energy E = sqrt((omega_a - eps)^2/4 + f^2);
    |++> and |--> pick up pure phases exp(-+ i (omega_a + eps) t / 2).
    eps, t and s's fields may be arrays (s a record of a stack of cases); they
    broadcast to a stack shape S, and the result is (*S, 4, 4).
    """
    f = coupling_strength(eps, s.alpha, s.omega_a)
    half_det = 0.5 * (s.omega_a - eps)
    e = np.sqrt(np.square(half_det) + np.square(f))
    cos_et = np.cos(e * t)
    sfac = t * np.sinc(e * t / np.pi)  # sin(E t) / E, whose limit at E = 0 is t
    u = np.zeros(np.shape(cos_et) + (4, 4), dtype=complex)
    phase = 0.5 * (s.omega_a + eps) * t
    u[..., 0, 0] = np.exp(-1j * phase)
    u[..., 3, 3] = np.exp(1j * phase)
    u[..., 1, 1] = cos_et - 1j * sfac * half_det
    u[..., 2, 2] = cos_et + 1j * sfac * half_det
    u[..., 1, 2] = u[..., 2, 1] = -1j * sfac * f
    return u


def build_h_two(eps_a, eps_b, s: TwoQubitScenario) -> np.ndarray:
    """8x8 realization Hamiltonian in the A2 (x) A1 (x) B1 basis.

    The (A1, A2) part is the single-qubit model with random spacing eps_a; the
    second working qubit B1 only carries its random shift eps_b, in the frame of
    its mean frequency (no record has it: hensim.scenarios).
    Stacks as build_h_single does.
    """
    eps_a, eps_b, omega_a, alpha = _per_matrix(eps_a, eps_b, s.omega_a, s.alpha)
    f = coupling_strength(eps_a, alpha, omega_a)
    h = 0.5 * (omega_a * _Z_A1 + eps_a * _Z_A2) + f * _FLIP_A2A1
    return h + 0.5 * eps_b * _Z_B1


def _draw(rng, ranges: dict, n: int) -> np.ndarray:
    """n cases as the rows of (n, k): one uniform draw per (low, high) in ``ranges``, in order."""
    low, high = np.array(list(ranges.values()), dtype=float).T
    return rng.uniform(low, high, (n, len(ranges)))


def _single_scenario(omega_a, alpha, phase, mag) -> SingleQubitScenario:
    """The record of one draw of SINGLE_RANGES, or of a stack of them as columns."""
    return SingleQubitScenario(omega_a=omega_a, alpha=alpha, xb=mag * np.exp(1j * phase), var=1.0)


def _two_scenario(*fields_in_draw_order) -> TwoQubitScenario:
    return TwoQubitScenario(**dict(zip(TWO_RANGES, fields_in_draw_order)))


def _outer(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for each state vector of a stack (..., n)."""
    return psi[..., :, None] * psi.conj()[..., None, :]


def single_oracle_elements(eps, t, s: SingleQubitScenario):
    """(rho_pp, rho_pm) via matrix exponential + partial trace (test oracle); stacks as build_h_single."""
    b = np.asarray(s.xb)[..., None] * PLUS + np.asarray(s.yb)[..., None] * MINUS
    psi0 = (MINUS[:, None] * b[..., None, :]).reshape(b.shape[:-1] + (4,))  # |->_A (x) b
    psi = (matrix_exponential(build_h_single(eps, s), t) @ psi0[..., None])[..., 0]
    rho_a = partial_trace(_outer(psi), [2, 2], {0})
    return rho_a[..., 0, 0].real, rho_a[..., 0, 1]


def two_oracle_xstate(eps_a, eps_b, t, s: TwoQubitScenario) -> np.ndarray:
    """Reduced (A1, B1) density matrix via the 8x8 exponential (test oracle); stacks as build_h_two."""
    u = matrix_exponential(build_h_two(eps_a, eps_b, s), t)
    (x,) = _per_matrix(s.x)
    rho = x * _outer(u @ _AUX_UP_BELL) + (1.0 - x) * _outer(u @ _AUX_DOWN_BELL)
    return partial_trace(rho, [2, 2, 2], {1, 2})


def avg_xstate_two(t, s: TwoQubitScenario) -> XState:
    """Averaged X-state elements of the two working qubits, in complex arithmetic.

    The CLI evaluates the real-only analytic.xstate_gap instead; this form is
    what check_gap_closed_form and check_concurrence_dual_path compare it with.
    t and s's fields broadcast: s is a record whose fields are scalars or
    (R, 1) columns, and its columns meet one t per case (R, 1) or a time grid
    (N,). z is in the frame of the second working qubit's mean frequency, as in
    ensemble.evolve_two_realization.
    """
    t = np.asarray(t, dtype=float)
    alpha = s.alpha
    sa, sb = np.sqrt(s.var_a) * t, np.sqrt(s.var_b) * t
    wa = s.omega_a
    # the diagonal is a realization's at gamma^2 = relax / 2, the mean of sin^2
    relax = 1.0 - np.cos(2.0 * alpha * wa * t) * np.exp(-2.0 * np.square(alpha * sa))
    inv2a = 1.0 / (2.0 * alpha)
    branch_plus = np.exp(1j * alpha * wa * t) * np.exp(-0.5 * np.square((alpha + 0.5) * sa)) * (1.0 - inv2a)
    branch_minus = np.exp(-1j * alpha * wa * t) * np.exp(-0.5 * np.square((alpha - 0.5) * sa)) * (1.0 + inv2a)
    z = 0.25 * np.exp(-0.5 * np.square(sb)) * np.exp(-0.5j * wa * t) * (branch_plus + branch_minus)
    return XState(*xstate_diagonal(0.5 * relax, s), z=z)


def _cases(rng, n_cases: int, make, ranges: dict, **extra):
    """n_cases draws of ``ranges`` then ``extra``, one case per row, as (R, 1) columns:
    the make(*columns) record of ``ranges``, then one column per extra."""
    columns = _draw(rng, {**ranges, **extra}, n_cases).T[..., None]
    return make(*columns[:len(ranges)]), *columns[len(ranges):]


def check_propagator_oracle(n_cases: int, rng) -> float:
    """Max entry deviation of the closed-form propagator from the eigendecomposition exponential."""
    s, eps, t = _cases(rng, n_cases, _single_scenario, SINGLE_RANGES, eps=(-5, 5), t=(0, 10))
    closed = propagator_single_closed(eps, t, s)
    oracle = matrix_exponential(build_h_single(eps, s), t)
    return float(np.abs(closed - oracle).max())


def check_two_qubit_oracle(n_cases: int, rng) -> float:
    """Max entry deviation of the closed-form X-state elements from the 8x8 propagator route."""
    s, eps_a, eps_b, t = _cases(rng, n_cases, _two_scenario, TWO_RANGES,
                                eps_a=(-5, 5), eps_b=(-5, 5), t=(0, 10))
    # column 1 of the kernel's 2-point grid [0, t] is the pointwise value at t;
    # it gives gamma^2 and z, and the diagonal (a, b, c, d) is affine in gamma^2
    gamma2, z = assemble(evolve_two_realization(eps_a, eps_b, t, 2, s, workspace(n_cases, 2)))
    closed = xstate_matrix(XState(*xstate_diagonal(gamma2[:, 1:], s), z=z[:, 1:]))
    return float(np.abs(closed - two_oracle_xstate(eps_a, eps_b, t, s)).max())


def check_single_elements_oracle(n_cases: int, rng) -> float:
    """Max deviation of the closed-form single-qubit elements from the propagator + partial-trace route."""
    s, eps, t = _cases(rng, n_cases, _single_scenario, SINGLE_RANGES, eps=(-5, 5), t=(0, 10))
    pp, pm = (v[:, 1:] for v in assemble(evolve_single_realization(eps, t, 2, s, workspace(n_cases, 2))))
    opp, opm = single_oracle_elements(eps, t, s)
    return float(max(np.abs(pp - opp).max(), np.abs(pm - opm).max()))


def check_concurrence_dual_path(n_cases: int, rng) -> float:
    """Max deviation from the general spin-flip concurrence of the X-state fast path and of
    the CLI's analytic concurrence (concurrence on xstate_gap), all cases in one call each."""
    s, ts = _cases(rng, n_cases, _two_scenario, TWO_RANGES, t=(0, 8))
    xs = avg_xstate_two(ts, s)
    general = concurrence_general(xstate_matrix(xs))
    production = concurrence(xstate_gap(ts, s))
    fast = concurrence_x(xs.a, xs.d, xs.z)
    return float(max(np.abs(fast - general).max(), np.abs(production - general).max()))


def check_specializations(n_cases: int, rng) -> float:
    """Max entry deviation of the averaged X state without longitudinal noise (var_a = 0)
    from the one realization that ensemble is, eps_a = 0, with eps_b = 0 and z damped by
    E[e^{-i eps_b t}] = exp(-var_b t^2 / 2).

    Each case runs at var_b = 0 and at its drawn vb: var_b is a (2, R, 1)
    stack of the two, which the other fields' (R, 1) columns meet.
    """
    ts = time_grid(10.0, 257)
    s, vb = _cases(rng, n_cases, _two_scenario, TWO_RANGES, vb=(0.1, 2.0))
    s = replace(s, alpha=np.maximum(s.alpha, 0.6), var_a=0.0, var_b=np.stack([0.0 * vb, vb]))
    eps = np.zeros((n_cases, 1))
    gamma2, z = assemble(evolve_two_realization(eps, eps, 10.0, ts.size, s, workspace(n_cases, ts.size)))
    realization = (*xstate_diagonal(gamma2, s), z * np.exp(-0.5 * np.square(np.sqrt(s.var_b) * ts)))
    xs = avg_xstate_two(ts, s)
    return float(max(np.abs(v - getattr(xs, k)).max() for k, v in zip("abcdz", realization)))


def gap_oracle_cases(rng, n: int) -> TwoQubitScenario:
    """n draws of TWO_RANGES as one record of (n, 1) columns: case i has alpha within
    1e-9 to 1e-1 of 1/2 when i % 3 == 1 and a pure auxiliary mixture (x = 0 or 1) when
    i % 3 == 2."""
    s, near, pure = _cases(rng, n, _two_scenario, TWO_RANGES, near=(-9, -1), pure=(0, 2))
    i = np.arange(n)[:, None] % 3
    return replace(s, alpha=np.where(i == 1, 0.5 + 10.0 ** near, s.alpha),
                   x=np.where(i == 2, np.floor(pure), s.x))


def check_gap_closed_form(n_cases: int, rng) -> float:
    """Max deviation of the real-only sudden-death gap from |z| - sqrt(a d) of the averaged X state."""
    ts = np.linspace(0.0, 10.0, 64)
    s = gap_oracle_cases(rng, n_cases)
    xs = avg_xstate_two(ts, s)
    exact = np.abs(xs.z) - np.sqrt(np.maximum(xs.a * xs.d, 0.0))
    return float(np.abs(xstate_gap(ts, s) - exact).max())


def check_tc_bracket(n_cases: int, rng) -> float:
    """Largest g over 1000-point sweeps after each finite t_c.

    find_tc_batch runs no sweep of its own: at omega_a = 0 g falls strictly,
    and at any other omega_a it stays at most the zero-frequency gap, whose
    root t_c0 ends the one phase turn that is scanned. This measures what
    those proofs promise, on one batch of gap_oracle_cases cells with
    var_b = 0 in every other one and omega_a = 0 in every other pair. Each
    sweep covers [t_c, T] at omega_a = 0, T the solver's closed-form bound
    (its t_max), and [t_c, t_c0] elsewhere, t_c0 from solving the cell's
    zero-frequency twin in the same batch, omega_a stacked with 0 to (2, R, 1).
    Returns inf if some cell is unresolved (their roots reach about 5e9, and
    none should be) or if some bracket fails g(lo) > 0 >= g(hi).
    """
    s, i = gap_oracle_cases(rng, n_cases), np.arange(n_cases)[:, None]
    s = replace(s, omega_a=np.where(i // 2 % 2, s.omega_a, 0.0), var_b=s.var_b * (i % 2))
    cells = find_tc_batch(replace(s, omega_a=np.stack([s.omega_a, np.zeros_like(s.omega_a)])))
    finite = np.flatnonzero(cells["status"][:n_cases] == FINITE)
    end = np.where(s.omega_a[:, 0] == 0.0, cells["t_max"][:n_cases], cells["t_c"][n_cases:])
    hi, end = (col[finite, None] for col in (cells["t_c"], end))
    lo = np.nextafter(hi, 0.0)
    s = subset(s, finite)
    if np.any(cells["status"] == UNRESOLVED) or not np.all(
            (xstate_gap(lo, s) > 0.0) & (xstate_gap(hi, s) <= 0.0)):
        return math.inf
    sweep = np.linspace(0.0, 1.0, 1000)
    worst = -math.inf
    per_block = BLOCK_POINTS // sweep.size
    for b in (slice(i, i + per_block) for i in range(0, len(hi), per_block)):
        ts = hi[b] + (end[b] - hi[b]) * sweep
        worst = max(worst, xstate_gap(ts, subset(s, b)).max())
    return float(worst)


def _mc_deviation(n: int, master_seed: int, points: int) -> float:
    """Max deviation of the n-sample Monte Carlo population from its analytic average on a
    ``points``-point grid to t = 5, on the middle curve of Fig. 1(b): zero frequency,
    alpha 5, xb 0.8, unit variance."""
    s = SingleQubitScenario(omega_a=0.0, alpha=5.0, xb=0.8, var=1.0)
    mc = sample_ensemble(s, n, master_seed, 5.0, points, names=("rho_pp",))
    return np.abs(mc["rho_pp"] - avg_population_single(time_grid(5.0, points), s)).max()


def check_mc_convergence(n: int, master_seed: int) -> float:
    """Max deviation of the n-sample Monte Carlo population from its analytic average at 200 points
    (_mc_deviation)."""
    return _mc_deviation(n, master_seed, 200)


def check_mc_scaling(master_seed: int) -> float:
    """Fitted exponent of the max Monte Carlo deviation at 400 points (_mc_deviation) against
    N = 100, 1000, 10000 (ideally -1/2)."""
    ns = [100, 1000, 10000]
    devs = [_mc_deviation(n, master_seed, 400) for n in ns]
    return np.polyfit(np.log(ns), np.log(devs), 1)[0]


def run_suite(level: str = "quick"):
    """Run all cross checks; returns a list of (name, passed, detail).

    The checks are looked up when the suite runs, so that a wrapper installed
    over one of them (a tracer, say) sees its calls.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    n = 200 if level == "quick" else 1000
    rng = np.random.default_rng

    def at_most(name, dev, bound, label="max dev"):
        return name, bool(dev <= bound), f"{label} {dev:.3e}"

    results = [
        at_most("propagator-vs-expm", check_propagator_oracle(n, rng(7)), 1e-10, "max entry dev"),
        at_most("single-elements-vs-oracle", check_single_elements_oracle(n, rng(13)), 1e-10,
                "max element dev"),
        at_most("two-qubit-closed-form-vs-expm",
                check_two_qubit_oracle(max(n // 4, 50), rng(11)), 1e-10, "max entry dev"),
        at_most("concurrence-fast-vs-general", check_concurrence_dual_path(n, rng(17)), 1e-10),
        at_most("special-cases-vs-general", check_specializations(50, rng(19)), 1e-12),
        at_most("gap-closed-form-vs-xstate", check_gap_closed_form(50, rng(31)), 1e-12),
        at_most("tc-bracket-stays-dead", check_tc_bracket(200, rng(37)), 1e-10, "max g"),
    ]
    n_mc = 2000 if level == "quick" else 8000
    dev = check_mc_convergence(n_mc, 23)
    bound = max(4.0 / np.sqrt(n_mc) * 0.35, 0.02)
    results.append(("mc-vs-analytic", bool(dev <= bound),
                    f"max dev {dev:.3e} (bound {bound:.3e}, N={n_mc})"))
    if level == "full":
        slope = check_mc_scaling(29)
        results.append(("mc-scaling-exponent", bool(-0.6 <= slope <= -0.4), f"slope {slope:+.3f}"))
    return results
