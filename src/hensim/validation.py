"""Dense-matrix oracles and the cross-check suite that compares the closed forms against them.

This is the only module with dense-matrix code: Pauli operators, the Hermitian
matrix exponential, partial trace, density-matrix validation, the general
Wootters concurrence, the dense realization Hamiltonians and the closed-form
single-qubit propagator. It also holds the complex averaged X state
(avg_xstate_two) and its special case without longitudinal noise
(special_zero_va), against which the real-only analytic.xstate_gap is checked,
and the sweep that checks the sudden-death times of entanglement.find_tc_batch,
which runs no sweep of its own (check_tc_bracket).
No production path uses them; the CLI imports this module only for `validate`.
Everything here is small (dimension 8 at most) and pure: inputs are never
mutated. Basis conventions (|+> first):
  single-qubit system: 4x4 matrices in the product basis A (x) B, i.e.
  {|++>, |+->, |-+>, |-->};
  two-qubit system: 8x8 matrices in the product basis A2 (x) A1 (x) B1
  (auxiliary qubit first), so tracing out subsystem 0 leaves (A1, B1).

Each check_* draws its cases from the generator (or master seed) it is given
and returns the measured deviation; run_suite holds every check's name, seed,
case count and bound, and turns them into the (name, passed, detail) lines of
the CLI `validate` report. The acceptance tests call the same checks with
their own seeds and bounds.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from hensim.analytic import avg_population_single, gap_args, xstate_gap
from hensim.ensemble import evolve_single_realization, evolve_two_realization, sample_ensemble
from hensim.entanglement import FINITE, concurrence_trajectory, concurrence_x, find_tc_batch
from hensim.scenarios import SingleQubitScenario, TwoQubitScenario, XState, coupling_c

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
_YY = np.kron(PAULI_Y, PAULI_Y)

PLUS = np.array([1.0, 0.0], dtype=complex)
MINUS = np.array([0.0, 1.0], dtype=complex)
BELL = np.kron(PLUS, PLUS) / np.sqrt(2) + np.kron(MINUS, MINUS) / np.sqrt(2)


class DensityMatrixError(ValueError):
    """A candidate density matrix violates hermiticity, trace or positivity."""


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return m


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


def matrix_exponential(h, t) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via eigendecomposition.

    Diagonalize, exponentiate the phases, recompose. Serves as the structurally
    independent oracle for the closed-form propagators.
    """
    h = _as_square(h)
    dev = np.abs(h - h.conj().T).max()
    if dev > 1e-12:
        raise ValueError(f"matrix is not Hermitian: max |h - h^dag| = {dev:.3e}")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * float(t))) @ v.conj().T


def validate_density(rho) -> np.ndarray:
    """Check hermiticity and unit trace to 1e-12, and positivity; return the validated matrix.

    The positivity floor, -1e-10, is slightly negative on purpose: finite-sample
    ensemble averages and round-off produce tiny negative eigenvalues that are
    not logic errors.

    Raises DensityMatrixError naming the violated invariant and its magnitude.
    """
    rho = _as_square(rho)
    herm = np.abs(rho - rho.conj().T).max()
    if herm > 1e-12:
        raise DensityMatrixError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-12:
        raise DensityMatrixError(f"trace is not 1: |Tr rho - 1| = {abs(tr - 1.0):.3e}")
    lam_min = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if lam_min < -1e-10:
        raise DensityMatrixError(f"not positive semidefinite: lambda_min = {lam_min:.3e}")
    return rho


def concurrence_general(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    The spin-flip spectrum is obtained from the Hermitian matrix
    sqrt(rho) (sy (x) sy) rho* (sy (x) sy) sqrt(rho), which is similar to the
    usual non-Hermitian product; negative round-off eigenvalues are clipped.
    """
    rho = validate_density(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit density matrix, got {rho.shape}")
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    m = sqrt_rho @ _YY @ rho.conj() @ _YY @ sqrt_rho
    kappa = np.linalg.eigvalsh(m)
    roots = np.sqrt(np.clip(kappa, 0.0, None))[::-1]
    c = roots[0] - roots[1] - roots[2] - roots[3]
    return float(min(max(c, 0.0), 1.0))


def xstate_matrix(elems) -> np.ndarray:
    """Assemble the 4x4 X-state density matrix of scalar elements in the standard product basis.

    Diagonal (b, a, d, c) with z on the |++><--| corner.
    """
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = elems.b
    rho[1, 1] = elems.a
    rho[2, 2] = elems.d
    rho[3, 3] = elems.c
    rho[0, 3] = elems.z
    rho[3, 0] = np.conj(rho[0, 3])
    return rho


def coupling_strength(eps: float, alpha: float, omega_a: float) -> float:
    """f(eps) = sqrt(alpha^2 - 1/4) (eps - omega_a); real-valued."""
    return np.sqrt(alpha**2 - 0.25) * (eps - omega_a)


def build_h_single(eps: float, s: SingleQubitScenario) -> np.ndarray:
    """4x4 realization Hamiltonian for the working qubit + auxiliary qubit pair."""
    f = coupling_strength(eps, s.alpha, s.omega_a)
    h = 0.5 * (s.omega_a * np.kron(PAULI_Z, IDENTITY_2) + eps * np.kron(IDENTITY_2, PAULI_Z))
    h = h + f * (np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS))
    return h


def _sinct(e: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sin(e t) / e with the removable e -> 0 singularity handled (limit t)."""
    return t * np.sinc(e * t / np.pi)


def propagator_single_closed(eps: float, t: float, s: SingleQubitScenario) -> np.ndarray:
    """Closed-form evolution operator for build_h_single, block by block.

    The {|+->, |-+>} block rotates with energy E = sqrt((omega_a - eps)^2/4 + f^2);
    |++> and |--> pick up pure phases exp(-+ i (omega_a + eps) t / 2).
    """
    f = coupling_strength(eps, s.alpha, s.omega_a)
    half_det = 0.5 * (s.omega_a - eps)
    e = np.sqrt(half_det**2 + f**2)
    cos_et = np.cos(e * t)
    sfac = _sinct(e, np.asarray(float(t)))
    u = np.zeros((4, 4), dtype=complex)
    phase = 0.5 * (s.omega_a + eps) * t
    u[0, 0] = np.exp(-1j * phase)
    u[3, 3] = np.exp(1j * phase)
    u[1, 1] = cos_et - 1j * sfac * half_det
    u[2, 2] = cos_et + 1j * sfac * half_det
    u[1, 2] = -1j * sfac * f
    u[2, 1] = -1j * sfac * f
    return u


def _op3(index: int, m: np.ndarray) -> np.ndarray:
    ops = [IDENTITY_2, IDENTITY_2, IDENTITY_2]
    ops[index] = m
    return np.kron(np.kron(ops[0], ops[1]), ops[2])


def build_h_two(eps_a: float, eps_b: float, s: TwoQubitScenario) -> np.ndarray:
    """8x8 realization Hamiltonian in the A2 (x) A1 (x) B1 basis.

    The (A1, A2) part is the single-qubit model with random spacing eps_a; the
    second working qubit B1 only carries the shifted frequency omega_b + eps_b.
    """
    f = coupling_strength(eps_a, s.alpha, s.omega_a)
    h = 0.5 * (s.omega_a * _op3(1, PAULI_Z) + eps_a * _op3(0, PAULI_Z))
    flip = np.kron(np.kron(SIGMA_MINUS, SIGMA_PLUS), IDENTITY_2)
    h = h + f * (flip + flip.conj().T)
    h = h + 0.5 * (s.omega_b + eps_b) * _op3(2, PAULI_Z)
    return h


def random_single_scenario(rng) -> SingleQubitScenario:
    omega_a = rng.uniform(-5, 5)
    alpha = rng.uniform(0.5, 5.0)
    phi = rng.uniform(0, 2 * np.pi)
    mag = rng.uniform(0, 1)
    xb = mag * np.exp(1j * phi)
    yb = np.sqrt(1 - mag**2)
    return SingleQubitScenario(
        omega_a=float(omega_a),
        alpha=float(alpha),
        xb=complex(xb),
        yb=complex(yb),
        var=1.0,
    )


def random_two_scenario(rng) -> TwoQubitScenario:
    x = rng.uniform(0.0, 1.0)
    return TwoQubitScenario(
        omega_a=float(rng.uniform(-5, 5)),
        omega_b=float(rng.uniform(-5, 5)),
        alpha=float(rng.uniform(0.5, 5.0)),
        x=float(x),
        var_a=float(rng.uniform(0, 2)),
        var_b=float(rng.uniform(0, 2)),
    )


def single_initial_state(s: SingleQubitScenario) -> np.ndarray:
    return np.kron(MINUS, s.xb * PLUS + s.yb * MINUS)


def two_initial_states() -> tuple[np.ndarray, np.ndarray]:
    """(psi1, psi2): auxiliary qubit up/down, working pair in the Bell state."""
    return np.kron(PLUS, BELL), np.kron(MINUS, BELL)


def single_oracle_elements(eps: float, t: float, s: SingleQubitScenario):
    """(rho_pp, rho_pm) via matrix exponential + partial trace (test oracle)."""
    u = matrix_exponential(build_h_single(eps, s), t)
    psi = u @ single_initial_state(s)
    rho_a = partial_trace(np.outer(psi, psi.conj()), [2, 2], {0})
    return rho_a[0, 0].real, rho_a[0, 1]


def two_oracle_xstate(eps_a: float, eps_b: float, t: float, s: TwoQubitScenario) -> np.ndarray:
    """Reduced (A1, B1) density matrix via the 8x8 exponential (test oracle)."""
    u = matrix_exponential(build_h_two(eps_a, eps_b, s), t)
    psi1, psi2 = two_initial_states()
    p1, p2 = u @ psi1, u @ psi2
    rho = s.x * np.outer(p1, p1.conj()) + s.y * np.outer(p2, p2.conj())
    return partial_trace(rho, [2, 2, 2], {1, 2})


def avg_xstate_two(t, s: TwoQubitScenario) -> XState:
    """Averaged X-state elements of the two working qubits, in complex arithmetic.

    The CLI evaluates the real-only analytic.xstate_gap instead; this form is
    what check_gap_closed_form and check_concurrence_dual_path compare it with.
    """
    t = np.asarray(t, dtype=float)
    alpha = s.alpha
    c2 = coupling_c(alpha) ** 2
    sa, sb = math.sqrt(s.var_a) * t, math.sqrt(s.var_b) * t
    wa, wb = s.omega_a, s.omega_b
    relax = 1.0 - np.cos(2.0 * alpha * wa * t) * np.exp(-2.0 * np.square(alpha * sa))
    a = 0.25 * s.x * c2 * relax
    d = 0.25 * s.y * c2 * relax
    b = 0.5 * s.x + 0.5 * s.y * (1.0 - 0.5 * c2 * relax)
    c_el = 0.5 * s.y + 0.5 * s.x * (1.0 - 0.5 * c2 * relax)
    inv2a = 1.0 / (2.0 * alpha)
    branch_plus = (
        np.exp(1j * alpha * wa * t)
        * np.exp(-0.5 * np.square((alpha + 0.5) * sa))
        * (1.0 - inv2a)
    )
    branch_minus = (
        np.exp(-1j * alpha * wa * t)
        * np.exp(-0.5 * np.square((alpha - 0.5) * sa))
        * (1.0 + inv2a)
    )
    z = (
        0.25
        * np.exp(-0.5 * np.square(sb))
        * np.exp(-0.5j * (wa + 2.0 * wb) * t)
        * (branch_plus + branch_minus)
    )
    return XState(a=a, b=b, c=c_el, d=d, z=z)


def special_zero_va(t, s: TwoQubitScenario):
    """(|z|, sqrt(a d)) of avg_xstate_two without longitudinal noise (var_a = 0).

    Without longitudinal noise there is no relaxation; check_specializations
    compares this case with the general averages.
    Transverse noise (var_b) only damps |z|; alpha = 1/2 gives sqrt(a d) = 0.
    """
    if s.var_a != 0.0:
        raise ValueError("var_a must be zero for this special case")
    t = np.asarray(t, dtype=float)
    alpha = s.alpha
    inv4a2 = (0.5 / alpha) ** 2
    cos_term = np.cos(2.0 * alpha * s.omega_a * t)
    z_abs = (
        (math.sqrt(2.0) / 4.0)
        * np.exp(-0.5 * np.square(math.sqrt(s.var_b) * t))
        * np.sqrt(1.0 + inv4a2 + (1.0 - inv4a2) * cos_term)
    )
    ad_root = (
        math.sqrt(s.x * s.y)
        * 0.25 * (1.0 - inv4a2)
        * (1.0 - cos_term)
    )
    return z_abs, ad_root


def check_propagator_oracle(n_cases: int, rng) -> float:
    """Max entry deviation of the closed-form propagator from the eigendecomposition exponential."""
    worst = 0.0
    for _ in range(n_cases):
        s = random_single_scenario(rng)
        eps = rng.uniform(-5, 5)
        t = rng.uniform(0, 10)
        u_closed = propagator_single_closed(eps, t, s)
        u_oracle = matrix_exponential(build_h_single(eps, s), t)
        worst = max(worst, np.abs(u_closed - u_oracle).max())
    return worst


def check_two_qubit_oracle(n_cases: int, rng) -> float:
    """Max entry deviation of the closed-form X-state elements from the 8x8 propagator route."""
    worst = 0.0
    for _ in range(n_cases):
        s = random_two_scenario(rng)
        eps_a, eps_b = rng.uniform(-5, 5, size=2)
        t = rng.uniform(0, 10)
        a, b, c, d, re_z, im_z = evolve_two_realization(eps_a, eps_b, t, s)
        xs = XState(a, b, c, d, z=re_z + 1j * im_z)
        worst = max(worst, np.abs(xstate_matrix(xs) - two_oracle_xstate(eps_a, eps_b, t, s)).max())
    return worst


def check_single_elements_oracle(n_cases: int, rng) -> float:
    """Max deviation of the closed-form single-qubit elements from the propagator + partial-trace route."""
    worst = 0.0
    for _ in range(n_cases):
        s = random_single_scenario(rng)
        eps = rng.uniform(-5, 5)
        t = rng.uniform(0, 10)
        pp, re_pm, im_pm = evolve_single_realization(eps, t, s)
        opp, opm = single_oracle_elements(eps, t, s)
        worst = max(worst, abs(pp - opp), abs(re_pm + 1j * im_pm - opm))
    return worst


def check_concurrence_dual_path(n_cases: int, rng) -> float:
    """Max deviation from the general spin-flip concurrence of the X-state fast path and of
    the CLI's analytic concurrence (concurrence_trajectory, on xstate_gap)."""
    worst = 0.0
    for _ in range(n_cases):
        s = random_two_scenario(rng)
        t = rng.uniform(0, 8)
        xs = avg_xstate_two(t, s)
        general = concurrence_general(xstate_matrix(xs))
        production = concurrence_trajectory(s, [t]).columns["C"][0]
        worst = max(worst, abs(concurrence_x(xs) - general), abs(production - general))
    return worst


def check_specializations(n_cases: int, rng) -> float:
    """Max deviation of the zero-longitudinal-variance special case from the general averages."""
    worst = 0.0
    ts = np.linspace(0, 10, 257)
    for _ in range(n_cases):
        base = random_two_scenario(rng)
        for vb in (0.0, rng.uniform(0.1, 2.0)):
            s = replace(base, alpha=max(base.alpha, 0.6), var_a=0.0, var_b=vb)
            z_abs, ad_root = special_zero_va(ts, s)
            xs = avg_xstate_two(ts, s)
            worst = max(worst, np.abs(z_abs - np.abs(xs.z)).max())
            worst = max(worst, np.abs(ad_root - np.sqrt(np.maximum(xs.a * xs.d, 0))).max())
    return worst


def gap_oracle_scenario(rng, i: int) -> TwoQubitScenario:
    """random_two_scenario, with alpha within 1e-9 to 1e-1 of 1/2 when i % 3 == 1
    and a pure auxiliary mixture (x = 0 or 1) when i % 3 == 2."""
    s = random_two_scenario(rng)
    if i % 3 == 1:
        s = replace(s, alpha=0.5 + 10.0 ** rng.uniform(-9, -1))
    elif i % 3 == 2:
        s = replace(s, x=float(rng.integers(2)))
    return s


def check_gap_closed_form(n_cases: int, rng) -> float:
    """Max deviation of the real-only sudden-death gap from |z| - sqrt(a d) of the averaged X state."""
    ts = np.linspace(0.0, 10.0, 64)
    worst = 0.0
    for i in range(n_cases):
        s = gap_oracle_scenario(rng, i)
        xs = avg_xstate_two(ts, s)
        exact = np.abs(xs.z) - np.sqrt(np.maximum(xs.a * xs.d, 0.0))
        gap = xstate_gap(ts, *gap_args(s))
        worst = max(worst, np.abs(gap - exact).max())
    return worst


def check_tc_bracket(n_cases: int, rng) -> float:
    """Largest g over 1000-point sweeps after each finite t_c.

    find_tc_batch runs no sweep of its own: at omega_a = 0 g falls strictly,
    and at any other omega_a it stays at most the zero-frequency gap, whose
    root t_c0 ends the one phase turn that is scanned. This measures what
    those proofs promise, on one batch of gap_oracle_scenario cells with
    var_b = 0 in every other one and omega_a = 0 in every other pair (so
    alpha near 1/2 also reaches "beyond-horizon", which is skipped). Each
    sweep covers [t_c, t_max] at omega_a = 0 and [t_c, t_c0] elsewhere, t_c0
    from solving the cell's zero-frequency twin in the same batch. Returns
    inf if some bracket fails g(lo) > 0 >= g(hi).
    """

    def cell(i):
        s = gap_oracle_scenario(rng, i)
        return replace(s, omega_a=s.omega_a if i // 2 % 2 else 0.0, var_b=s.var_b * (i % 2))

    params = np.array([gap_args(cell(i)) for i in range(n_cases)]).T
    twins = params.copy()
    twins[3] = 0.0
    results = find_tc_batch(*np.hstack([params, twins]))
    finite = [(i, r, r.t_max if params[3, i] == 0.0 else twin.t_c)
              for i, (r, twin) in enumerate(zip(results, results[n_cases:]))
              if r.status == FINITE]
    params = params[:, [i for i, _, _ in finite], None]
    lo, hi, end = np.array([(*r.bracket, end) for _, r, end in finite]).T[:, :, None]
    if not np.all((xstate_gap(lo, *params) > 0.0) & (xstate_gap(hi, *params) <= 0.0)):
        return math.inf
    sweep = np.linspace(0.0, 1.0, 1000)
    worst = -math.inf
    # 8 cells at a time: arrays of 8,000 points ran the gap twice as fast per
    # point as one array of all cells (2-core Xeon, numpy 2.4)
    for b in range(0, len(hi), 8):
        ts = hi[b:b + 8] + (end[b:b + 8] - hi[b:b + 8]) * sweep
        worst = max(worst, xstate_gap(ts, *params[:, b:b + 8]).max())
    return float(worst)


def _mc_scenario() -> SingleQubitScenario:
    """Zero frequency, alpha 5, xb 0.8, unit variance: the middle curve of Fig. 1(b)."""
    return SingleQubitScenario(omega_a=0.0, alpha=5.0, xb=0.8, yb=0.6, var=1.0)


def check_mc_convergence(n: int, master_seed: int) -> float:
    """Max deviation of the n-sample Monte Carlo population from its analytic average."""
    s = _mc_scenario()
    grid = np.linspace(0.0, 5.0, 200)
    traj = sample_ensemble(s, n, master_seed, grid)
    return np.abs(traj.columns["rho_pp"] - avg_population_single(grid, s)).max()


def check_mc_scaling(master_seed: int) -> float:
    """Fitted exponent of the max Monte Carlo deviation against N = 100, 1000, 10000 (ideally -1/2)."""
    s = _mc_scenario()
    grid = np.linspace(0.0, 5.0, 400)
    target = avg_population_single(grid, s)
    ns = [100, 1000, 10000]
    devs = []
    for n in ns:
        traj = sample_ensemble(s, n, master_seed, grid)
        devs.append(np.abs(traj.columns["rho_pp"] - target).max())
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
