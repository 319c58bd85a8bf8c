"""Test oracles and the cross-checking suites that compare the closed forms against them.

The oracles are dense realization Hamiltonians, the closed-form single-qubit
propagator, and the generic matrix exponential and partial trace of
hensim.linalg; no production path uses them. Basis conventions (|+> first):
  single-qubit system: 4x4 matrices in the product basis A (x) B, i.e.
  {|++>, |+->, |-+>, |-->};
  two-qubit system: 8x8 matrices in the product basis A2 (x) A1 (x) B1
  (auxiliary qubit first), so tracing out subsystem 0 leaves (A1, B1).

Each check returns (name, passed, detail); the CLI `validate` subcommand turns
these into a pass/fail report.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from hensim.analytic import (
    avg_population_single,
    avg_xstate_two,
    special_no_longitudinal,
    special_transverse_only,
    xstate_gap,
)
from hensim.ensemble import evolve_single_realization, evolve_two_realization, sample_ensemble
from hensim.entanglement import concurrence_general, concurrence_x, xstate_matrix
from hensim.linalg import (
    IDENTITY_2,
    PAULI_Z,
    SIGMA_MINUS,
    SIGMA_PLUS,
    kron,
    matrix_exponential,
    partial_trace,
)
from hensim.scenarios import (
    CouplingLaw,
    GaussianSpec,
    SingleQubitScenario,
    TwoQubitScenario,
    XState,
)

PLUS = np.array([1.0, 0.0], dtype=complex)
MINUS = np.array([0.0, 1.0], dtype=complex)
BELL = np.kron(PLUS, PLUS) / np.sqrt(2) + np.kron(MINUS, MINUS) / np.sqrt(2)


def coupling_strength(eps: float, law, omega_a: float) -> float:
    """f(eps) = sqrt(alpha^2 - 1/4) (eps - omega_a); real-valued."""
    return np.sqrt(law.alpha**2 - 0.25) * (eps - omega_a)


def build_h_single(eps: float, s: SingleQubitScenario) -> np.ndarray:
    """4x4 realization Hamiltonian for the working qubit + auxiliary qubit pair."""
    f = coupling_strength(eps, s.coupling, s.omega_a)
    h = 0.5 * (s.omega_a * kron(PAULI_Z, IDENTITY_2) + eps * kron(IDENTITY_2, PAULI_Z))
    h = h + f * (kron(SIGMA_PLUS, SIGMA_MINUS) + kron(SIGMA_MINUS, SIGMA_PLUS))
    return h


def _sinct(e: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sin(e t) / e with the removable e -> 0 singularity handled (limit t)."""
    return t * np.sinc(e * t / np.pi)


def propagator_single_closed(eps: float, t: float, s: SingleQubitScenario) -> np.ndarray:
    """Closed-form evolution operator for build_h_single, block by block.

    The {|+->, |-+>} block rotates with energy E = sqrt((omega_a - eps)^2/4 + f^2);
    |++> and |--> pick up pure phases exp(-+ i (omega_a + eps) t / 2).
    """
    f = coupling_strength(eps, s.coupling, s.omega_a)
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
    return kron(kron(ops[0], ops[1]), ops[2])


def build_h_two(eps_a: float, eps_b: float, s: TwoQubitScenario) -> np.ndarray:
    """8x8 realization Hamiltonian in the A2 (x) A1 (x) B1 basis.

    The (A1, A2) part is the single-qubit model with random spacing eps_a; the
    second working qubit B1 only carries the shifted frequency omega_b + eps_b.
    """
    f = coupling_strength(eps_a, s.coupling, s.omega_a)
    h = 0.5 * (s.omega_a * _op3(1, PAULI_Z) + eps_a * _op3(0, PAULI_Z))
    flip = kron(kron(SIGMA_MINUS, SIGMA_PLUS), IDENTITY_2)
    h = h + f * (flip + flip.conj().T)
    h = h + 0.5 * (s.omega_b + eps_b) * _op3(2, PAULI_Z)
    return h


def random_single_scenario(rng, omega_a=None, variance=1.0) -> SingleQubitScenario:
    if omega_a is None:
        omega_a = rng.uniform(-5, 5)
    alpha = rng.uniform(0.5, 5.0)
    phi = rng.uniform(0, 2 * np.pi)
    mag = rng.uniform(0, 1)
    xb = mag * np.exp(1j * phi)
    yb = np.sqrt(1 - mag**2)
    return SingleQubitScenario(
        omega_a=float(omega_a),
        coupling=CouplingLaw(float(alpha)),
        xb=complex(xb),
        yb=complex(yb),
        noise=GaussianSpec(0.0, float(variance)),
    )


def random_two_scenario(rng) -> TwoQubitScenario:
    x = rng.uniform(0.0, 1.0)
    return TwoQubitScenario(
        omega_a=float(rng.uniform(-5, 5)),
        omega_b=float(rng.uniform(-5, 5)),
        coupling=CouplingLaw(float(rng.uniform(0.5, 5.0))),
        x=float(x),
        y=float(1 - x),
        noise_a=GaussianSpec(0.0, float(rng.uniform(0, 2))),
        noise_b=GaussianSpec(0.0, float(rng.uniform(0, 2))),
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


def check_propagator_oracle(n_cases: int, seed: int = 7):
    """Closed-form propagators vs the eigendecomposition exponential."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        s = random_single_scenario(rng)
        eps = rng.uniform(-5, 5)
        t = rng.uniform(0, 10)
        u_closed = propagator_single_closed(eps, t, s)
        u_oracle = matrix_exponential(build_h_single(eps, s), t)
        worst = max(worst, np.abs(u_closed - u_oracle).max())
    return "propagator-vs-expm", bool(worst <= 1e-10), f"max entry dev {worst:.3e}"


def check_two_qubit_oracle(n_cases: int, seed: int = 11):
    """Closed-form X-state elements vs the 8x8 propagator route."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        s = random_two_scenario(rng)
        eps_a, eps_b = rng.uniform(-5, 5, size=2)
        t = rng.uniform(0, 10)
        a, b, c, d, re_z, im_z = evolve_two_realization(eps_a, eps_b, t, s)
        xs = XState(a, b, c, d, z=re_z + 1j * im_z)
        worst = max(worst, np.abs(xstate_matrix(xs) - two_oracle_xstate(eps_a, eps_b, t, s)).max())
    return "two-qubit-closed-form-vs-expm", bool(worst <= 1e-10), f"max entry dev {worst:.3e}"


def check_single_elements_oracle(n_cases: int, seed: int = 13):
    """Closed-form single-qubit elements vs the propagator + partial-trace route."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        s = random_single_scenario(rng)
        eps = rng.uniform(-5, 5)
        t = rng.uniform(0, 10)
        pp, re_pm, im_pm = evolve_single_realization(eps, t, s)
        opp, opm = single_oracle_elements(eps, t, s)
        worst = max(worst, abs(pp - opp), abs(re_pm + 1j * im_pm - opm))
    return "single-elements-vs-oracle", bool(worst <= 1e-10), f"max element dev {worst:.3e}"


def check_concurrence_dual_path(n_cases: int, seed: int = 17):
    """X-state fast path vs the general spin-flip computation."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        s = random_two_scenario(rng)
        t = rng.uniform(0, 8)
        xs = avg_xstate_two(t, s)
        fast = concurrence_x(xs)
        general = concurrence_general(xstate_matrix(xs))
        worst = max(worst, abs(fast - general))
    return "concurrence-fast-vs-general", bool(worst <= 1e-10), f"max dev {worst:.3e}"


def check_specializations(seed: int = 19):
    """Zero-variance special cases vs the general averaged formulas."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ts = np.linspace(0, 10, 257)
    for _ in range(50):
        base = random_two_scenario(rng)
        for vb, fn in ((0.0, special_no_longitudinal), (rng.uniform(0.1, 2.0), special_transverse_only)):
            s = TwoQubitScenario(
                omega_a=base.omega_a,
                omega_b=base.omega_b,
                coupling=CouplingLaw(max(base.coupling.alpha, 0.6)),
                x=base.x,
                y=base.y,
                noise_a=GaussianSpec(0.0, 0.0),
                noise_b=GaussianSpec(0.0, vb),
            )
            z_abs, ad_root = fn(ts, s)
            xs = avg_xstate_two(ts, s)
            worst = max(worst, np.abs(z_abs - np.abs(xs.z)).max())
            worst = max(worst, np.abs(ad_root - np.sqrt(np.maximum(xs.a * xs.d, 0))).max())
    return "special-cases-vs-general", bool(worst <= 1e-12), f"max dev {worst:.3e}"


def gap_oracle_scenario(rng, i: int) -> TwoQubitScenario:
    """random_two_scenario, with alpha within 1e-9 to 1e-1 of 1/2 when i % 3 == 1
    and a pure auxiliary mixture (x = 0 or 1) when i % 3 == 2."""
    s = random_two_scenario(rng)
    if i % 3 == 1:
        s = replace(s, coupling=CouplingLaw(0.5 + 10.0 ** rng.uniform(-9, -1)))
    elif i % 3 == 2:
        x = float(rng.integers(2))
        s = replace(s, x=x, y=1.0 - x)
    return s


def check_gap_closed_form(n_cases: int, seed: int = 31):
    """Real-only sudden-death gap vs |z| - sqrt(a d) from the averaged X state."""
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 10.0, 64)
    worst = 0.0
    for i in range(n_cases):
        s = gap_oracle_scenario(rng, i)
        xs = avg_xstate_two(ts, s)
        exact = np.abs(xs.z) - np.sqrt(np.maximum(xs.a * xs.d, 0.0))
        gap = xstate_gap(ts, s.coupling.alpha, s.noise_a.variance, s.noise_b.variance,
                         s.omega_a, s.x * s.y)
        worst = max(worst, np.abs(gap - exact).max())
    return "gap-closed-form-vs-xstate", bool(worst <= 1e-12), f"max dev {worst:.3e}"


def check_mc_convergence(n: int, seed: int = 23):
    """Monte Carlo mean vs the analytic average for a zero-frequency setting."""
    s = SingleQubitScenario(
        omega_a=0.0, coupling=CouplingLaw(5.0), xb=0.8, yb=0.6, noise=GaussianSpec(0.0, 1.0)
    )
    grid = np.linspace(0.0, 5.0, 200)
    traj = sample_ensemble(s, n, seed, grid, observable="single")
    dev = np.abs(traj.columns["rho_pp"] - avg_population_single(grid, s)).max()
    bound = max(4.0 / np.sqrt(n) * 0.35, 0.02)
    return "mc-vs-analytic", bool(dev <= bound), f"max dev {dev:.3e} (bound {bound:.3e}, N={n})"


def check_mc_scaling(seed: int = 29):
    """Max deviation from the analytic average scales like N^(-1/2)."""
    s = SingleQubitScenario(
        omega_a=0.0, coupling=CouplingLaw(5.0), xb=0.8, yb=0.6, noise=GaussianSpec(0.0, 1.0)
    )
    grid = np.linspace(0.0, 5.0, 400)
    target = avg_population_single(grid, s)
    ns = [100, 1000, 10000]
    devs = []
    for n in ns:
        traj = sample_ensemble(s, n, seed, grid, observable="single")
        devs.append(np.abs(traj.columns["rho_pp"] - target).max())
    slope = np.polyfit(np.log(ns), np.log(devs), 1)[0]
    return "mc-scaling-exponent", bool(-0.6 <= slope <= -0.4), f"slope {slope:+.3f}"


def run_suite(level: str = "quick"):
    """Run all cross checks; returns a list of (name, passed, detail)."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    n = 200 if level == "quick" else 1000
    results = [
        check_propagator_oracle(n),
        check_single_elements_oracle(n),
        check_two_qubit_oracle(max(n // 4, 50)),
        check_concurrence_dual_path(n),
        check_specializations(),
        check_gap_closed_form(50),
        check_mc_convergence(2000 if level == "quick" else 8000),
    ]
    if level == "full":
        results.append(check_mc_scaling())
    return results
