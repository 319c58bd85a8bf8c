"""Closed-form ensemble-averaged quantities.

All averages here assume mean-zero Gaussian level spacings (the moment identity
behind the closed forms requires it); scenarios carrying a nonzero noise mean
are rejected rather than silently mis-averaged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hensim.scenarios import (
    CouplingLaw,
    SingleQubitScenario,
    Trajectory,
    TwoQubitScenario,
    XState,
)


def _require_mean_zero(*specs):
    for spec in specs:
        if spec.mean != 0.0:
            raise ValueError(
                f"closed-form averages require mean-zero noise, got mean {spec.mean}"
            )


@dataclass(frozen=True)
class ThermalTarget:
    """The dimensionless product beta * Delta of a thermal excited-state target."""

    beta_delta: float

    def __post_init__(self):
        if not (self.beta_delta >= 0.0):
            raise ValueError(f"beta_delta must be nonnegative, got {self.beta_delta}")


def avg_population_single(t, s: SingleQubitScenario):
    """Averaged excited-state population of the working qubit.

    (c^2/2) |xb|^2 [1 - cos(2 alpha omega_a t) exp(-2 alpha^2 var t^2)].
    """
    _require_mean_zero(s.noise)
    t = np.asarray(t, dtype=float)
    alpha = s.coupling.alpha
    c2 = s.coupling.c ** 2
    env = np.exp(-2.0 * alpha**2 * s.noise.variance * t**2)
    return 0.5 * c2 * abs(s.xb) ** 2 * (1.0 - np.cos(2.0 * alpha * s.omega_a * t) * env)


def avg_coherence_single(t, s: SingleQubitScenario):
    """Averaged coherence of the working qubit (two Gaussian-damped branches)."""
    _require_mean_zero(s.noise)
    t = np.asarray(t, dtype=float)
    alpha = s.coupling.alpha
    v = s.noise.variance
    wa = s.omega_a
    plus = np.exp(-0.5 * (alpha + 0.5) ** 2 * v * t**2) * np.exp(1j * (alpha - 0.5) * wa * t)
    minus = np.exp(-0.5 * (alpha - 0.5) ** 2 * v * t**2) * np.exp(-1j * (alpha + 0.5) * wa * t)
    return 0.5 * s.coupling.c * s.xb * np.conj(s.yb) * (plus - minus)


def steady_population(law: CouplingLaw, xb) -> float:
    """Envelope limit (c^2/2) |xb|^2 of the averaged population; in [0, 1/2)."""
    return 0.5 * law.c**2 * abs(xb) ** 2


def thermal_population(target: ThermalTarget) -> float:
    """Thermal excited-state probability exp(-bd) / (1 + exp(-bd)) in (0, 1/2]."""
    e = math.exp(-target.beta_delta)
    return e / (1.0 + e)


def invert_thermal(p_plus: float) -> tuple[float, float]:
    """Coupling (alpha, xb) whose steady population equals ``p_plus``.

    Convention: xb = 1 and only alpha is tuned, which is always solvable on
    [0, 1/2). Use invert_thermal_with_xb to fix xb instead.
    """
    return invert_thermal_with_xb(p_plus, 1.0)


def invert_thermal_with_xb(p_plus: float, xb: float) -> tuple[float, float]:
    """Solve (c^2/2) |xb|^2 = p_plus for alpha at a caller-chosen xb."""
    if not (0.0 <= p_plus < 0.5):
        raise ValueError(f"p_plus must lie in [0, 1/2), got {p_plus}")
    c2 = 2.0 * p_plus / abs(xb) ** 2
    if c2 >= 1.0:
        raise ValueError(
            f"p_plus={p_plus} is unreachable with xb={xb}: requires c^2={c2} >= 1"
        )
    alpha = 1.0 / (2.0 * math.sqrt(1.0 - c2))
    return alpha, float(abs(xb))


def dissipation_rate(t, law: CouplingLaw, var: float):
    """Linear-in-time dissipation rate 2 alpha^2 var t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    if var < 0:
        raise ValueError("var must be nonnegative")
    out = 2.0 * law.alpha**2 * var * t
    return float(out) if out.ndim == 0 else out


def avg_xstate_two(t, s: TwoQubitScenario) -> XState:
    """Averaged X-state elements of the two working qubits."""
    _require_mean_zero(s.noise_a, s.noise_b)
    t = np.asarray(t, dtype=float)
    alpha = s.coupling.alpha
    c2 = s.coupling.c ** 2
    va, vb = s.noise_a.variance, s.noise_b.variance
    wa, wb = s.omega_a, s.omega_b
    relax = 1.0 - np.cos(2.0 * alpha * wa * t) * np.exp(-2.0 * alpha**2 * va * t**2)
    a = 0.25 * s.x * c2 * relax
    d = 0.25 * s.y * c2 * relax
    b = 0.5 * s.x + 0.5 * s.y * (1.0 - 0.5 * c2 * relax)
    c_el = 0.5 * s.y + 0.5 * s.x * (1.0 - 0.5 * c2 * relax)
    inv2a = 1.0 / (2.0 * alpha)
    branch_plus = (
        np.exp(1j * alpha * wa * t)
        * np.exp(-0.5 * (alpha + 0.5) ** 2 * va * t**2)
        * (1.0 - inv2a)
    )
    branch_minus = (
        np.exp(-1j * alpha * wa * t)
        * np.exp(-0.5 * (alpha - 0.5) ** 2 * va * t**2)
        * (1.0 + inv2a)
    )
    z = (
        0.25
        * np.exp(-0.5 * vb * t**2)
        * np.exp(-0.5j * (wa + 2.0 * wb) * t)
        * (branch_plus + branch_minus)
    )
    return XState(a=a, b=b, c=c_el, d=d, z=z)


def _decay(x):
    """exp(-x), floored at exp(-300) ~ 5e-131.

    Without the floor the tails underflow into subnormals, on which exp and
    every later product run several times slower; the floor moves g by less
    than 1e-130.
    """
    return np.exp(-np.minimum(x, 300.0))


def xstate_gap(t, alpha, var_a, var_b, omega_a, xy):
    """g(t) = |z| - sqrt(a d) of avg_xstate_two in real arithmetic; C = 2 max(0, g).

    With P = (1 - 1/2a) exp(-(a + 1/2)^2 va t^2/2) and
    M = (1 + 1/2a) exp(-(a - 1/2)^2 va t^2/2):

        |z| = (1/4) exp(-vb t^2/2) sqrt(P^2 + M^2 + 2 P M cos(2 a wa t))
        sqrt(a d) = (1/4) c^2 sqrt(xy) |1 - cos(2 a wa t) exp(-2 a^2 va t^2)|

    omega_b only turns the phase of z and drops out. Every argument broadcasts,
    so per-cell parameters of shape (cells, 1) meet a (cells, points) time grid.
    Mean-zero noise is assumed, as in avg_xstate_two.
    """
    t2 = np.square(t)
    inv2a = 0.5 / np.asarray(alpha, dtype=float)
    half_va_t2 = 0.5 * var_a * t2
    p = (1.0 - inv2a) * _decay((alpha + 0.5) ** 2 * half_va_t2)
    m = (1.0 + inv2a) * _decay((alpha - 0.5) ** 2 * half_va_t2)
    # cos(0) and exp(0) are exactly 1, so skipping them changes no bit
    cos_term = np.cos(2.0 * alpha * omega_a * t) if np.any(omega_a) else 1.0
    z_abs = 0.25 * np.sqrt(p * p + m * m + 2.0 * p * m * cos_term)
    if np.any(var_b):
        z_abs = z_abs * _decay(0.5 * var_b * t2)
    relax = np.abs(1.0 - cos_term * _decay(2.0 * alpha**2 * var_a * t2))
    return z_abs - 0.25 * (1.0 - inv2a * inv2a) * np.sqrt(xy) * relax


def special_no_longitudinal(t, s: TwoQubitScenario):
    """(|z|, sqrt(a d)) with both noise variances zero (no relaxation at all)."""
    if s.noise_a.variance != 0.0 or s.noise_b.variance != 0.0:
        raise ValueError("both noise variances must be zero for this special case")
    if not s.coupling.alpha > 0.5:
        raise ValueError("alpha must exceed 1/2 for this special case")
    return _special_zero_va(t, s)


def special_transverse_only(t, s: TwoQubitScenario):
    """(|z|, sqrt(a d)) with longitudinal noise off but transverse noise on."""
    if s.noise_a.variance != 0.0:
        raise ValueError("noise_a variance must be zero for this special case")
    if not s.noise_b.variance > 0.0:
        raise ValueError("noise_b variance must be positive for this special case")
    return _special_zero_va(t, s)


def _special_zero_va(t, s: TwoQubitScenario):
    t = np.asarray(t, dtype=float)
    alpha = s.coupling.alpha
    inv4a2 = 1.0 / (4.0 * alpha**2)
    cos_term = np.cos(2.0 * alpha * s.omega_a * t)
    z_abs = (
        (math.sqrt(2.0) / 4.0)
        * np.exp(-0.5 * s.noise_b.variance * t**2)
        * np.sqrt(1.0 + inv4a2 + (1.0 - inv4a2) * cos_term)
    )
    ad_root = (
        math.sqrt(s.x * s.y)
        * (4.0 * alpha**2 - 1.0)
        / (16.0 * alpha**2)
        * (1.0 - cos_term)
    )
    return z_abs, ad_root


def single_trajectory(s: SingleQubitScenario, grid) -> Trajectory:
    """Analytic averaged trajectory of the working qubit on a time grid."""
    grid = np.asarray(grid, dtype=float)
    pop = avg_population_single(grid, s)
    coh = avg_coherence_single(grid, s)
    return Trajectory(
        times=grid,
        columns={"rho_pp": pop, "re_rho_pm": coh.real, "im_rho_pm": coh.imag},
        meta={"source": "analytic"},
    )
