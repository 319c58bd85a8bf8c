"""Closed-form ensemble-averaged quantities.

The averages are over the mean-zero Gaussian level spacings of the scenario
records (hensim.scenarios); the moment identity behind the closed forms
requires the zero mean.

Every Gaussian exponent alpha_k^2 var t^2 (alpha_k is alpha or alpha +- 1/2)
is formed as square(alpha_k * (sqrt(var) * t)). Squaring alpha first would
raise OverflowError from alpha of about 1.34e154 on, and give 0 * inf = NaN at
t = 0 or var = 0; this form is 0 there and at worst inf elsewhere, where the
envelope is exp(-inf) = 0, its alpha -> infinity limit. Likewise every phase
alpha_k omega_a t is formed as alpha_k * (omega_a * t), so that it is exactly 0
at t = 0 however large alpha is; a phase that leaves double precision at t > 0
is inf, and its cos is NaN.
"""

from __future__ import annotations

import math

import numpy as np

from hensim.scenarios import SingleQubitScenario, Trajectory, TwoQubitScenario, coupling_c


def avg_population_single(t, s: SingleQubitScenario):
    """Averaged excited-state population of the working qubit.

    (c^2/2) |xb|^2 [1 - cos(2 alpha omega_a t) exp(-2 alpha^2 var t^2)].
    """
    t = np.asarray(t, dtype=float)
    alpha = s.alpha
    c2 = coupling_c(alpha) ** 2
    env = np.exp(-2.0 * np.square(alpha * (math.sqrt(s.var) * t)))
    return 0.5 * c2 * abs(s.xb) ** 2 * (1.0 - np.cos(alpha * (2.0 * s.omega_a * t)) * env)


def avg_coherence_single(t, s: SingleQubitScenario):
    """Averaged coherence of the working qubit (two Gaussian-damped branches)."""
    t = np.asarray(t, dtype=float)
    alpha = s.alpha
    st = math.sqrt(s.var) * t
    wa = s.omega_a
    plus = np.exp(-0.5 * np.square((alpha + 0.5) * st)) * np.exp(1j * ((alpha - 0.5) * (wa * t)))
    minus = np.exp(-0.5 * np.square((alpha - 0.5) * st)) * np.exp(-1j * ((alpha + 0.5) * (wa * t)))
    return 0.5 * coupling_c(alpha) * s.xb * np.conj(s.yb) * (plus - minus)


def steady_population(alpha: float, xb) -> float:
    """Envelope limit (c^2/2) |xb|^2 of the averaged population; in [0, 1/2)."""
    return 0.5 * coupling_c(alpha) ** 2 * abs(xb) ** 2


def thermal_population(beta_delta: float) -> float:
    """Thermal excited-state probability exp(-bd) / (1 + exp(-bd)) at bd = beta Delta >= 0."""
    if not (beta_delta >= 0.0):
        raise ValueError(f"beta_delta must be nonnegative, got {beta_delta}")
    e = math.exp(-beta_delta)
    return e / (1.0 + e)


def invert_thermal(p_plus: float, xb: float = 1.0) -> tuple[float, float]:
    """Coupling (alpha, |xb|) whose steady population (c^2/2) |xb|^2 equals ``p_plus``.

    Only alpha is tuned; at the default xb = 1 every p_plus in [0, 1/2) is reachable.
    """
    if not (0.0 <= p_plus < 0.5):
        raise ValueError(f"p_plus must lie in [0, 1/2), got {p_plus}")
    c2 = 2.0 * p_plus / abs(xb) ** 2
    if c2 >= 1.0:
        raise ValueError(
            f"p_plus={p_plus} is unreachable with xb={xb}: requires c^2={c2} >= 1"
        )
    alpha = 1.0 / (2.0 * math.sqrt(1.0 - c2))
    return alpha, float(abs(xb))


def _decay(x):
    """exp(-x), floored at exp(-300) ~ 5e-131.

    Without the floor the tails underflow into subnormals, on which exp and
    every later product run several times slower; the floor moves g by less
    than 1e-130.
    """
    return np.exp(-np.minimum(x, 300.0))


def gap_args(s: TwoQubitScenario) -> tuple[float, float, float, float, float]:
    """xstate_gap's arguments after t: alpha, var_a, var_b, omega_a, xy."""
    return s.alpha, s.var_a, s.var_b, s.omega_a, s.x * s.y


def xstate_gap(t, alpha, var_a, var_b, omega_a, xy):
    """g(t) = |z| - sqrt(a d) of the averaged X state in real arithmetic; C = 2 max(0, g).

    With P = (1 - 1/2a) exp(-(a + 1/2)^2 va t^2/2) and
    M = (1 + 1/2a) exp(-(a - 1/2)^2 va t^2/2):

        |z| = (1/4) exp(-vb t^2/2) sqrt(P^2 + M^2 + 2 P M cos(2 a wa t))
        sqrt(a d) = (1/4) c^2 sqrt(xy) |1 - cos(2 a wa t) exp(-2 a^2 va t^2)|

    omega_b only turns the phase of z and drops out. Every argument broadcasts,
    so per-cell parameters of shape (cells, 1) meet a (cells, points) time grid.
    hensim.validation checks it against the complex averaged X state, avg_xstate_two.
    """
    inv2a = 0.5 / np.asarray(alpha, dtype=float)
    sa = np.sqrt(0.5 * var_a) * t  # alpha_k^2 va t^2 / 2 = square(alpha_k sa)
    p = (1.0 - inv2a) * _decay(np.square((alpha + 0.5) * sa))
    m = (1.0 + inv2a) * _decay(np.square((alpha - 0.5) * sa))
    # cos(0) and exp(0) are exactly 1, so skipping them changes no bit
    turning = np.any(omega_a)
    cos_term = np.cos(alpha * (2.0 * omega_a * t)) if turning else 1.0
    z_abs = 0.25 * np.sqrt(p * p + m * m + 2.0 * p * m * cos_term)
    if np.any(var_b):
        z_abs = z_abs * _decay(np.square(np.sqrt(0.5 * var_b) * t))
    # 1 - cos E = (1 - E) + (1 - cos) E, with 1 - E from expm1 so that it does
    # not cancel to 0 at small exponents; both terms only grow as cos falls
    # below 1, so g at any omega_a is at most g at omega_a = 0, float for float
    x = np.square(alpha * (2.0 * sa))
    relax = -np.expm1(-x)
    if turning:
        relax = relax + (1.0 - cos_term) * _decay(x)
    return z_abs - 0.25 * (1.0 - inv2a * inv2a) * np.sqrt(xy) * relax


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
