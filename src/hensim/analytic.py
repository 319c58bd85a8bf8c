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

from hensim.scenarios import SingleQubitScenario, TwoQubitScenario, coupling_c


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
    """Envelope limit (c^2/2) |xb|^2 of the averaged population; in [0, 1/2).

    It is the excited-state probability e^{-bd} / (1 + e^{-bd}) of a qubit at
    bd = beta Delta = ln((1 - p) / p): the temperature the ensemble mimics.
    """
    return 0.5 * coupling_c(alpha) ** 2 * abs(xb) ** 2


def _decay(x):
    """exp(-x), floored at exp(-300) ~ 5e-131.

    Without the floor the tails underflow into subnormals, on which exp and
    every later product run several times slower; the floor moves g by less
    than 1e-130. It also hides the roots of g where c^2 sqrt(xy) is about
    1e-130 or less: there the floored |z| stays above sqrt(a d) for all t.
    """
    return np.exp(-np.minimum(x, 300.0))


def gap_args(s: TwoQubitScenario) -> tuple[float, float, float, float, float]:
    """xstate_gap's arguments after t: alpha, var_a, var_b, omega_a, xy."""
    return s.alpha, s.var_a, s.var_b, s.omega_a, s.x * s.y


def xstate_gap(t, alpha, var_a, var_b, omega_a, xy):
    """g(t) = |z| - sqrt(a d) of the averaged X state in real arithmetic; C = 2 max(0, g).

    With P = (1 - 1/2a) exp(-(a + 1/2)^2 va t^2/2) and
    M = (1 + 1/2a) exp(-(a - 1/2)^2 va t^2/2), whose factors are formed as
    (a -+ 1/2) / a and c^2 = 1 - 1/4a^2 as their product (a - 1/2 is exact
    for a <= 1, so nothing cancels near a = 1/2):

        |z| = (1/4) exp(-vb t^2/2) sqrt(P^2 + M^2 + 2 P M cos(2 a wa t))
        sqrt(a d) = (1/4) c^2 sqrt(xy) |1 - cos(2 a wa t) exp(-2 a^2 va t^2)|

    omega_b only turns the phase of z and drops out. Every argument broadcasts,
    so per-cell parameters of shape (cells, 1) meet a (cells, points) time grid.
    hensim.validation checks it against the complex averaged X state, avg_xstate_two.
    """
    alpha = np.asarray(alpha, dtype=float)
    above, below = alpha + 0.5, alpha - 0.5
    p_amp, m_amp = below / alpha, above / alpha
    sa = np.sqrt(0.5 * var_a) * t  # alpha_k^2 va t^2 / 2 = square(alpha_k sa)
    p = p_amp * _decay(np.square(above * sa))
    m = m_amp * _decay(np.square(below * sa))
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
    return z_abs - 0.25 * (p_amp * m_amp) * np.sqrt(xy) * relax


def single_trajectory(s: SingleQubitScenario, grid) -> dict[str, np.ndarray]:
    """Analytic averaged columns rho_pp, re_rho_pm, im_rho_pm of the working qubit on a time grid."""
    grid = np.asarray(grid, dtype=float)
    coh = avg_coherence_single(grid, s)
    return {"rho_pp": avg_population_single(grid, s), "re_rho_pm": coh.real, "im_rho_pm": coh.imag}
