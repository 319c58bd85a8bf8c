"""Closed-form ensemble-averaged quantities.

The averages are over the mean-zero Gaussian level spacings of the scenario
records (hensim.scenarios); the moment identity behind the closed forms
requires the zero mean.

Every Gaussian exponent alpha_k^2 var t^2 (alpha_k is alpha or alpha +- 1/2)
is formed as square(alpha_k * (sqrt(var) * t)). Squaring alpha first would
raise OverflowError from alpha of about 1.34e154 on, and give 0 * inf = NaN at
t = 0 or var = 0; this form is 0 there and at worst inf elsewhere, where the
envelope is exp(-inf) = 0, its alpha -> infinity limit. xstate_gap's alpha var
t^2 is (alpha s) (2 s), s = sqrt(var / 2) t: 0 at t = 0, and never 0 * inf, as
a factor is inf only where s > 0. Likewise every phase alpha_k omega_a t is
formed as alpha_k * (omega_a * t), so that it is exactly 0 at t = 0 however
large alpha is; a phase that leaves double precision at t > 0 is inf, and its
cos is NaN.
"""

from __future__ import annotations

import numpy as np

from hensim.scenarios import SingleQubitScenario, TwoQubitScenario, coupling_c


def avg_population_single(t, s: SingleQubitScenario):
    """Averaged excited-state population of the working qubit.

    (c^2/2) |xb|^2 [1 - cos(2 alpha omega_a t) exp(-2 alpha^2 var t^2)].
    """
    t = np.asarray(t, dtype=float)
    alpha = s.alpha
    c2 = coupling_c(alpha) ** 2
    env = np.exp(-2.0 * np.square(alpha * (np.sqrt(s.var) * t)))
    return 0.5 * c2 * abs(s.xb) ** 2 * (1.0 - np.cos(alpha * (2.0 * s.omega_a * t)) * env)


def avg_coherence_single(t, s: SingleQubitScenario):
    """Averaged coherence of the working qubit (two Gaussian-damped branches)."""
    t = np.asarray(t, dtype=float)
    alpha = s.alpha
    st = np.sqrt(s.var) * t
    wa = s.omega_a
    plus = np.exp(-0.5 * np.square((alpha + 0.5) * st)) * np.exp(1j * ((alpha - 0.5) * (wa * t)))
    minus = np.exp(-0.5 * np.square((alpha - 0.5) * st)) * np.exp(-1j * ((alpha + 0.5) * (wa * t)))
    return 0.5 * coupling_c(alpha) * s.xb * s.yb * (plus - minus)


def steady_population(alpha: float, xb) -> float:
    """Envelope limit (c^2/2) |xb|^2 of the averaged population; in [0, 1/2).

    It is the excited-state probability e^{-bd} / (1 + e^{-bd}) of a qubit at
    bd = beta Delta = ln((1 - p) / p): the temperature the ensemble mimics.
    """
    return 0.5 * coupling_c(alpha) ** 2 * abs(xb) ** 2


def steady_population_two(alpha, x) -> float:
    """Envelope limit 1/2 + (c^2/4) (x - y) of the first working qubit's averaged excited
    population, a + b of the X state at the mean gamma^2 = 1/2; in [1/4, 3/4].

    As for steady_population, it is thermal at bd = ln((1 - p) / p): 0, infinite
    temperature, at x = 1/2, and negative, an inverted population, for x > 1/2.
    """
    return 0.5 + 0.25 * coupling_c(alpha) ** 2 * (x - (1.0 - x))


def ad_root(relax, alpha, xy):
    """sqrt(a d) = (1/4) c^2 sqrt(xy) relax, with c^2 formed as ((a - 1/2) / a) ((a + 1/2) / a).

    relax is 1 - cos(2 a wa t) exp(-2 a^2 va t^2) in xstate_gap, and 2 gamma^2 for a
    realization or a Monte Carlo mean (the CLI's C_mc); arguments broadcast."""
    alpha = np.asarray(alpha, dtype=float)
    return 0.25 * (((alpha - 0.5) / alpha) * ((alpha + 0.5) / alpha)) * np.sqrt(xy) * relax


def xstate_gap(t, s: TwoQubitScenario):
    """g(t) = |z| - sqrt(a d) of the averaged X state of s in real arithmetic; C = 2 max(0, g).

    With M = (1 + 1/2a) exp(-(a - 1/2)^2 va t^2/2) and r = P / M =
    ((a - 1/2) / (a + 1/2)) exp(-a va t^2), the ratio to M of the other branch
    P = (1 - 1/2a) exp(-(a + 1/2)^2 va t^2/2) (factors formed as (a -+ 1/2) / a;
    a - 1/2 is exact for a <= 1):

        |z| = (1/4) exp(-vb t^2/2) M sqrt(1 + r (r + 2 cos(2 a wa t)))
        sqrt(a d) = ad_root(|1 - cos(2 a wa t) exp(-2 a^2 va t^2)|, a, xy)

    r comes from its own exponent, never as P / M, so it stays in [0, 1]. No
    envelope is squared or floored: at a root, M >= 2 sqrt(a d) ~ c^2 sqrt(xy) / 4
    > 1e-178 wherever M has decayed far, so |z| keeps full precision there.

    Only |z| enters, so g holds in any frame of the second working qubit, whose
    mean frequency no record carries (hensim.scenarios). t and the fields of s
    broadcast, so a stack of cells in (cells, 1) columns meets a (cells, points) grid.
    hensim.validation checks it against the complex averaged X state, avg_xstate_two.
    """
    alpha = np.asarray(s.alpha, dtype=float)
    above, below = alpha + 0.5, alpha - 0.5
    m_amp = above / alpha
    sa = np.sqrt(0.5 * s.var_a) * t  # alpha_k^2 va t^2 / 2 = square(alpha_k sa)
    m = m_amp * np.exp(-np.square(below * sa))
    r = (below / above) * np.exp(-(alpha * sa) * (2.0 * sa))
    # cos(0) and exp(0) are exactly 1, so skipping them changes no bit
    turning = np.any(s.omega_a)
    cos_term = np.cos(alpha * (2.0 * s.omega_a * t)) if turning else 1.0
    z_abs = 0.25 * m * np.sqrt(1.0 + r * (r + 2.0 * cos_term))
    if np.any(s.var_b):
        z_abs = z_abs * np.exp(-np.square(np.sqrt(0.5 * s.var_b) * t))
    # 1 - cos E = (1 - E) + (1 - cos) E, with 1 - E from expm1 so that it does
    # not cancel to 0 at small exponents; both terms only grow as cos falls
    # below 1, and |z| only falls (monotone roundings after cos_term, r, m >= 0),
    # so g at any omega_a is at most g at omega_a = 0, float for float
    x = np.square(alpha * (2.0 * sa))
    relax = -np.expm1(-x)
    if turning:
        relax = relax + (1.0 - cos_term) * np.exp(-x)
    return z_abs - ad_root(relax, alpha, s.x * s.y)


def single_trajectory(s: SingleQubitScenario, grid) -> dict[str, np.ndarray]:
    """Analytic averaged columns rho_pp, re_rho_pm, im_rho_pm of the working qubit on a time grid."""
    grid = np.asarray(grid, dtype=float)
    coh = avg_coherence_single(grid, s)
    return {"rho_pp": avg_population_single(grid, s), "re_rho_pm": coh.real, "im_rho_pm": coh.imag}
