"""Concurrence (general and X-state fast path) and the disentanglement time solver."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hensim.analytic import avg_xstate_two, xstate_gap
from hensim.ensemble import sample_ensemble
from hensim.linalg import PAULI_Y, validate_density
from hensim.scenarios import Trajectory, TwoQubitScenario, XState

_YY = np.kron(PAULI_Y, PAULI_Y)


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


def concurrence_x(elems) -> np.ndarray:
    """Fast path for X states: 2 max(0, |z| - sqrt(a d)).

    ``elems`` is anything with attributes a, d, z (per-realization or averaged
    X-state elements); vectorized over time grids.
    """
    ad = np.asarray(elems.a) * np.asarray(elems.d)
    val = 2.0 * np.maximum(0.0, np.abs(elems.z) - np.sqrt(np.maximum(ad, 0.0)))
    out = np.minimum(val, 1.0)
    return float(out) if out.ndim == 0 else out


def xstate_matrix(elems, index=None) -> np.ndarray:
    """Assemble the 4x4 X-state density matrix in the standard product basis.

    Diagonal (b, a, d, c) with z on the |++><--| corner. ``index`` selects one
    grid point when the element arrays are time-resolved.
    """

    def pick(v):
        v = np.asarray(v)
        return complex(v if index is None else v[index])

    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = pick(elems.b)
    rho[1, 1] = pick(elems.a)
    rho[2, 2] = pick(elems.d)
    rho[3, 3] = pick(elems.c)
    rho[0, 3] = pick(elems.z)
    rho[3, 0] = np.conj(rho[0, 3])
    return rho


def concurrence_trajectory(
    s: TwoQubitScenario,
    grid,
    n: int | None = None,
    master_seed: int | None = None,
) -> Trajectory:
    """Concurrence C(t): analytic when n is None, Monte Carlo otherwise."""
    grid = np.asarray(grid, dtype=float)
    if n is None:
        xs = avg_xstate_two(grid, s)
        return Trajectory(
            times=grid,
            columns={"C": concurrence_x(xs)},
            meta={"source": "analytic"},
        )
    if master_seed is None:
        raise ValueError("Monte Carlo concurrence needs a master seed")
    traj = sample_ensemble(s, n, master_seed, grid, observable="two")
    cols = traj.columns
    xs = XState(cols["a"], cols["b"], cols["c"], cols["d"], cols["re_z"] + 1j * cols["im_z"])
    return Trajectory(times=grid, columns={"C": concurrence_x(xs)}, meta=traj.meta)


FINITE = "finite"
NO_SUDDEN_DEATH = "none"
BEYOND_HORIZON = "beyond-horizon"
STATUSES = (FINITE, NO_SUDDEN_DEATH, BEYOND_HORIZON)

# The automatic horizon search gives up once t_max would exceed this.
_HORIZON = 1e6
# Points of the first scan grid (made 4 and then 16 times denser if needed),
# the bisection width, and the points of the verification sweep.
_GRID_DENSITY = 4000
_TOL = 1e-8
_VERIFY_POINTS = 1000
# Scan and verification grids are evaluated a block of cells at a time, about
# this many points per array, so memory stays flat however many cells there are.
# On a 2-core Xeon (numpy 2.4) blocks past about 10k points ran the gap 2-3
# times slower per point, and smaller ones gained nothing.
_BLOCK_POINTS = 1 << 13


@dataclass(slots=True)
class CriticalTime:
    """Smallest time after which the concurrence stays zero, and how it was found.

    ``status`` is "finite" (t_c is set), "none" (no sudden death: alpha = 1/2,
    no longitudinal noise or a pure auxiliary mixture) or "beyond-horizon"
    (g(t) is still positive at the largest automatic horizon). ``t_max`` is the
    horizon that was scanned (for "beyond-horizon", the last one tried; None for
    "none") and ``escalations`` the number of times the scan grid had to be made
    denser (0 to 2).
    """

    t_c: float | None
    bracket: tuple[float, float] | None
    tolerance: float
    status: str
    t_max: float | None
    escalations: int


def _params(scenarios) -> np.ndarray:
    """Rows alpha, var_a, var_b, omega_a, xy (one column per cell): the inputs of xstate_gap.

    Reads ``scenarios`` once, so a generator of them is never held in memory.
    """

    def values():
        for s in scenarios:
            if s.noise_a.mean != 0.0 or s.noise_b.mean != 0.0:
                raise ValueError("find_tc requires mean-zero noise")
            yield from (s.coupling.alpha, s.noise_a.variance, s.noise_b.variance,
                        s.omega_a, s.x * s.y)

    return np.fromiter(values(), dtype=float).reshape(-1, 5).T


def _cell_gap(t, cells):
    """xstate_gap at t of shape (cells,) or (cells, points) for a (5, cells) parameter block."""
    shape = (-1,) + (1,) * (np.ndim(t) - 1)
    return xstate_gap(t, *(row.reshape(shape) for row in cells))


def _gap(t, s: TwoQubitScenario):
    """g(t) = |z(t)| - sqrt(a(t) d(t)); C(t) = 2 max(0, g(t))."""
    return xstate_gap(t, *_params([s])[:, 0])


def _rows(start, stop, n):
    """(cells, n) array whose rows are np.linspace(start_i, stop_i, n), value for value."""
    step = (stop - start) / (n - 1)
    ts = np.arange(n) * step[:, None] + start[:, None]
    ts[:, -1] = stop
    return ts


def _blocks(n_cells, points):
    step = max(1, _BLOCK_POINTS // points)
    return [slice(i, i + step) for i in range(0, n_cells, step)]


def _last_crossings(cells, t_max, density):
    """Bracket (lo, hi) of the last downward sign change of g on each cell's scan grid.

    Cells whose grid shows no such change get a NaN bracket.
    """
    n = len(t_max)
    lo, hi = np.full(n, np.nan), np.full(n, np.nan)
    for b in _blocks(n, density):
        ts = _rows(np.zeros_like(t_max[b]), t_max[b], density)
        pos = _cell_gap(ts, cells[:, b]) > 0.0
        down = pos[:, :-1] & ~pos[:, 1:]
        last = density - 2 - np.argmax(down[:, ::-1], axis=1)
        i = np.arange(len(ts))
        found = down[i, last]
        lo[b] = np.where(found, ts[i, last], np.nan)
        hi[b] = np.where(found, ts[i, last + 1], np.nan)
    return lo, hi


def _bisect(cells, lo, hi, tol):
    """Bisect every bracket in lock-step until each is at most ``tol`` wide; returns hi."""
    lo, hi = lo.copy(), hi.copy()
    while True:
        j = np.flatnonzero(hi - lo > tol)
        if len(j) == 0:
            return hi
        mid = 0.5 * (lo[j] + hi[j])
        up = _cell_gap(mid, cells[:, j]) > 0.0
        lo[j[up]] = mid[up]
        hi[j[~up]] = mid[~up]


def _stays_dead(cells, t_c, t_max, points):
    """Whether g <= 1e-10 on every cell's dense sweep over [t_c, t_max]."""
    ok = np.empty(len(t_c), dtype=bool)
    for b in _blocks(len(t_c), points):
        ok[b] = np.all(_cell_gap(_rows(t_c[b], t_max[b], points), cells[:, b]) <= 1e-10, axis=1)
    return ok


def find_tc_batch(scenarios, t_max: float | None = None) -> list[CriticalTime]:
    """Critical disentanglement times of many scenarios, solved together.

    Runs the algorithm of find_tc over all cells at once, on the real-only
    closed form xstate_gap; each cell's result is the one find_tc gives for it
    alone, whatever the batch around it. ``scenarios`` may be any iterable
    and is read once.
    """
    params = _params(scenarios)
    alpha, va, xy = params[0], params[1], params[4]
    results: list[CriticalTime | None] = [None] * params.shape[1]
    dead = (alpha == 0.5) | (va == 0.0) | (xy == 0.0)
    for i in np.flatnonzero(dead):
        results[i] = CriticalTime(None, None, _TOL, NO_SUDDEN_DEATH, None, 0)
    idx = np.flatnonzero(~dead)
    cells = params[:, idx]

    # sqrt(a d) approaches its asymptote like exp(-2 alpha^2 va t^2);
    # t_settle is the 99% point of that envelope
    t_settle = np.sqrt(math.log(1e2) / (2.0 * alpha[idx] ** 2 * va[idx]))
    if t_max is None:
        horizon = np.maximum(2.0 * t_settle, 1.0)
        beyond = np.zeros(len(idx), dtype=bool)
        pending = np.arange(len(idx))
        while len(pending):
            grow = pending[_cell_gap(horizon[pending], cells[:, pending]) >= 0.0]
            horizon[grow] *= 2.0
            over = horizon[grow] > _HORIZON
            beyond[grow[over]] = True
            pending = grow[~over]
        for k in np.flatnonzero(beyond):
            # t_max: the last horizon tried, where g was still positive
            results[idx[k]] = CriticalTime(None, None, _TOL, BEYOND_HORIZON,
                                           float(horizon[k] / 2.0), 0)
        keep = np.flatnonzero(~beyond)
    else:
        horizon = np.full(len(idx), float(t_max))
        short = np.flatnonzero(t_max < t_settle)
        if len(short):
            raise ValueError(
                f"t_max={t_max} too small: sqrt(a d) has not reached its "
                f"asymptote (needs about {t_settle[short[0]]:.3g})"
            )
        if np.any(_cell_gap(horizon, cells) >= 0.0):
            raise ValueError(f"t_max={t_max} too small: g(t_max) is still positive")
        keep = np.arange(len(idx))

    for escalations, density in enumerate((_GRID_DENSITY, 4 * _GRID_DENSITY, 16 * _GRID_DENSITY)):
        lo, hi = _last_crossings(cells[:, keep], horizon[keep], density)
        has = ~np.isnan(lo)
        k, lo, hi = keep[has], lo[has], hi[has]
        t_c = _bisect(cells[:, k], lo, hi, _TOL)
        ok = _stays_dead(cells[:, k], t_c, horizon[k], _VERIFY_POINTS)
        for i, tc, a, b in zip(k[ok], t_c[ok], lo[ok], hi[ok]):
            results[idx[i]] = CriticalTime(float(tc), (float(a), float(b)), _TOL,
                                           FINITE, float(horizon[i]), escalations)
        has[has] = ok
        keep = keep[~has]
        if len(keep) == 0:
            return results
    # e.g. g is NaN because alpha^2 overflows, or oscillates faster than the densest grid
    raise ValueError(f"could not isolate the last sign change of g(t) in {len(keep)} cell(s)")


def find_tc(s: TwoQubitScenario, t_max: float | None = None) -> CriticalTime:
    """Critical disentanglement time on the analytic averaged trajectory.

    Status "none" (no finite time) when the longitudinal channel is absent
    (alpha = 1/2 or zero longitudinal variance) or the auxiliary mixture is
    pure (xy = 0). Otherwise: grid scan for the last downward sign change of g,
    with the grid made 4 and then 16 times denser while the result fails
    verification; bisection refinement to a width of 1e-8; then a dense verification
    sweep over [t_c, t_max].

    ``t_max`` must be large enough that sqrt(a d) has essentially reached its
    asymptote and g(t_max) < 0, or ValueError is raised. When omitted it is
    found by doubling from twice the settling time; if g is still positive
    past t = 1e6 the status is "beyond-horizon" and t_c is None.

    This is find_tc_batch on a batch of one.
    """
    return find_tc_batch([s], t_max)[0]
