"""X-state concurrence and, on analytic.xstate_gap, the concurrence trajectory and t_c solver.

Their oracles (general Wootters concurrence, averaged X state) live in hensim.validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hensim.analytic import require_mean_zero, xstate_gap
from hensim.scenarios import Trajectory, TwoQubitScenario


def concurrence_x(elems) -> np.ndarray:
    """Fast path for X states: 2 max(0, |z| - sqrt(a d)).

    ``elems`` is anything with attributes a, d, z (per-realization or averaged
    X-state elements); vectorized over time grids.
    """
    ad = np.asarray(elems.a) * np.asarray(elems.d)
    val = 2.0 * np.maximum(0.0, np.abs(elems.z) - np.sqrt(np.maximum(ad, 0.0)))
    out = np.minimum(val, 1.0)
    return float(out) if out.ndim == 0 else out


def concurrence_trajectory(s: TwoQubitScenario, grid) -> Trajectory:
    """Averaged concurrence C(t) = min(1, 2 max(0, g(t))) on a time grid, g from xstate_gap."""
    grid = np.asarray(grid, dtype=float)
    g = xstate_gap(grid, *_params([s])[:, 0])
    return Trajectory(
        times=grid,
        columns={"C": np.minimum(1.0, 2.0 * np.maximum(0.0, g))},
        meta={"source": "analytic"},
    )


FINITE = "finite"
NO_SUDDEN_DEATH = "none"
BEYOND_HORIZON = "beyond-horizon"
STATUSES = (FINITE, NO_SUDDEN_DEATH, BEYOND_HORIZON)

# The automatic horizon search gives up once t_max would exceed this.
_HORIZON = 1e6
# Points of the first scan grid for omega_a != 0 (made 4 and then 16 times
# denser if needed) and of its verification sweep.
_GRID_DENSITY = 4000
_VERIFY_POINTS = 1000
# Stated bound on |t_c - root|. Bisection narrows each bracket to adjacent
# floats, far below it; the slack covers a reference t_c taken from the top
# end of a bracket up to this wide.
_TOL = 1e-8
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
    (g(t) is still positive at the largest automatic horizon). For "finite",
    ``bracket`` is a pair of adjacent floats (lo, hi) with g(lo) > 0 >= g(hi)
    and t_c = hi; ``tolerance`` is the stated bound on |t_c - root|, 1e-8.
    ``t_max`` is the horizon that was bracketed (for "beyond-horizon", the
    last one tried; None for "none") and ``escalations`` the number of times
    the scan grid had to be made denser (0 to 2; always 0 at omega_a = 0,
    where no scan runs).
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
            require_mean_zero(s.noise_a, s.noise_b)
            yield from (s.coupling.alpha, s.noise_a.variance, s.noise_b.variance,
                        s.omega_a, s.x * s.y)

    return np.fromiter(values(), dtype=float).reshape(-1, 5).T


def _cell_gap(t, cells):
    """xstate_gap at t of shape (cells,) or (cells, points) for a (5, cells) parameter block."""
    shape = (-1,) + (1,) * (np.ndim(t) - 1)
    return xstate_gap(t, *(row.reshape(shape) for row in cells))


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


def _bisect(cells, lo, hi):
    """Bisect every bracket in lock-step until lo and hi are adjacent floats; returns (lo, hi).

    Keeps g(lo) > 0 >= g(hi) where it held at the start; a NaN g moves hi, so
    the bracket it leaves fails that test.
    """
    lo, hi = lo.copy(), hi.copy()
    j = np.arange(len(lo))
    while len(j):
        mid = 0.5 * (lo[j] + hi[j])
        # the rounded midpoint of adjacent floats is one of them
        inner = (lo[j] < mid) & (mid < hi[j])
        j, mid = j[inner], mid[inner]
        up = _cell_gap(mid, cells[:, j]) > 0.0
        lo[j[up]] = mid[up]
        hi[j[~up]] = mid[~up]
    return lo, hi


def _stays_dead(cells, t_c, t_max, points):
    """Whether g <= 1e-10 on every cell's dense sweep over [t_c, t_max]."""
    ok = np.empty(len(t_c), dtype=bool)
    for b in _blocks(len(t_c), points):
        ok[b] = np.all(_cell_gap(_rows(t_c[b], t_max[b], points), cells[:, b]) <= 1e-10, axis=1)
    return ok


def find_tc_batch(scenarios) -> list[CriticalTime]:
    """Critical disentanglement times of many scenarios, solved together.

    Each cell's horizon t_max is found by doubling from twice the time
    sqrt(a d) takes to settle until g(t_max) < 0; if g is still positive past
    t = 1e6 the status is "beyond-horizon" and t_c is None.

    At omega_a = 0 (any var_b) g falls strictly from g(0) = 1/2, so t_c is its
    only root: [0, t_max] is bisected to adjacent floats, with no scan and no
    sweep. Otherwise a grid scan over [0, t_max] finds the last downward sign
    change of g, with the grid made 4 and then 16 times denser while the
    result fails verification; the scan bracket is bisected to adjacent floats
    and then verified by a dense sweep over [t_c, t_max]. A NaN g, or a cell
    whose sign change cannot be isolated, raises ValueError.

    All cells run at once on the real-only closed form xstate_gap; each cell's
    result is the one it gets alone, whatever the batch around it.
    ``scenarios`` may be any iterable and is read once.
    """
    params = _params(scenarios)
    alpha, va, omega_a, xy = params[0], params[1], params[3], params[4]
    results: list[CriticalTime | None] = [None] * params.shape[1]
    dead = (alpha == 0.5) | (va == 0.0) | (xy == 0.0)
    for i in np.flatnonzero(dead):
        results[i] = CriticalTime(None, None, _TOL, NO_SUDDEN_DEATH, None, 0)
    idx = np.flatnonzero(~dead)
    cells = params[:, idx]

    # sqrt(a d) approaches its asymptote like exp(-2 alpha^2 va t^2);
    # t_settle is the 99% point of that envelope
    t_settle = np.sqrt(math.log(1e2) / 2.0) / (alpha[idx] * np.sqrt(va[idx]))
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

    def solved(k, lo, hi, escalations):
        for i, a, b in zip(k, lo, hi):
            results[idx[i]] = CriticalTime(float(b), (float(a), float(b)), _TOL,
                                           FINITE, float(horizon[i]), escalations)

    monotone = omega_a[idx[keep]] == 0.0
    k = keep[monotone]
    lo, hi = _bisect(cells[:, k], np.zeros(len(k)), horizon[k])
    ok = (_cell_gap(lo, cells[:, k]) > 0.0) & (_cell_gap(hi, cells[:, k]) <= 0.0)
    solved(k[ok], lo[ok], hi[ok], 0)
    unresolved = np.count_nonzero(~ok)

    keep = keep[~monotone]
    for escalations, density in enumerate((_GRID_DENSITY, 4 * _GRID_DENSITY, 16 * _GRID_DENSITY)):
        if len(keep) == 0:
            break
        lo, hi = _last_crossings(cells[:, keep], horizon[keep], density)
        has = ~np.isnan(lo)
        k = keep[has]
        lo, hi = _bisect(cells[:, k], lo[has], hi[has])
        ok = _stays_dead(cells[:, k], hi, horizon[k], _VERIFY_POINTS)
        solved(k[ok], lo[ok], hi[ok], escalations)
        has[has] = ok
        keep = keep[~has]
    unresolved += len(keep)
    if unresolved:
        # e.g. g is NaN because a phase overflows, or oscillates faster than the densest grid
        raise ValueError(f"could not isolate the last sign change of g(t) in {unresolved} cell(s)")
    return results


def find_tc(s: TwoQubitScenario) -> CriticalTime:
    """Critical disentanglement time on the analytic averaged trajectory.

    Status "none" (no finite time) when the longitudinal channel is absent
    (alpha = 1/2 or zero longitudinal variance) or the auxiliary mixture is
    pure (xy = 0); "beyond-horizon" when g is still positive past t = 1e6.
    Otherwise t_c is the top end of a bracket of adjacent floats around the
    root of g: bisected straight from [0, t_max] at omega_a = 0, where g is
    strictly decreasing, and from the last sign change of a grid scan,
    verified by a dense sweep, at any other omega_a. See find_tc_batch.

    This is find_tc_batch on a batch of one.
    """
    return find_tc_batch([s])[0]
