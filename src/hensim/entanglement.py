"""X-state concurrence and, on analytic.xstate_gap, the concurrence trajectory and t_c solver.

The solver returns plain columns (status, lo, t_c, t_max), one entry per cell.
Their oracles (general Wootters concurrence, averaged X state) live in hensim.validation.
"""

from __future__ import annotations

import math

import numpy as np

from hensim.analytic import gap_args, xstate_gap


def concurrence(g):
    """C = min(1, 2 max(0, g)) from the X-state gap g = |z| - sqrt(a d)."""
    return np.minimum(1.0, 2.0 * np.maximum(0.0, g))


def concurrence_x(a, d, z):
    """Concurrence of X states from their entries a, d and complex z; arrays broadcast."""
    return concurrence(np.abs(z) - np.sqrt(np.maximum(np.multiply(a, d), 0.0)))


def concurrence_trajectory(s, grid) -> np.ndarray:
    """Averaged concurrence C(t) of a TwoQubitScenario on a time grid, from g = xstate_gap."""
    return concurrence(xstate_gap(np.asarray(grid, dtype=float), *gap_args(s)))


FINITE = "finite"
NO_SUDDEN_DEATH = "none"
BEYOND_HORIZON = "beyond-horizon"
STATUSES = (FINITE, NO_SUDDEN_DEATH, BEYOND_HORIZON)

# The automatic horizon search gives up once t_max would exceed this.
_HORIZON = 1e6
# Points of the scan grid over the last phase turn, for omega_a != 0.
_GRID_DENSITY = 4000
# Stated bound on |t_c - root|. Bisection narrows each bracket to adjacent
# floats, far below it; the slack covers a reference t_c taken from the top
# end of a bracket up to this wide.
TOL = 1e-8
# Scan grids are evaluated a block of cells at a time, about this many points
# per array, so memory stays flat however many cells there are. On a 2-core
# Xeon (numpy 2.4) blocks past about 10k points ran the gap 2-3 times slower
# per point, and smaller ones gained nothing.
_BLOCK_POINTS = 1 << 13
# Peak memory find_tc_batch takes per cell, rounded up: tracemalloc read 555
# bytes per cell at 90,000 cells (numpy 2.4). cli.cmd_tc_map budgets a map by it.
CELL_BYTES = 600
# Relative half-width of a bracket guessed from a scaled root: 8 units of
# rounding (u = 2^-53), room for the rounding of the guess and of g.
_GUESS_SLACK = 8.0 * 2.0**-53


def _cell_gap(t, cells):
    """xstate_gap at t of shape (cells,) or (cells, points) for a (5, cells) parameter block."""
    shape = (-1,) + (1,) * (np.ndim(t) - 1)
    return xstate_gap(t, *(row.reshape(shape) for row in cells))


def _last_crossings(cells, start, stop):
    """Bracket (lo, hi) of the last downward sign change of g on each cell's scan grid.

    The grid has _GRID_DENSITY points from start to stop, both included, at
    distances from stop that grow as the square of the point's index. Near
    stop, the zero-frequency root, the envelope leaves g so little room that
    a revival just before a phase turn completes can be narrower than an
    even grid's spacing. Cells whose grid shows no such change get a NaN
    bracket.
    """
    n = len(start)
    lo, hi = np.full(n, np.nan), np.full(n, np.nan)
    back = np.square(np.arange(_GRID_DENSITY)[::-1] / (_GRID_DENSITY - 1))
    per_block = max(1, _BLOCK_POINTS // _GRID_DENSITY)
    for b in (slice(i, i + per_block) for i in range(0, n, per_block)):
        ts = stop[b, None] - back * (stop[b] - start[b])[:, None]
        ts[:, 0] = start[b]
        pos = _cell_gap(ts, cells[:, b]) > 0.0
        down = pos[:, :-1] & ~pos[:, 1:]
        last = _GRID_DENSITY - 2 - np.argmax(down[:, ::-1], axis=1)
        i = np.arange(len(ts))
        found = down[i, last]
        lo[b] = np.where(found, ts[i, last], np.nan)
        hi[b] = np.where(found, ts[i, last + 1], np.nan)
    return lo, hi


def _bisect(cells, lo, hi, j=None):
    """Bisect the brackets of cells j (default all) in place and in lock-step until lo and hi
    are adjacent floats; returns (lo, hi).

    Keeps g(lo) > 0 >= g(hi) where it held at the start; a NaN g moves hi, so
    the bracket it leaves fails that test.
    """
    j = np.arange(len(lo)) if j is None else j
    while len(j):
        mid = 0.5 * (lo[j] + hi[j])
        # the rounded midpoint of adjacent floats is one of them
        inner = (lo[j] < mid) & (mid < hi[j])
        j, mid = j[inner], mid[inner]
        up = _cell_gap(mid, cells[:, j]) > 0.0
        lo[j[up]] = mid[up]
        hi[j[~up]] = mid[~up]
    return lo, hi


def _groups(envelope):
    """(rep, member): every cell at var_b = 0 that shares (alpha, xy) with an earlier one,
    and the first cell of its group in C order, its representative."""
    shared = np.flatnonzero(envelope[2] == 0.0)
    # lexsort is stable, so each group runs in C order and starts at its representative
    order = shared[np.lexsort(envelope[np.ix_((4, 0), shared)])]
    key = envelope[np.ix_((0, 4), order)]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(key[:, 1:] != key[:, :-1], axis=0)
    return order[np.flatnonzero(first)[np.cumsum(first) - 1]][~first], order[~first]


def _scaled_guesses(envelope, lo, hi, rep, member):
    """Set each member's bracket to its representative's root hi[rep], scaled to the member's
    var_a and widened by (1 -+ _GUESS_SLACK), wherever g(lo) > 0 >= g(hi) holds there."""
    cells = envelope[:, member]
    # a guess may under- or overflow at extreme variance ratios; such a cell
    # fails the bracket test and keeps the bracket it had
    with np.errstate(all="ignore"):
        guess = hi[rep] * np.sqrt(envelope[1, rep] / cells[1])
        start, stop = guess * (1.0 - _GUESS_SLACK), guess * (1.0 + _GUESS_SLACK)
        held = (np.isfinite(guess) & (_cell_gap(start, cells) > 0.0)
                & (_cell_gap(stop, cells) <= 0.0))
    lo[member[held]], hi[member[held]] = start[held], stop[held]


def _envelope_roots(envelope, horizon):
    """Bracket (lo, hi) of adjacent floats around each envelope's root below its horizon.

    Groups at var_b = 0 solve their representative on [0, horizon] and bracket
    the others' scaled guesses, as find_tc_batch describes.
    """
    rep, member = _groups(envelope)
    lo, hi = np.zeros(len(horizon)), horizon.copy()
    solo = np.ones(len(lo), dtype=bool)
    solo[member] = False
    _bisect(envelope, lo, hi, np.flatnonzero(solo))
    _scaled_guesses(envelope, lo, hi, rep, member)
    return _bisect(envelope, lo, hi, member)


def find_tc_batch(alpha, var_a, var_b, omega_a, xy) -> dict[str, np.ndarray]:
    """Critical disentanglement times of many cells, solved together, as named columns.

    The arguments are xstate_gap's after t (see analytic.gap_args): arrays
    that broadcast to one value per cell. They are not checked again; their
    domain is what the TwoQubitScenario records let through (all finite,
    alpha >= 1/2, variances >= 0, 0 <= xy <= 1/4), as cli.cmd_tc_map checks
    by building the records of its map's corners.

    It returns four equal-length columns, one entry per cell in C order.
    ``status`` is one of STATUSES: "finite", "none" (no sudden death: alpha =
    1/2, no longitudinal noise or a pure auxiliary mixture) or "beyond-horizon"
    (the zero-frequency gap, which bounds g from above, is still positive at
    the largest automatic horizon). ``lo`` and ``t_c`` are adjacent floats with
    g(lo) > 0 >= g(t_c), t_c within TOL of the root; both are NaN unless finite.
    ``t_max`` is the horizon bracketed (for "beyond-horizon", the last one
    tried), NaN for "none".

    Every cell is first solved on its envelope g(t; 0), its own gap with
    omega_a set to 0. The envelope falls strictly from g(0) = 1/2 (any var_b),
    so its root t_c0 is unique: the horizon t_max is found by doubling from
    twice the time sqrt(a d) takes to settle until g(t_max; 0) < 0, and
    [0, t_max] is bisected to adjacent floats (lo0, hi0). If the envelope is
    still positive past t = 1e6 the status is "beyond-horizon".
    At omega_a = 0, (lo0, hi0) is the bracket.

    At var_b = 0 the envelope depends on var_a only through sqrt(var_a) t:
    cells that share (alpha, xy) share one root up to a change of time unit,
    and form a group whose roots scale as 1/sqrt(var_a). Each group's
    representative, its first cell in C order within the horizon, bisects
    [0, t_max] as above. Every other cell keeps its own horizon search (so
    t_max and "beyond-horizon" are its own), guesses t_rep sqrt(v_rep / v)
    and brackets the guess by (1 -+ 8u), u = 2^-53; if g(lo) > 0 >= g(hi)
    holds there, it bisects that bracket to adjacent floats in about 5 rounds
    instead of 60. A guess that under- or overflows, or a bracket that fails,
    falls back to bisecting [0, t_max]. The computed envelope never rises with
    t (it reads t only through rounded products with it, and each rounding is
    monotone), so it changes sign at one pair of adjacent floats, which every
    bracket that holds bisects to: each cell's columns are bit-identical to
    those it gets alone, and a group of one is the full solve. Cells with
    var_b != 0 gain nothing: the ratio var_b / var_a that shapes their
    envelope changes along the variance axis, so no two of a map's cells
    share a root.

    At omega_a != 0 the window rests on one invariant: the computed
    g(t; omega_a) is at most the computed g(t; 0) for every float t (see
    analytic.xstate_gap). So g(t; omega_a) <= 0 from hi0 on, and t_c lies in
    [t_k, hi0], where t_k is the last whole phase turn (a multiple of
    pi / (alpha |omega_a|)) at or before lo0: there cos = 1 and g(t_k) equals
    the envelope, which is positive. The window is at most one turn wide; one
    _GRID_DENSITY-point scan of it finds the last downward sign change of g,
    which is bisected to adjacent floats. A cell whose final bracket fails
    g(lo) > 0 >= g(hi) (a NaN g, or a phase finer than float spacing) raises
    ValueError.

    All cells run at once on the real-only closed form xstate_gap; each cell's
    result is the one it gets alone, whatever the batch around it.
    """
    params = np.array(np.broadcast_arrays(alpha, var_a, var_b, omega_a, xy),
                      dtype=float).reshape(5, -1)
    alpha, va, xy = params[0], params[1], params[4]
    out = {name: np.full(params.shape[1], np.nan) for name in ("t_c", "lo", "t_max")}
    # an object column: a string one as wide as "none" would cut "finite" to "fini"
    out["status"] = np.full(params.shape[1], NO_SUDDEN_DEATH, dtype=object)
    idx = np.flatnonzero(~((alpha == 0.5) | (va == 0.0) | (xy == 0.0)))
    cells = params[:, idx]
    envelope = cells.copy()
    envelope[3] = 0.0

    # sqrt(a d) approaches its asymptote like exp(-2 alpha^2 va t^2);
    # t_settle is the 99% point of that envelope
    t_settle = np.sqrt(math.log(1e2) / 2.0) / (alpha[idx] * np.sqrt(va[idx]))
    horizon = np.maximum(2.0 * t_settle, 1.0)
    beyond = np.zeros(len(idx), dtype=bool)
    pending = np.arange(len(idx))
    while len(pending):
        grow = pending[_cell_gap(horizon[pending], envelope[:, pending]) >= 0.0]
        horizon[grow] *= 2.0
        over = horizon[grow] > _HORIZON
        beyond[grow[over]] = True
        pending = grow[~over]
    out["status"][idx] = np.where(beyond, BEYOND_HORIZON, FINITE)
    # beyond the horizon, t_max is the last horizon tried, where g was still positive
    out["t_max"][idx] = np.where(beyond, horizon / 2.0, horizon)
    idx, cells = idx[~beyond], cells[:, ~beyond]
    lo, hi = _envelope_roots(envelope[:, ~beyond], horizon[~beyond])

    turning = np.flatnonzero(cells[3] != 0.0)
    w = cells[:, turning]
    # alpha |omega_a| may be subnormal: pi over it is inf, which the fmod below
    # handles (t_k = 0), so the overflow is not worth a warning
    with np.errstate(over="ignore"):
        turn = math.pi / (w[0] * np.abs(w[3]))
    # fmod is exact, so t_k is lo0 rounded down to a whole turn (0 if turn is inf)
    t_k = lo[turning] - np.fmod(lo[turning], turn)
    lo[turning], hi[turning] = _bisect(w, *_last_crossings(w, t_k, hi[turning]))

    ok = (_cell_gap(lo, cells) > 0.0) & (_cell_gap(hi, cells) <= 0.0)
    if not np.all(ok):
        # e.g. g is NaN because a phase overflows, or turns faster than float spacing
        raise ValueError(f"could not isolate the last sign change of g(t) in "
                         f"{np.count_nonzero(~ok)} cell(s)")
    out["lo"][idx], out["t_c"][idx] = lo, hi
    return out

