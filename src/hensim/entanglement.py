"""X-state concurrence and, on analytic.xstate_gap, the concurrence trajectory and t_c solver.

Every concurrence the CLI writes is concurrence(g) of an X-state gap g = |z| - sqrt(a d):
C of xstate_gap, C_mc of the Monte Carlo mean X state's gap (analytic.ad_root).
concurrence_x, the same on X-state entries, serves the oracle suite and the tests.
The solver takes its cells as one TwoQubitScenario whose fields broadcast to one
value per cell, and returns plain columns (status, t_c, t_max), one entry per cell.
Their oracles (general Wootters concurrence, averaged X state) live in hensim.validation.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np

from hensim.analytic import xstate_gap
from hensim.scenarios import TwoQubitScenario, subset


def concurrence(g):
    """C = min(1, 2 max(0, g)) from the X-state gap g = |z| - sqrt(a d)."""
    return np.minimum(1.0, 2.0 * np.maximum(0.0, g))


def concurrence_x(a, d, z):
    """Concurrence of X states from their entries a, d and complex z; arrays broadcast."""
    return concurrence(np.abs(z) - np.sqrt(np.maximum(np.multiply(a, d), 0.0)))


def concurrence_trajectory(s, grid) -> np.ndarray:
    """Averaged concurrence C(t) of a TwoQubitScenario on a time grid, from g = xstate_gap."""
    return concurrence(xstate_gap(np.asarray(grid, dtype=float), s))


FINITE = "finite"
NO_SUDDEN_DEATH = "none"
UNRESOLVED = "unresolved"
STATUSES = (FINITE, NO_SUDDEN_DEATH, UNRESOLVED)

# Points of the scan grid over the last phase turn, for omega_a != 0. The scan
# evaluates them from the grid's end, a segment at a time, and a cell stops at
# the first segment that holds a downward sign change.
_GRID_DENSITY = 4000
# Where those segments begin: the last 64 points, then 4 times more in each
# segment (256, 1,024), then the rest. On check_tc_bracket's cells the last
# downward change lay in the last 50 points for half of them and in the last
# 1,000 for 71%; its 67 turning cells evaluated 1,373 points each, not 4,000.
_SEGMENT_STARTS = (*(_GRID_DENSITY - np.cumsum((64, 256, 1024))).tolist(), 0)
# Stated bound |t_c - root| <= TOL t_c at omega_a = 0. Each factor of |z| = (1/4)
# exp(-vb t^2/2) M (1 + r), r <= 1, and of sqrt(a d) is a constant times a function
# of one exponent E, formed to about 7u (u = 2^-53), of slope 2E in ln t. So rounding
# moves ln|z| - ln sqrt(a d) by about 8u plus 3.5u times its slope in ln t, at least
# 2 ln 2 at the root (each term falls; 1/8 > |z| >= exp(-(delta^2 va + vb) t^2/2) / 4):
# the root by about 10u t_c, t_c one float (2u) above it. TOL ~ 90u: a margin of 7.
TOL = 1e-14
# Scan grids, and the gap sweeps of hensim.validation, are evaluated a block of
# cells at a time, about this many points per array, so memory stays flat
# however many cells there are. On a 2-core Xeon (numpy 2.4) blocks past about
# 10k points ran the gap 2-3 times slower per point, and smaller ones gained
# nothing.
BLOCK_POINTS = 1 << 13
# Peak memory find_tc_batch takes per cell, rounded up: tracemalloc read 283
# bytes per cell at 90,000 cells (a 300 x 300 map) at var_b = 0 and at
# var_b = 0.5 (numpy 2.4). cli.cmd_tc_map budgets a map by it.
CELL_BYTES = 600
# Relative half-width of a bracket around a guessed root: 8 units of
# rounding (u = 2^-53), room for the rounding of the guess and of g.
_GUESS_SLACK = 8.0 * 2.0**-53
# Newton steps from the left that _newton_guesses takes (see find_tc_batch)
_NEWTON_STEPS = 5


def _last_crossings(cells, start, stop):
    """Bracket (lo, hi) of the last downward sign change of g on each cell's scan grid.

    The grid has _GRID_DENSITY points from start to stop, both included, at
    distances from stop that grow as the square of the point's index. Near
    stop, the zero-frequency root, the envelope leaves g so little room that
    a revival just before a phase turn completes can be narrower than an
    even grid's spacing. The grid is read from its end, one segment of
    _SEGMENT_STARTS at a time, each with the point to its left, so every pair
    of adjacent points is tested once; a cell stops at the first segment
    that holds a downward change, whose last one is the grid's last. Each
    point has the bits the whole grid gives it. Cells whose grid shows no
    such change get a NaN bracket. The record's fields are flat, one entry
    per cell.
    """
    n = len(start)
    lo, hi = np.full(n, np.nan), np.full(n, np.nan)
    back = np.square(np.arange(_GRID_DENSITY)[::-1] / (_GRID_DENSITY - 1))
    todo, end = np.arange(n), _GRID_DENSITY
    for begin in _SEGMENT_STARTS:
        seg = back[max(begin - 1, 0):end]
        per_block = max(1, BLOCK_POINTS // seg.size)
        found = np.zeros(len(todo), dtype=bool)
        for b in (slice(i, i + per_block) for i in range(0, len(todo), per_block)):
            j = todo[b]
            ts = stop[j, None] - seg * (stop[j] - start[j])[:, None]
            if begin == 0:
                ts[:, 0] = start[j]
            pos = xstate_gap(ts, subset(cells, (j, None))) > 0.0
            down = pos[:, :-1] & ~pos[:, 1:]
            last = seg.size - 2 - np.argmax(down[:, ::-1], axis=1)
            i = np.arange(len(j))
            f = found[b] = down[i, last]
            lo[j[f]], hi[j[f]] = ts[i, last][f], ts[i, last + 1][f]
        todo, end = todo[~found], begin
        if not len(todo):
            break
    return lo, hi


def _bisect(cells, lo, hi):
    """Bisect every cell's bracket in place and in lock-step until lo and hi are adjacent
    floats; returns (lo, hi).

    Keeps g(lo) > 0 >= g(hi) where it held at the start; a NaN g moves hi, so
    the bracket it leaves fails that test. A NaN bracket is left as it is.
    The open cells' record is gathered again only on a round that closed one.
    """
    j = np.arange(len(lo))
    while len(j):
        mid = 0.5 * (lo[j] + hi[j])
        # the rounded midpoint of adjacent floats is one of them
        inner = (lo[j] < mid) & (mid < hi[j])
        if not inner.all():
            j, mid = j[inner], mid[inner]
            if not len(j):
                break
            cells = subset(cells, inner)
        up = xstate_gap(mid, cells) > 0.0
        lo[j[up]] = mid[up]
        hi[j[~up]] = mid[~up]
    return lo, hi


def _bracket_guesses(cells, lo, hi, guess):
    """Set each cell's bracket to its guess widened by (1 -+ _GUESS_SLACK), wherever
    g(lo) > 0 >= g(hi) holds there; every other cell keeps the bracket it had."""
    # a guess may be NaN, under- or overflow; such a cell fails the bracket test
    with np.errstate(all="ignore"):
        start, stop = guess * (1.0 - _GUESS_SLACK), guess * (1.0 + _GUESS_SLACK)
        held = (np.isfinite(guess) & (xstate_gap(start, cells) > 0.0)
                & (xstate_gap(stop, cells) <= 0.0))
    lo[held], hi[held] = start[held], stop[held]


def _newton_guesses(envelope):
    """Each cell's envelope root, sqrt(q) after _NEWTON_STEPS Newton steps on h(q) from
    q0 = L / K (see find_tc_batch); NaN or inf where the closed form leaves double precision."""
    alpha, va, vb, xy = envelope.alpha, envelope.var_a, envelope.var_b, envelope.x * envelope.y
    delta = alpha - 0.5
    with np.errstate(all="ignore"):
        lead = -np.log(delta / alpha * np.sqrt(xy))  # L
        slope = 0.5 * (np.square(delta) * va + vb)  # K
        rho, c, b = delta / (alpha + 0.5), alpha * va, 2.0 * np.square(alpha) * va
        q = lead / slope
        for _ in range(_NEWTON_STEPS):
            h = lead - slope * q + np.log1p(rho * np.exp(-c * q)) - np.log(-np.expm1(-b * q))
            q = q + h / (slope + c / (1.0 + np.exp(c * q) / rho) + b / np.expm1(b * q))
        return np.sqrt(q)


def find_tc_batch(s: TwoQubitScenario) -> dict[str, np.ndarray]:
    """Critical disentanglement times of many cells, solved together, as named columns.

    The cells are those of the record s, whose fields broadcast to one value
    per cell (a scalar record is one cell); the record has checked every
    entry (all finite, alpha >= 1/2, variances >= 0, x in [0, 1]), and xy is
    x y, y = 1 - x, as in analytic.xstate_gap.

    It returns three equal-length columns, one entry per cell in C order.
    ``status`` is one of STATUSES: "finite", "none" (no sudden death: alpha =
    1/2, no longitudinal noise or a pure auxiliary mixture) or "unresolved"
    (below). ``t_c`` is the upper end of the adjacent floats
    (nextafter(t_c, 0), t_c) around the root, g(nextafter(t_c, 0)) > 0 >= g(t_c),
    |t_c - root| <= TOL t_c; NaN unless finite. ``t_max`` is the bound T
    below, NaN for "none".

    Every cell is first solved on its envelope g(t; 0), its own gap with
    omega_a set to 0. The envelope falls strictly from g(0) = 1/2 (any var_b),
    so its root t_c0 is unique. With delta = alpha - 1/2, |z| <= (1/2)
    exp(-(delta^2 va + vb) t^2 / 2), as P + M <= 2 exp(-delta^2 va t^2 / 2)
    (see analytic.xstate_gap), and sqrt(a d) >= (1/8) c^2 sqrt(xy) once
    exp(-2 alpha^2 va t^2) <= 1/2. So g(t; 0) <= 0 for every t >= T,

        T = max(sqrt(ln 2 / 2) / (alpha sqrt(va)),
                sqrt(2 ln(4 / (c^2 sqrt(xy)))) / sqrt(delta^2 va + vb)),

    taken 1e-12 relative and 16 of the smallest subnormals wider for
    rounding. The status is "finite" where the computed g(T; 0) <= 0, and
    the root is bisected to adjacent floats (lo0, hi0), from a bracket of an
    estimate (below) or from [0, T]. It is "unresolved" where rounding hides
    the root: va / 2 rounding to 0 at va = 5e-324 (and at omega_a != 0 a
    final bracket that fails, below); never a tiny x. At omega_a = 0,
    (lo0, hi0) is the bracket.

    Every cell estimates its root by Newton's method in q = t^2 on the
    envelope's log-ratio, which has the same root,

        h(q) = ln|z| - ln sqrt(a d)
             = L - K q + log1p(rho exp(-alpha va q)) - ln(-expm1(-2 alpha^2 va q)),

    L = -ln((delta / alpha) sqrt(xy)) >= ln 2, K = (delta^2 va + vb) / 2 and
    rho = delta / (alpha + 1/2). The last two terms are >= 0, so the root of
    L - K q, q0 = L / K, lies at or left of the root of h. Both terms are
    convex and falling in q, so h is too, and each step from the left rises
    without passing the root: _NEWTON_STEPS steps from q0 reach it to a few
    units of rounding on every map measured. The estimate sqrt(q) is
    bracketed by (1 -+ 8u), u = 2^-53; if g(lo) > 0 >= g(hi) holds there,
    the bracket is bisected to adjacent floats in about 5 rounds instead of
    60. An estimate that is not finite (the closed form leaves double
    precision), or a bracket that fails, falls back to bisecting [0, T].
    The computed envelope never rises with t (it reads t only through
    rounded products with it, and each rounding is monotone), so it changes
    sign at one pair of adjacent floats, which every bracket that holds
    bisects to: each cell's columns are bit-identical to those it gets by
    bisecting [0, T].

    At omega_a != 0 the window rests on one invariant: the computed
    g(t; omega_a) is at most the computed g(t; 0) for every float t (see
    analytic.xstate_gap). So g(t; omega_a) <= 0 from hi0 on, and t_c lies in
    [t_k, hi0], where t_k is the last whole phase turn (a multiple of
    pi / (alpha |omega_a|)) at or before lo0: there cos = 1 and g(t_k) equals
    the envelope, which is positive. The window is at most one turn wide; a
    _GRID_DENSITY-point grid over it, read from its end a segment at a time
    (_last_crossings), finds the last downward sign change of g, which is
    bisected to adjacent floats. A cell whose final bracket fails
    g(lo) > 0 >= g(hi) is "unresolved", with its t_max: g is NaN, or the
    phase turns are too fine for the floats near the root (at t near 3e10,
    say, a multiple of the rounded turn is no longer a whole turn). Only a
    cell at omega_a != 0 can fail it.

    All cells run at once on the real-only closed form xstate_gap; each cell's
    result is the one it gets alone, whatever the batch around it.
    """
    s = TwoQubitScenario(*(np.ravel(v) for v in np.broadcast_arrays(
        *(np.asarray(getattr(s, f.name), dtype=float) for f in fields(s)))))
    out = {name: np.full(s.alpha.size, np.nan) for name in ("t_c", "t_max")}
    # each cell's index into STATUSES: 0 finite, 1 none, 2 unresolved
    code = np.ones(s.alpha.size, dtype=np.int8)
    idx = np.flatnonzero((s.alpha != 0.5) & (s.var_a != 0.0) & (s.x * s.y != 0.0))
    cells, envelope = subset(s, idx), subset(replace(s, omega_a=0.0), idx)
    alpha, va, vb, xy = cells.alpha, cells.var_a, cells.var_b, cells.x * cells.y
    # T, divided one factor at a time and summed by hypot so that nothing
    # overflows (alpha sqrt(va) = inf would make it 0)
    delta = alpha - 0.5
    k = np.sqrt(2.0 * np.log(4.0 / (delta / alpha * ((alpha + 0.5) / alpha)) / np.sqrt(xy)))
    t_max = (1.0 + 1e-12) * np.maximum(math.sqrt(math.log(2.0) / 2.0) / alpha / np.sqrt(va),
                                       k / delta / np.hypot(np.sqrt(va), np.sqrt(vb) / delta))
    t_max += 16 * 5e-324
    finite = xstate_gap(t_max, envelope) <= 0.0
    code[idx] = np.where(finite, 0, 2)
    out["t_max"][idx] = t_max
    idx, hi = idx[finite], t_max[finite]
    cells, envelope = subset(cells, finite), subset(envelope, finite)
    # the envelope roots: each cell bisects the bracket of its Newton estimate
    # where that holds, else [0, T] (see above)
    lo = np.zeros(len(idx))
    _bracket_guesses(envelope, lo, hi, _newton_guesses(envelope))
    _bisect(envelope, lo, hi)

    turning = np.flatnonzero(cells.omega_a != 0.0)
    w = subset(cells, turning)
    # alpha |omega_a| may be subnormal: pi over it is inf, which the fmod below
    # handles (t_k = 0), so the overflow is not worth a warning
    with np.errstate(over="ignore"):
        turn = math.pi / (w.alpha * np.abs(w.omega_a))
    # fmod is exact, so t_k is lo0 rounded down to a whole turn (0 if turn is inf)
    t_k = lo[turning] - np.fmod(lo[turning], turn)
    lo[turning], hi[turning] = _bisect(w, *_last_crossings(w, t_k, hi[turning]))

    ok = (xstate_gap(lo, cells) > 0.0) & (xstate_gap(hi, cells) <= 0.0)
    code[idx[~ok]] = 2
    out["t_c"][idx[ok]] = hi[ok]
    # an object column of STATUSES' own strings, not a fixed-width string array
    out["status"] = np.array(STATUSES, dtype=object)[code]
    return out
