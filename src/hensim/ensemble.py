"""Closed-form single-realization dynamics and their Monte Carlo ensemble average.

Each realization costs O(1) per time point through the closed forms below,
which take the sampler's (t_max, points), the times t_k = k h with
h = t_max / (points - 1) of time_grid(t_max, points), and build each phase
from about 2 sqrt(N) sin/cos pairs for N points; the dense Hamiltonians,
propagators and matrix exponential they are checked against live in
hensim.validation.

A realization carries three reals per point, one real and one complex column:
rho_pp and rho_pm for one working qubit, gamma^2 and z for the X state of two,
whose a, b, c and d are affine in gamma^2 (hensim.validation.xstate_diagonal;
the CLI needs only sqrt(a d), analytic.ad_root of 2 gamma^2). A sampler chunk
reduces only those, and sample_ensemble returns their means and standard
errors under the kernel's column names. Both kernels write their columns in
place into a workspace of just those (workspace), one real and one complex
buffer that each sampler thread allocates once per call, min(CHUNK, n) rows
by M B points, the grid padded to whole blocks. The single-qubit kernel writes
sin beta as one batched matmul of small sine factors (_sine_factors), the
other phases as tables or factors of e^{i theta t} (_phase_factors). A run
folds its chunks as they finish, so its memory, which sampler_bytes gives, is
flat in n. The kernels (evolve_*) also take a stack of R cases, each with its own
t_max, as the rows of one call: a record and a t_max whose fields are (R, 1)
columns, as the oracle suite in hensim.validation passes them.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque

import numpy as np

from hensim.scenarios import SingleQubitScenario, TwoQubitScenario, coupling_c, time_grid

# Fixed chunk size: chunk boundaries must not depend on the worker count, so
# that the index-ordered reduction is bit-identical for any parallelism.
CHUNK = 512
RNG = "splitmix64-boxmuller-v1"  # scheme id of standard_normals, in the output meta

_WORKERS_ENV = "HENSIM_WORKERS"
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64 counter increment


def _blocks(n: int) -> tuple[int, int]:
    """(M, B) of an n-point grid: B = ceil(sqrt(n)) points per block, M = ceil(n / B) blocks.

    M B - n <= B - 1 is the padding that the kernels' buffers carry past the grid.
    """
    b = math.isqrt(n - 1) + 1
    return -(-n // b), b


def _phase_factors(shape, theta, h, scale=1.0):
    """Factors (R, M, 1) and (R, 1, B) whose product is scale e^{i theta_r t_k}, t_k = k h_r, k = B m + j.

    ``shape`` is (R, M, B); theta, h and scale are scalars or (R, 1) columns,
    one value per row (a column h gives each row its own grid, a stack of
    cases). The factors are scale_r e^{i theta_r fl(B m h_r)} and
    e^{i theta_r fl(j h_r)}, M + B sin/cos pairs per row instead of M B; each
    time is an integer times h_r, rounded once, like np.linspace(0, t, n)[k].
    A caller writes their product (_phase_table) or multiplies a buffer by each.

    Bound, with u = 2^-53: at every point the product lies within
    |scale| (4 |theta| t_k + 11) u of scale exp(1j theta t_k) on a linspace
    grid of step h, and a buffer w times both factors within
    |w| |scale| (4 |theta| t_k + 18) u of w * (scale * exp(1j theta t_k)).
    The coarse and fine angles fl(theta fl(i h)) sum to within 2u |theta| k h
    of theta k h, and so does fl(theta t_k), as linspace's t_k lies within
    u k h of k h; as |e^{ia} - e^{ib}| <= |a - b|, the angles contribute
    4u |theta| t_k. Each factor and the pointwise value lies within 2u of
    its exact value (sin and cos within 1 ulp), 6u; each complex product
    adds at most sqrt(5) u: scale times coarse and coarse times fine
    (6 + 2 sqrt(5) < 11), or scale times coarse, w times each factor, and
    scale and w times the pointwise value (6 + 5 sqrt(5) < 18).
    """
    rows, m, b = shape
    table = np.empty((rows, m + b), dtype=complex)
    # the angles go into the imaginary parts, which their sines then overwrite
    np.multiply(theta, np.concatenate((np.arange(0, m * b, b), np.arange(b))) * h, out=table.imag)
    np.cos(table.imag, out=table.real)
    np.sin(table.imag, out=table.imag)
    coarse, fine = table[:, :m], table[:, m:]
    coarse *= scale
    return coarse[:, :, None], fine[:, None, :]


def _sine_factors(rows: int, m: int, b: int, theta, h):
    """Contiguous factors (R, M, 2) and (R, 2, B) whose matmul is sin(theta_r t_k), t_k = k h_r.

    They hold [sin, cos] of the coarse angles and [cos; sin] of the fine ones,
    the angles of _phase_factors, so by angle addition their product is the
    imaginary part of its table, within the same (4 |theta| t_k + 11) u of
    np.sin(theta t_k); theta and h are as there. Both factors are contiguous:
    numpy's matmul takes BLAS only then.
    """
    angles = np.multiply(theta, np.concatenate((np.arange(0, m * b, b), np.arange(b))) * h)
    coarse, fine = angles[..., :m], angles[..., m:]
    left, right = np.empty((rows, m, 2)), np.empty((rows, 2, b))
    np.sin(coarse, out=left[..., 0])
    np.cos(coarse, out=left[..., 1])
    np.cos(fine, out=right[:, 0])
    np.sin(fine, out=right[:, 1])
    return left, right


def _phase_table(out, theta, h, scale=1.0):
    """Fill ``out``, a complex (R, M, B) view, with scale e^{i theta_r t_k} (_phase_factors)."""
    np.multiply(*_phase_factors(out.shape, theta, h, scale), out=out)


def workspace(rows: int, points: int) -> tuple[np.ndarray, np.ndarray]:
    """One real and one complex (rows, M B) buffer, a realization's three reals per point, for
    up to ``rows`` realizations of either kernel on a ``points``-point grid padded to M B points
    (_blocks). The kernels' columns are views of them, which hold only until the next kernel
    call on the same workspace.
    """
    m, b = _blocks(points)
    return np.empty((rows, m * b)), np.empty((rows, m * b), dtype=complex)


def sampler_bytes(n: int, points: int) -> tuple[int, int]:
    """(threads, bytes) of sample_ensemble's n-realization run on a ``points``-point grid:
    each thread's workspace, min(CHUNK, n) rows by M B points at 24 bytes, and its per-call
    scratch, as many rows by M + B values at 24 bytes (the angles and two sine factors of
    _sine_factors, more than _phase_factors' complex table), and the sums and squared
    deviations, 48 bytes per grid point, of the 2 x threads chunks that may wait ahead of the
    fold and of the fold itself. Nothing grows with n past CHUNK."""
    threads = worker_count(-(-n // CHUNK))
    m, b = _blocks(points)
    return threads, threads * min(CHUNK, n) * (m + b + m * b) * 24 + (2 * threads + 1) * points * 48


def evolve_single_realization(eps, t_max, points: int, s: SingleQubitScenario, ws):
    """Columns (rho_pp, rho_pm) of the working qubit at t_k = k h, real and complex.

    Initial state |->_A (x) (xb|+> + yb|->)_B. With beta = alpha (eps - omega_a) t
    and phi = (eps + omega_a) t / 2: rho_pp = c^2 |xb|^2 sin^2 beta and
    rho_pm = q e^{-i phi} sin beta, q = -i c xb yb: sin beta is the matmul
    of _sine_factors, written into the real buffer, and q e^{-i phi} a phase
    table (_phase_table) in the complex one, which sin beta then scales. The step
    h = t_max / (points - 1) is bit for bit time_grid(t_max, points)[1], so
    the times are those of that grid. t_max is a scalar or a column (R, 1)
    of R grids' ends, a stack of cases; eps is a scalar or a column (R, 1),
    and s is a record whose fields are scalars or (R, 1) columns. The
    columns have the broadcast shape of eps, t_max and (points,), (N,) or
    (R, N). They are views of the first R rows of ``ws``, a
    workspace(R', N) with R' >= R, and agree with the propagator +
    partial-trace route to 1e-10.
    """
    shape = np.broadcast_shapes(np.shape(eps), np.shape(t_max), (points,))
    rows, (m, b), h = math.prod(shape[:-1]), _blocks(points), t_max / (points - 1)
    sin_b, w = (v[:rows] for v in ws)
    c = coupling_c(s.alpha)
    np.matmul(*_sine_factors(rows, m, b, s.alpha * (eps - s.omega_a), h),
              out=sin_b.reshape(rows, m, b))
    _phase_table(w.reshape(rows, m, b), -0.5 * (eps + s.omega_a), h,
                 -1j * c * s.xb * s.yb)
    w *= sin_b
    np.square(sin_b, out=sin_b)
    sin_b *= c**2 * abs(s.xb) ** 2
    # a tuple display: tuple() of a generator resizes a 10-slot tuple, and CPython's
    # free list keeps each such tuple once freed, 56 B a chunk up to 2,000 of them
    return sin_b[:, :points].reshape(shape), w[:, :points].reshape(shape)


def evolve_two_realization(eps_a, eps_b, t_max, points: int, s: TwoQubitScenario, ws):
    """Columns (gamma^2, z) of the two working qubits' X state at t_k = k h, real and complex.

    With gamma = sin(alpha (omega_a - eps_a) t), the diagonal (a, b, c, d) is
    affine in gamma^2 (hensim.validation.xstate_diagonal), and
    z = (x + y)/2 e^{-i psi} (cos(alpha (omega_a - eps_a) t) - i gamma / (2 alpha)),
    psi = (omega_a + eps_a + 2 eps_b) t / 2, in the frame of the second working
    qubit's mean frequency (no record has it: hensim.scenarios). The step h,
    t_max (a scalar or (R, 1)), the spacings, the record s and ``ws`` are as in
    evolve_single_realization; z is formed in place, cos - i gamma / (2 alpha)
    first, then times each factor of the second phase (_phase_factors). The
    X state agrees with the 8x8 propagator + partial-trace route to 1e-10.
    """
    shape = np.broadcast_shapes(np.shape(eps_a), np.shape(eps_b), np.shape(t_max), (points,))
    rows, (m, blk), h = math.prod(shape[:-1]), _blocks(points), t_max / (points - 1)
    gamma2, z = (v[:rows] for v in ws)
    zb = z.reshape(rows, m, blk)
    _phase_table(zb, s.alpha * (s.omega_a - eps_a), h)
    np.square(z.imag, out=gamma2)
    z.imag /= -2.0 * s.alpha  # z = cos(alpha (omega_a - eps_a) t) - i gamma / (2 alpha)
    for factor in _phase_factors(zb.shape, -0.5 * (s.omega_a + eps_a + 2.0 * eps_b), h,
                                 0.5 * (s.x + s.y)):
        zb *= factor
    return gamma2[:, :points].reshape(shape), z[:, :points].reshape(shape)  # a display, as above


def _mix64(z):
    """SplitMix64 finalizer, in place on a uint64 array (wraps modulo 2^64)."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def standard_normals(master_seed: int, start: int, stop: int, k: int) -> np.ndarray:
    """Standard normals of realizations start..stop-1: shape (k, stop - start).

    Draw j of realization i is a pure function of (master_seed, i, j), hence
    independent of chunking and worker count: the SplitMix64 stream keyed by
    mix(mix(seed) + (i + 1) G) gives words 2j + 1 and 2j + 2, two 53-bit uniforms
    for one Box-Muller normal. The seed is one uint64 word, in [0, 2^64).
    """
    if start < 0 or stop < start:
        raise ValueError(f"need 0 <= start <= stop, got {start}, {stop}")
    with np.errstate(over="ignore"):
        seed = _mix64(np.array([int(master_seed)], dtype=np.uint64))
        keys = _mix64(np.arange(start + 1, stop + 1, dtype=np.uint64) * _GOLDEN + seed)
        words = (np.arange(1, 2 * k + 1, dtype=np.uint64) * _GOLDEN)[:, None] + keys
        u = (_mix64(words) >> 11).astype(float) * 2.0**-53
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))      # 1 - u lies in (0, 1]
    return r * np.cos(2.0 * np.pi * u[1::2])


def worker_count(chunks: int) -> int:
    """Pool size for `chunks` chunks: HENSIM_WORKERS, else the CPU count; at most `chunks`."""
    env = os.environ.get(_WORKERS_ENV)
    if env and not (env.isascii() and env.isdigit() and int(env) >= 1):
        raise ValueError(f"{_WORKERS_ENV} must be a positive integer, got {env!r}")
    return min(int(env) if env else os.cpu_count() or 1, chunks)


def _in_order(pool, fn, items, ahead: int):
    """Yield fn(item) for each item, in order, run on ``pool`` with at most ``ahead``
    items submitted and not yet yielded, so that at most that many results wait."""
    pending = deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) == ahead:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


# scenario type: (name of its kernel in this module, variance fields of the
# spacings drawn per realization in this order, names of its kernel's real and
# complex column). The kernel is looked up when the sampler runs, so that a
# wrapper installed over it (a tracer, say) sees its calls.
_OBSERVABLES = {
    SingleQubitScenario: ("evolve_single_realization", ("var",), ("rho_pp", "rho_pm")),
    TwoQubitScenario: ("evolve_two_realization", ("var_a", "var_b"), ("gamma2", "z")),
}


def sample_ensemble(s, n: int, master_seed: int, t_max: float, points: int) -> dict[str, np.ndarray]:
    """Named columns of the mean over n realizations on time_grid(t_max, points), with
    standard errors in ``<name>_se``.

    The columns are the scenario type's kernel's: its real column and the
    real and imaginary parts of its complex one, rho_pp, re_rho_pm and
    im_rho_pm for a SingleQubitScenario, gamma2, re_z and im_z for a
    TwoQubitScenario, whose X-state diagonal is affine in gamma^2. On the
    grid, uniform from 0, the kernels form each realization's phases from
    about B + N/B sin/cos pairs instead of N, B = ceil(sqrt(N)).

    Chunks of CHUNK realizations run (possibly concurrently), at most 2 per
    worker submitted ahead, and fold into running sums and squared deviations
    in chunk order as they finish, so the output is bit-identical for any
    worker count and the memory is flat in n (sampler_bytes). A
    chunk reduces only the reals a realization carries: its kernel's real
    column and its complex column read as 2N interleaved reals, three reals
    per point. Each worker thread allocates one workspace of min(CHUNK, n)
    rows by M B points per call (workspace) and reuses it for all its
    chunks; a short last chunk takes its first rows.
    The master seed must lie in [0, 2^64), the key space of standard_normals.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {master_seed}")
    time_grid(t_max, points)  # its refusal of a bad t_max or point count
    kernel, fields, (real_name, cplx_name) = _OBSERVABLES[type(s)]
    evolve = globals()[kernel]
    sigmas = [math.sqrt(getattr(s, f)) for f in fields]
    local = threading.local()

    def run(start):
        # rows are realizations start..stop-1, one spacing per variance each
        stop = min(start + CHUNK, n)
        if not hasattr(local, "ws"):
            local.ws = workspace(min(CHUNK, n), points)
        z = standard_normals(master_seed, start, stop, len(sigmas))
        eps = (sigma * zk[:, None] for sigma, zk in zip(sigmas, z))
        real, cplx = evolve(*eps, t_max, points, s, local.ws)
        vals = (real, cplx.view(float))
        count = stop - start
        sums = [v.sum(axis=0) for v in vals]
        # squared deviations about the chunk mean (no sum(x^2) - n mean^2 cancellation)
        for v, total in zip(vals, sums):
            v -= total / count
        return count, sums, [np.einsum("ij,ij->j", v, v) for v in vals]

    # Each chunk folds into a running count, sums and squared deviations in
    # chunk order, with the pairwise update of Chan, Golub & LeVeque:
    # M2 = M2_A + M2_B + delta^2 n_A n_B / (n_A + n_B), delta the difference
    # of the two means. The sums add in chunk order from 0, as sum() adds them.
    seen, sums, m2s = 0, [0, 0], [0, 0]
    # chunk starts come from a range, so nothing is listed per chunk
    workers = worker_count(-(-n // CHUNK))
    # imported here so that the analytic commands do not load concurrent.futures
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for count, chunk_sums, chunk_m2s in _in_order(pool, run, range(0, n, CHUNK), 2 * workers):
            for j in range(2):
                if seen:
                    delta = chunk_sums[j] / count - sums[j] / seen
                    chunk_m2s[j] += m2s[j] + delta**2 * (seen * count / (seen + count))
                sums[j], m2s[j] = sums[j] + chunk_sums[j], chunk_m2s[j]
            seen += count

    stats = []
    for total, m2 in zip(sums, m2s):
        mean = total / n
        stats.append((mean, np.sqrt(m2 / (n - 1) / n) if n > 1 else np.zeros_like(mean)))
    (mean, se), (cmean, cse) = stats
    # the complex column's reals interleave its real and imaginary parts
    return {real_name: mean, f"{real_name}_se": se,
            f"re_{cplx_name}": cmean[0::2], f"re_{cplx_name}_se": cse[0::2],
            f"im_{cplx_name}": cmean[1::2], f"im_{cplx_name}_se": cse[1::2]}
