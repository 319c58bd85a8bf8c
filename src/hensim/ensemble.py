"""Closed-form single-realization dynamics and their Monte Carlo ensemble average.

A realization costs O(1) per time point through one closed form (_evolve) at
the times t_k = k h, h = t_max / (points - 1), of time_grid(t_max, points): a
real column scale sin^2(theta t) and a complex one
e^{i chi t} (u cos(theta t) + v sin(theta t)), three reals per point. Each
kernel (evolve_*) maps its scenario to theta, chi, scale, u and v: rho_pp and
rho_pm for one working qubit, gamma^2 and z for the X state of two, whose a,
b, c and d are affine in gamma^2 (hensim.validation.xstate_diagonal; the CLI
needs only sqrt(a d), analytic.ad_root of 2 gamma^2). The dense Hamiltonians,
propagators and matrix exponential they are checked against live in
hensim.validation.

sample_ensemble reduces those columns to means and standard errors. The
kernels write them in place into a workspace of one real and one complex
buffer (workspace) that each sampler thread allocates once per call,
min(CHUNK, n) rows by M B points, the grid padded to whole blocks, and a run
folds its chunks as they finish, so its memory (sampler_bytes) is flat in n.
The kernels also take a stack of R cases, each with its own t_max, as the rows
of one call: a record and a t_max whose fields are (R, 1) columns, as the
oracle suite in hensim.validation passes them.
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


def _sine_factors(rows: int, m: int, b: int, theta, h):
    """Contiguous factors (R, M, 2) and (R, 2, B) whose matmul is sin(theta_r t_k), t_k = k h_r, k = B m + j.

    theta and h are scalars or (R, 1) columns (a column h gives each row its
    own grid). The factors hold [sin, cos] of the coarse angles
    fl(theta_r fl(B m h_r)) and [cos; sin] of the fine ones fl(theta_r fl(j h_r)),
    M + B sin/cos pairs per row instead of M B, each time an integer times h_r
    rounded once, like np.linspace(0, t, n)[k]; the coarse cos + i sin times
    the fine one is the phase e^{i theta_r t_k}. numpy's matmul takes BLAS only
    for contiguous factors.

    Bound: every point of that sine and that phase lies within
    (4 |theta| t_k + 11) 2^-53 of np.sin(theta t_k) and np.exp(1j theta t_k) on
    a linspace grid of step h. The coarse and fine angles sum to within
    2^-52 |theta| k h of theta k h, and so does fl(theta t_k), as linspace's t_k
    lies within 2^-53 k h of k h; as |e^{ia} - e^{ib}| <= |a - b|, the angles
    give 4 |theta| t_k. In units of 2^-53, each factor and the pointwise value
    lies within 2 of its exact value (sin and cos within 1 ulp), and the
    product, complex or the matmul's, adds sqrt(5): 6 + sqrt(5) < 11.
    """
    left, right = np.empty((rows, m, 2)), np.empty((rows, 2, b))
    # each angle goes into its sine's place, which the sine then overwrites
    for sin, cos, steps in ((left[..., 0], left[..., 1], np.arange(0, m * b, b)),
                            (right[:, 1], right[:, 0], np.arange(b))):
        np.multiply(theta, steps * h, out=sin)
        np.cos(sin, out=cos)
        np.sin(sin, out=sin)
    return left, right


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
    scratch, as many rows by 32 (M + 2 B) bytes (_evolve's peak), and the sums and squared
    deviations, 48 bytes per grid point, of the 2 x threads chunks that may wait ahead of the
    fold and of the fold itself. Nothing grows with n past CHUNK."""
    threads = worker_count(-(-n // CHUNK))
    m, b = _blocks(points)
    return threads, threads * min(CHUNK, n) * (24 * m * b + 32 * (m + 2 * b)) + (2 * threads + 1) * points * 48


def _evolve(ws, shape, h, theta, chi, scale, u, v):
    """Columns scale sin^2(theta t_k), real, and e^{i chi t_k} (u cos(theta t_k) + v sin(theta t_k)),
    complex, at t_k = k h: views of ``ws`` shaped ``shape``, R rows of N points.

    h, theta, chi, scale, u and v are scalars or (R, 1) columns. With
    [sin a, cos a] and [cos f; sin f] the factors of theta's coarse and fine
    angles (_sine_factors), the real column is their matmul, squared and
    scaled, and by angle addition the complex one the matmul of e^{i chi a}
    [sin a, cos a] and e^{i chi f} [v cos f - u sin f; u cos f + v sin f], each
    phase cos + i sin of chi's factors. Each factor is freed once used, so the
    scratch peaks at 32 (M + 2 B) bytes a row (sampler_bytes).

    Bound, with S = |u| + |v| per row: every point of the complex column lies
    within S (4 (|theta| + |chi|) t_k + 35) 2^-53 of np.exp(1j chi t_k) *
    (u np.cos(theta t_k) + v np.sin(theta t_k)) on a linspace grid of step h.
    The value moves by at most S per unit of either angle, so the angles give
    4 (|theta| + |chi|) t_k as in _sine_factors. In units of S 2^-53, a fine
    entry lies within 4 of its exact value (factors 2, products 1, sum 1) and
    within 9 times its phase (2, product sqrt(5)); a coarse entry, of norm at
    most 1, within 5 (factor 2, phase 2, product 1). The matmul carries these
    as sqrt(2) 9 + sqrt(2) 5 (|sin| + |cos| <= sqrt(2), and the fine entries'
    squared norms sum to |u|^2 + |v|^2) and rounds within sqrt(2) 4; the
    pointwise value rounds within 9 (cos and sin 2, products and sum 2, exp 2,
    product sqrt(5)): sqrt(2) 18 + 9 < 35.
    """
    rows, points = math.prod(shape[:-1]), shape[-1]
    (m, b), (real, cplx) = _blocks(points), (w[:rows] for w in ws)
    left, right = _sine_factors(rows, m, b, theta, h)
    np.matmul(left, right, out=real.reshape(rows, m, b))
    np.square(real, out=real)
    real *= scale
    # [v cos f - u sin f; u cos f + v sin f] = [[v, -u], [u, v]] @ [cos f; sin f], part by part
    mix = np.stack(np.broadcast_arrays(v, -u, u, v), axis=-1).reshape(-1, 2, 2)
    fine = np.empty((rows, 2, b), dtype=complex)
    np.matmul(mix.real, right, out=fine.real)
    np.matmul(mix.imag, right, out=fine.imag)
    del right
    chi_left, chi_right = _sine_factors(rows, m, b, chi, h)
    phase = np.empty((rows, 1, b), dtype=complex)
    phase.real, phase.imag = chi_right[:, :1], chi_right[:, 1:]
    del chi_right
    fine *= phase
    del phase
    coarse = np.empty((rows, m, 2), dtype=complex)
    np.multiply(left, chi_left[..., 1:], out=coarse.real)
    np.multiply(left, chi_left[..., :1], out=coarse.imag)
    del left, chi_left
    np.matmul(coarse, fine, out=cplx.reshape(rows, m, b))
    # a tuple display: tuple() of a generator resizes a 10-slot tuple, and CPython's
    # free list keeps each such tuple once freed, 56 B a chunk up to 2,000 of them
    return real[:, :points].reshape(shape), cplx[:, :points].reshape(shape)


def evolve_single_realization(eps, t_max, points: int, s: SingleQubitScenario, ws):
    """Columns (rho_pp, rho_pm) of the working qubit at t_k = k h, real and complex.

    Initial state |->_A (x) (xb|+> + yb|->)_B. With beta = alpha (eps - omega_a) t
    and phi = (eps + omega_a) t / 2: rho_pp = c^2 |xb|^2 sin^2 beta and
    rho_pm = q e^{-i phi} sin beta, q = -i c xb yb: _evolve at theta = alpha (eps - omega_a),
    chi = -(eps + omega_a) / 2, scale = c^2 |xb|^2, u = 0 and v = q. h = t_max / (points - 1)
    is bit for bit time_grid(t_max, points)[1]. t_max and eps are scalars or (R, 1) columns
    (a column t_max holds R grids' ends, a stack of cases), and s a record of scalars or
    (R, 1) columns. The columns have the broadcast shape of eps, t_max and (points,), are
    views of the first R rows of ``ws``, a workspace(R', N) with R' >= R, and agree with the
    propagator + partial-trace route to 1e-10.
    """
    shape = np.broadcast_shapes(np.shape(eps), np.shape(t_max), (points,))
    c = coupling_c(s.alpha)
    return _evolve(ws, shape, t_max / (points - 1), s.alpha * (eps - s.omega_a),
                   -0.5 * (eps + s.omega_a), c**2 * abs(s.xb) ** 2, 0.0, -1j * c * s.xb * s.yb)


def evolve_two_realization(eps_a, eps_b, t_max, points: int, s: TwoQubitScenario, ws):
    """Columns (gamma^2, z) of the two working qubits' X state at t_k = k h, real and complex.

    With gamma = sin(alpha (omega_a - eps_a) t), the diagonal (a, b, c, d) is
    affine in gamma^2 (hensim.validation.xstate_diagonal), and
    z = (x + y)/2 e^{-i psi} (cos(alpha (omega_a - eps_a) t) - i gamma / (2 alpha)),
    psi = (omega_a + eps_a + 2 eps_b) t / 2, in the frame of the second working
    qubit's mean frequency (no record has it: hensim.scenarios): _evolve at
    theta = alpha (omega_a - eps_a), chi = -(omega_a + eps_a + 2 eps_b) / 2, scale = 1,
    u = (x + y)/2 and v = -i (x + y) / (4 alpha). h, t_max, the spacings, s and ``ws`` are
    as in evolve_single_realization. The X state agrees with the 8x8 propagator +
    partial-trace route to 1e-10.
    """
    shape = np.broadcast_shapes(np.shape(eps_a), np.shape(eps_b), np.shape(t_max), (points,))
    u = 0.5 * (s.x + s.y)
    return _evolve(ws, shape, t_max / (points - 1), s.alpha * (s.omega_a - eps_a),
                   -0.5 * (s.omega_a + eps_a + 2.0 * eps_b), 1.0, u, -1j * (u / (2.0 * s.alpha)))


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
    """Pool size for `chunks` chunks: HENSIM_WORKERS, else the number of CPUs the process may
    run on (its affinity mask where the OS has one, else the CPU count); at most `chunks`."""
    env = os.environ.get(_WORKERS_ENV)
    if env and not (env.isascii() and env.isdigit() and int(env) >= 1):
        raise ValueError(f"{_WORKERS_ENV} must be a positive integer, got {env!r}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(int(env) if env else cpus or 1, chunks)


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
    TwoQubitScenario, whose X-state diagonal is affine in gamma^2.

    Chunks of CHUNK realizations run (possibly concurrently), at most 2 per
    worker submitted ahead, and fold into running sums and squared deviations
    in chunk order as they finish, so the output is bit-identical for any
    worker count and the memory is flat in n (sampler_bytes). A chunk
    reduces its kernel's real column and its complex one read as 2N
    interleaved reals. Each worker thread allocates one workspace of
    min(CHUNK, n) rows by M B points per call (workspace) and reuses it for
    all its chunks; a short last chunk takes its first rows.
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
