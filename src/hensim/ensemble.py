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

sample_ensemble reduces those columns to the means and standard errors that
its caller names. A kernel builds theta's factors into a workspace
(workspace) that each sampler thread allocates once per call, min(CHUNK, n)
rows by M B points, the grid padded to whole blocks, and yields its three
real columns (the real one, then the real and imaginary parts of the complex
one) one at a time, each filled into the workspace's one column buffer, so no
complex column is ever held. The complex column's factors are built by the
next() that yields its real part, so a chunk that reads only the real column
never builds them. A run folds its chunks as they finish, so its memory
(sampler_bytes) is flat in n. The kernels also take a stack of R cases, each
with its own t_max, as the rows of one call: a record and a t_max whose
fields are (R, 1) columns, as the oracle suite in hensim.validation passes
them, and hensim.validation.assemble turns their columns into the (real,
complex) pair it compares.
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


def _sine_factors(theta, h, left, right):
    """Fill factors ``left`` (R, M, 2) and ``right`` (R, 2, B), whose matmul is sin(theta_r t_k),
    t_k = k h_r, k = B m + j, and return them.

    theta and h are scalars or (R, 1) columns (a column h gives each row its
    own grid). The factors hold [sin, cos] of the coarse angles
    fl(theta_r fl(B m h_r)) and [cos; sin] of the fine ones fl(theta_r fl(j h_r)),
    M + B sin/cos pairs per row instead of M B, each time an integer times h_r
    rounded once, like np.linspace(0, t, n)[k]; the coarse cos + i sin times
    the fine one is the phase e^{i theta_r t_k}. They may be views into larger
    buffers; numpy's matmul takes BLAS only for contiguous factors.

    Bound: every point of that sine and that phase lies within
    (4 |theta| t_k + 11) 2^-53 of np.sin(theta t_k) and np.exp(1j theta t_k) on
    a linspace grid of step h. The coarse and fine angles sum to within
    2^-52 |theta| k h of theta k h, and so does fl(theta t_k), as linspace's t_k
    lies within 2^-53 k h of k h; as |e^{ia} - e^{ib}| <= |a - b|, the angles
    give 4 |theta| t_k. In units of 2^-53, each factor and the pointwise value
    lies within 2 of its exact value (sin and cos within 1 ulp), and the
    product, complex or the matmul's, adds sqrt(5): 6 + sqrt(5) < 11.
    """
    m, b = left.shape[-2], right.shape[-1]
    # each angle goes into its sine's place, which the sine then overwrites
    for sin, cos, steps in ((left[..., 0], left[..., 1], np.arange(0, m * b, b)),
                            (right[:, 1], right[:, 0], np.arange(b))):
        np.multiply(theta, steps * h, out=sin)
        np.cos(sin, out=cos)
        np.sin(sin, out=sin)
    return left, right


def _buffers(rows: int, points: int) -> tuple[tuple[int, ...], ...]:
    """Shapes of a workspace for up to ``rows`` realizations on a ``points``-point grid padded to
    M B points (_blocks): the one (rows, M B) column, then theta's factors (rows, M, 2) and
    (rows, 2, B), the coarse factor (rows, M, 4) and the two fine ones (rows, 4, B)."""
    m, b = _blocks(points)
    return (rows, m * b), (rows, m, 2), (rows, 2, b), (rows, m, 4), (rows, 4, b), (rows, 4, b)


def workspace(rows: int, points: int) -> tuple[np.ndarray, ...]:
    """The buffers of either kernel, of the shapes _buffers(rows, points). A kernel's columns are
    views of the column buffer, and each holds only until the kernel yields the next column or
    the next kernel call on the same workspace."""
    return tuple(map(np.empty, _buffers(rows, points)))


def sampler_bytes(n: int, points: int) -> tuple[int, int]:
    """(threads, bytes) of sample_ensemble's n-realization run on a ``points``-point grid:
    each thread's workspace of min(CHUNK, n) rows (_buffers), and the sums and squared
    deviations, 48 bytes per grid point, of the 2 x threads chunks that may wait ahead of the
    fold and of the fold itself. Nothing grows with n past CHUNK."""
    threads = worker_count(-(-n // CHUNK))
    per_thread = 8 * sum(map(math.prod, _buffers(min(CHUNK, n), points)))
    return threads, threads * per_thread + (2 * threads + 1) * points * 48


def _evolve(ws, shape, h, theta, chi, scale, u, v):
    """An iterator that yields three real columns at t_k = k h one at a time, each a view of
    ``ws``'s column buffer shaped ``shape``, R rows of N points: scale sin^2(theta t_k) and the
    real and imaginary parts of z = e^{i chi t_k} (u cos(theta t_k) + v sin(theta t_k)).

    h, theta, chi, scale, u and v are scalars or (R, 1) columns. theta's
    factors are built into ``ws`` when _evolve is called, and the first next()
    runs their matmul into the column buffer. The second builds chi's
    factors, the coarse and fine products and the mix into ``ws`` before its
    matmul, so a caller that stops after the real column never builds them.
    Each next() overwrites the column before it. With
    [sin a, cos a] and [cos f; sin f] the factors of theta's coarse and fine
    angles (_sine_factors), the real column is their matmul, squared and
    scaled. By angle addition z is the matmul of the coarse
    c = e^{i chi a} [sin a, cos a] and the fine f = [[v, -u], [u, v]] p,
    p = e^{i chi f} [cos f; sin f], each phase cos + i sin of chi's factors;
    in reals Re z = [Re c, Im c] @ [Re f; -Im f] and
    Im z = [Re c, Im c] @ [Im f; Re f], inner size 4, and [Im f; Re f] is one
    real matmul of [[Im, Re], [Re, -Im]] of the mix with [Re p; Im p].

    Bound, with S = |u| + |v| per row: every point of z lies within
    S (4 (|theta| + |chi|) t_k + 35) 2^-53 of np.exp(1j chi t_k) *
    (u np.cos(theta t_k) + v np.sin(theta t_k)) on a linspace grid of step h.
    The value moves by at most S per unit of either angle, so the angles give
    4 (|theta| + |chi|) t_k as in _sine_factors. In units of 2^-53, with
    N = sqrt(|u|^2 + |v|^2) <= S: a coarse entry lies within 5 of its exact
    value (factor 2, phase 2, product 1), and the coarse row has unit norm.
    The fine column f, of norm N, lies within 2 N (the phase, a common factor),
    2 sqrt(2) S (the factors [cos; sin], through the mix of norm at most S),
    S (the products of p, each within 1 relative) and 4 sqrt(2) S (the
    4-term sums, each within 4 times the sum of its terms' moduli, which the
    mix bounds by S) of its exact value: (3 + 6 sqrt(2)) S. The matmul
    carries the fine error times the coarse row's unit norm, the coarse
    error as 5 sqrt(2) N, and rounds within 4 sqrt(2) N (its 4-term sums, as
    the fine ones); the pointwise value rounds within 9 (cos and sin 2,
    products and sum 2, exp 2, product sqrt(5)): 12 + 15 sqrt(2) < 35.
    """
    rows, points = math.prod(shape[:-1]), shape[-1]
    (m, b), (col, left, right, coarse, fine_re, fine_im) = _blocks(points), (w[:rows] for w in ws)
    _sine_factors(theta, h, left, right)
    blocks, view = col.reshape(rows, m, b), col[:, :points].reshape(shape)

    def columns():
        np.matmul(left, right, out=blocks)
        np.square(col, out=col)
        np.multiply(col, scale, out=col)
        yield view
        # chi's factors wait in the places that their products with theta's overwrite
        _sine_factors(chi, h, coarse[..., 2:], fine_im[:, :2])
        # [Re c, Im c] = [sin a, cos a] cos(chi a), then times sin(chi a)
        np.multiply(left, coarse[..., 3:], out=coarse[..., :2])
        np.multiply(left[..., 1], coarse[..., 2], out=coarse[..., 3])
        coarse[..., 2] *= left[..., 0]
        # [Re p; Im p] = [cos f; sin f] cos(chi f), then times sin(chi f)
        np.multiply(right, fine_im[:, :1], out=fine_re[:, :2])
        np.multiply(right, fine_im[:, 1:2], out=fine_re[:, 2:])
        mix = np.stack(np.broadcast_arrays(v, -u, u, v), axis=-1).reshape(-1, 2, 2)
        np.matmul(np.block([[mix.imag, mix.real], [mix.real, -mix.imag]]), fine_re, out=fine_im)
        fine_re[:, :2] = fine_im[:, 2:]
        np.negative(fine_im[:, :2], out=fine_re[:, 2:])
        for fine in (fine_re, fine_im):
            np.matmul(coarse, fine, out=blocks)
            yield view

    return columns()


def evolve_single_realization(eps, t_max, points: int, s: SingleQubitScenario, ws):
    """Yields the columns rho_pp, Re rho_pm and Im rho_pm of the working qubit at t_k = k h,
    one at a time.

    Initial state |->_A (x) (xb|+> + yb|->)_B. With beta = alpha (eps - omega_a) t
    and phi = (eps + omega_a) t / 2: rho_pp = c^2 |xb|^2 sin^2 beta and
    rho_pm = q e^{-i phi} sin beta, q = -i c xb yb: _evolve at theta = alpha (eps - omega_a),
    chi = -(eps + omega_a) / 2, scale = c^2 |xb|^2, u = 0 and v = q. h = t_max / (points - 1)
    is bit for bit time_grid(t_max, points)[1]. t_max and eps are scalars or (R, 1) columns
    (a column t_max holds R grids' ends, a stack of cases), and s a record of scalars or
    (R, 1) columns. The columns have the broadcast shape of eps, t_max and (points,), are
    views of ``ws``'s column buffer, ws a workspace(R', N) with R' >= R, and agree with the
    propagator + partial-trace route to 1e-10. The call builds the factors of beta only; the
    next() that yields Re rho_pm builds those of rho_pm (_evolve), so a caller that reads
    rho_pp alone never builds them.
    """
    shape = np.broadcast_shapes(np.shape(eps), np.shape(t_max), (points,))
    c = coupling_c(s.alpha)
    return _evolve(ws, shape, t_max / (points - 1), s.alpha * (eps - s.omega_a),
                   -0.5 * (eps + s.omega_a), c**2 * abs(s.xb) ** 2, 0.0, -1j * c * s.xb * s.yb)


def evolve_two_realization(eps_a, eps_b, t_max, points: int, s: TwoQubitScenario, ws):
    """Yields the columns gamma^2, Re z and Im z of the two working qubits' X state at t_k = k h,
    one at a time.

    With gamma = sin(alpha (omega_a - eps_a) t), the diagonal (a, b, c, d) is
    affine in gamma^2 (hensim.validation.xstate_diagonal), and
    z = (x + y)/2 e^{-i psi} (cos(alpha (omega_a - eps_a) t) - i gamma / (2 alpha)),
    psi = (omega_a + eps_a + 2 eps_b) t / 2, in the frame of the second working
    qubit's mean frequency (no record has it: hensim.scenarios): _evolve at
    theta = alpha (omega_a - eps_a), chi = -(omega_a + eps_a + 2 eps_b) / 2, scale = 1,
    u = (x + y)/2 and v = -i (x + y) / (4 alpha). h, t_max, the spacings, s and ``ws`` are
    as in evolve_single_realization. The X state agrees with the 8x8 propagator +
    partial-trace route to 1e-10. The call builds the factors of gamma only; the next() that
    yields Re z builds those of z (_evolve).
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
# spacings drawn per realization in this order, names of its kernel's three
# columns). The kernel is looked up when the sampler runs, so that a wrapper
# installed over it (a tracer, say) sees its calls.
_OBSERVABLES = {
    SingleQubitScenario: ("evolve_single_realization", ("var",), ("rho_pp", "re_rho_pm", "im_rho_pm")),
    TwoQubitScenario: ("evolve_two_realization", ("var_a", "var_b"), ("gamma2", "re_z", "im_z")),
}


def sample_ensemble(s, n: int, master_seed: int, t_max: float, points: int,
                    names=None) -> dict[str, np.ndarray]:
    """Named columns of the mean over n realizations on time_grid(t_max, points), with
    standard errors in ``<name>_se``: the keys ``names``, by default all six.

    The columns are the scenario type's kernel's: its real column and the
    real and imaginary parts of its complex one, rho_pp, re_rho_pm and
    im_rho_pm for a SingleQubitScenario, gamma2, re_z and im_z for a
    TwoQubitScenario, whose X-state diagonal is affine in gamma^2. A chunk
    takes from its kernel only the columns up to the last one that a named
    key needs, and sums each; it forms a column's squared deviations only
    when its ``<name>_se`` is named. Each returned value has the bits of the
    default call's. An empty ``names``, or one with a key outside the six,
    raises ValueError.

    Chunks of CHUNK realizations run (possibly concurrently), at most 2 per
    worker submitted ahead, and fold into running sums and squared deviations
    in chunk order as they finish, so the output is bit-identical for any
    worker count and the memory is flat in n (sampler_bytes). A chunk calls
    its kernel once and reduces each column it takes into one row of the
    chunk's sums and squared deviations, which fold as one stack. Each
    worker thread allocates one workspace of min(CHUNK, n) rows by M B points
    per call (workspace) and reuses it, factors and all, for all its chunks; a
    short last chunk takes its first rows. The master seed must lie in
    [0, 2^64), the key space of standard_normals.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {master_seed}")
    time_grid(t_max, points)  # its refusal of a bad t_max or point count
    kernel, fields, columns = _OBSERVABLES[type(s)]
    keys = [key for name in columns for key in (name, f"{name}_se")]
    wanted = set(keys if names is None else names)
    if not wanted or not wanted <= set(keys):
        raise ValueError(f"names must be a nonempty subset of {', '.join(keys)}; got {names!r}")
    # the kernel's columns up to the last one that a named key needs, and the
    # indices of those whose squared deviations a named key needs
    needed = [i for i, name in enumerate(columns) if {name, f"{name}_se"} & wanted]
    read = columns[:needed[-1] + 1]
    spread = [i for i, name in enumerate(read) if f"{name}_se" in wanted]
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
        count = stop - start
        sums, m2s = np.empty((len(read), points)), np.empty((len(spread), points))
        m2_rows = dict(zip(spread, m2s))
        # sums first: zip stops before it takes a column past the last one read
        for i, (total, v) in enumerate(zip(sums, evolve(*eps, t_max, points, s, local.ws))):
            v.sum(axis=0, out=total)
            if i in m2_rows:
                # squared deviations about the chunk mean (no sum(x^2) - n mean^2 cancellation)
                v -= total / count
                np.einsum("ij,ij->j", v, v, out=m2_rows[i])
        return count, sums, m2s

    # Each chunk folds into a running count, sums and squared deviations in
    # chunk order, with the pairwise update of Chan, Golub & LeVeque:
    # M2 = M2_A + M2_B + delta^2 n_A n_B / (n_A + n_B), delta the difference
    # of the two means, for all columns at once. The sums add in chunk order
    # from 0, as sum() adds them.
    seen, sums, m2s = 0, 0, 0
    # chunk starts come from a range, so nothing is listed per chunk
    workers = worker_count(-(-n // CHUNK))
    # imported here so that the analytic commands do not load concurrent.futures
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for count, chunk_sums, chunk_m2s in _in_order(pool, run, range(0, n, CHUNK), 2 * workers):
            if seen:
                delta = chunk_sums[spread] / count - sums[spread] / seen
                chunk_m2s += m2s + delta**2 * (seen * count / (seen + count))
            sums, m2s, seen = sums + chunk_sums, chunk_m2s, seen + count

    out = {name: total / n for name, total in zip(read, sums)}
    for i, m2 in zip(spread, m2s):
        out[f"{read[i]}_se"] = np.sqrt(m2 / (n - 1) / n) if n > 1 else np.zeros(points)
    return {key: out[key] for key in keys if key in wanted}
