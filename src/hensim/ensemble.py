"""Closed-form single-realization dynamics and their Monte Carlo ensemble average.

Each realization costs O(1) per time point through the closed forms below;
the dense Hamiltonians, propagators and matrix exponential they are checked
against live in hensim.validation.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from hensim.scenarios import SingleQubitScenario, TwoQubitScenario, coupling_c

# Fixed chunk size: chunk boundaries must not depend on the worker count, so
# that the index-ordered reduction is bit-identical for any parallelism.
CHUNK = 512
RNG = "splitmix64-boxmuller-v1"  # scheme id of standard_normals, in the output meta

_WORKERS_ENV = "HENSIM_WORKERS"
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64 counter increment


def evolve_single_realization(eps, t, s: SingleQubitScenario):
    """Real columns (rho_pp, re rho_pm, im rho_pm) of the working qubit at time(s) t.

    Initial state |->_A (x) (xb|+> + yb|->)_B. With beta = alpha (eps - omega_a) t
    and phi = (eps + omega_a) t / 2: rho_pp = c^2 |xb|^2 sin^2 beta and
    rho_pm = q e^{-i phi} sin beta, q = -i c xb conj(yb). Broadcasts eps against t
    and agrees with the propagator + partial-trace route to 1e-10.
    """
    # Every step writes into sin_b or w; empty() of shape () gives 0-d arrays,
    # so scalars work too. w holds (cos phi, sin phi) interleaved, so that the
    # rotation by q is one in-place multiply: a real-only rotation would need
    # two more full-size buffers.
    shape = np.broadcast_shapes(np.shape(eps), np.shape(t))
    sin_b, w = np.empty(shape), np.empty(shape, dtype=complex)
    c = coupling_c(s.alpha)
    np.sin(np.multiply(s.alpha * (eps - s.omega_a), t, out=sin_b), out=sin_b)
    np.multiply(0.5 * (eps + s.omega_a), t, out=w.real)
    np.sin(w.real, out=w.imag)
    np.cos(w.real, out=w.real)
    w *= np.conj(-1j * c * s.xb * np.conj(s.yb))
    w.real *= sin_b
    w.imag *= sin_b
    np.negative(w.imag, out=w.imag)  # q e^{-i phi} = conj(conj(q) e^{i phi})
    np.square(sin_b, out=sin_b)
    sin_b *= c**2 * abs(s.xb) ** 2
    return sin_b, w.real, w.imag


def evolve_two_realization(eps_a, eps_b, t, s: TwoQubitScenario):
    """Real columns (a, b, c, d, re z, im z) of the two working qubits' X state.

    With gamma = sin(alpha (omega_a - eps_a) t), a = x c^2 gamma^2 / 2,
    d = y c^2 gamma^2 / 2, b = (x + y)/2 - d, c = (x + y)/2 - a, and
    z = (x + y)/2 e^{-i psi} (cos(alpha (omega_a - eps_a) t) - i gamma / (2 alpha)),
    psi = (omega_a + eps_a + 2 omega_b + 2 eps_b) t / 2. Broadcasts the spacings
    against t and agrees with the 8x8 propagator + partial-trace route to 1e-10.
    """
    c2 = coupling_c(s.alpha) ** 2
    h = 0.5 * (s.x + s.y)
    shape = np.broadcast_shapes(np.shape(eps_a), np.shape(eps_b), np.shape(t))
    cos_g, g, re_z, sin_p, a, im_z = (np.empty(shape) for _ in range(6))
    np.multiply(s.alpha * (s.omega_a - eps_a), t, out=cos_g)
    np.sin(cos_g, out=g)
    np.cos(cos_g, out=cos_g)
    np.square(g, out=a)
    g /= 2.0 * s.alpha
    # z = h e^{-i psi} (cos_g - i g), with re_z holding h cos psi and sin_p -h sin psi
    np.multiply(0.5 * (s.omega_a + eps_a + 2.0 * s.omega_b + 2.0 * eps_b), t, out=re_z)
    np.sin(re_z, out=sin_p)
    np.cos(re_z, out=re_z)
    re_z *= h
    sin_p *= -h
    np.multiply(re_z, g, out=im_z)
    re_z *= cos_g
    re_z += np.multiply(sin_p, g, out=g)
    np.subtract(np.multiply(sin_p, cos_g, out=sin_p), im_z, out=im_z)
    d = np.multiply(a, 0.5 * s.y * c2, out=g)
    a *= 0.5 * s.x * c2
    b = np.subtract(h, d, out=cos_g)
    c_el = np.subtract(h, a, out=sin_p)
    return a, b, c_el, d, re_z, im_z


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


# scenario type: (name of its kernel in this module, variance fields of the
# spacings drawn per realization in this order, names of the real columns that
# the kernel returns). The kernel is looked up when the sampler runs, so that a
# wrapper installed over it (a tracer, say) sees its calls.
_OBSERVABLES = {
    SingleQubitScenario: ("evolve_single_realization", ("var",),
                          ("rho_pp", "re_rho_pm", "im_rho_pm")),
    TwoQubitScenario: ("evolve_two_realization", ("var_a", "var_b"),
                       ("a", "b", "c", "d", "re_z", "im_z")),
}


def sample_ensemble(s, n: int, master_seed: int, grid) -> dict[str, np.ndarray]:
    """Named columns of the mean over n realizations, with standard errors in ``<name>_se``.

    The observable follows from the scenario type: the working qubit's
    elements for a SingleQubitScenario, the X state for a TwoQubitScenario.
    Chunks of CHUNK realizations run (possibly concurrently) and are combined
    in chunk order, so the output is bit-identical for any worker count.
    The master seed must lie in [0, 2^64), the key space of standard_normals.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {master_seed}")
    grid = np.asarray(grid, dtype=float)
    kernel, fields, names = _OBSERVABLES[type(s)]
    evolve = globals()[kernel]
    sigmas = [math.sqrt(getattr(s, f)) for f in fields]
    bounds = [(i, min(i + CHUNK, n)) for i in range(0, n, CHUNK)]

    def run(chunk):
        # rows are realizations start..stop-1, one spacing per variance each
        start, stop = chunk
        z = standard_normals(master_seed, start, stop, len(sigmas))
        vals = evolve(*(sigma * zk[:, None] for sigma, zk in zip(sigmas, z)), grid, s)
        count = stop - start
        sums = [v.sum(axis=0) for v in vals]
        # squared deviations about the chunk mean, in place (no sum(x^2) - n mean^2 cancellation)
        for v, total in zip(vals, sums):
            v -= total / count
            np.square(v, out=v)
        return count, sums, [v.sum(axis=0) for v in vals]

    nworkers = worker_count(len(bounds))
    if nworkers > 1:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            partials = list(pool.map(run, bounds))
    else:
        partials = [run(chunk) for chunk in bounds]

    # Fixed chunk order: the mean from the chunk sums, the squared deviations
    # as within-chunk plus between-chunk parts about that mean.
    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(names):
        mean = sum(sums[j] for _, sums, _ in partials) / n
        m2 = sum(m2s[j] + count * (sums[j] / count - mean) ** 2 for count, sums, m2s in partials)
        columns[name] = mean
        columns[name + "_se"] = np.sqrt(m2 / (n - 1) / n) if n > 1 else np.zeros_like(grid)
    return columns
