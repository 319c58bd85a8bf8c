"""Closed-form single-realization dynamics and their Monte Carlo ensemble average.

Each realization costs O(1) per time point through the closed forms below;
the dense Hamiltonians, propagators and matrix exponential they are checked
against live in hensim.validation.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from hensim.scenarios import SingleQubitScenario, Trajectory, TwoQubitScenario, XState

# Fixed chunk size: chunk boundaries must not depend on the worker count, so
# that the index-ordered reduction is bit-identical for any parallelism.
_CHUNK = 512

_WORKERS_ENV = "HENSIM_WORKERS"


def evolve_single_realization(eps: float, t, s: SingleQubitScenario):
    """Matrix elements (rho_pp, rho_pm) of the working qubit at time(s) t.

    Initial state |->_A (x) (xb|+> + yb|->)_B. Vectorized over t; the results
    agree with the propagator + partial-trace route to 1e-10.
    """
    t = np.asarray(t, dtype=float)
    c = s.coupling.c
    alpha = s.coupling.alpha
    det = eps - s.omega_a
    rho_pp = 0.5 * c**2 * abs(s.xb) ** 2 * (1.0 - np.cos(2.0 * alpha * det * t))
    rho_pm = (
        -1j
        * c
        * s.xb
        * np.conj(s.yb)
        * np.exp(-0.5j * (eps + s.omega_a) * t)
        * np.sin(alpha * det * t)
    )
    return rho_pp, rho_pm


def evolve_two_realization(eps_a: float, eps_b: float, t, s: TwoQubitScenario) -> XState:
    """X-state elements of the two working qubits for one realization.

    Closed form with gamma(t) = sin(alpha (omega_a - eps_a) t) and
    zeta(t) = exp(-i (omega_a + eps_a + 2 omega_b + 2 eps_b) t / 2); the
    coherence bracket is cos(alpha (omega_a - eps_a) t) - i gamma / (2 alpha).
    Agrees with the 8x8 propagator + partial-trace route to 1e-10.
    """
    t = np.asarray(t, dtype=float)
    alpha = s.coupling.alpha
    c2 = s.coupling.c ** 2
    arg = alpha * (s.omega_a - eps_a) * t
    gamma = np.sin(arg)
    g2 = gamma**2
    zeta = np.exp(-0.5j * (s.omega_a + eps_a + 2.0 * s.omega_b + 2.0 * eps_b) * t)
    a = 0.5 * s.x * c2 * g2
    d = 0.5 * s.y * c2 * g2
    b = 0.5 * s.x + 0.5 * s.y * (1.0 - c2 * g2)
    c_el = 0.5 * s.y + 0.5 * s.x * (1.0 - c2 * g2)
    z = 0.5 * (s.x + s.y) * zeta * (np.cos(arg) - 1j * gamma / (2.0 * alpha))
    return XState(a=a, b=b, c=c_el, d=d, z=z)


def seed_stream(master_seed: int, realization_index: int) -> np.random.Generator:
    """Independent, reproducible per-realization stream.

    Counter-based splitting of (master_seed, index) through Philox: distinct
    indices never share a stream, and the same pair always reproduces the same
    draws.
    """
    if realization_index < 0:
        raise ValueError("realization_index must be nonnegative")
    seq = np.random.SeedSequence(entropy=int(master_seed) & (2**64 - 1),
                                 spawn_key=(int(realization_index),))
    return np.random.Generator(np.random.Philox(seq))


def worker_count() -> int:
    """Parallelism for chunk evaluation; HENSIM_WORKERS overrides the default."""
    env = os.environ.get(_WORKERS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


# observable: (scenario type, noise specs drawn per realization in this order,
# names of the real columns that _chunk returns)
_OBSERVABLES = {
    "single": (SingleQubitScenario, ("noise",), ("rho_pp", "re_rho_pm", "im_rho_pm")),
    "two": (TwoQubitScenario, ("noise_a", "noise_b"), ("a", "b", "c", "d", "re_z", "im_z")),
}


def _chunk(s, specs, start, stop, master_seed, grid):
    """Real columns of realizations start..stop-1 (rows) on the grid, in _OBSERVABLES order.

    Realization i draws its spacings, one per spec, from seed_stream(master_seed, i).
    """
    eps = np.empty((len(specs), stop - start))
    for i in range(start, stop):
        rng = seed_stream(master_seed, i)
        for k, spec in enumerate(specs):
            eps[k, i - start] = rng.normal(spec.mean, np.sqrt(spec.variance))
    if isinstance(s, SingleQubitScenario):
        rho_pp, rho_pm = evolve_single_realization(*eps[:, :, None], grid, s)
        return rho_pp, rho_pm.real, rho_pm.imag
    xs = evolve_two_realization(*eps[:, :, None], grid, s)
    return xs.a, xs.b, xs.c, xs.d, xs.z.real, xs.z.imag


def sample_ensemble(
    s,
    n: int,
    master_seed: int,
    grid,
    observable: str | None = None,
) -> Trajectory:
    """Arithmetic mean over n realizations of the per-realization elements.

    Chunks of fixed size are evaluated (possibly concurrently) and their partial
    sums are combined in chunk order, so the output is bit-identical for a
    fixed (master_seed, n, grid) regardless of worker count.
    Per-column standard errors are reported in ``<name>_se`` columns.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    grid = np.asarray(grid, dtype=float)
    if observable is None:
        observable = "single" if isinstance(s, SingleQubitScenario) else "two"
    if observable not in _OBSERVABLES:
        raise ValueError(f"unknown observable {observable!r}")
    kind, fields, names = _OBSERVABLES[observable]
    if not isinstance(s, kind):
        raise ValueError(f"{observable!r} observable needs a {kind.__name__}")
    specs = [getattr(s, f) for f in fields]

    bounds = [(i, min(i + _CHUNK, n)) for i in range(0, n, _CHUNK)]

    def run(chunk):
        start, stop = chunk
        vals = _chunk(s, specs, start, stop, master_seed, grid)
        count = stop - start
        sums = [v.sum(axis=0) for v in vals]
        # Squared deviations about the chunk mean: unlike sum(x^2) - n mean^2,
        # this does not cancel catastrophically for near-degenerate samples.
        m2 = [((v - total / count) ** 2).sum(axis=0) for v, total in zip(vals, sums)]
        return count, sums, m2

    nworkers = worker_count()
    if nworkers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            partials = list(pool.map(run, bounds))
    else:
        partials = [run(chunk) for chunk in bounds]

    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(names):
        total = np.zeros_like(grid)
        m2 = np.zeros_like(grid)
        running_mean = np.zeros_like(grid)
        running_count = 0
        for count, sums, m2s in partials:
            total = total + sums[j]
            # standard pairwise variance combination, in fixed chunk order
            chunk_mean = sums[j] / count
            new_count = running_count + count
            delta = chunk_mean - running_mean
            m2 = m2 + m2s[j] + delta**2 * (running_count * count / new_count)
            running_mean = running_mean + delta * (count / new_count)
            running_count = new_count
        mean = total / n
        if n > 1:
            se = np.sqrt(m2 / (n - 1) / n)
        else:
            se = np.zeros_like(mean)
        columns[name] = mean
        columns[name + "_se"] = se

    meta = {
        "source": "monte-carlo",
        "n": int(n),
        "seed": int(master_seed),
        "observable": observable,
    }
    return Trajectory(times=grid, columns=columns, meta=meta)
