import csv
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

import hensim
from hensim.analytic import ad_root, xstate_gap
from hensim.entanglement import concurrence, find_tc_batch
from hensim.scenarios import SingleQubitScenario, TwoQubitScenario
from hensim.validation import SINGLE_RANGES, TWO_RANGES, _draw, _single_scenario, _two_scenario

# every property test runs the same examples each run; each test sets only its
# own max_examples
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def single_scenario(omega_a=0.0, alpha=5.0, xb=0.8, variance=1.0):
    return SingleQubitScenario(omega_a=omega_a, alpha=alpha, xb=float(xb), var=variance)


def two_scenario(omega_a=0.0, alpha=1.0, x=0.2, var_a=0.5, var_b=0.0):
    return TwoQubitScenario(omega_a, alpha, x, var_a, var_b)


def stack(records, shape=(-1, 1)):
    """Scenario records of one type as one record of the stack of their cases: each field
    holds the records' values in order, reshaped to ``shape`` ((R, 1) columns by default)."""
    return type(records[0])(*(np.reshape([getattr(r, f.name) for r in records], shape)
                              for f in fields(records[0])))


def random_single_scenario(rng) -> SingleQubitScenario:
    """One case of SINGLE_RANGES, row 0 of _draw(rng, SINGLE_RANGES, 1), as a scalar record."""
    return _single_scenario(*_draw(rng, SINGLE_RANGES, 1)[0].tolist())


def random_two_scenario(rng) -> TwoQubitScenario:
    """One case of TWO_RANGES, row 0 of _draw(rng, TWO_RANGES, 1), as a scalar record."""
    return _two_scenario(*_draw(rng, TWO_RANGES, 1)[0].tolist())


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def bell_density():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def mc_concurrence(cols, s):
    """C_mc as cmd_concurrence forms it from sample_ensemble's columns."""
    gap = np.hypot(cols["re_z"], cols["im_z"]) - ad_root(2.0 * cols["gamma2"], s.alpha, s.x * s.y)
    return concurrence(gap)


def run_child(args, cwd=None, **env):
    """``python *args`` in a fresh interpreter that imports this hensim (its source
    directory first on PYTHONPATH), with the environment variables ``env`` set on top of
    this process's; the completed process, its output as text, without a check."""
    src = str(Path(hensim.__file__).resolve().parent.parent)
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


def thermal_population(beta_delta: float) -> float:
    """Thermal excited-state probability exp(-bd) / (1 + exp(-bd)) at bd = beta Delta >= 0."""
    if not (beta_delta >= 0.0):
        raise ValueError(f"beta_delta must be nonnegative, got {beta_delta}")
    e = math.exp(-beta_delta)
    return e / (1.0 + e)


def invert_thermal(p_plus: float, xb: float = 1.0) -> tuple[float, float]:
    """Coupling (alpha, |xb|) whose steady population (c^2/2) |xb|^2 equals ``p_plus``.

    Only alpha is tuned; at the default xb = 1 every p_plus in [0, 1/2) is reachable.
    """
    if not (0.0 <= p_plus < 0.5):
        raise ValueError(f"p_plus must lie in [0, 1/2), got {p_plus}")
    c2 = 2.0 * p_plus / abs(xb) ** 2
    if c2 >= 1.0:
        raise ValueError(
            f"p_plus={p_plus} is unreachable with xb={xb}: requires c^2={c2} >= 1"
        )
    alpha = 1.0 / (2.0 * math.sqrt(1.0 - c2))
    return alpha, float(abs(xb))


def solve_batch(scenarios):
    """find_tc_batch on a list of scenarios, one cell each, as one record per cell in order.

    A record holds the cell's status, t_c, t_max and bracket (lo, t_c), with
    None where the solver's column holds NaN (bracket None unless finite);
    lo = nextafter(t_c, 0), the float below t_c that the solver's bisection ends on.
    """
    cols = find_tc_batch(stack(scenarios, (-1,)))

    def none_if_nan(v):
        return None if math.isnan(v) else v

    return [SimpleNamespace(status=status, t_c=none_if_nan(t_c), t_max=none_if_nan(t_max),
                            bracket=None if math.isnan(t_c) else (math.nextafter(t_c, 0.0), t_c))
            for status, t_c, t_max in zip(cols["status"], cols["t_c"].tolist(),
                                          cols["t_max"].tolist())]


def find_tc(s):
    """The solver's record of one scenario (see solve_batch): a batch of one."""
    return solve_batch([s])[0]


def scenario_gap(t, s):
    """g(t) = |z(t)| - sqrt(a(t) d(t)) of a two-qubit scenario; C(t) = 2 max(0, g(t))."""
    return xstate_gap(t, s)


def read_csv(path) -> tuple[list[str], dict[str, list[float | None]]]:
    """Parse a table written by hensim.cli.write_csv; empty fields come back as None."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns: dict[str, list[float | None]] = {name: [] for name in header}
        for row in reader:
            for name, cell in zip(header, row):
                columns[name].append(None if cell == "" else float(cell))
    return header, columns
