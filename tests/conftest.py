import csv

import numpy as np
import pytest
from hypothesis import settings

from hensim.analytic import gap_args, xstate_gap
from hensim.entanglement import find_tc_batch
from hensim.scenarios import SingleQubitScenario, TwoQubitScenario

# every property test runs the same examples each run; each test sets only its
# own max_examples
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def single_scenario(omega_a=0.0, alpha=5.0, xb=0.8, variance=1.0):
    xb = float(xb)
    return SingleQubitScenario(
        omega_a=omega_a, alpha=alpha, xb=xb, yb=np.sqrt(1.0 - xb**2), var=variance
    )


def two_scenario(omega_a=0.0, omega_b=0.0, alpha=1.0, x=0.2, var_a=0.5, var_b=0.0):
    return TwoQubitScenario(omega_a, omega_b, alpha, x, var_a, var_b)


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


def solve_batch(scenarios):
    """find_tc_batch on a list of scenarios, one cell each, in order."""
    return find_tc_batch(*np.array([gap_args(s) for s in scenarios]).reshape(-1, 5).T)


def scenario_gap(t, s):
    """g(t) = |z(t)| - sqrt(a(t) d(t)) of a two-qubit scenario; C(t) = 2 max(0, g(t))."""
    return xstate_gap(t, *gap_args(s))


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
