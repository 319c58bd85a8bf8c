"""The dense oracle and the closed forms on stacks: one call on a stack equals
a loop of single-case calls, each per-case check makes one call per side, a
stacked error names the first bad matrix, and the averaged X state is a
density matrix over the scenario field space."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hensim.validation as validation
from conftest import random_hermitian, random_single_scenario, random_two_scenario, stack
from hensim.analytic import avg_coherence_single, avg_population_single
from hensim.entanglement import concurrence_x
from hensim.scenarios import TwoQubitScenario
from hensim.validation import (
    BELL,
    DensityMatrixError,
    XState,
    avg_xstate_two,
    build_h_single,
    build_h_two,
    concurrence_general,
    matrix_exponential,
    partial_trace,
    propagator_single_closed,
    single_oracle_elements,
    two_oracle_xstate,
    validate_density,
    xstate_diagonal,
    xstate_matrix,
)

K = 5


def random_density(rng, dim):
    h = random_hermitian(rng, dim)
    rho = h @ h.conj().T
    return rho / np.trace(rho)


def two_qubit_densities(rng):
    """Five mixed cases: a Bell state, the maximally mixed state, two averaged X states, a full-rank state."""
    xs = [xstate_matrix(avg_xstate_two(rng.uniform(0, 6), random_two_scenario(rng))) for _ in range(2)]
    return np.array([np.outer(BELL, BELL.conj()), np.eye(4) / 4, *xs, random_density(rng, 4)])


def assert_stack_equals_loop(stacked, singles):
    singles = np.array(singles)
    assert stacked.shape == singles.shape
    assert np.abs(stacked - singles).max() <= 1e-15


class TestStackEqualsLoop:
    def test_matrix_exponential(self, rng):
        hs = np.array([random_hermitian(rng, 4) for _ in range(K)])
        ts = rng.uniform(-10, 10, K)
        assert_stack_equals_loop(matrix_exponential(hs, ts), [matrix_exponential(h, t) for h, t in zip(hs, ts)])
        # one t for every matrix, and a stack with two stack axes
        assert_stack_equals_loop(matrix_exponential(hs, 0.7), [matrix_exponential(h, 0.7) for h in hs])
        grid = hs[:4].reshape(2, 2, 4, 4)
        assert_stack_equals_loop(matrix_exponential(grid, ts[:4].reshape(2, 2)),
                                 [[matrix_exponential(grid[i, j], ts[2 * i + j]) for j in range(2)]
                                  for i in range(2)])

    @pytest.mark.parametrize("keep", [{0}, {1, 2}, {0, 2}, {2}])
    def test_partial_trace(self, rng, keep):
        rhos = np.array([random_density(rng, 8) for _ in range(K)])
        assert_stack_equals_loop(partial_trace(rhos, [2, 2, 2], keep),
                                 [partial_trace(rho, [2, 2, 2], keep) for rho in rhos])

    def test_validate_density(self, rng):
        rhos = two_qubit_densities(rng)
        assert_stack_equals_loop(validate_density(rhos), [validate_density(rho) for rho in rhos])

    def test_concurrence_general(self, rng):
        rhos = two_qubit_densities(rng)
        stacked = concurrence_general(rhos)
        assert_stack_equals_loop(stacked, [concurrence_general(rho) for rho in rhos])
        assert stacked[0] == pytest.approx(1.0, abs=1e-12) and stacked[1] == 0.0

    def test_xstate_matrix(self, rng):
        per_case = [avg_xstate_two(rng.uniform(0, 6), random_two_scenario(rng)) for _ in range(K)]
        stacked = XState(*(np.array([getattr(x, name) for x in per_case]) for name in "abcdz"))
        assert_stack_equals_loop(xstate_matrix(stacked), [xstate_matrix(x) for x in per_case])

    def test_build_h_single_and_its_oracle(self, rng):
        records = [random_single_scenario(rng) for _ in range(K)]
        eps, ts = rng.uniform(-5, 5, K), rng.uniform(0, 10, K)
        s = stack(records, (-1,))
        assert_stack_equals_loop(build_h_single(eps, s), [build_h_single(e, r) for e, r in zip(eps, records)])
        opp, opm = single_oracle_elements(eps, ts, s)
        loop = [single_oracle_elements(*case) for case in zip(eps, ts, records)]
        assert_stack_equals_loop(opp, [pp for pp, _ in loop])
        assert_stack_equals_loop(opm, [pm for _, pm in loop])

    def test_build_h_two_and_its_oracle(self, rng):
        records = [random_two_scenario(rng) for _ in range(K)]
        eps_a, eps_b, ts = rng.uniform(-5, 5, (2, K)).tolist() + [rng.uniform(0, 10, K)]
        s = stack(records, (-1,))
        assert_stack_equals_loop(build_h_two(eps_a, eps_b, s),
                                 [build_h_two(*case) for case in zip(eps_a, eps_b, records)])
        assert_stack_equals_loop(two_oracle_xstate(eps_a, eps_b, ts, s),
                                 [two_oracle_xstate(*case) for case in zip(eps_a, eps_b, ts, records)])

    def test_propagator_single_closed(self, rng):
        records = [random_single_scenario(rng) for _ in range(K)]
        eps, ts = rng.uniform(-5, 5, K), rng.uniform(0, 10, K)
        assert_stack_equals_loop(propagator_single_closed(eps, ts, stack(records, (-1,))),
                                 [propagator_single_closed(*case) for case in zip(eps, ts, records)])

    @pytest.mark.parametrize("closed_form", [avg_population_single, avg_coherence_single])
    def test_single_qubit_averages(self, rng, closed_form):
        # one time per case against (R,) fields, and a grid against (R, 1) columns
        records = [random_single_scenario(rng) for _ in range(K)]
        ts, grid = rng.uniform(0, 8, K), np.linspace(0.0, 10.0, 64)
        assert_stack_equals_loop(closed_form(ts, stack(records, (-1,))),
                                 [closed_form(t, r) for t, r in zip(ts, records)])
        assert_stack_equals_loop(closed_form(grid, stack(records)), [closed_form(grid, r) for r in records])

    def test_avg_xstate_two(self, rng):
        # one time per case against (R,) fields, and a grid against (R, 1) columns
        records = [random_two_scenario(rng) for _ in range(K)]
        ts, grid = rng.uniform(0, 8, K), np.linspace(0.0, 10.0, 64)
        per_case, on_grid = avg_xstate_two(ts, stack(records, (-1,))), avg_xstate_two(grid, stack(records))
        for name in "abcdz":
            assert_stack_equals_loop(getattr(per_case, name),
                                     [getattr(avg_xstate_two(t, r), name) for t, r in zip(ts, records)])
            assert_stack_equals_loop(getattr(on_grid, name),
                                     [getattr(avg_xstate_two(grid, r), name) for r in records])

    def test_xstate_diagonal(self, rng):
        # (R, 1) columns meet a gamma^2 table of shape (R, N)
        records = [random_two_scenario(rng) for _ in range(K)]
        gamma2 = rng.uniform(0.0, 1.0, (K, 64))
        stacked = xstate_diagonal(gamma2, stack(records))
        loop = [xstate_diagonal(g, r) for g, r in zip(gamma2, records)]
        for i in range(4):
            assert_stack_equals_loop(stacked[i], [case[i] for case in loop])

    def test_two_qubit_stack_carries_y(self, rng):
        # y = 1 - x is a property, so a stacked record has each case's y
        records = [random_two_scenario(rng) for _ in range(K)]
        s = stack(records)
        assert s.y.shape == (K, 1) and s.y.ravel().tolist() == [r.y for r in records]

    def test_one_matrix_comes_back_two_dimensional(self, rng):
        rho = two_qubit_densities(rng)[2]
        r1, r2 = random_single_scenario(rng), random_two_scenario(rng)
        assert matrix_exponential(random_hermitian(rng, 4), 1.3).shape == (4, 4)
        assert partial_trace(random_density(rng, 8), [2, 2, 2], {1, 2}).shape == (4, 4)
        assert validate_density(rho).shape == (4, 4)
        assert isinstance(concurrence_general(rho), float)
        assert xstate_matrix(avg_xstate_two(1.0, r2)).shape == (4, 4)
        assert build_h_single(0.3, r1).shape == (4, 4)
        assert build_h_two(0.3, -0.2, r2).shape == (8, 8)


# each per-case check against the closed form and the oracle it compares:
# one call each, whatever the number of cases
ONE_CALL_PER_SIDE = [
    ("check_propagator_oracle", ("propagator_single_closed", "matrix_exponential")),
    ("check_single_elements_oracle", ("evolve_single_realization", "single_oracle_elements")),
    ("check_two_qubit_oracle", ("evolve_two_realization", "two_oracle_xstate")),
    ("check_concurrence_dual_path", ("avg_xstate_two", "xstate_gap", "concurrence_general")),
    ("check_gap_closed_form", ("xstate_gap", "avg_xstate_two")),
    ("check_specializations", ("evolve_two_realization", "avg_xstate_two")),
    ("check_tc_bracket", ("find_tc_batch",)),
]


@pytest.mark.parametrize("n_cases", [3, 40])
@pytest.mark.parametrize("check, sides", ONE_CALL_PER_SIDE, ids=[c for c, _ in ONE_CALL_PER_SIDE])
def test_each_check_makes_one_call_per_side(monkeypatch, rng, check, sides, n_cases):
    calls = dict.fromkeys(sides, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in sides:
        monkeypatch.setattr(validation, name, counted(name, getattr(validation, name)))
    getattr(validation, check)(n_cases, rng)
    assert calls == dict.fromkeys(sides, 1)


def trace_stack():
    rhos = np.array([np.eye(4) / 4] * 5)
    rhos[3] *= 1.1
    return rhos


class TestStackedErrors:
    def test_trace_names_matrix_and_size(self):
        message = "matrix 3 of the stack: trace is not 1: |Tr rho - 1| = 1.000e-01"
        with pytest.raises(DensityMatrixError, match=re.escape(message)):
            validate_density(trace_stack())

    def test_first_bad_matrix_is_named(self):
        rhos = trace_stack()
        rhos[1] *= 1.2
        with pytest.raises(DensityMatrixError, match=re.escape("matrix 1 of the stack: trace is not 1: "
                                                               "|Tr rho - 1| = 2.000e-01")):
            validate_density(rhos)

    def test_hermiticity_and_positivity(self):
        rhos = np.array([np.eye(2) / 2] * 4, dtype=complex)
        rhos[2, 0, 1] = 0.25
        with pytest.raises(DensityMatrixError, match=re.escape(
                "matrix 2 of the stack: not Hermitian: max |rho - rho^dag| = 2.500e-01")):
            validate_density(rhos)
        rhos[2] = np.diag([1.5, -0.5])
        with pytest.raises(DensityMatrixError, match=re.escape(
                "matrix 2 of the stack: not positive semidefinite: lambda_min = -5.000e-01")):
            validate_density(rhos)

    def test_matrix_exponential_hermiticity(self):
        hs = np.zeros((3, 2, 2), dtype=complex)
        hs[1, 0, 1] = 2.0
        with pytest.raises(ValueError, match=re.escape(
                "matrix 1 of the stack: matrix is not Hermitian: max |h - h^dag| = 2.000e+00")):
            matrix_exponential(hs, 1.0)

    def test_non_finite_entries_are_counted(self):
        hs = np.zeros((4, 2, 2))
        hs[3, 0, 0] = hs[3, 1, 1] = np.nan
        with pytest.raises(ValueError, match="^matrix 3 of the stack: 2 non-finite entries$"):
            partial_trace(hs, [2], {0})

    def test_index_in_a_stack_with_two_stack_axes(self):
        rhos = trace_stack()[1:].reshape(2, 2, 4, 4)
        with pytest.raises(DensityMatrixError, match=re.escape("matrix (1, 0) of the stack: trace")):
            validate_density(rhos)

    def test_one_matrix_keeps_its_wording(self):
        with pytest.raises(DensityMatrixError, match="^" + re.escape("trace is not 1: |Tr rho - 1| = 1.000e+00")):
            validate_density(np.eye(2))
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            matrix_exponential(np.array([[np.inf, 0], [0, 0]]), 1.0)
        with pytest.raises(ValueError, match="^" + re.escape("matrix is not Hermitian: max |h - h^dag| = 1.000e+00")):
            matrix_exponential(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


# The dense route is backward stable: it returns the concurrence of a state
# whose entries a and d are off by about DELTA. C = 2 max(0, |z| - sqrt(a d)),
# and sqrt(a d) moves by up to min(sqrt(v), v / (2 sqrt(a d))), v = DELTA (a + d + DELTA),
# when a and d move by DELTA. That is far below 1e-10 unless a d is within
# round-off of 0 while a + d is not, as at x = 0 or 1, where it reaches sqrt(DELTA d).
DELTA = 16 * np.finfo(float).eps


def dense_route_bound(a, d):
    v = DELTA * (a + d + DELTA)
    return 1e-10 + 2.0 * v / np.maximum(2.0 * np.sqrt(a * d), np.sqrt(v))


@settings(max_examples=100)
@given(omega_a=st.floats(-20, 20), alpha=st.floats(0.5, 100), x=st.floats(0, 1),
       var_a=st.floats(0, 10), var_b=st.floats(0, 10), t_max=st.floats(0, 50))
def test_averaged_xstate_is_a_density_matrix(omega_a, alpha, x, var_a, var_b, t_max):
    s = TwoQubitScenario(omega_a, alpha, x, var_a, var_b)
    xs = avg_xstate_two(np.linspace(0.0, t_max, 64), s)
    rho = validate_density(xstate_matrix(xs))
    assert rho.shape == (64, 4, 4)
    c = concurrence_x(xs.a, xs.d, xs.z)
    assert np.all((c >= 0.0) & (c <= 1.0))
    assert np.all(np.abs(c - concurrence_general(rho)) <= dense_route_bound(xs.a, xs.d))


def test_tc_bracket_check_fails_on_an_unresolved_cell(monkeypatch, rng):
    # none of the check's cells should be unresolved; one that is fails it
    solve = validation.find_tc_batch

    def one_unresolved(s):
        cells = solve(s)
        cells["status"][0] = "unresolved"
        return cells

    assert validation.check_tc_bracket(8, rng) <= 1e-10
    monkeypatch.setattr(validation, "find_tc_batch", one_unresolved)
    assert validation.check_tc_bracket(8, rng) == math.inf
