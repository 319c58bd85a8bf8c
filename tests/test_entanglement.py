import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    bell_density,
    find_tc,
    mc_concurrence,
    random_two_scenario,
    scenario_gap,
    solve_batch,
    stack,
    two_scenario,
)
from hensim import entanglement
from hensim.ensemble import sample_ensemble
from hensim.entanglement import (
    TOL,
    concurrence_trajectory,
    concurrence_x,
    find_tc_batch,
)
from hensim.validation import (
    DensityMatrixError,
    XState,
    avg_xstate_two,
    check_tc_bracket,
    concurrence_general,
    gap_oracle_cases,
    xstate_diagonal,
    xstate_matrix,
)
from hensim.scenarios import TwoQubitScenario, subset


def random_unitary(rng, dim=2):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestConcurrenceGeneral:
    def test_bell_state(self):
        assert concurrence_general(bell_density()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert concurrence_general(np.eye(4) / 4) == 0.0

    def test_known_xstate(self):
        elems = XState(a=0.04, b=0.46, c=0.46, d=0.04, z=0.3)
        rho = xstate_matrix(elems)
        assert concurrence_general(rho) == pytest.approx(0.52, abs=1e-12)
        assert concurrence_x(elems.a, elems.d, elems.z) == pytest.approx(0.52, abs=1e-15)

    def test_invalid_density_rejected(self):
        with pytest.raises(DensityMatrixError):
            concurrence_general(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))

    def test_local_unitary_invariance(self, rng):
        for _ in range(100):
            s = random_two_scenario(rng)
            rho = xstate_matrix(avg_xstate_two(rng.uniform(0, 6), s))
            uv = np.kron(random_unitary(rng), random_unitary(rng))
            rotated = uv @ rho @ uv.conj().T
            assert concurrence_general(rotated) == pytest.approx(
                concurrence_general(rho), abs=1e-10
            )

    def test_range(self, rng):
        for _ in range(50):
            s = random_two_scenario(rng)
            c = concurrence_general(xstate_matrix(avg_xstate_two(rng.uniform(0, 6), s)))
            assert 0.0 <= c <= 1.0


class TestConcurrenceX:
    def test_initial_state_maximally_entangled(self):
        xs = avg_xstate_two(0.0, two_scenario())
        assert concurrence_x(xs.a, xs.d, xs.z) == pytest.approx(1.0, abs=1e-15)

    def test_clamped_to_zero(self):
        assert concurrence_x(0.25, 0.25, 0.1) == 0.0

    def test_dual_path_agreement(self, rng):
        for _ in range(200):
            s = random_two_scenario(rng)
            xs = avg_xstate_two(rng.uniform(0, 8), s)
            assert concurrence_x(xs.a, xs.d, xs.z) == pytest.approx(
                concurrence_general(xstate_matrix(xs)), abs=1e-10
            )


class TestConcurrenceTrajectory:
    def test_transverse_noise_accelerates_decay(self):
        # larger transverse variance: pointwise smaller C before sudden death
        grid = np.linspace(0.0, 5.0, 400)
        curves = {
            vb: concurrence_trajectory(two_scenario(var_b=vb), grid)
            for vb in (0.0, 0.5, 2.0)
        }
        alive = curves[0.0] > 1e-12
        inner = alive & (grid > 0)
        assert np.all(curves[2.0][inner] <= curves[0.5][inner] + 1e-12)
        assert np.all(curves[0.5][inner] <= curves[0.0][inner] + 1e-12)
        assert np.any(curves[2.0][inner] < curves[0.5][inner])

    def test_constant_one_when_decoupled(self):
        grid = np.linspace(0.0, 5.0, 50)
        c = concurrence_trajectory(two_scenario(alpha=0.5, var_a=1.0), grid)
        assert np.abs(c - 1.0).max() <= 1e-12

    def test_monte_carlo_close_to_analytic(self):
        grid = np.linspace(0.0, 5.0, 120)
        s = two_scenario(var_b=0.5)
        exact = concurrence_trajectory(s, grid)
        cols = sample_ensemble(s, 300, 404, 5.0, 120)
        mc = mc_concurrence(cols, s)
        assert np.abs(mc - exact).max() <= 0.08

    def test_monte_carlo_gap_is_that_of_the_mean_xstate(self, rng):
        # the CLI's C_mc reads sqrt(a d) off the mean of gamma^2 alone; the
        # mean X state's full diagonal gives it to a few units of rounding
        for _ in range(20):
            s = random_two_scenario(rng)
            cols = sample_ensemble(s, 40, int(rng.integers(2**63)), 6.0, 50)
            a, _, _, d = xstate_diagonal(cols["gamma2"], s)
            full = concurrence_x(a, d, cols["re_z"] + 1j * cols["im_z"])
            assert np.abs(mc_concurrence(cols, s) - full).max() <= 1e-15

    def test_matches_complex_averaged_xstate(self, rng):
        # the real-only closed form against the complex one, on random omega_a and var_b
        grid = np.linspace(0.0, 8.0, 200)
        worst = 0.0
        for _ in range(100):
            s = random_two_scenario(rng)
            c = concurrence_trajectory(s, grid)
            xs = avg_xstate_two(grid, s)
            worst = max(worst, np.abs(c - concurrence_x(xs.a, xs.d, xs.z)).max())
        assert worst <= 1e-14


class TestFindTc:
    def test_none_when_decoupled(self):
        assert find_tc(two_scenario(alpha=0.5, var_a=1.0)).t_c is None

    def test_none_without_longitudinal_noise(self):
        assert find_tc(two_scenario(var_a=0.0, var_b=1.0)).t_c is None

    def test_none_for_pure_auxiliary(self):
        assert find_tc(two_scenario(x=0.0)).t_c is None
        assert find_tc(two_scenario(x=1.0)).t_c is None

    def test_solver_invariants(self):
        s = two_scenario(var_a=1.0)
        res = find_tc(s)
        assert res.t_c is not None
        assert abs(scenario_gap(res.t_c, s)) <= 1e-7
        assert scenario_gap(res.t_c - 1e-4, s) > 0
        check = scenario_gap(np.linspace(res.t_c, 10.0, 1000), s)
        assert np.all(check <= 1e-10)
        lo, hi = res.bracket
        assert lo <= res.t_c <= hi

    def test_concurrence_zero_beyond_tc(self):
        s = two_scenario(var_a=1.0)
        res = find_tc(s)
        grid = np.linspace(res.t_c, 10.0, 500)
        xs = avg_xstate_two(grid, s)
        c = concurrence_x(xs.a, xs.d, xs.z)
        assert np.abs(c).max() <= 1e-9

    def test_unique_sign_change_structure_at_zero_frequency(self):
        # omega_a = 0, var_b = 0: |z| strictly decreasing, sqrt(ad) strictly
        # increasing (before both saturate at their asymptotes in float precision)
        s = two_scenario(var_a=1.0)
        ts = np.linspace(0.0, 3.5, 500)
        xs = avg_xstate_two(ts, s)
        assert np.all(np.diff(np.abs(xs.z)) < 0)
        assert np.all(np.diff(np.sqrt(xs.a * xs.d)) > 0)

    def test_oscillatory_case(self):
        s = two_scenario(omega_a=6.0, var_a=0.5, var_b=0.5)
        res = find_tc(s)
        assert res.t_c is not None and res.t_c > 0

    def test_monotone_in_alpha_and_variance(self):
        tc = {
            (alpha, var): find_tc(two_scenario(alpha=alpha, var_a=var)).t_c
            for alpha in (1.0, 2.0)
            for var in (1.0, 2.0)
        }
        assert tc[(1.0, 1.0)] > tc[(2.0, 1.0)]
        assert tc[(1.0, 1.0)] > tc[(1.0, 2.0)]

    def test_huge_transverse_variance_keeps_pulling_tc_earlier(self):
        # for large var_b the root is at t of order 1/sqrt(var_b), where
        # |z| = exp(-var_b t^2 / 2) / 2 and sqrt(a d) = K t^2 / 2 to leading
        # order, K = c^2 sqrt(xy) alpha^2 var_a; so t_c = sqrt(2 u / var_b)
        # with u exp(u) = var_b / (2 K)
        alpha, var_a, x = 1.75, 0.1, 0.2
        k = (1.0 - 0.25 / alpha**2) * math.sqrt(x * (1.0 - x)) * alpha**2 * var_a
        tcs = []
        for var_b in (1e12, 1e16, 1e20, 1e24):
            tc = find_tc(two_scenario(alpha=alpha, var_a=var_a, x=x, var_b=var_b)).t_c
            log_r = math.log(var_b / (2.0 * k))
            u = log_r
            for _ in range(50):
                u -= (u + math.log(u) - log_r) / (1.0 + 1.0 / u)
            if var_b >= 1e16:
                assert tc == pytest.approx(math.sqrt(2.0 * u / var_b), rel=1e-12, abs=0.0)
            tcs.append(tc)
        assert all(later < earlier for earlier, later in zip(tcs, tcs[1:]))


def seed_find_tc(s, grid_density=4000, tol=1e-8, verify_points=1000):
    """The scalar solver as it stood before the batch one: one scenario, avg_xstate_two."""

    def gap(t):
        xs = avg_xstate_two(t, s)
        return np.abs(xs.z) - np.sqrt(np.maximum(xs.a * xs.d, 0.0))

    alpha, va = s.alpha, s.var_a
    if alpha == 0.5 or va == 0.0 or s.x * s.y == 0.0:
        return None
    t_max = max(2.0 * math.sqrt(math.log(1e2) / (2.0 * alpha**2 * va)), 1.0)
    while gap(t_max) >= 0.0:
        t_max *= 2.0
        assert t_max <= 1e6
    for density in (grid_density, 4 * grid_density, 16 * grid_density):
        ts = np.linspace(0.0, t_max, density)
        pos = gap(ts) > 0.0
        crossings = np.nonzero(pos[:-1] & ~pos[1:])[0]
        if len(crossings) == 0:
            continue
        lo, hi = float(ts[crossings[-1]]), float(ts[crossings[-1] + 1])
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        if np.all(gap(np.linspace(hi, t_max, verify_points)) <= 1e-10):
            return hi
    raise AssertionError("seed solver could not isolate t_c")


# fast-turning cells: hundreds and thousands of phase turns before t_c
ESCALATING = [
    two_scenario(omega_a=400.0, alpha=0.6, x=0.5, var_a=0.05, var_b=0.5),
    two_scenario(omega_a=1600.0, alpha=2.0, x=0.5, var_a=0.05),
]
NO_SUDDEN_DEATH = [
    two_scenario(alpha=0.5, var_a=1.0),
    two_scenario(var_a=0.0, var_b=1.0),
    two_scenario(x=0.0),
    two_scenario(x=1.0),
]
CRITERION_6_GRID = [
    two_scenario(alpha=a, var_a=v)
    for a in np.linspace(0.8, 2.5, 5) for v in np.linspace(0.3, 2.0, 5)
]
OSCILLATORY = [
    two_scenario(omega_a=wa, alpha=alpha, var_a=0.5, var_b=0.5)
    for wa in (3.0, 6.0) for alpha in (1.0, 1.5)
]


# omega_a != 0 cells whose concurrence revives after g first turns negative,
# before the zero-frequency root
REVIVING = [
    two_scenario(omega_a=4.85, alpha=15.46, var_a=0.01337, x=1.49e-4),
    two_scenario(omega_a=2.617, alpha=19.0, var_a=0.03324, x=2.16e-5),
    two_scenario(omega_a=0.8833, alpha=8.893, var_a=0.03512, x=1.58e-4),
    two_scenario(omega_a=0.8859, alpha=18.23, var_a=0.01664, x=2.18e-5, var_b=0.9508),
    two_scenario(omega_a=9.82, alpha=10.5, var_a=0.02307, x=3.12e-4),
    # a phase turn that completes at the zero-frequency root: the last
    # revival is about 4e-8 wide and ends within 1e-13 of that root
    two_scenario(omega_a=3333.815460179369, alpha=3.0, var_a=0.1, x=0.4),
] + ESCALATING


class TestFindTcBatch:
    def test_matches_scalar_loop_and_seed_solver(self):
        scenarios = CRITERION_6_GRID + OSCILLATORY + NO_SUDDEN_DEATH
        batch = solve_batch(scenarios)
        for s, res in zip(scenarios, batch):
            scalar = find_tc(s).t_c
            seed = seed_find_tc(s)
            assert (res.t_c is None) == (scalar is None) == (seed is None)
            if res.t_c is not None:
                assert abs(res.t_c - scalar) <= TOL * scalar
                # the seed solver keeps the upper end of a bracket 1e-8 wide
                assert abs(res.t_c - seed) <= 1e-8

    def test_cell_result_independent_of_batch(self):
        # a tc-map-like grid around the oscillatory and escalating cells: the
        # block partition differs between each solo run and the full batch
        grid = [two_scenario(alpha=a, var_a=v)
                for a in np.linspace(0.5, 3.0, 9) for v in np.linspace(0.1, 2.0, 9)]
        scenarios = grid + OSCILLATORY + ESCALATING + NO_SUDDEN_DEATH
        batch = solve_batch(scenarios)
        assert solve_batch(scenarios[::-1]) == batch[::-1]
        for s, res in zip(scenarios, batch):
            assert find_tc(s) == res

    def test_statuses_and_diagnostics(self):
        for s in NO_SUDDEN_DEATH:
            res = find_tc(s)
            assert (res.status, res.t_c, res.t_max) == ("none", None, None)
        res = find_tc(two_scenario(alpha=1.0, var_a=1.0))
        assert res.status == "finite"
        assert res.t_c < res.t_max

    @pytest.mark.parametrize("s", REVIVING)
    def test_concurrence_stays_dead_up_to_zero_frequency_root(self, s):
        # past the zero-frequency root t_c0, g at any omega_a is at most g at
        # omega_a = 0, so a revival after t_c could only come before t_c0
        res, envelope = solve_batch([s, replace(s, omega_a=0.0)])
        ts = np.linspace(res.t_c, envelope.t_c, 100_001)
        xs = avg_xstate_two(ts, s)
        assert concurrence_x(xs.a, xs.d, xs.z).max() <= 1e-9

    def test_unresolved_only_where_the_gap_cannot_fall(self):
        # a root near 3.4e7, past any fixed search horizon such as 1e6
        s = two_scenario(alpha=0.5000005, var_a=0.1)
        res = find_tc(s)
        assert res.status == "finite" and 3e7 < res.t_c < res.t_max
        # at var_a = 5e-324, var_a / 2 rounds to 0 and the computed gap stays
        # at 1/2: the bound T is finite, but the gap is still positive there
        s = two_scenario(var_a=5e-324)
        res = find_tc(s)
        assert (res.status, res.t_c, res.bracket) == ("unresolved", None, None)
        assert math.isfinite(res.t_max) and scenario_gap(res.t_max, s) > 0.0

    def test_turning_cell_whose_last_turn_is_inexact_is_unresolved(self):
        # a root near 3e10, where a multiple of the rounded phase turn is no
        # longer a whole turn: the final bracket fails, and that cell alone is
        # unresolved, while its zero-frequency twin and the cell after it solve
        s = two_scenario(omega_a=3.0, alpha=2.0, x=0.5, var_a=1e-21)
        cols = find_tc_batch(replace(s, omega_a=np.array([3.0, 0.0, 3.0]),
                                     var_a=np.array([1e-21, 1e-21, 0.5])))
        assert cols["status"].tolist() == ["unresolved", "finite", "finite"]
        assert np.isnan(cols["t_c"][0])
        assert math.isfinite(cols["t_max"][0]) and cols["t_max"][0] == cols["t_max"][1]
        assert 3e10 < cols["t_c"][1] < cols["t_max"][1]
        alone = find_tc_batch(s)
        assert alone["status"].tolist() == ["unresolved"]
        assert np.isnan(alone["t_c"][0])
        assert alone["t_max"].tobytes() == cols["t_max"][:1].tobytes()

    def test_zero_frequency_cells_bracket_to_adjacent_floats(self):
        # no scan at omega_a = 0: the bracket is the bisection's own, not a
        # scan interval
        scenarios = CRITERION_6_GRID + [two_scenario(var_b=0.5), two_scenario(alpha=1e154)]
        for s, res in zip(scenarios, solve_batch(scenarios)):
            lo, hi = res.bracket
            assert (res.status, res.t_c) == ("finite", hi)
            assert scenario_gap(lo, s) > 0.0 >= scenario_gap(hi, s)

    def test_root_far_past_one_resolves(self):
        # g depends on var_a only through var_a t^2, so t_c scales as
        # 1/sqrt(var_a); near t = 3.7e9 floats are 4.8e-7 apart, and a
        # bisection that stops at a width of 1e-8 never ends there
        res = solve_batch([two_scenario(alpha=5.0, var_a=1.0),
                             two_scenario(alpha=5.0, var_a=1e-20)])
        assert [r.status for r in res] == ["finite", "finite"]
        assert res[1].t_c * 1e-10 == pytest.approx(res[0].t_c, rel=1e-12)

    def test_subnormal_frequency_solves_without_warning(self):
        # a phase turn of pi / (alpha |omega_a|) overflows to inf: the window
        # starts at t = 0 and the answer is the zero-frequency cell's
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            turning = find_tc_batch(two_scenario(omega_a=1e-310))
        zero = find_tc_batch(two_scenario(omega_a=0.0))
        assert turning.keys() == zero.keys()
        assert all(np.array_equal(turning[name], zero[name]) for name in zero)

    def test_column_contract(self):
        # a finite, a "none", an "unresolved" and a turning cell, passed as a
        # 2 x 2 block: the columns are flat, in C order
        scenarios = [two_scenario(alpha=1.0, var_a=1.0), two_scenario(alpha=0.5, var_a=1.0),
                     two_scenario(var_a=5e-324),
                     two_scenario(omega_a=6.0, var_a=0.5, var_b=0.5)]
        cols = find_tc_batch(stack(scenarios, (2, 2)))
        assert set(cols) == {"t_c", "t_max", "status"}
        assert all(col.shape == (4,) for col in cols.values())
        assert cols["status"].tolist() == ["finite", "none", "unresolved", "finite"]
        # NaN exactly where the status leaves a column without a value
        nan = {name: np.isnan(cols[name]).tolist() for name in ("t_c", "t_max")}
        assert nan == {"t_c": [False, True, True, False], "t_max": [False, True, False, False]}
        # each finite t_c ends a bracket of adjacent floats: g changes sign right below it
        for i in (0, 3):
            t_c = cols["t_c"][i]
            assert scenario_gap(np.nextafter(t_c, 0.0), scenarios[i]) > 0.0 >= scenario_gap(t_c, scenarios[i])


# The paper's two claims over the scenario space, at omega_a = 0 unless stated.
# alpha in (1/2, 10], var_a in [1e-300, 100] (var_a / 2 stays nonzero),
# var_b in [0, 100], x in [1e-6, 1 - 1e-6].
ALPHAS = st.floats(0.5, 10.0, exclude_min=True)
VAR_AS = st.floats(1e-300, 100.0)
VAR_BS = st.floats(0.0, 100.0)
XS = st.floats(1e-6, 1.0 - 1e-6)


@settings(max_examples=20)
@given(cells=st.lists(st.tuples(ALPHAS, VAR_AS, VAR_BS, XS), min_size=1, max_size=8))
def test_longitudinal_relaxation_always_brings_sudden_death(cells):
    scenarios = [two_scenario(alpha=a, var_a=va, var_b=vb, x=x) for a, va, vb, x in cells]
    for s, res in zip(scenarios, solve_batch(scenarios)):
        assert res.status == "finite"
        lo, hi = res.bracket
        assert scenario_gap(lo, s) > 0.0 >= scenario_gap(hi, s)


@settings(max_examples=20)
@given(alpha=ALPHAS, var_a=st.floats(0.1, 10.0), x=XS, var_b=st.floats(0.0, 10.0),
       steps=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3),
       omega_a=st.floats(-10.0, 10.0).filter(bool))
def test_transverse_noise_and_frequency_pull_tc_earlier(alpha, var_a, x, var_b, steps, omega_a):
    var_bs = np.cumsum([var_b, *steps])
    scenarios = [two_scenario(alpha=alpha, var_a=var_a, var_b=vb, x=x) for vb in var_bs]
    *by_var_b, turning = solve_batch(scenarios + [replace(scenarios[0], omega_a=omega_a)])
    # more transverse noise keeps a finite t_c finite, and pulls it strictly earlier
    finite = [res.status == "finite" for res in by_var_b]
    assert finite == sorted(finite)
    tcs = [res.t_c for res in by_var_b if res.status == "finite"]
    assert all(later < earlier for earlier, later in zip(tcs, tcs[1:]))
    if by_var_b[0].status == "finite":
        assert turning.status == "finite"
        assert turning.t_c <= by_var_b[0].t_c * (1.0 + TOL)


# At omega_a = 0, xstate_gap reads t only through fl(k_a t) and fl(k_b t),
# k = fl(sqrt(v / 2)), and it is nonincreasing in both (monotone roundings of
# exp, expm1, sqrt, products and sums; |z| falls and sqrt(a d) rises). So
# scaling both variances by lambda is a change of time unit: t_c(lambda v) =
# t_c(v) / sqrt(lambda). In floats, with u = 2^-53, each scaled k is
# sqrt(lambda) k (1 + delta), |delta| <= 2.5u (u for lambda v, u/2 of it
# through the sqrt, u for the sqrt and u for the unscaled k). Let T =
# sqrt(lambda) t_c' for the scaled t_c'. The scaled gap is <= 0 at t_c', so
# the gap is <= 0 at every float from T (1 + 2.5u) on, and t_c, one float
# (2u) above the last positive one, is at most T (1 + 4.5u). The scaled gap
# is > 0 one float below t_c', so the gap is > 0 at every float up to
# T (1 - 2u) (1 - 2.5u), and t_c lies above that. Forming sqrt(lambda) t_c'
# rounds twice (2u): the law holds to 6.5u t_c, plus terms in u^2.
SCALING_LAW_BOUND = 7 * 2.0**-53


@settings(max_examples=100)
@given(alpha=st.floats(0.6, 10.0), var_a=st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
       var_b=st.one_of(st.just(0.0), st.floats(-3.0, 1.0).map(lambda e: 10.0**e)),
       x=st.floats(0.5 - math.sqrt(0.24), 0.5), lam=st.floats(-4.0, 4.0).map(lambda e: 10.0**e))
def test_tc_scaling_law(alpha, var_a, var_b, x, lam):
    # xy = x (1 - x) in [0.01, 1/4]; on these ranges t_c stays below about
    # 1e3, and 1e5 after the slowest scaling: both cells are finite
    cols = find_tc_batch(two_scenario(alpha=alpha, x=x, var_a=np.array([var_a, lam * var_a]),
                                      var_b=np.array([var_b, lam * var_b])))
    assert cols["status"].tolist() == ["finite", "finite"]
    base, scaled = cols["t_c"]
    assert abs(math.sqrt(lam) * scaled - base) <= SCALING_LAW_BOUND * base


def longdouble_gap(t, alpha, var_a, var_b, xy):
    """The zero-frequency gap of double inputs, evaluated in np.longdouble."""
    t, alpha, var_a, var_b, xy = (np.longdouble(v) for v in (t, alpha, var_a, var_b, xy))
    half = np.longdouble(0.5)
    p_amp, m_amp = (alpha - half) / alpha, (alpha + half) / alpha
    s2 = var_a * t * t / 2
    z_abs = (p_amp * np.exp(-(alpha + half) ** 2 * s2)
             + m_amp * np.exp(-(alpha - half) ** 2 * s2)) * np.exp(-var_b * t * t / 2) / 4
    return z_abs - p_amp * m_amp * np.sqrt(xy) * -np.expm1(-4 * alpha * alpha * s2) / 4


# TOL states |t_c - root| <= TOL t_c. Against the root of the gap in extended
# precision, the gap changes sign between t_c (1 - TOL) and t_c (1 + TOL),
# with alpha - 1/2 from 1e-9 to 10 and roots up to about 1e12. The mixture
# weight x also reaches down from 1e-262 to 5e-324, where sqrt(xy) is 1e-131
# to 2.2e-162 and |z| falls below it before the root.
@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is double precision on this platform")
@settings(max_examples=100)
@given(delta=st.floats(-9.0, 1.0).map(lambda e: 10.0**e),
       var_a=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
       var_b=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
       x=st.one_of(XS, st.floats(-323.3, -262.0).map(lambda e: 10.0**e)))
@example(delta=0.5, var_a=1.0, var_b=0.0, x=1e-262)
@example(delta=0.5, var_a=1.0, var_b=0.0, x=5e-324)
@example(delta=1e-9, var_a=1e-3, var_b=0.0, x=5e-324)
@example(delta=10.0, var_a=1e3, var_b=1e3, x=5e-324)
def test_tc_within_tol_of_the_extended_precision_root(delta, var_a, var_b, x):
    s = two_scenario(alpha=0.5 + delta, var_a=var_a, var_b=var_b, x=x)
    cols = find_tc_batch(s)
    assert cols["status"].tolist() == ["finite"]
    t_c = np.longdouble(cols["t_c"][0])
    args = s.alpha, s.var_a, s.var_b, s.x * s.y
    assert longdouble_gap(t_c * (1 - np.longdouble(TOL)), *args) > 0.0
    assert longdouble_gap(t_c * (1 + np.longdouble(TOL)), *args) <= 0.0


# A grid's rows share alpha and x, and each cell brackets its own Newton
# estimate. Variances over 40 decades reach roots of 1e10 and more; at
# alpha = 1e160 (the examples) the closed form behind the estimate leaves
# double precision, so those cells, one with a subnormal root, bisect [0, T]
# in the same batch as cells whose brackets hold. Bit i of ``turning``
# (``transverse``) gives cell i an omega_a (a var_b) of its own.
@settings(max_examples=40)
@given(alphas=st.lists(ALPHAS, min_size=1, max_size=3),
       var_exps=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=5),
       x=XS, turning=st.integers(0, 2**15 - 1), transverse=st.integers(0, 2**15 - 1))
@example(alphas=[1e160], var_exps=[300.0, -300.0, math.log10(0.5)], x=0.2, turning=0,
         transverse=0)
@example(alphas=[1e160, 2.0], var_exps=[-300.0, 300.0, 0.0], x=0.2, turning=0b100000,
         transverse=0b10)
@example(alphas=[1e160], var_exps=[math.log10(0.5), 300.0], x=0.2, turning=0, transverse=0)
def test_batched_cells_are_bit_identical_to_solving_alone(alphas, var_exps, x, turning,
                                                           transverse):
    grid = [two_scenario(alpha=a, var_a=10.0**e, x=x,
                         omega_a=3.0 if turning >> i & 1 else 0.0,
                         var_b=0.5 if transverse >> i & 1 else 0.0)
            for i, (a, e) in enumerate((a, e) for a in alphas for e in var_exps)]
    cols = find_tc_batch(stack(grid, (len(alphas), -1)))
    for i, s in enumerate(grid):
        alone = find_tc_batch(s)
        assert alone["status"].tolist() == cols["status"][i:i + 1].tolist()
        for name in ("t_c", "t_max"):
            assert alone[name].tobytes() == cols[name][i:i + 1].tobytes(), (name, s)


def test_stacked_fields_solve_one_cell_per_entry_in_c_order(rng):
    # omega_a a (2, R, 1) stack of each case's own and 0, as check_tc_bracket
    # solves its zero-frequency twins, the other fields (R, 1) columns; the
    # cases take turns at alpha near 1/2 and at a pure mixture ("none")
    base = gap_oracle_cases(rng, 12)
    cols = find_tc_batch(replace(base, omega_a=np.stack([base.omega_a, 0.0 * base.omega_a])))
    assert all(col.shape == (24,) for col in cols.values())
    assert set(cols["status"]) == {"finite", "none"}
    for i, (k, r) in enumerate(np.ndindex(2, 12)):
        alone = find_tc_batch(replace(subset(base, r), omega_a=base.omega_a[r] * (1 - k)))
        assert alone["status"].tolist() == cols["status"][i:i + 1].tolist()
        for name in ("t_c", "t_max"):
            assert alone[name].tobytes() == cols[name][i:i + 1].tobytes(), (name, k, r)


def tc_map_cells(resolution, var_b, omega_a=0.0):
    """The record find_tc_batch solves for `tc-map --x 0.2 --var-eps-b <var_b> --alpha-range
    0.5 3 --var-range 0.1 2 --resolution <resolution>`, with every cell at omega_a."""
    alpha, var_a = np.meshgrid(np.linspace(0.5, 3.0, resolution),
                               np.linspace(0.1, 2.0, resolution), indexing="ij")
    return replace(two_scenario(omega_a=omega_a, x=0.2, var_b=var_b), alpha=alpha, var_a=var_a)


# Each cell brackets its Newton estimate in one round of two gap calls and
# bisects it in about 5 more; a cell that falls back to [0, T] adds about 55
# rounds. Besides those, a batch evaluates g once at T and twice for its final
# check, and never over a block of 0 cells. At omega_a = 3 every finite cell
# also scans its last phase turn, 2 cells per gap call (190 calls at r20), and
# bisects the bracket found there in about 40 more rounds. A record is checked
# where it enters: the solver checks its flattened input and builds its
# zero-frequency envelope once; every other record it uses (the live and
# finite cells, a scan block, a bisection round's open cells) is a subset of
# those two, which is not checked again.
@pytest.mark.parametrize("resolution, var_b, omega_a, max_blocks",
                         [(20, 0.5, 0.0, 12), (60, 0.0, 0.0, 12), (20, 0.0, 3.0, 250)])
def test_full_solves_start_from_a_newton_estimate(monkeypatch, resolution, var_b, omega_a,
                                                  max_blocks):
    blocks, records = [], []

    def counted(t, s):
        blocks.append(s.alpha.size)
        return gap(t, s)

    def checked(record):
        records.append(record)
        check(record)

    gap, check = entanglement.xstate_gap, TwoQubitScenario.__post_init__
    s = tc_map_cells(resolution, var_b, omega_a)
    monkeypatch.setattr(entanglement, "xstate_gap", counted)
    monkeypatch.setattr(TwoQubitScenario, "__post_init__", checked)
    find_tc_batch(s)
    assert len(blocks) <= max_blocks
    assert 0 not in blocks
    assert len(records) <= 2


# check_tc_bracket checks its drawn cases and their stacks as it builds them;
# the finite cells and each sweep block are subsets, so the number of checks
# does not grow with the number of cases.
def test_tc_bracket_checks_do_not_grow_with_its_cases(monkeypatch):
    counts, check = [], TwoQubitScenario.__post_init__

    def checked(record):
        counts[-1] += 1
        check(record)

    monkeypatch.setattr(TwoQubitScenario, "__post_init__", checked)
    for n_cases in (50, 200):
        counts.append(0)
        assert check_tc_bracket(n_cases, np.random.default_rng(37)) <= 1e-10
    assert counts[0] == counts[1]


# Every cell brackets a Newton estimate of its envelope root. Without one it
# bisects [0, T], as a cell whose estimate does not hold does; either bracket
# bisects to the one pair of adjacent floats where the computed envelope
# changes sign, so the columns are the same bytes. alpha - 1/2 and var_a span
# 23 and 11 decades, x reaches the smallest subnormal, and bit i of
# ``turning`` gives cell i an omega_a of 3.
@settings(max_examples=60)
@given(deltas=st.lists(st.floats(-15.0, 8.0).map(lambda e: 10.0**e), min_size=1, max_size=3),
       var_as=st.lists(st.floats(-3.0, 8.0).map(lambda e: 10.0**e), min_size=1, max_size=3),
       var_b=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
       x=st.one_of(XS, st.floats(-323.3, -1.0).map(lambda e: 10.0**e)),
       turning=st.integers(0, 2**9 - 1))
@example(deltas=[1e-15, 1e160], var_as=[1e-3, 1e300], var_b=0.0, x=5e-324, turning=0b0101)
@example(deltas=[1e-15, 1e160], var_as=[1e300, 1.0], var_b=1e3, x=5e-324, turning=0b1010)
@example(deltas=[1e-15], var_as=[1e8], var_b=1e-3, x=0.2, turning=0)
def test_newton_brackets_bisect_to_the_plain_bisection(deltas, var_as, var_b, x, turning):
    grid = [two_scenario(alpha=0.5 + d, var_a=va, x=x, var_b=var_b,
                         omega_a=3.0 if turning >> i & 1 else 0.0)
            for i, (d, va) in enumerate((d, va) for d in deltas for va in var_as)]
    cells = stack(grid, (len(deltas), -1))
    newton = find_tc_batch(cells)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entanglement, "_newton_guesses", lambda s: np.full(s.alpha.shape, np.nan))
        plain = find_tc_batch(cells)
    assert newton["status"].tolist() == plain["status"].tolist()
    for name in ("t_c", "t_max"):
        assert newton[name].tobytes() == plain[name].tobytes(), name
