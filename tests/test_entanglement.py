import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import find_tc, scenario_gap, solve_batch, two_scenario
from hensim.analytic import gap_args
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
    concurrence_general,
    random_two_scenario,
    xstate_matrix,
)


def bell_density():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


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
        cols = sample_ensemble(s, 300, 404, grid)
        mc = concurrence_x(cols["a"], cols["d"], cols["re_z"] + 1j * cols["im_z"])
        assert np.abs(mc - exact).max() <= 0.08

    def test_matches_complex_averaged_xstate(self, rng):
        # the real-only closed form against the complex one, on random omega_a, omega_b, var_b
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
                assert abs(res.t_c - scalar) <= TOL
                assert abs(res.t_c - seed) <= TOL

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

    def test_beyond_horizon(self):
        s = two_scenario(alpha=0.5000005, var_a=0.1)
        res = find_tc(s)
        assert (res.status, res.t_c, res.bracket) == ("beyond-horizon", None, None)
        assert 5e5 < res.t_max <= 1e6
        assert scenario_gap(res.t_max, s) >= 0.0

    def test_zero_frequency_cells_bracket_to_adjacent_floats(self):
        # no scan at omega_a = 0: the bracket is the bisection's own, not a
        # scan interval
        scenarios = CRITERION_6_GRID + [two_scenario(var_b=0.5), two_scenario(alpha=1e154)]
        for s, res in zip(scenarios, solve_batch(scenarios)):
            lo, hi = res.bracket
            assert (res.status, res.t_c) == ("finite", hi)
            assert hi == np.nextafter(lo, np.inf)
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
            turning = find_tc_batch(1.0, 0.5, 0.0, 1e-310, 0.16)
        zero = find_tc_batch(1.0, 0.5, 0.0, 0.0, 0.16)
        assert turning.keys() == zero.keys()
        assert all(np.array_equal(turning[name], zero[name]) for name in zero)

    def test_column_contract(self):
        # a finite, a "none", a "beyond-horizon" and a turning cell, passed as a
        # 2 x 2 block: the columns are flat, in C order
        scenarios = [two_scenario(alpha=1.0, var_a=1.0), two_scenario(alpha=0.5, var_a=1.0),
                     two_scenario(alpha=0.5000005, var_a=1.0),
                     two_scenario(omega_a=6.0, var_a=0.5, var_b=0.5)]
        cols = find_tc_batch(*np.array([gap_args(s) for s in scenarios]).T.reshape(5, 2, 2))
        assert set(cols) == {"t_c", "lo", "t_max", "status"}
        assert all(col.shape == (4,) for col in cols.values())
        assert cols["status"].tolist() == ["finite", "none", "beyond-horizon", "finite"]
        # NaN exactly where the status leaves a column without a value
        nan = {name: np.isnan(cols[name]).tolist() for name in ("t_c", "lo", "t_max")}
        assert nan == {"t_c": [False, True, True, False], "lo": [False, True, True, False],
                       "t_max": [False, True, False, False]}
        finite = cols["status"] == "finite"
        assert np.array_equal(np.nextafter(cols["lo"][finite], np.inf), cols["t_c"][finite])


# The paper's two claims over the scenario space, at omega_a = 0 unless stated.
# alpha in (1/2, 10], var_a in (0, 100], var_b in [0, 100], x in [1e-6, 1 - 1e-6].
ALPHAS = st.floats(0.5, 10.0, exclude_min=True)
VAR_AS = st.floats(0.0, 100.0, exclude_min=True)
VAR_BS = st.floats(0.0, 100.0)
XS = st.floats(1e-6, 1.0 - 1e-6)
# Above this floor on (alpha - 1/2)^2 var_a a zero-frequency cell is finite.
# g(t) <= (1/2) exp(-(alpha - 1/2)^2 var_a t^2 / 2) - (1/4) c^2 sqrt(xy) (1 -
# exp(-2 alpha^2 var_a t^2)), and the horizon doubling tries some t in
# (5e5, 1e6]. On these ranges c^2 >= 0.105 (alpha - 1/2) >= 3.3e-7 and
# sqrt(xy) >= 1e-3, so g < 0 there once (alpha - 1/2)^2 var_a > 1.8e-10.
FINITE_FLOOR = 1e-9


# a tiny var_a puts the horizon past 1e154, where the Gaussian exponents square
# to inf; analytic takes that as exp(-inf), the envelope's limit
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=20)
@given(cells=st.lists(st.tuples(ALPHAS, VAR_AS, VAR_BS, XS), min_size=1, max_size=8))
def test_longitudinal_relaxation_always_brings_sudden_death(cells):
    scenarios = [two_scenario(alpha=a, var_a=va, var_b=vb, x=x) for a, va, vb, x in cells]
    for s, res in zip(scenarios, solve_batch(scenarios)):
        assert res.status != "none"
        if (s.alpha - 0.5) ** 2 * s.var_a >= FINITE_FLOOR:
            assert res.status == "finite"
        if res.status == "finite":
            lo, hi = res.bracket
            assert res.t_c == hi == np.nextafter(lo, np.inf)
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
        assert turning.t_c <= by_var_b[0].t_c + TOL


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
       xy=st.floats(0.01, 0.25), lam=st.floats(-4.0, 4.0).map(lambda e: 10.0**e))
def test_tc_scaling_law(alpha, var_a, var_b, xy, lam):
    # on these ranges t_c stays below about 1e3, and 1e5 after the slowest
    # scaling: both cells are finite, far inside the 1e6 horizon
    cols = find_tc_batch(alpha, [var_a, lam * var_a], [var_b, lam * var_b], 0.0, xy)
    assert cols["status"].tolist() == ["finite", "finite"]
    base, scaled = cols["t_c"]
    assert abs(math.sqrt(lam) * scaled - base) <= SCALING_LAW_BOUND * base


# A grid's rows share alpha and x, so at var_b = 0 each row is one group whose
# cells bracket a guess scaled from its first cell's root. Variances over 40
# decades reach roots past the horizon; the examples at alpha = 1e160 reach
# a subnormal root, whose guessed bracket fails, and variance ratios of
# 1e+-600, whose guesses under- and overflow: those cells fall back to the
# full bisection. Bit i of ``turning`` (``transverse``) gives cell i an
# omega_a (a var_b) of its own; omega_a only at var_a >= 1e-6 and alpha <= 10,
# since a root near 1e10 leaves the last whole phase turn inexact in floats,
# and the solver refuses such a cell alone or in a batch.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=40)
@given(alphas=st.lists(ALPHAS, min_size=1, max_size=3),
       var_exps=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=5),
       x=XS, turning=st.integers(0, 2**15 - 1), transverse=st.integers(0, 2**15 - 1))
@example(alphas=[1e160], var_exps=[300.0, -300.0, math.log10(0.5)], x=0.2, turning=0,
         transverse=0)
@example(alphas=[1e160, 2.0], var_exps=[-300.0, 300.0, 0.0], x=0.2, turning=0b100000,
         transverse=0b10)
@example(alphas=[1e160], var_exps=[math.log10(0.5), 300.0], x=0.2, turning=0, transverse=0)
def test_grouped_cells_are_bit_identical_to_solving_alone(alphas, var_exps, x, turning,
                                                           transverse):
    grid = [two_scenario(alpha=a, var_a=10.0**e, x=x,
                         omega_a=3.0 if turning >> i & 1 and a <= 10.0 and e >= -6.0 else 0.0,
                         var_b=0.5 if transverse >> i & 1 else 0.0)
            for i, (a, e) in enumerate((a, e) for a in alphas for e in var_exps)]
    cols = find_tc_batch(*np.array([gap_args(s) for s in grid]).T.reshape(5, len(alphas), -1))
    for i, s in enumerate(grid):
        alone = find_tc_batch(*gap_args(s))
        assert alone["status"].tolist() == cols["status"][i:i + 1].tolist()
        for name in ("lo", "t_c", "t_max"):
            assert alone[name].tobytes() == cols[name][i:i + 1].tobytes(), (name, s)
