import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import single_scenario, two_scenario
from hensim.analytic import (
    avg_coherence_single,
    avg_population_single,
    gap_args,
    invert_thermal,
    steady_population,
    thermal_population,
    xstate_gap,
)
from hensim.ensemble import sample_ensemble
from hensim.entanglement import concurrence_x
from hensim.scenarios import coupling_c
from hensim.validation import (
    avg_xstate_two,
    check_gap_closed_form,
    gap_oracle_scenario,
    random_two_scenario,
    special_zero_va,
    validate_density,
    xstate_matrix,
)


class TestAvgPopulationSingle:
    def test_zero_at_t0(self):
        assert avg_population_single(0.0, single_scenario()) == 0.0

    def test_plateau_value(self):
        # alpha=5, xb=0.8: late-time limit (0.99/2) * 0.64 = 0.3168
        s = single_scenario(omega_a=0.0, alpha=5.0, xb=0.8, variance=1.0)
        assert avg_population_single(50.0, s) == pytest.approx(0.3168, abs=1e-12)

    def test_bounded_and_monotone_at_zero_frequency(self):
        s = single_scenario(omega_a=0.0, alpha=3.0, xb=0.7, variance=0.8)
        ts = np.linspace(0, 6, 400)
        pop = avg_population_single(ts, s)
        cap = coupling_c(s.alpha)**2 * abs(s.xb) ** 2
        assert np.all(pop >= 0) and np.all(pop <= cap + 1e-15)
        assert np.all(np.diff(pop) >= 0)

    def test_matches_monte_carlo_fig2_setting(self):
        s = single_scenario(omega_a=4.0, alpha=1.0, xb=0.9, variance=0.6)
        ts = np.linspace(0, 4, 100)
        mc = sample_ensemble(s, 5000, 101, ts)
        assert np.abs(mc.columns["rho_pp"] - avg_population_single(ts, s)).max() <= 0.03


class TestAvgCoherenceSingle:
    def test_zero_at_t0(self):
        assert avg_coherence_single(0.0, single_scenario(omega_a=4.0, alpha=1.0)) == 0.0

    def test_zero_when_auxiliary_fully_excited(self):
        s = single_scenario(omega_a=4.0, alpha=1.0, xb=1.0)
        assert np.abs(avg_coherence_single(np.linspace(0, 5, 9), s)).max() == 0.0

    def test_envelope_bounded_by_gaussian_branches(self):
        s = single_scenario(omega_a=4.0, alpha=1.0, xb=0.9, variance=0.6)
        ts = np.linspace(0, 4, 300)
        coh = np.abs(avg_coherence_single(ts, s))
        alpha, v = 1.0, 0.6
        envelope = (
            0.5 * coupling_c(s.alpha) * abs(s.xb) * abs(s.yb)
            * (np.exp(-0.5 * (alpha + 0.5) ** 2 * v * ts**2)
               + np.exp(-0.5 * (alpha - 0.5) ** 2 * v * ts**2))
        )
        assert np.all(coh <= envelope + 1e-14)

    def test_matches_monte_carlo_fig2_setting(self):
        s = single_scenario(omega_a=4.0, alpha=1.0, xb=0.9, variance=0.6)
        ts = np.linspace(0, 4, 100)
        mc = sample_ensemble(s, 5000, 202, ts)
        dev = np.abs(mc.columns["re_rho_pm"] - avg_coherence_single(ts, s).real).max()
        assert dev <= 0.03


class TestThermalMapping:
    def test_steady_population_limits(self):
        assert steady_population(0.5, 1.0) == 0.0
        assert steady_population(3.0, 0.0) == 0.0
        assert steady_population(5.0, 0.8) == pytest.approx(0.3168, abs=1e-12)

    def test_thermal_population_limits(self):
        assert thermal_population(0.0) == 0.5
        assert thermal_population(1e3) < 1e-300
        assert thermal_population(math.log(3)) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("beta_delta", [-1e-300, -1.0, float("nan")])
    def test_thermal_population_rejects_negative(self, beta_delta):
        with pytest.raises(ValueError, match="nonnegative"):
            thermal_population(beta_delta)

    def test_invert_thermal_known_points(self):
        alpha, xb = invert_thermal(0.0)
        assert alpha == 0.5 and xb == 1.0
        alpha, _ = invert_thermal(0.25)
        assert alpha == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_invert_thermal_rejects_half(self):
        with pytest.raises(ValueError):
            invert_thermal(0.5)

    @settings(max_examples=100)
    @given(p=st.floats(0.0, 0.499))
    def test_round_trip(self, p):
        alpha, xb = invert_thermal(p)
        assert steady_population(alpha, xb) == pytest.approx(p, abs=1e-12)

    def test_round_trip_with_chosen_xb(self):
        alpha, xb = invert_thermal(0.2, xb=0.9)
        assert steady_population(alpha, xb) == pytest.approx(0.2, abs=1e-12)
        with pytest.raises(ValueError):
            invert_thermal(0.4, xb=0.5)  # needs c^2 >= 1, unreachable


class TestDissipationRate:
    def test_envelope_identity_at_zero_frequency(self):
        # -ln(1 - pop/steady) equals 2 alpha^2 var t^2 when omega_a = 0
        s = single_scenario(omega_a=0.0, alpha=1.2, xb=0.9, variance=0.7)
        ts = np.linspace(0.1, 2.0, 50)
        pop = avg_population_single(ts, s)
        steady = steady_population(s.alpha, s.xb)
        lhs = -np.log(1.0 - pop / steady)
        rhs = 2.0 * s.alpha**2 * s.var * ts**2
        assert np.abs(lhs - rhs).max() <= 1e-10


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("alpha", [1e154, 1e160, 1e300])
def test_large_alpha_stays_finite(alpha):
    # alpha^2 leaves double precision; every average keeps its alpha -> infinity
    # limit, and t = 0 or var = 0 gives exponent 0, not 0 * inf
    ts = np.array([0.0, 0.5, 2.0])
    s = single_scenario(alpha=alpha, xb=0.8)
    assert np.abs(avg_population_single(ts, s) - [0.0, 0.32, 0.32]).max() <= 1e-15
    assert np.array_equal(avg_coherence_single(ts, s), [0.0, 0.0, 0.0])
    xs = avg_xstate_two(ts, two_scenario(alpha=alpha, var_a=1.0))
    assert np.array_equal(concurrence_x(xs), [1.0, 0.0, 0.0])
    z_abs, ad_root = special_zero_va(ts, two_scenario(alpha=alpha, var_a=0.0, var_b=0.5))
    assert np.abs(z_abs - 0.5 * np.exp(-0.25 * ts**2)).max() <= 1e-15
    assert np.array_equal(ad_root, [0.0, 0.0, 0.0])


class TestAvgXStateTwo:
    def test_initial_condition(self):
        xs = avg_xstate_two(0.0, two_scenario())
        assert xs.a == 0.0 and xs.d == 0.0
        assert xs.b == pytest.approx(0.5, abs=1e-15)
        assert xs.c == pytest.approx(0.5, abs=1e-15)
        assert xs.z == pytest.approx(0.5, abs=1e-15)

    def test_alpha_half_pure_dephasing(self):
        s = two_scenario(alpha=0.5, var_a=1.0, var_b=0.7)
        ts = np.linspace(0, 4, 50)
        xs = avg_xstate_two(ts, s)
        assert np.abs(xs.a).max() == 0.0 and np.abs(xs.d).max() == 0.0
        expected = 0.5 * np.exp(-0.5 * 0.7 * ts**2)
        assert np.abs(np.abs(xs.z) - expected).max() <= 1e-14

    def test_known_value(self):
        # x=0.2, alpha=1, omega_a=0, var_a=0.5, var_b=0, t=1
        xs = avg_xstate_two(1.0, two_scenario())
        assert xs.a == pytest.approx(0.05 * 0.75 * (1 - np.exp(-1)), abs=1e-14)

    def test_trace_one_and_positivity(self, rng):
        for _ in range(50):
            s = random_two_scenario(rng)
            xs = avg_xstate_two(rng.uniform(0, 8), s)
            assert xs.a + xs.b + xs.c + xs.d == pytest.approx(1.0, abs=1e-12)
            assert abs(xs.z) <= np.sqrt(xs.b * xs.c) + 1e-12
            validate_density(xstate_matrix(xs))

    def test_matches_monte_carlo(self):
        s = two_scenario(var_b=0.3)
        ts = np.linspace(0, 5, 60)
        mc = sample_ensemble(s, 10_000, 303, ts)
        xs = avg_xstate_two(ts, s)
        for name, exact in (("a", xs.a), ("b", xs.b), ("c", xs.c), ("d", xs.d),
                            ("re_z", xs.z.real), ("im_z", xs.z.imag)):
            dev = np.abs(mc.columns[name] - exact)
            bound = np.maximum(4.0 * mc.columns[name + "_se"], 1e-6)
            assert np.all(dev <= bound), name


class TestXStateGap:
    def test_matches_xstate_elements(self, rng):
        # random omega_a != 0 and var_b > 0; alpha near 1/2 and x in {0, 1} in turn
        worst = 0.0
        for i in range(500):
            s = gap_oracle_scenario(rng, i)
            ts = np.sort(rng.uniform(0.0, 12.0, 40))
            xs = avg_xstate_two(ts, s)
            exact = np.abs(xs.z) - np.sqrt(np.maximum(xs.a * xs.d, 0.0))
            worst = max(worst, np.abs(xstate_gap(ts, *gap_args(s)) - exact).max())
        assert worst <= 1e-12

    def test_validation_check_passes(self):
        assert check_gap_closed_form(50, np.random.default_rng(31)) <= 1e-12

    def test_per_cell_broadcast_equals_each_row(self, rng):
        scenarios = [random_two_scenario(rng) for _ in range(7)]
        cols = [np.array(col)[:, None] for col in zip(*map(gap_args, scenarios))]
        ts = np.linspace(0.0, 6.0, 33) * np.linspace(1.0, 2.0, 7)[:, None]
        table = xstate_gap(ts, *cols)
        for row, s, t in zip(table, scenarios, ts):
            assert np.array_equal(row, xstate_gap(t, *gap_args(s)))

    def test_value_at_zero_and_sign_of_tail(self):
        s = two_scenario(alpha=1.0, var_a=1.0)
        assert xstate_gap(0.0, *gap_args(s)) == 0.5
        assert xstate_gap(50.0, *gap_args(s)) < 0.0


# The sudden-death solver scans only the last phase turn before the
# zero-frequency root; that rests on g at any omega_a being at most g at
# omega_a = 0, float for float, not just up to rounding.
@settings(max_examples=200)
@given(t=st.floats(0.0, 1e3), alpha=st.floats(0.5, 20.0, exclude_min=True),
       var_a=st.floats(0.0, 100.0), var_b=st.floats(0.0, 100.0), xy=st.floats(0.0, 0.25),
       omega_a=st.floats(-1e3, 1e3))
def test_zero_frequency_gap_bounds_every_frequency(t, alpha, var_a, var_b, xy, omega_a):
    assert xstate_gap(t, alpha, var_a, var_b, omega_a, xy) <= xstate_gap(t, alpha, var_a, var_b, 0.0, xy)


class TestSpecialCases:
    def test_no_longitudinal_revivals(self):
        s = two_scenario(omega_a=3.0, alpha=1.0, var_a=0.0, var_b=0.0)
        for n in range(1, 4):
            t = n * np.pi / (1.0 * 3.0)
            z_abs, ad_root = special_zero_va(t, s)
            assert z_abs == pytest.approx(0.5, abs=1e-12)
            assert ad_root == pytest.approx(0.0, abs=1e-12)

    def test_no_longitudinal_quarter_period(self):
        alpha, wa = 1.3, 2.0
        s = two_scenario(omega_a=wa, alpha=alpha, var_a=0.0, var_b=0.0)
        # cos(2 alpha omega_a t) = 0 at t = pi / (4 alpha omega_a)
        z_abs, _ = special_zero_va(np.pi / (4 * alpha * wa), s)
        assert z_abs == pytest.approx(
            np.sqrt(2) / 4 * np.sqrt(1 + 1 / (4 * alpha**2)), abs=1e-12
        )

    def test_matches_general_formula(self):
        ts = np.linspace(0, 8, 200)
        for alpha, var_b in ((1.4, 0.0), (1.4, 0.5), (0.5, 0.0), (0.5, 0.5)):
            s = two_scenario(omega_a=3.0, alpha=alpha, var_a=0.0, var_b=var_b)
            z_abs, ad_root = special_zero_va(ts, s)
            xs = avg_xstate_two(ts, s)
            assert np.abs(z_abs - np.abs(xs.z)).max() <= 1e-12
            assert np.abs(ad_root - np.sqrt(np.maximum(xs.a * xs.d, 0))).max() <= 1e-12

    def test_transverse_only_decays_and_touches_zero(self):
        s = two_scenario(omega_a=3.0, alpha=1.0, var_a=0.0, var_b=0.5)
        z_abs, _ = special_zero_va(50.0, s)
        assert z_abs < 1e-200
        _, ad_root = special_zero_va(2 * np.pi / (2 * 1.0 * 3.0), s)
        assert ad_root == pytest.approx(0.0, abs=1e-12)

    def test_preconditions_enforced(self):
        with pytest.raises(ValueError):
            special_zero_va(1.0, two_scenario(var_a=0.5, var_b=0.0))


def test_concurrence_revival_without_relaxation():
    # alpha=1, omega_a=3, x=0.2, no noise: C returns to 1 at t = n pi / 3
    s = two_scenario(omega_a=3.0, alpha=1.0, var_a=0.0, var_b=0.0)
    for n in range(1, 4):
        xs = avg_xstate_two(n * np.pi / 3.0, s)
        assert concurrence_x(xs) == pytest.approx(1.0, abs=1e-12)
