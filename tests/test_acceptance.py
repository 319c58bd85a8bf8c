"""End-to-end acceptance criteria, one test per criterion, each printing a
PASS line with the measured quantity (run with `pytest -s tests/test_acceptance.py`
to see the report)."""

import math
import time

import numpy as np
import pytest

from conftest import scenario_gap, single_scenario, two_scenario
from hensim.analytic import (
    avg_coherence_single,
    avg_population_single,
    invert_thermal,
    steady_population,
    thermal_population,
)
from hensim.cli import main
from hensim.ensemble import sample_ensemble
from hensim.entanglement import concurrence_x, find_tc
from hensim.validation import (
    avg_xstate_two,
    check_concurrence_dual_path,
    check_mc_scaling,
    check_propagator_oracle,
    check_two_qubit_oracle,
    concurrence_general,
    random_two_scenario,
    xstate_matrix,
)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_propagator_oracle_equivalence():
    rng = np.random.default_rng(1)
    start = time.monotonic()
    # alpha in [0.5, 5], omega_a in [-5, 5]; the two-qubit cases follow on the same generator
    worst_single = check_propagator_oracle(1000, rng)
    worst_two = check_two_qubit_oracle(1000, rng)
    elapsed = time.monotonic() - start
    assert worst_single <= 1e-10
    assert worst_two <= 1e-10
    assert elapsed < 5.0
    report(1, f"single dev {worst_single:.2e}, two-qubit dev {worst_two:.2e}, {elapsed:.2f}s")


def test_criterion_2_fig1a_reproduction():
    start = time.monotonic()
    grid = np.linspace(0.0, 5.0, 400)
    plateaus = {1.0: 0.495, 0.8: 0.3168, 0.6: 0.1782}
    worst_point, worst_plateau = 0.0, 0.0
    for xb, plateau in plateaus.items():
        s = single_scenario(omega_a=0.0, alpha=5.0, xb=xb, variance=1.0)
        mc = sample_ensemble(s, 8000, 1000 + int(10 * xb), grid)
        dev = np.abs(mc.columns["rho_pp"] - avg_population_single(grid, s)).max()
        worst_point = max(worst_point, dev)
        tail = mc.columns["rho_pp"][grid >= 4.0].mean()
        worst_plateau = max(worst_plateau, abs(tail - plateau))
        assert steady_population(s.alpha, xb) == pytest.approx(plateau, abs=1e-12)
    elapsed = time.monotonic() - start
    assert worst_point <= 0.02
    assert worst_plateau <= 0.02
    assert elapsed < 30.0
    report(2, f"pointwise dev {worst_point:.4f}, plateau dev {worst_plateau:.4f}, {elapsed:.1f}s")


def test_criterion_3_fig2_reproduction():
    start = time.monotonic()
    s = single_scenario(omega_a=4.0, alpha=1.0, xb=0.9, variance=0.6)
    grid = np.linspace(0.0, 4.0, 400)
    mc = sample_ensemble(s, 5000, 2024, grid)
    dev_pop = np.abs(mc.columns["rho_pp"] - avg_population_single(grid, s)).max()
    dev_coh = np.abs(mc.columns["re_rho_pm"] - avg_coherence_single(grid, s).real).max()
    elapsed = time.monotonic() - start
    assert dev_pop <= 0.03
    assert dev_coh <= 0.03
    assert elapsed < 30.0
    report(3, f"population dev {dev_pop:.4f}, coherence dev {dev_coh:.4f}, {elapsed:.1f}s")


def test_criterion_4_thermal_round_trip():
    rng = np.random.default_rng(4)
    worst = 0.0
    for p in rng.uniform(0.0, 0.499, size=100):
        alpha, xb = invert_thermal(p)
        worst = max(worst, abs(steady_population(alpha, xb) - p))
    assert worst <= 1e-12
    exact = thermal_population(math.log(3))
    assert abs(exact - 0.25) <= 1e-15
    report(4, f"round-trip dev {worst:.2e}, P(ln 3) dev {abs(exact - 0.25):.2e}")


def test_criterion_5_concurrence_dual_path():
    rng = np.random.default_rng(5)
    worst = check_concurrence_dual_path(1000, rng)
    assert worst <= 1e-10

    def random_unitary():
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(m)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    worst_lu = 0.0
    for _ in range(100):
        s = random_two_scenario(rng)
        rho = xstate_matrix(avg_xstate_two(rng.uniform(0, 6), s))
        uv = np.kron(random_unitary(), random_unitary())
        worst_lu = max(
            worst_lu,
            abs(concurrence_general(uv @ rho @ uv.conj().T) - concurrence_general(rho)),
        )
    assert worst_lu <= 1e-10
    report(5, f"dual-path dev {worst:.2e}, local-unitary dev {worst_lu:.2e}")


def test_criterion_6_sudden_death_classification():
    start = time.monotonic()
    # (a) no finite t_c without a longitudinal channel or with a pure auxiliary state
    assert find_tc(two_scenario(alpha=0.5, var_a=1.0)).t_c is None
    assert find_tc(two_scenario(var_a=0.0, var_b=1.0)).t_c is None
    assert find_tc(two_scenario(x=0.0)).t_c is None

    # (b) finite t_c with verified zero concurrence beyond it
    for s in (two_scenario(alpha=1.0, var_a=1.0),
              two_scenario(alpha=1.5, var_a=0.5, var_b=0.5),
              two_scenario(omega_a=3.0, alpha=1.0, var_a=0.5, var_b=0.5)):
        res = find_tc(s)
        assert res.t_c is not None and res.t_c > 0
        assert abs(scenario_gap(res.t_c, s)) <= 1e-7
        t_end = max(2 * res.t_c, 10.0)
        verify = np.linspace(res.t_c, t_end, 1000)
        assert np.all(concurrence_x(avg_xstate_two(verify, s)) <= 1e-9)

    # (c) strict monotone decrease in alpha and variance on the zero-frequency grid
    alphas = np.linspace(0.8, 2.5, 5)
    variances = np.linspace(0.3, 2.0, 5)
    tc_grid = np.array([
        [find_tc(two_scenario(alpha=a, var_a=v)).t_c for v in variances] for a in alphas
    ])
    assert np.all(np.diff(tc_grid, axis=0) < 0)
    assert np.all(np.diff(tc_grid, axis=1) < 0)

    # (d) transverse noise accelerates sudden death
    tc_by_vb = [find_tc(two_scenario(var_b=vb)).t_c for vb in (0.0, 0.5, 2.0)]
    assert tc_by_vb[2] < tc_by_vb[1] < tc_by_vb[0]

    # (e) frequency barely moves t_c
    tcs = [find_tc(two_scenario(omega_a=wa, var_a=0.5, var_b=0.5)).t_c
           for wa in (0.0, 3.0, 6.0)]
    spread = (max(tcs) - min(tcs)) / min(tcs)
    assert spread < 0.10
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(6, f"grid strictly decreasing, vb ordering {tc_by_vb}, "
              f"frequency spread {spread:.3f}, {elapsed:.1f}s")


def test_criterion_7_monte_carlo_convergence_law():
    slope = check_mc_scaling(7)  # Fig. 1(b) middle curve at N = 100, 1000, 10000
    assert -0.6 <= slope <= -0.4
    report(7, f"fitted exponent {slope:+.3f}")


def test_criterion_8_determinism(tmp_path, monkeypatch):
    argv = ["relax", "--omega-a", "4", "--alpha", "1", "--xb", "0.9",
            "--var-eps-a", "0.6", "--t-max", "4", "--points", "200",
            "--samples", "2000", "--seed", "99"]
    blobs = []
    for i, workers in enumerate(("1", "2", "8")):
        monkeypatch.setenv("HENSIM_WORKERS", workers)
        out = tmp_path / f"run{i}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    argv2 = ["concurrence", "--x", "0.2", "--alpha", "1", "--var-eps-a", "0.5",
             "--var-eps-b", "0.5", "--t-max", "5", "--points", "100",
             "--samples", "300", "--seed", "42"]
    blobs2 = []
    for i, workers in enumerate(("1", "4")):
        monkeypatch.setenv("HENSIM_WORKERS", workers)
        out = tmp_path / f"conc{i}.csv"
        assert main(argv2 + ["--out", str(out)]) == 0
        blobs2.append(out.read_bytes())
    assert blobs2[0] == blobs2[1]
    report(8, "byte-identical outputs across worker counts 1/2/8")
