import os
import warnings

import numpy as np
import pytest

from conftest import single_scenario, two_scenario
from hensim.ensemble import (
    evolve_single_realization,
    evolve_two_realization,
    sample_ensemble,
    standard_normals,
    worker_count,
)
from hensim.scenarios import SingleQubitScenario, XState, coupling_c
from hensim.validation import (
    PAULI_Z,
    build_h_single,
    build_h_two,
    coupling_strength,
    matrix_exponential,
    propagator_single_closed,
    random_single_scenario,
    random_two_scenario,
    single_oracle_elements,
    two_oracle_xstate,
    validate_density,
    xstate_matrix,
)


def single_elements(eps, t, s):
    """(rho_pp, rho_pm) of one realization, with the complex rho_pm built from its real columns."""
    pp, re_pm, im_pm = evolve_single_realization(eps, t, s)
    return pp, re_pm + 1j * im_pm


def two_xstate(eps_a, eps_b, t, s) -> XState:
    """X state of one realization, with the complex z built from its real columns."""
    a, b, c, d, re_z, im_z = evolve_two_realization(eps_a, eps_b, t, s)
    return XState(a, b, c, d, z=re_z + 1j * im_z)


class TestCouplingStrength:
    def test_zero_detuning(self):
        assert coupling_strength(3.0, 2.0, 3.0) == 0.0

    def test_decoupled_boundary(self):
        assert coupling_strength(1.7, 0.5, 0.0) == 0.0

    def test_direct_value(self):
        assert coupling_strength(1.0, 1.0, 0.0) == pytest.approx(
            np.sqrt(3) / 2, abs=1e-15
        )


class TestBuildHSingle:
    def test_diagonal_at_zero_detuning(self):
        s = single_scenario(omega_a=2.0, alpha=1.5)
        h = build_h_single(2.0, s)
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0

    def test_conserved_parity(self, rng):
        zz = np.kron(PAULI_Z, PAULI_Z)
        for _ in range(20):
            s = random_single_scenario(rng)
            h = build_h_single(rng.uniform(-5, 5), s)
            assert np.abs(zz @ h - h @ zz).max() <= 1e-13

    def test_flip_flop_block(self):
        # omega_a=0, eps=1, alpha=1: {|+->, |-+>} block is [[-1/2, s3/2], [s3/2, 1/2]]
        s = single_scenario(omega_a=0.0, alpha=1.0)
        h = build_h_single(1.0, s)
        block = h[np.ix_([1, 2], [1, 2])]
        expected = np.array([[-0.5, np.sqrt(3) / 2], [np.sqrt(3) / 2, 0.5]])
        assert np.abs(block - expected).max() < 1e-15


class TestPropagatorClosed:
    def test_identity_at_t0(self):
        s = single_scenario()
        assert np.abs(propagator_single_closed(1.3, 0.0, s) - np.eye(4)).max() < 1e-15

    def test_decoupled_limit_diagonal(self):
        s = single_scenario(omega_a=2.0, alpha=1.5)
        u = propagator_single_closed(2.0, 0.7, s)  # f = 0, so E comes only from phases
        assert np.abs(u - np.diag(np.diag(u))).max() < 1e-15
        assert np.abs(np.abs(np.diag(u)) - 1.0).max() < 1e-14

    def test_matches_matrix_exponential(self, rng):
        worst = 0.0
        for _ in range(200):
            s = random_single_scenario(rng)
            eps, t = rng.uniform(-5, 5), rng.uniform(0, 10)
            u = propagator_single_closed(eps, t, s)
            worst = max(worst, np.abs(u - matrix_exponential(build_h_single(eps, s), t)).max())
            assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12
        assert worst <= 1e-10


class TestEvolveSingle:
    def test_initial_ground_state(self):
        pp, pm = single_elements(0.7, 0.0, single_scenario())
        assert pp == 0.0 and pm == 0.0

    def test_decoupled_alpha_half(self):
        s = single_scenario(alpha=0.5)
        pp, pm = single_elements(1.3, np.linspace(0, 5, 7), s)
        assert np.abs(pp).max() == 0.0
        assert np.abs(pm).max() == 0.0

    def test_exact_value_at_quarter_period(self):
        # omega_a=0, alpha=1, eps=1, xb=1, t=pi/2: population (3/8)(1 - cos(pi)) = 3/4
        s = single_scenario(omega_a=0.0, alpha=1.0, xb=1.0)
        pp, _ = single_elements(1.0, np.pi / 2, s)
        assert pp == pytest.approx(0.75, abs=1e-14)

    def test_matches_propagator_route(self, rng):
        for _ in range(100):
            s = random_single_scenario(rng)
            eps, t = rng.uniform(-5, 5), rng.uniform(0, 10)
            pp, pm = single_elements(eps, t, s)
            opp, opm = single_oracle_elements(eps, t, s)
            assert abs(pp - opp) <= 1e-10
            assert abs(pm - opm) <= 1e-10

    def test_realization_stays_pure(self, rng):
        for _ in range(20):
            s = random_single_scenario(rng)
            eps, t = rng.uniform(-5, 5), rng.uniform(0, 10)
            u = propagator_single_closed(eps, t, s)
            psi0 = np.kron([0, 1], [s.xb, s.yb]).astype(complex)
            rho = np.outer(u @ psi0, (u @ psi0).conj())
            assert abs(np.trace(rho @ rho) - 1.0) <= 1e-12


class TestBuildHTwo:
    def test_diagonal_when_decoupled(self):
        s = two_scenario(omega_a=1.0)
        h = build_h_two(1.0, 0.4, s)
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0

    def test_eigenvalues_match_blocks(self, rng):
        # spectrum equals the union of the single-qubit part and the B1 shift
        for _ in range(10):
            s = random_two_scenario(rng)
            eps_a, eps_b = rng.uniform(-5, 5, size=2)
            h = build_h_two(eps_a, eps_b, s)
            sub = single_scenario(omega_a=s.omega_a, alpha=s.alpha)
            # A-part in (A2, A1) order: swap the single-qubit builder's factors
            swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
            ha = swap @ build_h_single(eps_a, sub) @ swap
            wb = 0.5 * (s.omega_b + eps_b)
            expected = np.sort(np.concatenate([np.linalg.eigvalsh(ha) + wb,
                                               np.linalg.eigvalsh(ha) - wb]))
            assert np.abs(np.sort(np.linalg.eigvalsh(h)) - expected).max() <= 1e-12


class TestEvolveTwo:
    def test_initial_condition(self):
        s = two_scenario()
        xs = two_xstate(0.7, 0.3, 0.0, s)
        assert xs.a == 0.0 and xs.d == 0.0
        # b(0) = x/2 + y/2 and c(0) = y/2 + x/2: unit trace with a = d = 0
        assert xs.b == pytest.approx(0.5, abs=1e-15)
        assert xs.c == pytest.approx(0.5, abs=1e-15)
        assert xs.z == pytest.approx(0.5, abs=1e-15)

    def test_decoupled_alpha_half(self):
        s = two_scenario(alpha=0.5)
        ts = np.linspace(0, 5, 11)
        xs = two_xstate(1.3, 0.7, ts, s)
        assert np.abs(xs.a).max() == 0.0 and np.abs(xs.d).max() == 0.0
        assert np.abs(np.abs(xs.z) - 0.5).max() <= 1e-14

    def test_matches_full_propagator_route(self, rng):
        for _ in range(100):
            s = random_two_scenario(rng)
            eps_a, eps_b = rng.uniform(-5, 5, size=2)
            t = rng.uniform(0, 10)
            xs = two_xstate(eps_a, eps_b, t, s)
            rho = two_oracle_xstate(eps_a, eps_b, t, s)
            assert np.abs(xstate_matrix(xs) - rho).max() <= 1e-10

    def test_assembled_matrix_is_valid_density(self, rng):
        for _ in range(20):
            s = random_two_scenario(rng)
            xs = two_xstate(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 10), s)
            validate_density(xstate_matrix(xs))


class TestSeedStream:
    """The per-realization draws of standard_normals: draw j of realization i is f(seed, i, j)."""

    def test_reproducible(self):
        a = standard_normals(99, 5, 6, 20)
        b = standard_normals(99, 5, 6, 20)
        assert np.array_equal(a, b)

    def test_streams_uncorrelated(self):
        a = standard_normals(42, 0, 1, 10_000)[:, 0]
        b = standard_normals(42, 1, 2, 10_000)[:, 0]
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.05

    def test_gaussian_variance(self):
        v = 0.6
        draws = np.sqrt(v) * standard_normals(7, 3, 4, 1_000_000)[:, 0]
        assert draws.var() == pytest.approx(v, rel=0.01)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            standard_normals(1, -1, 0, 1)

    def test_independent_of_chunking(self):
        whole = standard_normals(2024, 0, 1000, 3)
        assert whole.shape == (3, 1000)
        assert np.array_equal(whole[:, 300:700], standard_normals(2024, 300, 700, 3))
        # draw j of a realization does not depend on how many draws are taken
        assert np.array_equal(whole[:2], standard_normals(2024, 0, 1000, 2))

    def test_sampler_raises_no_runtime_warning(self, monkeypatch):
        monkeypatch.setenv("HENSIM_WORKERS", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample_ensemble(two_scenario(var_b=0.5), 1100, 2**64 - 1, np.linspace(0, 5, 20))
            sample_ensemble(single_scenario(), 700, -3, np.linspace(0, 5, 20))


def complex_single(eps, t, s):
    """The complex-exponential closed form of (rho_pp, rho_pm) that the real kernel replaces."""
    t = np.asarray(t, dtype=float)
    c, alpha, det = coupling_c(s.alpha), s.alpha, eps - s.omega_a
    rho_pp = 0.5 * c**2 * abs(s.xb) ** 2 * (1.0 - np.cos(2.0 * alpha * det * t))
    rho_pm = (-1j * c * s.xb * np.conj(s.yb) * np.exp(-0.5j * (eps + s.omega_a) * t)
              * np.sin(alpha * det * t))
    return rho_pp, rho_pm


def complex_two(eps_a, eps_b, t, s):
    """The complex-exponential closed form of (a, b, c, d, z) that the real kernel replaces."""
    t = np.asarray(t, dtype=float)
    alpha, c2 = s.alpha, coupling_c(s.alpha) ** 2
    arg = alpha * (s.omega_a - eps_a) * t
    g2 = np.sin(arg) ** 2
    zeta = np.exp(-0.5j * (s.omega_a + eps_a + 2.0 * s.omega_b + 2.0 * eps_b) * t)
    return (0.5 * s.x * c2 * g2, 0.5 * s.x + 0.5 * s.y * (1.0 - c2 * g2),
            0.5 * s.y + 0.5 * s.x * (1.0 - c2 * g2), 0.5 * s.y * c2 * g2,
            0.5 * (s.x + s.y) * zeta * (np.cos(arg) - 1j * np.sin(arg) / (2.0 * alpha)))


class TestRealKernels:
    def test_single_matches_complex_form(self, rng):
        worst = 0.0
        for _ in range(200):
            s = random_single_scenario(rng)
            # give both amplitudes a phase, so that q = -i c xb conj(yb) is fully complex
            s = SingleQubitScenario(s.omega_a, s.alpha, s.xb * np.exp(1j * rng.uniform(0, 6.3)),
                                    s.yb * np.exp(1j * rng.uniform(0, 6.3)), s.var)
            eps, t = rng.uniform(-5, 5, size=(8, 1)), rng.uniform(0, 10, size=12)
            pp, re_pm, im_pm = evolve_single_realization(eps, t, s)
            opp, opm = complex_single(eps, t, s)
            worst = max(worst, np.abs(pp - opp).max(), np.abs(re_pm + 1j * im_pm - opm).max())
        assert worst <= 1e-15

    def test_two_matches_complex_form(self, rng):
        worst = 0.0
        for _ in range(200):
            s = random_two_scenario(rng)
            eps_a, eps_b = rng.uniform(-5, 5, size=(2, 8, 1))
            t = rng.uniform(0, 10, size=12)
            a, b, c, d, re_z, im_z = evolve_two_realization(eps_a, eps_b, t, s)
            oa, ob, oc, od, oz = complex_two(eps_a, eps_b, t, s)
            worst = max(worst, *(np.abs(x - y).max() for x, y in
                                 ((a, oa), (b, ob), (c, oc), (d, od), (re_z + 1j * im_z, oz))))
        assert worst <= 1e-15

    def test_scalars_give_0d_columns(self):
        cols = evolve_two_realization(0.7, 0.3, 1.1, two_scenario())
        assert len(cols) == 6 and all(np.shape(v) == () for v in cols)
        assert all(np.shape(v) == () for v in evolve_single_realization(0.7, 1.1, single_scenario()))


class TestWorkerCount:
    @pytest.mark.parametrize("value", ["abc", "0", "-2", "2.5", " 2", "1e3"])
    def test_rejects_non_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv("HENSIM_WORKERS", value)
        with pytest.raises(ValueError, match="^HENSIM_WORKERS must be a positive integer"):
            worker_count(4)

    def test_capped_at_chunk_count(self, monkeypatch):
        monkeypatch.setenv("HENSIM_WORKERS", "64")
        assert worker_count(3) == 3
        assert worker_count(1) == 1
        monkeypatch.setenv("HENSIM_WORKERS", "2")
        assert worker_count(10) == 2

    def test_default_is_cpu_count_capped(self, monkeypatch):
        monkeypatch.delenv("HENSIM_WORKERS", raising=False)
        assert worker_count(1) == 1
        assert worker_count(10_000) == (os.cpu_count() or 1)
        monkeypatch.setenv("HENSIM_WORKERS", "")
        assert worker_count(10_000) == (os.cpu_count() or 1)


class TestSampleEnsemble:
    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            sample_ensemble(single_scenario(), 0, 1, np.linspace(0, 1, 5))

    def test_degenerate_distribution_equals_deterministic(self):
        s = single_scenario(omega_a=2.0, alpha=1.3, variance=0.0)
        grid = np.linspace(0, 4, 33)
        traj = sample_ensemble(s, 50, 11, grid)
        pp, pm = single_elements(0.0, grid, s)
        assert np.abs(traj.columns["rho_pp"] - pp).max() <= 1e-14
        assert np.abs(traj.columns["re_rho_pm"] - pm.real).max() <= 1e-14
        assert np.abs(traj.columns["rho_pp_se"]).max() <= 1e-14

    def test_n1_equals_single_realization(self):
        s = single_scenario(omega_a=1.0, alpha=2.0, variance=0.7)
        grid = np.linspace(0, 3, 17)
        traj = sample_ensemble(s, 1, 123, grid)
        eps = np.sqrt(0.7) * standard_normals(123, 0, 1, 1)[0, 0]
        pp, _ = single_elements(eps, grid, s)
        assert np.abs(traj.columns["rho_pp"] - pp).max() <= 1e-15

    def test_worker_count_does_not_change_output(self, monkeypatch):
        s = two_scenario(var_b=0.5)
        grid = np.linspace(0, 5, 40)
        results = []
        for workers in ("1", "4"):
            monkeypatch.setenv("HENSIM_WORKERS", workers)
            results.append(sample_ensemble(s, 2000, 77, grid))
        for name in results[0].columns:
            assert np.array_equal(results[0].columns[name], results[1].columns[name])

    def test_averaged_single_state_is_valid_density(self):
        # 300 random realizations, assembled into the averaged working-qubit state
        s = single_scenario(omega_a=1.5, alpha=2.0, variance=1.0)
        grid = np.linspace(0, 5, 25)
        traj = sample_ensemble(s, 300, 5, grid)
        for i in range(len(grid)):
            pp = traj.columns["rho_pp"][i]
            pm = traj.columns["re_rho_pm"][i] + 1j * traj.columns["im_rho_pm"][i]
            validate_density(np.array([[pp, pm], [np.conj(pm), 1 - pp]]))

    def test_averaged_xstate_is_valid_density(self):
        s = two_scenario(var_b=0.3)
        grid = np.linspace(0, 5, 25)
        traj = sample_ensemble(s, 500, 9, grid)
        for i in range(len(grid)):
            rho = np.zeros((4, 4), dtype=complex)
            rho[0, 0] = traj.columns["b"][i]
            rho[1, 1] = traj.columns["a"][i]
            rho[2, 2] = traj.columns["d"][i]
            rho[3, 3] = traj.columns["c"][i]
            rho[0, 3] = traj.columns["re_z"][i] + 1j * traj.columns["im_z"][i]
            rho[3, 0] = np.conj(rho[0, 3])
            validate_density(rho)

    def test_meta_records_provenance(self):
        s = single_scenario()
        traj = sample_ensemble(s, 10, 321, np.linspace(0, 1, 3))
        assert traj.meta["source"] == "monte-carlo"
        assert traj.meta["n"] == 10
        assert traj.meta["seed"] == 321

    def test_meta_records_rng_scheme_and_chunk(self):
        traj = sample_ensemble(two_scenario(), 10, 321, np.linspace(0, 1, 3))
        assert traj.meta["rng"] == "splitmix64-boxmuller-v1"
        assert traj.meta["chunk"] == 512
