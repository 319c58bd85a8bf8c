import json
import math
import os
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import (
    random_single_scenario,
    random_two_scenario,
    single_scenario,
    stack,
    two_scenario,
)
from hensim import ensemble
from hensim.cli import EXIT_OK, main
from hensim.ensemble import (
    CHUNK,
    RNG,
    _blocks,
    _evolve,
    _in_order,
    _sine_factors,
    evolve_single_realization,
    evolve_two_realization,
    sample_ensemble,
    sampler_bytes,
    standard_normals,
    worker_count,
    workspace,
)
from hensim.analytic import avg_population_single
from hensim.scenarios import SingleQubitScenario, coupling_c, time_grid
from hensim.validation import (
    PAULI_Z,
    XState,
    _mc_deviation,
    assemble,
    build_h_single,
    build_h_two,
    coupling_strength,
    matrix_exponential,
    propagator_single_closed,
    single_oracle_elements,
    two_oracle_xstate,
    validate_density,
    xstate_diagonal,
    xstate_matrix,
)


U = 2.0**-53  # unit roundoff


def kernel(s, *eps, t_max, points):
    """The scenario's kernel's (real, complex) columns on the spacings ``eps``, in a workspace
    of exactly its rows."""
    evolve = evolve_single_realization if isinstance(s, SingleQubitScenario) else evolve_two_realization
    rows = math.prod(np.broadcast_shapes(*map(np.shape, eps), np.shape(t_max), (points,))[:-1])
    return assemble(evolve(*eps, t_max, points, s, workspace(rows, points)))


def factors(rows, m, b, theta, h):
    """_sine_factors of theta on new (rows, M, 2) and (rows, 2, B) arrays."""
    return _sine_factors(theta, h, np.empty((rows, m, 2)), np.empty((rows, 2, b)))


def single_elements(eps, t_max, points, s):
    """(rho_pp, rho_pm) of one realization on time_grid(t_max, points)."""
    return kernel(s, eps, t_max=t_max, points=points)


def single_at(eps, t, s):
    """single_elements at one time t, as the last point of the 2-point grid [0, t]."""
    return tuple(v[..., 1] for v in single_elements(eps, t, 2, s))


def two_xstate(eps_a, eps_b, t_max, points, s) -> XState:
    """X state of one realization on time_grid(t_max, points), its diagonal from the kernel's gamma^2."""
    gamma2, z = kernel(s, eps_a, eps_b, t_max=t_max, points=points)
    return XState(*xstate_diagonal(gamma2, s), z=z)


def two_at(eps_a, eps_b, t, s) -> XState:
    """two_xstate at one time t, as the last point of the 2-point grid [0, t]."""
    xs = two_xstate(eps_a, eps_b, t, 2, s)
    return XState(*(getattr(xs, name)[..., 1] for name in "abcdz"))


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
        pp, pm = single_at(0.7, 0.0, single_scenario())
        assert pp == 0.0 and pm == 0.0

    def test_decoupled_alpha_half(self):
        s = single_scenario(alpha=0.5)
        pp, pm = single_elements(1.3, 5.0, 7, s)
        assert np.abs(pp).max() == 0.0
        assert np.abs(pm).max() == 0.0

    def test_exact_value_at_quarter_period(self):
        # omega_a=0, alpha=1, eps=1, xb=1, t=pi/2: population (3/8)(1 - cos(pi)) = 3/4
        s = single_scenario(omega_a=0.0, alpha=1.0, xb=1.0)
        pp, _ = single_at(1.0, np.pi / 2, s)
        assert pp == pytest.approx(0.75, abs=1e-14)

    def test_matches_propagator_route(self, rng):
        for _ in range(100):
            s = random_single_scenario(rng)
            eps, t = rng.uniform(-5, 5), rng.uniform(0, 10)
            pp, pm = single_at(eps, t, s)
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
            wb = 0.5 * eps_b
            expected = np.sort(np.concatenate([np.linalg.eigvalsh(ha) + wb,
                                               np.linalg.eigvalsh(ha) - wb]))
            assert np.abs(np.sort(np.linalg.eigvalsh(h)) - expected).max() <= 1e-12


class TestEvolveTwo:
    def test_initial_condition(self):
        s = two_scenario()
        xs = two_at(0.7, 0.3, 0.0, s)
        assert xs.a == 0.0 and xs.d == 0.0
        # b(0) = x/2 + y/2 and c(0) = y/2 + x/2: unit trace with a = d = 0
        assert xs.b == pytest.approx(0.5, abs=1e-15)
        assert xs.c == pytest.approx(0.5, abs=1e-15)
        assert xs.z == pytest.approx(0.5, abs=1e-15)

    def test_decoupled_alpha_half(self):
        s = two_scenario(alpha=0.5)
        xs = two_xstate(1.3, 0.7, 5.0, 11, s)
        assert np.abs(xs.a).max() == 0.0 and np.abs(xs.d).max() == 0.0
        assert np.abs(np.abs(xs.z) - 0.5).max() <= 1e-14

    def test_matches_full_propagator_route(self, rng):
        for _ in range(100):
            s = random_two_scenario(rng)
            eps_a, eps_b = rng.uniform(-5, 5, size=2)
            t = rng.uniform(0, 10)
            xs = two_at(eps_a, eps_b, t, s)
            rho = two_oracle_xstate(eps_a, eps_b, t, s)
            assert np.abs(xstate_matrix(xs) - rho).max() <= 1e-10

    def test_assembled_matrix_is_valid_density(self, rng):
        for _ in range(20):
            s = random_two_scenario(rng)
            xs = two_at(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 10), s)
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

    # Known answers of the splitmix64-boxmuller-v1 stream and of the chunked
    # reduction: a change to either changes these digits, even where the
    # statistics still hold. The slack covers numpy's SIMD sin, cos and log,
    # which may differ by an ulp between CPUs.
    def test_known_normals(self):
        expected = [1.261492204096212, 0.6600643340891037, -0.764635989528546, 0.11736995063103073,
                    0.05944391063385891, 0.3871334213079332, 1.5314120460843554, -1.1065805608172916]
        got = standard_normals(2024, 0, 4, 2)
        assert got.shape == (2, 4)
        np.testing.assert_allclose(got.ravel(), expected, rtol=0.0, atol=1e-13)

    # re_z's digits are the direct mean of complex_two's z over the 600
    # realizations' draws, not the sampler's own output
    def test_known_two_chunk_means(self):
        s = two_scenario(omega_a=0.7, alpha=1.2, x=0.3, var_a=0.5, var_b=0.4)
        mc = sample_ensemble(s, 600, 2024, 3.0, 5)  # chunks of 512 and 88 realizations
        np.testing.assert_allclose(
            mc["gamma2"], [0.0, 0.41918954265174063, 0.5193182746843771, 0.48521653078591326,
                           0.493819858201296], rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(
            mc["re_z"], [0.5, 0.26347742902799576, -0.01926494254862904, -0.061446454197074465,
                         -0.02739435176167292], rtol=0.0, atol=1e-13)

    def test_sampler_raises_no_runtime_warning(self, monkeypatch):
        monkeypatch.setenv("HENSIM_WORKERS", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample_ensemble(two_scenario(var_b=0.5), 1100, 2**64 - 1, 5.0, 20)
            sample_ensemble(single_scenario(), 700, 2**64 - 3, 5.0, 20)


def complex_single(eps, t, s):
    """The complex-exponential closed form of (rho_pp, rho_pm) that the real kernel replaces."""
    t = np.asarray(t, dtype=float)
    c, alpha, det = coupling_c(s.alpha), s.alpha, eps - s.omega_a
    rho_pp = 0.5 * c**2 * abs(s.xb) ** 2 * (1.0 - np.cos(2.0 * alpha * det * t))
    rho_pm = (-1j * c * s.xb * s.yb * np.exp(-0.5j * (eps + s.omega_a) * t)
              * np.sin(alpha * det * t))
    return rho_pp, rho_pm


def complex_two(eps_a, eps_b, t, s):
    """The complex-exponential closed form of (a, b, c, d, z) that the real kernel replaces."""
    t = np.asarray(t, dtype=float)
    alpha, c2 = s.alpha, coupling_c(s.alpha) ** 2
    arg = alpha * (s.omega_a - eps_a) * t
    g2 = np.sin(arg) ** 2
    zeta = np.exp(-0.5j * (s.omega_a + eps_a + 2.0 * eps_b) * t)
    return (0.5 * s.x * c2 * g2, 0.5 * s.x + 0.5 * s.y * (1.0 - c2 * g2),
            0.5 * s.y + 0.5 * s.x * (1.0 - c2 * g2), 0.5 * s.y * c2 * g2,
            0.5 * (s.x + s.y) * zeta * (np.cos(arg) - 1j * np.sin(arg) / (2.0 * alpha)))


class TestRealKernels:
    # each random time t is the last point of the 2-point grid [0, t], whose
    # phases multiply the pointwise ones by e^0 = 1, exactly
    def test_single_matches_complex_form(self, rng):
        worst = 0.0
        for _ in range(200):
            # xb = mag e^{i phase} is drawn with a random phase, so that
            # q = -i c xb yb is fully complex
            s = random_single_scenario(rng)
            eps, ts = rng.uniform(-5, 5, size=(8, 1)), rng.uniform(0, 10, size=12)
            for t in ts:
                pp, pm = (v[:, 1:] for v in single_elements(eps, t, 2, s))
                opp, opm = complex_single(eps, t, s)
                worst = max(worst, np.abs(pp - opp).max(), np.abs(pm - opm).max())
        assert worst <= 1e-15

    def test_two_matches_complex_form(self, rng):
        worst = 0.0
        for _ in range(200):
            s = random_two_scenario(rng)
            eps_a, eps_b = rng.uniform(-5, 5, size=(2, 8, 1))
            ts = rng.uniform(0, 10, size=12)
            for t in ts:
                xs = two_xstate(eps_a, eps_b, t, 2, s)
                oa, ob, oc, od, oz = complex_two(eps_a, eps_b, t, s)
                worst = max(worst, *(np.abs(getattr(xs, name)[:, 1:] - y).max() for name, y in
                                     zip("abcdz", (oa, ob, oc, od, oz))))
        assert worst <= 1e-15

    # On a whole grid each phase lies within _sine_factors' bound
    # (4 |theta| t + 11) u of the pointwise one, times its scale (|q| and
    # (x + y)/2 are at most 1/2). The sine enters rho_pp, a and d squared, at
    # most twice its own bound, and rho_pm and z together with the other
    # phase. The closed forms round a few times more after the phases: 8u
    # covers them, so 2 (4 (|theta_1| + |theta_2|) t + 11) u + 8u bounds
    # every column.
    @pytest.mark.parametrize("n", [2, 21, 400, 401])
    def test_single_grid_matches_complex_form(self, rng, n):
        for _ in range(20):
            s = random_single_scenario(rng)
            eps, t_max = rng.uniform(-5, 5, size=(8, 1)), rng.uniform(0.5, 10)
            grid = time_grid(t_max, n)
            pp, pm = single_elements(eps, t_max, n, s)
            opp, opm = complex_single(eps, grid, s)
            theta = np.abs(s.alpha * (eps - s.omega_a)) + np.abs(0.5 * (eps + s.omega_a))
            bound = (8.0 * theta * grid + 30.0) * U
            assert np.all(np.abs(pp - opp) <= bound)
            assert np.all(np.abs(pm - opm) <= bound)

    @pytest.mark.parametrize("n", [2, 21, 400, 401])
    def test_two_grid_matches_complex_form(self, rng, n):
        for _ in range(20):
            s = random_two_scenario(rng)
            eps_a, eps_b = rng.uniform(-5, 5, size=(2, 8, 1))
            t_max = rng.uniform(0.5, 10)
            grid = time_grid(t_max, n)
            xs = two_xstate(eps_a, eps_b, t_max, n, s)
            oa, ob, oc, od, oz = complex_two(eps_a, eps_b, grid, s)
            theta = (np.abs(s.alpha * (s.omega_a - eps_a))
                     + np.abs(0.5 * (s.omega_a + eps_a + 2.0 * eps_b)))
            bound = (8.0 * theta * grid + 30.0) * U
            for name, y in zip("abcdz", (oa, ob, oc, od, oz)):
                assert np.all(np.abs(getattr(xs, name) - y) <= bound)

    @pytest.mark.parametrize("n", [2, 3, 19, 20, 21, 400, 401])
    def test_columns_are_grid_shaped_views_of_padded_buffers(self, n):
        # scalar spacings give (n,) columns and a column of R spacings (R, n):
        # three real columns, each filled into the first R rows of the
        # workspace's one column buffer, which pads the grid to at most
        # n + B - 1 points, next to factors of 6 M + 10 B reals per row:
        # sampler_bytes of one chunk on one thread, less the 48-byte partials
        # per grid point of two chunks ahead and the fold
        m, b = _blocks(n)
        assert n <= m * b <= n + b - 1
        for evolve, k, s in ((evolve_single_realization, 1, single_scenario()),
                             (evolve_two_realization, 2, two_scenario(var_b=0.5))):
            ws = workspace(8, n)
            assert all(v.dtype.kind == "f" and len(v) == 8 and v.flags.c_contiguous for v in ws)
            assert ws[0].shape == (8, m * b)
            assert sum(v.nbytes for v in ws) == 8 * (8 * m * b + 8 * (6 * m + 10 * b))
            assert sampler_bytes(8, n) == (1, sum(v.nbytes for v in ws) + 3 * 48 * n)
            assert [col.shape for col in evolve(*[0.7] * k, 3.0, n, s, ws)] == [(n,)] * 3
            for col in evolve(*[np.full((5, 1), 0.7)] * k, 3.0, n, s, ws):
                assert (col.shape, col.dtype.kind) == ((5, n), "f")
                assert np.shares_memory(col, ws[0][:5]) and not np.shares_memory(col, ws[0][5:])

    @pytest.mark.parametrize("two", [False, True], ids=["single", "two"])
    def test_kernel_yields_its_columns_one_at_a_time_into_one_buffer(self, rng, two):
        # a kernel call returns an iterator over its three columns, each filled
        # into the workspace's one column buffer when it is yielded: the view
        # yielded first holds, after each next(), the column just yielded,
        # each within 1e-13 of the pointwise form of the kernel's docstring
        n, grid = 30, time_grid(3.0, 30)
        if two:
            s = two_scenario(omega_a=0.4, alpha=1.3, var_b=0.5)
            eps = eps_a, eps_b = rng.uniform(-2.0, 2.0, size=(2, 6, 1))
            angle = s.alpha * (s.omega_a - eps_a) * grid
            u = 0.5 * (s.x + s.y)
            cplx = u * np.exp(-0.5j * (s.omega_a + eps_a + 2.0 * eps_b) * grid) * (
                np.cos(angle) - 0.5j * np.sin(angle) / s.alpha)
            real, evolve = np.sin(angle) ** 2, evolve_two_realization
        else:
            s = single_scenario(omega_a=0.4, alpha=1.3)
            eps = (rng.uniform(-2.0, 2.0, size=(6, 1)),)
            angle, c = s.alpha * (eps[0] - s.omega_a) * grid, coupling_c(s.alpha)
            cplx = -1j * c * s.xb * s.yb * np.exp(-0.5j * (eps[0] + s.omega_a) * grid) * np.sin(angle)
            real, evolve = c**2 * abs(s.xb) ** 2 * np.sin(angle) ** 2, evolve_single_realization
        ws = workspace(6, n)
        columns = evolve(*eps, 3.0, n, s, ws)
        assert iter(columns) is columns
        first = next(columns)
        assert np.shares_memory(first, ws[0]) and np.abs(first - real).max() <= 1e-13
        for form in (cplx.real, cplx.imag):
            col = next(columns)
            assert np.shares_memory(col, first) and np.array_equal(col, first)
            assert np.abs(first - form).max() <= 1e-13
        with pytest.raises(StopIteration):
            next(columns)

    @pytest.mark.parametrize("two", [False, True], ids=["single", "two"])
    def test_complex_factors_wait_for_the_first_complex_column(self, two):
        # the coarse and fine factors of the complex column (chi's factors,
        # their products with theta's and the mix) are built by the next()
        # that yields Re z: a kernel advanced past its real column only leaves
        # those buffers as they were, here NaN, and the next one fills them
        s, k = (two_scenario(var_b=0.5), 2) if two else (single_scenario(), 1)
        evolve = evolve_two_realization if two else evolve_single_realization
        ws = workspace(6, 30)
        complex_factors = ws[3:]  # coarse, fine_re, fine_im
        for w in complex_factors:
            w.fill(np.nan)
        columns = evolve(*[np.full((6, 1), 0.7)] * k, 3.0, 30, s, ws)
        assert np.all(np.isfinite(next(columns)))
        assert all(np.isnan(w).all() for w in complex_factors)
        next(columns)
        assert not any(np.isnan(w).any() for w in complex_factors)


class TestFactors:
    # B = ceil(sqrt(n)) is 20 at the benchmark's 400 points: 19, 20 and 21
    # points are one short of, exactly and one past a block of that size.
    # 400 and 401 points carry no padding and 19 columns of it
    @pytest.mark.parametrize("n", [2, 3, 19, 20, 21, 400, 401, 1001])
    @pytest.mark.parametrize("theta_t", [1e-3, 1.0, 40.0, 1e3])
    def test_factors_assemble_the_pointwise_phase(self, rng, n, theta_t):
        # theta_t is the largest |chi| t_max: the coarse cos + i sin times the
        # fine one lies within _sine_factors' bound (4 |chi| t + 11) u of
        # np.exp(1j chi t), point by point
        grid = np.linspace(0.0, rng.uniform(0.5, 20.0), n)
        chi = rng.uniform(-1.0, 1.0, size=(16, 1)) * theta_t / grid[-1]
        m, b = _blocks(n)
        left, right = factors(16, m, b, chi, grid[1])
        coarse, fine = left[..., 1] + 1j * left[..., 0], right[:, 0] + 1j * right[:, 1]
        phase = (coarse[:, :, None] * fine[:, None, :]).reshape(16, m * b)[:, :n]
        dev = np.abs(phase - np.exp(1j * chi * grid))
        assert np.all(dev <= (4.0 * np.abs(chi) * grid + 11.0) * U)

    @pytest.mark.parametrize("n", [2, 3, 19, 20, 21, 400, 401, 1001])
    @pytest.mark.parametrize("theta_t", [1e-3, 1.0, 40.0, 1e3])
    @pytest.mark.parametrize("field_rows", [False, True], ids=["fields", "field_cols"])
    def test_evolve_matches_the_pointwise_form(self, rng, n, theta_t, field_rows):
        # theta_t is the largest |theta| t_max and |chi| t_max; scale, u and v
        # are scalars or (R, 1) columns. The complex column lies within the
        # bound derived in _evolve's docstring, (|u| + |v|) (4 (|theta| + |chi|) t + 35) u,
        # of the pointwise form, and the real column is scale times the
        # square of _sine_factors' sine, bit for bit
        grid = np.linspace(0.0, rng.uniform(0.5, 20.0), n)
        theta, chi = rng.uniform(-1.0, 1.0, size=(2, 16, 1)) * theta_t / grid[-1]
        size = (16, 1) if field_rows else ()
        scale = rng.uniform(0.0, 1.0, size=size)
        u, v = rng.uniform(0.0, 0.5, size=(2, *size)) * np.exp(1j * rng.uniform(0.0, 6.3, size=(2, *size)))
        m, b = _blocks(n)
        real, cplx = assemble(_evolve(workspace(16, n), (16, n), grid[1], theta, chi, scale, u, v))
        assert real.shape == cplx.shape == (16, n)
        form = np.exp(1j * chi * grid) * (u * np.cos(theta * grid) + v * np.sin(theta * grid))
        bound = (np.abs(u) + np.abs(v)) * (4.0 * (np.abs(theta) + np.abs(chi)) * grid + 35.0) * U
        assert np.all(np.abs(cplx - form) <= bound)
        sine = np.matmul(*factors(16, m, b, theta, grid[1])).reshape(16, m * b)[:, :n]
        assert np.array_equal(real, np.square(sine) * scale)

    @pytest.mark.parametrize("n", [2, 3, 19, 20, 21, 400, 401])
    @pytest.mark.parametrize("theta_rows", [False, True], ids=["theta", "theta_col"])
    @pytest.mark.parametrize("h_rows", [False, True], ids=["h", "h_col"])
    def test_sine_factors_multiply_to_the_pointwise_sine(self, rng, n, theta_rows, h_rows):
        # a scalar or an (R, 1) column each of theta and h: the factors' matmul
        # lies within _sine_factors' bound (4 |theta| t + 11) u of
        # np.sin(theta t_k) on time_grid
        t_max = rng.uniform(0.5, 20.0, size=(16, 1)) if h_rows else rng.uniform(0.5, 20.0)
        grid = np.array([time_grid(t, n) for t in np.broadcast_to(t_max, (16, 1))[:, 0]])
        theta = rng.uniform(-100.0, 100.0, size=(16, 1) if theta_rows else ()) / t_max
        m, b = _blocks(n)
        left, right = factors(16, m, b, theta, t_max / (n - 1))
        assert left.shape == (16, m, 2) and right.shape == (16, 2, b)
        assert left.flags.c_contiguous and right.flags.c_contiguous
        sine = np.matmul(left, right).reshape(16, m * b)[:, :n]
        assert np.all(np.abs(sine - np.sin(theta * grid)) <= (4.0 * np.abs(theta) * grid + 11.0) * U)


class TestStackOfCases:
    # R cases, each with its own scenario, spacings and grid: the kernels take
    # the scenarios as one record of (R, 1) columns and the grids' ends as an
    # (R, 1) column t_max, and match R one-row calls. rho_pp
    # is not bit-equal to them: numpy's array abs of a complex xb can round one
    # ulp off Python's abs of the record's xb
    R = 37

    def cases(self, rng, n, random_scenario):
        records = [random_scenario(rng) for _ in range(self.R)]
        return records, stack(records), rng.uniform(0.5, 10.0, (self.R, 1))

    @pytest.mark.parametrize("n", [2, 30])
    def test_single_matches_one_row_calls(self, rng, n):
        records, s, t_max = self.cases(rng, n, random_single_scenario)
        eps = rng.uniform(-5, 5, size=(self.R, 1))
        stacked = assemble(evolve_single_realization(eps, t_max, n, s, workspace(self.R, n)))
        assert [v.shape for v in stacked] == [(self.R, n)] * 2
        for r, record in enumerate(records):
            for col, row in zip(stacked, single_elements(eps[r, 0], t_max[r, 0], n, record)):
                assert np.abs(col[r] - row).max() <= 1e-15

    @pytest.mark.parametrize("n", [2, 30])
    def test_two_matches_one_row_calls(self, rng, n):
        records, s, t_max = self.cases(rng, n, random_two_scenario)
        eps_a, eps_b = rng.uniform(-5, 5, size=(2, self.R, 1))
        gamma2, z = assemble(evolve_two_realization(eps_a, eps_b, t_max, n, s, workspace(self.R, n)))
        assert gamma2.shape == z.shape == (self.R, n)
        diagonal = xstate_diagonal(gamma2, s)
        for r, record in enumerate(records):
            one = XState(*(v[r] for v in diagonal), z=z[r])
            row = two_xstate(eps_a[r, 0], eps_b[r, 0], t_max[r, 0], n, record)
            for name in "abcdz":
                assert np.abs(getattr(one, name) - getattr(row, name)).max() <= 1e-15


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
        # unset or empty: the CPUs the process may run on (taskset -c 0 leaves
        # one of a machine's CPUs), else the CPU count where the OS keeps no mask
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        monkeypatch.delenv("HENSIM_WORKERS", raising=False)
        assert worker_count(1) == 1
        assert worker_count(10_000) == (usable or 1)
        monkeypatch.setenv("HENSIM_WORKERS", "")
        assert worker_count(10_000) == (usable or 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert worker_count(10_000) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert worker_count(10_000) == 8 and worker_count(3) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count(10_000) == 1


class TestSampleEnsemble:
    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            sample_ensemble(single_scenario(), 0, 1, 1.0, 5)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_key_space_rejected(self, seed):
        # the streams are keyed by a 64-bit word: a wider seed could only wrap
        # onto the streams of another seed
        with pytest.raises(ValueError, match="seed must lie in"):
            sample_ensemble(single_scenario(), 10, seed, 1.0, 5)

    def test_degenerate_distribution_equals_deterministic(self):
        s = single_scenario(omega_a=2.0, alpha=1.3, variance=0.0)
        traj = sample_ensemble(s, 50, 11, 4.0, 33)
        pp, pm = single_elements(0.0, 4.0, 33, s)
        assert np.abs(traj["rho_pp"] - pp).max() <= 1e-14
        assert np.abs(traj["re_rho_pm"] - pm.real).max() <= 1e-14
        assert np.abs(traj["rho_pp_se"]).max() <= 1e-14

    def test_n1_equals_single_realization(self):
        s = single_scenario(omega_a=1.0, alpha=2.0, variance=0.7)
        traj = sample_ensemble(s, 1, 123, 3.0, 17)
        eps = np.sqrt(0.7) * standard_normals(123, 0, 1, 1)[0, 0]
        pp, _ = single_elements(eps, 3.0, 17, s)
        assert np.abs(traj["rho_pp"] - pp).max() <= 1e-15

    def test_worker_count_does_not_change_output(self, monkeypatch):
        s = two_scenario(var_b=0.5)
        results = []
        for workers in ("1", "4"):
            monkeypatch.setenv("HENSIM_WORKERS", workers)
            results.append(sample_ensemble(s, 2000, 77, 5.0, 40))
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_two_qubit_uneven_last_chunk_matches_direct_statistics(self, monkeypatch, workers):
        # 700 = 512 + 188 realizations: the last chunk runs on the first 188
        # rows of a workspace. Each of the 6 columns is the direct mean or
        # standard error over the same draws, to 1e-15; gamma^2's, up to 1,
        # to 16 U (its mean differs by 10 U: the chunk sums and numpy's
        # pairwise sum round apart)
        monkeypatch.setenv("HENSIM_WORKERS", workers)
        s, n = two_scenario(omega_a=1.5, alpha=1.7, x=0.3, var_b=0.4), 700
        mc = sample_ensemble(s, n, 61, 5.0, 400)
        za, zb = standard_normals(61, 0, n, 2)
        gamma2, z = kernel(s, math.sqrt(s.var_a) * za[:, None], math.sqrt(s.var_b) * zb[:, None],
                           t_max=5.0, points=400)
        direct = {"gamma2": gamma2, "re_z": z.real, "im_z": z.imag}
        assert set(mc) == {*direct, *(name + "_se" for name in direct)}
        for name, v in direct.items():
            bound = 16 * U if name == "gamma2" else 1e-15
            assert np.abs(mc[name] - v.mean(axis=0)).max() <= bound, name
            assert np.abs(mc[name + "_se"] - v.std(axis=0, ddof=1) / math.sqrt(n)).max() <= bound, name

    def test_folded_chunks_match_direct_statistics(self, monkeypatch):
        # 4 CHUNK + 100 realizations fold 5 chunks, the last short, into
        # running sums and squared deviations: each column is the direct mean
        # or standard error over the same draws
        monkeypatch.setenv("HENSIM_WORKERS", "2")
        s, n = single_scenario(omega_a=1.5, alpha=1.7, variance=0.6), 4 * CHUNK + 100
        mc = sample_ensemble(s, n, 5, 5.0, 30)
        eps = math.sqrt(s.var) * standard_normals(5, 0, n, 1)[0][:, None]
        pp, pm = kernel(s, eps, t_max=5.0, points=30)
        for name, v in {"rho_pp": pp, "re_rho_pm": pm.real, "im_rho_pm": pm.imag}.items():
            assert np.abs(mc[name] - v.mean(axis=0)).max() <= 1e-15, name
            assert np.abs(mc[name + "_se"] - v.std(axis=0, ddof=1) / math.sqrt(n)).max() <= 1e-15, name

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("scenario", [single_scenario(omega_a=1.5, alpha=1.7, variance=0.6),
                                          two_scenario(omega_a=1.5, alpha=1.7, x=0.3, var_b=0.4)],
                             ids=["single", "two"])
    def test_named_keys_keep_the_default_calls_bits(self, monkeypatch, scenario, workers):
        # 1,100 realizations fold 3 chunks; whatever subset of the six keys is
        # named, the call returns exactly those keys, each with the bits of
        # the default call's value
        monkeypatch.setenv("HENSIM_WORKERS", workers)
        default = sample_ensemble(scenario, 1100, 13, 5.0, 40)
        real, re, im = list(default)[::2]
        assert list(default) == [real, f"{real}_se", re, f"{re}_se", im, f"{im}_se"]
        subsets = [(real,), (f"{re}_se",), (im,), (real, re, im), (f"{real}_se", im),
                   (re, f"{im}_se"), tuple(default)]
        for names in subsets:
            named = sample_ensemble(scenario, 1100, 13, 5.0, 40, names=names)
            assert set(named) == set(names)
            for key, value in named.items():
                assert np.array_equal(value, default[key]), (names, key)

    @pytest.mark.parametrize("names, advanced, spread", [
        (("gamma2",), 1, 0), (("gamma2_se", "re_z"), 2, 1), (("im_z",), 3, 0),
        (("gamma2", "re_z", "im_z"), 3, 0), (None, 3, 3)])
    def test_a_chunk_reduces_only_what_its_names_need(self, monkeypatch, names, advanced, spread):
        # each of 3 chunks takes from its kernel the columns up to the last
        # that a named key needs, and runs the squared-deviation einsum only
        # for the columns whose _se is named
        monkeypatch.setenv("HENSIM_WORKERS", "1")
        taken, einsums = [], []

        def counted(*args, kernel=ensemble.evolve_two_realization):
            for column in kernel(*args):
                taken.append(1)
                yield column

        def einsum(*args, einsum=np.einsum, **kwargs):
            einsums.append(1)
            return einsum(*args, **kwargs)

        monkeypatch.setattr(ensemble, "evolve_two_realization", counted)
        monkeypatch.setattr(ensemble.np, "einsum", einsum)
        sample_ensemble(two_scenario(var_b=0.5), 1100, 3, 5.0, 30, names=names)
        assert (len(taken), len(einsums)) == (3 * advanced, 3 * spread)

    @pytest.mark.parametrize("scenario, names", [
        (single_scenario(), ["rho_pp", "rho"]),
        (single_scenario(), ["gamma2"]),
        (two_scenario(var_b=0.5), ["re_rho_pm_se"]),
        (two_scenario(var_b=0.5), []),
    ], ids=["unknown", "two-key-on-single", "single-key-on-two", "empty"])
    def test_names_outside_the_six_keys_rejected(self, scenario, names):
        # the message lists the scenario type's six keys
        keys = list(sample_ensemble(scenario, 2, 1, 1.0, 3))
        with pytest.raises(ValueError, match="names must be a nonempty subset of") as err:
            sample_ensemble(scenario, 2, 1, 1.0, 3, names=names)
        assert ", ".join(keys) in str(err.value)

    def test_mc_deviation_reads_the_default_calls_population(self):
        # validate's Monte Carlo checks name rho_pp alone; their deviation is
        # that of the default call's rho_pp, bit for bit
        s = SingleQubitScenario(omega_a=0.0, alpha=5.0, xb=0.8, var=1.0)
        for n, points in ((1000, 200), (1100, 400)):
            mc = sample_ensemble(s, n, 7, 5.0, points)
            expected = np.abs(mc["rho_pp"] - avg_population_single(time_grid(5.0, points), s)).max()
            assert _mc_deviation(n, 7, points) == expected

    def test_results_wait_at_most_the_window(self):
        # _in_order yields in order and submits at most `ahead` items past
        # the one it yields
        submitted = []

        class Pool(ThreadPoolExecutor):
            def submit(self, fn, *args):
                submitted.append(args[0])
                return super().submit(fn, *args)

        with Pool(max_workers=2) as pool:
            for i, got in enumerate(_in_order(pool, lambda k: k * k, range(20), 4)):
                assert got == i * i and len(submitted) <= i + 4
        assert submitted == list(range(20))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_thread_allocates_one_workspace_per_call(self, monkeypatch, workers):
        # 5 chunks on `workers` threads: one workspace of min(CHUNK, n) rows each
        monkeypatch.setenv("HENSIM_WORKERS", str(workers))
        made = []

        def counted(rows, points):
            made.append(rows)
            return workspace(rows, points)

        monkeypatch.setattr("hensim.ensemble.workspace", counted)
        sample_ensemble(two_scenario(var_b=0.5), 4 * CHUNK + 100, 3, 5.0, 30)
        assert 1 <= len(made) <= workers and set(made) == {CHUNK}
        made.clear()
        sample_ensemble(single_scenario(), 100, 3, 5.0, 30)
        assert made == [100]

    @pytest.mark.parametrize("scenario", [single_scenario(), two_scenario(var_b=0.5)],
                             ids=["single", "two"])
    def test_sampler_bytes_counts_most_of_the_traced_peak(self, monkeypatch, scenario):
        # 1,100 realizations are 3 chunks on one thread: its workspace of 512
        # rows (400 points and 6 x 20 + 10 x 20 factor reals at 8 bytes per
        # row) and the partials of the 2 chunks ahead and the fold at 400
        # points. Their traced peak adds a few % of other per-chunk scratch
        monkeypatch.setenv("HENSIM_WORKERS", "1")
        threads, need = sampler_bytes(1100, 400)
        assert (threads, need) == (1, 512 * (400 * 8 + (6 * 20 + 10 * 20) * 8) + 3 * 400 * 48)
        tracemalloc.start()
        try:
            sample_ensemble(scenario, 1100, 7, 5.0, 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert need <= peak <= 1.10 * need
        monkeypatch.setenv("HENSIM_WORKERS", "2")
        assert sampler_bytes(1100, 400) == (2, 2 * 512 * (400 * 8 + (6 * 20 + 10 * 20) * 8)
                                            + 5 * 400 * 48)
        assert sampler_bytes(100, 401) == (1, 100 * (21 * 20 * 8 + (6 * 20 + 10 * 21) * 8)
                                           + 3 * 401 * 48)
        # flat in n: 10^9 realizations count as much as 1,024
        assert sampler_bytes(10**9, 400) == sampler_bytes(2 * CHUNK, 400)

    @pytest.mark.parametrize("scenario", [single_scenario(), two_scenario(var_b=0.5)],
                             ids=["single", "two"])
    def test_traced_peak_is_flat_in_the_sample_count(self, monkeypatch, scenario):
        # 100 chunks fold as they finish, so their partials do not pile up:
        # the peak of 51,200 realizations lies within 5% of one chunk's
        monkeypatch.setenv("HENSIM_WORKERS", "1")
        peaks = []
        for n in (CHUNK, 100 * CHUNK):
            tracemalloc.start()
            try:
                sample_ensemble(scenario, n, 7, 5.0, 400)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    @pytest.mark.parametrize("scenario", [single_scenario(), two_scenario(var_b=0.5)],
                             ids=["single", "two"])
    def test_traced_peak_grows_by_one_real_per_point_and_row(self, monkeypatch, scenario):
        # from 400 to 4,000 points a thread's workspace grows by one real
        # column of 512 rows, 8 bytes per point and row, and the partials of
        # the 2 chunks ahead and the fold by 3 x 48 bytes per point; its
        # factors, 6 M + 10 B reals per row, and the padding past the grid,
        # M B - n, grow as sqrt(points). Less those, the traced peak grows
        # within 10% of 512 x 8 + 3 x 48 bytes per point (a complex column
        # beside the real one would make it 512 x 24 + 3 x 48)
        monkeypatch.setenv("HENSIM_WORKERS", "1")
        peaks, rooted = [], []
        for points in (400, 4000):
            m, b = _blocks(points)
            rooted.append(512 * 8 * (m * b - points + 6 * m + 10 * b))
            sample_ensemble(scenario, 1100, 7, 5.0, points)  # one-time allocations first
            tracemalloc.start()
            try:
                sample_ensemble(scenario, 1100, 7, 5.0, points)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        linear = (512 * 8 + 3 * 48) * (4000 - 400)
        grown = peaks[1] - peaks[0] - (rooted[1] - rooted[0])
        assert abs(grown - linear) <= 0.10 * linear, grown / linear

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_kernel_runs_once_per_chunk_through_its_module_name(self, monkeypatch, workers):
        # the sampler looks its kernel up by name when it runs, so a wrapper
        # installed over it (a tracer's) sees one call per chunk, here 4 of
        # CHUNK rows and a last one of 100, and the output does not change
        monkeypatch.setenv("HENSIM_WORKERS", workers)
        for s, name in ((single_scenario(), "evolve_single_realization"),
                        (two_scenario(var_b=0.5), "evolve_two_realization")):
            plain = sample_ensemble(s, 4 * CHUNK + 100, 3, 5.0, 30)
            rows = []

            def counted(*args, kernel=getattr(ensemble, name)):
                rows.append(len(args[0]))
                return kernel(*args)

            with monkeypatch.context() as patch:
                patch.setattr(ensemble, name, counted)
                wrapped = sample_ensemble(s, 4 * CHUNK + 100, 3, 5.0, 30)
            assert sorted(rows) == [100] + [CHUNK] * 4
            assert all(np.array_equal(plain[k], wrapped[k]) for k in plain)

    def test_nothing_is_listed_per_chunk(self, monkeypatch):
        # at 2 points a chunk's own arrays are small, so anything kept per
        # chunk (a list of 391 chunks' bounds, or tuples that CPython's free
        # list holds once freed) would show: 200,000 realizations peak within
        # 10% of 5,120
        monkeypatch.setenv("HENSIM_WORKERS", "1")
        peaks = []
        for n in (10 * CHUNK, 200_000):
            tracemalloc.start()
            try:
                sample_ensemble(single_scenario(), n, 7, 5.0, 2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    # sample_ensemble returns bare columns; the provenance of a sampled run is
    # the meta that the CLI writes beside them
    @staticmethod
    def sampled_meta(tmp_path, command, seed):
        out = tmp_path / "mc.json"
        argv = [command, "--samples", "10", "--seed", str(seed), "--points", "3",
                "--format", "json", "--out", str(out)]
        assert main(argv) == EXIT_OK
        return json.loads(out.read_text())["meta"]

    def test_meta_records_provenance(self, tmp_path):
        meta = self.sampled_meta(tmp_path, "relax", 321)
        assert meta["n"] == 10
        assert meta["seed"] == 321

    def test_meta_records_rng_scheme_and_chunk(self, tmp_path):
        meta = self.sampled_meta(tmp_path, "concurrence", 321)
        assert meta["rng"] == RNG == "splitmix64-boxmuller-v1"
        assert meta["chunk"] == CHUNK == 512

    def test_averaged_single_state_is_valid_density(self):
        # 300 random realizations, assembled into the averaged working-qubit state
        s = single_scenario(omega_a=1.5, alpha=2.0, variance=1.0)
        traj = sample_ensemble(s, 300, 5, 5.0, 25)
        for i in range(25):
            pp = traj["rho_pp"][i]
            pm = traj["re_rho_pm"][i] + 1j * traj["im_rho_pm"][i]
            validate_density(np.array([[pp, pm], [np.conj(pm), 1 - pp]]))

    def test_averaged_xstate_is_valid_density(self):
        s = two_scenario(var_b=0.3)
        traj = sample_ensemble(s, 500, 9, 5.0, 25)
        a, b, c, d = xstate_diagonal(traj["gamma2"], s)
        validate_density(xstate_matrix(XState(a, b, c, d, traj["re_z"] + 1j * traj["im_z"])))
