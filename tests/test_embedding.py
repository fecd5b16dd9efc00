"""Lattice self-consistency: k-sums against projector and Matsubara
references, Lagrange-equation closures against finite differences, and the
exact-diagonalization outer loop against a scalar root-finding reference."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

import risbvqe.embedding as embedding_module
from risbvqe import SolverFailure
from risbvqe.circuits import build_mrep
from risbvqe.embedding import (FIXED_POINT_TOL, CostReport, LatticeSpec,
                               RisbOutput, SweepPoint,
                               bath_kernel, bath_kernel_slope,
                               build_embedding_hamiltonian, channel_matrix,
                               classical_point,
                               ed_impurity_solver, eps_loc,
                               fermi, find_mu, lambda_c, matsubara_fermi,
                               noninteracting_start, qp_fill,
                               risb_cost, risb_solve, risb_sweep, solve_d,
                               sym_project)
from risbvqe.noization import vqe_impurity_solver

from oracles import (assert_channel_arrays, brinkman_rice_uc,
                     brinkman_rice_z, dispersion, matrix_lambda_c,
                     per_mu_find_mu, per_mu_qp_fill, single_site_z,
                     sym_from_matrix)

HAD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def site_channels(m) -> np.ndarray:
    """Diagonal of the bonding/antibonding transform of a 2x2 mean."""
    rotated = HAD @ np.asarray(m) @ HAD
    assert abs(rotated[0, 1]) < 1e-9 and abs(rotated[1, 0]) < 1e-9
    return rotated.real.diagonal().copy()


class TestSymMatrix:
    """Symmetric cluster matrices [[a, b], [b, a]] and their channel
    values a + b, a - b: `channel_matrix` and `sym_project`."""

    def test_round_trip_two_site(self):
        m = np.array([[0.4, -0.1], [-0.1, 0.4]])
        sym = sym_from_matrix(m)
        np.testing.assert_allclose(sym, [0.3, 0.5])
        np.testing.assert_allclose(channel_matrix(sym), m, atol=1e-15)
        np.testing.assert_array_equal(sym_project(m), sym)

    def test_single_site(self):
        sym = sym_from_matrix([[0.7]])
        assert sym.shape == (1,)
        np.testing.assert_allclose(sym, [0.7])
        np.testing.assert_array_equal(channel_matrix(sym), [[0.7]])
        np.testing.assert_array_equal(sym_project([[0.7]]), [0.7])

    def test_rejects_asymmetric_form(self):
        with pytest.raises(ValueError, match="form"):
            sym_from_matrix([[0.4, 0.1], [0.1, 0.6]])
        with pytest.raises(ValueError, match="form"):
            sym_from_matrix([[0.4, 0.1], [0.3, 0.4]])

    def test_projection_averages(self):
        m = np.array([[1.0, 2.0], [4.0, 1.0]])
        sym = sym_project(m)
        np.testing.assert_allclose(sym, [4.0, -2.0])
        assert not np.shares_memory(sym, m)
        assert not np.shares_memory(sym_project(m[:1, :1]), m)

    def test_channel_map(self):
        # The channels diagonalize the cluster matrix, so a function of the
        # matrix maps each channel: Z = R R^T is Z_c = R_c ** 2.
        r = np.array([0.3, -0.2])
        np.testing.assert_allclose(channel_matrix(r ** 2),
                                   channel_matrix(r) @ channel_matrix(r),
                                   atol=1e-15)


class TestLatticeSpec:
    def test_single_site_defaults(self):
        spec = LatticeSpec(n_c=1, u=2.0)
        assert (spec.mesh, spec.beta, spec.t) == (40, 200.0, -0.25)

    def test_two_site_defaults(self):
        spec = LatticeSpec(n_c=2, u=2.0)
        assert (spec.mesh, spec.beta) == (32, 300.0)

    def test_overrides_kept(self):
        spec = LatticeSpec(n_c=1, u=0.0, mesh=12, beta=50.0)
        assert (spec.mesh, spec.beta) == (12, 50.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="cluster"):
            LatticeSpec(n_c=3, u=1.0)
        with pytest.raises(ValueError, match="mesh"):
            LatticeSpec(n_c=1, u=1.0, mesh=1)
        with pytest.raises(ValueError, match="beta"):
            LatticeSpec(n_c=1, u=1.0, beta=0.0)
        with pytest.raises(ValueError, match="filling"):
            LatticeSpec(n_c=1, u=1.0, filling=1.0)


class TestDispersion:
    def test_single_site_values(self):
        spec = LatticeSpec(n_c=1, u=0.0)
        assert dispersion(spec, (0.0, 0.0))[0, 0] == pytest.approx(-1.0)
        assert dispersion(spec, (math.pi, math.pi))[0, 0] == pytest.approx(1.0)
        half = dispersion(spec, (math.pi / 2, math.pi / 2))[0, 0]
        assert half == pytest.approx(0.0, abs=1e-15)

    def test_two_site_bands(self):
        spec = LatticeSpec(n_c=2, u=0.0)
        k = (1.1, 0.7)
        mat = dispersion(spec, k)
        np.testing.assert_allclose(mat, mat.conj().T, atol=1e-15)
        lo = 2 * spec.t * math.cos(k[1]) - 2 * abs(spec.t) * abs(
            math.cos(k[0] / 2))
        hi = 2 * spec.t * math.cos(k[1]) + 2 * abs(spec.t) * abs(
            math.cos(k[0] / 2))
        np.testing.assert_allclose(np.linalg.eigvalsh(mat), [lo, hi],
                                   atol=1e-12)

    def test_mesh_average_is_intra_cell_hopping(self):
        spec = LatticeSpec(n_c=2, u=0.0, mesh=8)
        vals = 2 * math.pi * np.arange(8) / 8
        mean = sum(dispersion(spec, (kx, ky)) for kx in vals
                   for ky in vals) / 64
        np.testing.assert_allclose(mean, [[0.0, spec.t], [spec.t, 0.0]],
                                   atol=1e-12)


class TestEpsLoc:
    def test_two_site_channels(self):
        spec = LatticeSpec(n_c=2, u=1.0)
        local = eps_loc(spec, mu=0.1)
        np.testing.assert_allclose(local, [-0.35, 0.15], atol=1e-12)

    def test_single_site(self):
        spec = LatticeSpec(n_c=1, u=1.0)
        assert eps_loc(spec, mu=0.2)[0] == pytest.approx(-0.2, abs=1e-12)


class TestQpFill:
    def test_half_filling_symmetric_point(self):
        spec = LatticeSpec(n_c=1, u=0.0)
        delta, kinetic = qp_fill(np.ones(1), np.zeros(1), 0.0, spec)
        assert delta[0] == pytest.approx(0.5, abs=1e-12)
        assert kinetic[0] < -0.1

    def test_singular_r_rejected(self):
        spec = LatticeSpec(n_c=1, u=0.0)
        with pytest.raises(ValueError, match="singular"):
            qp_fill(np.array([0.0]), np.array([0.0]), 0.0, spec)

    def test_matches_zero_temperature_projectors(self):
        # At beta = 4000 every quasiparticle level sits far from the Fermi
        # edge, so occupations must match the filled-projector sum.
        spec = LatticeSpec(n_c=2, u=0.0, mesh=8, beta=4000.0)
        r = np.array([0.9, 0.8])
        lam = np.array([0.1, -0.05])
        mu = 0.37
        rm, lm = channel_matrix(r), channel_matrix(lam)
        vals = 2 * math.pi * np.arange(spec.mesh) / spec.mesh
        fill_sum = np.zeros((2, 2), dtype=complex)
        kin_sum = np.zeros((2, 2), dtype=complex)
        min_gap = math.inf
        for kx in vals:
            for ky in vals:
                eps = dispersion(spec, (kx, ky))
                h = rm @ eps @ rm + lm - mu * np.eye(2)
                e, v = np.linalg.eigh(h)
                min_gap = min(min_gap, float(np.min(np.abs(e))))
                proj = (v[:, e < 0] @ v[:, e < 0].conj().T)
                fill_sum += proj.T
                kin_sum += (eps @ rm @ proj).T
        assert min_gap > 5e-3
        n_k = spec.mesh ** 2
        delta, kinetic = qp_fill(r, lam, mu, spec)
        np.testing.assert_allclose(delta,
                                   site_channels(fill_sum / n_k), atol=1e-7)
        np.testing.assert_allclose(kinetic,
                                   site_channels(kin_sum / n_k), atol=1e-7)

    def test_trace_after_mu_adjustment(self):
        spec = LatticeSpec(n_c=2, u=1.0)
        r = np.array([0.9, 0.7])
        lam = np.array([0.3, -0.2])
        mu = find_mu(r, lam, spec)
        delta, _ = qp_fill(r, lam, mu, spec)
        assert delta.mean() == pytest.approx(0.5, abs=1e-8)


class TestMatsubara:
    def test_scalar_against_fermi(self):
        beta = 200.0
        for h in (-1.0, -0.1, 0.0, 0.3, 2.0):
            ref = fermi(h, beta)
            val = matsubara_fermi(np.array([[h]]), beta)[0, 0]
            assert abs(val - ref) < 1e-5

    def test_hermitian_matrix_against_eigenbasis(self):
        h = np.array([[0.2, 0.1 - 0.3j], [0.1 + 0.3j, -0.4]])
        beta = 300.0
        e, v = np.linalg.eigh(h)
        ref = v @ np.diag(fermi(e, beta)) @ v.conj().T
        np.testing.assert_allclose(matsubara_fermi(h, beta), ref, atol=1e-5)

    def test_k_sum_against_frequency_sum(self):
        # Full two-site pipeline cross-check: closed-form Fermi filling of
        # the quasiparticle matrix against the explicit frequency sum.
        spec = LatticeSpec(n_c=2, u=0.0, mesh=6, beta=300.0)
        r = np.array([0.85, 0.75])
        lam = np.array([0.12, -0.08])
        mu = 0.05
        rm, lm = channel_matrix(r), channel_matrix(lam)
        vals = 2 * math.pi * np.arange(spec.mesh) / spec.mesh
        fill_sum = np.zeros((2, 2), dtype=complex)
        kin_sum = np.zeros((2, 2), dtype=complex)
        for kx in vals:
            for ky in vals:
                eps = dispersion(spec, (kx, ky))
                h = rm @ eps @ rm + lm - mu * np.eye(2)
                occ = matsubara_fermi(h, spec.beta)
                fill_sum += occ.T
                kin_sum += (eps @ rm @ occ).T
        n_k = spec.mesh ** 2
        delta, kinetic = qp_fill(r, lam, mu, spec)
        np.testing.assert_allclose(delta,
                                   site_channels(fill_sum / n_k), atol=1e-5)
        np.testing.assert_allclose(kinetic,
                                   site_channels(kin_sum / n_k), atol=1e-5)


class TestBathClosure:
    def test_hybridization_solve(self):
        delta = np.array([0.3, 0.6])
        kinetic = np.array([-0.12, -0.2])
        d = solve_d(delta, kinetic)
        np.testing.assert_allclose(d,
                                   [-0.12 / math.sqrt(0.21),
                                    -0.2 / math.sqrt(0.24)])
        np.testing.assert_allclose(bath_kernel(delta) * d, kinetic)

    def test_degenerate_bath_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            solve_d(np.array([1.0, 0.5]), np.array([0.1, 0.1]))
        with pytest.raises(ValueError, match="degenerate"):
            solve_d(np.array([0.0]), np.array([0.1]))

    def test_half_filled_bath_potential_cancels(self):
        lam = np.array([0.7, -0.4])
        out = lambda_c(np.array([0.5, 0.5]), np.array([-0.3, 0.2]),
                       np.array([0.9, 0.8]), lam)
        np.testing.assert_allclose(out, -lam)

    def test_channel_and_matrix_routes_agree(self):
        delta = np.array([0.41, 0.63])
        d = np.array([-0.35, 0.22])
        r = np.array([0.93, 0.81])
        lam = np.array([0.27, -0.14])
        fast = channel_matrix(lambda_c(delta, d, r, lam))
        full = matrix_lambda_c(channel_matrix(delta), channel_matrix(d),
                               channel_matrix(r), channel_matrix(lam))
        np.testing.assert_allclose(fast, full, atol=1e-12)

    def test_scalar_matrix_route(self):
        fast = lambda_c(np.array([0.37]), np.array([-0.5]),
                        np.array([0.85]), np.array([0.3]))
        full = matrix_lambda_c([[0.37]], [[-0.5]], [[0.85]], [[0.3]])
        assert full[0, 0] == pytest.approx(fast[0])

    def test_kernel_derivative_matches_finite_difference(self):
        # Directional derivative of tr((R D)^T g(Delta)) along a random
        # symmetric direction, against a central difference.
        rng = np.random.default_rng(7121)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        delta = q @ np.diag([0.23, 0.67]) @ q.T
        d = rng.normal(size=(2, 2))
        d = 0.5 * (d + d.T)
        r = rng.normal(size=(2, 2))
        r = 0.5 * (r + r.T)
        s = rng.normal(size=(2, 2))
        s = 0.5 * (s + s.T)
        lam = np.zeros((2, 2))

        def kernel_trace(mat):
            e, v = np.linalg.eigh(mat)
            g = v @ np.diag(bath_kernel(e)) @ v.T
            return float(np.trace((r @ d).T @ g))

        step = 1e-6
        fd = (kernel_trace(delta + step * s)
              - kernel_trace(delta - step * s)) / (2 * step)
        t_sym = -0.5 * (matrix_lambda_c(delta, d, r, lam) + lam)
        assert fd == pytest.approx(float(np.sum(t_sym * s)), abs=1e-6)

    def test_slope_is_kernel_derivative(self):
        x = 0.31
        step = 1e-7
        fd = (bath_kernel(x + step) - bath_kernel(x - step)) / (2 * step)
        assert bath_kernel_slope(x) == pytest.approx(fd, abs=1e-7)


class TestFindMu:
    def test_single_site_pins_to_lambda(self):
        spec = LatticeSpec(n_c=1, u=1.0)
        assert find_mu(np.array([0.8]), np.array([0.37]), spec) == 0.37

    def test_single_site_off_half_filling(self):
        spec = LatticeSpec(n_c=1, u=1.0, filling=0.4)
        r, lam = np.array([0.8]), np.array([0.37])
        mu = find_mu(r, lam, spec)
        assert mu != lam[0]
        delta, _ = qp_fill(r, lam, mu, spec)
        assert delta[0] == pytest.approx(0.4, abs=1e-8)

    def test_two_site_filling_target(self):
        spec = LatticeSpec(n_c=2, u=1.0)
        r, lam = np.array([0.95, 0.6]), np.array([-0.3, 0.45])
        mu = find_mu(r, lam, spec)
        delta, _ = qp_fill(r, lam, mu, spec)
        assert delta.mean() == pytest.approx(0.5, abs=1e-8)

    def test_each_mu_filled_once(self, monkeypatch):
        from scipy.optimize import brentq
        spec = LatticeSpec(n_c=2, u=1.0)
        r, lam = np.array([0.95, 0.6]), np.array([-0.3, 0.45])
        qp_levels = embedding_module._qp_levels
        levels, _ = qp_levels(r, lam, spec)
        plain = []

        def gap(mu):
            plain.append(mu)
            return float(fermi(levels - mu, spec.beta).mean()) - 0.5

        # The first bracket [-2.45, 2.45] holds the root.  Plain brentq
        # fills both ends again; find_mu's bracket search already has them.
        want = brentq(gap, -2.45, 2.45, xtol=1e-12)
        built, filled = [], []

        def counting_levels(*args):
            built.append(args)
            return qp_levels(*args)

        def counting_fermi(x, beta):
            filled.append(np.array(x))
            return fermi(x, beta)

        def no_fill(*args):
            raise AssertionError("find_mu must not call qp_fill")

        monkeypatch.setattr(embedding_module, "_qp_levels", counting_levels)
        monkeypatch.setattr(embedding_module, "fermi", counting_fermi)
        monkeypatch.setattr(embedding_module, "qp_fill", no_fill)
        assert find_mu(r, lam, spec) == want
        assert len(built) == 1
        # One Fermi fill per mu, in plain brentq's order: the two bracket
        # ends first, then only brentq's new iterates.
        assert len(plain) == len(set(plain)) == len(filled)
        assert plain[:2] == [-2.45, 2.45]
        for mu, x in zip(plain, filled):
            np.testing.assert_array_equal(x, levels - mu)

    def test_lost_bracket_is_a_solver_failure(self, monkeypatch):
        # NaN levels give a filling that never crosses the target.
        monkeypatch.setattr(embedding_module, "_qp_levels",
                            lambda r, lam, spec: (np.full((2, 4), np.nan),
                                                  None))
        with pytest.raises(SolverFailure, match="bracket"):
            find_mu(np.array([0.9, 0.8]), np.array([0.0, 0.0]),
                    LatticeSpec(n_c=2, u=1.0))


class TestPerMuOracles:
    """The k-sum and the mu search on mu-independent levels against the
    per-mu spectrum rebuild they replaced."""

    @pytest.mark.parametrize("n_c, filling, r, lam", [
        (1, 0.4, (0.8,), (0.37,)),
        (2, 0.5, (0.9, 0.7), (0.3, -0.2)),
        (2, 0.4, (0.95, 0.6), (-0.3, 0.45)),
    ])
    def test_find_mu_matches_per_mu_search(self, n_c, filling, r, lam):
        spec = LatticeSpec(n_c=n_c, u=1.0, filling=filling)
        r, lam = np.array(r), np.array(lam)
        want = per_mu_find_mu(r, lam, spec)
        # The filling rises through the target, so the window of mu that
        # meets it has zero width and both searches pin the same root.
        rise = [per_mu_qp_fill(r, lam, want + h, spec)[0].mean()
                for h in (-1e-6, 1e-6)]
        assert rise[1] - rise[0] > 1e-8
        assert abs(find_mu(r, lam, spec) - want) <= 1e-12

    @pytest.mark.parametrize("n_c, r, lam, mu", [
        (1, (0.8,), (0.37,), 0.2),
        (2, (0.9, 0.7), (0.3, -0.2), -0.011),
        (2, (0.95, 0.6), (-0.3, 0.45), 0.4),
        (2, (1.0, 1.0), (0.0, 0.0), 0.05),
    ])
    def test_qp_fill_matches_per_mu_fill(self, n_c, r, lam, mu):
        spec = LatticeSpec(n_c=n_c, u=1.0)
        r, lam = np.array(r), np.array(lam)
        got, want = qp_fill(r, lam, mu, spec), per_mu_qp_fill(r, lam, mu,
                                                              spec)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)

    def test_degenerate_levels_take_the_slope_branch(self):
        # R = 1 and equal channel potentials close the two-site splitting
        # at kx = pi, where qp_fill uses the Fermi slope instead of
        # the divided difference.
        spec = LatticeSpec(n_c=2, u=1.0)
        _, (_, _, rad) = embedding_module._qp_levels(
            np.array([1.0, 1.0]), np.array([0.0, 0.0]), spec)
        assert np.count_nonzero(rad <= 1e-9) == spec.mesh


class TestBandCache:
    def test_shared_across_u_and_beta(self):
        base = embedding_module._band_components(LatticeSpec(n_c=2, u=0.1))
        for other in (LatticeSpec(n_c=2, u=0.7),
                      LatticeSpec(n_c=2, u=0.1, beta=50.0)):
            bands, s = embedding_module._band_components(other)
            assert bands[0] is base[0][0] and bands[1] is base[0][1]
            assert s is base[1]
        finer = embedding_module._band_components(
            LatticeSpec(n_c=2, u=0.1, mesh=16))
        assert finer[0][0] is not base[0][0]

    def test_arrays_are_read_only(self):
        for n_c in (1, 2):
            bands, s = embedding_module._band_components(
                LatticeSpec(n_c=n_c, u=0.3))
            for array in bands + (() if s is None else (s,)):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0


class TestCost:
    def test_noninteracting_fixed_point(self):
        spec = LatticeSpec(n_c=1, u=0.0)
        report = risb_cost(np.array([1.0]), np.array([0.0]), spec)
        assert report.cost < 1e-9
        assert report.mu == 0.0
        assert report.emb.u_int == 0.0

    def test_residual_blocks(self):
        spec = LatticeSpec(n_c=1, u=2.0)
        r, lam = np.array([0.8]), np.array([0.3])
        fake = np.array([[0.6, 0.2], [0.2, 0.45]])
        report = risb_cost(r, lam, spec, impurity_solver=lambda emb: fake)
        delta, _ = qp_fill(r, lam, report.mu, spec)
        f1 = (1.0 - 0.45) - delta[0]
        f2 = 0.2 - 0.8 * bath_kernel(delta[0])
        assert report.f1[0] == pytest.approx(f1)
        assert report.f2[0] == pytest.approx(f2)
        assert report.cost == pytest.approx(math.hypot(f1, f2))

    def test_small_r_is_clamped(self):
        spec = LatticeSpec(n_c=1, u=1.0)
        report = risb_cost(np.array([1e-5]), np.array([0.5]), spec)
        assert report.clamped
        assert math.isfinite(report.cost)

    def test_degenerate_channels_give_infinite_cost(self):
        # On the two-point mesh the inter-channel coupling vanishes, so a
        # huge multiplier split saturates one channel exactly.
        spec = LatticeSpec(n_c=2, u=1.0, mesh=2)
        report = risb_cost(np.ones(2), np.array([50.0, -50.0]), spec)
        assert report.cost == math.inf
        assert report.f1 is None

    def test_imbalanced_multipliers_are_repelled(self):
        spec = LatticeSpec(n_c=2, u=1.0)
        report = risb_cost(np.ones(2), np.array([50.0, -50.0]), spec)
        assert math.isfinite(report.cost)
        assert report.cost > 0.1


class TestSolve:
    @pytest.mark.parametrize("u", [1.0, 2.0])
    def test_matches_scalar_reference(self, u):
        spec = LatticeSpec(n_c=1, u=u)
        out = risb_solve(spec, start=(np.array([0.85]),
                                      np.array([0.5 * u + 0.05])),
                         max_iter=600)
        assert out.converged
        assert out.cost < 1e-6
        assert out.z[0] == pytest.approx(single_site_z(u), abs=1e-3)
        # Particle-hole symmetry pins the impurity level to half the
        # interaction and the chemical potential follows the multiplier.
        assert out.lam[0] == pytest.approx(0.5 * u, abs=1e-4)
        assert out.mu == out.lam[0]

    def test_noninteracting_two_site(self):
        spec = LatticeSpec(n_c=2, u=0.0)
        start = (np.array([0.97, 0.97]), np.array([spec.t, -spec.t]))
        out = risb_solve(spec, start=start, max_iter=400)
        assert out.cost < 1e-6
        np.testing.assert_allclose(out.z, [1.0, 1.0], atol=1e-3)
        np.testing.assert_allclose(out.lambda_tilde(spec),
                                   [0.0, 0.0], atol=5e-3)

    def test_never_finite_cost_is_a_solver_failure(self, monkeypatch):
        monkeypatch.setattr(embedding_module, "risb_cost",
                            lambda *args: CostReport(cost=math.inf))
        with pytest.raises(SolverFailure, match="never became finite"):
            risb_solve(LatticeSpec(n_c=1, u=1.0), max_iter=5)

    def test_reports_best_seen_point(self):
        spec = LatticeSpec(n_c=1, u=1.0)
        out = risb_solve(spec, start=(np.array([0.7]), np.array([0.3])),
                         max_iter=30)
        costs = [c for _, c in out.cost_trace]
        assert out.cost == pytest.approx(min(costs))
        assert out.cost < costs[0]

    def test_strong_coupling_localizes(self):
        # Above the localization threshold (~3.24 here) the quasiparticle
        # weight collapses to the clamp floor.
        spec = LatticeSpec(n_c=1, u=5.0)
        out = risb_solve(spec, start=(np.array([0.1]), np.array([2.5])),
                         max_iter=200)
        assert out.z[0] < 1e-4

    @pytest.mark.parametrize("n_c", [1, 2])
    def test_outputs_are_separate_channel_arrays(self, n_c):
        spec = LatticeSpec(n_c=n_c, u=0.0)
        outputs = [risb_solve(spec, max_iter=400)] + [
            p.output for p in risb_sweep(spec, [0.0, 0.05])]
        assert_channel_arrays(n_c, *[
            a for out in outputs
            for a in (out.r, out.lam, out.z, out.lambda_tilde(spec))])

    def test_solver_callable_is_used(self):
        spec = LatticeSpec(n_c=1, u=1.0)
        calls = []

        def counting_solver(emb):
            calls.append(emb.u_int)
            return ed_impurity_solver(emb)

        risb_solve(spec, impurity_solver=counting_solver,
                   start=(np.array([0.9]), np.array([0.5])), max_iter=5)
        assert calls and all(u == 1.0 for u in calls)


def counting_cost(monkeypatch) -> list:
    """Route risb_solve's cost calls through a recorder of (R, lambda)."""
    points = []

    def recorded(r, lam, spec, impurity_solver=None):
        points.append(np.concatenate([r, lam]))
        return risb_cost(r, lam, spec, impurity_solver)

    monkeypatch.setattr(embedding_module, "risb_cost", recorded)
    return points


def nelder_mead_calls(monkeypatch) -> list:
    """Record the arguments of every call risb_solve makes to scipy's
    minimize (its Nelder-Mead fallback), passing each call through."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(embedding_module, "minimize", recorded)
    return calls


class TestRootPath:
    def test_classical_grid_reaches_fixed_point(self, monkeypatch):
        # The benchmark's classical sweep: n_c = 2, warm-started from U = 0.
        calls = counting_cost(monkeypatch)
        points = risb_sweep(LatticeSpec(n_c=2, u=0.0),
                            [0.0, 0.05, 0.1, 0.15, 0.2], max_iter=400)
        for point in points:
            out = point.output
            assert out.cost < FIXED_POINT_TOL
            assert out.converged and not out.clamped
            assert out.n_iter == len(out.cost_trace)
        # 1 evaluation at U = 0, 10 at U = 0.05 (start, four difference
        # columns, five steps) and 4 at each later point, which starts from
        # the previous point's Jacobian at the extrapolation of the last
        # two points.
        assert [len(p.output.cost_trace) for p in points] == [1, 10] + [4] * 3
        assert len(calls) <= 23

    def test_root_search_evaluates_each_point_once(self, monkeypatch):
        # The start's own evaluation is the base of its difference columns
        # and of its first step.
        calls = counting_cost(monkeypatch)
        points = risb_sweep(LatticeSpec(n_c=2, u=0.0), [0.0, 0.05, 0.1, 0.15],
                            max_iter=400)
        for point in points:
            out = point.output
            assert out.converged and out.n_iter == len(out.cost_trace)
            searched = np.array(calls[:out.n_iter])
            del calls[:out.n_iter]
            assert len(np.unique(searched, axis=0)) == len(searched)
        assert not calls

    def test_carried_jacobian(self, monkeypatch):
        # Each point after U = 0.05 starts from the previous point's final
        # Jacobian: its first step solves against that matrix.
        spec = LatticeSpec(n_c=2, u=0.0)
        points = risb_sweep(spec, [0.0, 0.05, 0.1, 0.15], max_iter=400)
        assert points[0].output.jacobian is None
        solved, solve = [], np.linalg.solve

        def recorded_solve(a, b):
            solved.append(a.copy())
            return solve(a, b)

        monkeypatch.setattr(embedding_module.np.linalg, "solve",
                            recorded_solve)
        calls = counting_cost(monkeypatch)
        spec = LatticeSpec(n_c=2, u=0.15)
        start, carried = embedding_module._warm_start(points[:3], spec)
        out = risb_solve(spec, start=start, max_iter=400, jacobian=carried)
        assert carried is points[2].output.jacobian
        np.testing.assert_array_equal(solved[0], carried)
        assert out.converged and len(calls) == len(out.cost_trace) == 4
        np.testing.assert_array_equal(np.concatenate([out.r, out.lam]),
                                      np.concatenate([points[3].output.r,
                                                      points[3].output.lam]))

    def test_cap_counts_difference_columns(self, monkeypatch):
        # max_iter counts every evaluation, difference columns included;
        # reaching it ends the search with the best point, unconverged and
        # without Nelder-Mead.
        spec = LatticeSpec(n_c=2, u=0.1)
        start = (np.full(2, 0.95), np.array([-0.25, 0.25]))
        calls = counting_cost(monkeypatch)
        fallback = nelder_mead_calls(monkeypatch)
        full = risb_solve(spec, start=start, max_iter=100)
        assert full.converged and full.n_iter == len(calls) > 8
        calls.clear()
        for cap in (3, 8):  # inside the difference columns, then after
            out = risb_solve(spec, start=start, max_iter=cap)
            assert len(calls) == out.n_iter == len(out.cost_trace) == cap
            assert not out.converged and not fallback
            costs = [c for _, c in out.cost_trace]
            assert out.cost == min(costs)
            np.testing.assert_array_equal(
                np.concatenate([out.r, out.lam]),
                calls[costs.index(min(costs))])
            calls.clear()

    def test_secant_start(self, monkeypatch):
        calls = counting_cost(monkeypatch)
        points = risb_sweep(LatticeSpec(n_c=2, u=0.0), [0.0, 0.05, 0.1],
                            max_iter=400)
        x0, x1 = (np.concatenate([p.output.r, p.output.lam])
                  for p in points[:2])
        start = calls[sum(len(p.output.cost_trace) for p in points[:2])]
        np.testing.assert_array_equal(
            start, x1 + (x1 - x0) * (0.1 - 0.05) / (0.05 - 0.0))

    @pytest.mark.parametrize("fault", [None, "clamped", "unconverged",
                                       "same-u"])
    def test_secant_needs_two_roots(self, fault):
        def point(u, x):
            out = RisbOutput(r=np.array([x]), lam=np.array([-x]), mu=0.0,
                             cost=0.0, cost_trace=[(0, 0.0)] * 3,
                             converged=True, n_iter=3)
            return SweepPoint(u=u, output=out)

        points = [point(0.1, 0.9), point(0.2, 0.8)]
        if fault == "clamped":
            points[1].output.clamped = True
        elif fault == "unconverged":
            points[0].output.converged = False
        elif fault == "same-u":
            points[0] = point(0.2, 0.9)
        points[1].output.jacobian = np.eye(2)
        spec = LatticeSpec(n_c=1, u=0.3)
        (r, lam), jacobian = embedding_module._warm_start(points, spec)
        want = 0.7 if fault is None else 0.8
        assert r == pytest.approx([want]) and lam == pytest.approx([-want])
        assert jacobian is points[1].output.jacobian
        (r, lam), _ = embedding_module._warm_start(points[1:], spec)
        assert r == [0.8] and lam == [-0.8]
        start, jacobian = embedding_module._warm_start([], spec)
        assert jacobian is None
        np.testing.assert_array_equal(np.concatenate(start), np.concatenate(
            noninteracting_start(spec)))

    def test_coarse_grid_stays_on_the_physical_branch(self, monkeypatch):
        # U steps of 0.5 and 0.2 from U = 0: the warm-started search once
        # ran off to the asymptote Delta_+ -> 1, where the residual also
        # tends to zero (lambda_+ = -271 at U = 1.2).
        spec = LatticeSpec(n_c=2, u=0.0)
        fine = {p.u: p.output for p in risb_sweep(
            spec, [round(0.05 * k, 2) for k in range(25)], max_iter=400)}
        calls = counting_cost(monkeypatch)
        points = risb_sweep(spec, [0.0, 0.5, 1.0, 1.2], max_iter=400)
        for point in points:
            out = point.output
            assert out.converged and not out.clamped
            np.testing.assert_allclose(out.z, fine[point.u].z, atol=1e-6)
            assert out.report.delta[0] < 0.99
        assert len(calls) <= 100

    @pytest.mark.parametrize("n_c, max_iter, total", [(2, 100, 480),
                                                       (1, 20, 343)])
    def test_default_grid_converges_by_root_steps(self, monkeypatch, n_c,
                                                  max_iter, total):
        # The CLI's U = 0-3 grid: every point reaches the fixed point by
        # root steps alone (n_iter counts evaluations, not Nelder-Mead
        # iterations), within a budget of cost calls.
        calls = counting_cost(monkeypatch)
        grid = [round(0.05 * k, 10) for k in range(61)]
        points = risb_sweep(LatticeSpec(n_c=n_c, u=0.0), grid,
                            max_iter=max_iter)
        for point in points:
            out = point.output
            assert out.converged and not out.clamped
            assert out.n_iter == len(out.cost_trace)
        assert len(calls) < total

    def test_explicit_exact_solver_sweeps_as_the_default(self):
        # Passing the exact solver by name needs no reference table and
        # takes the default's warm-started root path, point for point.
        spec, grid = LatticeSpec(n_c=1, u=0.0), [0.0, 0.1]
        default = risb_sweep(spec, grid)
        named = risb_sweep(spec, grid, ed_impurity_solver)
        assert [p.u for p in named] == [p.u for p in default] == grid
        for ours, theirs in zip(named, default):
            a, b = ours.output, theirs.output
            assert a.cost == b.cost and a.n_iter == b.n_iter
            assert a.cost_trace == b.cost_trace
            for name in ("r", "lam"):
                np.testing.assert_array_equal(getattr(a, name),
                                              getattr(b, name))

    def test_start_at_fixed_point_skips_root_search(self, monkeypatch):
        calls = counting_cost(monkeypatch)
        spec = LatticeSpec(n_c=2, u=0.0)
        start = noninteracting_start(spec)
        out = risb_solve(spec, start=start, max_iter=400)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.concatenate(
            [start[0], start[1]]))
        assert out.n_iter == len(out.cost_trace) == 1
        assert out.converged and out.cost < FIXED_POINT_TOL

    @pytest.mark.parametrize("n_c, u", [(1, 0.15), (2, 0.05)])
    def test_classical_point_returns_its_best_report(self, monkeypatch,
                                                     n_c, u):
        # The report is the one risb_solve kept, not a closing re-solve;
        # 0.15 is not a multiple of the 0.05 step in floating point.
        calls = counting_cost(monkeypatch)
        sweeps = []

        def recorded_sweep(*args, **kwargs):
            sweeps.append(risb_sweep(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(embedding_module, "risb_sweep", recorded_sweep)
        spec = LatticeSpec(n_c=n_c, u=u)
        out, report = classical_point(spec)
        (points,) = sweeps
        assert points[-1].u == u and points[-1].output is out
        assert len(calls) == sum(len(p.output.cost_trace) for p in points)
        assert out.report is report
        fresh = risb_cost(out.r, out.lam, spec)
        assert report.cost == fresh.cost == out.cost
        assert report.mu == fresh.mu and report.clamped == fresh.clamped
        for name in ("f1", "f2", "delta", "d", "lam_c"):
            np.testing.assert_array_equal(getattr(report, name),
                                          getattr(fresh, name))
        np.testing.assert_array_equal(report.rdm, fresh.rdm)
        for name in ("n_c", "u_int", "d_mix", "lambda_c", "mu", "t_intra"):
            np.testing.assert_array_equal(getattr(report.emb, name),
                                          getattr(fresh.emb, name))

    @pytest.mark.parametrize("u", [0.5, 2.0, 3.0])
    def test_single_site_matches_scalar_oracle(self, u):
        spec = LatticeSpec(n_c=1, u=u)
        out = risb_solve(spec, start=(np.array([0.85]),
                                      np.array([0.5 * u + 0.05])))
        assert out.converged
        assert out.z[0] == pytest.approx(single_site_z(u), abs=1e-6)

    def test_mott_start_ends_on_the_clamp(self, monkeypatch):
        # The root search drives R onto the clamp, where the residual
        # cannot vanish; the point ends there, not in Nelder-Mead.
        fallback = nelder_mead_calls(monkeypatch)
        spec = LatticeSpec(n_c=1, u=5.0)
        out = risb_solve(spec, start=(np.array([0.1]), np.array([2.5])),
                         max_iter=200)
        assert not fallback
        assert out.clamped
        assert not out.converged
        assert out.cost > FIXED_POINT_TOL
        assert out.n_iter == len(out.cost_trace) < 200
        assert out.jacobian is None


MOTT_GRID = [round(0.1 * k, 10) for k in range(51)]


class TestMottSide:
    """The exact n_c = 1 sweep over U = 0-5.  At half filling RISB on one
    site is the Gutzwiller approximation (Lechermann, Georges, Kotliar &
    Parcollet, PRB 76, 155102 (2007)), whose metallic root vanishes at the
    Brinkman-Rice point."""

    @pytest.fixture
    def sweep(self, monkeypatch):
        fallback = nelder_mead_calls(monkeypatch)
        return risb_sweep(LatticeSpec(n_c=1, u=0.0), MOTT_GRID), fallback

    def test_weak_coupling_follows_brinkman_rice(self, sweep):
        # U_c = 16 |mean of eps f(eps)| on the mesh-40, beta = 200 grid.  The
        # finite-beta gap grows from 2e-7 at U = 0.5 to 1.2e-4 at U = 2.0,
        # a factor of 8 inside the bound.
        assert brinkman_rice_uc() == pytest.approx(3.2387, abs=1e-4)
        points, _ = sweep
        weak = [p for p in points if p.u <= 2.0]
        assert len(weak) == 21
        for point in weak:
            assert point.output.converged
            assert point.output.z[0] == pytest.approx(
                brinkman_rice_z(point.u), abs=1e-3)

    def test_first_clamped_point_is_the_transition(self, sweep):
        # single_site_z also reads 0 at U = 0, where it brackets no root.
        first = next(u for u in MOTT_GRID if u > 0 and single_site_z(u) == 0)
        assert first == 3.1
        points, _ = sweep
        for point in points:
            out = point.output
            assert out.converged == (not out.clamped) == (point.u < first)

    def test_mott_side_ends_without_nelder_mead(self, sweep):
        # The bound is a tenth of the 3815 evaluations that Nelder-Mead
        # from each start spends on the 20 points U = 3.1-5.0.
        points, fallback = sweep
        assert not fallback
        assert all(p.output.n_iter == len(p.output.cost_trace)
                   for p in points)
        mott = [p.output for p in points if p.output.clamped]
        assert len(mott) == 20
        assert sum(len(out.cost_trace) for out in mott) < 381


def wrapped(emb):
    """The exact cluster solver under another name: risb_solve treats it as
    a circuit solver."""
    return ed_impurity_solver(emb)


def circuit_points(monkeypatch) -> list:
    """Route risb_solve's cost calls through a recorder of the (R, lambda)
    of those that go through a given cluster solver."""
    points = []

    def recorded(r, lam, spec, impurity_solver=None):
        if impurity_solver is not None:
            points.append(np.concatenate([r, lam]))
        return risb_cost(r, lam, spec, impurity_solver)

    monkeypatch.setattr(embedding_module, "risb_cost", recorded)
    return points


def nelder_mead_points(spec: LatticeSpec, x0: np.ndarray, max_iter: int):
    """Points and iteration count of risb_solve's Nelder-Mead from x0."""
    n, points = spec.n_c, []

    def cost(x):
        points.append(x.copy())
        return risb_cost(x[:n], x[n:], spec).cost

    simplex = np.vstack([x0, x0 + embedding_module.SIMPLEX_STEP
                         * np.eye(x0.size)])
    result = minimize(cost, x0, method="Nelder-Mead",
                      options={"maxiter": max_iter,
                               "xatol": embedding_module.SIMPLEX_XATOL,
                               "fatol": embedding_module.SIMPLEX_FATOL,
                               "initial_simplex": simplex})
    return np.array(points), result.nit


class TestChord:
    def test_wrapped_solver_reaches_the_exact_root(self, monkeypatch):
        spec = LatticeSpec(n_c=1, u=1.0)
        start = (np.array([0.9]), np.array([0.5]))
        exact = risb_solve(spec, start=start, max_iter=40)
        calls = circuit_points(monkeypatch)
        out = risb_solve(spec, impurity_solver=wrapped, start=start,
                         max_iter=40)
        # Nelder-Mead takes 77 evaluations from this start.
        assert len(calls) <= 8
        assert out.converged
        assert out.n_iter == len(out.cost_trace) == len(calls)
        np.testing.assert_allclose(np.concatenate([out.r, out.lam]),
                                   np.concatenate([exact.r, exact.lam]),
                                   rtol=0, atol=1e-9)

    def test_difference_step_is_floored(self, monkeypatch):
        # At the n_c = 1 noninteracting start lambda = eps_loc = 5.3e-17; a
        # step relative to |lambda| alone leaves J's lambda column zero.
        spec = LatticeSpec(n_c=1, u=0.05)
        calls = circuit_points(monkeypatch)
        out = risb_solve(spec, impurity_solver=wrapped,
                         start=noninteracting_start(spec), max_iter=40)
        assert out.converged
        assert out.n_iter == len(out.cost_trace) == len(calls) <= 8

    def test_iterate_on_the_clamp_falls_back_to_nelder_mead(self,
                                                            monkeypatch):
        # Chord steps from this Mott-side start reach R below MOTT_CLAMP.
        spec = LatticeSpec(n_c=1, u=5.0)
        x0 = np.array([0.05, 2.5])
        calls = circuit_points(monkeypatch)
        out = risb_solve(spec, impurity_solver=wrapped,
                         start=(x0[:1], x0[1:]), max_iter=30)
        plain, nit = nelder_mead_points(spec, x0, 30)
        chord = np.array(calls[:len(calls) - len(plain)])
        np.testing.assert_array_equal(chord[0], x0)
        assert len(chord) >= 2
        assert abs(chord[-1][0]) < embedding_module.MOTT_CLAMP
        np.testing.assert_array_equal(np.array(calls[len(chord):]), plain)
        assert out.n_iter == nit
        assert len(out.cost_trace) == len(calls)

    def test_rejected_iterate_falls_back_to_nelder_mead(self, monkeypatch):
        # A noisy chord can run off to a cluster the circuit solver cannot
        # take; here the solver rejects the first chord iterate's cluster.
        spec = LatticeSpec(n_c=1, u=1.0)
        x0 = np.array([0.9, 0.5])
        solves = []

        def rejecting(emb):
            solves.append(emb)
            if len(solves) == 2:
                raise ValueError("one-body matrix is not Hermitian")
            return ed_impurity_solver(emb)

        calls = circuit_points(monkeypatch)
        out = risb_solve(spec, impurity_solver=rejecting,
                         start=(x0[:1], x0[1:]), max_iter=40)
        plain, nit = nelder_mead_points(spec, x0, 40)
        np.testing.assert_array_equal(np.array(calls[2:]), plain)
        assert len(out.cost_trace) == 1 + len(plain)
        assert out.n_iter == nit

    def test_runaway_iterate_falls_back_unevaluated(self, monkeypatch):
        # Under calibrated noise a chord step ran off to Z = 3455; here a
        # carried J that turns the f2 residual (0.023) into a hundredfold
        # step in R sends the first iterate to R = -1.39, Z = 1.94.
        spec = LatticeSpec(n_c=1, u=1.0)
        x0 = np.array([0.9, 0.5])
        plain, nit = nelder_mead_points(spec, x0, 40)
        calls = circuit_points(monkeypatch)
        out = risb_solve(spec, impurity_solver=wrapped,
                         start=(x0[:1], x0[1:]), max_iter=40,
                         jacobian=np.array([[0.0, 0.01], [0.01, 0.0]]))
        np.testing.assert_array_equal(np.array(calls),
                                      np.vstack([x0, plain]))
        assert out.n_iter == nit
        assert np.all(out.z <= 1)

    def test_exact_solver_errors_still_raise(self, monkeypatch):
        solves = []

        def broken(emb):
            solves.append(emb)
            if len(solves) == 2:  # inside the root search
                raise ValueError("broken cluster solver")
            return ed_impurity_solver(emb)

        monkeypatch.setattr(embedding_module, "ed_impurity_solver", broken)
        spec = LatticeSpec(n_c=1, u=1.0)
        with pytest.raises(ValueError, match="broken"):
            risb_solve(spec, start=(np.array([0.9]), np.array([0.5])))

    def test_singular_jacobian_falls_back_to_nelder_mead(self,
                                                         monkeypatch):
        spec = LatticeSpec(n_c=1, u=1.0)
        x0 = np.array([0.9, 0.5])
        frozen = risb_cost(x0[:1], x0[1:], spec)
        plain, nit = nelder_mead_points(spec, x0, 40)
        calls = []

        def flat_exact(r, lam, spec, impurity_solver=None):
            # The exact residual does not move: every difference is zero.
            if impurity_solver is None:
                return frozen
            calls.append(np.concatenate([r, lam]))
            return risb_cost(r, lam, spec, impurity_solver)

        monkeypatch.setattr(embedding_module, "risb_cost", flat_exact)
        out = risb_solve(spec, impurity_solver=wrapped,
                         start=(x0[:1], x0[1:]), max_iter=40)
        np.testing.assert_array_equal(np.array(calls),
                                      np.vstack([x0, plain]))
        assert out.n_iter == nit

    def test_singular_carried_jacobian_ends_the_exact_point(self,
                                                            monkeypatch):
        # On the exact path a singular J ends the point after the start's
        # evaluation, and is not carried on.
        spec = LatticeSpec(n_c=1, u=1.0)
        x0 = np.array([0.9, 0.5])
        calls = counting_cost(monkeypatch)
        out = risb_solve(spec, start=(x0[:1], x0[1:]), max_iter=40,
                         jacobian=np.zeros((2, 2)))
        np.testing.assert_array_equal(np.array(calls), [x0])
        assert out.n_iter == len(out.cost_trace) == 1
        assert out.jacobian is None and not out.converged
        np.testing.assert_array_equal(np.concatenate([out.r, out.lam]), x0)
        assert out.cost == risb_cost(x0[:1], x0[1:], spec).cost

    def test_circuit_sweep_setup_lands_near_the_exact_root(self):
        # The benchmark's circuit-sweep point, run in process: capped BFGS
        # mrep(2,4) fits with four cost evaluations from the U = 0.15 root.
        reference = risb_sweep(LatticeSpec(n_c=2, u=0.0),
                               [0.0, 0.05, 0.1, 0.15, 0.2], max_iter=400)
        spec = LatticeSpec(n_c=2, u=0.2)
        solver = vqe_impurity_solver(build_mrep(2, 4), basis="exact-no",
                                     n_starts=2, seed=7, optimizer="bfgs",
                                     max_iter=50)
        out = risb_sweep(spec, [0.2], solver, reference=reference,
                         max_iter=4)[0].output
        exact = reference[-1].output
        assert out.n_iter == len(out.cost_trace) == 4
        np.testing.assert_allclose(out.z, exact.z, rtol=0.02)
        np.testing.assert_allclose(out.lambda_tilde(spec),
                                   exact.lambda_tilde(spec), rtol=0.02)
