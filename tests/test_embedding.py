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
from risbvqe.embedding import (FIXED_POINT_TOL, CostReport, LatticeSpec,
                               SymMatrix, bath_kernel, bath_kernel_slope,
                               build_embedding_hamiltonian, classical_point,
                               dispersion, ed_impurity_solver, eps_loc,
                               fermi, find_mu, lambda_c, matsubara_fermi,
                               noninteracting_start, qp_fill,
                               risb_cost, risb_solve, risb_sweep, solve_d,
                               sym_project)

from oracles import matrix_lambda_c, single_site_z, sym_from_matrix

HAD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def site_channels(m) -> np.ndarray:
    """Diagonal of the bonding/antibonding transform of a 2x2 mean."""
    rotated = HAD @ np.asarray(m) @ HAD
    assert abs(rotated[0, 1]) < 1e-9 and abs(rotated[1, 0]) < 1e-9
    return rotated.real.diagonal().copy()


class TestSymMatrix:
    def test_round_trip_two_site(self):
        m = np.array([[0.4, -0.1], [-0.1, 0.4]])
        sym = sym_from_matrix(m)
        assert sym.plus == pytest.approx(0.3)
        assert sym.minus == pytest.approx(0.5)
        np.testing.assert_allclose(sym.to_matrix(), m, atol=1e-15)

    def test_single_site(self):
        sym = sym_from_matrix([[0.7]])
        assert sym.minus is None
        assert sym.n_channels == 1
        np.testing.assert_allclose(sym.to_matrix(), [[0.7]])
        np.testing.assert_allclose(sym.channels(), [0.7])

    def test_rejects_asymmetric_form(self):
        with pytest.raises(ValueError, match="form"):
            sym_from_matrix([[0.4, 0.1], [0.1, 0.6]])
        with pytest.raises(ValueError, match="form"):
            sym_from_matrix([[0.4, 0.1], [0.3, 0.4]])

    def test_projection_averages(self):
        sym = sym_project([[1.0, 2.0], [4.0, 1.0]])
        assert sym.plus == pytest.approx(4.0)
        assert sym.minus == pytest.approx(-2.0)

    def test_channel_map(self):
        sym = SymMatrix(0.3, -0.2).map(lambda c: c ** 2)
        np.testing.assert_allclose(sym.channels(), [0.09, 0.04])


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
        np.testing.assert_allclose(local.channels(), [-0.35, 0.15],
                                   atol=1e-12)

    def test_single_site(self):
        spec = LatticeSpec(n_c=1, u=1.0)
        assert eps_loc(spec, mu=0.2).plus == pytest.approx(-0.2, abs=1e-12)


class TestQpFill:
    def test_half_filling_symmetric_point(self):
        spec = LatticeSpec(n_c=1, u=0.0)
        delta, kinetic = qp_fill(SymMatrix(1.0), SymMatrix(0.0), 0.0, spec)
        assert delta.plus == pytest.approx(0.5, abs=1e-12)
        assert kinetic.plus < -0.1

    def test_singular_r_rejected(self):
        spec = LatticeSpec(n_c=1, u=0.0)
        with pytest.raises(ValueError, match="singular"):
            qp_fill(SymMatrix(0.0), SymMatrix(0.0), 0.0, spec)

    def test_matches_zero_temperature_projectors(self):
        # At beta = 4000 every quasiparticle level sits far from the Fermi
        # edge, so occupations must match the filled-projector sum.
        spec = LatticeSpec(n_c=2, u=0.0, mesh=8, beta=4000.0)
        r = SymMatrix(0.9, 0.8)
        lam = SymMatrix(0.1, -0.05)
        mu = 0.37
        rm, lm = r.to_matrix(), lam.to_matrix()
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
        np.testing.assert_allclose(delta.channels(),
                                   site_channels(fill_sum / n_k), atol=1e-7)
        np.testing.assert_allclose(kinetic.channels(),
                                   site_channels(kin_sum / n_k), atol=1e-7)

    def test_trace_after_mu_adjustment(self):
        spec = LatticeSpec(n_c=2, u=1.0)
        r = SymMatrix(0.9, 0.7)
        lam = SymMatrix(0.3, -0.2)
        mu = find_mu(r, lam, spec)
        delta, _ = qp_fill(r, lam, mu, spec)
        assert delta.channels().mean() == pytest.approx(0.5, abs=1e-8)


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
        r = SymMatrix(0.85, 0.75)
        lam = SymMatrix(0.12, -0.08)
        mu = 0.05
        rm, lm = r.to_matrix(), lam.to_matrix()
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
        np.testing.assert_allclose(delta.channels(),
                                   site_channels(fill_sum / n_k), atol=1e-5)
        np.testing.assert_allclose(kinetic.channels(),
                                   site_channels(kin_sum / n_k), atol=1e-5)


class TestBathClosure:
    def test_hybridization_solve(self):
        delta = SymMatrix(0.3, 0.6)
        kinetic = SymMatrix(-0.12, -0.2)
        d = solve_d(delta, kinetic)
        np.testing.assert_allclose(d.channels(),
                                   [-0.12 / math.sqrt(0.21),
                                    -0.2 / math.sqrt(0.24)])
        np.testing.assert_allclose(bath_kernel(delta.channels())
                                   * d.channels(), kinetic.channels())

    def test_degenerate_bath_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            solve_d(SymMatrix(1.0, 0.5), SymMatrix(0.1, 0.1))
        with pytest.raises(ValueError, match="degenerate"):
            solve_d(SymMatrix(0.0), SymMatrix(0.1))

    def test_half_filled_bath_potential_cancels(self):
        lam = SymMatrix(0.7, -0.4)
        out = lambda_c(SymMatrix(0.5, 0.5), SymMatrix(-0.3, 0.2),
                       SymMatrix(0.9, 0.8), lam)
        np.testing.assert_allclose(out.channels(), -lam.channels())

    def test_channel_and_matrix_routes_agree(self):
        delta = SymMatrix(0.41, 0.63)
        d = SymMatrix(-0.35, 0.22)
        r = SymMatrix(0.93, 0.81)
        lam = SymMatrix(0.27, -0.14)
        fast = lambda_c(delta, d, r, lam).to_matrix()
        full = matrix_lambda_c(delta.to_matrix(), d.to_matrix(),
                               r.to_matrix(), lam.to_matrix())
        np.testing.assert_allclose(fast, full, atol=1e-12)

    def test_scalar_matrix_route(self):
        fast = lambda_c(SymMatrix(0.37), SymMatrix(-0.5), SymMatrix(0.85),
                        SymMatrix(0.3))
        full = matrix_lambda_c([[0.37]], [[-0.5]], [[0.85]], [[0.3]])
        assert full[0, 0] == pytest.approx(fast.plus)

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
        assert find_mu(SymMatrix(0.8), SymMatrix(0.37), spec) == 0.37

    def test_single_site_off_half_filling(self):
        spec = LatticeSpec(n_c=1, u=1.0, filling=0.4)
        r, lam = SymMatrix(0.8), SymMatrix(0.37)
        mu = find_mu(r, lam, spec)
        assert mu != lam.plus
        delta, _ = qp_fill(r, lam, mu, spec)
        assert delta.plus == pytest.approx(0.4, abs=1e-8)

    def test_two_site_filling_target(self):
        spec = LatticeSpec(n_c=2, u=1.0)
        r, lam = SymMatrix(0.95, 0.6), SymMatrix(-0.3, 0.45)
        mu = find_mu(r, lam, spec)
        delta, _ = qp_fill(r, lam, mu, spec)
        assert delta.channels().mean() == pytest.approx(0.5, abs=1e-8)

    def test_each_mu_filled_once(self, monkeypatch):
        from scipy.optimize import brentq
        spec = LatticeSpec(n_c=2, u=1.0)
        r, lam = SymMatrix(0.95, 0.6), SymMatrix(-0.3, 0.45)
        plain = []

        def gap(mu):
            plain.append(mu)
            return float(qp_fill(r, lam, mu, spec)[0].channels().mean()) - 0.5

        # The first bracket [-2.45, 2.45] holds the root.  Plain brentq
        # fills both ends again; find_mu's bracket search already has them.
        want = brentq(gap, -2.45, 2.45, xtol=1e-12)
        filled = []

        def counting_fill(r, lam, mu, spec):
            filled.append(mu)
            return qp_fill(r, lam, mu, spec)

        monkeypatch.setattr(embedding_module, "qp_fill", counting_fill)
        assert find_mu(r, lam, spec) == want
        assert filled[:2] == [-2.45, 2.45]
        assert len(filled) == len(set(filled)) == len(plain)

    def test_lost_bracket_is_a_solver_failure(self, monkeypatch):
        # A filling that ignores mu can never cross the target.
        monkeypatch.setattr(embedding_module, "qp_fill",
                            lambda r, lam, mu, spec: (SymMatrix(0.2, 0.2),
                                                      None))
        with pytest.raises(SolverFailure, match="bracket"):
            find_mu(SymMatrix(0.9, 0.8), SymMatrix(0.0, 0.0),
                    LatticeSpec(n_c=2, u=1.0))


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
        report = risb_cost(SymMatrix(1.0), SymMatrix(0.0), spec)
        assert report.cost < 1e-9
        assert report.mu == 0.0
        assert report.emb.u_int == 0.0

    def test_residual_blocks(self):
        spec = LatticeSpec(n_c=1, u=2.0)
        r, lam = SymMatrix(0.8), SymMatrix(0.3)
        fake = np.array([[0.6, 0.2], [0.2, 0.45]])
        report = risb_cost(r, lam, spec, impurity_solver=lambda emb: fake)
        delta, _ = qp_fill(r, lam, report.mu, spec)
        f1 = (1.0 - 0.45) - delta.plus
        f2 = 0.2 - 0.8 * bath_kernel(delta.plus)
        assert report.f1.plus == pytest.approx(f1)
        assert report.f2.plus == pytest.approx(f2)
        assert report.cost == pytest.approx(math.hypot(f1, f2))

    def test_small_r_is_clamped(self):
        spec = LatticeSpec(n_c=1, u=1.0)
        report = risb_cost(SymMatrix(1e-5), SymMatrix(0.5), spec)
        assert report.clamped
        assert math.isfinite(report.cost)

    def test_degenerate_channels_give_infinite_cost(self):
        # On the two-point mesh the inter-channel coupling vanishes, so a
        # huge multiplier split saturates one channel exactly.
        spec = LatticeSpec(n_c=2, u=1.0, mesh=2)
        report = risb_cost(SymMatrix(1.0, 1.0), SymMatrix(50.0, -50.0), spec)
        assert report.cost == math.inf
        assert report.f1 is None

    def test_imbalanced_multipliers_are_repelled(self):
        spec = LatticeSpec(n_c=2, u=1.0)
        report = risb_cost(SymMatrix(1.0, 1.0), SymMatrix(50.0, -50.0), spec)
        assert math.isfinite(report.cost)
        assert report.cost > 0.1


class TestSolve:
    @pytest.mark.parametrize("u", [1.0, 2.0])
    def test_matches_scalar_reference(self, u):
        spec = LatticeSpec(n_c=1, u=u)
        out = risb_solve(spec, start=(SymMatrix(0.85),
                                      SymMatrix(0.5 * u + 0.05)),
                         max_iter=600)
        assert out.converged
        assert out.cost < 1e-6
        assert out.z.plus == pytest.approx(single_site_z(u), abs=1e-3)
        # Particle-hole symmetry pins the impurity level to half the
        # interaction and the chemical potential follows the multiplier.
        assert out.lam.plus == pytest.approx(0.5 * u, abs=1e-4)
        assert out.mu == out.lam.plus

    def test_noninteracting_two_site(self):
        spec = LatticeSpec(n_c=2, u=0.0)
        start = (SymMatrix(0.97, 0.97), SymMatrix(spec.t, -spec.t))
        out = risb_solve(spec, start=start, max_iter=400)
        assert out.cost < 1e-6
        np.testing.assert_allclose(out.z.channels(), [1.0, 1.0], atol=1e-3)
        np.testing.assert_allclose(out.lambda_tilde(spec).channels(),
                                   [0.0, 0.0], atol=5e-3)

    def test_never_finite_cost_is_a_solver_failure(self, monkeypatch):
        monkeypatch.setattr(embedding_module, "risb_cost",
                            lambda *args: CostReport(cost=math.inf))
        with pytest.raises(SolverFailure, match="never became finite"):
            risb_solve(LatticeSpec(n_c=1, u=1.0), max_iter=5)

    def test_reports_best_seen_point(self):
        spec = LatticeSpec(n_c=1, u=1.0)
        out = risb_solve(spec, start=(SymMatrix(0.7), SymMatrix(0.3)),
                         max_iter=30)
        costs = [c for _, c in out.cost_trace]
        assert out.cost == pytest.approx(min(costs))
        assert out.cost < costs[0]

    def test_strong_coupling_localizes(self):
        # Above the localization threshold (~3.24 here) the quasiparticle
        # weight collapses to the clamp floor.
        spec = LatticeSpec(n_c=1, u=5.0)
        out = risb_solve(spec, start=(SymMatrix(0.1), SymMatrix(2.5)),
                         max_iter=200)
        assert out.z.plus < 1e-4

    def test_solver_callable_is_used(self):
        spec = LatticeSpec(n_c=1, u=1.0)
        calls = []

        def counting_solver(emb):
            calls.append(emb.u_int)
            return ed_impurity_solver(emb)

        risb_solve(spec, impurity_solver=counting_solver,
                   start=(SymMatrix(0.9), SymMatrix(0.5)), max_iter=5)
        assert calls and all(u == 1.0 for u in calls)


def counting_cost(monkeypatch) -> list:
    """Route risb_solve's cost calls through a recorder of (R, lambda)."""
    points = []

    def recorded(r, lam, spec, impurity_solver=None):
        points.append(np.concatenate([r.channels(), lam.channels()]))
        return risb_cost(r, lam, spec, impurity_solver)

    monkeypatch.setattr(embedding_module, "risb_cost", recorded)
    return points


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
        # 1 evaluation at U = 0 and 13 at each later point.
        assert [len(p.output.cost_trace) for p in points] == [1] + [13] * 4
        assert len(calls) <= 53

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
                np.testing.assert_array_equal(getattr(a, name).channels(),
                                              getattr(b, name).channels())

    def test_start_at_fixed_point_skips_root_search(self, monkeypatch):
        calls = counting_cost(monkeypatch)
        spec = LatticeSpec(n_c=2, u=0.0)
        start = noninteracting_start(spec)
        out = risb_solve(spec, start=start, max_iter=400)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.concatenate(
            [start[0].channels(), start[1].channels()]))
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
            np.testing.assert_array_equal(getattr(report, name).channels(),
                                          getattr(fresh, name).channels())
        np.testing.assert_array_equal(report.rdm, fresh.rdm)
        for name in ("n_c", "u_int", "d_mix", "lambda_c", "mu", "t_intra"):
            np.testing.assert_array_equal(getattr(report.emb, name),
                                          getattr(fresh.emb, name))

    @pytest.mark.parametrize("u", [0.5, 2.0, 3.0])
    def test_single_site_matches_scalar_oracle(self, u):
        spec = LatticeSpec(n_c=1, u=u)
        out = risb_solve(spec, start=(SymMatrix(0.85),
                                      SymMatrix(0.5 * u + 0.05)))
        assert out.converged
        assert out.z.plus == pytest.approx(single_site_z(u), abs=1e-6)

    def test_mott_start_falls_back_to_nelder_mead(self):
        # The root search drives R onto the clamp, where the residual
        # cannot vanish; Nelder-Mead then restarts from the same start.
        spec = LatticeSpec(n_c=1, u=5.0)
        out = risb_solve(spec, start=(SymMatrix(0.1), SymMatrix(2.5)),
                         max_iter=200)
        costs = [c for _, c in out.cost_trace]
        assert costs[0] in costs[1:]
        assert out.clamped
        assert not out.converged
        assert out.cost > FIXED_POINT_TOL

    def test_wrapped_solver_keeps_nelder_mead(self, monkeypatch):
        calls = counting_cost(monkeypatch)
        spec = LatticeSpec(n_c=1, u=1.0)
        x0 = np.array([0.9, 0.5])

        def wrapped(emb):
            return ed_impurity_solver(emb)

        out = risb_solve(spec, impurity_solver=wrapped,
                         start=(SymMatrix(x0[0]), SymMatrix(x0[1])),
                         max_iter=40)
        plain = []

        def cost(x):
            plain.append(x.copy())
            return risb_cost(SymMatrix(x[0]), SymMatrix(x[1]), spec).cost

        simplex = np.vstack([x0] + [x0 + embedding_module.SIMPLEX_STEP * e
                                    for e in np.eye(2)])
        result = minimize(cost, x0, method="Nelder-Mead",
                          options={"maxiter": 40,
                                   "xatol": embedding_module.SIMPLEX_XATOL,
                                   "fatol": embedding_module.SIMPLEX_FATOL,
                                   "initial_simplex": simplex})
        # Nelder-Mead's own evaluation count for this start and cap.
        assert len(calls) == len(plain) == 77
        np.testing.assert_array_equal(np.array(calls), np.array(plain))
        assert out.n_iter == result.nit
        assert out.converged == (out.cost < FIXED_POINT_TOL)
