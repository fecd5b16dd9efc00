"""Variational loop: analytic minima, variational bounds, seeded restarts,
and the single-site cost landscape."""

import math

import numpy as np
import pytest

from risbvqe import SolverFailure
from risbvqe.circuits import build_hea_nc1, build_mr_nc1
from risbvqe.ed import SectorLabel, ground_state
from risbvqe.embedding import LatticeSpec, SymMatrix, risb_cost, risb_solve
from risbvqe.estimator import expectation
from risbvqe.hamiltonians import EmbeddingHamiltonian
from risbvqe.pauli import PauliSum
from risbvqe.simulator import adjoint_gradient, calibrate_noise, run
from risbvqe.vqe import (LandscapeTable, VqeResult, landscape_scan,
                         mr_impurity_solver, multi_start, vqe_minimize)

from oracles import build_product_ry, finite_difference_gradient


def ry_probe() -> tuple[PauliSum, object]:
    return PauliSum({"Z": 1.0}), build_product_ry(1)


def embedded_observable() -> PauliSum:
    emb = EmbeddingHamiltonian(n_c=1, u_int=1.4, d_mix=[[-0.35]],
                               lambda_c=[[-0.7]], mu=0.7)
    return emb.orbital().to_pauli()


class TestSingleStart:
    @pytest.mark.parametrize("optimizer", ["bfgs", "nelder-mead"])
    def test_single_angle_hits_closed_form(self, optimizer):
        obs, ansatz = ry_probe()
        out = vqe_minimize(obs, ansatz, optimizer=optimizer, seed=11)
        assert out.best_energy == pytest.approx(-1.0, abs=1e-6)
        assert out.converged
        assert out.n_starts == 1

    def test_best_energy_is_trace_minimum(self):
        out = vqe_minimize(embedded_observable(), build_hea_nc1(), seed=5)
        energies = [e for _, e in out.trace]
        assert out.best_energy == pytest.approx(min(energies))
        steps = [s for s, _ in out.trace]
        assert steps == list(range(len(steps)))

    def test_variational_bound(self):
        obs = embedded_observable()
        e0 = float(np.linalg.eigvalsh(_dense(obs)).min())
        out = vqe_minimize(obs, build_hea_nc1(), seed=5)
        assert all(e >= e0 - 1e-9 for _, e in out.trace)
        assert out.best_energy >= e0 - 1e-9

    def test_bindings_reproduce_best_energy(self):
        obs, ansatz = ry_probe()
        out = vqe_minimize(obs, ansatz, seed=2)
        state = run(ansatz, out.bindings())
        assert expectation(state, obs) == pytest.approx(out.best_energy)

    def test_sector_restricted_ansatz(self):
        # The paired-determinant circuit never leaves the two-particle
        # spin-balanced sector, so it lands on that sector's minimum even
        # when the unconstrained ground state lies elsewhere.
        emb = EmbeddingHamiltonian(n_c=1, u_int=1.2, d_mix=[[-0.3]],
                                   lambda_c=[[-0.2]], mu=-2.0)
        global_e0 = ground_state(emb).energy
        sector_gs = ground_state(emb, SectorLabel(2, 0))
        assert sector_gs.energy > global_e0 + 0.1
        from risbvqe.ed import ed_rdm1
        _, vecs = np.linalg.eigh(ed_rdm1(sector_gs.state, 1).matrix)
        rotated = emb.orbital().rotate(vecs[:, ::-1])
        out = vqe_minimize(rotated.to_pauli(), build_mr_nc1(), seed=9)
        assert out.best_energy == pytest.approx(sector_gs.energy, abs=1e-7)

    def test_seed_determinism(self):
        obs = embedded_observable()
        first = vqe_minimize(obs, build_hea_nc1(), seed=123)
        second = vqe_minimize(obs, build_hea_nc1(), seed=123)
        assert first.trace == second.trace
        np.testing.assert_array_equal(first.best_params,
                                      second.best_params)

    def test_validation(self):
        obs, ansatz = ry_probe()
        with pytest.raises(ValueError, match="optimizer"):
            vqe_minimize(obs, ansatz, optimizer="adam")
        with pytest.raises(ValueError, match="initial"):
            vqe_minimize(obs, ansatz, x0=[0.1, 0.2])
        from risbvqe.circuits import Circuit, Gate
        fixed = Circuit(1, (Gate("X", (0,)),))
        with pytest.raises(ValueError, match="parameters"):
            vqe_minimize(PauliSum({"Z": 1.0}), fixed, optimizer="bfgs")

    def test_divergent_objective_reported(self, monkeypatch):
        import risbvqe.vqe as vqe_module
        monkeypatch.setattr(vqe_module, "expectation",
                            lambda state, obs: math.nan)
        obs, ansatz = ry_probe()
        with pytest.raises(SolverFailure, match="diverged"):
            vqe_minimize(obs, ansatz, seed=1)

    def test_divergent_gradient_reported(self, monkeypatch):
        import risbvqe.vqe as vqe_module
        monkeypatch.setattr(vqe_module, "adjoint_gradient",
                            lambda circuit, obs, bindings, noise=None:
                            (run(circuit, bindings), np.array([math.inf])))
        obs, ansatz = ry_probe()
        with pytest.raises(SolverFailure, match="diverged"):
            vqe_minimize(obs, ansatz, seed=1)

    @pytest.mark.parametrize("noise", [None, calibrate_noise()])
    def test_bfgs_energy_comes_from_the_gradient_sweep(self, monkeypatch,
                                                      noise):
        import risbvqe.vqe as vqe_module
        sweeps = []

        def recording(circuit, observable, bindings, noise=None):
            sweeps.append(dict(bindings))
            return adjoint_gradient(circuit, observable, bindings,
                                    noise=noise)

        def no_run(*args, **kwargs):
            raise AssertionError("BFGS ran a separate energy sweep")

        monkeypatch.setattr(vqe_module, "adjoint_gradient", recording)
        monkeypatch.setattr(vqe_module, "run", no_run)
        obs, ansatz = embedded_observable(), build_hea_nc1()
        out = vqe_minimize(obs, ansatz, noise=noise, seed=5)
        assert len(out.trace) > 10
        assert len(sweeps) == len(out.trace)
        for bindings, (_, energy) in zip(sweeps, out.trace):
            assert energy == expectation(run(ansatz, bindings, noise=noise),
                                         obs)

    def test_noisy_bfgs_reads_the_pauli_coefficients(self, monkeypatch):
        # The mixed sweep starts from the observable's cached coefficient
        # tensor: no dense matrix is built or converted back on any step.
        import risbvqe.simulator as simulator_module

        def forbidden(*args, **kwargs):
            raise AssertionError("dense observable round trip")

        monkeypatch.setattr(simulator_module, "_pauli_coefficients",
                            forbidden)
        monkeypatch.setattr(simulator_module, "expectation_matrix", forbidden)
        obs, ansatz = embedded_observable(), build_hea_nc1()
        out = vqe_minimize(obs, ansatz, noise=calibrate_noise(), seed=5,
                           max_iter=20)
        assert len(out.trace) > 10
        assert obs._matrix is None

    def test_noise_lifts_the_floor(self):
        obs, ansatz = ry_probe()
        noise = calibrate_noise()
        out = vqe_minimize(obs, ansatz, noise=noise, seed=4)
        ideal = -(1.0 - 4.0 * noise.effective_p1 / 3.0)
        assert out.best_energy == pytest.approx(ideal, abs=1e-6)
        assert out.best_energy > -1.0


class TestMultiStart:
    def test_single_start_matches_plain_run(self):
        obs = embedded_observable()
        batch = multi_start(obs, build_hea_nc1(), n_starts=1, seed=31)
        single = vqe_minimize(obs, build_hea_nc1(), seed=31)
        assert batch.best_energy == pytest.approx(single.best_energy)
        np.testing.assert_array_equal(batch.best_params,
                                      single.best_params)
        assert batch.trace == single.trace

    def test_best_of_n_monotone(self):
        obs = embedded_observable()
        one = multi_start(obs, build_hea_nc1(), n_starts=1, seed=77)
        five = multi_start(obs, build_hea_nc1(), n_starts=5, seed=77)
        assert five.best_energy <= one.best_energy
        assert five.n_starts == 5
        assert len(five.start_energies) == 5
        assert five.best_energy == pytest.approx(min(five.start_energies))

    def test_reproducible(self):
        obs, ansatz = ry_probe()
        a = multi_start(obs, ansatz, n_starts=3, seed=8)
        b = multi_start(obs, ansatz, n_starts=3, seed=8)
        assert a.start_energies == b.start_energies
        np.testing.assert_array_equal(a.best_params, b.best_params)

    def test_rejects_zero_starts(self):
        obs, ansatz = ry_probe()
        with pytest.raises(ValueError, match="n_starts"):
            multi_start(obs, ansatz, n_starts=0, seed=1)


class TestGradient:
    def test_matches_parameter_shift(self):
        # Plain rotation angles obey the half-turn shift rule, so the
        # finite-difference gradient must agree with the analytic one.
        obs = PauliSum({"ZI": 0.7, "IZ": -0.3, "XX": 0.4})
        ansatz = build_product_ry(2)
        names = ansatz.parameter_names

        def energy(x):
            return expectation(run(ansatz, dict(zip(names, x))), obs)

        rng = np.random.default_rng(19)
        for _ in range(3):
            x = rng.uniform(-math.pi, math.pi, 2)
            fd = finite_difference_gradient(energy, x)
            analytic = np.empty(2)
            for i in range(2):
                shift = np.zeros(2)
                shift[i] = math.pi / 2
                analytic[i] = 0.5 * (energy(x + shift) - energy(x - shift))
            np.testing.assert_allclose(fd, analytic, rtol=1e-5, atol=1e-7)


class TestLandscape:
    def test_single_node(self):
        spec = LatticeSpec(n_c=1, u=0.1)
        table = landscape_scan(spec, [0.95], [0.05])
        assert table.costs.shape == (1, 1, 1)
        assert table.costs[0, 0, 0] >= 0.0

    def test_validation(self):
        spec = LatticeSpec(n_c=1, u=0.1)
        with pytest.raises(ValueError, match="empty"):
            landscape_scan(spec, [], [0.0])
        with pytest.raises(ValueError, match="single-site"):
            landscape_scan(LatticeSpec(n_c=2, u=0.1), [0.9], [0.0])
        with pytest.raises(ValueError, match="base noise"):
            landscape_scan(spec, [0.9], [0.0], noise_scales=(1.0,))

    def test_noiseless_minimum_sits_on_solution_node(self):
        spec = LatticeSpec(n_c=1, u=0.1)
        solved = risb_solve(spec, start=(SymMatrix(0.97), SymMatrix(0.05)),
                            max_iter=400)
        assert solved.cost < 1e-6
        r0, l0 = solved.r.plus, solved.lam.plus
        table = landscape_scan(spec, [r0 - 0.01, r0, r0 + 0.01],
                               [l0 - 0.01, l0, l0 + 0.01])
        assert table.min_node(0) == (1, 1)
        assert table.costs[0, 1, 1] < 1e-5

    def test_circuit_solver_matches_exact_solver_noiselessly(self):
        spec = LatticeSpec(n_c=1, u=0.5)
        r, lam = SymMatrix(0.9), SymMatrix(0.25)
        exact = risb_cost(r, lam, spec)
        circuit = risb_cost(r, lam, spec,
                            impurity_solver=mr_impurity_solver())
        assert circuit.cost == pytest.approx(exact.cost, abs=1e-7)

    def test_noise_raises_cost_at_solution(self):
        spec = LatticeSpec(n_c=1, u=0.1)
        solved = risb_solve(spec, start=(SymMatrix(0.97), SymMatrix(0.05)),
                            max_iter=400)
        clean = landscape_scan(spec, [solved.r.plus], [solved.lam.plus])
        noisy = landscape_scan(spec, [solved.r.plus], [solved.lam.plus],
                               noise_scales=(1.0,),
                               base_noise=calibrate_noise())
        assert noisy.costs[0, 0, 0] > clean.costs[0, 0, 0] + 1e-3


def _dense(obs: PauliSum) -> np.ndarray:
    from risbvqe.pauli import expectation_matrix
    return expectation_matrix(obs)
