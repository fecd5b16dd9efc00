"""Natural-orbital iteration: density-matrix diagonalization gauges,
coefficient rotations, fixed points, and the 7-to-52 term inflation."""

import json
import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from risbvqe import MATRIX_TOL
from risbvqe.circuits import build_hea_nc1
from risbvqe.ed import (ed_rdm1, ground_state, half_filling_sector,
                        hamiltonian_matrix)
from risbvqe.estimator import circuit_rdm1
from risbvqe.hamiltonians import EmbeddingHamiltonian, OrbitalHamiltonian
from risbvqe.noization import (BasisRotation, NoizeResult,
                               determine_fixed_no_basis, diagonalize_rdm,
                               exact_no_basis, noize, offdiagonal_norm,
                               rotate_hamiltonian, vqe_impurity_solver)
from risbvqe.pauli import count_terms
from risbvqe.simulator import Observable
from risbvqe.vqe import multi_start

SQ2 = 1.0 / math.sqrt(2.0)


def generic_cluster(u: float = 1.4) -> EmbeddingHamiltonian:
    return EmbeddingHamiltonian(n_c=1, u_int=u, d_mix=[[-0.35]],
                                lambda_c=[[-0.6]], mu=0.55)


def ed_solve(orb):
    gs = ground_state(orb, half_filling_sector(1))
    return gs.energy, ed_rdm1(gs.state, 1).matrix


class TestDiagonalizeRdm:
    def test_already_diagonal_reorders(self):
        basis = diagonalize_rdm(np.diag([0.3, 0.7]))
        np.testing.assert_allclose(basis.occupations, [0.7, 0.3])
        np.testing.assert_allclose(basis.v, [[0.0, 1.0], [1.0, 0.0]],
                                   atol=1e-14)

    def test_rank_one_projector(self):
        basis = diagonalize_rdm(np.full((2, 2), 0.5))
        np.testing.assert_allclose(basis.occupations, [1.0, 0.0],
                                   atol=1e-14)
        np.testing.assert_allclose(basis.v, [[SQ2, SQ2], [SQ2, -SQ2]],
                                   atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        dim = 4
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(raw)
        occ = rng.uniform(0.0, 1.0, dim)
        rdm = q @ np.diag(occ) @ q.conj().T
        basis = diagonalize_rdm(rdm)
        rebuilt = basis.v @ np.diag(basis.occupations) @ basis.v.conj().T
        np.testing.assert_allclose(rebuilt, rdm, atol=1e-9)
        gram = basis.v.conj().T @ basis.v
        np.testing.assert_allclose(gram, np.eye(dim), atol=1e-10)
        assert all(a >= b - 1e-12 for a, b in
                   zip(basis.occupations, basis.occupations[1:]))

    def test_gauge_is_deterministic(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(3, 3))
        rdm = 0.5 * (raw + raw.T) * 0.05 + 0.5 * np.eye(3)
        a, b = diagonalize_rdm(rdm), diagonalize_rdm(rdm.copy())
        np.testing.assert_array_equal(a.v, b.v)
        for j in range(3):
            pivot = np.argmax(np.abs(a.v[:, j]))
            assert a.v[pivot, j] > 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            diagonalize_rdm(np.array([[0.5, 0.2], [0.1, 0.5]]))
        with pytest.raises(ValueError, match="Hermitian"):
            diagonalize_rdm(np.array([[0.6, 0.2 + 1e-6], [0.2, 0.4]]))

    def test_skew_is_relative_to_the_largest_entry(self):
        # an exact rotation of a 1e7-scale matrix leaves rounding skew far
        # above 1e-10; a skew of 1e-6 of its largest entry still raises
        v = unitary_group.rvs(4, random_state=np.random.default_rng(5))
        big = 1e7 * v @ np.diag([4.0, -1.0, 0.5, 2.0]) @ v.conj().T
        assert np.abs(big - big.conj().T).max() > MATRIX_TOL
        np.testing.assert_allclose(diagonalize_rdm(big).occupations,
                                   [4e7, 2e7, 0.5e7, -1e7])
        big[3, 0] += 1e-6 * np.abs(big).max()
        with pytest.raises(ValueError, match="Hermitian"):
            diagonalize_rdm(big)

    def test_degenerate_block_diagonalizes_projected_h(self):
        h = np.array([[0.2, 0.05], [0.05, -0.1]])
        basis = diagonalize_rdm(0.5 * np.eye(2), h=h)
        projected = basis.v.conj().T @ h @ basis.v
        assert offdiagonal_norm(projected) < 1e-12


class TestBasisRotation:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            BasisRotation(np.array([[1.0, 0.0], [1.0, 1.0]]))
        v = unitary_group.rvs(4, random_state=np.random.default_rng(8))
        BasisRotation(v)
        v[1, 3] += 1e-6
        for bad in (v, np.diag([1.0 + 1e-6, 1.0, 1.0, 1.0])):
            with pytest.raises(ValueError, match="unitary"):
                BasisRotation(bad)


class TestRotateHamiltonian:
    def test_identity_is_noop(self):
        orb = generic_cluster().orbital()
        rotated = rotate_hamiltonian(orb, BasisRotation(np.eye(2)))
        np.testing.assert_allclose(rotated.h, orb.h, atol=1e-15)
        np.testing.assert_allclose(rotated.u, orb.u, atol=1e-15)

    def test_permutation_preserves_spectrum(self):
        orb = generic_cluster().orbital()
        perm = BasisRotation(np.array([[0.0, 1.0], [1.0, 0.0]]))
        rotated = rotate_hamiltonian(orb, perm)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(hamiltonian_matrix(rotated)),
            np.linalg.eigvalsh(hamiltonian_matrix(orb)), atol=1e-9)

    def test_dimension_mismatch(self):
        # `OrbitalHamiltonian.rotate` checks the shape, for both spins or one
        orb = generic_cluster().orbital()
        for wrong in (3, 8):
            with pytest.raises(ValueError, match="does not match 4 modes"):
                rotate_hamiltonian(orb, BasisRotation(np.eye(wrong)))

    def test_composition(self):
        rng = np.random.default_rng(23)
        orb = generic_cluster().orbital()
        v1, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        v2, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        stepwise = rotate_hamiltonian(rotate_hamiltonian(
            orb, BasisRotation(v1)), BasisRotation(v2))
        combined = rotate_hamiltonian(orb, BasisRotation(v1 @ v2))
        np.testing.assert_allclose(stepwise.h, combined.h, atol=1e-10)
        np.testing.assert_allclose(stepwise.u, combined.u, atol=1e-10)


class TestExactNoBasis:
    def test_diagonalizes_ground_state_rdm(self):
        emb = generic_cluster()
        basis = exact_no_basis(emb)
        gs = ground_state(emb, half_filling_sector(1))
        rdm = ed_rdm1(gs.state, 1).matrix
        rotated_rdm = basis.v.conj().T @ rdm @ basis.v
        assert offdiagonal_norm(rotated_rdm) < 1e-9
        assert sum(basis.occupations) == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_limit_is_one_body_eigenbasis(self):
        emb = EmbeddingHamiltonian(n_c=1, u_int=0.0, d_mix=[[-0.4]],
                                   lambda_c=[[0.004]])
        basis = exact_no_basis(emb)
        h_spin = emb.orbital().h[:2, :2]
        projected = basis.v.conj().T @ h_spin @ basis.v
        assert offdiagonal_norm(projected) < 1e-9

    def test_degenerate_ground_state_flagged(self):
        emb = EmbeddingHamiltonian(n_c=1, u_int=0.0, d_mix=[[0.0]],
                                   lambda_c=[[0.0]])
        with pytest.warns(UserWarning, match="degenerate"):
            exact_no_basis(emb)


class TestNoize:
    def test_exact_solver_fixed_point(self):
        emb = generic_cluster()
        orb_no = rotate_hamiltonian(emb.orbital(), exact_no_basis(emb))
        result = noize(orb_no, n_steps=2, solve=ed_solve)
        assert result.reports[0]["offdiag_norm"] < 1e-6
        np.testing.assert_allclose(result.basis.v, np.eye(2), atol=1e-6)

    def test_exact_solver_converges_in_one_step(self):
        emb = generic_cluster()
        gs_energy = ground_state(emb, half_filling_sector(1)).energy
        result = noize(emb.orbital(), n_steps=3, solve=ed_solve)
        for report in result.reports:
            assert report["energy"] == pytest.approx(gs_energy, abs=1e-10)
        assert result.reports[0]["offdiag_norm"] > 1e-3
        assert result.reports[1]["offdiag_norm"] < 1e-9

    @pytest.mark.filterwarnings("ignore:spin blocks")
    def test_reports_are_json_records(self):
        result = noize(generic_cluster(), ansatz=build_hea_nc1(),
                       n_steps=2, n_starts=2, seed=5, max_iter=300)
        payload = json.loads(json.dumps(result.reports))
        assert len(payload) == 2
        assert set(payload[0]) == {"step", "energy", "occupations",
                                   "offdiag_norm", "n_terms"}
        assert payload[0]["step"] == 1
        assert all(math.isfinite(r["energy"]) for r in payload)
        assert isinstance(result, NoizeResult)
        assert result.final is not None

    @pytest.mark.filterwarnings("ignore:spin blocks")
    def test_single_step_equals_plain_vqe(self):
        emb = generic_cluster()
        result = noize(emb, ansatz=build_hea_nc1(), n_steps=1, n_starts=2,
                       seed=11, max_iter=150)
        rng = np.random.default_rng(11)
        reference = multi_start(Observable(hamiltonian_matrix(emb)),
                                build_hea_nc1(), n_starts=2,
                                seed=int(rng.integers(2 ** 63)),
                                max_iter=150)
        assert result.reports[0]["energy"] == pytest.approx(
            reference.best_energy)

    def test_solver_input_checks(self):
        with pytest.raises(ValueError, match="unknown basis mode 'natural'"):
            vqe_impurity_solver(build_hea_nc1(), basis="natural")
        two_site = EmbeddingHamiltonian(n_c=2, u_int=1.0,
                                        d_mix=[[-0.3, 0.0], [0.0, -0.3]],
                                        lambda_c=[[0.1, 0.0], [0.0, 0.1]])
        solver = vqe_impurity_solver(build_hea_nc1())
        with pytest.raises(ValueError, match="ansatz spans 4 qubits but "
                                             "the cluster needs 8"):
            solver(two_site)

    @pytest.mark.filterwarnings("ignore:spin blocks")
    def test_noize_solver_returns_the_fitted_rdm(self):
        # The cluster solver's noize basis runs noize with the seed it draws
        # and returns the final fit's 1-RDM, rebuilt from its natural
        # orbitals and occupations.
        emb, ansatz = generic_cluster(), build_hea_nc1()
        solver = vqe_impurity_solver(ansatz, basis="noize", n_steps=1,
                                     n_starts=1, seed=5)
        got = solver(emb)
        seed = int(np.random.default_rng(5).integers(2 ** 63))
        result = noize(emb, ansatz=ansatz, n_steps=1, n_starts=1, seed=seed)
        np.testing.assert_allclose(
            got, circuit_rdm1(ansatz, result.final.bindings(), 1),
            rtol=0, atol=1e-14)

    def test_validation(self):
        emb = generic_cluster()
        with pytest.raises(ValueError, match="n_steps"):
            noize(emb, ansatz=build_hea_nc1(), n_steps=0)
        with pytest.raises(ValueError, match="ansatz"):
            noize(emb, n_steps=1)
        with pytest.raises(ValueError, match="4 n_c modes, not 6"):
            noize(OrbitalHamiltonian(np.eye(6)), ansatz=build_hea_nc1(),
                  n_steps=1)
        with pytest.raises(ValueError, match="4 n_c modes, not 2"):
            exact_no_basis(OrbitalHamiltonian(np.eye(2)))


class TestTermInflation:
    def test_seven_to_fifty_two(self):
        emb = EmbeddingHamiltonian(n_c=1, u_int=1.0, d_mix=[[-0.4]],
                                   lambda_c=[[-0.475]], mu=0.475)
        assert count_terms(emb.orbital().to_pauli()) == 7
        basis = determine_fixed_no_basis()
        rotated = rotate_hamiltonian(emb.orbital(), basis)
        assert count_terms(rotated.to_pauli()) == 52

    def test_fixed_basis_is_reproducible(self):
        a = determine_fixed_no_basis(seed=202, n_starts=2, n_cycles=4)
        b = determine_fixed_no_basis(seed=202, n_starts=2, n_cycles=4)
        np.testing.assert_array_equal(a.v, b.v)
