"""Coefficient bookkeeping, basis rotations, and Pauli compilation."""

import itertools

import numpy as np
import pytest
from scipy.stats import ortho_group, unitary_group

from risbvqe.ed import hamiltonian_matrix
from risbvqe.hamiltonians import (EmbeddingHamiltonian, OrbitalHamiltonian,
                                  mode_index)

RNG = np.random.default_rng(6151)


def random_embedding(rng) -> EmbeddingHamiltonian:
    return EmbeddingHamiltonian(n_c=1, u_int=rng.uniform(0, 3),
                                d_mix=[[rng.uniform(-1, 1)]],
                                lambda_c=[[rng.uniform(-1, 1)]],
                                mu=rng.uniform(-1, 1))


class TestModeLayout:
    def test_spin_major(self):
        assert mode_index(0, 0, 2) == 0
        assert mode_index(0, 3, 2) == 3
        assert mode_index(1, 0, 2) == 4
        assert mode_index(1, 3, 2) == 7

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            mode_index(2, 0, 1)
        with pytest.raises(ValueError):
            mode_index(0, 2, 1)


class TestOrbitalHamiltonian:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            OrbitalHamiltonian(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_bad_tensor_shape(self):
        with pytest.raises(ValueError):
            OrbitalHamiltonian(np.zeros((2, 2)), u=np.zeros((2, 2, 2, 3)))

    def test_constant_shifts_spectrum(self):
        ham = OrbitalHamiltonian(np.zeros((2, 2)), const=1.5)
        np.testing.assert_allclose(np.diag(hamiltonian_matrix(ham)), 1.5)

    def test_free_fermion_spectrum(self):
        h = RNG.normal(size=(4, 4))
        h = h + h.T
        ham = OrbitalHamiltonian(h, const=0.3)
        eps = np.linalg.eigvalsh(h)
        want = sorted(sum(combo) + 0.3
                      for r in range(5)
                      for combo in itertools.combinations(eps, r))
        got = np.sort(np.linalg.eigvalsh(hamiltonian_matrix(ham)))
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestEmbedding:
    def test_block_structure(self):
        emb = EmbeddingHamiltonian(n_c=1, u_int=0.0, d_mix=[[-0.4]],
                                   lambda_c=[[0.004]], mu=0.0)
        orb = emb.orbital()
        block = np.array([[0.0, -0.4], [-0.4, -0.004]])
        np.testing.assert_allclose(orb.h, np.kron(np.eye(2), block),
                                   atol=1e-14)
        assert abs(orb.const - 0.008) < 1e-15

    def test_interaction_sits_on_double_occupation(self):
        emb = EmbeddingHamiltonian(n_c=1, u_int=3.0, d_mix=[[0.0]],
                                   lambda_c=[[0.0]], mu=0.0)
        diag = np.diag(hamiltonian_matrix(emb.orbital())).real
        assert abs(diag[0b1010] - 3.0) < 1e-12
        assert abs(diag[0b1000]) < 1e-12
        assert abs(diag[0b0011]) < 1e-12

    def test_chemical_potential_counts_all_modes(self):
        emb = EmbeddingHamiltonian(n_c=1, u_int=0.0, d_mix=[[0.0]],
                                   lambda_c=[[0.0]], mu=0.7)
        diag = np.diag(hamiltonian_matrix(emb.orbital())).real
        assert abs(diag[0b1111] + 4 * 0.7) < 1e-12

    def test_intra_cluster_hopping(self):
        emb = EmbeddingHamiltonian(n_c=2, u_int=0.0,
                                   d_mix=np.zeros((2, 2)),
                                   lambda_c=np.zeros((2, 2)), mu=0.0,
                                   t_intra=[[0.0, -0.25], [-0.25, 0.0]])
        h = emb.orbital().h
        assert h[0, 1] == -0.25 and h[4, 5] == -0.25
        assert h[0, 4] == 0.0

    def test_pauli_is_hermitian(self):
        for _ in range(5):
            assert random_embedding(RNG).to_pauli().is_hermitian()


class TestRotation:
    def test_identity_is_noop(self):
        orb = random_embedding(RNG).orbital()
        same = orb.rotate(np.eye(2))
        np.testing.assert_allclose(same.h, orb.h, atol=1e-14)
        np.testing.assert_allclose(same.u, orb.u, atol=1e-14)
        assert same.const == orb.const

    def test_permutation_reindexes(self):
        orb = random_embedding(RNG).orbital()
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        swapped = orb.rotate(perm)
        order = [1, 0, 3, 2]
        np.testing.assert_allclose(swapped.h, orb.h[np.ix_(order, order)],
                                   atol=1e-14)

    def test_requires_unitary(self):
        orb = random_embedding(RNG).orbital()
        with pytest.raises(ValueError):
            orb.rotate(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_spectrum_preserved_per_spin(self):
        orb = random_embedding(RNG).orbital()
        base = np.sort(np.linalg.eigvalsh(hamiltonian_matrix(orb)))
        for _ in range(3):
            v = ortho_group.rvs(2, random_state=RNG)
            got = np.sort(np.linalg.eigvalsh(
                hamiltonian_matrix(orb.rotate(v))))
            np.testing.assert_allclose(got, base, atol=1e-9)

    def test_spectrum_preserved_full_complex(self):
        orb = random_embedding(RNG).orbital()
        base = np.sort(np.linalg.eigvalsh(hamiltonian_matrix(orb)))
        v = unitary_group.rvs(4, random_state=RNG)
        rotated = orb.rotate(v)
        assert rotated.to_pauli().is_hermitian()
        got = np.sort(np.linalg.eigvalsh(hamiltonian_matrix(rotated)))
        np.testing.assert_allclose(got, base, atol=1e-9)

    def test_composition(self):
        orb = random_embedding(RNG).orbital()
        v1 = ortho_group.rvs(4, random_state=RNG)
        v2 = ortho_group.rvs(4, random_state=RNG)
        two_step = orb.rotate(v1).rotate(v2)
        one_step = orb.rotate(v1 @ v2)
        np.testing.assert_allclose(two_step.h, one_step.h, atol=1e-10)
        np.testing.assert_allclose(two_step.u, one_step.u, atol=1e-10)
