"""Coefficient bookkeeping, basis rotations, and Pauli compilation."""

import itertools

import numpy as np
import pytest
from scipy.stats import ortho_group, unitary_group

from risbvqe import MATRIX_TOL
from risbvqe.circuits import build_mr_nc1
from risbvqe.ed import exact_no_basis, hamiltonian_matrix
from risbvqe.hamiltonians import (EmbeddingHamiltonian, OrbitalHamiltonian,
                                  mode_index)
from risbvqe.noization import vqe_impurity_solver

from oracles import oracle_jordan_wigner

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
            words = random_embedding(RNG).to_pauli()
            assert all(abs(c.imag) <= 1e-10 for _, c in words.items())


class TestClusterIsItsCoefficients:
    """A cluster is the operator it describes, its tensors built once."""

    def test_cluster_is_an_orbital_hamiltonian(self):
        emb = random_embedding(np.random.default_rng(23))
        assert isinstance(emb, OrbitalHamiltonian)
        assert emb.orbital() is emb
        assert emb.n_modes == 4 and emb.u.shape == (4, 4, 4, 4)

    def test_ed_reads_a_cluster_directly(self):
        emb = random_embedding(np.random.default_rng(29))
        bare = OrbitalHamiltonian(emb.h, emb.u, emb.const)
        np.testing.assert_array_equal(hamiltonian_matrix(emb),
                                      hamiltonian_matrix(bare))
        np.testing.assert_array_equal(exact_no_basis(emb).v,
                                      exact_no_basis(bare).v)

    def test_exact_no_solver_builds_only_the_rotated_copy(self, monkeypatch):
        emb = EmbeddingHamiltonian(n_c=1, u_int=1.0, d_mix=[[-0.4]],
                                   lambda_c=[[0.2]], mu=0.5)
        solver = vqe_impurity_solver(build_mr_nc1(), basis="exact-no",
                                     n_starts=1, seed=3, max_iter=20)
        built = []
        init = OrbitalHamiltonian.__init__

        def counted(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(OrbitalHamiltonian, "__init__", counted)
        rdm = solver(emb)
        assert built == [OrbitalHamiltonian]
        assert rdm.shape == (2, 2)


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
        assert all(abs(c.imag) <= 1e-10 for _, c in rotated.to_pauli().items())
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


    def test_large_cluster_survives_an_exact_rotation(self):
        # λ_c = 1e7, as a runaway chord iterate reached: an exact unitary
        # leaves a rounding skew far above 1e-10, which the check scales
        # by the largest entry
        emb = large_cluster()
        v = unitary_group.rvs(4, random_state=np.random.default_rng(3))
        rotated = emb.rotate(v)
        skew = np.abs(rotated.h - rotated.h.conj().T).max()
        assert skew > MATRIX_TOL
        bad = rotated.h.copy()
        bad[0, 1] += 1e-6 * np.abs(rotated.h).max()
        with pytest.raises(ValueError, match="not Hermitian"):
            OrbitalHamiltonian(bad, rotated.u, rotated.const)
        moved = v.copy()
        moved[2, 1] += 1e-6
        with pytest.raises(ValueError, match="not unitary"):
            emb.rotate(moved)
        small = np.zeros((2, 2))
        small[0, 1] = 1e-9  # entries below 1 keep the absolute bound
        with pytest.raises(ValueError, match="not Hermitian"):
            OrbitalHamiltonian(small)


def large_cluster() -> EmbeddingHamiltonian:
    return EmbeddingHamiltonian(n_c=2, u_int=2.0,
                                d_mix=[[0.3, 0.1], [0.1, 0.3]],
                                lambda_c=[[1e7, -174.0], [-174.0, -5326.0]])


def bare_and_rotated(rng, n_c):
    """A random n_c cluster's coefficients, bare and in a random complex
    orbital basis."""
    def sym():
        a = rng.uniform(-1, 1, (n_c, n_c))
        return a + a.T
    orb = EmbeddingHamiltonian(n_c, rng.uniform(0.5, 3),
                               rng.uniform(-1, 1, (n_c, n_c)), sym(),
                               rng.uniform(-1, 1), sym()).orbital()
    return orb, orb.rotate(unitary_group.rvs(2 * n_c, random_state=rng))


class TestLadderTerms:
    @pytest.mark.parametrize("n_c", [1, 2])
    def test_one_list_in_stated_order(self, n_c):
        # the constant if nonzero, then h and u in C order, |c| > 1e-14
        for orb in bare_and_rotated(RNG, n_c):
            strings, coeffs = orb.ladder_terms()
            want = [((), orb.const)] if orb.const else []
            want += [(((p, True), (q, False)), orb.h[p, q])
                     for p, q in np.ndindex(orb.h.shape)
                     if abs(orb.h[p, q]) > 1e-14]
            want += [(((p, True), (q, True), (r, False), (s, False)),
                      orb.u[p, q, r, s])
                     for p, q, r, s in np.ndindex(orb.u.shape)
                     if abs(orb.u[p, q, r, s]) > 1e-14]
            assert coeffs.dtype == complex
            assert list(zip(strings, coeffs.tolist())) == want
            assert orb.to_fermion_operator().terms == list(
                zip(coeffs.tolist(), strings))

    def test_zero_constant_and_tiny_entries_drop(self):
        h = np.diag([0.5, 1e-15, -0.5, 0.0])
        strings, coeffs = OrbitalHamiltonian(h).ladder_terms()
        assert strings == (((0, True), (0, False)), ((2, True), (2, False)))
        assert coeffs.tolist() == [0.5, -0.5]
        strings, coeffs = OrbitalHamiltonian(np.zeros((2, 2)),
                                             const=0.25).ladder_terms()
        assert strings == ((),) and coeffs.tolist() == [0.25]

    def test_rotated_words_match_string_oracle(self):
        _, rotated = bare_and_rotated(RNG, 2)
        got = rotated.to_pauli()
        want = oracle_jordan_wigner(rotated.to_fermion_operator(), 8)
        assert list(got.items()) == list(want.items())
