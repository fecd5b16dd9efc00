"""Fock-space diagonalization cross-checked against loop oracles, the
Pauli-expectation route and analytic fillings."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import risbvqe
from risbvqe.circuits import build_mr_nc1, build_mrep
from risbvqe.ed import (GroundState, SectorLabel, _ladder_table, _rdm1_table,
                        _sector_states, ed_rdm1, ed_rdm1_full, ground_state,
                        half_filling_sector, hamiltonian_matrix, sector_of)
from risbvqe.estimator import parameter_shift_minimize
from risbvqe.hamiltonians import EmbeddingHamiltonian, OrbitalHamiltonian
from risbvqe.pauli import expectation_matrix, ladder_table
from risbvqe.simulator import QuantumState, run

from oracles import (oracle_hamiltonian_matrix, oracle_rdm1_full,
                     oracle_sector_basis, pauli_rdm1_full, random_bindings)

RNG = np.random.default_rng(40813)


def random_embedding(rng) -> EmbeddingHamiltonian:
    return EmbeddingHamiltonian(n_c=1, u_int=rng.uniform(0, 3),
                                d_mix=[[rng.uniform(-1, 1)]],
                                lambda_c=[[rng.uniform(-1, 1)]],
                                mu=rng.uniform(-1, 1))


class TestSectors:
    def test_sector_of(self):
        assert sector_of(0b1010, 4) == SectorLabel(2, 0)
        assert sector_of(0b1100, 4) == SectorLabel(2, 2)
        assert sector_of(0b0001, 4) == SectorLabel(1, -1)

    def test_basis_sizes(self):
        assert _sector_states(4, SectorLabel(2, 0)).size == 4
        assert _sector_states(8, half_filling_sector(2)).size == 36
        assert _sector_states(4, None).size == 16

    def test_impossible_sector(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                _sector_states(4, SectorLabel(9, 0))

    def test_term_leaving_the_sector_raises(self):
        # c+_0 c_2 moves an up electron into a down mode.
        h = np.zeros((4, 4))
        h[0, 2] = h[2, 0] = 0.3
        orb = OrbitalHamiltonian(h)
        # The full-space tables of both terms are cached first.
        assert hamiltonian_matrix(orb).shape == (16, 16)
        for _ in range(2):
            with pytest.raises(ValueError,
                               match="term leaves the requested sector"):
                hamiltonian_matrix(orb, SectorLabel(2, 0))

    def test_blocks_never_mix(self):
        full = hamiltonian_matrix(random_embedding(RNG))
        for col in range(16):
            for row in np.flatnonzero(np.abs(full[:, col]) > 1e-14):
                assert sector_of(int(row), 4) == sector_of(col, 4)


class TestGroundState:
    def test_matches_pauli_route(self):
        for _ in range(6):
            emb = random_embedding(RNG)
            via_fock = np.sort(np.linalg.eigvalsh(hamiltonian_matrix(emb)))
            via_pauli = np.sort(np.linalg.eigvalsh(
                expectation_matrix(emb.to_pauli())))
            np.testing.assert_allclose(via_fock, via_pauli, atol=1e-9)

    def test_free_fermion_energy(self):
        emb = EmbeddingHamiltonian(n_c=1, u_int=0.0, d_mix=[[-0.4]],
                                   lambda_c=[[0.004]], mu=0.1)
        eps = np.linalg.eigvalsh(emb.orbital().h)
        want = eps[eps < 0].sum() + emb.orbital().const
        assert abs(ground_state(emb).energy - want) < 1e-12

    def test_decoupled_additivity(self):
        emb = EmbeddingHamiltonian(n_c=1, u_int=2.2, d_mix=[[0.0]],
                                   lambda_c=[[0.3]], mu=0.15)
        # Impurity minimum: occupy one spin (-mu < 0, U-2mu > 0 here);
        # bath level -(lambda_c + mu) < 0 fills both spins.
        imp_e = min(0.0, -emb.mu, 2 * -emb.mu + emb.u_int)
        bath_level = -(0.3 + emb.mu)
        bath_e = min(0.0, bath_level, 2 * bath_level)
        want = imp_e + bath_e + 2 * 0.3
        assert abs(ground_state(emb).energy - want) < 1e-12

    def test_sector_restriction_is_variational(self):
        emb = random_embedding(RNG)
        sector_e = ground_state(emb, half_filling_sector(1)).energy
        assert sector_e >= ground_state(emb).energy - 1e-12

    def test_state_stays_in_sector(self):
        emb = random_embedding(RNG)
        gs = ground_state(emb, SectorLabel(2, 0))
        for idx in np.flatnonzero(np.abs(gs.state) > 1e-12):
            assert sector_of(int(idx), 4) == SectorLabel(2, 0)
        assert abs(np.linalg.norm(gs.state) - 1.0) < 1e-12

    def test_degeneracy_count(self):
        emb = EmbeddingHamiltonian(n_c=1, u_int=1.0, d_mix=[[0.0]],
                                   lambda_c=[[0.0]], mu=0.0)
        gs = ground_state(emb)
        assert gs.energy == pytest.approx(0.0, abs=1e-12)
        assert gs.degeneracy == 12

    def test_mode_cap(self):
        with pytest.raises(ValueError):
            hamiltonian_matrix(OrbitalHamiltonian(np.zeros((14, 14))))


class TestRdm1:
    def test_slater_determinant_idempotent(self):
        emb = EmbeddingHamiltonian(n_c=1, u_int=0.0, d_mix=[[-0.4]],
                                   lambda_c=[[0.004]], mu=0.0)
        rho = ed_rdm1_full(ground_state(emb, SectorLabel(2, 0)).state)
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-10)

    def test_matches_estimator_route(self):
        # Against the Pauli-expectation route and the amplitude loop.
        emb = random_embedding(RNG)
        psi = ground_state(emb, SectorLabel(2, 0)).state
        pauli = pauli_rdm1_full(QuantumState.from_vector(psi))
        got = ed_rdm1_full(psi)
        np.testing.assert_allclose(got, pauli, atol=1e-12)
        np.testing.assert_allclose(got, oracle_rdm1_full(psi, 4), atol=1e-14)
        np.testing.assert_allclose(ed_rdm1(psi, n_c=1).matrix,
                                   0.5 * (pauli[:2, :2] + pauli[2:, 2:]),
                                   atol=1e-12)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(ed_rdm1_full(rho), got, atol=1e-14)

    def test_density_matrix_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            ed_rdm1_full(np.zeros((4, 8)))

    def test_occupations_in_range(self):
        emb = random_embedding(RNG)
        rdm = ed_rdm1(ground_state(emb).state, n_c=1)
        assert rdm.occupations.min() >= -1e-10
        assert rdm.occupations.max() <= 1 + 1e-10

    def test_spin_gap_of_a_spin_mixing_circuit(self):
        # mrep's odd fSim pair joins an up and a down orbital, so a random
        # binding moves weight between the S_z sectors.
        circuit = build_mrep(2, 4)
        rng = np.random.default_rng(3)
        state = run(circuit, random_bindings(circuit, rng))
        full = ed_rdm1_full(state.vector())
        want = np.max(np.abs(full[:4, :4] - full[4:, 4:]))
        assert want > 1e-2
        for spin_average in (True, False):
            rdm = ed_rdm1(state.vector(), n_c=2, spin_average=spin_average)
            assert rdm.spin_gap == want

    def test_spin_gap_of_a_ground_state(self):
        for n_c in (1, 2):
            emb = EmbeddingHamiltonian(
                n_c=n_c, u_int=RNG.uniform(0, 3),
                d_mix=RNG.uniform(-1, 1, (n_c, n_c)),
                lambda_c=np.diag(RNG.uniform(-1, 1, n_c)),
                mu=RNG.uniform(-1, 1))
            psi = ground_state(emb, half_filling_sector(n_c)).state
            assert ed_rdm1(psi, n_c).spin_gap <= 1e-12


def random_unitary(rng, dim) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim))
                        + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def dense_hamiltonians(draw):
    """Random Hermitian h and dense u, optionally rotated, with a sector
    they conserve: none, half filling, or one particle below it with
    2 Sz = 1.  Sector-restricted draws keep only spin-conserving entries."""
    n_c = draw(st.sampled_from((1, 2)))
    kind = draw(st.sampled_from(("none", "half", "other")))
    rotate = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = 4 * n_c
    h = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    h = h + h.conj().T
    u = rng.normal(size=(m,) * 4) + 1j * rng.normal(size=(m,) * 4)
    u = 0.5 * (u + u.conj().transpose(3, 2, 1, 0))
    sector = None
    if kind != "none":
        spin = np.arange(m) // (2 * n_c)
        h = h * (spin[:, None] == spin[None, :])
        u = u * ((spin[:, None, None, None] + spin[None, :, None, None])
                 == (spin[None, None, :, None] + spin[None, None, None, :]))
        sector = (half_filling_sector(n_c) if kind == "half"
                  else SectorLabel(2 * n_c - 1, 1))
    orb = OrbitalHamiltonian(h, u, const=rng.normal())
    if rotate:
        # A spin-resolved rotation only where a sector must survive it.
        orb = orb.rotate(random_unitary(rng, m if sector is None else m // 2))
    return orb, sector


class TestCompiledTables:
    @settings(max_examples=25, deadline=None)
    @given(dense_hamiltonians())
    def test_matrix_and_rdm_match_oracles(self, case):
        orb, sector = case
        got = hamiltonian_matrix(orb, sector)
        assert np.array_equal(got, oracle_hamiltonian_matrix(orb, sector))
        psi = ground_state(orb, sector).state
        assert np.max(np.abs(ed_rdm1_full(psi)
                             - oracle_rdm1_full(psi, orb.n_modes))) <= 1e-14

    def test_embedding_path_is_bit_identical(self):
        for _ in range(4):
            emb = random_embedding(RNG)
            for sector in (None, half_filling_sector(1)):
                got = hamiltonian_matrix(emb, sector)
                assert np.array_equal(
                    got, oracle_hamiltonian_matrix(emb.orbital(), sector))
                psi = ground_state(emb, sector).state
                assert np.array_equal(ed_rdm1_full(psi),
                                      oracle_rdm1_full(psi, 4))

    def test_tables_are_read_only(self):
        emb = random_embedding(RNG)
        sector = half_filling_sector(1)
        hamiltonian_matrix(emb, sector)
        _, ops = emb.orbital().to_fermion_operator().terms[-1]
        arrays = (_ladder_table(ops, 4, sector) + _rdm1_table(4)
                  + ladder_table(ops, 4)
                  + (_sector_states(4, sector), _sector_states(4, None)))
        for array in arrays:
            assert array.size
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7

    def test_sector_states_match_oracle(self):
        assert _sector_states(4, SectorLabel(2, 0)).tolist() == [5, 6, 9, 10]
        for n_modes, sector in ((4, SectorLabel(1, -1)),
                                (8, half_filling_sector(2)), (4, None)):
            assert (_sector_states(n_modes, sector).tolist()
                    == oracle_sector_basis(n_modes, sector))

    def test_import_fills_no_cache(self):
        # Table building belongs to the first solve, not to start-up.
        code = ("import risbvqe.cli\n"
                "from risbvqe import ed, embedding, pauli\n"
                "caches = (ed._sector_states, ed._ladder_table,\n"
                "          ed._rdm1_table, embedding._bands,\n"
                "          pauli.ladder_table)\n"
                "print(sum(c.cache_info().currsize for c in caches))\n")
        src = str(Path(risbvqe.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "0"

    def test_every_module_imports_on_its_own(self):
        # Guards against import cycles: each module is imported into an
        # empty risbvqe namespace, and the loaded modules are put back.
        names = [f"risbvqe.{info.name}"
                 for info in pkgutil.iter_modules(risbvqe.__path__)]
        loaded = {k: v for k, v in sys.modules.items()
                  if k == "risbvqe" or k.startswith("risbvqe.")}
        try:
            for name in names:
                for key in [k for k in sys.modules
                            if k == "risbvqe" or k.startswith("risbvqe.")]:
                    del sys.modules[key]
                importlib.import_module(name)
        finally:
            for key in [k for k in sys.modules
                        if k == "risbvqe" or k.startswith("risbvqe.")]:
                del sys.modules[key]
            sys.modules.update(loaded)
        assert "risbvqe.ed" in names and len(names) >= 12

    @pytest.mark.parametrize("module", ["risbvqe.ed", "risbvqe.estimator"])
    def test_imports_first_in_a_fresh_interpreter(self, module):
        # estimator imports the 1-RDM kernel and Rdm1 from ed, so ed must
        # not import estimator back.
        src = str(Path(risbvqe.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", f"import {module}"],
                       check=True, capture_output=True,
                       env=dict(os.environ, PYTHONPATH=src))


class TestNaturalOrbitalExactness:
    def test_mr_hits_ground_energy_in_no_basis(self):
        # In the basis diagonalizing the ground state's 1-RDM, the
        # half-filled single-site cluster ground state takes the paired
        # two-determinant form the MR circuit spans exactly.
        for u_int in (0.0, 1.0, 2.5):
            lam = 0.5 * u_int
            emb = EmbeddingHamiltonian(n_c=1, u_int=u_int, d_mix=[[-0.3]],
                                       lambda_c=[[-lam]], mu=lam)
            gs = ground_state(emb, half_filling_sector(1))
            rdm = ed_rdm1(gs.state, n_c=1).matrix.real
            occ, vecs = np.linalg.eigh(rdm)
            v = vecs[:, ::-1]
            rotated = emb.orbital().rotate(v)
            fit = parameter_shift_minimize(build_mr_nc1(), rotated.to_pauli())
            assert abs(fit.energy - gs.energy) < 1e-8
