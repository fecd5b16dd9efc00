"""Iterative natural-orbital construction.

Each step solves the cluster variationally, diagonalizes the measured
one-particle density matrix, and rotates the Hamiltonian coefficients into
the resulting basis; a few steps bring the working basis close to the
natural orbitals, where low-depth multireference circuits become accurate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circuits import Circuit, build_hea_nc1
# The natural-orbital basis lives beside the 1-RDM kernel in `ed`; its
# names are re-exported here, where the iteration that uses them lives.
from .ed import (BasisRotation, diagonalize_rdm, ed_rdm1_full, exact_no_basis,
                 hamiltonian_matrix)
from .estimator import circuit_rdm1, measure_rdm1, rotosolve
from .hamiltonians import EmbeddingHamiltonian, OrbitalHamiltonian
from .pauli import count_terms
from .simulator import NoiseModel, Observable, calibrate_noise, run
from .vqe import VqeResult, multi_start, vqe_minimize

SPIN_ASYMMETRY_TOL = 1e-6


def rotate_hamiltonian(ham: OrbitalHamiltonian,
                       rotation: BasisRotation) -> OrbitalHamiltonian:
    """Transform all coefficients into the rotated basis, applying the
    same rotation to both spin blocks when given a per-spin matrix."""
    return ham.rotate(rotation.v)


def offdiagonal_norm(m: np.ndarray) -> float:
    m = np.asarray(m)
    return float(np.linalg.norm(m - np.diag(np.diag(m))))


@dataclass
class NoizeResult:
    """Accumulated rotation and per-step diagnostics of the iteration."""

    basis: BasisRotation
    reports: list
    final: VqeResult | None = None

    @property
    def energies(self) -> list:
        return [r["energy"] for r in self.reports]


def noize(ham, ansatz: Circuit | None = None, n_steps: int = 3,
          n_starts: int = 5, seed: int | None = None,
          noise: NoiseModel | None = None, optimizer: str = "bfgs",
          max_iter: int = 10_000, solve: Callable | None = None
          ) -> NoizeResult:
    """Alternate solving and basis rotation for `n_steps` rounds.

    The default solver is best-of-`n_starts` VQE on the given ansatz; a
    custom `solve(orbital) -> (energy, rdm)` callable, with the per-spin
    1-RDM as an array, replaces it (for exact-solver baselines), and the
    default one warns when the spin blocks it averaged differ by more than
    SPIN_ASYMMETRY_TOL.  The cluster size is read off the Hamiltonian's
    4 n_c modes.  Reports carry, per step, the energy in the basis that
    was solved, the occupation spectrum, the residual 1-RDM off-diagonal
    norm, and the Pauli term count.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if solve is None and ansatz is None:
        raise ValueError("either an ansatz or a solve callable is needed")
    n_c, rem = divmod(ham.n_modes, 4)
    if rem:
        raise ValueError(f"a cluster has 4 n_c modes, not {ham.n_modes}")
    rng = np.random.default_rng(seed)
    v_tot = np.eye(2 * n_c)
    reports: list[dict] = []
    last: VqeResult | None = None
    for step in range(1, n_steps + 1):
        if solve is not None:
            energy, rdm = solve(ham)
        else:
            last = multi_start(Observable(hamiltonian_matrix(ham)), ansatz,
                               n_starts=n_starts,
                               seed=int(rng.integers(2 ** 63)),
                               optimizer=optimizer, noise=noise,
                               max_iter=max_iter)
            energy = last.best_energy
            measured = measure_rdm1(run(ansatz, last.bindings(),
                                        noise=noise), n_c)
            if measured.spin_gap > SPIN_ASYMMETRY_TOL:
                warnings.warn(f"spin blocks differ by "
                              f"{measured.spin_gap:.3e}; paramagnetic "
                              f"symmetry may be broken")
            rdm = measured.matrix
        rotation = diagonalize_rdm(rdm, h=ham.h[:2 * n_c, :2 * n_c])
        reports.append({
            "step": step,
            "energy": float(energy),
            "occupations": [float(n) for n in rotation.occupations],
            "offdiag_norm": offdiagonal_norm(rdm),
            "n_terms": count_terms(ham.to_pauli()),
        })
        if step < n_steps:  # nothing reads the last rotated copy
            ham = ham.rotate(rotation.v)
        v_tot = v_tot @ rotation.v
    return NoizeResult(basis=BasisRotation(v_tot),
                       reports=reports, final=last)


BASIS_MODES = ("original", "exact-no", "noize")


def vqe_impurity_solver(ansatz: Circuit, *, basis: str = "exact-no",
                        noise: NoiseModel | None = None, n_starts: int = 3,
                        seed: int | None = None, optimizer: str = "bfgs",
                        max_iter: int = 10_000, x0=None,
                        n_steps: int = 3) -> Callable:
    """Cluster solver that prepares the ground state variationally.

    ``basis`` selects the single-particle frame the circuit works in:
    the bare cluster ("original"), the natural orbitals of the exact
    ground state ("exact-no"), or iteratively determined natural orbitals
    ("noize").  The measured density matrix is rotated back to the bare
    frame before it is returned.  Between calls the best angles found so
    far seed the next optimization, so a self-consistency sweep pays the
    multi-start price only once; ``x0`` preloads that warm start.
    """
    if basis not in BASIS_MODES:
        raise ValueError(f"unknown basis mode {basis!r}; "
                         f"choose from {BASIS_MODES}")
    rng = np.random.default_rng(seed)
    memo = {"params": None if x0 is None else np.asarray(x0, dtype=float)}

    def solver(emb: EmbeddingHamiltonian) -> np.ndarray:
        if ansatz.n_qubits != 4 * emb.n_c:
            raise ValueError(f"ansatz spans {ansatz.n_qubits} qubits but "
                             f"the cluster needs {4 * emb.n_c}")
        run_seed = int(rng.integers(2 ** 63))
        if basis == "noize":
            result = noize(emb, ansatz=ansatz, n_steps=n_steps,
                           n_starts=n_starts, seed=run_seed, noise=noise,
                           optimizer=optimizer, max_iter=max_iter)
            occ = np.asarray(result.reports[-1]["occupations"], dtype=float)
            v = result.basis.v
            return v @ np.diag(occ) @ v.conj().T
        rotation = exact_no_basis(emb) if basis == "exact-no" else None
        target = emb if rotation is None else rotate_hamiltonian(emb, rotation)
        observable = Observable(hamiltonian_matrix(target))
        if memo["params"] is not None:
            fit = vqe_minimize(observable, ansatz, optimizer=optimizer,
                               noise=noise, seed=run_seed,
                               max_iter=max_iter, x0=memo["params"])
        else:
            fit = multi_start(observable, ansatz, n_starts=n_starts,
                              seed=run_seed, optimizer=optimizer,
                              noise=noise, max_iter=max_iter)
        memo["params"] = np.asarray(fit.best_params, dtype=float)
        return circuit_rdm1(ansatz, fit.bindings(), emb.n_c, noise=noise,
                            basis=None if rotation is None else rotation.v)

    return solver


def determine_fixed_no_basis(seed: int = 202, n_starts: int = 5,
                             n_cycles: int = 10) -> BasisRotation:
    """Reference spin-orbital-mixing basis from a noisy calibration run.

    A hardware-efficient circuit is Rotosolve-tuned under calibrated
    depolarizing noise on the weakly-hybridized noninteracting cluster;
    the full (spin-resolved) 1-RDM of the best run defines the rotation.
    Because the mixed state entangles spin sectors, the resulting basis
    mixes all four modes, which inflates an interacting cluster's Pauli
    support from 7 to 52 words.
    """
    emb = EmbeddingHamiltonian(n_c=1, u_int=0.0, d_mix=[[-0.4]],
                               lambda_c=[[0.004]])
    observable = Observable(hamiltonian_matrix(emb))
    ansatz = build_hea_nc1()
    names = ansatz.parameter_names
    noise = calibrate_noise()
    rng = np.random.default_rng(seed)
    best: tuple[dict, float] | None = None
    for _ in range(n_starts):
        init = dict(zip(names, rng.uniform(-math.pi, math.pi, len(names))))
        params, energy = rotosolve(ansatz, observable, init,
                                   n_cycles=n_cycles, noise=noise)
        if best is None or energy < best[1]:
            best = (params, energy)
    state = run(ansatz, best[0], noise=noise)
    return diagonalize_rdm(ed_rdm1_full(state.density()))
