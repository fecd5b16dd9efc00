"""Exact diagonalization of small fermionic clusters, and the package's
one-particle density-matrix kernel.

Matrices are assembled in the occupation-number basis from
`pauli.ladder_table`, the table the Jordan-Wigner map reads too; the
independent cross-checks live in the test oracles.  Mode p sits on bit p
counted from the most significant end of the basis index, matching the
qubit layout used elsewhere.

The bookkeeping depends only on structure, never on coefficients: each
fermion term's (row, col, sign) table is restricted to a sector once per
(term, mode count, sector), and the 1-RDM's (state, p, q, final, sign) table
is assembled once per mode count.  A new Hamiltonian or state then costs one
fancy-index update per term, or one accumulation over the table.  The same
1-RDM table serves exact eigenstates and simulator states alike: an
amplitude vector or a density matrix goes through `ed_rdm1_full`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .hamiltonians import EmbeddingHamiltonian, OrbitalHamiltonian
from .pauli import LADDER_CACHE_SIZE, MODE_CAP, ladder_table

DEGENERACY_RTOL = 1e-9
SECTOR_CACHE_SIZE = 64
AMPLITUDE_FLOOR = 1e-16
OCC_TOL = 1e-8


@dataclass(frozen=True)
class SectorLabel:
    """Conserved quantum numbers: particle count and 2*Sz."""

    n_particles: int
    sz_twice: int


def half_filling_sector(n_c: int) -> SectorLabel:
    return SectorLabel(n_particles=2 * n_c, sz_twice=0)


def _orbital(ham) -> OrbitalHamiltonian:
    if isinstance(ham, EmbeddingHamiltonian):
        return ham.orbital()
    return ham


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=np.intp)
    out.flags.writeable = False
    return out


def sector_of(index: int, n_modes: int) -> SectorLabel:
    half = n_modes // 2
    n_up = bin(index >> half).count("1")
    n_dn = bin(index & ((1 << half) - 1)).count("1")
    return SectorLabel(n_up + n_dn, n_up - n_dn)


@lru_cache(maxsize=SECTOR_CACHE_SIZE)
def _sector_states(n_modes: int, sector: SectorLabel | None) -> np.ndarray:
    if sector is None:
        return _frozen(range(2 ** n_modes))
    if not 0 <= sector.n_particles <= n_modes:
        raise ValueError(f"sector {sector} impossible for {n_modes} modes")
    return _frozen([i for i in range(2 ** n_modes)
                    if sector_of(i, n_modes) == sector])


@lru_cache(maxsize=LADDER_CACHE_SIZE)
def _ladder_table(ops: tuple, n_modes: int, sector: SectorLabel | None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries (row, col, sign) of one operator string's matrix
    over the sector basis, in column order: the kernel's table restricted
    to the sector."""
    row, col, sign = ladder_table(ops, n_modes)
    if sector is None:
        return row, col, sign
    states = _sector_states(n_modes, sector)
    position = np.full(1 << n_modes, -1, dtype=np.intp)
    position[states] = np.arange(states.size)
    keep = position[col] >= 0
    rows = position[row[keep]]
    if np.any(rows < 0):
        raise ValueError("term leaves the requested sector")
    return _frozen(rows), _frozen(position[col[keep]]), _frozen(sign[keep])


def hamiltonian_matrix(ham, sector: SectorLabel | None = None) -> np.ndarray:
    """Dense Hamiltonian over the (sector-restricted) Fock basis."""
    orb = _orbital(ham)
    m = orb.n_modes
    if m > MODE_CAP:
        raise ValueError(f"{m} modes exceeds the dense cap {MODE_CAP}")
    dim = _sector_states(m, sector).size
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, ops in orb.to_fermion_operator().terms:
        rows, cols, signs = _ladder_table(ops, m, sector)
        out[rows, cols] += signs * coeff
    return out


class GroundState(NamedTuple):
    energy: float
    state: np.ndarray
    degeneracy: int


def ground_state(ham, sector: SectorLabel | None = None) -> GroundState:
    """Lowest eigenpair, embedded back into the full 2^m amplitude space."""
    orb = _orbital(ham)
    m = orb.n_modes
    matrix = hamiltonian_matrix(orb, sector)
    vals, vecs = np.linalg.eigh(matrix)
    e0 = float(vals[0])
    tol = DEGENERACY_RTOL * max(1.0, abs(e0))
    degeneracy = int(np.sum(vals <= e0 + tol))
    full = np.zeros(2 ** m, dtype=complex)
    full[_sector_states(m, sector)] = vecs[:, 0]
    return GroundState(e0, full, degeneracy)


@lru_cache(maxsize=SECTOR_CACHE_SIZE)
def _rdm1_table(n_modes: int) -> tuple[np.ndarray, ...]:
    """Every nonzero c+_p c_q |idx> = sign |final>, ordered by idx, then q,
    then p: the kernel's c+_p c_q tables side by side."""
    parts = []
    for p in range(n_modes):
        for q in range(n_modes):
            final, idx, sign = ladder_table(((p, True), (q, False)), n_modes)
            parts.append((idx, np.full(idx.size, p), np.full(idx.size, q),
                          final, sign))
    table = [np.concatenate(column) for column in zip(*parts)]
    order = np.lexsort((table[1], table[2], table[0]))
    return tuple(_frozen(column[order]) for column in table)


@dataclass
class Rdm1:
    """One-particle reduced density matrix block (impurity+bath combined)."""

    matrix: np.ndarray
    _occupations: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("1-RDM is not Hermitian")
        self.matrix = 0.5 * (m + m.conj().T)
        occ = np.linalg.eigvalsh(self.matrix)
        if occ.min() < -OCC_TOL or occ.max() > 1.0 + OCC_TOL:
            raise ValueError(f"occupations outside [0, 1]: {occ}")
        self._occupations = occ

    @property
    def occupations(self) -> np.ndarray:
        return self._occupations.copy()

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def ed_rdm1_full(state: np.ndarray) -> np.ndarray:
    """<c+_p c_q> over every mode, from an amplitude vector or a density
    matrix.

    Both read the compiled table: amplitudes give conj(psi[final]) psi[idx]
    sign per entry, a density matrix gives Tr(rho c+_p c_q) as the sum of
    rho[idx, final] sign.
    """
    state = np.asarray(state)
    density = state.ndim == 2
    if density and state.shape[0] != state.shape[1]:
        raise ValueError(f"density matrix of shape {state.shape} is not "
                         f"square")
    dim = state.shape[0] if density else state.size
    m = dim.bit_length() - 1
    if dim < 1 or 1 << m != dim:
        raise ValueError(f"state dimension {dim} is not a power of two")
    idx, p, q, final, sign = _rdm1_table(m)
    if density:
        terms = state[idx, final]
    else:
        psi = state.ravel()
        keep = (np.abs(psi) > AMPLITUDE_FLOOR)[idx]
        idx, p, q, final, sign = (a[keep] for a in (idx, p, q, final, sign))
        # conj(b) * a written out in real arithmetic: numpy's vectorized
        # complex product may fuse multiply-adds, which rounds complex
        # amplitudes differently from the scalar product of the reference
        # loop.
        a, b = psi[idx], psi[final]
        terms = np.empty(idx.size, dtype=complex)
        terms.real = b.real * a.real + b.imag * a.imag
        terms.imag = b.real * a.imag - b.imag * a.real
    rdm = np.zeros((m, m), dtype=complex)
    np.add.at(rdm, (p, q), terms * sign)
    return rdm


def ed_rdm1(psi: np.ndarray, n_c: int, spin_average: bool = True) -> Rdm1:
    """Per-spin 1-RDM of an embedded-cluster eigenstate (amplitudes or
    density matrix, as `ed_rdm1_full` takes them)."""
    full = ed_rdm1_full(psi)
    if full.shape[0] != 4 * n_c:
        raise ValueError(f"state covers {full.shape[0]} modes, expected "
                         f"{4 * n_c}")
    up = full[:2 * n_c, :2 * n_c]
    if not spin_average:
        return Rdm1(up)
    down = full[2 * n_c:, 2 * n_c:]
    return Rdm1(0.5 * (up + down))
