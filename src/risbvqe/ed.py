"""Exact diagonalization of small fermionic clusters, and the package's
one-particle density-matrix kernel.

Matrices are assembled in the occupation-number basis from
`pauli.ladder_table`, the table the Jordan-Wigner map reads too; the
independent cross-checks live in the test oracles.  Mode p sits on bit p
counted from the most significant end of the basis index, matching the
qubit layout used elsewhere.

The bookkeeping depends only on structure, never on coefficients: the
(row, col, sign) tables of a Hamiltonian's terms are stacked and
restricted to a sector once per (term structure, mode count, sector), and
the 1-RDM's (state, p, q, final, sign) table is assembled once per mode
count.  A new Hamiltonian or state then costs one accumulation over its
table, each matrix entry summed in term order.  The same
1-RDM table serves exact eigenstates and simulator states alike: an
amplitude vector or a density matrix goes through `ed_rdm1_full`, and
`ed_rdm1` is the one place that splits its result into spin blocks.

The natural-orbital basis of a 1-RDM (`diagonalize_rdm`, `exact_no_basis`)
lives here too, beside the kernel it diagonalizes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import check_adjoint
from .pauli import MODE_CAP, ladder_table

DEGENERACY_RTOL = 1e-9
SECTOR_CACHE_SIZE = 64
AMPLITUDE_FLOOR = 1e-16
OCC_TOL = 1e-8
OCC_DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class SectorLabel:
    """Conserved quantum numbers: particle count and 2*Sz."""

    n_particles: int
    sz_twice: int


def half_filling_sector(n_c: int) -> SectorLabel:
    return SectorLabel(n_particles=2 * n_c, sz_twice=0)


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


@lru_cache(maxsize=SECTOR_CACHE_SIZE)
def _stacked_tables(structure: tuple, n_modes: int,
                    sector: SectorLabel | None) -> tuple:
    """The kernel's tables of a Hamiltonian's operator strings, stacked in
    term order and restricted to the sector basis: (the flat matrix entries
    they touch, each table entry's bin among them, its term, its sign),
    read-only."""
    tables = [ladder_table(ops, n_modes) for ops in structure]
    row, col, sign = map(np.concatenate,
                         zip(*tables, [np.zeros(0, np.intp)] * 3))
    term = np.repeat(np.arange(len(tables)), [len(t[2]) for t in tables])
    states = _sector_states(n_modes, sector)
    position = np.full(1 << n_modes, -1, dtype=np.intp)
    position[states] = np.arange(states.size)
    keep = position[col] >= 0
    row, col = position[row[keep]], position[col[keep]]
    if np.any(row < 0):
        raise ValueError("term leaves the requested sector")
    touched, bins = np.unique(row * states.size + col, return_inverse=True)
    return tuple(map(_frozen, (touched, bins, term[keep], sign[keep])))


def hamiltonian_matrix(ham, sector: SectorLabel | None = None) -> np.ndarray:
    """Dense Hamiltonian over the (sector-restricted) Fock basis: each
    touched entry sums its terms' signs times coefficients, in term order."""
    m = ham.n_modes
    if m > MODE_CAP:
        raise ValueError(f"{m} modes exceeds the dense cap {MODE_CAP}")
    dim = _sector_states(m, sector).size
    strings, coeffs = ham.ladder_terms()
    touched, bins, term, signs = _stacked_tables(strings, m, sector)
    weights = signs * coeffs[term]
    out = np.zeros(dim * dim, dtype=complex)
    out.real[touched] = np.bincount(bins, weights.real, len(touched))
    out.imag[touched] = np.bincount(bins, weights.imag, len(touched))
    return out.reshape(dim, dim)


class GroundState(NamedTuple):
    energy: float
    state: np.ndarray
    degeneracy: int


def ground_state(ham, sector: SectorLabel | None = None) -> GroundState:
    """Lowest eigenpair, embedded back into the full 2^m amplitude space."""
    m = ham.n_modes
    matrix = hamiltonian_matrix(ham, sector)
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
    """One-particle reduced density matrix block (impurity+bath combined).

    `spin_gap` is max|up - down| over the two spin blocks of the state it
    was read from: what a spin average removes.
    """

    matrix: np.ndarray
    spin_gap: float = 0.0
    _occupations: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        check_adjoint(m, m, "1-RDM is not Hermitian")
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
    terms, bins = terms * sign, p * m + q
    return (np.bincount(bins, terms.real, m * m)
            + 1j * np.bincount(bins, terms.imag, m * m)).reshape(m, m)


def ed_rdm1(psi: np.ndarray, n_c: int) -> Rdm1:
    """Per-spin 1-RDM of an embedded-cluster state (amplitudes or density
    matrix, as `ed_rdm1_full` takes them): the mean of both spin blocks,
    with their gap.  Modes are spin-major: up block first, down second;
    each block lists the n_c impurity orbitals then the n_c bath orbitals.
    """
    full = ed_rdm1_full(psi)
    if full.shape[0] != 4 * n_c:
        raise ValueError(f"state covers {full.shape[0]} modes, expected "
                         f"{4 * n_c}")
    up = full[:2 * n_c, :2 * n_c]
    down = full[2 * n_c:, 2 * n_c:]
    gap = float(np.max(np.abs(up - down)))
    return Rdm1(0.5 * (up + down), gap)


@dataclass(frozen=True)
class BasisRotation:
    """Unitary single-particle rotation with its occupation spectrum."""

    v: np.ndarray
    occupations: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.v)
        object.__setattr__(self, "v", v)
        check_adjoint(v.conj().T @ v, np.eye(v.shape[1]),
                      "rotation is not unitary")


def _gauge_fix(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real-positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        pivot = int(np.argmax(np.abs(out[:, j])))
        value = out[pivot, j]
        if abs(value) > 0.0:
            out[:, j] = out[:, j] * (abs(value) / value)
    if np.iscomplexobj(out) and np.allclose(out.imag, 0.0, atol=1e-14):
        out = out.real
    return out


def _column_key(col: np.ndarray) -> tuple:
    return tuple(np.round(np.concatenate([col.real, np.imag(col) + 0.0]),
                          9))


def diagonalize_rdm(rdm: np.ndarray, h: np.ndarray | None = None
                    ) -> BasisRotation:
    """Occupation eigenbasis of a Hermitian 1-RDM, columns descending.

    Gauge: each column's largest component is made real-positive; exact
    ties order lexicographically.  Within a degenerate occupation block
    the basis is further rotated to diagonalize the projected one-body
    matrix `h` when one is supplied, pinning a canonical representative.
    """
    m = np.asarray(rdm)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("density matrix must be square")
    check_adjoint(m, m, "density matrix is not Hermitian")
    m = 0.5 * (m + m.conj().T)
    occ, vecs = np.linalg.eigh(m)
    occ, vecs = occ[::-1], vecs[:, ::-1]

    start = 0
    while start < occ.size:
        stop = start + 1
        while (stop < occ.size
               and abs(occ[stop] - occ[start]) < OCC_DEGENERACY_TOL):
            stop += 1
        if stop - start > 1:
            block = vecs[:, start:stop]
            if h is not None:
                projected = block.conj().T @ np.asarray(h) @ block
                _, mixer = np.linalg.eigh(0.5 * (projected
                                                 + projected.conj().T))
                block = block @ mixer
            block = _gauge_fix(block)
            order = sorted(range(block.shape[1]),
                           key=lambda j: _column_key(block[:, j]))
            vecs[:, start:stop] = block[:, order]
        start = stop
    vecs = _gauge_fix(vecs)
    return BasisRotation(v=vecs, occupations=occ)


def exact_no_basis(ham, gs: GroundState | None = None) -> BasisRotation:
    """Natural orbitals of the exact half-filled ground state, `gs` if the
    caller has solved for it already.

    Reference basis for comparisons: the state's per-spin 1-RDM becomes
    diagonal.  A degenerate ground state makes the basis non-unique and is
    flagged with a warning.
    """
    n_c, rem = divmod(ham.n_modes, 4)
    if rem:
        raise ValueError(f"a cluster has 4 n_c modes, not {ham.n_modes}")
    if gs is None:
        gs = ground_state(ham, half_filling_sector(n_c))
    if gs.degeneracy > 1:
        warnings.warn(f"ground state is {gs.degeneracy}-fold degenerate; "
                      f"natural orbitals are not unique")
    rdm = ed_rdm1(gs.state, n_c).matrix
    return diagonalize_rdm(rdm, h=ham.h[:2 * n_c, :2 * n_c])
