"""Pauli sums, fermionic operators, and the package's one fermion kernel.

A Pauli word is a plain string over the alphabet ``IXYZ``; position ``i`` in
the word addresses qubit ``i``, and qubit 0 is the leftmost (most
significant) factor of every Kronecker product.  Fermionic modes map
one-to-one onto qubits in the same order.

`ladder_table` gives the (row, col, sign) entries of a ladder-operator
string over all Fock states.  The Jordan-Wigner map reads it here, and `ed`
reads it for the exact-diagonalization and 1-RDM tables, so the fermionic
sign convention is written once.

Conventions used throughout the package:

* ``Y = [[0, -i], [i, 0]]`` (textbook sign).
* ``c†_j -> Z_0 ... Z_{j-1} (X_j - iY_j)/2``, so that the occupied state is
  ``|1>`` and the number operator is ``(I - Z)/2``.
* spin-orbital index ``q = spin * 2*n_c + p`` with spin up = 0, spin down =
  1, and within each spin block the correlated orbitals come first
  (``p < n_c``) followed by the bath orbitals.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Mapping

import numpy as np

# Coefficients with magnitude below this are dropped after every operation;
# term-count checks rely on this single knob.
PRUNE_TOL = 1e-12

# Every O(2^n) table (ladder tables, dense matrices, ED) refuses registers
# of more modes (qubits) than this.
MODE_CAP = 12
LADDER_CACHE_SIZE = 1 << 14

# (-i)^k for k = popcount(x & z) mod 4, the phase of word (x, z).
_PHASES = (1, -1j, -1, 1j)


class PauliSum:
    """Weighted sum of Pauli words over a fixed register.

    Immutable after construction; zero terms are pruned at `PRUNE_TOL`.
    """

    __slots__ = ("n_qubits", "_terms", "_matrix", "_tensor", "_max_imag")

    def __init__(self, terms: Mapping[str, complex] | None = None,
                 n_qubits: int | None = None):
        merged: dict[str, complex] = {}
        for word, coeff in (terms or {}).items():
            if n_qubits is None:
                n_qubits = len(word)
            elif len(word) != n_qubits:
                raise ValueError(f"word {word!r} has length {len(word)}, "
                                 f"expected {n_qubits}")
            if any(ch not in "IXYZ" for ch in word):
                raise ValueError(f"invalid Pauli word {word!r}")
            c = complex(coeff)
            if abs(c) > PRUNE_TOL:
                merged[word] = c
        if n_qubits is None:
            raise ValueError("n_qubits required for an empty PauliSum")
        self.n_qubits = int(n_qubits)
        self._terms = merged
        self._matrix: np.ndarray | None = None
        self._tensor: np.ndarray | None = None
        self._max_imag: float | None = None

    @property
    def terms(self) -> dict[str, complex]:
        return dict(self._terms)

    def items(self) -> Iterator[tuple[str, complex]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self._terms == other._terms

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        if other.n_qubits != self.n_qubits:
            raise ValueError("register size mismatch")
        merged = dict(self._terms)
        for word, coeff in other._terms.items():
            merged[word] = merged.get(word, 0.0) + coeff
        return PauliSum(merged, self.n_qubits)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __neg__(self) -> "PauliSum":
        return (-1.0) * self

    def __rmul__(self, scalar: complex) -> "PauliSum":
        return PauliSum({w: scalar * c for w, c in self._terms.items()},
                        self.n_qubits)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return self.__rmul__(scalar)
        return NotImplemented

    def adjoint(self) -> "PauliSum":
        return PauliSum({w: np.conj(c) for w, c in self._terms.items()},
                        self.n_qubits)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        # The terms never change, so one scan serves every later check.
        if self._max_imag is None:
            self._max_imag = max((abs(c.imag) for c in self._terms.values()),
                                 default=0.0)
        return self._max_imag <= tol

    def __repr__(self) -> str:
        n = len(self._terms)
        return f"PauliSum(n_qubits={self.n_qubits}, n_terms={n})"


def count_terms(p: PauliSum, include_identity: bool = False) -> int:
    """Number of surviving Pauli terms.

    The identity term is excluded by default: that is the convention under
    which the embedded single-site Hamiltonian counts 7 words in the
    site-spin basis and 52 after the natural-orbital rotation.
    """
    n = len(p._terms)
    if not include_identity and ("I" * p.n_qubits) in p._terms:
        n -= 1
    return n


def _masks(word: str) -> tuple[int, int, int]:
    """(x_mask, z_mask, number of Y) of a word; qubit 0 is the top bit."""
    x = z = 0
    for ch in word:
        x = (x << 1) | (ch in "XY")
        z = (z << 1) | (ch in "ZY")
    return x, z, word.count("Y")


def _parities(n_bits: int) -> np.ndarray:
    """Parity of the set bits of every index below 2^n_bits."""
    index = np.arange(1 << n_bits, dtype=np.intp)
    parity = np.zeros_like(index)
    for bit in range(n_bits):
        parity ^= (index >> bit) & 1
    return parity


def expectation_matrix(p: PauliSum) -> np.ndarray:
    """Materialize a PauliSum as a dense 2^n x 2^n matrix.

    A word maps basis state j to i^(#Y) (-1)^popcount(j & z_mask) times
    basis state j ^ x_mask (Y = iXZ), so each word fills one permutation
    pattern of entries; words sharing an x_mask share the pattern.
    """
    n_qubits = p.n_qubits
    if n_qubits > MODE_CAP:
        raise ValueError(f"{n_qubits} qubits exceeds the dense cap {MODE_CAP}")
    if p._matrix is not None:
        return p._matrix
    dim = 2 ** n_qubits
    cols = np.arange(dim)
    parity = _parities(n_qubits)
    by_x: dict[int, np.ndarray] = {}
    for word, coeff in p._terms.items():
        x, z, n_y = _masks(word)
        phase = coeff * (1, 1j, -1, -1j)[n_y % 4]
        values = phase * (1 - 2 * parity[cols & z])
        by_x[x] = by_x[x] + values if x in by_x else values
    m = np.zeros((dim, dim), dtype=complex)
    for x, values in by_x.items():
        m[cols ^ x, cols] = values
    m.setflags(write=False)
    p._matrix = m
    return m


def pauli_tensor(p: PauliSum) -> np.ndarray:
    """The coefficients on a (4,)*n grid in I, X, Y, Z order, built once."""
    if p._tensor is None:
        p._tensor = np.zeros((4,) * p.n_qubits, dtype=complex)
        for word, coeff in p._terms.items():
            p._tensor[tuple(map("IXYZ".index, word))] = coeff
        p._tensor.setflags(write=False)
    return p._tensor


class FermionOperator:
    """Sum of products of ladder operators.

    ``terms`` is a list of ``(coeff, ops)`` where ``ops`` is a tuple of
    ``(mode, dagger)`` pairs in left-to-right written order, e.g.
    ``c†_0 c_1`` is ``(1.0, ((0, True), (1, False)))``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[complex, tuple]] = ()):
        self.terms = [(complex(c), tuple((int(m), bool(d)) for m, d in ops))
                      for c, ops in terms]

    @classmethod
    def creation(cls, mode: int, coeff: complex = 1.0) -> "FermionOperator":
        return cls([(coeff, ((mode, True),))])

    @classmethod
    def annihilation(cls, mode: int, coeff: complex = 1.0) -> "FermionOperator":
        return cls([(coeff, ((mode, False),))])

    @classmethod
    def number(cls, mode: int, coeff: complex = 1.0) -> "FermionOperator":
        return cls([(coeff, ((mode, True), (mode, False)))])

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        return FermionOperator(self.terms + other.terms)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return FermionOperator([(other * c, ops) for c, ops in self.terms])
        prod = []
        for ca, opsa in self.terms:
            for cb, opsb in other.terms:
                prod.append((ca * cb, opsa + opsb))
        return FermionOperator(prod)

    def __rmul__(self, scalar: complex) -> "FermionOperator":
        return self.__mul__(scalar)

    def adjoint(self) -> "FermionOperator":
        out = []
        for c, ops in self.terms:
            rev = tuple((m, not d) for m, d in reversed(ops))
            out.append((np.conj(c), rev))
        return FermionOperator(out)

    def max_mode(self) -> int:
        return max((m for _, ops in self.terms for m, _ in ops), default=-1)


@functools.lru_cache(maxsize=LADDER_CACHE_SIZE)
def ladder_table(ops: tuple, n_modes: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries (row, col, sign) of the matrix of the ladder string
    ``ops`` over all 2^n_modes Fock states, in column order; read-only.

    This is the package's one statement of the sign convention: the string
    acts right to left, mode p is bit p counted from the most significant
    end of the basis index, and c_p or c+_p picks up (-1) to the number of
    occupied modes before p.
    """
    if n_modes > MODE_CAP:
        raise ValueError(f"{n_modes} modes exceeds the dense cap {MODE_CAP}")
    parity = _parities(n_modes)
    col = np.arange(1 << n_modes, dtype=np.intp)
    row, sign = col, np.ones_like(col)
    for mode, dagger in reversed(ops):
        bit = 1 << (n_modes - 1 - mode)
        keep = ((row & bit) == 0) == dagger
        row, col = row[keep] ^ bit, col[keep]
        sign = sign[keep] * (1 - 2 * parity[row >> (n_modes - mode)])
    for array in (row, col, sign):
        array.flags.writeable = False
    return row, col, sign


def _word(x: int, z: int, n_qubits: int) -> str:
    return "".join("IXZY"[(x >> s & 1) | (z >> s & 1) << 1]
                   for s in range(n_qubits - 1, -1, -1))


def jordan_wigner(op: FermionOperator, n_modes: int) -> PauliSum:
    """Qubit image of a fermionic operator; like terms merged, zeros pruned.

    A term c M, with M from `ladder_table`, puts c Tr(P+ M) / 2^n on the
    word P of masks (x, z).  Every entry of M flips the same bits
    x = row ^ col, so the trace is (-i)^popcount(x & z) times the integer
    sum of sign (-1)^popcount(col & z) over M's entries.  A term of k
    distinct modes reaches only 2^k z-masks, so the sum is taken at those
    alone.  Terms are added in order, dropping words with |c| <= PRUNE_TOL
    after each.

    Within a term, words keep the order of the string-product expansion
    (single-mode images (X -/+ iY)/2 behind their Z strings, multiplied
    left to right, X before Y): the all-X word first, then Y flipped on at
    the last operator of each mode, earliest mode first.
    """
    if op.max_mode() >= n_modes:
        raise ValueError(f"mode index {op.max_mode()} out of range "
                         f"for {n_modes} modes")
    dim = 1 << n_modes
    parity = _parities(n_modes)
    total: dict[str, complex] = {}
    for coeff, ops in op.terms:
        row, col, sign = ladder_table(ops, n_modes)
        if not row.size:
            continue
        x, z = int(row[0] ^ col[0]), 0
        for mode, _ in ops:
            z ^= dim - (dim >> mode)  # the Z string on modes < mode
        zs, last_first = [z], dict.fromkeys(m for m, _ in reversed(ops))
        for mode in reversed(last_first):
            flip = 1 << (n_modes - 1 - mode)
            zs = [z ^ f for z in zs for f in (0, flip)]
        sums = (1 - 2 * parity[col[:, None] & np.array(zs)]).T @ sign
        for z, k in zip(zs, sums.tolist()):
            value = (coeff * (k / dim)
                     * _PHASES[(x & z).bit_count() % 4])
            if abs(value) <= PRUNE_TOL:
                continue
            word = _word(x, z, n_modes)
            value = total.get(word, 0.0) + value
            if abs(value) <= PRUNE_TOL:
                del total[word]
            else:
                total[word] = value
    return PauliSum(total, n_modes)
