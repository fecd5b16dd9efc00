"""Pauli-string algebra, fermionic operators, and the Jordan-Wigner map.

A Pauli word is a plain string over the alphabet ``IXYZ``; position ``i`` in
the word addresses qubit ``i``, and qubit 0 is the leftmost (most
significant) factor of every Kronecker product.  Fermionic modes map
one-to-one onto qubits in the same order.

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

# Dense materialization refuses registers larger than this by default.
MATRIX_QUBIT_CAP = 12

# Single-qubit products (a, b) -> (phase, a*b).
_MUL = {
    ("I", "I"): (1.0, "I"),
    ("I", "X"): (1.0, "X"),
    ("I", "Y"): (1.0, "Y"),
    ("I", "Z"): (1.0, "Z"),
    ("X", "I"): (1.0, "X"),
    ("Y", "I"): (1.0, "Y"),
    ("Z", "I"): (1.0, "Z"),
    ("X", "X"): (1.0, "I"),
    ("Y", "Y"): (1.0, "I"),
    ("Z", "Z"): (1.0, "I"),
    ("X", "Y"): (1.0j, "Z"),
    ("Y", "X"): (-1.0j, "Z"),
    ("Y", "Z"): (1.0j, "X"),
    ("Z", "Y"): (-1.0j, "X"),
    ("Z", "X"): (1.0j, "Y"),
    ("X", "Z"): (-1.0j, "Y"),
}


def pauli_product(a: str, b: str) -> tuple[complex, str]:
    """Multiply two Pauli words: matrix(a) @ matrix(b) = phase * matrix(c)."""
    if len(a) != len(b):
        raise ValueError(f"word lengths differ: {len(a)} vs {len(b)}")
    phase = 1.0 + 0.0j
    out = []
    for ca, cb in zip(a, b):
        ph, c = _MUL[ca, cb]
        phase *= ph
        out.append(c)
    return phase, "".join(out)


class PauliSum:
    """Weighted sum of Pauli words over a fixed register.

    Immutable after construction; zero terms are pruned at `PRUNE_TOL`.
    """

    __slots__ = ("n_qubits", "_terms", "_matrix", "_max_imag")

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
        self._max_imag: float | None = None

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls({}, n_qubits)

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "PauliSum":
        return cls({"I" * n_qubits: coeff}, n_qubits)

    @property
    def terms(self) -> dict[str, complex]:
        return dict(self._terms)

    def items(self) -> Iterator[tuple[str, complex]]:
        return iter(self._terms.items())

    def coefficient(self, word: str) -> complex:
        return self._terms.get(word, 0.0 + 0.0j)

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

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__rmul__(other)
        if not isinstance(other, PauliSum):
            return NotImplemented
        if other.n_qubits != self.n_qubits:
            raise ValueError("register size mismatch")
        merged: dict[str, complex] = {}
        for wa, ca in self._terms.items():
            for wb, cb in other._terms.items():
                phase, wc = pauli_product(wa, wb)
                merged[wc] = merged.get(wc, 0.0) + phase * ca * cb
        return PauliSum(merged, self.n_qubits)

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


def expectation_matrix(p: PauliSum, n_qubits: int | None = None,
                       cap: int = MATRIX_QUBIT_CAP) -> np.ndarray:
    """Materialize a PauliSum as a dense 2^n x 2^n matrix.

    A word maps basis state j to i^(#Y) (-1)^popcount(j & z_mask) times
    basis state j ^ x_mask (Y = iXZ), so each word fills one permutation
    pattern of entries; words sharing an x_mask share the pattern.
    """
    if n_qubits is None:
        n_qubits = p.n_qubits
    if n_qubits != p.n_qubits:
        raise ValueError("register size mismatch")
    if n_qubits > cap:
        raise ValueError(f"{n_qubits} qubits exceeds the dense cap {cap}")
    if p._matrix is not None:
        return p._matrix
    dim = 2 ** n_qubits
    cols = np.arange(dim)
    parity = np.zeros(dim, dtype=np.int64)
    for bit in range(n_qubits):
        parity ^= (cols >> bit) & 1
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

    @classmethod
    def constant(cls, value: complex) -> "FermionOperator":
        return cls([(value, ())])

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


@functools.lru_cache(maxsize=512)
def _ladder_image(mode: int, dagger: bool, n_modes: int) -> PauliSum:
    # c†_j carries the Z string on all earlier modes; (X - iY)/2 raises
    # |0> to |1> so |1> means occupied.
    head = "Z" * mode
    tail = "I" * (n_modes - mode - 1)
    y_coeff = -0.5j if dagger else 0.5j
    return PauliSum({head + "X" + tail: 0.5, head + "Y" + tail: y_coeff},
                    n_modes)


def jordan_wigner(op: FermionOperator, n_modes: int) -> PauliSum:
    """Qubit image of a fermionic operator; like terms merged, zeros pruned."""
    if op.max_mode() >= n_modes:
        raise ValueError(f"mode index {op.max_mode()} out of range "
                         f"for {n_modes} modes")
    total = PauliSum.zero(n_modes)
    for coeff, ops in op.terms:
        acc = PauliSum.identity(n_modes, coeff)
        for mode, dagger in ops:
            acc = acc * _ladder_image(mode, dagger, n_modes)
        total = total + acc
    return total
