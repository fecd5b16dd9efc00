"""Second-quantized cluster Hamiltonians.

`OrbitalHamiltonian` stores coefficients (h_pq, u_pqrs, const) for
H = const + sum_pq h[p,q] c+_p c_q + sum_pqrs u[p,q,r,s] c+_p c+_q c_r c_s
and knows how to change single-particle basis, export fermion terms, and
compile to a Pauli sum.  `EmbeddingHamiltonian` assembles the impurity+bath
cluster model from its physical blocks.

Modes are spin-major: spin-up orbitals first, then spin-down; within each
spin the n_c impurity orbitals precede the n_c bath orbitals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import FermionOperator, PauliSum, jordan_wigner

HERMITICITY_TOL = 1e-10


def mode_index(spin: int, orbital: int, n_c: int) -> int:
    """Flat mode index of (spin, orbital); orbitals run over n_c impurity
    sites then n_c bath sites."""
    if spin not in (0, 1) or not 0 <= orbital < 2 * n_c:
        raise ValueError(f"bad mode (spin={spin}, orbital={orbital})")
    return spin * 2 * n_c + orbital


class OrbitalHamiltonian:
    """Coefficient view of a fermionic Hamiltonian on a fixed mode set."""

    __slots__ = ("n_modes", "h", "u", "const", "_pauli")

    def __init__(self, h: np.ndarray, u: np.ndarray | None = None,
                 const: float = 0.0):
        h = np.asarray(h, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("one-body matrix must be square")
        if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
            raise ValueError("one-body matrix is not Hermitian")
        m = h.shape[0]
        if u is None:
            u = np.zeros((m, m, m, m), dtype=complex)
        else:
            u = np.asarray(u, dtype=complex)
            if u.shape != (m, m, m, m):
                raise ValueError("two-body tensor shape mismatch")
        self.n_modes = m
        self.h = h
        self.u = u
        self.const = float(const)
        self._pauli: PauliSum | None = None

    def rotate(self, v: np.ndarray) -> "OrbitalHamiltonian":
        """Express the same operator in the orbital basis given by `v`.

        `v` columns are the new orbitals; a matrix over half the modes is
        applied identically to both spin blocks.  Coefficients transform as
        h'_pq = V_Pp h_PQ V*_Qq and u'_pqrs = V_Pp V_Qq u_PQRS V*_Rr V*_Ss,
        so a state's 1-RDM V n V+ becomes diagonal in the new basis.
        """
        v = np.asarray(v, dtype=complex)
        if v.shape == (self.n_modes // 2, self.n_modes // 2):
            v = np.kron(np.eye(2), v)
        if v.shape != (self.n_modes, self.n_modes):
            raise ValueError(f"rotation shape {v.shape} does not match "
                             f"{self.n_modes} modes")
        if np.max(np.abs(v.conj().T @ v - np.eye(self.n_modes))) > 1e-10:
            raise ValueError("rotation is not unitary")
        h_new = v.T @ self.h @ v.conj()
        u_new = np.einsum("Pp,Qq,PQRS,Rr,Ss->pqrs", v, v, self.u,
                          v.conj(), v.conj(), optimize=True)
        return OrbitalHamiltonian(h_new, u_new, self.const)

    def to_fermion_operator(self) -> FermionOperator:
        terms: list[tuple[complex, tuple]] = []
        if self.const:
            terms.append((complex(self.const), ()))
        # argwhere and boolean masks both walk the tensors in C order.
        h_mask = np.abs(self.h) > 1e-14
        for (p, q), coeff in zip(np.argwhere(h_mask).tolist(),
                                 self.h[h_mask]):
            terms.append((coeff, ((p, True), (q, False))))
        u_mask = np.abs(self.u) > 1e-14
        for (p, q, r, s), coeff in zip(np.argwhere(u_mask).tolist(),
                                       self.u[u_mask]):
            terms.append((coeff, ((p, True), (q, True),
                                  (r, False), (s, False))))
        return FermionOperator(terms)

    def to_pauli(self) -> PauliSum:
        if self._pauli is None:
            self._pauli = jordan_wigner(self.to_fermion_operator(),
                                        self.n_modes)
        return self._pauli


@dataclass(frozen=True)
class EmbeddingHamiltonian:
    """Impurity+bath cluster model in grand-canonical form.

    Per spin the one-body block is [[t_intra - mu, D], [D+, -(lambda_c +
    mu)]]; the bath part enters through f_b f_a+ ordering, which leaves the
    constant 2 tr(lambda_c).  The interaction U n_up n_down acts on each
    impurity site.
    """

    n_c: int
    u_int: float
    d_mix: np.ndarray
    lambda_c: np.ndarray
    mu: float = 0.0
    t_intra: np.ndarray | None = None

    def __post_init__(self):
        n = self.n_c
        object.__setattr__(self, "d_mix",
                           np.atleast_2d(np.asarray(self.d_mix, dtype=float)))
        object.__setattr__(self, "lambda_c",
                           np.atleast_2d(np.asarray(self.lambda_c,
                                                    dtype=float)))
        t = (np.zeros((n, n)) if self.t_intra is None
             else np.atleast_2d(np.asarray(self.t_intra, dtype=float)))
        object.__setattr__(self, "t_intra", t)
        for name in ("d_mix", "lambda_c", "t_intra"):
            if getattr(self, name).shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}")

    @property
    def n_modes(self) -> int:
        return 4 * self.n_c

    def orbital(self) -> OrbitalHamiltonian:
        n = self.n_c
        block = np.zeros((2 * n, 2 * n), dtype=complex)
        block[:n, :n] = self.t_intra - self.mu * np.eye(n)
        block[:n, n:] = self.d_mix
        block[n:, :n] = self.d_mix.conj().T
        block[n:, n:] = -(self.lambda_c + self.mu * np.eye(n))
        h = np.kron(np.eye(2), block)
        u = np.zeros((4 * n,) * 4, dtype=complex)
        for site in range(n):
            up = mode_index(0, site, n)
            dn = mode_index(1, site, n)
            # n_up n_down reordered to c+_up c+_down c_down c_up.
            u[up, dn, dn, up] = self.u_int
        const = 2.0 * float(np.trace(self.lambda_c))
        return OrbitalHamiltonian(h, u, const)

    def to_pauli(self) -> PauliSum:
        return self.orbital().to_pauli()
