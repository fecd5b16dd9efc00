"""Second-quantized cluster Hamiltonians.

`OrbitalHamiltonian` stores coefficients (h_pq, u_pqrs, const) for
H = const + sum_pq h[p,q] c+_p c_q + sum_pqrs u[p,q,r,s] c+_p c+_q c_r c_s
and knows how to change single-particle basis and list its terms once
(`ladder_terms`).  That one list is read twice: `ed.hamiltonian_matrix`
sums it into the Fock-space matrix every solver and simulator observable
uses, and `to_pauli` compiles it to the Pauli words the term counts read.
`EmbeddingHamiltonian` is one such operator, the impurity+bath cluster
model, whose coefficients are assembled once from its physical blocks.

Modes are spin-major: spin-up orbitals first, then spin-down; within each
spin the n_c impurity orbitals precede the n_c bath orbitals.
"""

from __future__ import annotations

import numpy as np

from . import check_adjoint
from .pauli import FermionOperator, PauliSum, jordan_wigner


def mode_index(spin: int, orbital: int, n_c: int) -> int:
    """Flat mode index of (spin, orbital); orbitals run over n_c impurity
    sites then n_c bath sites."""
    if spin not in (0, 1) or not 0 <= orbital < 2 * n_c:
        raise ValueError(f"bad mode (spin={spin}, orbital={orbital})")
    return spin * 2 * n_c + orbital


class OrbitalHamiltonian:
    """Coefficient view of a fermionic Hamiltonian on a fixed mode set."""

    __slots__ = ("n_modes", "h", "u", "const")
    _paths: dict[int, list] = {}  # `rotate`'s einsum order per mode count

    def __init__(self, h: np.ndarray, u: np.ndarray | None = None,
                 const: float = 0.0):
        h = np.asarray(h, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("one-body matrix must be square")
        check_adjoint(h, h, "one-body matrix is not Hermitian")
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
        check_adjoint(v.conj().T @ v, np.eye(self.n_modes),
                      "rotation is not unitary")
        h_new = v.T @ self.h @ v.conj()
        spec = "Pp,Qq,PQRS,Rr,Ss->pqrs"
        if self.n_modes not in self._paths:  # it depends on the shapes only
            self._paths[self.n_modes] = np.einsum_path(
                spec, v, v, self.u, v, v, optimize=True)[0]
        u_new = np.einsum(spec, v, v, self.u, v.conj(), v.conj(),
                          optimize=self._paths[self.n_modes])
        return OrbitalHamiltonian(h_new, u_new, self.const)

    def ladder_terms(self) -> tuple[tuple, np.ndarray]:
        """The operator's one term list: (ladder strings, complex
        coefficients), the constant first if it is nonzero, then h and u,
        each in C order, keeping entries with |c| > 1e-14."""
        # argwhere and boolean masks both walk the tensors in C order.
        h_mask = np.abs(self.h) > 1e-14
        u_mask = np.abs(self.u) > 1e-14
        const = [self.const] if self.const else []
        strings = [()] * len(const)
        strings += [((p, True), (q, False))
                    for p, q in np.argwhere(h_mask).tolist()]
        strings += [((p, True), (q, True), (r, False), (s, False))
                    for p, q, r, s in np.argwhere(u_mask).tolist()]
        coeffs = np.concatenate((np.array(const, dtype=complex),
                                 self.h[h_mask], self.u[u_mask]))
        return tuple(strings), coeffs

    def to_fermion_operator(self) -> FermionOperator:
        strings, coeffs = self.ladder_terms()
        return FermionOperator(zip(coeffs.tolist(), strings))

    def to_pauli(self) -> PauliSum:
        return jordan_wigner(self.to_fermion_operator(), self.n_modes)


class EmbeddingHamiltonian(OrbitalHamiltonian):
    """Impurity+bath cluster model in grand-canonical form, built once into
    the coefficients it describes.

    Per spin the one-body block is [[t_intra - mu, D], [D+, -(lambda_c +
    mu)]]; the bath part enters through f_b f_a+ ordering, which leaves the
    constant 2 tr(lambda_c).  The interaction U n_up n_down acts on each
    impurity site.
    """

    __slots__ = ("n_c", "u_int", "d_mix", "lambda_c", "mu", "t_intra")

    def __init__(self, n_c: int, u_int: float, d_mix, lambda_c,
                 mu: float = 0.0, t_intra=None):
        n = n_c
        self.n_c, self.u_int, self.mu = n_c, u_int, mu
        self.d_mix = np.atleast_2d(np.asarray(d_mix, dtype=float))
        self.lambda_c = np.atleast_2d(np.asarray(lambda_c, dtype=float))
        self.t_intra = (np.zeros((n, n)) if t_intra is None
                        else np.atleast_2d(np.asarray(t_intra, dtype=float)))
        for name in ("d_mix", "lambda_c", "t_intra"):
            if getattr(self, name).shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}")
        block = np.zeros((2 * n, 2 * n), dtype=complex)
        block[:n, :n] = self.t_intra - mu * np.eye(n)
        block[:n, n:] = self.d_mix
        block[n:, :n] = self.d_mix.conj().T
        block[n:, n:] = -(self.lambda_c + mu * np.eye(n))
        u = np.zeros((4 * n,) * 4, dtype=complex)
        for site in range(n):
            up = mode_index(0, site, n)
            dn = mode_index(1, site, n)
            # n_up n_down reordered to c+_up c+_down c_down c_up.
            u[up, dn, dn, up] = u_int
        super().__init__(np.kron(np.eye(2), block), u,
                         2.0 * float(np.trace(self.lambda_c)))

    def orbital(self) -> OrbitalHamiltonian:
        """The coefficient view, which is the cluster itself."""
        return self
