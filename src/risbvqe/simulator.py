"""Exact circuit execution on small registers.

Two backends share one gate set and one engine: pure state vectors
(noiseless) and density matrices (with optional per-gate depolarizing
noise), held as their real Pauli coefficients x_P = tr(P rho) (the
Pauli-transfer-matrix basis, Greenbaum, arXiv:1509.02921).  Qubit 0 is
axis 0 and the most significant bit of the flattened index.  `_fuse`
compiles a circuit into blocks, each one matmul on the block's qubit axes,
and `run`, `apply_gate` and `adjoint_gradient` walk those blocks on either
backend.  On a pure state a block is one gate matrix.  On a density matrix
a gate and its channels form one real 4x4 or 16x16 transfer matrix, and
each maximal run of consecutive gates inside one qubit pair is fused into
one block, the product in gate order (exact; gate fusion as in qsim and
Qiskit Aer).  `adjoint_gradient` differentiates an expectation in one
reverse sweep over the same blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .circuits import _PAULI, Circuit, Gate, gate_derivatives, gate_matrix


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate depolarizing strengths; `scale` damps both probabilities."""

    p1: float
    p2: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.p1 <= 0.75:
            raise ValueError(f"p1 = {self.p1} outside [0, 3/4]")
        if not 0.0 <= self.p2 <= 0.75:
            raise ValueError(f"p2 = {self.p2} outside [0, 3/4]")
        if not 0.0 <= self.scale <= 1.0:
            raise ValueError(f"scale = {self.scale} outside [0, 1]")

    @property
    def effective_p1(self) -> float:
        return self.scale * self.p1

    @property
    def effective_p2(self) -> float:
        return self.scale * self.p2

    def scaled(self, fraction: float) -> "NoiseModel":
        return NoiseModel(self.p1, self.p2, fraction)


def calibrate_noise(eps1: float = 0.0016, eps2: float = 0.006) -> NoiseModel:
    """Depolarizing strengths from randomized-benchmarking error rates:
    p1 = (3/2) eps1 and p2 = 1 - sqrt(1 - (5/4) eps2)."""
    if eps1 < 0 or eps2 < 0:
        raise ValueError("error rates must be nonnegative")
    radicand = 1.0 - 1.25 * eps2
    if radicand < 0:
        raise ValueError(f"1 - (5/4) eps2 = {radicand} is negative")
    return NoiseModel(p1=1.5 * eps1, p2=1.0 - math.sqrt(radicand))


class QuantumState:
    """A pure amplitude tensor, or a density matrix as x_P = tr(P rho):
    float64, shape (4,)*n, axes in I, X, Y, Z order, rho = 2^-n sum x_P P."""

    __slots__ = ("n_qubits", "kind", "tensor")

    def __init__(self, n_qubits: int, kind: str, tensor: np.ndarray):
        if kind not in ("pure", "mixed"):
            raise ValueError(kind)
        self.n_qubits = n_qubits
        self.kind = kind
        self.tensor = tensor

    @classmethod
    def zero(cls, n_qubits: int, mixed: bool = False) -> "QuantumState":
        if mixed:  # |0><0| = (I + Z) / 2 on every qubit
            x = np.zeros((4,) * n_qubits)
            x[np.ix_(*[[0, 3]] * n_qubits)] = 1.0
            return cls(n_qubits, "mixed", x)
        psi = np.zeros((2,) * n_qubits, dtype=complex)
        psi[(0,) * n_qubits] = 1.0
        return cls(n_qubits, "pure", psi)

    @classmethod
    def from_vector(cls, vec) -> "QuantumState":
        vec = np.asarray(vec, dtype=complex).ravel()
        n = vec.size.bit_length() - 1
        if vec.size < 1 or 1 << n != vec.size:
            raise ValueError("amplitude vector length is not a power of two")
        return cls(n, "pure", vec.reshape((2,) * n))

    @classmethod
    def from_density(cls, rho) -> "QuantumState":
        rho = np.asarray(rho, dtype=complex)
        n = rho.shape[0].bit_length() - 1
        if rho.shape[0] < 1 or rho.shape != (1 << n, 1 << n):
            raise ValueError("density matrix must be square power-of-two")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
            raise ValueError("density matrix not Hermitian")
        return cls(n, "mixed", _pauli_coefficients(rho).real.copy())

    def vector(self) -> np.ndarray:
        if self.kind != "pure":
            raise ValueError("not a pure state")
        return self.tensor.reshape(-1).copy()

    def density(self) -> np.ndarray:
        dim = 2 ** self.n_qubits
        if self.kind == "pure":
            v = self.tensor.reshape(-1)
            return np.outer(v, v.conj())
        t, n = self.tensor.astype(complex), self.n_qubits
        for q in range(n):  # rho[i, j] = 2^-n sum_P x_P P[i, j]
            t = _apply_unitary(t, _BASIS.reshape(4, 4).T / 2.0, (q,))
        rows_first = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
        return t.reshape((2,) * (2 * n)).transpose(rows_first).reshape(dim,
                                                                       dim)

    def check(self, tol: float = 1e-10) -> None:
        """Assert the norm/trace/positivity invariants."""
        if self.kind == "pure":
            norm = np.linalg.norm(self.tensor)
            if abs(norm - 1.0) > tol:
                raise ValueError(f"state norm {norm} != 1")
            return
        rho = self.density()
        if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
            raise ValueError("density matrix trace != 1")
        if np.linalg.eigvalsh(rho).min() < -tol:
            raise ValueError("density matrix not positive semidefinite")


# I, X, Y, Z: the one-qubit Pauli basis of the mixed backend.
_BASIS = np.array([np.eye(2), _PAULI["X"], _PAULI["Y"], _PAULI["Z"]])


def _pauli_coefficients(matrix: np.ndarray) -> np.ndarray:
    """tr(P M) for every Pauli word P, as a complex (4,)*n tensor."""
    n = matrix.shape[0].bit_length() - 1
    pairs = [a for q in range(n) for a in (q, n + q)]  # (row q, column q)
    t = matrix.reshape((2,) * (2 * n)).transpose(pairs).reshape((4,) * n)
    for q in range(n):  # tr(P M) = sum_ij P[j, i] M[i, j]
        t = _apply_unitary(t, _BASIS.transpose(0, 2, 1).reshape(4, 4), (q,))
    return t


def _flatten(tensor: np.ndarray, axes: tuple[int, ...]):
    """(`tensor` as a matrix whose rows run over `axes`, the permutation
    that brought them to the front, keeping the rest in order)."""
    perm = list(axes) + [a for a in range(tensor.ndim) if a not in axes]
    rows = tensor.shape[0] ** len(axes)
    return tensor.transpose(perm).reshape(rows, -1), perm


def _apply_unitary(tensor: np.ndarray, u: np.ndarray,
                   axes: tuple[int, ...]) -> np.ndarray:
    """`u` on `axes`.  A Pauli tensor (axes of 4) on adjacent axes in order
    is viewed as (before, block, after) and takes one batched matmul with
    no transpose.  Otherwise `axes` are brought to the front, contracted
    with one matmul and moved back; pure states always take this route."""
    first = axes[0]
    if tensor.shape[0] == 4 and axes == tuple(range(first, first + len(axes))):
        x = tensor.reshape(4 ** first, len(u), -1)
        out = x[..., 0] @ u.T if x.shape[2] == 1 else np.matmul(u, x)
        return out.reshape(tensor.shape)
    flat, perm = _flatten(tensor, axes)
    return (u @ flat).reshape(tensor.shape).transpose(np.argsort(perm))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices, without its generic overhead."""
    d = len(a) * len(b)
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(d, d)


def _local(u: np.ndarray, qubits: tuple[int, ...],
           block: tuple[int, ...]) -> np.ndarray:
    """A gate matrix on `qubits` written on the block's qubits, in order."""
    if qubits == block:
        return u
    if len(qubits) == 2:  # the block lists the pair the other way round
        return u.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    eye = np.eye(2)
    return _kron(u, eye) if qubits[0] == block[0] else _kron(eye, u)


# Pauli words on a block of k = 1, 2 qubits as (rows, cols), with
# rows[p, (b, a)] = P_p[a, b] and cols[(c, d), q] = P_q[c, d], so that
# rows (L o R*) cols = [tr(P_p L P_q R^dag)].
_WORDS = {k: (w.transpose(0, 2, 1).reshape(4 ** k, -1),
              w.reshape(4 ** k, -1).T.copy())
          for k, w in ((1, _BASIS), (2, np.einsum(
              "aij,bkl->abikjl", _BASIS, _BASIS).reshape(16, 4, 4)))}


def _transfer(gate: Gate, left: np.ndarray, block: tuple[int, ...],
              noise: NoiseModel | None,
              right: np.ndarray | None = None) -> np.ndarray:
    """Pauli transfer matrix of rho -> D(L rho R^dag) on the block's qubits,
    Re tr(P_p L P_q R^dag) / 2^k over its k-qubit Pauli words, with D the
    gate's depolarizing channels (p1 for a one-qubit gate, p2 on each qubit
    of a two-qubit gate), each a row scale (1, f, f, f) with f = 1 - 4p/3
    on its qubit's Pauli index; R = L = U gives the noisy gate."""
    a = _local(left, gate.qubits, block)
    b = a if right is None else _local(right, gate.qubits, block)
    rows, cols = _WORDS[len(block)]
    out = (rows @ _kron(a, b.conj()) @ cols).real / len(a)
    if noise is not None:
        p = noise.effective_p1 if len(gate.qubits) == 1 else noise.effective_p2
        f = np.array([1.0] + [1.0 - 4.0 * p / 3.0] * 3)
        scales = [f if q in gate.qubits else np.ones(4) for q in block]
        out *= functools.reduce(np.multiply.outer, scales).reshape(-1, 1)
    return out


@functools.lru_cache(maxsize=1024)
def _fixed_transfer(gate: Gate, block: tuple[int, ...],
                    noise: NoiseModel | None) -> np.ndarray:
    """`_transfer` of a gate without named parameters, built once."""
    out = _transfer(gate, gate_matrix(gate), block, noise)
    out.setflags(write=False)
    return out


def _runs(gates) -> list[tuple[tuple[int, ...], list[Gate]]]:
    """Maximal runs of consecutive gates whose qubits fit inside one pair,
    as (qubits in first-use order, gates)."""
    runs: list[tuple[tuple[int, ...], list[Gate]]] = []
    for gate in gates:
        if runs:
            qubits, members = runs[-1]
            joint = qubits + tuple(q for q in gate.qubits if q not in qubits)
            if len(joint) <= 2:
                members.append(gate)
                runs[-1] = (joint, members)
                continue
        runs.append((gate.qubits, [gate]))
    return runs


def _fuse(gates, bindings: Mapping[str, float], noise: NoiseModel | None,
          mixed: bool):
    """One block per run: (its qubits, gates, factors, prefixes), factors[k]
    the action of gates[k] on the block and prefixes[k] = factors[k] ...
    factors[0], so prefixes[-1] is the block's S.

    On the Pauli coefficients of a density matrix a block is a run of
    `_runs` and a factor is the gate's noisy Pauli transfer matrix, real
    4x4 or 16x16.  On a pure state a block is one gate on its own qubits
    and its factor is U: fusing does not pay on 2^n amplitudes."""
    if not mixed:
        if noise is not None:
            raise ValueError("noise requires the density-matrix backend")
        matrices = [gate_matrix(g, bindings) for g in gates]
        return [(g.qubits, [g], [u], [u]) for g, u in zip(gates, matrices)]
    blocks = []
    for qubits, members in _runs(gates):
        factors = [_transfer(g, gate_matrix(g, bindings), qubits, noise)
                   if g.param_names() else _fixed_transfer(g, qubits, noise)
                   for g in members]
        prefixes = list(itertools.accumulate(factors, lambda s, t: t @ s))
        blocks.append((qubits, members, factors, prefixes))
    return blocks


def apply_gate(state: QuantumState, gate: Gate,
               bindings: Mapping[str, float] | None = None,
               noise: NoiseModel | None = None) -> QuantumState:
    """Unitary action followed, on the mixed backend, by one depolarizing
    channel per touched qubit (p1 for one-qubit gates, p2 per qubit of a
    two-qubit gate); the gate is a block of one."""
    ((axes, _, _, (s,)),) = _fuse((gate,), bindings or {}, noise,
                                  state.kind == "mixed")
    return QuantumState(state.n_qubits, state.kind,
                        _apply_unitary(state.tensor, s, axes))


def _bound(circuit: Circuit,
           bindings: Mapping[str, float] | None) -> dict[str, float]:
    resolved = circuit.resolved_bindings(bindings)
    missing = [p for p in circuit.parameter_names if p not in resolved]
    if missing:
        raise ValueError(f"unbound parameters: {missing}")
    return resolved


def run(circuit: Circuit, bindings: Mapping[str, float] | None = None,
        noise: NoiseModel | None = None,
        mixed: bool | None = None) -> QuantumState:
    """Execute from |0...0>; the backend follows the noise setting unless
    forced with `mixed`, and noise on the pure backend raises ValueError."""
    resolved = _bound(circuit, bindings)
    if mixed is None:
        mixed = noise is not None
    state = QuantumState.zero(circuit.n_qubits, mixed=mixed)
    for axes, _, _, prefixes in _fuse(circuit.gates, resolved, noise, mixed):
        state.tensor = _apply_unitary(state.tensor, prefixes[-1], axes)
    return state


def adjoint_gradient(circuit: Circuit, observable: np.ndarray,
                     bindings: Mapping[str, float] | None = None,
                     noise: NoiseModel | None = None
                     ) -> tuple[QuantumState, np.ndarray]:
    """The final state (the one `run` returns) and the exact
    d<O>/d(parameter) in `circuit.parameter_names` order, from one forward
    and one reverse sweep over the blocks of `_fuse` (Jones & Gacon,
    arXiv:2009.02823).

    `observable` is the dense Hermitian 2^n x 2^n matrix of O.  The forward
    sweep keeps the tensor entering each block that holds a parameterized
    gate.  The reverse sweep carries lambda back through each block's
    S^dag, starting from O psi on a pure state and from tr(P O) / 2^n on a
    density matrix (Heisenberg picture, exact at every noise strength).  A
    block adds w Re sum(dS * M), with M the overlap of lambda after it and
    the tensor entering it over the block's axes, dS the derivative of its
    S, and w = 2 for a pure state (psi enters <O> twice), 1 for a density
    matrix.
    """
    resolved = _bound(circuit, bindings)
    n = circuit.n_qubits
    mixed = noise is not None
    index = {name: i for i, name in enumerate(circuit.parameter_names)}
    grad = np.zeros(len(index))
    observable = np.asarray(observable, dtype=complex)
    blocks = _fuse(circuit.gates, resolved, noise, mixed)
    tensor = QuantumState.zero(n, mixed=mixed).tensor
    entering: list[np.ndarray] = []
    for axes, gates, _, prefixes in blocks:
        if any(g.param_names() for g in gates):
            entering.append(_flatten(tensor, axes)[0])
        tensor = _apply_unitary(tensor, prefixes[-1], axes)
    if mixed:
        lam, weight = _pauli_coefficients(observable).real / 2 ** n, 1.0
    else:
        lam = (observable @ tensor.reshape(-1)).reshape(tensor.shape)
        weight = 2.0
    for axes, gates, factors, prefixes in reversed(blocks):
        if any(g.param_names() for g in gates):
            # M[i, j] = sum over the other axes of conj(lam[i]) entering[j]
            overlap = _flatten(lam, axes)[0].conj() @ entering.pop().T
            # dS for a slot of gate j: T_m ... T_(j+1) dT_j T_(j-1) ... T_1
            # with dT_j = dU (pure) or D (dU o U* + U o dU*) (mixed), whose
            # two terms have the same real transfer matrix.
            after = None
            for j in range(len(gates) - 1, -1, -1):
                derivatives = gate_derivatives(gates[j], resolved)
                if mixed and derivatives:
                    u = gate_matrix(gates[j], resolved)
                    derivatives = [
                        (name, 2.0 * _transfer(gates[j], du, axes, noise,
                                               right=u))
                        for name, du in derivatives]
                for name, d_s in derivatives:
                    d_s = d_s @ prefixes[j - 1] if j else d_s
                    d_s = d_s if after is None else after @ d_s
                    grad[index[name]] += weight * np.sum(d_s * overlap).real
                after = factors[j] if after is None else after @ factors[j]
        lam = _apply_unitary(lam, prefixes[-1].conj().T, axes)
    return QuantumState(n, "mixed" if mixed else "pure", tensor), grad
