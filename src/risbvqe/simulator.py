"""Exact circuit execution on small registers.

Two backends share one gate set: pure state vectors (noiseless) and density
matrices (with optional per-gate depolarizing noise).  States are stored as
rank-n (or rank-2n) tensors with one axis per qubit; qubit 0 is axis 0 and
the most significant bit of the flattened index.  `adjoint_gradient`
differentiates an expectation on either backend in one reverse sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .circuits import Circuit, Gate, gate_derivatives, gate_matrix


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
    """Either a pure amplitude tensor or a density-matrix tensor."""

    __slots__ = ("n_qubits", "kind", "tensor")

    def __init__(self, n_qubits: int, kind: str, tensor: np.ndarray):
        if kind not in ("pure", "mixed"):
            raise ValueError(kind)
        self.n_qubits = n_qubits
        self.kind = kind
        self.tensor = tensor

    @classmethod
    def zero(cls, n_qubits: int, mixed: bool = False) -> "QuantumState":
        if mixed:
            rho = np.zeros((2,) * (2 * n_qubits), dtype=complex)
            rho[(0,) * (2 * n_qubits)] = 1.0
            return cls(n_qubits, "mixed", rho)
        psi = np.zeros((2,) * n_qubits, dtype=complex)
        psi[(0,) * n_qubits] = 1.0
        return cls(n_qubits, "pure", psi)

    @classmethod
    def from_vector(cls, vec) -> "QuantumState":
        vec = np.asarray(vec, dtype=complex).ravel()
        n = int(round(math.log2(vec.size)))
        if 2 ** n != vec.size:
            raise ValueError("amplitude vector length is not a power of two")
        return cls(n, "pure", vec.reshape((2,) * n))

    @classmethod
    def from_density(cls, rho) -> "QuantumState":
        rho = np.asarray(rho, dtype=complex)
        n = int(round(math.log2(rho.shape[0])))
        if rho.shape != (2 ** n, 2 ** n):
            raise ValueError("density matrix must be square power-of-two")
        return cls(n, "mixed", rho.reshape((2,) * (2 * n)))

    def vector(self) -> np.ndarray:
        if self.kind != "pure":
            raise ValueError("not a pure state")
        return self.tensor.reshape(-1).copy()

    def density(self) -> np.ndarray:
        dim = 2 ** self.n_qubits
        if self.kind == "pure":
            v = self.tensor.reshape(-1)
            return np.outer(v, v.conj())
        return self.tensor.reshape(dim, dim).copy()

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
        if np.max(np.abs(rho - rho.conj().T)) > tol:
            raise ValueError("density matrix not Hermitian")
        if np.linalg.eigvalsh(rho).min() < -tol:
            raise ValueError("density matrix not positive semidefinite")


def _front(tensor: np.ndarray, axes: tuple[int, ...]) -> list[int]:
    """Axis order that puts `axes` first and keeps the rest in order."""
    return list(axes) + [a for a in range(tensor.ndim) if a not in axes]


def _apply_unitary(tensor: np.ndarray, u: np.ndarray,
                   axes: tuple[int, ...]) -> np.ndarray:
    # Bring `axes` to the front, contract with one matmul, move them back.
    perm = _front(tensor, axes)
    moved = tensor.transpose(perm)
    out = (u @ moved.reshape(2 ** len(axes), -1)).reshape(moved.shape)
    return out.transpose(np.argsort(perm))


def _depolarize(tensor: np.ndarray, qubit: int, p: float,
                n_qubits: int) -> np.ndarray:
    # (1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z)
    #   = (1 - 4p/3) rho + (4p/3) (I/2 o tr_q rho)
    if p == 0.0:
        return tensor
    w = 4.0 * p / 3.0
    reduced = np.trace(tensor, axis1=qubit, axis2=n_qubits + qubit)
    out = (1.0 - w) * tensor
    idx: list = [slice(None)] * (2 * n_qubits)
    for b in (0, 1):
        idx[qubit] = b
        idx[n_qubits + qubit] = b
        out[tuple(idx)] += (0.5 * w) * reduced
    return out


def _conjugate(tensor: np.ndarray, u: np.ndarray, qubits: tuple[int, ...],
               n_qubits: int) -> np.ndarray:
    """u rho u^dag on a density tensor: rows with u, columns with u*."""
    tensor = _apply_unitary(tensor, u, qubits)
    return _apply_unitary(tensor, u.conj(),
                          tuple(n_qubits + q for q in qubits))


def _gate_noise(tensor: np.ndarray, gate: Gate, noise: NoiseModel,
                n_qubits: int) -> np.ndarray:
    p = noise.effective_p1 if len(gate.qubits) == 1 else noise.effective_p2
    for q in gate.qubits:
        tensor = _depolarize(tensor, q, p, n_qubits)
    return tensor


def apply_gate(state: QuantumState, gate: Gate,
               bindings: Mapping[str, float] | None = None,
               noise: NoiseModel | None = None) -> QuantumState:
    """Unitary action followed, on the mixed backend, by one depolarizing
    channel per touched qubit (p1 for one-qubit gates, p2 per qubit of a
    two-qubit gate)."""
    if noise is not None and state.kind == "pure":
        raise ValueError("noise requires the density-matrix backend")
    u = gate_matrix(gate, bindings or {})
    n = state.n_qubits
    if state.kind == "pure":
        return QuantumState(n, "pure",
                            _apply_unitary(state.tensor, u, gate.qubits))
    tensor = _conjugate(state.tensor, u, gate.qubits, n)
    if noise is not None:
        tensor = _gate_noise(tensor, gate, noise, n)
    return QuantumState(n, "mixed", tensor)


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
    forced with `mixed`."""
    resolved = _bound(circuit, bindings)
    if mixed is None:
        mixed = noise is not None
    state = QuantumState.zero(circuit.n_qubits, mixed=mixed)
    for gate in circuit.gates:
        state = apply_gate(state, gate, resolved, noise)
    return state


def _overlap(bra: np.ndarray, ket: np.ndarray,
             axes: tuple[int, ...]) -> np.ndarray:
    """M[i, j] = sum over the other axes of conj(bra[i, ...]) ket[j, ...],
    with i and j running over the joint index of `axes`."""
    perm = _front(bra, axes)
    b = bra.transpose(perm).reshape(2 ** len(axes), -1)
    c = ket.transpose(perm).reshape(2 ** len(axes), -1)
    return b.conj() @ c.T


def adjoint_gradient(circuit: Circuit, observable: np.ndarray,
                     bindings: Mapping[str, float] | None = None,
                     noise: NoiseModel | None = None
                     ) -> tuple[QuantumState, np.ndarray]:
    """The final state (the one `run` returns) and the exact
    d<O>/d(parameter) in `circuit.parameter_names` order, from one forward
    and one reverse sweep (Jones & Gacon, arXiv:2009.02823).

    `observable` is the dense Hermitian 2^n x 2^n matrix of O.  The forward
    sweep keeps the state entering each parameterized gate.  The reverse
    sweep carries lambda = O psi (pure backend) or O itself (mixed backend,
    Heisenberg picture) back through every gate; each depolarizing channel
    is self-adjoint, so this is exact at every allowed strength.  Once
    lambda sits before gate k, the gate contributes
    2 Re <lambda| U^dag dU |state entering k>, the Hilbert-Schmidt product
    on the mixed backend.
    """
    resolved = _bound(circuit, bindings)
    n = circuit.n_qubits
    mixed = noise is not None
    state = QuantumState.zero(n, mixed=mixed)
    entering: list[np.ndarray] = []
    for gate in circuit.gates:
        if gate.param_names():
            entering.append(state.tensor)
        state = apply_gate(state, gate, resolved, noise)
    observable = np.asarray(observable, dtype=complex)
    shape = state.tensor.shape
    if mixed:
        lam = observable.reshape(shape)
    else:
        lam = (observable @ state.tensor.reshape(-1)).reshape(shape)
    index = {name: i for i, name in enumerate(circuit.parameter_names)}
    grad = np.zeros(len(index))
    for gate in reversed(circuit.gates):
        u_dag = gate_matrix(gate, resolved).conj().T
        if mixed:
            lam = _conjugate(_gate_noise(lam, gate, noise, n), u_dag,
                             gate.qubits, n)
        else:
            lam = _apply_unitary(lam, u_dag, gate.qubits)
        derivatives = gate_derivatives(gate, resolved)
        if derivatives:
            overlap = _overlap(lam, entering.pop(), gate.qubits)
            for name, du in derivatives:
                grad[index[name]] += 2.0 * np.sum((u_dag @ du) * overlap).real
    return state, grad
