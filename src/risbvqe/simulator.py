"""Exact circuit execution on small registers.

Two backends share one gate set and one engine: pure state vectors
(noiseless) and density matrices (with optional per-gate depolarizing
noise), held as their real Pauli coefficients x_P = tr(P rho) (the
Pauli-transfer-matrix basis, Greenbaum, arXiv:1509.02921).  Qubit 0 is
axis 0 and the most significant bit of the flattened index.  `_compile`
turns a circuit's structure into blocks once per (gates, backend, noise),
`_fuse` fills in a call's angles with one `gate_stack` per gate kind, and
`run`, `apply_gate` and `adjoint_gradient` walk those blocks.  A pure
block is one gate, applied in place as flat[idx] = U flat[idx] through a
cached gather index.  On a density matrix a gate and its channels form one
real 4x4 or 16x16 transfer matrix, and each maximal run of consecutive
gates inside one qubit pair is one block, the product in gate order
(exact; gate fusion as in qsim and Qiskit Aer).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .circuits import (_PAULI, Circuit, Gate, gate_derivatives, gate_matrix,
                       gate_stack)
from .pauli import PauliSum, expectation_matrix, pauli_tensor


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
    """`u` on `axes` of a Pauli tensor (axes of 4).  On adjacent axes in
    order it is viewed as (before, block, after) and takes one batched
    matmul with no transpose.  Otherwise `axes` are brought to the front,
    contracted with one matmul and moved back."""
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


class _Block(NamedTuple):
    qubits: tuple[int, ...]
    gates: tuple[Gate, ...]
    positions: range         # of its gates in the circuit
    idx: np.ndarray | None   # pure states: flat[idx] is `_flatten`'s matrix
    tuned: bool              # holds a gate with a named slot


@functools.lru_cache(maxsize=64)
def _compile(n: int, gates: tuple[Gate, ...], mixed: bool,
             noise: NoiseModel | None):
    """The angle-free part of `_fuse`, built once per (gates, backend,
    noise): (blocks, each gate's factor if it has no named slot, kinds),
    its arrays read-only.  A kind (kind, axes, positions, name index,
    scale) gathers the gates with named slots, with (m, slots) tables; a
    numeric slot has index len(names) and its angle as scale."""
    if noise is not None and not mixed:
        raise ValueError("noise requires the density-matrix backend")
    blocks, where, index = [], [], {}  # one gather index per qubit tuple
    for qubits, members in (_runs(gates) if mixed else
                            [(g.qubits, [g]) for g in gates]):
        if not mixed and qubits not in index:
            index[qubits] = _flatten(np.arange(
                2 ** n, dtype=np.intp).reshape((2,) * n), qubits)[0]
        blocks.append(_Block(qubits, tuple(members), range(
            len(where), len(where) + len(members)), index.get(qubits),
            any(g.param_names() for g in members)))
        where += [qubits] * len(members)
    fixed = tuple(None if g.param_names() else
                  _transfer(g, gate_matrix(g), q, noise) if mixed else
                  gate_matrix(g).copy() for g, q in zip(gates, where))
    groups: dict[tuple, list[int]] = {}
    for p, g in enumerate(gates):
        if g.param_names():
            groups.setdefault((g.kind, g.axes), []).append(p)
    names = {name: i for i, name in enumerate(dict.fromkeys(
        name for g in gates for name in g.param_names()))}
    kinds = [(kind, axes, np.array(ps), np.array(
        [[names.get(getattr(s, "name", None), len(names))
          for s in gates[p].params] for p in ps]), np.array(
        [[getattr(s, "scale", s) for s in gates[p].params] for p in ps],
        dtype=float)) for (kind, axes), ps in groups.items()]
    for array in [*index.values(), *(f for f in fixed if f is not None),
                  *(a for k in kinds for a in k[2:])]:
        array.setflags(write=False)
    return tuple(blocks), fixed, tuple(kinds)


def _fuse(circuit: Circuit, bindings: Mapping[str, float], mixed: bool,
          noise: NoiseModel | None):
    """(each kind with its (m, slots) angles, and per block (block,
    factors, prefixes)), factors[k] the action of the block's gates[k] and
    prefixes[k] = factors[k] ... factors[0], so prefixes[-1] is its S."""
    blocks, fixed, kinds = _compile(circuit.n_qubits, circuit.gates, mixed,
                                    noise)
    names = circuit.parameter_names
    missing = [name for name in names if name not in bindings]
    if missing:
        raise ValueError(f"unbound parameters: {missing}")
    values = np.array([bindings[name] for name in names] + [1.0])
    angles = [scale * values[index] for *_, index, scale in kinds]
    factors = list(fixed)
    for (kind, axes, positions, _, _), a in zip(kinds, angles):
        for p, u in zip(positions.tolist(), gate_stack(kind, a, axes)):
            factors[p] = u
    fused = []
    for block in blocks:
        own = factors[block.positions.start:block.positions.stop]
        if mixed:
            own = [f if fixed[p] is not None else
                   _transfer(g, f, block.qubits, noise)
                   for g, p, f in zip(block.gates, block.positions, own)]
        fused.append((block, own, own if len(own) == 1 else list(
            itertools.accumulate(own, lambda s, t: t @ s))))
    return list(zip(kinds, angles)), fused


def _act(tensor: np.ndarray, s: np.ndarray, block: _Block,
         kept: dict | None = None) -> np.ndarray:
    """`s` on the block's qubits, in place through the gather index on a
    pure state; `kept` stores the entering tensor's `_flatten` matrix."""
    if block.idx is None:
        if kept is not None:
            kept[block.positions.start] = _flatten(tensor, block.qubits)[0]
        return _apply_unitary(tensor, s, block.qubits)
    flat = tensor.reshape(-1)
    rows = flat[block.idx]
    if kept is not None:
        kept[block.positions.start] = rows
    flat[block.idx] = s @ rows
    return tensor


def apply_gate(state: QuantumState, gate: Gate,
               bindings: Mapping[str, float] | None = None,
               noise: NoiseModel | None = None) -> QuantumState:
    """Unitary action followed, on the mixed backend, by one depolarizing
    channel per touched qubit (p1 for one-qubit gates, p2 per qubit of a
    two-qubit gate); the gate is a block of one."""
    _, ((block, _, (s,)),) = _fuse(Circuit(state.n_qubits, (gate,)),
                                   bindings or {}, state.kind == "mixed",
                                   noise)
    return QuantumState(state.n_qubits, state.kind,
                        _act(state.tensor.copy(), s, block))


def run(circuit: Circuit, bindings: Mapping[str, float] | None = None,
        noise: NoiseModel | None = None,
        mixed: bool | None = None) -> QuantumState:
    """Execute from |0...0>; the backend follows the noise setting unless
    forced with `mixed`, and noise on the pure backend raises ValueError."""
    if mixed is None:
        mixed = noise is not None
    _, fused = _fuse(circuit, circuit.resolved_bindings(bindings), mixed,
                     noise)
    state = QuantumState.zero(circuit.n_qubits, mixed=mixed)
    for block, _, prefixes in fused:
        state.tensor = _act(state.tensor, prefixes[-1], block)
    return state


def adjoint_gradient(circuit: Circuit, observable: PauliSum,
                     bindings: Mapping[str, float] | None = None,
                     noise: NoiseModel | None = None
                     ) -> tuple[QuantumState, np.ndarray]:
    """The final state (the one `run` returns) and the exact
    d<O>/d(parameter) in `circuit.parameter_names` order, from one forward
    and one reverse sweep over the blocks of `_fuse` (Jones & Gacon,
    arXiv:2009.02823).

    Lambda runs back through each block's S^dag from O psi (the cached
    `expectation_matrix`) on a pure state and from tr(P O) / 2^n
    (`pauli_tensor`) on a density matrix.  A block adds w Re sum(dS * M),
    M the overlap of lambda after it and the tensor entering it over its
    axes, dS the derivative of its S, w = 2 for a pure state (psi enters
    <O> twice), 1 for a density matrix; on a pure state, one contraction
    and one scatter-add per gate kind.
    """
    n, mixed = circuit.n_qubits, noise is not None
    resolved = circuit.resolved_bindings(bindings)
    kinds, fused = _fuse(circuit, resolved, mixed, noise)
    grad = np.zeros(circuit.n_params + 1)  # the last for numeric slots
    tensor = QuantumState.zero(n, mixed=mixed).tensor
    entering, leaving = {}, {}
    for block, _, prefixes in fused:
        tensor = _act(tensor, prefixes[-1], block,
                      entering if block.tuned else None)
    lam = pauli_tensor(observable).real if mixed else (expectation_matrix(
        observable) @ tensor.reshape(-1)).reshape(tensor.shape)
    for block, factors, prefixes in reversed(fused):
        lam = _act(lam, prefixes[-1].conj().T, block,
                   leaving if block.tuned else None)
        if block.tuned and mixed:
            # M[i, j] = sum over the other axes of conj(lam[i]) entering[j]
            p = block.positions.start
            overlap = leaving.pop(p).conj() @ entering.pop(p).T
            # dS of gate j: T_m ... dT_j ... T_1, dT_j = D (dU o U* + U o
            # dU*), whose two terms have the same real transfer matrix
            gates, after = block.gates, None
            for j in range(len(gates) - 1, -1, -1):
                u = gate_matrix(gates[j], resolved)
                for name, du in gate_derivatives(gates[j], resolved):
                    d_s = 2.0 * _transfer(gates[j], du, block.qubits, noise,
                                          right=u)
                    d_s = d_s @ prefixes[j - 1] if j else d_s
                    d_s = d_s if after is None else after @ d_s
                    grad[circuit.parameter_names.index(name)] += np.sum(
                        d_s * overlap).real
                after = factors[j] if after is None else after @ factors[j]
    for (kind, axes, positions, index, scale), a in [] if mixed else kinds:
        positions = positions.tolist()  # M as above, one per gate
        m = np.conj([leaving[p] for p in positions]) @ np.array(
            [entering[p] for p in positions]).transpose(0, 2, 1)
        du = np.array([gate_stack(kind, a, axes, slot)
                       for slot in range(a.shape[1])])
        terms = (scale.T[:, :, None, None] * du * m).reshape(
            *a.shape[::-1], -1).sum(-1).real
        grad += 2.0 * np.bincount(index.T.ravel(), terms.ravel(),
                                  minlength=len(grad))
    return QuantumState(n, "mixed" if mixed else "pure", tensor), grad[:-1]
