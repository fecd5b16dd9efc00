"""Exact circuit execution on small registers.

Two backends share one gate set and one engine: pure state vectors
(noiseless) and density matrices (with optional per-gate depolarizing
noise), held as their real Pauli coefficients x_P = tr(P rho) (the
Pauli-transfer-matrix basis, Greenbaum, arXiv:1509.02921).  Qubit 0 is
axis 0 and the most significant bit of the flattened index.  `_compile`
turns a circuit's structure into blocks once per circuit and noise model,
held in `Circuit.compiled`, `_fuse` fills in the angles of a call's
bindings with one `gate_stack` per gate kind, and `run`, `apply_gate` and
`adjoint_gradient` walk those blocks.  A pure block is one gate, applied
in place as flat[idx] = U flat[idx] through a cached gather index.  On a
density matrix a gate and its channels form one real 4x4 or 16x16
transfer matrix, built per kind in the gates' own frame (`_ptm`) and
placed into its block (`_local`), and each maximal run of consecutive
gates inside one qubit pair is one block, the product in gate order
(exact; gate fusion as in qsim and Qiskit Aer).  The adjoint
gradient ends, on both backends, in one stacked contraction and one
scatter-add per gate kind.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .circuits import _PAULI, Circuit, Gate, gate_stack
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


def check_observable(obs: PauliSum, n_qubits: int) -> None:
    """Raise ValueError unless `obs` is a Hermitian observable on
    `n_qubits` qubits."""
    if obs.n_qubits != n_qubits:
        raise ValueError(f"observable on {obs.n_qubits} qubits, state on "
                         f"{n_qubits}")
    if not obs.is_hermitian():
        raise ValueError("observable is not Hermitian")


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


def _local(t: np.ndarray, qubits: tuple[int, ...], block: tuple[int, ...],
           adjoint: bool = False) -> np.ndarray:
    """A gate's transfer matrix on `qubits` written on the block's qubits,
    in order: a reversed pair swaps its two Pauli indices, and a one-qubit
    gate in a pair takes a kron with the identity on the other qubit.  With
    `adjoint`, the map back, sum(_local(t) * m) = sum(t * _local(m, ...,
    adjoint=True)): the same swap, or the trace over the other qubit."""
    if qubits == block:
        return t
    if len(qubits) == 2:
        return t.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16)
    first, eye = qubits[0] == block[0], np.eye(4)
    if adjoint:
        return np.einsum("ikjk->ij" if first else "kikj->ij",
                         t.reshape(4, 4, 4, 4))
    return _kron(t, eye) if first else _kron(eye, t)


# Pauli words on a gate of d = 2, 4 levels as (rows, cols), with
# rows[p, (b, a)] = P_p[a, b] and cols[(c, d), q] = P_q[c, d], so that
# rows (L o R*) cols = [tr(P_p L P_q R^dag)].
_WORDS = {2 ** k: (w.transpose(0, 2, 1).reshape(4 ** k, -1),
                   w.reshape(4 ** k, -1).T.copy())
          for k, w in ((1, _BASIS), (2, np.einsum(
              "aij,bkl->abikjl", _BASIS, _BASIS).reshape(16, 4, 4)))}


def _ptm(left: np.ndarray, right: np.ndarray,
         noise: NoiseModel | None) -> np.ndarray:
    """Pauli transfer matrices of rho -> D(L rho R^dag) for (m, d, d)
    stacks L, R on a gate's own qubits, Re tr(P_p L P_q R^dag) / d over its
    Pauli words, with D the gate's depolarizing channels (p1 for a one-qubit
    gate, p2 on each qubit of a pair), each a row scale (1, f, f, f) with
    f = 1 - 4p/3 on its qubit's Pauli index; R = L = U gives noisy gates."""
    m, d = left.shape[:2]
    rows, cols = _WORDS[d]
    kron = left[:, :, None, :, None] * right.conj()[:, None, :, None, :]
    out = (rows @ kron.reshape(m, d * d, d * d) @ cols).real / d
    if noise is not None:
        p = noise.effective_p1 if d == 2 else noise.effective_p2
        f = np.array([1.0] + [1.0 - 4.0 * p / 3.0] * 3)
        out *= (f if d == 2 else np.multiply.outer(f, f).ravel())[:, None]
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
    tuned: tuple[int, ...]   # offsets of its gates with a named slot


def _compile(circuit: Circuit, mixed: bool, noise: NoiseModel | None):
    """The angle-free part of `_fuse`, which `_fuse` keeps in
    `circuit.compiled` per (backend, noise): (blocks, each gate's factor if
    it has no named slot, kinds), its arrays read-only.  A kind (kind, axes,
    positions, name index, scale) gathers the gates with named slots, with
    (m, slots) tables; a numeric slot has index len(names) and its angle as
    scale."""
    if noise is not None and not mixed:
        raise ValueError("noise requires the density-matrix backend")
    n, gates = circuit.n_qubits, circuit.gates
    blocks, where, index = [], [], {}  # one gather index per qubit tuple
    for qubits, members in (_runs(gates) if mixed else
                            [(g.qubits, [g]) for g in gates]):
        if not mixed and qubits not in index:
            index[qubits] = _flatten(np.arange(
                2 ** n, dtype=np.intp).reshape((2,) * n), qubits)[0]
        blocks.append(_Block(qubits, tuple(members), range(
            len(where), len(where) + len(members)), index.get(qubits),
            tuple(j for j, g in enumerate(members) if g.param_names())))
        where += [qubits] * len(members)

    def factor(gate, block_qubits):  # a batch of one
        u = gate_stack(gate.kind, [gate.params], gate.axes)
        return (_local(_ptm(u, u, noise)[0], gate.qubits, block_qubits)
                if mixed else u[0].copy())

    fixed = tuple(None if g.param_names() else factor(g, q)
                  for g, q in zip(gates, where))
    groups: dict[tuple, list[int]] = {}
    for p, g in enumerate(gates):
        if g.param_names():
            groups.setdefault((g.kind, g.axes), []).append(p)
    names = {name: i for i, name in enumerate(circuit.parameter_names)}
    kinds = [(kind, axes, np.array(ps), np.array(
        [[names.get(getattr(s, "name", None), len(names))
          for s in gates[p].params] for p in ps]), np.array(
        [[getattr(s, "scale", s) for s in gates[p].params] for p in ps],
        dtype=float)) for (kind, axes), ps in groups.items()]
    for array in [*index.values(), *(f for f in fixed if f is not None),
                  *(a for k in kinds for a in k[2:])]:
        array.setflags(write=False)
    return tuple(blocks), fixed, tuple(kinds)


def _fuse(circuit: Circuit, bindings: Mapping[str, float] | None,
          mixed: bool, noise: NoiseModel | None):
    """(each kind with its (m, slots) angles, and per block (block,
    factors, prefixes)), factors[k] the action of the block's gates[k] and
    prefixes[k] = factors[k] ... factors[0], so prefixes[-1] is its S."""
    key = mixed, noise
    if key not in circuit.compiled:
        circuit.compiled[key] = _compile(circuit, mixed, noise)
    blocks, fixed, kinds = circuit.compiled[key]
    names, bindings = circuit.parameter_names, bindings or {}
    missing = [name for name in names if name not in bindings]
    if missing:
        raise ValueError(f"unbound parameters: {missing}")
    values = np.array([bindings[name] for name in names] + [1.0])
    angles = [scale * values[index] for *_, index, scale in kinds]
    factors = list(fixed)
    for (kind, axes, positions, _, _), a in zip(kinds, angles):
        u = gate_stack(kind, a, axes)
        for p, f in zip(positions.tolist(), _ptm(u, u, noise) if mixed
                        else u):
            factors[p] = f
    fused = []
    for block in blocks:
        own = factors[block.positions.start:block.positions.stop]
        for j in block.tuned if mixed else ():
            own[j] = _local(own[j], block.gates[j].qubits, block.qubits)
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
                                   bindings, state.kind == "mixed", noise)
    return QuantumState(state.n_qubits, state.kind,
                        _act(state.tensor.copy(), s, block))


def run(circuit: Circuit, bindings: Mapping[str, float] | None = None,
        noise: NoiseModel | None = None,
        mixed: bool | None = None) -> QuantumState:
    """Execute from |0...0>; the backend follows the noise setting unless
    forced with `mixed`, and noise on the pure backend raises ValueError."""
    if mixed is None:
        mixed = noise is not None
    _, fused = _fuse(circuit, bindings, mixed, noise)
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
    (`pauli_tensor`) on a density matrix.  M, the overlap of lambda after
    a block and the tensor entering it over its axes, gives <O> =
    sum(S * M).  Each gate with a named slot takes its share in its own
    frame: after^T M prefix^T for the block's gates after and before it,
    mapped back through `_local`.  Per gate kind, one stacked contraction
    with the derivatives dU (pure) or the transfer matrices of
    rho -> D(dU rho U^dag) (density matrix) and one scatter-add give
    the gradient; the weight is 2 on both, as psi enters <O> twice and
    D(dU rho U^dag) and D(U rho dU^dag) have the same transfer matrix.
    """
    n, mixed = circuit.n_qubits, noise is not None
    check_observable(observable, n)
    kinds, fused = _fuse(circuit, bindings, mixed, noise)
    grad = np.zeros(circuit.n_params + 1)  # the last for numeric slots
    tensor = QuantumState.zero(n, mixed=mixed).tensor
    entering, leaving, framed = {}, {}, {}
    for block, _, prefixes in fused:
        tensor = _act(tensor, prefixes[-1], block,
                      entering if block.tuned else None)
    lam = pauli_tensor(observable).real if mixed else (expectation_matrix(
        observable) @ tensor.reshape(-1)).reshape(tensor.shape)
    for block, factors, prefixes in reversed(fused):
        lam = _act(lam, prefixes[-1].conj().T, block,
                   leaving if block.tuned else None)
        if block.tuned and mixed:
            p = block.positions.start
            # M, then after^T M as j passes each gate
            overlap = leaving.pop(p) @ entering.pop(p).T
            for j in range(len(factors) - 1, block.tuned[0] - 1, -1):
                if j in block.tuned:
                    framed[p + j] = _local(
                        overlap @ prefixes[j - 1].T if j else overlap,
                        block.gates[j].qubits, block.qubits, adjoint=True)
                if j > block.tuned[0]:
                    overlap = factors[j].T @ overlap
    for (kind, axes, positions, index, scale), a in kinds:
        positions = positions.tolist()  # one overlap per gate, stacked
        m = np.array([framed[p] for p in positions]) if mixed else np.conj(
            [leaving[p] for p in positions]) @ np.array(
            [entering[p] for p in positions]).transpose(0, 2, 1)
        du = [gate_stack(kind, a, axes, slot) for slot in range(a.shape[1])]
        if mixed:
            u = gate_stack(kind, a, axes)
            du = [_ptm(d, u, noise) for d in du]
        terms = (scale.T[:, :, None, None] * np.array(du) * m).reshape(
            *a.shape[::-1], -1).sum(-1).real
        grad += 2.0 * np.bincount(index.T.ravel(), terms.ravel(),
                                  minlength=len(grad))
    return QuantumState(n, "mixed" if mixed else "pure", tensor), grad[:-1]
