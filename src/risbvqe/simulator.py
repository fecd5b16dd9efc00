"""Exact circuit execution on small registers.

Two backends share one gate set and one engine: pure state vectors
(noiseless) and density matrices (with optional per-gate depolarizing
noise), held as their real Pauli coefficients x_P = tr(P rho) (the
Pauli-transfer-matrix basis, Greenbaum, arXiv:1509.02921).  Qubit 0 is
axis 0 and the most significant bit of the flattened index.  `_compile`
turns a circuit's structure into blocks once per circuit and noise model,
held in `Circuit.compiled`, `_fuse` fills in the angles of a call's
bindings with one `gate_stack` (pure: `real_stack`) per gate kind, and
`run`, `apply_gate`, `adjoint_gradient` and `displaced_energies` walk
those blocks.  A pure block is one gate but a fixed 0/1 permutation
(CNOT, X), which the gathers compose: its rows of the real planes (Re
psi, Im psi) come straight from the previous block's output, never
scattered back, and take one matmul by [[Re U, -Im U], [Im U, Re U]]
(`_Chain`).  On a density matrix a gate and its channels form one real
4x4 or 16x16 transfer matrix, built per kind in the gates' own frame
(`_ptm`) and placed into its block (`_local`), and each maximal run of
consecutive gates inside one qubit pair is one block, the product in gate
order (exact; gate fusion as in qsim and Qiskit Aer).  Its factored
start: from n one-qubit factors, the compiled `_plan` runs the leading
blocks whose factors do not yet span the register on them (a block that
joins two merges them by one outer product), and the register tensor is
formed once, in qubit order, at the first block that would join them all
(mrep's first fSim, after its two preparations), or at the end.
The half register is the density matrix's too: if every gate from there
on keeps the parity of the number of X/Y factors of each Pauli word (FSIM,
RZ, X and RPQ on XX, XY, YX, YY or ZZ; checked once, by kind, in `_plan`)
and every factor's odd words are exactly zero at the join (checked each
run), the register holds only its even words, 4^n/2 of them, with qubit
n-1 on two levels (`_halve`), and every register pass runs on them; it is
made whole only where a `QuantumState` leaves the simulator.  Otherwise
the same passes take the whole register.  The adjoint gradient's reverse
sweep runs on the register `run` holds and ends, on both backends, in one
stacked contraction and one scatter-add per kind.  On a density matrix
that sweep (`_environments`) is checkpointed: the forward pass keeps the
state entering every few register blocks, and going back each block's
entering state is recomputed from the checkpoint before it, bit for bit,
so it holds a few registers, not one per block.  It gives each tuned
gate's environment, against which `adjoint_gradient` contracts derivative
transfer matrices and `displaced_energies` transfer matrices at moved
angles: <O> is linear in each of them, so one sweep gives Nelder-Mead's
whole starting simplex.  An `Observable` is a dense Hermitian matrix, in
practice `ed`'s Fock-space matrix of a cluster Hamiltonian; a density
matrix reads it through its Pauli coefficients.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from . import check_adjoint
from .circuits import _PAULI, Circuit, Gate, gate_stack, real_stack


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
    def from_density(cls, rho) -> "QuantumState":
        rho = np.asarray(rho, dtype=complex)
        n = rho.shape[0].bit_length() - 1
        if rho.shape[0] < 1 or rho.shape != (1 << n, 1 << n):
            raise ValueError("density matrix must be square power-of-two")
        check_adjoint(rho, rho, "density matrix not Hermitian")
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


class Observable:
    """A Hermitian observable on n qubits: its dense 2^n x 2^n matrix,
    read-only, which a pure state multiplies, and its real Pauli
    coefficients o_P = tr(P O) / 2^n on a (4,)*n grid in I, X, Y, Z order
    (O = sum_P o_P P), built once on first use, which a density matrix
    reads.  The matrix is shared with the caller, not copied."""

    __slots__ = ("n_qubits", "matrix", "_coefficients")

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=complex).view()
        n = len(matrix).bit_length() - 1 if matrix.ndim == 2 else -1
        if n < 0 or matrix.shape != (1 << n, 1 << n):
            raise ValueError(f"observable of shape {matrix.shape} is not a "
                             f"square power-of-two matrix")
        check_adjoint(matrix, matrix, "observable is not Hermitian")
        matrix.flags.writeable = False
        self.n_qubits, self.matrix, self._coefficients = n, matrix, None

    @property
    def coefficients(self) -> np.ndarray:
        if self._coefficients is None:
            self._coefficients = (_pauli_coefficients(self.matrix).real
                                  / 2 ** self.n_qubits)
            self._coefficients.flags.writeable = False
        return self._coefficients


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
    """`u` on `axes` of a Pauli tensor, whole or half (`_halve`).  On
    adjacent axes in order it is viewed as (before, block, after) and takes
    one batched matmul with no transpose, or one GEMM if `after` is 1 or a
    half register's last 2 levels (u o 1 then).  Otherwise `axes` are
    brought to the front, contracted with one matmul and moved back.  On a
    half register's last qubit it is `_last_pair`."""
    last = tensor.ndim - 1
    if tensor.shape[last] == 2 and last in axes:
        return _last_pair(tensor, u, axes)
    first = axes[0]
    if tensor.shape[0] == 4 and axes == tuple(range(first, first + len(axes))):
        x = tensor.reshape(4 ** first, len(u), -1)
        if x.shape[2] > 2:
            return np.matmul(u, x).reshape(tensor.shape)
        t = u if x.shape[2] == 1 else _kron(u, np.eye(2))
        return (x.reshape(len(x), -1) @ t.T).reshape(tensor.shape)
    flat, perm = _flatten(tensor, axes)
    return (u @ flat).reshape(tensor.shape).transpose(np.argsort(perm))


# Whether each one-qubit Pauli level I, X, Y, Z is odd (X or Y).
_ODD = np.array([0, 1, 1, 0])


@functools.lru_cache(maxsize=None)
def _odd_words(m: int) -> np.ndarray:
    """Per m-qubit Pauli word in flat order, 1 if it has an odd number of
    X/Y factors, else 0.  Read-only."""
    odd = np.zeros(1, dtype=np.intp)
    for _ in range(m):
        odd = (odd[:, None] ^ _ODD).ravel()
    odd.setflags(write=False)
    return odd


@functools.lru_cache(maxsize=None)
def _even_words(n: int) -> np.ndarray:
    """Flat indices, in increasing order, of the n-qubit Pauli words with an
    even number of X/Y factors: per word of qubits 0..n-2, qubit n-1's two
    levels of its parity, I and Z after an even word, X and Y after an odd
    one.  Read-only."""
    odd = _odd_words(n - 1)
    words = (4 * np.arange(odd.size)[:, None]
             + np.array([[0, 3], [1, 2]])[odd]).ravel()
    words.setflags(write=False)
    return words


def _halve(tensor: np.ndarray) -> np.ndarray:
    """The half layout of a Pauli tensor, 4 levels on every axis: its even
    words, shape (..., 2) with qubit n-1's levels of the parity of the
    rest.  Fermion parity Z...Z is a symmetry of the Jordan-Wigner encoded
    states, so their odd words vanish (parity superselection, Bravyi &
    Kitaev, arXiv:quant-ph/0003137)."""
    words = _even_words(tensor.ndim)
    return tensor.reshape(-1).take(words).reshape(tensor.shape[:-1] + (2,))


def _is_half(tensor: np.ndarray) -> bool:
    return tensor.shape[0] != tensor.shape[-1]  # (4,)*(n-1) + (2,)


def _whole(tensor: np.ndarray) -> np.ndarray:
    """The (4,)*n register of a half one, its odd words zero; any other
    tensor as it is."""
    if not _is_half(tensor):
        return tensor
    out = np.zeros(4 ** tensor.ndim)
    out[_even_words(tensor.ndim)] = tensor.reshape(-1)
    return out.reshape((4,) * tensor.ndim)


def _is_even(tensor: np.ndarray) -> bool:
    """Whether every odd word of a Pauli tensor is exactly zero."""
    return np.count_nonzero(_halve(tensor)) == np.count_nonzero(tensor)


# s.T[_PAIR] = [B_0^T | B_1^T]: B_r = s[w_r][:, w_r], with w_0 and w_1 the
# even and the odd two-qubit words in increasing order, which are a half
# register's 8 pair entries after an even and an odd rest.
_PAIR_WORDS = np.argsort((_ODD[:, None] ^ _ODD).ravel(),
                         kind="stable").reshape(2, 8)
_PAIR = (np.repeat(_PAIR_WORDS.T, 8, axis=1),
         np.tile(_PAIR_WORDS.ravel(), (8, 1)))


def _last_pair(tensor: np.ndarray, s: np.ndarray,
               axes: tuple[int, ...]) -> np.ndarray:
    """`s` on `axes` of a half register, `axes` holding its last qubit: as a
    transfer matrix on the pair (a, n-1), with a the other qubit (n-2 if
    none), moved next to the end.  Each word of the other qubits keeps 8
    pair entries, which s's block of their parity maps; one GEMM against
    both blocks side by side and one take of each row's half apply it."""
    n = tensor.ndim
    a = sum(axes) - (n - 1) if len(axes) == 2 else n - 2
    perm = [*range(a), *range(a + 1, n - 1), a, n - 1]
    x = tensor.transpose(perm).reshape(-1, 8)
    rows = 2 * np.arange(len(x)) + _odd_words(n - 2)
    out = (x @ _local(s, axes, (a, n - 1)).T[_PAIR]).reshape(-1, 8)
    return out.take(rows, axis=0).reshape(tensor.shape).transpose(
        np.argsort(perm))


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


class _Step(NamedTuple):
    """A leading block on the factors: the factor at `merge` (if any) joins
    the one at `slot` by an outer product, then the block acts on `axes`."""
    slot: int
    merge: int | None
    axes: tuple[int, ...]
    frame: tuple | None     # a tuned block's entering factors, for `_join`


# |0><0| on one qubit as its I, X, Y, Z coefficients.
_ZERO = np.array([1.0, 0.0, 0.0, 1.0])


def _frame(factors: dict, live: set, n: int) -> tuple:
    """How `_join` reads the Pauli factors (slot: its qubits in axis
    order): per factor in `live`, its transpose to qubit order and
    register-shaped view; the others are still one-qubit |0>, kept as one
    read-only register-shaped product."""
    views, rest = [], np.ones((1,) * n)
    for slot, qubits in factors.items():
        shape = tuple(4 if q in qubits else 1 for q in range(n))
        if slot in live:
            views.append((slot, tuple(np.argsort(qubits)), shape))
        else:
            rest = rest * _ZERO.reshape(shape)
    return tuple(views), rest


def _join(parts: list, frame: tuple) -> np.ndarray:
    """The register tensor from its factors, a new C-contiguous array, axes
    in qubit order."""
    views, rest = frame
    out = rest
    for slot, perm, shape in views:
        out = np.multiply(out, parts[slot].transpose(perm).reshape(shape),
                          order="C")
    return out.copy() if out is rest else out


def _half_frame(factors: dict, n: int) -> tuple:
    """How `_join_half` reads the factors (slot: its qubits in axis order):
    their slots, and the half-register position of each product of their
    even words, in np.multiply.outer order over the slots."""
    at = np.zeros(1, dtype=np.intp)
    for qubits in factors.values():
        k = len(qubits)
        digits = _even_words(k)[:, None] // 4 ** np.arange(k - 1, -1, -1) % 4
        at = (at[:, None] + digits @ 4 ** (n - 1 - np.array(qubits))).ravel()
    return tuple(factors), np.searchsorted(_even_words(n), at)


def _join_half(parts: list, frame: tuple) -> np.ndarray:
    """The half register (`_halve`) of even factors: the outer product of
    their even words, written to its positions; the odd words of the
    factors, and so of the register, are zero."""
    slots, at = frame
    n = len(parts)
    out = np.zeros(2 * 4 ** (n - 1))
    out[at] = functools.reduce(np.multiply.outer,
                               [_halve(parts[slot]) for slot in slots]).ravel()
    return out.reshape((4,) * (n - 1) + (2,))


def _keeps_parity(gate: Gate) -> bool:
    """Whether the gate's transfer matrix keeps the parity of the number of
    X/Y factors of each Pauli word: U Z...Z U^dag = +-Z...Z."""
    if gate.kind == "RPQ":
        return (gate.axes[0] == "Z") == (gate.axes[1] == "Z")
    return gate.kind in ("FSIM", "RZ", "X")


def _plan(blocks, n: int):
    """(steps, frame, half) on Pauli factors: the leading blocks whose
    factors do not yet span the register, each a `_Step`, from n one-qubit
    factors, the factors' frame at the first block that would join them
    all, and, if every later gate keeps parity (`_keeps_parity`), their
    `_half_frame`, by which a register joined from even factors is formed
    and run in the half layout; else None."""
    factors, owner = {q: (q,) for q in range(n)}, list(range(n))
    steps, live = [], set()  # live: the factors a step acted on
    for block in blocks:
        slot, merge = owner[block.qubits[0]], owner[block.qubits[-1]]
        merge = None if merge == slot else merge
        qubits = factors[slot] + (factors[merge] if merge is not None else ())
        if len(qubits) == n:
            break
        if merge is not None:
            del factors[merge]
            live.discard(merge)
            for q in qubits:
                owner[q] = slot
        factors[slot] = qubits
        live.add(slot)
        steps.append(_Step(slot, merge, tuple(map(qubits.index, block.qubits)),
                           _frame(factors, live, n) if block.tuned else None))
    parity = n > 1 and all(_keeps_parity(g) for block in blocks[len(steps):]
                           for g in block.gates)
    return tuple(steps), _frame(factors, live, n), (
        _half_frame(factors, n) if parity else None)


class _Block(NamedTuple):
    qubits: tuple[int, ...]
    gates: tuple[Gate, ...]
    positions: range         # of its gates in the circuit
    tuned: tuple[int, ...]   # offsets of its gates with a named slot


class _Chain(NamedTuple):
    """A pure circuit's gathers on its real planes, each taking a block's
    output S @ rows, raveled, to the next one's rows (`_flatten`'s matrix
    over the plane and its qubits), with the amplitudes in qubit order, a
    complex array's floats, at either end; equal arrays are one."""
    forward: tuple     # from qubit order through every block back to it
    backward: tuple    # from qubit order to the last block, back to the first
    keys: tuple        # each block's position if it has a named slot
    start: np.ndarray  # |0...0>


def _chain(blocks, fixed: tuple, n: int) -> tuple[list, _Chain]:
    """(the blocks but those of a fixed 0/1 permutation s, CNOT or X, their
    chain): s @ x = x[order] reorders `where`, the place of each real
    amplitude in the array at hand, so the next gather composes it."""
    planes = np.arange(2 ** (n + 1)).reshape((2,) * (n + 1))
    end = planes.reshape(2, -1).T.copy()
    where, forward, steps, unique = np.argsort(end.ravel()), [], [], {}
    for block, s in zip(blocks, fixed):
        rows = _flatten(planes, (0, *(q + 1 for q in block.qubits)))[0]
        if s is not None and np.isin(s, (0, 1)).all():
            where[rows] = where[rows[s.argmax(axis=1)]]
        else:
            forward.append(where[rows])
            where = np.argsort(rows.ravel())
            steps.append(block)
    forward.append(where[end])
    backward = [np.argsort(b.ravel()).reshape(a.shape)  # inverses
                for a, b in zip(forward[-2::-1], forward[:0:-1])]
    forward, backward = ([unique.setdefault((g.shape, g.tobytes()), g)
                          for g in gathers] for gathers in (forward, backward))
    return steps, _Chain(tuple(forward), tuple(backward), tuple(
        b.positions.start if b.tuned else None for b in steps),
        np.eye(1, 2 ** (n + 1)))


def _compile(circuit: Circuit, mixed: bool, noise: NoiseModel | None):
    """The angle-free part of `_fuse`, which `_fuse` keeps in
    `circuit.compiled` per (backend, noise): (blocks, each gate's factor if
    it has no named slot, kinds, `_plan` or a pure `_Chain`), its arrays
    read-only.  A kind (kind, axes, positions, name index, scale) gathers
    the gates with named slots, with (m, slots) tables; a numeric slot has
    index len(names) and its angle as scale."""
    if noise is not None and not mixed:
        raise ValueError("noise requires the density-matrix backend")
    n, gates = circuit.n_qubits, circuit.gates
    blocks, where = [], []
    for qubits, members in (_runs(gates) if mixed else
                            [(g.qubits, [g]) for g in gates]):
        blocks.append(_Block(qubits, tuple(members), range(
            len(where), len(where) + len(members)),
            tuple(j for j, g in enumerate(members) if g.param_names())))
        where += [qubits] * len(members)

    def factor(gate, block_qubits):  # a batch of one
        u = (gate_stack if mixed else real_stack)(gate.kind, [gate.params],
                                                  gate.axes)
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
    blocks, plan = ((blocks, _plan(blocks, n)) if mixed else
                    _chain(blocks, fixed, n))
    arrays = [f[1] for f in (*plan[1:], *(s.frame for s in plan[0]))
              if f is not None] if mixed else [*plan.forward, *plan.backward,
                                               plan.start]
    for array in [*arrays, *(f for f in fixed if f is not None),
                  *(a for k in kinds for a in k[2:])]:
        array.setflags(write=False)
    return tuple(blocks), fixed, tuple(kinds), plan


def _fuse(circuit: Circuit, bindings: Mapping[str, float] | None,
          mixed: bool, noise: NoiseModel | None):
    """(each kind with its (m, slots) angles, each pure block's real form
    or per block (block, factors, prefixes), plan), factors[k] the action
    of the block's gates[k] and prefixes[k] = factors[k] ... factors[0]."""
    key = mixed, noise
    if key not in circuit.compiled:
        circuit.compiled[key] = _compile(circuit, mixed, noise)
    blocks, fixed, kinds, plan = circuit.compiled[key]
    names, bindings = circuit.parameter_names, bindings or {}
    missing = [name for name in names if name not in bindings]
    if missing:
        raise ValueError(f"unbound parameters: {missing}")
    values = np.array([bindings[name] for name in names] + [1.0])
    angles = [scale * values[index] for *_, index, scale in kinds]
    factors = list(fixed)
    for (kind, axes, positions, _, _), a in zip(kinds, angles):
        u = (gate_stack if mixed else real_stack)(kind, a, axes)
        for p, f in zip(positions.tolist(), _ptm(u, u, noise) if mixed
                        else u):
            factors[p] = f
    if not mixed:
        return list(zip(kinds, angles)), [factors[b.positions.start]
                                          for b in blocks], plan
    fused = []
    for block in blocks:
        own = factors[block.positions.start:block.positions.stop]
        for j in block.tuned:
            own[j] = _local(own[j], block.gates[j].qubits, block.qubits)
        fused.append((block, own, own if len(own) == 1 else list(
            itertools.accumulate(own, lambda s, t: t @ s))))
    return list(zip(kinds, angles)), fused, plan


def _rows(tensor: np.ndarray, axes: tuple[int, ...],
          whole: bool) -> np.ndarray:
    """`_flatten`'s matrix of a Pauli tensor over `axes`, a half register's
    through `_whole` if `whole` or `axes` hold its last qubit."""
    if _is_half(tensor) and (whole or tensor.ndim - 1 in axes):
        tensor = _whole(tensor)
    return _flatten(tensor, axes)[0]


def _walk(x: np.ndarray, gathers: tuple, matrices: list,
          kept: dict | None = None, keys=()) -> np.ndarray:
    """The last rows along a `_Chain` from `x`: per gather a block's rows,
    kept[key] if it has a key, then its matrix on them if one is left."""
    for gather, s, key in itertools.zip_longest(gathers, matrices, keys):
        x = x.ravel()[gather]
        if key is not None:
            kept[key] = x
        if s is not None:
            x = s.dot(x)
    return x


def _prepare(parts: list, plan: tuple, k: int):
    """The Pauli state block k acts on, from the factors block k - 1 left:
    during the plan's steps the factors, step k's merge made; from the
    first register block on the register, in the half layout if the plan's
    parity rule holds and every factor at the join is even."""
    steps, frame, half_frame = plan
    if k == len(steps):
        if half_frame and all(_is_even(parts[slot])
                              for slot in half_frame[0]):
            return _join_half(parts, half_frame)
        return _join(parts, frame)
    step = steps[k]
    if step.merge is not None:
        parts = list(parts)
        parts[step.slot] = np.multiply.outer(parts[step.slot],
                                             parts[step.merge])
        parts[step.merge] = None
    return parts


def _advance(state, k: int, fused: list, plan: tuple):
    """The state block k + 1 acts on, from the one block k acts on (a new
    list or array; neither is changed in place)."""
    steps, prefixes = plan[0], fused[k][2]
    if k >= len(steps):
        return _apply_unitary(state, prefixes[-1], fused[k][0].qubits)
    parts, step = list(state), steps[k]
    parts[step.slot] = _apply_unitary(parts[step.slot], prefixes[-1],
                                      step.axes)
    return _prepare(parts, plan, k + 1)


def _forward(n: int, fused: list, plan: tuple, kept: dict | None = None,
             marks=()) -> np.ndarray:
    """The final tensor of the plan's steps on n one-qubit Pauli factors,
    then of the other blocks on the register (`_prepare`), kept[k] the
    state entering each block k in `marks`; a pure state's `_Chain` from
    |0...0>, kept[key] a block's rows for each key in `marks`, in order."""
    if isinstance(plan, _Chain):
        return _walk(plan.start, plan.forward, fused, kept,
                     marks).view(complex).reshape((2,) * n)
    state = _prepare(list(np.tile(_ZERO, (n, 1))), plan, 0)
    for k in range(len(fused)):
        if k in marks:
            kept[k] = state
        state = _advance(state, k, fused, plan)
    return state


def _entering(kept: dict, k: int, fused: list, plan: tuple):
    """The state entering block k, recomputed from the last checkpoint
    in `kept` at or before it; a step's is its factors joined."""
    first = max(c for c in kept if c <= k)
    state = kept[first]
    for i in range(first, k):
        state = _advance(state, i, fused, plan)
    steps = plan[0]
    return _join(state, steps[k].frame) if k < len(steps) else state


def _environments(n: int, fused: list, plan: tuple, observable: Observable,
                  final: bool) -> tuple[float, np.ndarray | None, dict]:
    """(<O>, the final register as the plan holds it if `final`, else None,
    framed): per gate position p with a named slot, its environment in its
    own frame, the matrix with <O> = sum(T_p * framed[p]) for T_p its noisy
    transfer matrix (`_ptm`), so linear in T_p with every other gate fixed.

    Lambda runs back through each block's S^dag from o_P = tr(P O) / 2^n.
    M, the overlap of lambda after a block and the tensor entering it over
    its axes, gives <O> = sum(S * M), and a gate's share is after^T M
    prefix^T for the block's gates after and before it, mapped back through
    `_local`.  The first block's S^dag is not applied: no lambda before it
    is read.  Of the states entering the blocks, the forward pass keeps
    the first (the factors) and every s-th register, s = isqrt(2R) for R
    register blocks, and the reverse sweep recomputes each tuned block's
    from the checkpoint before it (`_entering`) with the same arithmetic:
    the overlaps are those of keeping every entering tensor, while about
    R/s registers are held, not R, for about (s - 1)/2 more forward
    passes.

    A register held in the half layout takes the reverse sweep in it too
    when the observable's odd coefficients vanish: lambda then stays even
    through the register phase, and is made whole at the join for the
    leading steps (whose transfer matrices may be odd there).  On the half
    layout the overlaps are right on their parity-diagonal blocks, the only
    ones the transfer matrices of parity-keeping gates read.  Otherwise the
    entering tensors are read whole and the reverse sweep takes the whole
    register."""
    steps = plan[0]
    span = max(1, math.isqrt(2 * (len(fused) - len(steps))))
    marks = {0, *range(len(steps) + span, len(fused), span)}
    whole, kept = not _is_even(observable.coefficients), {}
    state = _forward(n, fused, plan, kept, marks)
    energy, lam = _observe(_whole(state), observable, True)
    if _is_half(state) and not whole:
        lam = _halve(lam)
    state, framed = state if final else None, {}
    for k in range(len(fused) - 1, -1, -1):
        block, factors, prefixes = fused[k]
        if k + 1 == len(steps):
            lam = _whole(lam)
        if block.tuned:
            # M, then after^T M as j passes each gate
            right = _rows(_entering(kept, k, fused, plan), block.qubits, whole)
            overlap = _rows(lam, block.qubits, whole) @ right.T
            del right  # before the next register pass
            p = block.positions.start
            for j in range(len(factors) - 1, block.tuned[0] - 1, -1):
                if j in block.tuned:
                    framed[p + j] = _local(
                        overlap @ prefixes[j - 1].T if j else overlap,
                        block.gates[j].qubits, block.qubits, adjoint=True)
                if j > block.tuned[0]:
                    overlap = factors[j].T @ overlap
        if k:
            lam = _apply_unitary(lam, prefixes[-1].T, block.qubits)
        kept.pop(k, None)
    return energy.real, state, framed


def _observe(tensor: np.ndarray, observable: Observable,
             mixed: bool) -> tuple[complex, np.ndarray]:
    """(<O>, lambda): sum_P x_P o_P, by numpy's pairwise sum so that no
    BLAS thread split reorders it, and the coefficients o_P on a density
    matrix, <psi|O psi> and O psi on a pure state; `expectation` and the
    adjoint sweep share it, so their <O> agree bit for bit."""
    if observable.n_qubits != tensor.ndim:
        raise ValueError(f"observable on {observable.n_qubits} qubits, "
                         f"state on {tensor.ndim}")
    if mixed:
        lam = observable.coefficients
        return complex(np.multiply(lam, tensor).sum()), lam
    psi = tensor.reshape(-1)
    lam = observable.matrix @ psi
    return complex(np.vdot(psi, lam)), lam.reshape(tensor.shape)


def apply_gate(state: QuantumState, gate: Gate,
               bindings: Mapping[str, float] | None = None,
               noise: NoiseModel | None = None) -> QuantumState:
    """Unitary action followed, on the mixed backend, by one depolarizing
    channel per touched qubit (p1 for one-qubit gates, p2 per qubit of a
    two-qubit gate); the gate is a block of one."""
    _, fused, plan = _fuse(_circuit(state.n_qubits, (gate,)), bindings,
                           state.kind == "mixed", noise)
    tensor = _walk(np.ascontiguousarray(state.tensor, complex).view(float),
                   plan.forward, fused).view(complex) if isinstance(
        plan, _Chain) else _apply_unitary(state.tensor, fused[0][2][0],
                                          gate.qubits)
    return QuantumState(state.n_qubits, state.kind,
                        tensor.reshape(state.tensor.shape))


# `apply_gate`'s circuits of one gate, each compiled once.
_circuit = functools.lru_cache(maxsize=256)(Circuit)


def run(circuit: Circuit, bindings: Mapping[str, float] | None = None,
        noise: NoiseModel | None = None,
        mixed: bool | None = None) -> QuantumState:
    """Execute from |0...0>; the backend follows the noise setting unless
    forced with `mixed`, and noise on the pure backend raises ValueError."""
    if mixed is None:
        mixed = noise is not None
    _, fused, plan = _fuse(circuit, bindings, mixed, noise)
    return QuantumState(circuit.n_qubits, "mixed" if mixed else "pure",
                        _whole(_forward(circuit.n_qubits, fused, plan)))


def adjoint_gradient(circuit: Circuit, observable: Observable,
                     bindings: Mapping[str, float] | None = None,
                     noise: NoiseModel | None = None
                     ) -> tuple[QuantumState, float, np.ndarray]:
    """The final state (the one `run` returns), <O> there (`expectation`'s
    value) and the exact d<O>/d(parameter) in `circuit.parameter_names`
    order, from one forward and one reverse sweep over the blocks of
    `_fuse` (Jones & Gacon, arXiv:2009.02823).

    On a density matrix the sweep is `_environments`', whose checkpointed
    forward pass computes `run`'s final state.  On a pure state lambda
    runs back from O psi along the `_Chain` by each block's transpose; a
    gate's environment is L X^T of lambda's and the kept real rows.  Per
    gate kind, sum(scale dT env) over a stack, dT the real forms of dU
    (pure) or the transfer matrices of rho -> D(dU rho U^dag) (density
    matrix), and one scatter-add give the gradient; the weight is 2 on
    both, as psi enters <O> twice and D(dU rho U^dag) and D(U rho dU^dag)
    have the same transfer matrix.
    """
    n, mixed = circuit.n_qubits, noise is not None
    kinds, fused, plan = _fuse(circuit, bindings, mixed, noise)
    grad = np.zeros(circuit.n_params + 1)  # the last for numeric slots
    if mixed:
        energy, final, framed = _environments(n, fused, plan, observable,
                                             True)
        final = _whole(final)
    else:
        entering, leaving = {}, {}
        final = _forward(n, fused, plan, entering, plan.keys)
        energy, lam = _observe(final, observable, False)
        _walk(lam.view(float), plan.backward, [s.T for s in fused[:0:-1]],
              leaving, reversed(plan.keys))
        energy = energy.real
    for (kind, axes, positions, index, scale), a in kinds:
        positions = positions.tolist()  # one environment per gate, stacked
        m = np.array([framed[p] for p in positions]) if mixed else np.array(
            [leaving[p] for p in positions]) @ np.array(
            [entering[p] for p in positions]).transpose(0, 2, 1)
        du = [(gate_stack if mixed else real_stack)(kind, a, axes, slot)
              for slot in range(a.shape[1])]
        if mixed:
            u = gate_stack(kind, a, axes)
            du = [_ptm(d, u, noise) for d in du]
        terms = (scale.T[:, :, None, None] * np.array(du) * m).reshape(
            *a.shape[::-1], -1).sum(-1)
        grad += 2.0 * np.bincount(index.T.ravel(), terms.ravel(),
                                  minlength=len(grad))
    return (QuantumState(n, "mixed" if mixed else "pure", final),
            energy, grad[:-1])


def displaced_energies(circuit: Circuit, observable: Observable,
                       bindings: Mapping[str, float], moved,
                       noise: NoiseModel) -> list[float | None]:
    """<O> of the noisy circuit at `bindings`, then, per parameter k of
    `circuit.parameter_names`, <O> with parameter k alone moved to
    moved[k]: Nelder-Mead's starting simplex from one `_environments`
    sweep.  <O> is linear in each gate's transfer matrix, so each moved
    value is sum(T' * framed[p]) with T' the transfer matrix of the gate
    that holds the parameter at its moved angles, one `gate_stack` and
    `_ptm` stack per gate kind.  A parameter that fills more than one slot
    moves several transfer matrices at once; its entry is None.  The first
    entry is `expectation(run(...))`'s value bit for bit; the others agree
    with it to rounding."""
    kinds, fused, plan = _fuse(circuit, bindings, True, noise)
    energy, _, framed = _environments(circuit.n_qubits, fused, plan,
                                      observable, False)
    slots = collections.Counter(name for gate in circuit.gates
                                for name in gate.param_names())
    # per name index, whether it fills one slot (numeric slots: False)
    once = np.array([slots[name] == 1 for name in circuit.parameter_names]
                    + [False])
    moved = np.asarray(moved, dtype=float)
    energies: list[float | None] = [energy] + [None] * circuit.n_params
    for (kind, axes, positions, index, scale), a in kinds:
        rows, cols = np.nonzero(once[index])  # one per moved parameter
        if not len(rows):
            continue
        params = index[rows, cols]
        a = a[rows]  # a copy: the moved angle replaces its slot's
        a[np.arange(len(rows)), cols] = scale[rows, cols] * moved[params]
        u = gate_stack(kind, a, axes)
        values = (_ptm(u, u, noise) * np.array(
            [framed[p] for p in positions[rows]])).sum(axis=(1, 2))
        for k, value in zip(params.tolist(), values.tolist()):
            energies[1 + k] = value
    return energies
