"""Gates, parameterized circuits, and ansatz builders.

A circuit is its gates: it holds no angles, and every run takes them as a
bindings mapping.  Qubit 0 is the leftmost (most significant) tensor
factor, matching `pauli`.  Two-qubit gate matrices are indexed by
``|q_first q_second>`` in the order the qubits are listed on the gate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

VALID_KINDS = {"RX", "RY", "RZ", "X", "H", "CNOT", "FSIM", "RPQ"}
_N_PARAMS = {"RX": 1, "RY": 1, "RZ": 1, "X": 0, "H": 0, "CNOT": 0,
             "FSIM": 2, "RPQ": 1}
_AXIS_PAIRS = tuple((a, b) for a in "XYZ" for b in "XYZ")  # RPQ's P o Q

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class ParamRef:
    """Named parameter slot; resolves to ``scale * bindings[name]``."""
    name: str
    scale: float = 1.0

    def scaled(self, factor: float) -> "ParamRef":
        return ParamRef(self.name, self.scale * factor)

    def __str__(self) -> str:
        return self.name if self.scale == 1.0 else f"{self.name}*{self.scale!r}"


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    params: tuple = ()
    axes: tuple[str, str] | None = None  # RPQ only

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("repeated qubit index")
        expected_arity = 2 if self.kind in ("CNOT", "FSIM", "RPQ") else 1
        if len(self.qubits) != expected_arity:
            raise ValueError(f"{self.kind} acts on {expected_arity} qubit(s)")
        if len(self.params) != _N_PARAMS[self.kind]:
            raise ValueError(f"{self.kind} takes {_N_PARAMS[self.kind]} "
                             f"parameter(s)")
        if (self.kind == "RPQ") != (self.axes is not None):
            raise ValueError("axes are for RPQ gates only")
        if self.axes is not None and self.axes not in _AXIS_PAIRS:
            raise ValueError(f"invalid rotation axes {self.axes}")

    def param_names(self) -> list[str]:
        return [p.name for p in self.params if isinstance(p, ParamRef)]


# Every gate matrix is sum_k f_k(angles) A_k over a few fixed A_k: a one-
# qubit rotation cos(t/2) 1 + sin(t/2) (-i sigma), RPQ cos(t) 1 +
# sin(t) (i P o Q) (as (P o Q)^2 = 1) and FSIM |00><00| + cos(t) (|01><01|
# + |10><10|) + sin(t) (-i) (|01><10| + |10><01|) + e^{-i phi} |11><11|.
_FIXED = {"X": _PAULI["X"],
          "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
          "CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]]}
_SWAP = np.eye(4)[[0, 2, 1, 3]] - np.diag([1, 0, 0, 1])  # |01><10| + h.c.
_PARTS = {("FSIM", None): (np.diag([1, 0, 0, 0]), np.diag([0, 1, 1, 0]),
                           -1j * _SWAP, np.diag([0, 0, 0, 1]))}
_PARTS.update({(k, None): (np.eye(2), -1j * _PAULI[k[1]])
               for k in ("RX", "RY", "RZ")})
_PARTS.update({("RPQ", (a, b)): (np.eye(4), 1j * np.kron(_PAULI[a], _PAULI[b]))
               for a, b in _AXIS_PAIRS})
_PARTS.update({(kind, None): (u,) for kind, u in _FIXED.items()})  # f = 1
_PARTS = {key: np.array(parts, dtype=complex) for key, parts in _PARTS.items()}
# The real forms [[Re A, -Im A], [Im A, Re A]] of [A_k; i A_k], flattened.
_PARTS_REAL = {key: np.concatenate([a, 1j * a]) for key, a in _PARTS.items()}
_PARTS_REAL = {key: np.block([[a.real, -a.imag], [a.imag, a.real]]).reshape(
    len(a), -1) for key, a in _PARTS_REAL.items()}
_PARTS = {key: a.reshape(len(a), -1) for key, a in _PARTS.items()}


def gate_stack(kind: str, angles, axes: tuple[str, str] | None = None,
               slot: int | None = None) -> np.ndarray:
    """The matrices of one gate kind at each row of `angles` (m, its number
    of angles), or with `slot` their derivatives in that angle, as an
    (m, d, d) complex stack: the (m, K) coefficients f_k times the A_k
    (`_PARTS`, flattened)."""
    f, d = _coefficients(kind, angles, slot)
    return (f @ _PARTS[kind, axes]).reshape(-1, d, d)


def real_stack(kind: str, angles, axes: tuple[str, str] | None = None,
               slot: int | None = None) -> np.ndarray:
    """`gate_stack`'s matrices as (m, 2d, 2d) real forms [[Re U, -Im U],
    [Im U, Re U]], acting on [Re psi; Im psi] as U on psi: [Re f, Im f]
    times the real forms of [A_k; i A_k]."""
    f, d = _coefficients(kind, angles, slot)
    return (np.concatenate([f.real, f.imag], axis=1)
            @ _PARTS_REAL[kind, axes]).reshape(-1, 2 * d, 2 * d)


def _coefficients(kind: str, angles, slot: int | None):
    """(`gate_stack`'s (m, K) coefficients f_k, the gate's dimension d)."""
    if kind in _FIXED:
        return np.ones((len(angles), 1)), len(_FIXED[kind])
    angles = np.asarray(angles, dtype=float)
    half = kind in ("RX", "RY", "RZ")
    theta = angles[:, 0] / 2.0 if half else angles[:, 0]
    f = [np.cos(theta), np.sin(theta)]
    if slot == 0:  # d/dt (cos, sin) = (-sin, cos), times 1/2 for t/2
        f = [-f[1] / 2.0, f[0] / 2.0] if half else [-f[1], f[0]]
    if kind == "FSIM":
        phase, zero = np.exp(-1j * angles[:, 1]), np.zeros(len(angles))
        f = ([zero, *f, zero] if slot == 0 else
             [zero, zero, zero, -1j * phase] if slot == 1 else
             [zero + 1.0, *f, phase])
    return np.array(f).T, 2 if half else 4


# Basis changes bringing e^{i theta Z o Z} to e^{i theta P o Q}: the fragment
# applies U_A^dag first and U_A last, with U_X = RY(pi/2), U_Y = RZ(pi/2)
# RY(pi/2), U_Z = 1, so that U_A Z U_A^dag = A exactly.
_PRE = {"X": (("RY", -math.pi / 2),),
        "Y": (("RZ", -math.pi / 2), ("RY", -math.pi / 2)),
        "Z": ()}
_POST = {"X": (("RY", math.pi / 2),),
         "Y": (("RY", math.pi / 2), ("RZ", math.pi / 2)),
         "Z": ()}


def decompose_rpq(gate: Gate) -> tuple[Gate, ...]:
    """Elementary-gate fragment equal to the RPQ unitary (no phase slip)."""
    if gate.kind != "RPQ":
        raise ValueError("decompose_rpq expects an RPQ gate")
    qa, qb = gate.qubits
    slot = gate.params[0]
    rz_slot = slot.scaled(-2.0) if isinstance(slot, ParamRef) else -2.0 * slot
    frag: list[Gate] = []
    for q, axis in ((qa, gate.axes[0]), (qb, gate.axes[1])):
        frag.extend(Gate(k, (q,), (v,)) for k, v in _PRE[axis])
    frag.append(Gate("CNOT", (qa, qb)))
    frag.append(Gate("RZ", (qb,), (rz_slot,)))
    frag.append(Gate("CNOT", (qa, qb)))
    for q, axis in ((qa, gate.axes[0]), (qb, gate.axes[1])):
        frag.extend(Gate(k, (q,), (v,)) for k, v in _POST[axis])
    return tuple(frag)


@dataclass(frozen=True)
class Circuit:
    """Gates on `n_qubits` qubits.  `compiled` is the simulator's memo of
    its blocks per (backend, noise), outside equality, hashing and repr."""
    n_qubits: int
    gates: tuple[Gate, ...]
    compiled: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        for g in self.gates:
            if any(q < 0 or q >= self.n_qubits for q in g.qubits):
                raise ValueError(f"gate {g.kind} addresses qubit outside "
                                 f"register of size {self.n_qubits}")

    @functools.cached_property
    def parameter_names(self) -> tuple[str, ...]:
        """Distinct parameter names in first-use order, computed once."""
        seen: dict[str, None] = {}
        for g in self.gates:
            for name in g.param_names():
                seen.setdefault(name)
        return tuple(seen)

    @property
    def n_params(self) -> int:
        return len(self.parameter_names)

    def count_gates(self) -> int:
        return len(self.gates)

    def count_cnots(self) -> int:
        return sum(1 for g in self.gates if g.kind == "CNOT")


def decompose_circuit(circuit: Circuit) -> Circuit:
    """Expand every RPQ gate into its elementary fragment."""
    gates: list[Gate] = []
    for g in circuit.gates:
        if g.kind == "RPQ":
            gates.extend(decompose_rpq(g))
        else:
            gates.append(g)
    return Circuit(circuit.n_qubits, tuple(gates))


def _mr_fragment(imp_up: int, bath_up: int, imp_dn: int, bath_dn: int,
                 theta) -> list[Gate]:
    # Prepares sqrt(n0)|imp_up imp_dn> + sqrt(1-n0)|bath_up bath_dn> from
    # vacuum, with theta = 2 arcsin(sqrt(n0)); both amplitudes nonnegative
    # for theta in [0, pi].
    return [
        Gate("RY", (imp_up,), (theta,)),
        Gate("CNOT", (imp_up, imp_dn)),
        Gate("X", (bath_up,)),
        Gate("CNOT", (imp_up, bath_up)),
        Gate("X", (bath_dn,)),
        Gate("CNOT", (imp_dn, bath_dn)),
    ]


def build_mr_nc1(theta="theta") -> Circuit:
    """Single-site multireference preparation on 4 qubits, one angle."""
    slot = ParamRef(theta) if isinstance(theta, str) else float(theta)
    return Circuit(4, tuple(_mr_fragment(0, 1, 2, 3, slot)))


def build_mrep(n_c: int = 2, n_layers: int = 4) -> Circuit:
    """Multireference excitation-preserving ansatz for the two-site cluster.

    Two MR preparations (one per orbital quadruple) are followed by
    ``n_layers`` brick-wall blocks of fSim gates; each fSim carries its own
    (theta, phi) pair, so 4 layers give 2 + 4*14 = 58 angles.
    """
    if n_c != 2:
        raise ValueError("only the two-site cluster is built here")
    n = 8
    gates: list[Gate] = []
    # Orbital quadruples (imp_up, bath_up, imp_dn, bath_dn) under the
    # spin-major mode ordering.
    gates += _mr_fragment(0, 2, 4, 6, ParamRef("prep_0"))
    gates += _mr_fragment(1, 3, 5, 7, ParamRef("prep_1"))
    even = [(0, 1), (2, 3), (4, 5), (6, 7)]
    odd = [(1, 2), (3, 4), (5, 6)]
    for layer in range(n_layers):
        for idx, (qa, qb) in enumerate(even + odd):
            tag = f"l{layer}_g{idx}"
            gates.append(Gate("FSIM", (qa, qb),
                              (ParamRef(tag + "_th"), ParamRef(tag + "_ph"))))
    return Circuit(n, tuple(gates))


def reference_occupation(n_qubits: int) -> tuple[int, ...]:
    """Half-filled determinant qubits: impurity-up and bath-down occupied."""
    n_c, rem = divmod(n_qubits, 4)
    if rem == 0:
        return tuple(range(n_c)) + tuple(range(3 * n_c, 4 * n_c))
    return tuple(range(n_qubits // 2))


def build_ldca(n_qubits: int = 8, n_cycles: int = 1) -> Circuit:
    """Low-depth circuit ansatz: matchgate cycles with an added ZZ rotation.

    Initial layer: one fixed RY preparing the reference determinant plus one
    variational RZ per qubit.  Each cycle has n_qubits/2 rounds of even-pair
    then odd-pair sublayers; every pair block carries the five rotations
    XY, YX, XX, ZZ, YY.  At (8 qubits, 1 cycle) this yields 148 angles and,
    once the two-qubit rotations are expanded, 1108 gates with 280 CNOTs.
    """
    if n_qubits % 2:
        raise ValueError("LDCA needs an even number of qubits")
    occupied = set(reference_occupation(n_qubits))
    gates: list[Gate] = []
    for q in range(n_qubits):
        gates.append(Gate("RY", (q,), (math.pi if q in occupied else 0.0,)))
        gates.append(Gate("RZ", (q,), (ParamRef(f"z_q{q}"),)))
    even = [(q, q + 1) for q in range(0, n_qubits - 1, 2)]
    odd = [(q, q + 1) for q in range(1, n_qubits - 1, 2)]
    order = (("X", "Y"), ("Y", "X"), ("X", "X"), ("Z", "Z"), ("Y", "Y"))
    for cyc in range(n_cycles):
        for rnd in range(n_qubits // 2):
            for qa, qb in even + odd:
                for pa, pb in order:
                    name = f"c{cyc}_r{rnd}_q{qa}{qb}_{pa.lower()}{pb.lower()}"
                    gates.append(Gate("RPQ", (qa, qb), (ParamRef(name),),
                                      axes=(pa, pb)))
    return Circuit(n_qubits, tuple(gates))


def build_hea_nc1() -> Circuit:
    """Hardware-efficient baseline: 8 angles, 3 CNOTs, 4 qubits.

    The X preparation is the CNOT-chain pre-image of the half-filled
    reference determinant, so all angles at zero output |1001> exactly.
    """
    gates: list[Gate] = [Gate("X", (0,)), Gate("X", (1,)), Gate("X", (3,))]
    gates += [Gate("RY", (q,), (ParamRef(f"a{q}"),)) for q in range(4)]
    gates += [Gate("CNOT", (q, q + 1)) for q in range(3)]
    gates += [Gate("RY", (q,), (ParamRef(f"b{q}"),)) for q in range(4)]
    return Circuit(4, tuple(gates))
