"""Observable estimation: exact expectations, 1-RDM measurement and
parameter-shift optimizers.

The 1-RDM of a simulator state is read off the exact solver's compiled
(state, p, q, final, sign) table (`ed.ed_rdm1`), from the amplitudes of a
pure state or the density matrix of a mixed one; no Pauli observable is
compiled for it.  `circuit_rdm1` is the read-out every circuit impurity
solver ends in.
"""

from __future__ import annotations

import math
import warnings
from typing import Mapping, NamedTuple

import numpy as np

from .circuits import Circuit, ParamRef
from .ed import Rdm1, ed_rdm1
from .pauli import PauliSum, expectation_matrix, pauli_tensor
from .simulator import NoiseModel, QuantumState, check_observable, run

IMAG_TOL = 1e-9
SPIN_ASYMMETRY_TOL = 1e-6


def expectation(state: QuantumState, obs: PauliSum) -> float:
    """Exact <O> on either backend; tiny imaginary residue is discarded."""
    check_observable(obs, state.n_qubits)
    if state.kind == "pure":
        vec = state.tensor.reshape(-1)
        value = complex(np.vdot(vec, expectation_matrix(obs) @ vec))
    else:  # tr(rho O) = sum_P x_P o_P
        value = complex(np.dot(pauli_tensor(obs).reshape(-1),
                               state.tensor.reshape(-1)))
    if abs(value.imag) > IMAG_TOL * max(1.0, abs(value.real)):
        raise ValueError(f"expectation has imaginary residue {value.imag}")
    return value.real


def measure_rdm1(state: QuantumState, n_c: int,
                 spin_average: bool = True) -> Rdm1:
    """Per-spin 1-RDM of an embedded-cluster state, as `ed.ed_rdm1` reads
    it; a spin average warns when the blocks it averaged differ."""
    rdm = ed_rdm1(state.tensor.reshape(-1) if state.kind == "pure"
                  else state.density(), n_c, spin_average)
    if spin_average and rdm.spin_gap > SPIN_ASYMMETRY_TOL:
        warnings.warn(f"spin blocks differ by {rdm.spin_gap:.3e}; "
                      f"paramagnetic symmetry may be broken", stacklevel=2)
    return rdm


def circuit_rdm1(circuit: Circuit, bindings: Mapping[str, float], n_c: int,
                 noise: NoiseModel | None = None,
                 basis: np.ndarray | None = None) -> np.ndarray:
    """Spin-averaged 1-RDM of a fitted cluster circuit, rotated back from
    the orbital basis `basis` (columns) the circuit works in to the bare
    one: the one read-out of every circuit impurity solver."""
    state = run(circuit, bindings, noise=noise)
    with warnings.catch_warnings():
        # Circuits such as mrep break S_z even without noise, so the two
        # spin blocks can differ by O(1); until a spin-symmetry policy
        # lands (ROADMAP.md, item 3), the average is taken silently.
        warnings.filterwarnings("ignore", message="spin blocks")
        rdm = measure_rdm1(state, n_c).matrix
    if basis is not None:
        rdm = basis @ rdm @ basis.conj().T
    return rdm


class ShiftFit(NamedTuple):
    theta: float
    energy: float
    flat: bool


def _energy_closure(circuit: Circuit, obs: PauliSum,
                    noise: NoiseModel | None):
    def energy(bindings: Mapping[str, float]) -> float:
        return expectation(run(circuit, bindings=bindings, noise=noise), obs)
    return energy


def parameter_shift_minimize(circuit: Circuit, obs: PauliSum,
                             noise: NoiseModel | None = None) -> ShiftFit:
    """Analytic minimizer of a one-parameter sinusoidal landscape.

    Fits E(t) = a + b cos(t - c) from E(0) and E(+-pi/2), returns the
    minimizing angle and the energy measured there.  A vanishing amplitude
    sets the flat flag and keeps theta at 0.
    """
    names = circuit.parameter_names
    if len(names) != 1:
        raise ValueError(f"expected exactly one free parameter, got "
                         f"{list(names)}")
    name = names[0]
    energy = _energy_closure(circuit, obs, noise)
    e_zero = energy({name: 0.0})
    e_plus = energy({name: math.pi / 2})
    e_minus = energy({name: -math.pi / 2})
    a = 0.5 * (e_plus + e_minus)
    b_sin = 0.5 * (e_plus - e_minus)
    b_cos = e_zero - a
    amplitude = math.hypot(b_sin, b_cos)
    scale = max(abs(e_zero), abs(e_plus), abs(e_minus), 1.0)
    if amplitude < 1e-10 * scale:
        return ShiftFit(theta=0.0, energy=e_zero, flat=True)
    c = math.atan2(b_sin, b_cos)
    theta = math.remainder(c + math.pi, 2.0 * math.pi)
    return ShiftFit(theta=theta, energy=energy({name: theta}), flat=False)


def _check_rotosolve_support(circuit: Circuit) -> None:
    hits: dict[str, int] = {}
    for gate in circuit.gates:
        for slot in gate.params:
            if not isinstance(slot, ParamRef):
                continue
            if gate.kind not in ("RX", "RY", "RZ"):
                raise ValueError(f"parameter {slot.name!r} sits in a "
                                 f"{gate.kind} gate; only single-angle "
                                 f"rotations have the 2pi-sinusoidal "
                                 f"landscape this sweep assumes")
            if slot.scale != 1.0:
                raise ValueError(f"parameter {slot.name!r} enters with "
                                 f"scale {slot.scale}")
            hits[slot.name] = hits.get(slot.name, 0) + 1
    shared = [n for n, k in hits.items() if k > 1]
    if shared:
        raise ValueError(f"parameters appear in several gates: {shared}")


def rotosolve(circuit: Circuit, obs: PauliSum, init: Mapping[str, float],
              n_cycles: int = 10, noise: NoiseModel | None = None
              ) -> tuple[dict[str, float], float]:
    """Sequential per-parameter analytic minimization from the angles
    `init`, for a circuit whose every parameter is a plain rotation angle.
    Noiseless sweeps are monotone non-increasing in energy.
    """
    _check_rotosolve_support(circuit)
    names = circuit.parameter_names
    missing = [n for n in names if n not in init]
    if missing:
        raise ValueError(f"rotosolve needs initial values; missing {missing}")
    params = {name: float(init[name]) for name in names}
    energy = _energy_closure(circuit, obs, noise)
    for _ in range(n_cycles):
        for name in names:
            theta = params[name]
            e_here = energy(params)
            e_plus = energy({**params, name: theta + math.pi / 2})
            e_minus = energy({**params, name: theta - math.pi / 2})
            shift = math.atan2(2.0 * e_here - e_plus - e_minus,
                               e_plus - e_minus)
            params[name] = math.remainder(theta - math.pi / 2 - shift,
                                          2.0 * math.pi)
    return params, energy(params)
