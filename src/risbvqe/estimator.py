"""Observable estimation: exact expectations, 1-RDM measurement and
parameter-shift optimizers.

The 1-RDM of a simulator state is read off the exact solver's compiled
(state, p, q, final, sign) table (`ed.ed_rdm1_full`), from the amplitudes
of a pure state or the density matrix of a mixed one; no Pauli observable
is compiled for it.
"""

from __future__ import annotations

import math
import warnings
from typing import Mapping, NamedTuple

import numpy as np

from .circuits import Circuit, ParamRef
from .ed import Rdm1, ed_rdm1_full
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
    """Per-spin 1-RDM of an embedded-cluster state.  Modes are spin-major:
    up block first, down second; each block lists the n_c impurity orbitals
    then the n_c bath orbitals."""
    if state.n_qubits != 4 * n_c:
        raise ValueError(f"state has {state.n_qubits} qubits, expected "
                         f"{4 * n_c}")
    full = ed_rdm1_full(state.tensor.reshape(-1) if state.kind == "pure"
                        else state.density())
    up = full[:2 * n_c, :2 * n_c]
    if not spin_average:
        return Rdm1(up)
    down = full[2 * n_c:, 2 * n_c:]
    gap = np.max(np.abs(up - down))
    if gap > SPIN_ASYMMETRY_TOL:
        warnings.warn(f"spin blocks differ by {gap:.3e}; paramagnetic "
                      f"symmetry may be broken", stacklevel=2)
    return Rdm1(0.5 * (up + down))


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


def rotosolve(circuit: Circuit, obs: PauliSum, n_cycles: int = 10,
              noise: NoiseModel | None = None) -> tuple[dict[str, float], float]:
    """Sequential per-parameter analytic minimization.

    pre: the circuit is fully bound (its bindings seed the sweep) and every
    parameter is a plain rotation angle.  Noiseless sweeps are monotone
    non-increasing in energy.
    """
    _check_rotosolve_support(circuit)
    names = circuit.parameter_names
    params = circuit.resolved_bindings()
    missing = [n for n in names if n not in params]
    if missing:
        raise ValueError(f"rotosolve needs initial values; missing {missing}")
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
