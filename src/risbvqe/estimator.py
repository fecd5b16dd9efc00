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
from typing import Mapping, NamedTuple

import numpy as np

from .circuits import Circuit, ParamRef
from .ed import Rdm1, ed_rdm1
from .simulator import NoiseModel, Observable, QuantumState, _observe, run

IMAG_TOL = 1e-9


def expectation(state: QuantumState, obs: Observable) -> float:
    """Exact <O> on either backend; tiny imaginary residue is discarded."""
    value = _observe(state.tensor, obs, state.kind == "mixed")[0]
    if abs(value.imag) > IMAG_TOL * max(1.0, abs(value.real)):
        raise ValueError(f"expectation has imaginary residue {value.imag}")
    return value.real


def measure_rdm1(state: QuantumState, n_c: int) -> Rdm1:
    """Spin-averaged 1-RDM of an embedded-cluster state, as `ed.ed_rdm1`
    reads it; its `spin_gap` says how far the averaged blocks differ."""
    return ed_rdm1(state.tensor.reshape(-1) if state.kind == "pure"
                   else state.density(), n_c)


def circuit_rdm1(circuit: Circuit, bindings: Mapping[str, float], n_c: int,
                 noise: NoiseModel | None = None,
                 basis: np.ndarray | None = None) -> np.ndarray:
    """Spin-averaged 1-RDM of a fitted cluster circuit, rotated back from
    the orbital basis `basis` (columns) the circuit works in to the bare
    one: the one read-out of every circuit impurity solver."""
    # Circuits such as mrep break S_z even without noise, so the two spin
    # blocks can differ by O(1); until a spin-symmetry policy lands
    # (ROADMAP.md, item 6), the average is taken silently.
    rdm = measure_rdm1(run(circuit, bindings, noise=noise), n_c).matrix
    if basis is not None:
        rdm = basis @ rdm @ basis.conj().T
    return rdm


class ShiftFit(NamedTuple):
    theta: float
    energy: float
    flat: bool


def _energy_closure(circuit: Circuit, obs: Observable,
                    noise: NoiseModel | None):
    def energy(bindings: Mapping[str, float]) -> float:
        return expectation(run(circuit, bindings=bindings, noise=noise), obs)
    return energy


def _fit_sinusoid(energy, params: dict[str, float], name: str
                  ) -> tuple[float, float, bool]:
    """Fit E(t) = a + b cos(t - c) along the angle `name` from E at its
    value and at +-pi/2 from it: (the minimizing angle, E at the value,
    whether the amplitude b vanishes against the energy scale)."""
    theta = params[name]
    e_here = energy(params)
    e_plus = energy({**params, name: theta + math.pi / 2})
    e_minus = energy({**params, name: theta - math.pi / 2})
    b_sin = 0.5 * (e_plus - e_minus)
    b_cos = e_here - 0.5 * (e_plus + e_minus)
    scale = max(abs(e_here), abs(e_plus), abs(e_minus), 1.0)
    flat = math.hypot(b_sin, b_cos) < 1e-10 * scale
    best = math.remainder(theta + math.atan2(b_sin, b_cos) + math.pi,
                          2.0 * math.pi)
    return best, e_here, flat


def parameter_shift_minimize(circuit: Circuit, obs: Observable,
                             noise: NoiseModel | None = None) -> ShiftFit:
    """Analytic minimizer of a one-parameter sinusoidal landscape: one
    `_fit_sinusoid` from 0, the energy measured at the angle it returns.
    A vanishing amplitude sets the flat flag and keeps theta at 0.
    """
    names = circuit.parameter_names
    if len(names) != 1:
        raise ValueError(f"expected exactly one free parameter, got "
                         f"{list(names)}")
    _check_sinusoidal(circuit)
    energy = _energy_closure(circuit, obs, noise)
    theta, e_zero, flat = _fit_sinusoid(energy, {names[0]: 0.0}, names[0])
    if flat:
        return ShiftFit(theta=0.0, energy=e_zero, flat=True)
    return ShiftFit(theta=theta, energy=energy({names[0]: theta}),
                    flat=False)


def _check_sinusoidal(circuit: Circuit) -> None:
    """Refuse a parameter that is scaled, shared, or outside an RX/RY/RZ
    gate: the energy is then not a 2pi sinusoid in it."""
    hits: dict[str, int] = {}
    for gate in circuit.gates:
        for slot in gate.params:
            if not isinstance(slot, ParamRef):
                continue
            if gate.kind not in ("RX", "RY", "RZ"):
                raise ValueError(f"parameter {slot.name!r} sits in a "
                                 f"{gate.kind} gate; only single-angle "
                                 f"rotations have the 2pi-sinusoidal "
                                 f"landscape this fit assumes")
            if slot.scale != 1.0:
                raise ValueError(f"parameter {slot.name!r} enters with "
                                 f"scale {slot.scale}")
            hits[slot.name] = hits.get(slot.name, 0) + 1
    shared = [n for n, k in hits.items() if k > 1]
    if shared:
        raise ValueError(f"parameters appear in several gates: {shared}")


def rotosolve(circuit: Circuit, obs: Observable, init: Mapping[str, float],
              n_cycles: int = 10, noise: NoiseModel | None = None
              ) -> tuple[dict[str, float], float]:
    """Sequential per-parameter analytic minimization (`_fit_sinusoid`)
    from the angles `init`, for a circuit whose every parameter is a plain
    rotation angle.  Noiseless sweeps are monotone non-increasing in energy.
    """
    _check_sinusoidal(circuit)
    names = circuit.parameter_names
    missing = [n for n in names if n not in init]
    if missing:
        raise ValueError(f"rotosolve needs initial values; missing {missing}")
    params = {name: float(init[name]) for name in names}
    energy = _energy_closure(circuit, obs, noise)
    for _ in range(n_cycles):
        for name in names:
            params[name] = _fit_sinusoid(energy, params, name)[0]
    return params, energy(params)
