"""Estimator checked against amplitude-level oracles and channel algebra."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risbvqe.circuits import Circuit, Gate, ParamRef, build_hea_nc1, \
    build_mr_nc1, build_mrep
from risbvqe.estimator import (Rdm1, expectation, measure_rdm1,
                               parameter_shift_minimize, rotosolve)
from risbvqe.pauli import PauliSum
from risbvqe.simulator import NoiseModel, QuantumState, calibrate_noise, run

from oracles import (build_product_ry, noisy_density, oracle_rdm1_density,
                     oracle_rdm1_full, pauli_identity, pauli_rdm1_full,
                     random_bindings, word_mat)

RNG = np.random.default_rng(97531)


def random_hermitian_sum(n_qubits, n_words, rng):
    terms = {}
    for _ in range(n_words):
        word = "".join(rng.choice(list("IXYZ")) for _ in range(n_qubits))
        terms[word] = terms.get(word, 0.0) + rng.normal()
    return PauliSum(terms, n_qubits)


class TestExpectation:
    def test_zero_state_z(self):
        z = PauliSum({"Z": 1.0})
        assert expectation(QuantumState.zero(1), z) == 1.0

    def test_maximally_mixed_traceless(self):
        rho = QuantumState.from_density(np.eye(4) / 4)
        obs = PauliSum({"XY": 0.3, "ZI": 0.2, "YY": -1.1})
        assert abs(expectation(rho, obs)) < 1e-14

    def test_mr_occupation(self):
        theta = 2.0 * math.asin(math.sqrt(0.3))
        state = run(build_mr_nc1(theta=theta))
        n_imp_up = PauliSum({"IIII": 0.5, "ZIII": -0.5})
        assert abs(expectation(state, n_imp_up) - 0.3) < 1e-12

    def test_matches_dense_oracle(self):
        for _ in range(5):
            v = RNG.normal(size=16) + 1j * RNG.normal(size=16)
            v /= np.linalg.norm(v)
            obs = random_hermitian_sum(4, 6, RNG)
            mat = sum(c * word_mat(w) for w, c in obs.items())
            want = np.vdot(v, mat @ v).real
            got = expectation(QuantumState.from_vector(v), obs)
            assert abs(got - want) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            expectation(QuantumState.zero(1), PauliSum({"X": 1j}))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            expectation(QuantumState.zero(2), PauliSum({"Z": 1.0}))


ONE_QUBIT_KINDS = ("RX", "RY", "RZ", "X", "H")
TWO_QUBIT_KINDS = ("CNOT", "FSIM", "RPQ")
N_ANGLES = {"RX": 1, "RY": 1, "RZ": 1, "FSIM": 2, "RPQ": 1}


@st.composite
def random_states(draw):
    """A random circuit on an n_c = 1 or 2 cluster register, run noiseless
    on either backend, under calibrated noise, or at p = 3/4 on every gate;
    returns the state and n_c."""
    n_c = draw(st.sampled_from((1, 2)))
    backend = draw(st.sampled_from(("pure", "mixed", "calibrated",
                                    "erasing")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = 4 * n_c
    gates = []
    for _ in range(draw(st.integers(1, 14))):
        kind = str(rng.choice(ONE_QUBIT_KINDS + TWO_QUBIT_KINDS))
        if kind in ONE_QUBIT_KINDS:
            qubits = (int(rng.integers(n)),)
        else:
            qubits = tuple(int(q) for q in rng.choice(n, 2, replace=False))
        params = tuple(rng.uniform(-math.pi, math.pi, N_ANGLES.get(kind, 0)))
        axes = (tuple(str(a) for a in rng.choice(list("XYZ"), 2))
                if kind == "RPQ" else None)
        gates.append(Gate(kind, qubits, params, axes=axes))
    noise = {"pure": None, "mixed": None, "calibrated": calibrate_noise(),
             "erasing": NoiseModel(0.75, 0.75)}[backend]
    state = run(Circuit(n, tuple(gates)), noise=noise,
                mixed=backend != "pure")
    return state, n_c


class TestRdm1:
    def test_vacuum(self):
        rdm = measure_rdm1(QuantumState.zero(4), n_c=1)
        np.testing.assert_allclose(rdm.matrix, np.zeros((2, 2)), atol=1e-14)

    def test_half_filled_determinant(self):
        circ = Circuit(4, (Gate("X", (0,)), Gate("X", (2,))))
        rdm = measure_rdm1(run(circ), n_c=1)
        np.testing.assert_allclose(rdm.matrix, np.diag([1.0, 0.0]),
                                   atol=1e-14)

    def test_mr_occupations(self):
        theta = 2.0 * math.asin(math.sqrt(0.3))
        state = run(build_mr_nc1(theta=theta))
        for flag in (True, False):
            rdm = measure_rdm1(state, n_c=1, spin_average=flag)
            np.testing.assert_allclose(rdm.matrix, np.diag([0.3, 0.7]),
                                       atol=1e-12)

    def test_matches_amplitude_oracle(self):
        circ = build_mrep(2, 1)
        state = run(circ, random_bindings(circ, RNG))
        full = oracle_rdm1_full(state.vector(), 8)
        got_up = measure_rdm1(state, n_c=2, spin_average=False).matrix
        np.testing.assert_allclose(got_up, full[:4, :4], atol=1e-10)
        with warnings.catch_warnings():
            # random angles break the spin symmetry
            warnings.simplefilter("ignore")
            got = measure_rdm1(state, n_c=2).matrix
        np.testing.assert_allclose(got, 0.5 * (full[:4, :4] + full[4:, 4:]),
                                   atol=1e-10)

    def test_particle_number_conserved(self):
        circ = build_mrep(2, 2)
        state = run(circ, random_bindings(circ, RNG))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            total = 2.0 * measure_rdm1(state, n_c=2).trace()
        assert abs(total - 4.0) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(random_states())
    def test_matches_pauli_route_and_density_oracle(self, case):
        state, n_c = case
        m = 2 * n_c
        references = (pauli_rdm1_full(state),
                      oracle_rdm1_density(state.density(), state.n_qubits))
        got_up = measure_rdm1(state, n_c, spin_average=False).matrix
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got_mean = measure_rdm1(state, n_c).matrix
        for full in references:
            up, down = full[:m, :m], full[m:, m:]
            assert np.max(np.abs(got_up - up)) <= 1e-12
            assert np.max(np.abs(got_mean - 0.5 * (up + down))) <= 1e-12

    def test_spin_asymmetry_warns(self):
        state = run(Circuit(4, (Gate("X", (0,)),)))
        with pytest.warns(UserWarning, match="spin blocks differ"):
            measure_rdm1(state, n_c=1)

    def test_wrong_register_size(self):
        with pytest.raises(ValueError):
            measure_rdm1(QuantumState.zero(4), n_c=2)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Rdm1(np.diag([1.5, 0.0]).astype(complex))
        with pytest.raises(ValueError):
            Rdm1(np.array([[0.5, 0.2], [0.4, 0.5]], dtype=complex))

    def test_occupation_cache(self):
        rdm = Rdm1(np.diag([0.9, 0.1]).astype(complex))
        np.testing.assert_allclose(rdm.occupations, [0.1, 0.9])


class TestParameterShift:
    def test_single_ry_on_z(self):
        fit = parameter_shift_minimize(Circuit(1, (Gate("RY", (0,),
                                                        (ParamRef("t"),)),)),
                                       PauliSum({"Z": 1.0}))
        assert not fit.flat
        assert abs(abs(fit.theta) - math.pi) < 1e-12
        assert abs(fit.energy + 1.0) < 1e-12

    def test_matches_grid_search(self):
        gates = (Gate("H", (0,)), Gate("CNOT", (0, 1)),
                 Gate("RY", (1,), (ParamRef("t"),)), Gate("CNOT", (1, 0)))
        circ = Circuit(2, gates)
        obs = PauliSum({"ZI": 0.6, "IZ": -0.4, "XX": 0.8, "ZZ": 0.5})
        fit = parameter_shift_minimize(circ, obs)
        assert not fit.flat
        grid = np.arange(-math.pi, math.pi, 1e-3)
        energies = [expectation(run(circ, bindings={"t": t}), obs)
                    for t in grid]
        best = grid[int(np.argmin(energies))]
        gap = abs(math.remainder(fit.theta - best, 2.0 * math.pi))
        assert gap < 1e-3
        assert fit.energy <= min(energies) + 1e-6

    def test_flat_landscape(self):
        circ = Circuit(1, (Gate("RZ", (0,), (ParamRef("t"),)),))
        fit = parameter_shift_minimize(circ, PauliSum({"Z": 1.0}))
        assert fit.flat and fit.theta == 0.0
        assert abs(fit.energy - 1.0) < 1e-12

    def test_rejects_multiple_parameters(self):
        with pytest.raises(ValueError):
            parameter_shift_minimize(build_hea_nc1(), pauli_identity(4))


class TestRotosolve:
    def test_separable_exact_after_one_cycle(self):
        circ = build_product_ry(3)
        obs = PauliSum({"ZII": 0.7, "IZI": 0.3, "IIZ": -0.2})
        params, energy = rotosolve(
            circ, obs, dict.fromkeys(circ.parameter_names, 0.0), n_cycles=1)
        assert abs(energy + 1.2) < 1e-10
        assert len(params) == 3

    def test_monotone_over_cycles(self):
        circ = build_hea_nc1()
        init = dict(zip(circ.parameter_names, RNG.uniform(-2, 2, 8)))
        obs = random_hermitian_sum(4, 8, RNG)
        energies = [rotosolve(circ, obs, init, n_cycles=k)[1]
                    for k in range(4)]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))

    def test_zero_cycles_identity(self):
        start = {f"t{q}": 0.3 * q for q in range(2)}
        circ = build_product_ry(2)
        params, energy = rotosolve(circ, PauliSum({"ZZ": 1.0}), start,
                                   n_cycles=0)
        assert params == start
        got = expectation(run(circ, start), PauliSum({"ZZ": 1.0}))
        assert abs(energy - got) < 1e-14

    def test_rejects_two_qubit_rotation_params(self):
        circ = build_mrep(2, 1)
        with pytest.raises(ValueError, match="FSIM"):
            rotosolve(circ, pauli_identity(8),
                      dict.fromkeys(circ.parameter_names, 0.0), n_cycles=1)

    def test_rejects_shared_parameter(self):
        shared = (Gate("RY", (0,), (ParamRef("t"),)),
                  Gate("RY", (1,), (ParamRef("t"),)))
        with pytest.raises(ValueError, match="several gates"):
            rotosolve(Circuit(2, shared), pauli_identity(2), {"t": 0.0},
                      n_cycles=1)

    def test_requires_initial_values(self):
        with pytest.raises(ValueError, match="missing"):
            rotosolve(build_product_ry(2), pauli_identity(2), {"t0": 0.0},
                      n_cycles=1)


def fold_cnots(circuit: Circuit, n_foldings: int = 1) -> Circuit:
    """Insert ``n_foldings`` identity CNOT pairs after every CNOT."""
    gates: list[Gate] = []
    for gate in circuit.gates:
        gates.append(gate)
        if gate.kind == "CNOT":
            gates.extend([gate] * (2 * n_foldings))
    return Circuit(circuit.n_qubits, tuple(gates))


def zne_linear(circuit: Circuit, obs: PauliSum,
               noise: NoiseModel | None = None,
               n_foldings: int = 1) -> float:
    """Two-point linear zero-noise extrapolation via CNOT-pair insertion.

    Noise levels {1, 1 + n_foldings} come from replacing each CNOT with
    2*n_foldings + 1 copies; the line through both energies is read off at
    level 0.  Two-qubit rotations must be expanded to CNOTs beforehand.
    """
    if n_foldings < 1:
        raise ValueError("need at least one folding")
    if circuit.count_cnots() == 0:
        raise ValueError("no CNOTs to fold")
    e_raw = expectation(run(circuit, noise=noise), obs)
    e_amp = expectation(run(fold_cnots(circuit, n_foldings), noise=noise),
                        obs)
    return e_raw + (e_raw - e_amp) / n_foldings


def bell_variant() -> Circuit:
    # Prepares (|01> + |10>)/sqrt(2); ideal <ZZ> = -1.
    return Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)),
                       Gate("X", (1,))))


class TestZne:
    def test_noiseless_is_identity(self):
        circ = bell_variant()
        obs = PauliSum({"ZZ": 1.0})
        direct = expectation(run(circ), obs)
        assert abs(zne_linear(circ, obs, noise=None) - direct) < 1e-10

    def test_fold_census(self):
        folded = fold_cnots(bell_variant(), 2)
        assert folded.count_cnots() == 5
        assert folded.count_gates() == 7

    def test_matches_channel_oracle_and_improves(self):
        circ = bell_variant()
        obs = PauliSum({"ZZ": 1.0})
        noise = NoiseModel(0.01, 0.04)
        zz = word_mat("ZZ")
        e_raw = np.trace(noisy_density(circ, noise) @ zz).real
        e_amp = np.trace(noisy_density(fold_cnots(circ, 1), noise) @ zz).real
        want = e_raw + (e_raw - e_amp)
        got = zne_linear(circ, obs, noise=noise)
        assert abs(got - want) < 1e-12
        assert abs(got + 1.0) < abs(e_raw + 1.0)

    def test_two_foldings(self):
        circ = bell_variant()
        obs = PauliSum({"ZZ": 1.0})
        noise = NoiseModel(0.0, 0.05)
        zz = word_mat("ZZ")
        e_raw = np.trace(noisy_density(circ, noise) @ zz).real
        e_amp = np.trace(noisy_density(fold_cnots(circ, 2), noise) @ zz).real
        want = e_raw + (e_raw - e_amp) / 2.0
        assert abs(zne_linear(circ, obs, noise=noise, n_foldings=2)
                   - want) < 1e-12

    def test_no_two_qubit_noise_means_no_shift(self):
        # Folded CNOTs only carry p2 channels, so p2 = 0 leaves the
        # amplified energy equal to the raw one.
        circ = bell_variant()
        obs = PauliSum({"ZZ": 1.0})
        noise = NoiseModel(0.02, 0.0)
        raw = expectation(run(circ, noise=noise), obs)
        assert abs(zne_linear(circ, obs, noise=noise) - raw) < 1e-12

    def test_requires_cnots(self):
        with pytest.raises(ValueError, match="no CNOTs"):
            zne_linear(build_product_ry(2), pauli_identity(2), noise=None)


def sample_expectation(state, obs, n_shots, seed=None):
    """Finite-shot estimate: each Pauli word is sampled as an independent
    binomial with success probability (1 + <P>)/2."""
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    if not obs.is_hermitian():
        raise ValueError("observable is not Hermitian")
    rng = np.random.default_rng(seed)
    identity = "I" * obs.n_qubits
    total = 0.0
    for word, coeff in obs.items():
        if word == identity:
            total += coeff.real
            continue
        exact = expectation(state, PauliSum({word: 1.0},
                                            n_qubits=obs.n_qubits))
        p_plus = min(1.0, max(0.0, 0.5 * (1.0 + exact)))
        hits = rng.binomial(n_shots, p_plus)
        total += coeff.real * (2.0 * hits / n_shots - 1.0)
    return total


class TestSampling:
    def test_deterministic_outcome(self):
        val = sample_expectation(QuantumState.zero(1), PauliSum({"Z": 1.0}),
                                 n_shots=17, seed=0)
        assert val == 1.0

    def test_plus_state_statistics(self):
        plus = QuantumState.from_vector(np.array([1, 1]) / math.sqrt(2))
        val = sample_expectation(plus, PauliSum({"Z": 1.0}), n_shots=10 ** 6,
                                 seed=7)
        assert abs(val) < 3e-3

    def test_seed_reproducible(self):
        plus = QuantumState.from_vector(np.array([1, 1]) / math.sqrt(2))
        obs = PauliSum({"Z": 0.8, "X": 0.4, "I": 0.1})
        a = sample_expectation(plus, obs, n_shots=100, seed=42)
        b = sample_expectation(plus, obs, n_shots=100, seed=42)
        assert a == b

    def test_identity_passes_through(self):
        val = sample_expectation(QuantumState.zero(2),
                                 pauli_identity(2, 0.37), n_shots=1,
                                 seed=1)
        assert abs(val - 0.37) < 1e-15

    def test_shot_validation(self):
        with pytest.raises(ValueError):
            sample_expectation(QuantumState.zero(1), PauliSum({"Z": 1.0}),
                               n_shots=0)
