"""Simulator backends checked against dense linear algebra and channel
identities computed by hand."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from risbvqe import MATRIX_TOL, simulator
from risbvqe.circuits import (VALID_KINDS, Circuit, Gate, ParamRef,
                              build_hea_nc1, build_ldca, build_mr_nc1,
                              build_mrep, decompose_circuit, gate_stack)
from risbvqe.ed import ed_rdm1_full, hamiltonian_matrix
from risbvqe.estimator import expectation
from risbvqe.hamiltonians import EmbeddingHamiltonian
from risbvqe.pauli import PauliSum
from risbvqe.simulator import (NoiseModel, Observable, QuantumState, _compile,
                               _local, _ptm, _runs, adjoint_gradient,
                               apply_gate, calibrate_noise, run)
from risbvqe.vqe import vqe_minimize

from oracles import (KIND_AXES, dense_state, finite_difference_gradient,
                     from_vector, full_register_walk, gather_scatter_walk,
                     kron_gradient, noisy_density, oracle_transfer,
                     pauli_observable, random_bindings, simplex_by_runs,
                     superoperator_density, unfactored, whole_register,
                     word_mat, zero_state)

RNG = np.random.default_rng(20240811)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def embed_op(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    full = np.eye(1, dtype=complex)
    for q in range(n):
        full = np.kron(full, op if q == qubit else I2)
    return full


def depolarize_matrix(rho: np.ndarray, qubit: int, p: float,
                      n: int) -> np.ndarray:
    out = (1.0 - p) * rho
    for pauli in (SX, SY, SZ):
        full = embed_op(pauli, qubit, n)
        out = out + (p / 3.0) * (full @ rho @ full.conj().T)
    return out


class TestNoiseModel:
    def test_calibration_defaults(self):
        nm = calibrate_noise()
        assert abs(nm.p1 - 0.0024) < 1e-15
        assert abs(nm.p2 - (1.0 - math.sqrt(1.0 - 1.25 * 0.006))) < 1e-15
        assert abs(nm.p2 - 3.757e-3) < 5e-7

    def test_calibration_zero(self):
        nm = calibrate_noise(0.0, 0.0)
        assert nm.p1 == 0.0 and nm.p2 == 0.0

    def test_calibration_boundary(self):
        # eps2 = 0.8 zeroes the radicand, pushing p2 to 1 > 3/4.
        with pytest.raises(ValueError):
            calibrate_noise(0.0016, 0.8)
        with pytest.raises(ValueError):
            calibrate_noise(0.0016, 0.81)
        with pytest.raises(ValueError):
            calibrate_noise(-0.1, 0.006)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            NoiseModel(0.8, 0.0)
        with pytest.raises(ValueError):
            NoiseModel(0.0, -0.01)
        with pytest.raises(ValueError):
            NoiseModel(0.1, 0.1, scale=1.5)

    def test_scale(self):
        nm = NoiseModel(0.3, 0.5, scale=0.5)
        assert nm.effective_p1 == 0.15
        assert nm.effective_p2 == 0.25
        again = nm.scaled(0.0)
        assert again.p1 == 0.3 and again.effective_p1 == 0.0


class TestQuantumState:
    def test_zero_states(self):
        pure = zero_state(3)
        vec = pure.vector()
        assert vec[0] == 1.0 and np.linalg.norm(vec) == 1.0
        mixed = zero_state(2, mixed=True)
        rho = mixed.density()
        assert rho[0, 0] == 1.0 and abs(np.trace(rho) - 1.0) < 1e-15

    def test_vector_round_trip(self):
        v = RNG.normal(size=8) + 1j * RNG.normal(size=8)
        v /= np.linalg.norm(v)
        state = from_vector(v)
        assert state.n_qubits == 3
        np.testing.assert_allclose(state.vector(), v)
        np.testing.assert_allclose(state.density(), np.outer(v, v.conj()))

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            from_vector(np.ones(3))
        with pytest.raises(ValueError):
            QuantumState.from_density(np.ones((4, 2)))

    @pytest.mark.parametrize("read, empty, message", [
        (from_vector, [], "vector length is not a power"),
        (QuantumState.from_density, np.zeros((0, 0)), "square power-of-two"),
        (ed_rdm1_full, np.zeros(0), "dimension 0 is not a power of two")],
        ids=["from_vector", "from_density", "ed_rdm1_full"])
    def test_empty_inputs(self, read, empty, message):
        with pytest.raises(ValueError, match=message):
            read(empty)

    def test_check_flags_bad_density(self):
        rho = np.diag([0.7, 0.4]).astype(complex)
        with pytest.raises(ValueError):
            QuantumState.from_density(rho).check()


class TestUnitaryAction:
    def test_x_gate(self):
        state = apply_gate(zero_state(1), Gate("X", (0,)))
        np.testing.assert_allclose(state.vector(), [0, 1])

    def test_input_not_mutated(self):
        start = zero_state(2)
        before = start.tensor.copy()
        apply_gate(start, Gate("H", (0,)))
        np.testing.assert_array_equal(start.tensor, before)
        # the pure backend gathers each block's rows into new arrays
        psi = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        start = from_vector(psi / np.linalg.norm(psi))
        before = start.tensor.copy()
        for gate in all_kinds_circuit().gates:
            out = apply_gate(start, gate, {n: 0.4 for n in "abcdef"})
            assert not np.shares_memory(out.tensor, start.tensor)
            np.testing.assert_array_equal(start.tensor, before)
        # a run's state is its own: writing to it changes no later run
        circ = build_mr_nc1(theta=0.9)
        first = run(circ)
        want = first.tensor.copy()
        first.tensor[...] = 0.0
        np.testing.assert_array_equal(run(circ).tensor, want)

    def test_statevector_matches_dense(self):
        circ = build_mr_nc1(theta=1.234)
        got = run(circ).vector()
        np.testing.assert_allclose(got, dense_state(circ), atol=1e-12)

    def test_density_matches_statevector(self):
        circ = build_mrep(2, 2)
        values = random_bindings(circ, RNG)
        psi = run(circ, values).vector()
        rho = run(circ, values, mixed=True).density()
        np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-10)

    def test_unbound_parameter_raises(self):
        circ = build_hea_nc1()
        with pytest.raises(ValueError):
            run(circ)

    def test_noise_requires_density(self):
        nm = NoiseModel(0.01, 0.01)
        with pytest.raises(ValueError):
            apply_gate(zero_state(1), Gate("X", (0,)), noise=nm)

    def test_run_noise_requires_density(self):
        circ = build_mr_nc1(theta=0.4)
        with pytest.raises(ValueError, match="density-matrix backend"):
            run(circ, noise=NoiseModel(0.01, 0.01), mixed=False)


class TestDepolarizing:
    def test_bit_flip_z_expectation(self):
        # X then depolarize: <Z> = -(1 - 4 p1 / 3).
        p1 = 0.0024
        nm = NoiseModel(p1, 0.0)
        state = apply_gate(zero_state(1, mixed=True),
                           Gate("X", (0,)), noise=nm)
        z = np.trace(state.density() @ SZ).real
        assert abs(z + (1.0 - 4.0 * p1 / 3.0)) < 1e-14

    def test_maximal_noise_erases(self):
        nm = NoiseModel(0.75, 0.0)
        state = apply_gate(zero_state(1, mixed=True),
                           Gate("X", (0,)), noise=nm)
        np.testing.assert_allclose(state.density(), I2 / 2, atol=1e-14)

    def test_matches_pauli_sum_form(self):
        v = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        p2 = 0.21
        nm = NoiseModel(0.0, p2)
        got = apply_gate(QuantumState.from_density(rho),
                         Gate("CNOT", (0, 1)), noise=nm).density()
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        want = cnot @ rho @ cnot.conj().T
        want = depolarize_matrix(want, 0, p2, 2)
        want = depolarize_matrix(want, 1, p2, 2)
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_channel_is_unital(self):
        nm = calibrate_noise()
        state = QuantumState.from_density(np.eye(4) / 4)
        for gate in (Gate("H", (0,)), Gate("CNOT", (0, 1)),
                     Gate("RY", (1,), (0.7,))):
            state = apply_gate(state, gate, noise=nm)
        np.testing.assert_allclose(state.density(), np.eye(4) / 4,
                                   atol=1e-14)

    def test_noisy_run_is_physical(self):
        circ = build_mr_nc1(theta=2.1)
        state = run(circ, noise=calibrate_noise())
        state.check(tol=1e-10)
        assert state.kind == "mixed"

    def test_zero_scale_equals_noiseless(self):
        circ = build_hea_nc1()
        values = dict(zip(circ.parameter_names, RNG.uniform(-1, 1, 8)))
        quiet = run(circ, values,
                    noise=calibrate_noise().scaled(0.0)).density()
        clean = run(circ, values, mixed=True).density()
        np.testing.assert_allclose(quiet, clean, atol=1e-14)

    def test_average_gate_fidelity(self):
        # The six Pauli eigenstates form a 2-design, so their mean fidelity
        # equals the Haar average (p0*d + 1)/(d + 1); with p1 = (3/2) eps
        # this is exactly 1 - eps.
        eps = 0.0016
        nm = NoiseModel(1.5 * eps, 0.0)
        basis = [np.array([1, 0]), np.array([0, 1]),
                 np.array([1, 1]) / math.sqrt(2),
                 np.array([1, -1]) / math.sqrt(2),
                 np.array([1, 1j]) / math.sqrt(2),
                 np.array([1, -1j]) / math.sqrt(2)]
        fids = []
        for v in basis:
            rho = np.outer(v, np.conj(v)).astype(complex)
            out = apply_gate(QuantumState.from_density(rho),
                             Gate("RZ", (0,), (0.0,)), noise=nm).density()
            fids.append((np.conj(v) @ out @ v).real)
        f_ave = np.mean(fids)
        p0 = 1.0 - nm.p1
        assert abs(f_ave - (p0 * 2 + 1) / 3) < 1e-14
        assert abs(f_ave - (1.0 - eps)) < 1e-14


ONE_QUBIT_KINDS = ("RX", "RY", "RZ", "X", "H")
TWO_QUBIT_KINDS = ("CNOT", "FSIM", "RPQ")
N_ANGLES = {"RX": 1, "RY": 1, "RZ": 1, "X": 0, "H": 0, "CNOT": 0,
            "FSIM": 2, "RPQ": 1}
NOISES = {"noiseless": None, "zero": NoiseModel(0.0, 0.0),
          "calibrated": calibrate_noise(), "erasing": NoiseModel(0.75, 0.75)}


@st.composite
def random_circuits(draw, angle=st.floats(-math.pi, math.pi)):
    """1-14 gates of every kind, RPQ on any of the nine axis pairs, on 1-4
    qubits, each angle drawn from `angle`; few qubits make runs inside one
    pair, reversed pairs and one-qubit gates on either side of a pair
    common."""
    n = draw(st.integers(1, 4))
    kinds = ONE_QUBIT_KINDS + (TWO_QUBIT_KINDS if n > 1 else ())
    gates = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(kinds))
        arity = 2 if kind in TWO_QUBIT_KINDS else 1
        qubits = tuple(draw(st.permutations(range(n)))[:arity])
        params = tuple(draw(angle) for _ in range(N_ANGLES[kind]))
        axes = (draw(st.sampled_from([(a, b) for a in "XYZ" for b in "XYZ"]))
                if kind == "RPQ" else None)
        gates.append(Gate(kind, qubits, params, axes=axes))
    return Circuit(n, tuple(gates))


def assert_matches_dense_oracles(circuit, noise):
    """The fused `run`, gate-by-gate `apply_gate` and both dense oracles
    agree to 1e-12; without noise the pure backend's `run` and
    gate-by-gate `apply_gate` also match the dense state vector."""
    want = superoperator_density(circuit, noise)
    np.testing.assert_allclose(noisy_density(circuit, noise), want,
                               rtol=0, atol=1e-12)
    fused = run(circuit, noise=noise, mixed=True).density()
    np.testing.assert_allclose(fused, want, rtol=0, atol=1e-12)
    state = zero_state(circuit.n_qubits, mixed=True)
    for gate in circuit.gates:
        state = apply_gate(state, gate, noise=noise)
    np.testing.assert_allclose(state.density(), want, rtol=0, atol=1e-12)
    if noise is None:
        want = dense_state(circuit)
        np.testing.assert_allclose(run(circuit).vector(), want,
                                   rtol=0, atol=1e-12)
        state = zero_state(circuit.n_qubits)
        for gate in circuit.gates:
            state = apply_gate(state, gate)
        np.testing.assert_allclose(state.vector(), want, rtol=0, atol=1e-12)


class TestFusedBlocks:
    @settings(max_examples=60, deadline=None)
    @given(random_circuits(), st.sampled_from(sorted(NOISES)))
    def test_matches_dense_oracles(self, circuit, noise):
        assert_matches_dense_oracles(circuit, NOISES[noise])

    @pytest.mark.parametrize("noise", sorted(NOISES))
    def test_block_boundaries(self, noise):
        gates = (
            # a one-qubit gate on b, then the pair listed as (a, b) and
            # right after as (b, a), then one-qubit gates on either qubit
            Gate("RX", (1,), (0.3,)), Gate("FSIM", (0, 1), (0.7, -1.1)),
            Gate("RPQ", (1, 0), (0.4,), axes=("X", "Y")),
            Gate("RZ", (0,), (1.3,)), Gate("H", (1,)),
            # a new pair sharing qubit 1, entered from its other qubit
            Gate("RY", (2,), (-0.8,)), Gate("CNOT", (1, 2)),
            Gate("RPQ", (2, 1), (0.9,), axes=("Z", "Y")),
            Gate("X", (1,)),
            # two one-qubit gates on different qubits share a block
            Gate("H", (0,)), Gate("RY", (2,), (0.5,)))
        circuit = Circuit(3, gates)
        assert [q for q, _ in _runs(gates)] == [(1, 0), (2, 1), (0, 2)]
        assert_matches_dense_oracles(circuit, NOISES[noise])

    @settings(max_examples=40, deadline=None)
    @given(random_circuits(),
           st.sampled_from((0.0, 0.75)) | st.floats(0.0, 0.75),
           st.sampled_from((0.0, 0.75)) | st.floats(0.0, 0.75))
    def test_any_channel_strengths(self, circuit, p1, p2):
        assert_matches_dense_oracles(circuit, NoiseModel(p1, p2))

    def test_block_counts(self):
        assert len(_runs(build_mrep(2, 4).gates)) == 34
        assert len(_runs(decompose_circuit(build_ldca(8, 1)).gates)) == 32
        assert len(_runs(build_ldca(8, 1).gates)) == 32


def random_density(n: int, rng=RNG) -> np.ndarray:
    """A full-rank density matrix with complex off-diagonal entries."""
    a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n,
                                                               2 ** n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def assert_pauli_tensor(state: QuantumState):
    assert state.kind == "mixed"
    assert state.tensor.dtype == np.float64
    assert state.tensor.shape == (4,) * state.n_qubits


class TestPauliBasis:
    """The mixed backend holds x_P = tr(P rho) in I, X, Y, Z order."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_density_round_trip(self, n):
        rho = random_density(n)
        state = QuantumState.from_density(rho)
        assert_pauli_tensor(state)
        np.testing.assert_allclose(state.density(), rho, rtol=0, atol=1e-15)
        for index in np.ndindex(*state.tensor.shape):
            word = "".join("IXYZ"[i] for i in index)
            want = np.trace(word_mat(word) @ rho)
            assert abs(state.tensor[index] - want) < 1e-14

    def test_known_coefficients(self):
        zero = zero_state(3, mixed=True)
        assert_pauli_tensor(zero)
        for index in np.ndindex(*zero.tensor.shape):
            assert zero.tensor[index] == (set(index) <= {0, 3})
        mixed = QuantumState.from_density(np.eye(8) / 8)
        want = np.zeros((4,) * 3)
        want[0, 0, 0] = 1.0
        np.testing.assert_array_equal(mixed.tensor, want)

    def test_rejects_non_hermitian_density(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            QuantumState.from_density([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="not Hermitian"):
            QuantumState.from_density([[0.6, 0.2 + 0.6e-6], [0.2, 0.4]])

    def test_observable_rejects_malformed_matrices(self):
        for bad in (np.zeros((4, 2)), np.zeros((3, 3)), np.zeros(4),
                    np.zeros((0, 0))):
            with pytest.raises(ValueError, match="power-of-two"):
                Observable(bad)
        skew = np.zeros((64, 64), dtype=complex)
        skew[40, 3] = 1e-9  # outside the first block of rows
        with pytest.raises(ValueError, match="not Hermitian"):
            Observable(skew)
        nan = np.eye(64)
        nan[3, 3] = np.nan  # a NaN in the first block still fails
        with pytest.raises(ValueError, match="not Hermitian"):
            Observable(nan)
        ok = np.eye(4)
        Observable(ok)
        assert ok.flags.writeable

    def test_observable_skew_is_relative_to_its_entries(self):
        # a Fock-space matrix with entries of 1e7 carries rounding skew
        # above 1e-10; a skew of 1e-6 of its largest entry still raises
        q, _ = np.linalg.qr(RNG.normal(size=(16, 16))
                            + 1j * RNG.normal(size=(16, 16)))
        big = 1e7 * (q @ np.diag(RNG.normal(size=16)) @ q.conj().T)
        assert np.abs(big - big.conj().T).max() > MATRIX_TOL
        Observable(big)
        bad = big.copy()
        bad[9, 2] += 1e-6 * np.abs(big).max()
        with pytest.raises(ValueError, match="not Hermitian"):
            Observable(bad)

    @settings(max_examples=30, deadline=None)
    @given(random_circuits(), st.sampled_from(sorted(NOISES)))
    def test_every_mixed_path_returns_pauli_tensor(self, circuit, noise):
        noise = NOISES[noise]
        assert_pauli_tensor(run(circuit, noise=noise, mixed=True))
        gate = circuit.gates[0]
        start = zero_state(circuit.n_qubits, mixed=True)
        assert_pauli_tensor(apply_gate(start, gate, noise=noise))
        if noise is not None:
            identity = pauli_observable({"I" * circuit.n_qubits: 1.0})
            final, _, _ = adjoint_gradient(circuit, identity, noise=noise)
            assert_pauli_tensor(final)

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.75])
    def test_depolarizer_is_diagonal(self, p):
        eye = np.eye(2)[None]
        got = _local(_ptm(eye, eye, NoiseModel(p, 0.0))[0], (1,), (0, 1))
        f = 1.0 - 4.0 * p / 3.0
        np.testing.assert_allclose(got, np.diag(np.kron(np.ones(4),
                                                        [1.0, f, f, f])),
                                   rtol=0, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(random_circuits(), st.sampled_from(sorted(NOISES)),
           st.integers(0, 2 ** 32 - 1))
    def test_expectation_matches_trace(self, circuit, noise, seed):
        obs = random_observable(circuit.n_qubits, 8,
                                np.random.default_rng(seed))
        state = run(circuit, noise=NOISES[noise], mixed=True)
        rho = superoperator_density(circuit, NOISES[noise])
        want = np.trace(rho @ obs.matrix).real
        assert abs(expectation(state, obs) - want) < 1e-12


# (gate qubits, block qubits) of each placement of a one-qubit gate and of
# a pair.
PLACEMENTS = {1: {"alone": ((0,), (0,)), "padded-right": ((0,), (0, 1)),
                  "padded-left": ((1,), (0, 1))},
              2: {"in-order": ((0, 1), (0, 1)),
                  "reversed": ((1, 0), (0, 1))}}
TRANSFER_NOISES = {"noiseless": None, "calibrated": calibrate_noise(),
                   "erasing": NoiseModel(0.75, 0.75)}


class TestTransferMatrices:
    """`_ptm` stacks in the gate's frame, placed into a block by `_local`,
    against explicit traces over Pauli words."""

    @pytest.mark.parametrize("kind, axes, qubits, block", [
        pytest.param(kind, axes, qubits, block,
                     id=f"{kind}{''.join(axes or ())}-{name}")
        for kind, axes in KIND_AXES
        for name, (qubits, block) in PLACEMENTS[
            2 if kind in ("CNOT", "FSIM", "RPQ") else 1].items()])
    @pytest.mark.parametrize("noise", sorted(TRANSFER_NOISES))
    @settings(max_examples=3, deadline=None)
    @given(st.tuples(st.floats(-7, 7), st.floats(-7, 7)))
    def test_values_and_slot_derivatives(self, kind, axes, qubits, block,
                                         noise, angles):
        noise = TRANSFER_NOISES[noise]
        angles = angles[:{"FSIM": 2, "X": 0, "H": 0, "CNOT": 0}.get(kind, 1)]
        gate = Gate(kind, qubits, angles, axes=axes)
        u = gate_stack(kind, [angles], axes)
        got = _local(_ptm(u, u, noise)[0], qubits, block)
        want = oracle_transfer(gate, {}, block, noise)
        assert np.max(np.abs(got - want)) < 1e-14
        for slot in range(len(angles)):
            du = gate_stack(kind, [angles], axes, slot)
            got = 2.0 * _local(_ptm(du, u, noise)[0], qubits, block)
            want = oracle_transfer(gate, {}, block, noise, slot)
            assert np.max(np.abs(got - want)) < 1e-14


def all_kinds_circuit() -> Circuit:
    """Every gate kind on two qubits, with a scaled parameter slot."""
    ref = ParamRef
    return Circuit(2, (Gate("H", (0,)), Gate("X", (1,)),
                       Gate("RX", (0,), (ref("a"),)),
                       Gate("RY", (1,), (ref("b"),)),
                       Gate("RZ", (0,), (ref("c", scale=-2.0),)),
                       Gate("FSIM", (0, 1), (ref("d"), ref("e"))),
                       Gate("RPQ", (0, 1), (ref("f"),), axes=("Y", "X")),
                       Gate("CNOT", (1, 0))))


def random_observable(n: int, n_words: int = 10, rng=RNG,
                      norm: float | None = None) -> Observable:
    """Random words with normal coefficients, scaled to sum |c| = `norm`
    if given."""
    words = PauliSum({"".join(rng.choice(list("IXYZ"), n)): rng.normal()
                      for _ in range(n_words)}, n)
    if norm is not None:
        scale = norm / sum(abs(c) for _, c in words.items())
        words = PauliSum({w: scale * c for w, c in words.items()}, n)
    return pauli_observable(words)


FD_STEP = 1e-6
# Ulps of |<obs>| that one pair of central-difference evaluations may
# differ by through rounding alone.
FD_ROUNDING_ULPS = 4


def assert_gradient_matches_oracle(circuit, obs, noise=None, x=None):
    """Adjoint gradient against central differences of <obs>, to 1e-7
    relative to the largest component, and its final state against `run`
    bit for bit; returns the gradient.

    Below that, the bound is the difference's rounding floor, a few
    ulp(<obs>) / step, with |<obs>| at most the sum of |coefficients|: a
    vanishing gradient of an O(1) observable reads about 1e-10, not 0.
    """
    names = circuit.parameter_names
    if x is None:
        x = RNG.uniform(-math.pi, math.pi, len(names))
    bindings = dict(zip(names, x))
    final, _, got = adjoint_gradient(circuit, obs, bindings, noise=noise)
    assert np.array_equal(final.tensor,
                          run(circuit, bindings, noise=noise).tensor)

    def energy(y):
        return expectation(run(circuit, dict(zip(names, y)), noise=noise),
                           obs)

    want = finite_difference_gradient(energy, x, step=FD_STEP)
    assert got.shape == (len(names),)
    bound = np.abs(obs.coefficients).sum()
    floor = FD_ROUNDING_ULPS * np.spacing(bound) / FD_STEP
    err = np.max(np.abs(got - want))
    assert err <= max(1e-7 * np.max(np.abs(want)), floor)
    return got


# One-qubit channels at full strength erase the qubit they follow; the
# two-qubit rotations acting first keep correlations that later gates read.
ERASING_P1_CIRCUIT = Circuit(3, (
    Gate("RPQ", (0, 1), (ParamRef("u"),), axes=("X", "Y")),
    Gate("RPQ", (1, 2), (ParamRef("v"),), axes=("Y", "Y")),
    Gate("FSIM", (0, 1), (ParamRef("w"), ParamRef("y"))),
    Gate("RY", (2,), (ParamRef("z"),)),
    Gate("RPQ", (1, 2), (ParamRef("t"),), axes=("Z", "X"))))


# Named slots for random circuits: three names shared across gates, some
# slots at scale -2 as in the RPQ expansion.
PARAMETER_SLOTS = st.builds(ParamRef, st.sampled_from("abc"),
                            st.sampled_from((1.0, -2.0)))
GRADIENT_NOISES = {"pure": None, "zero": NoiseModel(0.0, 0.0),
                   "calibrated": calibrate_noise(),
                   "strong": NoiseModel(0.3, 0.2)}


class TestAdjointGradient:
    @settings(max_examples=60, deadline=None)
    @given(random_circuits(PARAMETER_SLOTS),
           st.sampled_from(sorted(GRADIENT_NOISES)),
           st.integers(0, 2 ** 32 - 1))
    def test_random_circuits(self, circuit, noise, seed):
        # One reverse sweep serves both backends: pure blocks of one gate
        # and fused superoperator blocks.  Central differences resolve a
        # derivative only to about ulp(<O>) / 1e-6, which exceeds the
        # helper's 1e-10 floor for |<O>| ~ 1 when a gradient vanishes (H
        # then RX); sum |c| = 1/16 bounds |<O>| and keeps that under 2e-11.
        names = circuit.parameter_names
        assume(names)
        rng = np.random.default_rng(seed)
        obs = random_observable(circuit.n_qubits, 6, rng, norm=1 / 16)
        assert_gradient_matches_oracle(
            circuit, obs, noise=GRADIENT_NOISES[noise],
            x=rng.uniform(-math.pi, math.pi, len(names)))

    def test_all_gate_kinds(self):
        for _ in range(3):
            grad = assert_gradient_matches_oracle(all_kinds_circuit(),
                                                  random_observable(2, 6))
            assert np.max(np.abs(grad)) > 1e-3

    @pytest.mark.parametrize("axes", [a + b for a in "XYZ" for b in "XYZ"])
    def test_rpq_axis_pairs(self, axes):
        circ = Circuit(2, (Gate("RY", (0,), (ParamRef("a"),)),
                           Gate("RX", (1,), (ParamRef("b"),)),
                           Gate("RPQ", (0, 1), (ParamRef("t"),),
                                axes=tuple(axes))))
        obs = random_observable(2, 8)
        assert_gradient_matches_oracle(circ, obs)
        assert_gradient_matches_oracle(circ, obs, noise=calibrate_noise())

    def test_shared_parameter_in_decomposed_ldca_fragment(self):
        # A translation-invariant LDCA fragment: each rotation angle is
        # shared by the blocks on pairs (0,1) and (1,2), and after the RPQ
        # expansion also by the RZ gates at scale -2.
        order = (("X", "Y"), ("Y", "X"), ("X", "X"), ("Z", "Z"), ("Y", "Y"))
        gates = [Gate("RY", (0,), (math.pi,)),
                 Gate("RZ", (1,), (ParamRef("z1"),))]
        for qa, qb in ((0, 1), (1, 2)):
            for pa, pb in order:
                gates.append(Gate("RPQ", (qa, qb),
                                  (ParamRef(f"{pa}{pb}".lower()),),
                                  axes=(pa, pb)))
        native = Circuit(3, tuple(gates))
        expanded = decompose_circuit(native)
        assert native.parameter_names == expanded.parameter_names
        assert len(native.parameter_names) == 6
        obs = random_observable(3, 12)
        x = RNG.uniform(-math.pi, math.pi, 6)
        g_native = assert_gradient_matches_oracle(native, obs, x=x)
        g_expanded = assert_gradient_matches_oracle(expanded, obs, x=x)
        np.testing.assert_allclose(g_expanded, g_native, atol=1e-12)

    def test_mrep_pure_and_noisy(self):
        circ = build_mrep(2, 1)
        obs = random_observable(8, 20)
        assert_gradient_matches_oracle(circ, obs)
        assert_gradient_matches_oracle(circ, obs, noise=calibrate_noise())

    def test_all_gate_kinds_calibrated_noise(self):
        grad = assert_gradient_matches_oracle(all_kinds_circuit(),
                                              random_observable(2, 6),
                                              noise=calibrate_noise())
        assert np.max(np.abs(grad)) > 1e-3

    def test_erasing_one_qubit_channels(self):
        noise = NoiseModel(p1=0.75, p2=calibrate_noise().p2)
        obs = pauli_observable({"ZZI": 1.0, "XYI": 0.7, "YXI": -0.4,
                                "IYZ": 0.3, "ZIX": 0.5, "IIZ": 0.2})
        grad = assert_gradient_matches_oracle(ERASING_P1_CIRCUIT, obs,
                                              noise=noise)
        names = ERASING_P1_CIRCUIT.parameter_names
        # the RY acts on an erased qubit and feeds nothing downstream
        assert grad[names.index("z")] == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(grad)) > 1e-3

    def test_erasing_channels_everywhere_give_zero_gradient(self):
        # p = 3/4 on every gate leaves the maximally mixed state, whatever
        # the angles, so every derivative vanishes; central differences
        # only resolve that down to their rounding floor, so the check
        # is on the energy itself.
        circ = all_kinds_circuit()
        names = circ.parameter_names
        obs = random_observable(2, 6)
        noise = NoiseModel(0.75, 0.75)
        energies = []
        for _ in range(3):
            bindings = dict(zip(names, RNG.uniform(-3, 3, len(names))))
            _, _, grad = adjoint_gradient(circ, obs, bindings, noise=noise)
            assert np.max(np.abs(grad)) < 1e-14
            energies.append(expectation(run(circ, bindings, noise=noise),
                                        obs))
        assert np.ptp(energies) < 1e-14

    @pytest.mark.parametrize("a", [1.5, 2.1])
    def test_vanishing_gradient_of_unit_observable(self, a):
        # RX leaves |+> alone, so d<X>/da = 0 exactly while <X> ~ 1: the
        # central difference reads one rounding step, about 1.1e-10.
        circ = Circuit(1, (Gate("H", (0,)),
                           Gate("RX", (0,), (ParamRef("a"),))))
        grad = assert_gradient_matches_oracle(
            circ, pauli_observable({"X": 1.0}), noise=calibrate_noise(),
            x=np.array([a]))
        assert abs(grad[0]) < 1e-15

    @pytest.mark.parametrize("expand", [False, True])
    def test_block_of_five_rotations(self, expand):
        # Native LDCA puts each pair's five RPQ rotations (35 gates once
        # expanded, with RZ slots at scale -2) into one block.
        circ = build_ldca(4, 1)
        if expand:
            circ = decompose_circuit(circ)
        assert max(sum(1 for g in members if g.param_names())
                   for _, members in _runs(circ.gates)) >= 5
        assert_gradient_matches_oracle(circ, random_observable(4, 12),
                                       noise=calibrate_noise())

    def test_name_shared_inside_one_block(self):
        circ = Circuit(2, (Gate("RY", (0,), (ParamRef("s"),)),
                           Gate("RPQ", (0, 1), (ParamRef("s"),),
                                axes=("X", "Z")),
                           Gate("FSIM", (1, 0), (ParamRef("t"),
                                                 ParamRef("s", 0.5))),
                           Gate("RX", (1,), (ParamRef("t"),))))
        assert len(_runs(circ.gates)) == 1
        obs = random_observable(2, 6)
        for noise in (calibrate_noise(), NoiseModel(0.3, 0.2)):
            grad = assert_gradient_matches_oracle(circ, obs, noise=noise)
            assert np.max(np.abs(grad)) > 1e-3

    def test_scaled_slot_inside_one_block(self):
        circ = Circuit(2, (Gate("H", (0,)),
                           Gate("RZ", (1,), (ParamRef("c", scale=-2.0),)),
                           Gate("CNOT", (0, 1)),
                           Gate("RY", (1,), (ParamRef("a"),)),
                           Gate("RZ", (0,), (ParamRef("c", scale=-2.0),))))
        assert len(_runs(circ.gates)) == 1
        grad = assert_gradient_matches_oracle(circ, random_observable(2, 6),
                                              noise=calibrate_noise())
        assert np.max(np.abs(grad)) > 1e-3

    def test_placements_in_density_matrix_blocks(self):
        # Two blocks, each shared by several kinds: in (0, 1) an RY padded
        # on the right, an RX padded on the left, an FSIM in order and a
        # reversed RPQ; in (2, 1) a reversed FSIM, then an RZ and an RY
        # padded on either side.
        ref = ParamRef
        circ = Circuit(3, (
            Gate("RY", (0,), (ref("a"),)),
            Gate("RX", (1,), (ref("b"),)),
            Gate("FSIM", (0, 1), (ref("c"), ref("d"))),
            Gate("RPQ", (1, 0), (ref("e"),), axes=("X", "Y")),
            Gate("H", (2,)),
            Gate("FSIM", (1, 2), (ref("f"), ref("a", -2.0))),
            Gate("RZ", (2,), (ref("g"),)),
            Gate("RY", (1,), (ref("h"),))))
        assert [q for q, _ in _runs(circ.gates)] == [(0, 1), (2, 1)]
        obs = pauli_observable({"XYZ": 0.6, "ZXY": -0.4, "YZX": 0.5,
                                "XXI": 0.3, "IYY": -0.7, "ZIZ": 0.2,
                                "YIX": 0.4})
        x = np.linspace(-2.5, 2.9, 8)
        for noise in (calibrate_noise(), NoiseModel(0.3, 0.2)):
            grad = assert_gradient_matches_oracle(circ, obs, noise=noise, x=x)
            assert np.min(np.abs(grad)) > 1e-4

    @pytest.mark.parametrize("noise", [None, calibrate_noise()])
    def test_rejects_non_hermitian_observable(self, noise):
        circ = ERASING_P1_CIRCUIT
        bindings = dict.fromkeys(circ.parameter_names, 0.3)
        with pytest.raises(ValueError, match="not Hermitian"):
            adjoint_gradient(circ, pauli_observable({"XYI": 1j}), bindings,
                             noise=noise)

    @pytest.mark.parametrize("noise", [None, calibrate_noise()])
    def test_rejects_observable_on_another_register(self, noise):
        circ = ERASING_P1_CIRCUIT
        bindings = dict.fromkeys(circ.parameter_names, 0.3)
        with pytest.raises(ValueError, match="on 2 qubits, state on 3"):
            adjoint_gradient(circ, pauli_observable({"ZZ": 1.0}), bindings,
                             noise=noise)

    def test_fixed_circuit_has_empty_gradient(self):
        circ = Circuit(1, (Gate("H", (0,)),))
        _, _, grad = adjoint_gradient(circ, pauli_observable({"Z": 1.0}))
        assert grad.shape == (0,)

    def test_unbound_parameter_rejected(self):
        circ = build_hea_nc1()
        with pytest.raises(ValueError, match="unbound"):
            adjoint_gradient(circ, pauli_observable({"IIII": 1.0}),
                             {"a0": 0.1})

    @pytest.mark.parametrize("noise", [None, calibrate_noise()])
    def test_energy_is_the_expectation_of_the_final_state(self, noise):
        # lambda starts as O psi, so the sweep's <O> is `expectation`'s
        # arithmetic on the same final state, bit for bit
        for circ in (build_mrep(2, 1), all_kinds_circuit()):
            obs = random_observable(circ.n_qubits, 12)
            final, energy, _ = adjoint_gradient(
                circ, obs, random_bindings(circ, RNG), noise=noise)
            assert energy == expectation(final, obs)


# Numeric angles and named slots in one circuit: names shared across gates,
# some slots at scale -2.
NUMERIC_OR_NAMED = st.floats(-math.pi, math.pi) | PARAMETER_SLOTS


class TestCompiledPurePath:
    """The pure backend's compiled gather route against the dense oracles."""

    @settings(max_examples=60, deadline=None)
    @given(random_circuits(NUMERIC_OR_NAMED), st.integers(0, 2 ** 32 - 1))
    def test_matches_oracles(self, circuit, seed):
        rng = np.random.default_rng(seed)
        names = circuit.parameter_names
        x = rng.uniform(-math.pi, math.pi, len(names))
        bindings = dict(zip(names, x))
        want = dense_state(circuit, bindings)
        np.testing.assert_allclose(run(circuit, bindings).vector(), want,
                                   rtol=0, atol=1e-12)
        state = zero_state(circuit.n_qubits)
        for gate in circuit.gates:
            before = state.tensor.copy()
            after = apply_gate(state, gate, bindings)
            np.testing.assert_array_equal(state.tensor, before)
            state = after
        np.testing.assert_allclose(state.vector(), want, rtol=0, atol=1e-12)
        if names:  # sum |c| = 1/16 as in TestAdjointGradient
            obs = random_observable(circuit.n_qubits, 6, rng, norm=1 / 16)
            assert_gradient_matches_oracle(circuit, obs, x=x)

    def test_every_kind_with_numeric_scaled_and_shared_slots(self):
        ref = ParamRef
        circ = Circuit(3, (
            Gate("H", (2,)), Gate("X", (0,)),
            Gate("RX", (1,), (ref("a"),)), Gate("RY", (2,), (0.3,)),
            Gate("RZ", (0,), (ref("a", scale=-2.0),)),
            Gate("FSIM", (2, 0), (ref("b"), 0.8)),
            Gate("RPQ", (1, 2), (ref("b", scale=0.5),), axes=("Y", "Z")),
            Gate("CNOT", (2, 1)), Gate("FSIM", (0, 1), (-0.4, ref("c"))),
            Gate("RPQ", (0, 2), (1.1,), axes=("X", "X"))))
        assert {g.kind for g in circ.gates} == VALID_KINDS
        bindings = {"a": 0.7, "b": -1.3, "c": 2.2}
        np.testing.assert_allclose(run(circ, bindings).vector(),
                                   dense_state(circ, bindings),
                                   rtol=0, atol=1e-12)
        grad = assert_gradient_matches_oracle(
            circ, random_observable(3, 10), x=np.array([0.7, -1.3, 2.2]))
        assert np.min(np.abs(grad)) > 1e-6


class TestCompileCache:
    """One compile per circuit and (backend, noise), held on the circuit;
    the numbers come from each call's bindings."""

    def test_results_follow_call_bindings(self):
        circ = build_mrep(2, 1)
        names = circ.parameter_names
        obs = random_observable(8, 12)
        for _ in range(2):
            x = RNG.uniform(-math.pi, math.pi, len(names))
            bindings = dict(zip(names, x))
            np.testing.assert_allclose(run(circ, bindings).vector(),
                                       dense_state(circ, bindings),
                                       rtol=0, atol=1e-12)
            assert_gradient_matches_oracle(circ, obs, x=x)
        final, _, grad = adjoint_gradient(circ, obs, bindings)
        assert np.array_equal(final.tensor, run(circ, bindings).tensor)
        # extra names are ignored, a missing one raises
        again = adjoint_gradient(circ, obs, {**bindings, "unused": 1.0})[2]
        np.testing.assert_array_equal(grad, again)
        with pytest.raises(ValueError, match="unbound"):
            run(circ, {name: bindings[name] for name in names[1:]})

    @staticmethod
    def count_compiles(monkeypatch) -> list:
        calls = []

        def counted(circuit, mixed, noise):
            calls.append(circuit)
            return _compile(circuit, mixed, noise)

        monkeypatch.setattr(simulator, "_compile", counted)
        return calls

    @pytest.mark.parametrize("noise", [None, calibrate_noise()])
    def test_one_compile_per_vqe_start(self, noise, monkeypatch):
        circ = build_hea_nc1()
        obs = pauli_observable({"ZIII": 1.0, "IXXI": 0.5, "IIYY": -0.3})
        calls = self.count_compiles(monkeypatch)
        out = vqe_minimize(obs, circ, noise=noise, seed=3, max_iter=5)
        assert len(out.trace) > 1
        assert calls == [circ]
        # a second start on the same circuit compiles nothing
        vqe_minimize(obs, circ, noise=noise, seed=4, max_iter=5)
        assert calls == [circ]

    def test_equal_circuits_keep_their_own_blocks(self, monkeypatch):
        first, second = build_hea_nc1(), build_hea_nc1()
        values = dict.fromkeys(first.parameter_names, 0.3)
        calls = self.count_compiles(monkeypatch)
        run(first, values)
        run(second, values)
        run(first, values)
        assert [id(c) for c in calls] == [id(first), id(second)]
        assert first.compiled[False, None] is not second.compiled[False, None]
        # the memo is outside equality, hashing and repr
        assert first == second and hash(first) == hash(second)
        assert repr(first) == repr(Circuit(first.n_qubits, first.gates))

    @pytest.mark.parametrize("mixed, noise",
                             [(False, None), (True, None),
                              (True, calibrate_noise())])
    def test_cached_arrays_are_read_only(self, mixed, noise):
        # numeric RY gates and CNOTs are fixed, RZ slots at scale -2 named
        circ = decompose_circuit(build_ldca(4, 1))
        blocks, fixed, kinds, plan = _compile(circ, mixed, noise)
        arrays = [f for f in fixed if f is not None]
        arrays += [a for kind in kinds for a in kind[2:]]
        if mixed:
            steps, (_, start), half = plan
            assert steps and half is None  # CNOTs: no half layout
            arrays += [start]  # the Pauli rest of the untouched factors
        else:
            # a gather into each block and one out, and the |0...0>
            # amplitudes; the CNOTs and the two RY(0) are no blocks
            gathers = [*plan.forward, *plan.backward]
            arrays += [*gathers, plan.start]
            assert len(blocks) == len(circ.gates) - circ.count_cnots() - 2
            assert len(plan.forward) == len(blocks) + 1
            assert len(plan.backward) == len(blocks)
            # equal gathers are one array
            distinct = {(g.shape, g.tobytes()) for g in gathers}
            assert len({id(g) for g in gathers}) == len(distinct)
            assert len(distinct) < len(blocks) // 4
        assert len(arrays) > len(kinds) * 3
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0


def one_qubit_gates() -> Circuit:
    """One-qubit gates only, qubit 2 untouched: no block joins factors."""
    ref = ParamRef
    return Circuit(5, (Gate("RY", (0,), (ref("a"),)), Gate("H", (1,)),
                       Gate("RX", (3,), (ref("b"),)),
                       Gate("RZ", (0,), (ref("c", scale=-2.0),)),
                       Gate("X", (4,)), Gate("RY", (3,), (0.4,)),
                       Gate("RX", (1,), (ref("a"),))))


FACTORED = {"mrep(2,4)": build_mrep(2, 4), "mrep(2,1)": build_mrep(2, 1),
            "ldca(8,1)": build_ldca(8, 1),
            "decomposed ldca(8,1)": decompose_circuit(build_ldca(8, 1)),
            "hea_nc1": build_hea_nc1(), "one-qubit gates": one_qubit_gates()}


def assert_matches_full_register_walk(circuit, noise, mixed, rng):
    """`run` and `adjoint_gradient` against every block walked on the
    whole register: a pure final state bit for bit, a density matrix's
    from the factored start to 1e-14, <O> and gradients to 1e-14; the two
    final states agree bit for bit."""
    bindings = random_bindings(circuit, rng)
    got = run(circuit, bindings, noise=noise, mixed=mixed)
    want = full_register_walk(circuit, bindings, noise, mixed)
    if mixed:
        np.testing.assert_allclose(got.tensor, want, rtol=0, atol=1e-14)
    else:
        assert np.array_equal(got.tensor, want)
    if not circuit.parameter_names or mixed != (noise is not None):
        return
    obs = random_observable(circuit.n_qubits, 12, rng, norm=1.0)
    final, energy, grad = adjoint_gradient(circuit, obs, bindings, noise)
    assert np.array_equal(final.tensor, got.tensor)
    _, want_energy, want = adjoint_gradient(
        unfactored(circuit, mixed, noise), obs, bindings, noise)
    assert abs(energy - want_energy) <= 1e-14
    np.testing.assert_allclose(grad, want, rtol=0, atol=1e-14)


class TestFactoredStart:
    """A density-matrix run starts from n one-qubit factors and forms the
    register at the first block that would join them all; a pure run
    starts from the whole register."""

    @pytest.mark.parametrize("noise", [None, calibrate_noise()],
                             ids=["pure", "calibrated"])
    @pytest.mark.parametrize("name", sorted(FACTORED))
    def test_matches_full_register_walk(self, name, noise):
        assert_matches_full_register_walk(FACTORED[name], noise,
                                          noise is not None, RNG)

    @settings(max_examples=60, deadline=None)
    @given(random_circuits(NUMERIC_OR_NAMED),
           st.sampled_from(sorted(NOISES)), st.integers(0, 2 ** 32 - 1))
    def test_random_circuits(self, circuit, noise, seed):
        rng = np.random.default_rng(seed)
        noise = NOISES[noise]
        assert_matches_full_register_walk(circuit, noise, True, rng)
        if noise is None:
            assert_matches_full_register_walk(circuit, None, False, rng)

    @pytest.mark.parametrize("noise, factored", [
        (calibrate_noise(), [2, 3, 4] * 2),   # six fused preparation blocks
        (None, [])])                          # a pure run has no steps
    def test_mrep_preparation_runs_on_factors(self, noise, factored,
                                              monkeypatch):
        # the steps call `_apply_unitary`, as `_act` does on a density
        # matrix; a pure run's matmuls along its chain count as ()
        shapes = count_passes(monkeypatch)
        circ = build_mrep(2, 4)
        run(circ, random_bindings(circ, RNG), noise=noise)
        # the register forms at the first fSim, (0, 1): 28 register passes,
        # or at the start: one matmul for each of the 40 gates but the ten
        # CNOTs and Xs, which the chain's gathers compose
        register = [8] * 28 if factored else [0] * 30
        assert [len(shape) for shape in shapes] == factored + register


# Pairs listed both ways and on qubits that are not neighbours, with
# one-qubit gates between them.
REVERSED_PAIRS = Circuit(4, (
    Gate("FSIM", (3, 0), (ParamRef("a"), 0.3)), Gate("CNOT", (0, 3)),
    Gate("RPQ", (2, 0), (ParamRef("b"),), axes=("X", "Y")),
    Gate("RY", (2,), (ParamRef("a", scale=-2.0),)),
    Gate("FSIM", (1, 3), (-0.2, ParamRef("c"))), Gate("CNOT", (3, 1)),
    Gate("RPQ", (0, 2), (ParamRef("c"),), axes=("Z", "Z"))))
PURE = {**FACTORED, "mr_nc1": build_mr_nc1(), "reversed pairs": REVERSED_PAIRS}


def bits(array: np.ndarray) -> tuple:
    return array.shape, array.dtype, array.tobytes()


def assert_matches_gather_scatter(circuit, rng):
    """`run`, `adjoint_gradient` and gate-by-gate `apply_gate` against the
    real-plane gather-scatter walk, bit for bit (signed zeros too)."""
    bindings = random_bindings(circuit, rng)
    obs = random_observable(circuit.n_qubits, 12, rng, norm=1.0)
    want, want_energy, want_grad = gather_scatter_walk(circuit, bindings, obs)
    assert bits(run(circuit, bindings).tensor) == bits(want)
    final, energy, grad = adjoint_gradient(circuit, obs, bindings)
    assert bits(final.tensor) == bits(want)
    assert energy == want_energy and bits(grad) == bits(want_grad)
    state = zero_state(circuit.n_qubits)
    for gate in circuit.gates:
        state = apply_gate(state, gate, bindings)
    assert bits(state.tensor) == bits(want)


@st.composite
def permutation_circuits(draw):
    """CNOTs and Xs first, last, back to back and between tuned gates on
    1-4 qubits: 0-3 gates with named slots (RX, RY, RZ, FSIM, RPQ), and
    before, between and after them runs of 1-3 CNOTs and Xs; with no
    tuned gate, one run."""
    n = draw(st.integers(1, 4))

    def permutations() -> list:
        kinds = ("X", "CNOT") if n > 1 else ("X",)
        return [Gate(kind, tuple(draw(st.permutations(range(n))))[
            :2 if kind == "CNOT" else 1])
            for kind in draw(st.lists(st.sampled_from(kinds), min_size=1,
                                      max_size=3))]

    gates = permutations()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("RX", "RY", "RZ", "FSIM", "RPQ")
                                    if n > 1 else ("RX", "RY", "RZ")))
        arity = 2 if kind in TWO_QUBIT_KINDS else 1
        axes = (draw(st.sampled_from([(a, b) for a in "XYZ" for b in "XYZ"]))
                if kind == "RPQ" else None)
        gates.append(Gate(kind, tuple(draw(st.permutations(range(n))))[
            :arity], tuple(draw(PARAMETER_SLOTS)
                           for _ in range(N_ANGLES[kind])), axes=axes))
        gates += permutations()
    return Circuit(n, tuple(gates))


LOG: list = []  # the walk's gathers and matmuls, in order


class Tracked(np.ndarray):
    """Amplitudes that log each gather taken from them and refuse writes."""

    def __getitem__(self, index):
        LOG.append("gather")
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        raise AssertionError("a scatter into the walk's amplitudes")


class Logged:
    """A block matrix that logs each product the walk takes with it."""

    def __init__(self, s):
        self.s = s

    def dot(self, x):
        LOG.append("matmul")
        return self.s.dot(np.asarray(x)).view(Tracked)

    @property
    def T(self):
        return Logged(self.s.T)


class TestPureChain:
    """The pure backend walks a compiled chain on real planes: per block one
    gather of its rows from the previous block's output and one matmul by
    its real form, CNOTs and Xs composed into the gathers, and nothing is
    scattered back."""

    @pytest.mark.parametrize("name", sorted(PURE))
    def test_matches_gather_scatter_walk(self, name):
        assert_matches_gather_scatter(PURE[name], RNG)

    @settings(max_examples=60, deadline=None)
    @given(random_circuits(NUMERIC_OR_NAMED), st.integers(0, 2 ** 32 - 1))
    def test_random_circuits(self, circuit, seed):
        assert_matches_gather_scatter(circuit, np.random.default_rng(seed))

    def test_mrep_walk_steps(self, monkeypatch):
        fuse = simulator._fuse

        def logged_fuse(*args):
            kinds, matrices, plan = fuse(*args)
            return kinds, [Logged(s) for s in matrices], plan._replace(
                start=plan.start.view(Tracked))

        monkeypatch.setattr(simulator, "_fuse", logged_fuse)
        circ = build_mrep(2, 4)
        bindings = random_bindings(circ, RNG)
        LOG.clear()
        run(circ, bindings)
        # entering the first block, between blocks and back to qubit order:
        # 30 blocks, the 2 RY and 28 fSim gates; the 6 CNOTs and 4 Xs of
        # the preparations take no step
        forward = ["gather", "matmul"] * 30 + ["gather"]
        assert LOG == forward
        LOG.clear()
        adjoint_gradient(circ, random_observable(8, 12), bindings)
        # back from O psi: the first block's rows are read, not multiplied
        assert LOG == forward + ["gather", "matmul"] * 29 + ["gather"]

    @settings(max_examples=60, deadline=None)
    @given(permutation_circuits(), st.integers(0, 2 ** 32 - 1))
    def test_permutations_against_kron_products(self, circuit, seed):
        rng = np.random.default_rng(seed)
        bindings = random_bindings(circuit, rng)
        obs = random_observable(circuit.n_qubits, 8, rng, norm=1.0)
        want, want_energy, want_grad = kron_gradient(circuit, obs.matrix,
                                                     bindings)
        np.testing.assert_allclose(run(circuit, bindings).vector(), want,
                                   rtol=0, atol=1e-12)
        state = zero_state(circuit.n_qubits)
        for gate in circuit.gates:
            state = apply_gate(state, gate, bindings)
        np.testing.assert_allclose(state.vector(), want, rtol=0, atol=1e-12)
        final, energy, grad = adjoint_gradient(circuit, obs, bindings)
        assert energy == expectation(final, obs)
        assert abs(energy - want_energy) <= 1e-12
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)
        assert_matches_gather_scatter(circuit, rng)

    def test_apply_gate_compiles_once(self, monkeypatch):
        simulator._circuit.cache_clear()
        calls = TestCompileCache.count_compiles(monkeypatch)
        for state, noise in ((zero_state(3), None),
                             (zero_state(3, mixed=True), calibrate_noise())):
            # two equal gates: one circuit, compiled once per backend
            first = apply_gate(state, Gate("CNOT", (2, 0)), noise=noise)
            again = apply_gate(state, Gate("CNOT", (2, 0)), noise=noise)
            assert bits(again.tensor) == bits(first.tensor)
        assert len(calls) == 2


HALF = (4,) * 7 + (2,)  # an 8-qubit register on its even Pauli words


def even_observable(n: int, n_words: int, rng,
                    norm: float = 1.0) -> Observable:
    """Random words with an even number of X/Y factors, as every
    parity-conserving fermionic observable has (an odd word's last letter
    is swapped I <-> X or Y <-> Z), scaled to sum |c| = `norm`."""
    words = {}
    for _ in range(n_words):
        word = "".join(rng.choice(list("IXYZ"), n))
        if sum(c in "XY" for c in word) % 2:
            word = word[:-1] + {"I": "X", "X": "I", "Y": "Z",
                                "Z": "Y"}[word[-1]]
        words[word] = rng.normal()
    scale = norm / sum(abs(c) for c in words.values())
    return pauli_observable({w: scale * complex(c) for w, c in words.items()},
                            n)


def count_passes(monkeypatch) -> list:
    """The shape of each density-matrix pass (`_apply_unitary`) and, as
    (), each pure-state matmul (one per matrix `_walk` takes)."""
    shapes, apply, walk = [], simulator._apply_unitary, simulator._walk

    def counted_apply(tensor, *args, **kwargs):
        shapes.append(tensor.shape)
        return apply(tensor, *args, **kwargs)

    def counted_walk(x, gathers, matrices, *args):
        shapes.extend([()] * len(matrices))
        return walk(x, gathers, matrices, *args)

    monkeypatch.setattr(simulator, "_apply_unitary", counted_apply)
    monkeypatch.setattr(simulator, "_walk", counted_walk)
    return shapes


EVEN_AXES = [("X", "X"), ("X", "Y"), ("Y", "X"), ("Y", "Y"), ("Z", "Z")]


@st.composite
def even_circuits(draw, angle=NUMERIC_OR_NAMED):
    """3-4 qubits: even preparations on disjoint pairs (RY or RX on one
    qubit, then a CNOT from it to the other, so c|00> + s|11>) and an X or
    nothing on the qubit left over, then 1-12 parity-keeping gates (FSIM, RZ, X and
    RPQ on the five even axis pairs) on any qubits and in any order."""
    n = draw(st.integers(3, 4))
    order = draw(st.permutations(range(n)))
    gates = []
    for k in range(0, n - 1, 2):
        a, b = order[k], order[k + 1]
        gates.append(Gate(draw(st.sampled_from(("RY", "RX"))), (a,),
                          (draw(angle),)))
        gates.append(Gate("CNOT", (a, b)))
    if n % 2 and draw(st.booleans()):
        gates.append(Gate("X", (order[-1],)))
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("FSIM", "RZ", "X", "RPQ")))
        arity = 1 if kind in ("RZ", "X") else 2
        qubits = tuple(draw(st.permutations(range(n)))[:arity])
        params = tuple(draw(angle) for _ in range(N_ANGLES[kind]))
        axes = draw(st.sampled_from(EVEN_AXES)) if kind == "RPQ" else None
        gates.append(Gate(kind, qubits, params, axes=axes))
    return Circuit(n, tuple(gates))


def assert_half_matches_oracles(circuit, noise, rng, observables=()):
    """`run` against the same plan on the whole register (`whole_register`)
    to 1e-15 (a pair listed as (n-1, a) sums its words in another order,
    and one GEMM takes the pair before the last qubit), the full-register
    walk to 1e-14 (as the factored start) and the dense
    superoperator oracle to 1e-12; per observable, the adjoint gradient
    against central differences (1e-7) and the whole register's (1e-12),
    and its final state against `run` bit for bit."""
    bindings = random_bindings(circuit, rng)
    got = run(circuit, bindings, noise=noise, mixed=True)
    whole = whole_register(circuit, noise)
    np.testing.assert_allclose(
        got.tensor, run(whole, bindings, noise=noise, mixed=True).tensor,
        rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        got.tensor, full_register_walk(circuit, bindings, noise, True),
        rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        got.density(), superoperator_density(circuit, noise, bindings),
        rtol=0, atol=1e-12)
    if not circuit.parameter_names or noise is None:
        return
    x = np.array([bindings[name] for name in circuit.parameter_names])
    for obs in observables:
        grad = assert_gradient_matches_oracle(circuit, obs, noise, x)
        np.testing.assert_allclose(
            grad, adjoint_gradient(whole, obs, bindings, noise)[2],
            rtol=0, atol=1e-12)


class TestHalfRegister:
    """A density matrix whose register phase keeps the parity of every
    Pauli word, and whose factors are even at the join, runs on its even
    words: (4,)*(n-1) + (2,) tensors."""

    @settings(max_examples=30, deadline=None)
    @given(even_circuits(), st.sampled_from(["noiseless", "calibrated"]),
           st.integers(0, 2 ** 32 - 1))
    def test_random_parity_keeping_circuits(self, circuit, noise, seed):
        rng = np.random.default_rng(seed)
        noise = NOISES[noise]
        n = circuit.n_qubits
        _, fused, plan = simulator._fuse(
            circuit, random_bindings(circuit, rng), True, noise)
        assert simulator._is_half(simulator._forward(n, fused, plan))
        # sum |c| = 1/16 as in TestAdjointGradient; an observable with odd
        # words takes the whole register on the adjoint sweep
        assert_half_matches_oracles(circuit, noise, rng, (
            even_observable(n, 8, rng, norm=1 / 16),
            random_observable(n, 8, rng, norm=1 / 16)))

    @pytest.mark.parametrize("gate", [
        Gate("RY", (1,), (0.7,)), Gate("CNOT", (2, 1)), Gate("H", (0,)),
        Gate("RPQ", (1, 2), (0.4,), axes=("X", "Z"))])
    def test_other_gates_run_the_whole_register(self, gate, monkeypatch):
        prep = (Gate("RY", (0,), (ParamRef("a"),)), Gate("CNOT", (0, 1)),
                Gate("X", (2,)))
        circ = Circuit(3, prep + (
            Gate("FSIM", (1, 2), (ParamRef("b"), 0.3)), gate,
            Gate("RPQ", (0, 2), (ParamRef("c"),), axes=("X", "Y"))))
        assert _compile(circ, True, None)[3][2] is None
        shapes = count_passes(monkeypatch)
        for noise in (None, calibrate_noise()):
            assert_half_matches_oracles(circ, noise, RNG,
                                        [even_observable(3, 8, RNG)])
        assert (4, 4, 2) not in shapes and (4, 4, 4) in shapes

    def test_odd_factor_runs_the_whole_register(self, monkeypatch):
        # a lone RY leaves qubit 3 odd until the FSIM joins it
        circ = Circuit(4, (Gate("RY", (0,), (ParamRef("a"),)),
                           Gate("CNOT", (0, 1)),
                           Gate("RY", (3,), (ParamRef("b"),)),
                           Gate("X", (2,)),
                           Gate("FSIM", (1, 2), (ParamRef("c"), 0.3)),
                           Gate("RZ", (3,), (ParamRef("d"),))))
        assert _compile(circ, True, None)[3][2] is not None
        # its own generator: the draws do not depend on the tests before it
        rng = np.random.default_rng(1293)
        shapes = count_passes(monkeypatch)
        for noise in (None, calibrate_noise()):
            assert_half_matches_oracles(circ, noise, rng,
                                        [even_observable(4, 8, rng)])
        assert (4, 4, 4, 2) not in shapes and (4,) * 4 in shapes
        # at RY(0) exactly the factor is even, though d/db is odd: only an
        # observable's odd words read it, here Z0 X3, and they take the
        # whole register on the reverse sweep
        x = np.array([0.4, 0.0, -1.1, 0.8])
        for obs, odd in ((even_observable(4, 8, rng, norm=1 / 16), False),
                         (pauli_observable({"ZIIX": 1 / 16}, 4), True)):
            shapes.clear()
            grad = assert_gradient_matches_oracle(circ, obs,
                                                  calibrate_noise(), x)
            assert (abs(grad[1]) > 1e-8) == odd
            assert (4, 4, 4, 2) in shapes

    def test_mrep_runs_on_even_words(self, monkeypatch):
        circ, noise = build_mrep(2, 4), calibrate_noise()
        bindings = random_bindings(circ, RNG)
        obs = even_observable(8, 20, RNG)
        obs.coefficients  # transformed once, with passes of its own
        want = run(whole_register(circ, noise), bindings, noise=noise).tensor
        shapes = count_passes(monkeypatch)
        state = run(circ, bindings, noise=noise)
        np.testing.assert_allclose(state.tensor, want, rtol=0, atol=1e-15)
        prep = [(4, 4), (4, 4, 4), (4, 4, 4, 4)] * 2
        assert shapes == prep + [HALF] * 28
        shapes.clear()
        final, energy, _ = adjoint_gradient(circ, obs, bindings, noise)
        assert np.array_equal(final.tensor, state.tensor)
        assert energy == expectation(state, obs)
        # the half layout, whatever the checkpoint schedule: the forward
        # pass is run's, every register pass is on half words, and the
        # reverse sweep's only passes on whole words are lambda's through
        # five of the six preparation blocks (not the first), on the
        # register made whole at the join
        forward = prep + [HALF] * 28
        assert shapes[:len(forward)] == forward
        assert set(shapes) <= {*prep, HALF, (4,) * 8}
        assert shapes.count((4,) * 8) == 5
        # the exact sequence of the schedule: with R = 28 register blocks
        # the forward pass keeps the factors (block 0) and the registers
        # entering every isqrt(2R) = 7th register block after the first
        # (blocks 13, 20 and 27); going back, each tuned block (the two
        # fused RY+CNOT preparations, 0 and 3, and every fSim) recomputes
        # its entering state from the checkpoint before it, then lambda
        # takes its pass, except before the first block
        checkpoints = (0, 6 + 7, 6 + 14, 6 + 21)
        want = list(forward)
        for k in range(33, -1, -1):
            if k >= 6 or k in (0, 3):
                want += forward[max(m for m in checkpoints if m <= k):k]
            if k:
                want.append(HALF if k >= 6 else (4,) * 8)
        assert shapes == want
        shapes.clear()
        adjoint_gradient(circ, obs, bindings)
        assert shapes == [()] * (30 + 29)

    def test_ldca_runs_on_the_whole_register(self, monkeypatch):
        # Native LDCA keeps parity after its preparation, but RY(pi)
        # leaves odd coefficients of about 1e-16 (cos(pi/2) is not 0 in
        # floating point), so the exact check at the join fails; the
        # decomposed circuit's CNOTs fail the rule itself.
        native = build_ldca(8, 1)
        assert _compile(native, True, None)[3][2] is not None
        decomposed = decompose_circuit(native)
        assert _compile(decomposed, True, None)[3][2] is None
        shapes = count_passes(monkeypatch)
        for circ in (native, decomposed):
            bindings = random_bindings(circ, RNG)
            shapes.clear()
            run(circ, bindings, noise=calibrate_noise())
            assert HALF not in shapes and (4,) * 8 in shapes


def cluster_observable() -> Observable:
    """A two-site cluster Hamiltonian on 8 qubits: parity-even, so
    calibrated mrep(2,4) runs and sweeps on the half register."""
    emb = EmbeddingHamiltonian(n_c=2, u_int=1.3,
                               d_mix=[[0.4, -0.1], [-0.1, 0.35]],
                               lambda_c=[[0.2, 0.05], [0.05, -0.3]], mu=0.65)
    return Observable(hamiltonian_matrix(emb))


# Parameter "a" fills two slots, so its vertex moves two transfer matrices
# and is left to a run; FSIM's numeric second angle stays fixed.
SHARED_NAME = Circuit(4, (
    Gate("RY", (0,), (ParamRef("a"),)), Gate("CNOT", (0, 1)),
    Gate("FSIM", (1, 2), (ParamRef("b"), 0.3)),
    Gate("RY", (3,), (ParamRef("a", scale=-2.0),)),
    Gate("RPQ", (2, 3), (ParamRef("c"),), axes=("X", "Y")),
    Gate("RX", (0,), (ParamRef("d", scale=0.5),))))


def simplex_case(name):
    """(circuit, observable, noise) of each `displaced_energies` check."""
    if name == "calibrated mrep(2,4)":
        return build_mrep(2, 4), cluster_observable(), calibrate_noise()
    if name == "ldca(8,1), complex observable":
        return build_ldca(8, 1), random_observable(8, 12, RNG), \
            calibrate_noise()
    if name == "hea_nc1":
        return build_hea_nc1(), random_observable(4, 8, RNG), \
            calibrate_noise()
    if name == "mrep(2,1) at p = 3/4":
        return build_mrep(2, 1), cluster_observable(), NoiseModel(0.75, 0.75)
    return SHARED_NAME, random_observable(4, 8, RNG), calibrate_noise()


class TestDisplacedEnergies:
    """Nelder-Mead's starting simplex from one sweep against one `run` per
    vertex."""

    @pytest.mark.parametrize("name", [
        "calibrated mrep(2,4)", "ldca(8,1), complex observable", "hea_nc1",
        "mrep(2,1) at p = 3/4", "shared name and numeric slot"])
    def test_matches_one_run_per_vertex(self, name):
        circuit, obs, noise = simplex_case(name)
        x0 = RNG.uniform(-math.pi, math.pi, circuit.n_params)
        x0[1] = 0.0  # scipy moves a zero coordinate to 0.00025
        moved = np.where(x0 != 0, 1.05 * x0, 0.00025)
        bindings = dict(zip(circuit.parameter_names, x0))
        got = simulator.displaced_energies(circuit, obs, bindings, moved,
                                           noise)
        want = simplex_by_runs(circuit, obs, bindings, moved, noise)
        assert got[0] == want[0]  # the forward pass is `run`'s
        shared = [1 + circuit.parameter_names.index("a")] if (
            circuit is SHARED_NAME) else []
        assert [k for k, e in enumerate(got) if e is None] == shared
        for g, w in zip(got, want):
            assert g is None or abs(g - w) <= 1e-12

    def test_calibrated_mrep_keeps_its_bits(self):
        # Calibrated mrep(2,4) `run`, `adjoint_gradient` and
        # `displaced_energies`, hashed bit for bit: the density matrix reads
        # the complex `gate_stack`, which the pure backend's real forms
        # leave as it was (recorded on x86_64 with numpy 2.4 and OpenBLAS
        # 0.3.31, 1 or 2 threads).  A last-bit change here can send noisy
        # Nelder-Mead through a shrink step.
        circ, obs, noise = build_mrep(2, 4), cluster_observable(), \
            calibrate_noise()
        x = np.random.default_rng(31).uniform(-math.pi, math.pi,
                                              circ.n_params)
        bindings = dict(zip(circ.parameter_names, x))
        state = run(circ, bindings, noise=noise)
        final, energy, grad = adjoint_gradient(circ, obs, bindings, noise)
        moved = simulator.displaced_energies(circ, obs, bindings, 1.05 * x,
                                             noise)
        digest = hashlib.sha256()
        for array in (state.tensor, final.tensor, grad, np.array(moved)):
            digest.update(array.tobytes())
        assert energy.hex() == "-0x1.d7bd29d02cd7fp+0"
        assert digest.hexdigest() == ("74266ecc4276afe3d521ba83120bd8f3"
                                      "84d4ff3cabe376bcdee4a3c3c758d1df")

    @pytest.mark.parametrize("sweep", ["adjoint_gradient",
                                       "displaced_energies"])
    def test_sweep_peak_memory_is_a_few_runs(self, sweep):
        # the forward pass keeps a checkpoint every few register blocks,
        # not every entering tensor (about 10 runs' worth on mrep(2,4))
        circ, obs, noise = build_mrep(2, 4), cluster_observable(), \
            calibrate_noise()
        x0 = RNG.uniform(-math.pi, math.pi, circ.n_params)
        bindings = dict(zip(circ.parameter_names, x0))
        calls = {"adjoint_gradient": lambda: adjoint_gradient(
            circ, obs, bindings, noise), "displaced_energies": lambda:
            simulator.displaced_energies(circ, obs, bindings, 1.05 * x0,
                                         noise)}
        calls[sweep]()  # compiles the plan and the observable once

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(calls[sweep]) <= 3 * peak(lambda: run(circ, bindings,
                                                          noise=noise))
