"""Gate matrices, the two-qubit rotation decomposition, and the ansatz
builders, validated against dense oracles and the published censuses."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from risbvqe.circuits import (
    Circuit,
    Gate,
    ParamRef,
    build_hea_nc1,
    build_ldca,
    build_mr_nc1,
    build_mrep,
    decompose_circuit,
    decompose_rpq,
    gate_stack,
)

from oracles import (KIND_AXES, build_product_ry, dense_state,
                     dense_unitary, gate_derivatives, gate_matrix,
                     oracle_rdm1_full, partial_trace, random_bindings)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"X": SX, "Y": SY, "Z": SZ}


def circuit_to_text(circuit):
    """One line per gate: kind (RPQ:<axes>), qubits, parameters."""
    lines = []
    for g in circuit.gates:
        bits = [g.kind if g.axes is None else f"RPQ:{g.axes[0]}{g.axes[1]}"]
        bits += [str(q) for q in g.qubits]
        bits += [str(p) if isinstance(p, ParamRef) else repr(float(p))
                 for p in g.params]
        lines.append(" ".join(bits))
    return "\n".join(lines)


class TestGateMatrix:
    def test_fsim_zero_is_identity(self):
        g = Gate("FSIM", (0, 1), (0.0, 0.0))
        assert np.allclose(gate_matrix(g), np.eye(4))

    def test_fsim_half_pi_swaps(self):
        g = Gate("FSIM", (0, 1), (math.pi / 2, 0.0))
        m = gate_matrix(g)
        psi01 = np.array([0, 1, 0, 0], dtype=complex)
        assert np.allclose(m @ psi01, -1j * np.array([0, 0, 1, 0]))

    def test_fsim_conserves_excitation_number(self):
        rng = np.random.default_rng(0)
        nz = np.kron(SZ, np.eye(2)) + np.kron(np.eye(2), SZ)
        for _ in range(5):
            theta, phi = rng.uniform(-np.pi, np.pi, size=2)
            m = gate_matrix(Gate("FSIM", (0, 1), (theta, phi)))
            assert np.max(np.abs(m @ nz - nz @ m)) < 1e-12

    def test_rpq_matches_exponential(self):
        rng = np.random.default_rng(1)
        for pa in "XYZ":
            for pb in "XYZ":
                theta = rng.uniform(-np.pi, np.pi)
                g = Gate("RPQ", (0, 1), (theta,), axes=(pa, pb))
                target = expm(1j * theta * np.kron(PAULIS[pa], PAULIS[pb]))
                assert np.max(np.abs(gate_matrix(g) - target)) < 1e-12

    def test_unbound_parameter_raises(self):
        g = Gate("RY", (0,), (ParamRef("theta"),))
        with pytest.raises(ValueError, match="unbound"):
            gate_matrix(g, {})

    def test_rotations_are_unitary(self):
        rng = np.random.default_rng(2)
        for kind in ("RX", "RY", "RZ"):
            m = gate_matrix(Gate(kind, (0,), (rng.uniform(-4, 4),)))
            assert np.allclose(m @ m.conj().T, np.eye(2))


class TestGateDerivatives:
    @pytest.mark.parametrize("gate", [
        Gate("RX", (0,), (ParamRef("a"),)),
        Gate("RY", (0,), (ParamRef("a"),)),
        Gate("RZ", (0,), (ParamRef("a", -2.0),)),
        Gate("FSIM", (0, 1), (ParamRef("a"), ParamRef("b", 0.5))),
        Gate("FSIM", (0, 1), (ParamRef("a"), 0.3)),
    ] + [Gate("RPQ", (0, 1), (ParamRef("a", 1.5),), axes=(pa, pb))
         for pa in "XYZ" for pb in "XYZ"])
    def test_match_central_differences(self, gate):
        rng = np.random.default_rng(5)
        step = 1e-6
        for _ in range(3):
            values = {"a": rng.uniform(-4, 4), "b": rng.uniform(-4, 4)}
            derivatives = gate_derivatives(gate, values)
            assert [n for n, _ in derivatives] == gate.param_names()
            for name, got in derivatives:
                up = gate_matrix(gate, {**values, name: values[name] + step})
                down = gate_matrix(gate,
                                   {**values, name: values[name] - step})
                want = (up - down) / (2.0 * step)
                assert np.max(np.abs(got - want)) < 1e-8

    def test_fixed_gates_have_none(self):
        assert gate_derivatives(Gate("CNOT", (0, 1))) == []
        assert gate_derivatives(Gate("RY", (0,), (0.4,))) == []


class TestGateStack:
    """`gate_stack` builds a whole kind at once; `gate_matrix` and
    `gate_derivatives` are its batch of one."""

    @pytest.mark.parametrize("kind, axes", KIND_AXES)
    def test_rows_equal_single_gates(self, kind, axes):
        rng = np.random.default_rng(7)
        n_angles = {"FSIM": 2, "X": 0, "H": 0, "CNOT": 0}.get(kind, 1)
        angles = rng.uniform(-7, 7, (5, n_angles))
        qubits = (0,) if kind in ("RX", "RY", "RZ", "X", "H") else (0, 1)
        stack = gate_stack(kind, angles, axes)
        assert stack.shape == (5, 2 ** len(qubits), 2 ** len(qubits))
        assert stack.dtype == complex
        for row, m in zip(angles, stack):
            names = [f"p{i}" for i in range(n_angles)]
            gate = Gate(kind, qubits, tuple(ParamRef(n, 2.0) for n in names),
                        axes=axes)
            values = dict(zip(names, row / 2.0))
            np.testing.assert_array_equal(gate_matrix(gate, values), m)
            for slot, (name, d) in enumerate(gate_derivatives(gate, values)):
                assert name == names[slot]
                np.testing.assert_array_equal(
                    d, 2.0 * gate_stack(kind, [row], axes, slot)[0])

    def test_numeric_and_named_slots_agree(self):
        gate = Gate("FSIM", (0, 1), (ParamRef("t", -2.0), 0.3))
        numeric = Gate("FSIM", (0, 1), (-2.0 * 0.7, 0.3))
        np.testing.assert_array_equal(gate_matrix(gate, {"t": 0.7}),
                                      gate_matrix(numeric))


class TestDecomposeRpq:
    def test_round_trip_all_axis_pairs(self):
        rng = np.random.default_rng(3)
        for pa in "XYZ":
            for pb in "XYZ":
                theta = rng.uniform(-np.pi, np.pi)
                g = Gate("RPQ", (0, 1), (theta,), axes=(pa, pb))
                frag = Circuit(2, decompose_rpq(g))
                target = np.kron(PAULIS[pa], PAULIS[pb])
                want = math.cos(theta) * np.eye(4) + 1j * math.sin(theta) * target
                got = dense_unitary(frag)
                assert np.max(np.abs(got - want)) < 1e-10

    def test_zz_needs_no_basis_change(self):
        g = Gate("RPQ", (0, 1), (0.7,), axes=("Z", "Z"))
        kinds = [f.kind for f in decompose_rpq(g)]
        assert kinds == ["CNOT", "RZ", "CNOT"]

    def test_xx_uses_ry_basis_changes(self):
        g = Gate("RPQ", (0, 1), (0.7,), axes=("X", "X"))
        frag = decompose_rpq(g)
        kinds = [f.kind for f in frag]
        assert kinds == ["RY", "RY", "CNOT", "RZ", "CNOT", "RY", "RY"]
        assert frag[-1].params == (math.pi / 2,)

    def test_zero_angle_is_identity(self):
        for axes in (("X", "Y"), ("Y", "Y"), ("Z", "X")):
            g = Gate("RPQ", (0, 1), (0.0,), axes=axes)
            frag = Circuit(2, decompose_rpq(g))
            assert np.max(np.abs(dense_unitary(frag) - np.eye(4))) < 1e-12

    def test_named_parameter_scales_into_rz(self):
        g = Gate("RPQ", (0, 1), (ParamRef("a"),), axes=("Y", "Z"))
        rz = [f for f in decompose_rpq(g) if f.kind == "RZ"
              and isinstance(f.params[0], ParamRef)]
        assert len(rz) == 1 and rz[0].params[0].scale == -2.0


def mr_theta(n0):
    return 2.0 * math.asin(math.sqrt(n0))


class TestMrCircuit:
    def test_counts(self):
        c = build_mr_nc1()
        assert c.n_params == 1
        assert c.count_cnots() == 3

    @pytest.mark.parametrize("n0", [0.0, 1.0, 0.3])
    def test_one_rdm_postcondition(self, n0):
        psi = dense_state(build_mr_nc1(), {"theta": mr_theta(n0)})
        rdm = oracle_rdm1_full(psi, 4)
        # mode order (imp_up, bath_up, imp_dn, bath_dn)
        assert np.allclose(rdm, np.diag([n0, 1 - n0, n0, 1 - n0]), atol=1e-10)

    def test_two_determinant_amplitudes(self):
        n0 = 0.3
        psi = dense_state(build_mr_nc1(), {"theta": mr_theta(n0)})
        idx_imp = 0b1010  # both impurity orbitals filled
        idx_bath = 0b0101
        assert abs(psi[idx_imp] - math.sqrt(n0)) < 1e-12
        assert abs(psi[idx_bath] - math.sqrt(1 - n0)) < 1e-12
        mask = np.ones(16, dtype=bool)
        mask[[idx_imp, idx_bath]] = False
        assert np.max(np.abs(psi[mask])) < 1e-12


class TestMrep:
    def test_parameter_census(self):
        assert build_mrep(2, 4).n_params == 58
        assert build_mrep(2, 0).n_params == 2

    def test_unsupported_cluster_size(self):
        with pytest.raises(ValueError):
            build_mrep(3)

    def test_zero_fsim_angles_factorize_into_mr_pairs(self):
        c = build_mrep(2, 2)
        vals = {name: 0.0 for name in c.parameter_names}
        vals["prep_0"] = mr_theta(0.3)
        vals["prep_1"] = mr_theta(0.8)
        psi = dense_state(c, vals)
        for quad, n0 in (((0, 2, 4, 6), 0.3), ((1, 3, 5, 7), 0.8)):
            rho = partial_trace(psi, quad, 8)
            assert abs(np.trace(rho @ rho) - 1.0) < 1e-10  # pure marginal
            mr = dense_state(build_mr_nc1(), {"theta": mr_theta(n0)})
            overlap = mr.conj() @ rho @ mr
            assert abs(overlap - 1.0) < 1e-10

    def test_conserves_particle_number_after_prep(self):
        rng = np.random.default_rng(4)
        c = build_mrep(2, 1)
        vals = {name: rng.uniform(-np.pi, np.pi) for name in c.parameter_names}
        psi = dense_state(c, vals)
        occ = np.array([bin(i).count("1") for i in range(256)])
        weights = np.abs(psi) ** 2
        assert abs(weights @ (occ == 4) - 1.0) < 1e-10

    def test_unitary(self):
        c = build_mrep(2, 4)
        rng = np.random.default_rng(5)
        u = dense_unitary(c, random_bindings(c, rng))
        assert np.max(np.abs(u.conj().T @ u - np.eye(256))) < 1e-12


class TestLdca:
    def test_parameter_census(self):
        assert build_ldca(8, 1).n_params == 148

    def test_gate_census_after_decomposition(self):
        flat = decompose_circuit(build_ldca(8, 1))
        assert flat.count_gates() == 1108
        assert flat.count_cnots() == 280
        assert flat.n_params == 148

    def test_odd_register_rejected(self):
        with pytest.raises(ValueError):
            build_ldca(7, 1)

    def test_zero_angles_prepare_reference(self):
        c = build_ldca(8, 1)
        psi = dense_state(c, dict.fromkeys(c.parameter_names, 0.0))
        ref = 0b11000011  # impurity-up and bath-down occupied
        want = np.zeros(256, dtype=complex)
        want[ref] = 1.0
        assert np.max(np.abs(psi - want)) < 1e-12

    def test_decomposed_circuit_matches_native(self):
        rng = np.random.default_rng(6)
        c = build_ldca(4, 1)
        vals = random_bindings(c, rng)
        u_native = dense_unitary(c, vals)
        u_flat = dense_unitary(decompose_circuit(c), vals)
        assert np.max(np.abs(u_native - u_flat)) < 1e-9


class TestBaselines:
    def test_hea_census(self):
        c = build_hea_nc1()
        assert c.n_params == 8
        assert c.count_cnots() == 3

    def test_hea_zero_angles_reference(self):
        c = build_hea_nc1()
        psi = dense_state(c, dict.fromkeys(c.parameter_names, 0.0))
        want = np.zeros(16, dtype=complex)
        want[0b1001] = 1.0
        assert np.allclose(psi, want)

    def test_product_ry(self):
        c = build_product_ry(4)
        assert c.n_params == 4
        assert all(len(g.qubits) == 1 for g in c.gates)
        psi = dense_state(c, dict.fromkeys(c.parameter_names, 0.0))
        assert abs(psi[0] - 1.0) < 1e-12
        psi_k = dense_state(c, {"t0": 0.0, "t1": 0.0, "t2": math.pi,
                                "t3": 0.0})
        assert abs(abs(psi_k[0b0010]) - 1.0) < 1e-12


class TestCircuitPlumbing:
    def test_parameter_names_computed_once(self):
        c = build_mrep(2, 1)
        names = c.parameter_names
        assert c.parameter_names is names
        assert names[:2] == ("prep_0", "prep_1") and len(names) == 16
        assert Circuit(c.n_qubits, c.gates).parameter_names == names

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (1, 1))
        with pytest.raises(ValueError):
            Gate("RY", (0,), ())
        with pytest.raises(ValueError):
            Circuit(2, (Gate("X", (5,)),))

    def test_serialization_lines(self):
        text = circuit_to_text(build_mr_nc1()).splitlines()
        assert text[0] == "RY 0 theta"
        assert text[1] == "CNOT 0 2"

    def test_all_builders_unitary(self):
        rng = np.random.default_rng(8)
        for c in (build_mr_nc1(), build_hea_nc1(), build_product_ry(4),
                  build_ldca(4, 1)):
            u = dense_unitary(c, random_bindings(c, rng))
            dim = 2 ** c.n_qubits
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12
