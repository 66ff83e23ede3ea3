import numpy as np
import pytest

from uhlmann_lab.errors import DimensionMismatch
from uhlmann_lab.qcore import GATES, GateCircuit, random_circuit
from uhlmann_lab.qcore.gates import TWO_QUBIT, circuit_states, run_gates
from uhlmann_lab.rng import generator

from conftest import gate_by_gate, kron_oracle_unitary


def test_all_gate_matrices_exactly_unitary():
    for name, m in GATES.items():
        err = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]), ord=np.inf)
        assert err < 1e-15, name


def test_h_on_zero():
    circ = GateCircuit(1, (("H", (0,)),))
    assert np.allclose(circ.state(), np.array([1, 1]) / np.sqrt(2), atol=1e-12)


def test_empty_circuit_is_identity():
    psi = generator(3).standard_normal(8) + 1j * generator(4).standard_normal(8)
    psi = psi / np.linalg.norm(psi)
    assert np.allclose(GateCircuit(3, ()).apply(psi), psi, atol=1e-14)


def test_random_circuit_matches_kron_oracle():
    rng = generator(7)
    for trial in range(5):
        circ = random_circuit(4, 10, rng)
        oracle = kron_oracle_unitary(circ)
        u = circ.apply(np.eye(circ.dim, dtype=complex))
        assert np.linalg.norm(u - oracle, ord=np.inf) < 1e-12
        # Application on |0000> commutes with dense materialization.
        direct = circ.state()
        assert np.linalg.norm(direct - oracle[:, 0]) < 1e-12
        # So does application to a few basis columns at once.
        picked = circ.apply(np.eye(16)[:, [0, 5, 15]])
        assert np.linalg.norm(picked - oracle[:, [0, 5, 15]], ord=np.inf) < 1e-12


def test_circuit_unitarity_invariant():
    rng = generator(11)
    for trial in range(5):
        circ = random_circuit(3, 20, rng)
        u = circ.apply(np.eye(circ.dim, dtype=complex))
        assert np.linalg.norm(u.conj().T @ u - np.eye(8), ord=np.inf) < 1e-10


def _read(gates, n_qubits=2):
    return GateCircuit.from_json_dict({"n_qubits": n_qubits,
                                       "gates": [{"g": g, "q": q} for g, q in gates]})


def test_circuit_validation_errors():
    with pytest.raises(DimensionMismatch):
        _read([("H", [5])])
    with pytest.raises(ValueError, match="repeated"):
        _read([("CNOT", [0, 0])])
    with pytest.raises(ValueError, match="unknown gate"):
        _read([("NOPE", [0])])
    with pytest.raises(ValueError, match="takes 2"):
        _read([("CNOT", [0])])
    for n_qubits in (0, 65, 2 ** 40):  # 2^(2^40) is never formed
        with pytest.raises(ValueError, match=r"n_qubits must lie in \[1, 64\]"):
            _read([], n_qubits=n_qubits)
    for bad in (0.5, True, "0"):
        with pytest.raises(TypeError, match="gate target q must be an integer"):
            _read([("H", [bad])])
    with pytest.raises(TypeError, match="n_qubits must be an integer"):
        _read([], n_qubits=2.0)
    with pytest.raises(DimensionMismatch):
        GateCircuit(2, ()).apply(np.ones(3) / np.sqrt(3))
    read = _read([("H", [0]), ("CNOT", [0, 1])])
    assert read == GateCircuit(2, (("H", (0,)), ("CNOT", (0, 1))))


def _every_gate(n_qubits: int) -> GateCircuit:
    """Each gate of GATES on the last qubits (in reverse order), then on the first."""
    gates = []
    for g in GATES:
        if g not in TWO_QUBIT:
            gates += [(g, (n_qubits - 1,)), (g, (0,))]
        elif n_qubits > 1:
            gates += [(g, (n_qubits - 1, n_qubits - 2)), (g, (0, 1))]
    return GateCircuit(n_qubits, tuple(gates))


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5, 6])
def test_gate_loop_equals_gate_by_gate_application_bit_for_bit(n_qubits):
    # Circuits of unequal lengths, the empty one included, and every gate of
    # GATES, simulated together; the one-circuit stack of GateCircuit.apply too.
    rng = generator(100 + n_qubits)
    circuits = [random_circuit(n_qubits, int(rng.integers(0, 25)), rng) for _ in range(30)]
    circuits += [GateCircuit(n_qubits, ()), _every_gate(n_qubits)]
    assert {g for c in circuits for g, _ in c.gates} >= (
        set(GATES) if n_qubits > 1 else set(GATES) - TWO_QUBIT)
    states = circuit_states(circuits)
    assert states.shape == (len(circuits), 2 ** n_qubits)
    for circ, row in zip(circuits, states):
        want = gate_by_gate(circ)
        assert np.array_equal(row, want)
        assert np.array_equal(circ.state(), want)
    columns = np.eye(2 ** n_qubits)[:, ::2]
    for circ in circuits[-2:] + circuits[:3]:
        assert np.array_equal(circ.apply(columns), gate_by_gate(circ, columns))


def test_gate_loop_runs_each_row_through_its_own_circuit():
    # Row i of any starting stack goes through circuit i only.
    rng = generator(9)
    circuits = [random_circuit(3, 12, rng) for _ in range(5)]
    stack = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    want = [gate_by_gate(c, v) for c, v in zip(circuits, stack)]
    assert np.array_equal(run_gates(circuits, stack.copy(), (2, 2, 2)), want)


def test_gate_of_the_wrong_size_for_its_targets_is_refused():
    for gates in ((("H", (0, 1)),), (("CNOT", (0,)),)):
        with pytest.raises(DimensionMismatch):
            GateCircuit(2, gates).state()
