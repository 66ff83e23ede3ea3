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


def _per_gate_random_circuit(n_qubits: int, n_gates: int, rng) -> GateCircuit:
    """``random_circuit`` as numpy's per-gate draws: the oracle of its decoding."""
    names = sorted(GATES)
    gates = []
    for _ in range(n_gates):
        g = names[rng.integers(len(names))]
        if g in TWO_QUBIT:
            if n_qubits < 2:
                g = "H"
                gates.append((g, (int(rng.integers(n_qubits)),)))
                continue
            q = rng.choice(n_qubits, size=2, replace=False)
            gates.append((g, (int(q[0]), int(q[1]))))
        else:
            gates.append((g, (int(rng.integers(n_qubits)),)))
    return GateCircuit(n_qubits, tuple(gates))


@pytest.mark.parametrize("n_qubits", range(1, 13))
def test_random_circuit_draws_what_the_per_gate_calls_draw(n_qubits):
    # Equal gates and an equal generator state after, for two circuits drawn
    # in a row from one generator; odd seeds start on a buffered 32-bit word.
    for n_gates in (0, 1, 5, 20, 60):
        for seed in range(30):
            batched, per_gate = generator(seed), generator(seed)
            if seed % 2:
                batched.integers(2 ** 32, dtype=np.uint32)
                per_gate.integers(2 ** 32, dtype=np.uint32)
            for _ in range(2):
                assert random_circuit(n_qubits, n_gates, batched) == \
                    _per_gate_random_circuit(n_qubits, n_gates, per_gate)
                assert batched.bit_generator.state == per_gate.bit_generator.state


def test_random_circuit_redraws_a_word_that_lemire_rejects():
    # A buffered word of 0 is rejected for the 11 gate names: m mod 2^32 = 0
    # lies below (2^32 - 11) mod 11 = 4.
    state = generator(3).bit_generator.state
    state.update(has_uint32=1, uinteger=0)
    batched, per_gate = generator(3), generator(3)
    batched.bit_generator.state = per_gate.bit_generator.state = state
    assert random_circuit(4, 20, batched) == _per_gate_random_circuit(4, 20, per_gate)
    assert batched.bit_generator.state == per_gate.bit_generator.state


def test_random_circuit_draws_more_words_when_rejections_use_up_the_batch():
    # Its first batch is all zero words, each rejected for the 11 names: the
    # next batch is decoded as the per-gate calls decode the same stream.
    class ZeroFirstBatch:
        def __init__(self, rng):
            self.bit_generator, self.rng = rng.bit_generator, rng

        def integers(self, high, size, dtype):
            self.integers = self.rng.integers
            return np.zeros(size, dtype)

    assert random_circuit(3, 5, ZeroFirstBatch(generator(8))) == \
        _per_gate_random_circuit(3, 5, generator(8))


def test_gate_of_the_wrong_size_for_its_targets_is_refused():
    for gates in ((("H", (0, 1)),), (("CNOT", (0,)),)):
        with pytest.raises(DimensionMismatch):
            GateCircuit(2, gates).state()
