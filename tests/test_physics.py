import math

import numpy as np
import pytest

from conftest import dilated_channel
from uhlmann_lab.errors import DimensionMismatch
from uhlmann_lab.physics import (OrthPair, controlled_swap_from_uhlmann,
                                 distinguisher_to_swap, householder_swap,
                                 interference_detect, radiation_channel,
                                 swap_to_distinguisher)
from uhlmann_lab.qcore import (GATES, ChannelDesc, GateCircuit, channel_from_circuit, linalg,
                               random_circuit)
from uhlmann_lab.qcore.random_ops import haar_state_vector, random_clifford
from uhlmann_lab.rng import child_seed, generator
from uhlmann_lab.shannon import decoder_from_uhlmann, decoupling_fidelity


def scrambler_instance(n, r, seed) -> ChannelDesc:
    u = random_clifford(n, seed)
    perm = linalg.permutation_matrix([2 ** (n - r), 2 ** r], [1, 0])
    return dilated_channel(perm @ u, 2, 2 ** (n - 1), (2 ** r, 2 ** (n - r)))


# ---------------------------------------------------------------------------
# Black-hole decoding

def bh_epr_fidelity(circuit: GateCircuit, r: int) -> float:
    """The decoder's EPR fidelity on the radiation channel that ``blackhole
    FILE`` builds: the circuit's two input columns, the last r qubits kept."""
    columns = circuit.apply(np.eye(circuit.dim)[:, [0, circuit.dim // 2]])
    return decoder_from_uhlmann(radiation_channel(columns, r))["fidelity"]


def test_bh_identity_radiation_contains_qubit():
    assert bh_epr_fidelity(GateCircuit(2, ()), 2) > 1 - 1e-8


def test_bh_qubit_dumped_into_horizon():
    # A stays in H (identity circuit, R = the ancilla qubit only): nothing to decode.
    assert bh_epr_fidelity(GateCircuit(2, ()), 1) <= 0.5 + 1e-8


def test_bh_swap_moves_qubit_into_radiation():
    assert bh_epr_fidelity(GateCircuit(2, (("SWAP", (0, 1)),)), 1) > 1 - 1e-8


def test_bh_decode_consistent_with_channel_decoder():
    circuit = GateCircuit(3, (("H", (0,)), ("CNOT", (0, 1)), ("CNOT", (1, 2))))
    # The circuit's channel with the horizon (the first n - r qubits) traced.
    direct = channel_from_circuit(circuit, 1, range(1))
    assert abs(bh_epr_fidelity(circuit, 2) - decoder_from_uhlmann(direct)["fidelity"]) < 1e-9
    # The two input columns give that channel; no unitary is needed.
    unitary = circuit.apply(np.eye(circuit.dim, dtype=complex))
    sliced = radiation_channel(unitary[:, [0, 4]], 2)
    assert np.abs(direct.isometry - sliced.isometry).max() < 1e-15
    with pytest.raises(DimensionMismatch):
        radiation_channel(unitary, 2)
    for n, r in ((1, 1), (3, 0), (3, 4)):
        with pytest.raises(DimensionMismatch):
            radiation_channel(np.eye(2 ** n)[:, [0, 2 ** n // 2]], r)


def test_bh_clifford_scrambler():
    ch = scrambler_instance(6, 4, child_seed(3, "scr", 0))
    dec = decoupling_fidelity(ch)
    assert dec >= 0.99
    res = decoder_from_uhlmann(ch)
    assert res["fidelity"] >= 0.98


# ---------------------------------------------------------------------------
# Swap <-> distinguish

def test_x_gate_distinguishes_plus_minus():
    dist = swap_to_distinguisher(GATES["X"], pair=(np.array([1.0, 0]),
                                                   np.array([0, 1.0])))
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    assert dist.run(plus)["p0"] > 1 - 1e-9
    assert dist.run(minus)["p1"] > 1 - 1e-9


def test_hadamard_distinguisher_gives_x_swap():
    got = distinguisher_to_swap(GATES["H"])
    assert np.linalg.norm(got - GATES["X"], ord=np.inf) < 1e-12


def test_swap_contract_checked():
    with pytest.raises(DimensionMismatch):
        swap_to_distinguisher(np.eye(2), pair=(np.array([1.0, 0]), np.array([0, 1.0])))


def test_householder_roundtrip_on_span():
    rng = generator(8)
    for trial in range(10):
        psi = haar_state_vector(8, rng)
        phi = haar_state_vector(8, rng)
        phi = phi - psi * (psi.conj() @ phi)
        phi = phi / np.linalg.norm(phi)
        # Make the inner product exactly real (zero) and build the swap.
        u = householder_swap(psi, phi)
        assert np.linalg.norm(u @ psi - phi) < 1e-9
        v = swap_to_distinguisher(u, (psi, phi))
        w = distinguisher_to_swap(v.unitary())
        for vec in (psi, phi):
            joint = np.zeros(16, dtype=complex)
            joint[:8] = vec
            expect = np.zeros(16, dtype=complex)
            expect[:8] = u @ vec
            assert np.linalg.norm(w @ joint - expect) < 1e-8
        # The distinguisher succeeds deterministically.
        assert v.run((psi + phi) / math.sqrt(2))["p0"] > 1 - 1e-9
        assert v.run((psi - phi) / math.sqrt(2))["p1"] > 1 - 1e-9


# ---------------------------------------------------------------------------
# Controlled swap from one Uhlmann solve

def test_controlled_swap_single_qubit_pair():
    pair = OrthPair(C=GateCircuit(1, ()), D=GateCircuit(1, (("X", (0,)),)))
    ctrl = controlled_swap_from_uhlmann(pair)
    c, d = pair.vectors()
    cases = [(0, c, c), (0, d, d), (1, c, d), (1, d, c)]
    for flag, vin, vout in cases:
        e = np.array([1.0, 0]) if flag == 0 else np.array([0, 1.0])
        assert np.linalg.norm(ctrl @ np.kron(e, vin) - np.kron(e, vout)) < 1e-8


def test_controlled_swap_gram_schmidt_pair():
    # C = |00>, D = the EPR state orthogonalized against it (= |11>).
    epr = np.array([1, 0, 0, 1.0]) / math.sqrt(2)
    c = np.array([1.0, 0, 0, 0])
    d = epr - c * (c @ epr)
    d = d / np.linalg.norm(d)
    pair = OrthPair(C=GateCircuit(2, ()), D=GateCircuit(2, (("X", (0,)), ("X", (1,)))))
    assert np.array_equal(pair.vectors()[1], d)
    ctrl = controlled_swap_from_uhlmann(pair)
    for flag, vin, vout in ((0, c, c), (0, d, d), (1, c, d), (1, d, c)):
        e = np.eye(2)[flag]
        assert np.linalg.norm(ctrl @ np.kron(e, vin) - np.kron(e, vout)) < 1e-8


def test_controlled_swap_block_structure():
    rng = generator(31)
    circ = random_circuit(3, 12, rng)
    pair = OrthPair(C=circ, D=GateCircuit(3, (("X", (1,)),) + circ.gates))
    ctrl = controlled_swap_from_uhlmann(pair)
    c, d = pair.vectors()
    span = np.stack([c, d], axis=1)
    # Off-diagonal control blocks vanish on the span.
    top_right = ctrl[:8, 8:]
    bottom_left = ctrl[8:, :8]
    assert np.linalg.norm(top_right @ span, ord=np.inf) < 1e-8
    assert np.linalg.norm(bottom_left @ span, ord=np.inf) < 1e-8
    # Diagonal blocks act as identity and swap on the span.
    u0, u1 = ctrl[:8, :8], ctrl[8:, 8:]
    assert np.linalg.norm(u0 @ span - span, ord=np.inf) < 1e-8
    assert np.linalg.norm(u1 @ span - span[:, ::-1], ord=np.inf) < 1e-8


def test_interference_detection_sweep():
    correct = 0
    for seed in range(50):
        rng = generator(child_seed(17, "sweep", seed))
        circ = random_circuit(3, 15, rng)
        pair = OrthPair(C=circ, D=GateCircuit(3, (("X", (0,)),) + circ.gates))
        c, d = pair.vectors()
        correct += interference_detect(pair, (c + d) / math.sqrt(2)) == 0
        correct += interference_detect(pair, (c - d) / math.sqrt(2)) == 1
    assert correct == 100


def test_interference_promise_violation_detected():
    pair = OrthPair(C=GateCircuit(1, ()), D=GateCircuit(1, (("X", (0,)),)))
    with pytest.raises(ValueError):
        interference_detect(pair, np.array([1.0, 0]))


def test_orth_pair_holds_its_vectors():
    c = GateCircuit(2, (("H", (1,)),))
    d = GateCircuit(2, (("X", (0,)), ("H", (1,))))
    pair = OrthPair(C=c, D=d)
    assert pair.vectors() is pair.vectors()
    a, b = pair.vectors()
    assert np.array_equal(a, c.state()) and np.array_equal(b, d.state())
    assert not (a.flags.writeable or b.flags.writeable)
    same = OrthPair(C=c, D=d)
    assert same == pair and hash(same) == hash(pair)
