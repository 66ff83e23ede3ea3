import math

import numpy as np
import pytest

from conftest import dilated_channel, gate_by_gate
from uhlmann_lab.crypto import (CommitmentScheme, assess, evaluate, flavor_switch,
                                optimal_binding_attack, random_scheme, random_schemes,
                                tensor_amplify)
from uhlmann_lab.qcore import BipartiteState, fidelity, random_circuit
from uhlmann_lab.qcore.channels import ChannelDesc
from uhlmann_lab.qcore.random_ops import haar_unitary
from uhlmann_lab.rng import as_seed, child_seed, generator
from uhlmann_lab.uhlmann import instance_with_fidelity


def _raw_scheme(seed, dC=2, dR=2):
    from uhlmann_lab.qcore.random_ops import haar_state_vector
    rng = generator(seed)
    return CommitmentScheme(raw_states=(
        BipartiteState(haar_state_vector(dC * dR, rng), (dC, dR)),
        BipartiteState(haar_state_vector(dC * dR, rng), (dC, dR))))


def test_equal_states_perfectly_hiding():
    s = BipartiteState(np.array([1, 0, 0, 0.0]), (2, 2))
    rep = evaluate(CommitmentScheme(raw_states=(s, s)))
    assert rep.hiding_stat < 1e-12
    assert abs(rep.binding_opt - 1.0) < 1e-12


def test_revealing_scheme_perfectly_binding():
    s0 = BipartiteState(np.array([1, 0, 0, 0.0]), (2, 2))
    s1 = BipartiteState(np.array([0, 0, 0, 1.0]), (2, 2))
    rep = evaluate(CommitmentScheme(raw_states=(s0, s1)))
    assert abs(rep.hiding_stat - 1.0) < 1e-12
    assert rep.binding_opt < 1e-12


def test_optimal_attack_achieves_binding_fidelity():
    for seed in range(10):
        scheme = _raw_scheme(seed)
        rep = evaluate(scheme, attack=optimal_binding_attack(
            *(s.as_matrix() for s in scheme.states())))
        assert abs(rep.binding_attack - rep.binding_opt) < 1e-8


def test_no_sampled_attack_beats_binding_opt():
    rng = generator(5)
    for seed in (99, 100, 101):
        scheme = _raw_scheme(seed)
        base = evaluate(scheme).binding_opt
        for _ in range(100):
            rep = evaluate(scheme, attack=haar_unitary(2, rng))
            assert rep.binding_attack <= base + 1e-8


def test_attack_channel_interface():
    scheme = _raw_scheme(7)
    u = optimal_binding_attack(*(s.as_matrix() for s in scheme.states()))
    as_channel = ChannelDesc(u, (2, 1))
    rep = evaluate(scheme, attack=as_channel)
    assert abs(rep.binding_attack - rep.binding_opt) < 1e-8


def test_binding_attack_fidelity_matches_dense_formula():
    from uhlmann_lab.crypto import binding_attack_fidelity
    rng = generator(12)
    for seed, (dC, dR) in ((21, (2, 2)), (22, (2, 3)), (23, (3, 2))):
        scheme = _raw_scheme(seed, dC, dR)
        s0, s1 = scheme.states()
        target = s1.density().matrix
        # Unitary branch: the pure output (id ⊗ U)|psi_0>.
        u = haar_unitary(dR, rng)
        out = np.kron(np.eye(dC), u) @ s0.amplitudes
        want = fidelity(np.outer(out, out.conj()), target)
        assert abs(binding_attack_fidelity(scheme, u) - want) < 1e-12
        assert abs(want - abs(np.vdot(s1.amplitudes, out)) ** 2) < 1e-12
        # Channel branch: the Kraus sum on the reveal register.
        ch = dilated_channel(haar_unitary(2 * dR, rng), dR, 2, (dR, 2))
        rho = s0.density().matrix
        rho = sum(np.kron(np.eye(dC), k) @ rho @ np.kron(np.eye(dC), k).conj().T
                  for k in ch.kraus_operators())
        got = binding_attack_fidelity(scheme, ch)
        assert abs(got - fidelity(rho, target)) < 1e-12
        assert abs(got - np.real(s1.amplitudes.conj() @ rho @ s1.amplitudes)) < 1e-12


def test_evaluate_matches_dense_reduced_states():
    from uhlmann_lab.qcore import trace_distance
    for seed, (dC, dR) in ((31, (2, 2)), (32, (2, 5)), (33, (5, 2))):
        scheme = _raw_scheme(seed, dC, dR)
        s0, s1 = scheme.states()
        rep = evaluate(scheme)
        assert abs(rep.hiding_stat - trace_distance(s0.reduced_a(), s1.reduced_a())) < 1e-12
        assert abs(rep.binding_opt - fidelity(s0.reduced_a(), s1.reduced_a())) < 1e-10


def test_attack_dimension_mismatch():
    from uhlmann_lab.errors import DimensionMismatch
    scheme = _raw_scheme(7)
    with pytest.raises(DimensionMismatch):
        evaluate(scheme, attack=np.eye(3))
    with pytest.raises(DimensionMismatch):
        evaluate(scheme, attack=ChannelDesc(np.eye(4), (4, 1)))


def test_mayers_lo_chau_tradeoff():
    for seed in range(200):
        scheme = random_scheme(2, 2, 20, child_seed(1, "mlc", seed))
        rep = evaluate(scheme)
        assert rep.hiding_stat >= 1 - math.sqrt(rep.binding_opt) - 1e-9


def test_flavor_switch_law():
    worst = -1.0
    for seed in range(100):
        scheme = random_scheme(2, 2, 18, child_seed(2, "fl", seed))
        rep = evaluate(scheme)
        switched = evaluate(flavor_switch(scheme))
        worst = max(worst, switched.hiding_stat - math.sqrt(rep.binding_opt))
    assert worst <= 1e-8


def test_flavor_switch_degenerate_cases():
    # Perfectly binding, hiding-broken input: switched scheme perfectly hiding.
    s0 = BipartiteState(np.array([1, 0, 0, 0.0]), (2, 2))
    s1 = BipartiteState(np.array([0, 0, 0, 1.0]), (2, 2))
    switched = evaluate(flavor_switch(CommitmentScheme(raw_states=(s0, s1))))
    assert switched.hiding_stat < 1e-9
    # psi_0 = psi_1: switched binding reflects original hiding (= 0 -> 1).
    same = CommitmentScheme(raw_states=(s0, s0))
    switched = evaluate(flavor_switch(same))
    assert switched.hiding_stat <= 1.0 + 1e-12


def test_tensor_amplify():
    scheme = _raw_scheme(3)
    rep = evaluate(scheme)
    assert tensor_amplify(scheme, 1) is scheme
    rep4 = evaluate(tensor_amplify(scheme, 4))
    assert abs(rep4.binding_opt - rep.binding_opt ** 4) < 1e-9
    assert rep4.hiding_stat <= 4 * rep.hiding_stat + 1e-9
    circ_scheme = random_scheme(1, 1, 10, 8)
    doubled = tensor_amplify(circ_scheme, 2)
    assert doubled.states()[0].split == (4, 4)
    repc = evaluate(circ_scheme)
    repd = evaluate(doubled)
    assert abs(repd.binding_opt - repc.binding_opt ** 2) < 1e-9


def test_tensor_amplify_frozen_exponent():
    # binding_opt = 0.9 by construction; fourth power is 0.6561 exactly.
    s0 = BipartiteState(np.array([1.0, 0, 0, 0]), (2, 2))
    s1 = BipartiteState(np.array([math.sqrt(0.9), 0, math.sqrt(0.1), 0]), (2, 2))
    scheme = CommitmentScheme(raw_states=(s0, s1))
    assert abs(evaluate(scheme).binding_opt - 0.9) < 1e-12
    assert abs(evaluate(tensor_amplify(scheme, 4)).binding_opt - 0.6561) < 1e-9


def test_tensor_amplify_keeps_perfect_hiding():
    s = BipartiteState(np.array([1, 0, 0, 0.0]), (2, 2))
    scheme = CommitmentScheme(raw_states=(s, s))
    for k in (2, 3):
        assert evaluate(tensor_amplify(scheme, k)).hiding_stat < 1e-10


def test_commitment_from_instance():
    # The instance's states as a scheme, commit register = register A.
    x = instance_with_fidelity(1.0, 2, 2, 4)
    rep = evaluate(CommitmentScheme(x.raw_pair))
    assert rep.hiding_stat < 1e-8
    x = instance_with_fidelity(0.99, 2, 2, 5)
    rep = evaluate(CommitmentScheme(x.raw_pair))
    assert abs(rep.binding_opt - 0.99) < 1e-9
    assert rep.hiding_stat <= math.sqrt(1 - 0.99) + 1e-9
    x = instance_with_fidelity(0.0, 2, 2, 6)
    rep = evaluate(CommitmentScheme(x.raw_pair))
    assert rep.binding_opt < 1e-9


def test_circuit_scheme_holds_its_states():
    scheme = random_scheme(1, 2, 8, 17)
    rng = as_seed(17).child("scheme").generator()
    circuits = [random_circuit(3, 8, rng) for _ in range(2)]
    files = [{"n_qubits": 3, "gates": [{"g": g, "q": list(qs)} for g, qs in c.gates]}
             for c in circuits]
    # Commit register = qubit 2, so the held states are reordered (2 | 0, 1).
    moved = CommitmentScheme.from_json_dict({"C0": files[0], "C1": files[1], "commit": [2]})
    first = CommitmentScheme.from_json_dict({"C0": files[0], "C1": files[1], "commit": [0]})
    for s in (scheme, moved, first):
        assert s.states() is s.states()
        assert s.states()[0].split == (2, 4)
    for held, circ in zip(moved.states(), circuits):
        want = np.transpose(circ.state().reshape(2, 2, 2), (2, 0, 1)).reshape(-1)
        assert np.array_equal(held.amplitudes, want)
    for s in (scheme, first):
        for held, circ in zip(s.states(), circuits):
            assert np.array_equal(held.amplitudes, circ.state())


@pytest.mark.parametrize("split", [(2, 2), (2, 8), (8, 2), (1, 4), (4, 1)])
def test_assessed_stack_equals_each_scheme_bit_for_bit(split):
    # Random schemes, and two whose attack has rank 0 (orthogonal commit
    # registers): one stack against evaluate, the optimal attack and
    # flavor_switch scheme by scheme. dR > dC takes reduce_factor's QR.
    dC, dR = split
    schemes = [_raw_scheme(50 + i, dC, dR) for i in range(5)]
    if dC > 1:
        first, last = np.zeros((dC, dR)), np.zeros((dC, dR))
        first[0, 0], last[dC - 1, dR - 1] = 1.0, 1.0
        for a, b in ((first, last), (last, first)):
            schemes.append(CommitmentScheme(
                (BipartiteState(a.reshape(-1), split), BipartiteState(b.reshape(-1), split))))
    m0, m1 = (np.stack([sc.states()[b].as_matrix() for sc in schemes]) for b in (0, 1))
    hiding, binding, attack, switched = assess(m0, m1)
    for i, scheme in enumerate(schemes):
        rep = evaluate(scheme, attack=optimal_binding_attack(
            *(s.as_matrix() for s in scheme.states())))
        assert (hiding[i], binding[i], attack[i]) == (
            rep.hiding_stat, rep.binding_opt, rep.binding_attack)
        assert switched[i] == evaluate(flavor_switch(scheme)).hiding_stat
    if dC > 1:
        assert binding[-1] == binding[-2] == 0.0 and hiding[-1] == 1.0


def test_random_schemes_draw_each_scheme_from_its_own_stream():
    # The stack holds, bit for bit, each seed's two circuits run gate by gate.
    seeds = [child_seed(4, "block", i) for i in range(7)]
    m0, m1 = random_schemes(1, 3, 12, seeds)
    assert m0.shape == m1.shape == (7, 2, 8)
    for i, seed in enumerate(seeds):
        rng = as_seed(seed).child("scheme").generator()
        for m in (m0, m1):
            assert np.array_equal(m[i].reshape(-1), gate_by_gate(random_circuit(4, 12, rng)))


@pytest.mark.parametrize("commit, error", [
    ([], "partition"), ([0, 1, 2], "partition"), ([3], "bad commit"), ([1, 1], "bad commit"),
    ([0.5], "commit must be an integer"), ([True], "commit must be an integer"),
])
def test_scheme_file_commit_registers_are_checked(commit, error):
    circ = {"n_qubits": 3, "gates": [{"g": "H", "q": [0]}]}
    with pytest.raises((TypeError, ValueError), match=error):
        CommitmentScheme.from_json_dict({"C0": circ, "C1": circ, "commit": commit})

