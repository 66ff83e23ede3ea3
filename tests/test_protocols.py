import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from conftest import dilated_channel, permute_registers_dm, swap_matrix
from uhlmann_lab.errors import DimensionMismatch
from uhlmann_lab.protocols import (AmplifierConfig, FoldedSolver, OracleConfig,
                                   ProverStrategy, amplification_bound, amplify_run,
                                   approx_measure, default_dme_copies, dme,
                                   dme_error_bound, dme_exact_unitary, engineered_solver,
                                   folded_fidelity, qip_run,
                                   szk_conditional_output, szk_run, szk_simulator_distance,
                                   szk_trials)
from uhlmann_lab.qcore import (BipartiteState, DensityOp, GateCircuit, fidelity, linalg,
                               trace_distance)
from uhlmann_lab.qcore.channels import ChannelDesc
from uhlmann_lab.qcore.random_ops import haar_state_vector, haar_unitary, random_density
from uhlmann_lab.qcore.states import tensor_power
from uhlmann_lab.rng import Seed, generator
from uhlmann_lab.uhlmann import (UhlmannInstance, apply_uhlmann, canonical_uhlmann,
                                 circuit_instance, instance_with_fidelity, overlap_instance,
                                 random_raw_instance, unitary_completion, validate_instance)

EPR_CIRCUIT = GateCircuit(2, (("H", (0,)), ("CNOT", (0, 1))))
EPR_INSTANCE = circuit_instance(1, EPR_CIRCUIT, EPR_CIRCUIT)


def exact_solver(x: UhlmannInstance) -> FoldedSolver:
    """R~ = (unitary completion)^{⊗k}, the exact transporter: theta = 0, so
    the junk (here the identity) never acts."""
    u = canonical_uhlmann(x, 0.0).completion()
    return FoldedSolver(u, np.eye(x.dB), 0.0)


# ---------------------------------------------------------------------------
# Permutation-test protocol

def _prepared_tests(psi, m, prep_error):
    """The oracle's branches as (weight, test block) pairs: the m
    oracle-prepared copies on (A_1..A_m, B_1..B_m), or the junk block
    (E^{⊗m} - c C^{⊗m}) / sqrt(1 - |c|^2) of ``_junk_basis``."""
    from uhlmann_lab.protocols import _junk_basis
    good = tensor_power(psi, m)
    if prep_error == 0.0:
        return [(1.0, good)]
    e, c = _junk_basis(psi, m)
    junk = (tensor_power(e, m) - c * good) / math.sqrt(1.0 - abs(c) ** 2)
    return [(1.0 - prep_error, good), (prep_error, junk)]


def _joint_start(psi, test, m):
    """The joint vector |psi> ⊗ test on (A_0..A_m, B_0..B_m)."""
    dA, dB = psi.split
    # (A0, B0, A-tests, B-tests) -> (A0, A-tests, B0, B-tests)
    return linalg.permute_rows(np.kron(psi.amplitudes, test),
                               [dA, dB, dA ** m, dB ** m], [0, 2, 1, 3])


def _dense_round(psi, test, m, perm, prover):
    """The joint prover's round through the register kernel: append the
    ancilla, permute the slots (slot j holds register perm[j]), apply the
    unitary to the B registers and the ancilla, and permute back. Returns
    the vector on (A_0..A_m, B_0..B_m, ancilla) and its register dims."""
    dA, dB = psi.split
    vec = _joint_start(psi, test, m)
    dims = [dA] * (m + 1) + [dB] * (m + 1)
    if prover.joint_anc_dim > 1:
        vec = np.kron(vec, linalg.basis_vector(prover.joint_anc_dim, 0))
        dims = dims + [prover.joint_anc_dim]
    axis_perm = list(range(len(dims)))
    for j, src in enumerate(perm):
        axis_perm[m + 1 + j] = m + 1 + int(src)
    vec = linalg.permute_rows(vec, dims, axis_perm)
    vec = linalg.apply_matrix_to_registers(vec, dims, prover.joint_unitary,
                                           list(range(m + 1, len(dims))))
    return linalg.permute_rows(vec, dims, np.argsort(axis_perm)), dims


def _joint_test_by_register_kernel(psi, phi, m, perm, prover, prep_error):
    """(accept prob, output factor) of the joint prover's round on the dense
    vector: regroup (A_0, B_0, ancilla) ahead of the test registers and
    project those onto |D>^{⊗m}."""
    dA, dB = psi.split
    dvec = tensor_power(phi, m)
    accept, cols = 0.0, []
    for weight, test in _prepared_tests(psi, m, prep_error):
        vec, dims = _dense_round(psi, test, m, perm, prover)
        keep = [0, m + 1] + list(range(2 * (m + 1), len(dims)))
        tests = list(range(1, m + 1)) + list(range(m + 2, 2 * (m + 1)))
        work = linalg.permute_rows(vec, dims, keep + tests)
        amp = (work.reshape(-1, dvec.size) @ dvec.conj()).reshape(dA * dB, -1)
        accept += weight * float(np.vdot(amp, amp).real)
        cols.append(math.sqrt(weight) * amp)
    return accept, np.hstack(cols) / math.sqrt(accept)


def _output(res) -> np.ndarray:
    """The output given acceptance, L L^dag, of a run with output factor L."""
    return res.output_factor @ res.output_factor.conj().T


def _haar_joint_prover(dB, m, anc, rng):
    return ProverStrategy.joint(haar_unitary(dB ** (m + 1) * anc, rng), anc_dim=anc)


def test_szk_honest_fidelity_one():
    x = instance_with_fidelity(1.0, 2, 2, 5)
    _, phi = x.states()
    res = szk_run(x, 3, ProverStrategy.honest(x, 3), 7)
    assert abs(res.accept_prob - 1.0) < 1e-9
    assert res.accepted
    assert fidelity(_output(res), phi.density()) > 1 - 1e-9


def test_szk_identity_prover_acceptance():
    x = overlap_instance(0.98, 0.9, 3)
    psi, phi = x.states()
    overlap = abs(psi.overlap(phi)) ** 2
    for m in (1, 3):
        res = szk_run(x, m, ProverStrategy.identity(m), 11)
        assert abs(res.accept_prob - overlap ** m) < 1e-10


def test_szk_honest_completeness_bound():
    mu = 0.02
    x = instance_with_fidelity(1 - mu, 2, 2, 8)
    for m in (2, 5):
        res = szk_run(x, m, ProverStrategy.honest(x, m), 4)
        assert res.accept_prob >= (1 - mu) ** m - 1e-9
        assert (1 - mu) ** m >= 1 - m * mu


def test_szk_joint_prover_matches_product():
    x = instance_with_fidelity(0.95, 2, 2, 9)
    m = 2
    u = unitary_completion(canonical_uhlmann(x, 0.0)).unitary
    joint = ProverStrategy.joint(linalg.kron_all([u] * (m + 1)))
    a = szk_run(x, m, joint, 13)
    b = szk_run(x, m, ProverStrategy.honest(x, m), 13)
    assert abs(a.accept_prob - b.accept_prob) < 1e-9
    assert trace_distance(_output(a), _output(b)) < 1e-9


def test_szk_post_prover_state_is_permutation_invariant():
    # rho* averaged over verifier permutations is block-permutation invariant.
    import itertools
    x = instance_with_fidelity(0.9, 2, 2, 21)
    psi, _ = x.states()
    m = 2
    rng = generator(3)
    anc = 2
    u = scipy.linalg.expm(1j * 0.3 * (lambda h: h + h.conj().T)(
        rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))))
    prover = ProverStrategy.joint(u, anc_dim=anc)
    [(_, test)] = _prepared_tests(psi, m, 0.0)
    rho_star = 0.0
    perms = list(itertools.permutations(range(m + 1)))
    for perm in perms:
        vec, dims = _dense_round(psi, test, m, perm, prover)
        dm = np.outer(vec, vec.conj())
        dm = linalg.partial_trace_matrix(dm, dims, list(range(2 * (m + 1))))
        rho_star = rho_star + dm / len(perms)
    reg_dims = [2] * (2 * (m + 1))
    for block_perm in perms:
        axis_perm = list(block_perm) + [m + 1 + p for p in block_perm]
        permuted = permute_registers_dm(rho_star, reg_dims, axis_perm)
        assert np.linalg.norm(permuted - rho_star, ord=np.inf) < 1e-9


def test_szk_soundness_envelope_exact_average():
    # Identity and partial-honest provers accepted with prob >= 1/2 give
    # conditional output within sqrt(4/(m+1)) + 5 sqrt(mu) of Phi(C).
    x = overlap_instance(0.995, 0.97, 31)
    psi, _ = x.states()
    mu = 1 - validate_instance(x)["kappa"]
    target = apply_uhlmann(x, 0.0, psi).density()
    for m in (4, 8):
        for prover in (ProverStrategy.identity(m),
                       ProverStrategy.partial_honest(x, m, (m + 1) // 2)):
            acc, cond = szk_conditional_output(x, m, prover)
            if acc < 0.5:
                continue
            envelope = math.sqrt(4.0 / (m + 1)) + 5 * math.sqrt(mu)
            assert trace_distance(cond, target) <= envelope + 1e-9


def _power_density(state, m):
    """|state><state|^{⊗(m+1)} on the verifier's registers (A_0..A_m, B_0..B_m)."""
    vec = tensor_power(state, m + 1)
    return DensityOp(np.outer(vec, vec.conj()), (state.dA,) * (m + 1) + (state.dB,) * (m + 1))


def _szk_simulate(x, m):
    """The zero-knowledge simulator output |D><D|^{⊗(m+1)}."""
    return _power_density(x.states()[1], m)


def _szk_honest_post_state(x, m):
    """The verifier's joint state after the honest (unitary) prover round."""
    return _power_density(apply_uhlmann(x, 0.0, x.states()[0]), m)


def test_szk_simulator():
    x = instance_with_fidelity(1.0, 2, 2, 2)
    sim = _szk_simulate(x, 2)
    real = _szk_honest_post_state(x, 2)
    assert trace_distance(sim, real) < 1e-9
    # m = 0 degenerate: the simulator is a single copy of |D>.
    _, phi = x.states()
    sim0 = _szk_simulate(x, 0)
    assert trace_distance(sim0, phi.density()) < 1e-12

    mu, m = 0.01, 3
    x = instance_with_fidelity(1 - mu, 2, 2, 6)
    dist = szk_simulator_distance(x, m)
    assert dist <= math.sqrt((m + 1) * mu) + 1e-9
    # Matches the dense computation at small m.
    dense = trace_distance(_szk_simulate(x, m), _szk_honest_post_state(x, m))
    assert abs(dist - dense) < 1e-9


def _dense_slot_output(factor, psi):
    """(id ⊗ factor)(|psi><psi|) as a dense matrix: the outer product for the
    identity or a unitary, the Kraus sum on the B register for a channel."""
    if isinstance(factor, ChannelDesc):
        rho = psi.density().matrix
        return sum(np.kron(np.eye(psi.dA), k) @ rho @ np.kron(np.eye(psi.dA), k).conj().T
                   for k in factor.kraus_operators())
    vec = psi.amplitudes if factor is None else np.kron(np.eye(psi.dA), factor) @ psi.amplitudes
    return np.outer(vec, vec.conj())


def _product_provers(x, m):
    """Honest, identity, partial-honest and a prover with channel factors."""
    rng = generator(17)
    u = unitary_completion(canonical_uhlmann(x, 0.0)).unitary
    channels = [dilated_channel(haar_unitary(4, rng), 2, 2, (2, 2)) for _ in range(2)]
    mixed = ProverStrategy("custom", factors=(channels[0], u, None, channels[1]))
    return [ProverStrategy.honest(x, m), ProverStrategy.identity(m),
            ProverStrategy.partial_honest(x, m, 2), mixed]


def test_szk_run_matches_dense_slot_outputs():
    m = 3
    for x in (instance_with_fidelity(0.8, 2, 2, 14), overlap_instance(0.9, 0.6, 15)):
        psi, phi = x.states()
        target = phi.density().matrix
        for prover in _product_provers(x, m):
            outs = [_dense_slot_output(f, psi) for f in prover.factors]
            probs = [float(np.real(phi.amplitudes.conj() @ o @ phi.amplitudes)) for o in outs]
            accepted_runs = 0
            for seed in range(12):
                res = szk_run(x, m, prover, seed)
                rng = Seed(seed).child("szk").generator()
                j0 = int(np.argwhere(rng.permutation(m + 1) == 0)[0][0])
                want = float(np.prod([probs[j] for j in range(m + 1) if j != j0]))
                assert abs(res.accept_prob - want) < 1e-12
                assert res.accepted == bool(rng.random() < want)
                record = res.transcript[0]
                if not res.accepted:
                    assert res.output_factor is None and record["output_td_to_target"] is None
                    continue
                accepted_runs += 1
                assert np.abs(_output(res) - outs[j0]).max() < 1e-12
                assert abs(record["output_td_to_target"]
                           - trace_distance(outs[j0], target)) < 1e-12
            assert accepted_runs > 0


def test_szk_trials_match_a_fresh_verifier_per_trial_record_for_record():
    # szk_trials solves each input slot once for all its trials; szk_run
    # builds the verifier afresh for every trial. Honest, identity, and
    # provers with distinct factors, channels among them.
    m = 3
    seeds = [Seed(21).child("trial", t) for t in range(40)]
    for x in (instance_with_fidelity(0.8, 2, 2, 14), overlap_instance(0.9, 0.6, 15)):
        for prover in _product_provers(x, m):
            runs = list(szk_trials(x, m, prover, seeds, records=True))
            fresh = [szk_run(x, m, prover, seed) for seed in seeds]
            assert [accepted for accepted, _ in runs] == [res.accepted for res in fresh]
            assert [record for _, record in runs] == [res.transcript[0] for res in fresh]
            assert all(record is None for _, record in szk_trials(x, m, prover, seeds))
            # 40 trials over m + 1 input slots: every slot is met again, and
            # some runs accept.
            assert len({record["perm"].index(0) for _, record in runs}) == m + 1
            assert any(accepted for accepted, _ in runs)


def test_szk_conditional_output_matches_dense_slot_outputs():
    m = 3
    for x in (instance_with_fidelity(0.8, 2, 2, 14), overlap_instance(0.9, 0.6, 15)):
        psi, phi = x.states()
        for prover in _product_provers(x, m):
            outs = [_dense_slot_output(f, psi) for f in prover.factors]
            probs = [float(np.real(phi.amplitudes.conj() @ o @ phi.amplitudes)) for o in outs]
            weights = [np.prod([probs[i] for i in range(m + 1) if i != j])
                       for j in range(m + 1)]
            acc, cond = szk_conditional_output(x, m, prover)
            assert abs(acc - sum(weights) / (m + 1)) < 1e-12
            want = sum(w * o for w, o in zip(weights, outs)) / sum(weights)
            assert np.abs(cond.matrix - want).max() < 1e-12
    # A joint prover's run depends only on j0 too: the m + 1 rotations give
    # the average over all (m + 1)! permutations of the dense round.
    rng = generator(29)
    for m in (2, 3):
        for anc in (1, 2):
            prover = _haar_joint_prover(x.dB, m, anc, rng)
            runs = [_joint_test_by_register_kernel(psi, phi, m, perm, prover, 0.0)
                    for perm in itertools.permutations(range(m + 1))]
            want_acc = sum(p for p, _ in runs) / len(runs)
            want = sum(p * (f @ f.conj().T) for p, f in runs) / sum(p for p, _ in runs)
            acc, cond = szk_conditional_output(x, m, prover)
            assert abs(acc - want_acc) < 1e-12
            assert np.abs(cond.matrix - want).max() < 1e-12


def test_szk_trials_solve_a_joint_prover_once_per_input_slot(monkeypatch):
    # The test block and the |D>^{⊗m} check are symmetric under exchanging
    # test registers, so a joint prover's run depends only on j0.
    import uhlmann_lab.protocols as protocols
    m = 3
    x = overlap_instance(0.9, 0.6, 15)
    psi, phi = x.states()
    rng = generator(31)
    real, calls = protocols._joint_test, []
    monkeypatch.setattr(protocols, "_joint_test",
                        lambda *args: calls.append(args[3]) or real(*args))
    for anc in (1, 2):
        calls.clear()
        prover = _haar_joint_prover(x.dB, m, anc, rng)
        seeds = [Seed(23).child("trial", t) for t in range(40)]
        records = [record for _, record in szk_trials(x, m, prover, seeds, records=True)]
        assert len(calls) <= m + 1 and len(set(calls)) == len(calls)
        assert len({tuple(record["perm"]) for record in records}) > m + 1
        for record in records:
            want, _ = _joint_test_by_register_kernel(psi, phi, m, record["perm"], prover, 0.0)
            assert abs(record["accept_prob"] - want) < 1e-13


def _split_provers(x, m, rng):
    """Unitary (honest and a Haar mix), identity and channel-factor product
    provers for an instance of any split."""
    dB = x.dB
    u = unitary_completion(canonical_uhlmann(x, 0.0)).unitary
    mixed = (haar_unitary(dB, rng), None, u, haar_unitary(dB, rng))[:m + 1]
    channels = (dilated_channel(haar_unitary(2 * dB, rng), dB, 2, (dB, 2)), u, None,
                dilated_channel(haar_unitary(2 * dB, rng), dB, 2, (dB, 2)))[:m + 1]
    return [ProverStrategy.honest(x, m), ProverStrategy.identity(m),
            ProverStrategy("custom", factors=mixed)], ProverStrategy("custom", factors=channels)


def _kraus_reference(psi, phi, m, perm, slot_kraus, prep_error):
    """(accept prob, output given acceptance) of the permutation test by dense
    Kraus sums on registers (A_0 B_0, ..., A_m B_m). Slot j holds register
    perm[j] and applies the Kraus operators slot_kraus[j]; the junk test block
    is the normalized part of |last basis state>^{⊗m} orthogonal to |C>^{⊗m}."""
    dA, dB = psi.split
    d = dA * dB
    power = lambda v: linalg.kron_all([v] * m).reshape(-1)
    copies = power(psi.amplitudes)
    junk = power(np.eye(d)[-1].astype(complex))
    junk = junk - copies * np.vdot(copies, junk)
    junk = junk / np.linalg.norm(junk)
    slot_of = [int(np.flatnonzero(np.asarray(perm) == i)[0]) for i in range(m + 1)]
    acc, out = 0.0, 0.0
    for weight, tests in ((1 - prep_error, copies), (prep_error, junk)):
        start = np.kron(psi.amplitudes, tests).reshape([dA, dB] * (m + 1))
        for ks in itertools.product(*[slot_kraus[slot_of[i]] for i in range(m + 1)]):
            vec = start
            for i, k in enumerate(ks):
                vec = np.moveaxis(np.tensordot(k, vec, axes=([1], [2 * i + 1])), 0, 2 * i + 1)
            amp = vec.reshape(d, -1) @ power(phi.amplitudes).conj()
            acc += weight * np.vdot(amp, amp).real
            out = out + weight * np.outer(amp, amp.conj())
    return acc, out / acc


def test_product_closed_form_matches_the_joint_and_kraus_references():
    # Every product prover against itself as a joint prover (unitary
    # factors) or the dense Kraus sum (channel factors), at every permutation.
    # Haar instances make c and <Y, X> complex, so a flipped sign or
    # conjugate on the junk block's cross term shows.
    from uhlmann_lab.protocols import _PermutationTest
    rng = generator(41)
    for split in ((2, 3), (3, 2)):
        x = random_raw_instance(*split, 7 * split[0])
        psi, phi = x.states()
        for m in (1, 2, 3):
            unitary_provers, channel_prover = _split_provers(x, m, rng)
            eye = np.eye(x.dB)
            for perm in itertools.permutations(range(m + 1)):
                perm = np.array(perm)
                for prep_error in (0.0, 0.1, 1.0):
                    for prover in unitary_provers:
                        joint = ProverStrategy.joint(linalg.kron_all(
                            [eye if f is None else f for f in prover.factors]))
                        p, factor = _PermutationTest(psi, phi, m, prover, prep_error)(perm)
                        q, want = _PermutationTest(psi, phi, m, joint, prep_error)(perm)
                        assert abs(p - q) < 1e-13
                        assert np.abs(factor @ factor.conj().T
                                      - want @ want.conj().T).max() < 1e-12
                    kraus = [[eye] if f is None else
                             f.kraus_operators() if isinstance(f, ChannelDesc) else [f]
                             for f in channel_prover.factors]
                    p, factor = _PermutationTest(psi, phi, m, channel_prover, prep_error)(perm)
                    q, want = _kraus_reference(psi, phi, m, perm, kraus, prep_error)
                    assert abs(p - q) < 1e-13
                    assert np.abs(factor @ factor.conj().T - want).max() < 1e-12
            # qip_run takes the same channel-factor prover through a noisy oracle.
            res = qip_run(x, m, channel_prover, OracleConfig(prep_error=0.1), m)
            q, want = _kraus_reference(psi, phi, m, res.transcript[0]["perm"], kraus, 0.1)
            assert abs(res.accept_prob - q) < 1e-13
            assert np.abs(_output(res) - want).max() < 1e-12


@pytest.mark.parametrize("prep_error", [0.0, 0.1])
def test_shared_factor_is_applied_once_per_test(prep_error, monkeypatch):
    # The honest prover repeats one unitary object in all m + 1 slots: one
    # action on C, and one on the junk basis state E when prep_error > 0.
    import uhlmann_lab.protocols as protocols
    x = random_raw_instance(2, 3, 23)
    psi, phi = x.states()
    m = 50
    honest = ProverStrategy.honest(x, m)
    # The same unitary as 51 distinct objects takes one action per slot.
    copies = ProverStrategy("custom", factors=tuple(np.array(u) for u in honest.factors))
    perm = np.roll(np.arange(m + 1), 17)
    real = protocols._factor_action
    calls = []
    monkeypatch.setattr(protocols, "_factor_action",
                        lambda factor, state: calls.append(1) or real(factor, state))
    p, factor = protocols._PermutationTest(psi, phi, m, honest, prep_error)(perm)
    assert len(calls) <= 2
    calls.clear()
    q, want = protocols._PermutationTest(psi, phi, m, copies, prep_error)(perm)
    assert len(calls) == (m + 1) + (m if prep_error else 0)
    assert p == q and np.array_equal(factor, want)  # the same products, in slot order


def test_junk_block_is_orthogonal_to_the_test_copies():
    # For C = |11> (up to phase) the last basis state is C itself; the junk
    # block then starts from the first basis state.
    one = np.zeros(4, dtype=complex)
    one[-1] = 1j
    for psi in (BipartiteState(one, (2, 2)), random_raw_instance(2, 3, 5).states()[0]):
        for m in (1, 3):
            good, junk = (_joint_start(psi, test, m) for _, test in _prepared_tests(psi, m, 0.5))
            assert abs(np.linalg.norm(junk) - 1.0) < 1e-12
            assert abs(np.vdot(good, junk)) < 1e-12


def test_szk_channel_factor_must_return_the_b_register():
    x = instance_with_fidelity(0.8, 2, 2, 14)
    widen = dilated_channel(np.eye(4), 2, 2, (4, 1))
    with pytest.raises(DimensionMismatch):
        szk_run(x, 1, ProverStrategy("custom", factors=(widen, None)), 0)


def test_szk_prover_arity_check():
    x = instance_with_fidelity(1.0, 2, 2, 2)
    with pytest.raises(DimensionMismatch):
        szk_run(x, 3, ProverStrategy.identity(2), 0)


def _unitary_view(size: int) -> np.ndarray:
    """A size x size complex array that allocates one entry: a zero-stride view."""
    return np.lib.stride_tricks.as_strided(np.zeros(1, dtype=complex), (size, size), (0, 0))


def test_szk_joint_prover_dimension_cap():
    # The cap is on the joint prover's own unitary, dB^(m+1) anc square, not
    # on the (dA dB)^(m+1) anc vector the contracted round never forms.
    from uhlmann_lab.errors import DimensionCapError
    for x, m in ((instance_with_fidelity(1.0, 2, 2, 2), 10), (random_raw_instance(64, 2, 3), 3)):
        joint = ProverStrategy.joint(np.eye(2 ** (m + 1)))
        for seed in range(2):
            res, ref = (szk_run(x, m, prover, seed)
                        for prover in (joint, ProverStrategy.identity(m)))
            assert abs(res.accept_prob - ref.accept_prob) <= 1e-12
            assert res.accepted == ref.accepted
            if res.accepted:
                assert np.abs(_output(res) - _output(ref)).max() <= 1e-12
    x = instance_with_fidelity(1.0, 2, 2, 2)
    with pytest.raises(DimensionCapError, match="joint prover unitary"):
        szk_run(x, 12, ProverStrategy.joint(_unitary_view(2 ** 13)), 0)


def test_qip_joint_prover_dimension_cap():
    from uhlmann_lab.errors import DimensionCapError
    x = instance_with_fidelity(1.0, 2, 2, 2)
    oracle = OracleConfig(prep_error=0.1)
    res, ref = (qip_run(x, 10, prover, oracle, 0)
                for prover in (ProverStrategy.joint(np.eye(2 ** 11)), ProverStrategy.identity(10)))
    assert abs(res.accept_prob - ref.accept_prob) <= 1e-12
    assert np.abs(_output(res) - _output(ref)).max() <= 1e-12
    with pytest.raises(DimensionCapError, match="joint prover unitary"):
        qip_run(x, 12, ProverStrategy.joint(_unitary_view(2 ** 13)), OracleConfig(), 0)


def test_joint_output_factor_cap():
    # A 4096-square unitary (dB = 2, m = 1, anc = 1024) passes its own cap,
    # but the round's accepted amplitude is dA dB x anc per branch: 2^20 at
    # dA = 512 is admitted, twice that with a junk branch or at dA = 1024 is not.
    from uhlmann_lab.errors import DimensionCapError
    prover = ProverStrategy.joint(_unitary_view(4096), anc_dim=1024)
    x = random_raw_instance(512, 2, 0)
    assert szk_run(x, 1, prover, 0).accept_prob == 0.0
    with pytest.raises(DimensionCapError, match="joint output factor dimension 2097152"):
        qip_run(x, 1, prover, OracleConfig(prep_error=0.1), 0)
    with pytest.raises(DimensionCapError, match="joint output factor dimension 2097152"):
        szk_run(random_raw_instance(1024, 2, 0), 1, prover, 0)


def test_szk_product_prover_output_cap_holds_for_every_run():
    # The verifier holds dA dB-amplitude factors, which the instance's own cap
    # bounds, so the identity prover runs at dA dB = 8192. The honest prover's
    # dB x dB completion, and the dense dA dB-square average of
    # szk_conditional_output, are refused before they are built.
    from uhlmann_lab.errors import DimensionCapError
    x = random_raw_instance(1, 8192, 0)
    for build in (lambda: ProverStrategy.honest(x, 1),
                  lambda: ProverStrategy.partial_honest(x, 1, 1)):
        with pytest.raises(DimensionCapError, match="prover completion dimension 8192"):
            build()
    psi, phi = x.states()
    for seed in range(3):
        res = szk_run(x, 1, ProverStrategy.identity(1), seed)
        assert abs(res.accept_prob - abs(psi.overlap(phi)) ** 2) <= 1e-12
    with pytest.raises(DimensionCapError, match="conditional output dimension 8192"):
        szk_conditional_output(x, 1, ProverStrategy.identity(1))


# ---------------------------------------------------------------------------
# Amplification

def test_amplification_bound_values():
    # nu = 1 kills the exponential term.
    assert abs(amplification_bound(1.0, 1, 4096) - (1 - 32 / 64)) < 1e-12
    # Frozen closed-form evaluation: nu = 0.5, T = 10, k = 1e6.
    assert abs(amplification_bound(0.5, 10, 10 ** 6) - 0.678046875) < 1e-12
    assert amplification_bound(0.5, 1, 1) == 0.0  # clamp at zero
    with pytest.raises(ValueError):
        amplification_bound(1.5, 1, 1)


def test_amplifier_exact_solver_is_lossless():
    sol = exact_solver(EPR_INSTANCE)
    assert abs(folded_fidelity(EPR_INSTANCE, sol, 2) - 1.0) < 1e-9
    res = amplify_run(EPR_INSTANCE, sol, AmplifierConfig(2, 1, Seed(3)), 20)
    for f in res["per_index_fidelity"]:
        assert abs(f - 1.0) < 1e-9


def test_engineered_solver_hits_requested_nu():
    for nu in (0.4, 0.8):
        sol, actual = engineered_solver(EPR_INSTANCE, 2, nu)
        assert abs(actual - nu) < 1e-9


def test_amplifier_beats_bound():
    sol, nu = engineered_solver(EPR_INSTANCE, 2, 0.6)
    res = amplify_run(EPR_INSTANCE, sol, AmplifierConfig(2, 3, Seed(5)), 200)
    assert res["empirical_fidelity"] >= res["bound"] - 3 * res["stderr"] - 1e-9
    # At this nu the amplified fidelity is substantially above nu itself.
    assert res["exact_mean_fidelity"] > nu


def test_amplifier_solver_dimension_check():
    # A solver for the 2x4 pair acts on B = C^4; the EPR pair's B is a qubit.
    wide, _ = engineered_solver(instance_with_fidelity(0.7, 2, 4, 2), 2, 0.5)
    epr, _ = engineered_solver(EPR_INSTANCE, 2, 0.5)
    cfg = AmplifierConfig(2, 2, Seed(1))
    for sol, what in ((wide, "solver acts on dim 4"),
                      (FoldedSolver(epr.u, np.eye(4), epr.theta), "junk acts on dim 4")):
        for run in (lambda: amplify_run(EPR_INSTANCE, sol, cfg, 10),
                    lambda: folded_fidelity(EPR_INSTANCE, sol, 2)):
            with pytest.raises(DimensionMismatch, match=f"{what}, expected 2"):
                run()


def test_amplifier_coherent_matches_folded_expectation():
    # Empirical mean over sampled indices approaches the exact mean.
    sol, _ = engineered_solver(EPR_INSTANCE, 2, 0.7)
    res = amplify_run(EPR_INSTANCE, sol, AmplifierConfig(2, 2, Seed(9)), 400)
    assert abs(res["empirical_fidelity"] - res["exact_mean_fidelity"]) \
        <= 3 * res["stderr"] + 1e-6


# Dense amplifier reference: every operator is a matrix on the joint space
# (A_1..A_k, B_1..B_k, G). The walk runs in the input frame, with
# P = |C><C| on the blocks j != i ⊗ |0><0|_G and Q = R† (|D><D| on the blocks
# j != i) R, and a final state is read out after R.

def _dense_on(mat, regs, dims):
    """``mat`` on registers ``regs`` ⊗ the identity elsewhere."""
    rest = [a for a in range(len(dims)) if a not in regs]
    order = list(regs) + rest
    full = np.kron(mat, np.eye(int(np.prod([dims[a] for a in rest]))))
    inv = list(np.argsort(order))
    full = full.reshape([dims[a] for a in order] * 2)
    return full.transpose(inv + [len(dims) + a for a in inv]).reshape(int(np.prod(dims)), -1)


def _dense_tree(p, q, vec, T, cut):
    """The branch tree: (kept P parts, their Q parts, running)."""
    comps, succs, active = [], [], [vec]
    for _ in range(T):
        nxt = []
        for branch in active:
            hit = p(branch)
            for comp in (hit, branch - hit):
                if np.linalg.norm(comp) < cut:
                    continue
                succ = q(comp)
                comps.append(comp)
                succs.append(succ)
                if np.linalg.norm(comp - succ) > cut:
                    nxt.append(comp - succ)
        active = nxt
    return comps, succs, active


class DenseAmplifier:
    def __init__(self, x, solver, k):
        self.psi, self.phi = x.states()
        self.k = k
        self.dims = [self.psi.dA] * k + [self.psi.dB] * k + [solver.g_dim]
        pair = self.psi.amplitudes.reshape(self.psi.dA, self.psi.dB)
        self.start = np.array([np.prod([pair[idx[j], idx[k + j]] for j in range(k)])
                               * (idx[-1] == 0) for idx in np.ndindex(*self.dims)])
        self.r = _dense_on(_dense_solver(solver, k), list(range(k, 2 * k + 1)), self.dims)
        g0 = np.zeros((solver.g_dim,) * 2)
        g0[0, 0] = 1.0
        self.g0 = _dense_on(g0, [2 * k], self.dims)
        self._projectors = {}

    def blocks(self, state, ids):
        """|state><state| on each pair (A_j, B_j), j in ``ids``."""
        pair = np.outer(state.amplitudes, state.amplitudes.conj())
        return _dense_on(linalg.kron_all([pair] * len(ids)),
                         [reg for j in ids for reg in (j, self.k + j)], self.dims)

    def projectors(self, i):
        """(P, Q) as matrix-vector products, P = |C><C| ⊗ |0><0|_G and
        Q = R† |D><D| R on the blocks j != i."""
        if i not in self._projectors:
            others = [j for j in range(self.k) if j != i]
            p = self.blocks(self.psi, others) * np.diag(self.g0)  # @ g0, diagonal
            d = self.blocks(self.phi, others)
            self._projectors[i] = (lambda v: p @ v,
                                   lambda v: self.r.conj().T @ (d @ (self.r @ v)))
        return self._projectors[i]

    def readout(self, vec, i):
        out = self.r @ vec
        return float(np.real(out.conj() @ self.blocks(self.phi, [i]) @ out))

    def per_index(self, T):
        """(fidelity, (kept P parts, running branches)) for each sampled index."""
        out = []
        for i in range(self.k):
            comps, succs, active = _dense_tree(*self.projectors(i), self.start, T, 1e-14)
            finals = [v for v in succs if np.linalg.norm(v) > 1e-14] + active
            out.append((sum(self.readout(v, i) for v in finals), (len(comps), len(active))))
        return out

    def folded(self):
        out = self.r @ self.start
        return float(np.real(out.conj() @ self.blocks(self.phi, range(self.k)) @ out))


def _triple_product_solver(x, theta, junk=None):
    """The product-form solver of the exact transporter u, the junk J
    (defaulting to X on the first qubit of B_1) and Ry(theta)."""
    if junk is None:
        junk = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(x.dB // 2))
    return FoldedSolver(canonical_uhlmann(x, 0.0).completion(), junk, theta)


def _dense_solver(solver, k):
    """The solver's R = (u^{⊗k} ⊗ 1)(1 ⊗ |0><0| + J_1 ⊗ |1><1|)(1 ⊗ Ry(theta))
    as a matrix on B_1..B_k ⊗ G, J_1 its junk on B_1."""
    dbk = solver.u.shape[0] ** k
    uk = linalg.kron_all([solver.u] * k)
    junk = np.kron(solver.junk, np.eye(dbk // solver.u.shape[0]))
    c, s = math.cos(solver.theta), math.sin(solver.theta)
    ry = np.array([[c, -s], [s, c]], dtype=complex)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    cj = np.kron(np.eye(dbk), p0) + np.kron(junk, p1)
    return np.kron(uk, np.eye(2)) @ cj @ np.kron(np.eye(dbk), ry)


def _dense_folded(x, solver, k):
    """nu of the dense R: the weight of R|C>^{⊗k}|0>_G on |D>^{⊗k}."""
    from uhlmann_lab.qcore.states import tensor_power
    psi, phi = x.states()
    out = tensor_power(psi, k).reshape(-1, x.dB ** k) @ _dense_solver(solver, k)[:, ::2].T
    overlap = tensor_power(phi, k).conj() @ out.reshape(-1, 2)
    return float(np.vdot(overlap, overlap).real)


# The non-square instances tell the A and B registers of a block apart.
AMP_INSTANCES = {"epr": EPR_INSTANCE, "kappa0.8": instance_with_fidelity(0.8, 2, 2, 1),
                 "kappa0.8_3x2": instance_with_fidelity(0.8, 3, 2, 1),
                 "kappa0.7_2x4": instance_with_fidelity(0.7, 2, 4, 2)}


def _amp_solver(x, kind, k):
    if kind == "exact":
        return exact_solver(x)
    if kind == "engineered":
        return engineered_solver(x, k, 0.6)[0]
    if kind == "nu0":
        return engineered_solver(x, k, 0.0)[0]
    # Junk amplitude sin(1e-13): the parts it spoils are small, but above the
    # dense tree's cut-off (1e-14).
    return _triple_product_solver(x, 1e-13)


# k = 4 runs on the qubit pairs only: the dense reference of a 3x2 pair would
# hold 2592^2 matrices, and of a 2x4 pair 8192^2. T = 8 runs on the EPR pair
# up to k = 3, where the dense tree of 2^8 branches takes well under a second.
AMP_CASES = [(name, kind, k, T) for name in sorted(AMP_INSTANCES)
             for kind in ("exact", "engineered", "nu0", "near_exact")
             for k in (1, 2, 3, 4) for T in (1, 2, 4, 8)
             if (k < 4 or name in ("epr", "kappa0.8")) and (T < 8 or name == "epr" and k < 4)]


@pytest.mark.parametrize("name,kind,k,T", [pytest.param(*case, id="-".join(map(str, case)))
                                           for case in AMP_CASES])
def test_amplifier_matches_dense_reference(name, kind, k, T):
    x = AMP_INSTANCES[name]
    solver = _amp_solver(x, kind, k)
    ref = DenseAmplifier(x, solver, k)
    expected = ref.per_index(T)
    cfg = AmplifierConfig(k, T, Seed(7))
    res = amplify_run(x, solver, cfg, 40)
    assert np.allclose(res["per_index_fidelity"], [f for f, _ in expected], rtol=0, atol=1e-12)
    assert abs(res["nu"] - ref.folded()) < 1e-12
    assert abs(folded_fidelity(x, solver, k) - ref.folded()) < 1e-12
    # One walk per index class, i = 0 and i >= 1: the dense walks of all
    # indices i >= 1 make the same tree.
    assert all(tree == expected[-1][1] for _, tree in expected[1:])


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("name", ["epr", "kappa0.8"])
def test_engineered_solver_is_the_triple_product(name, k):
    x = AMP_INSTANCES[name]
    for nu in (0.0, 0.37, 1.0):
        solver, nu_actual = engineered_solver(x, k, nu)
        expected = _triple_product_solver(x, math.acos(math.sqrt(nu)))
        assert solver.theta == expected.theta
        assert np.array_equal(solver.u, expected.u) and np.array_equal(solver.junk, expected.junk)
        assert abs(nu_actual - _dense_folded(x, solver, k)) < 1e-12
    # Any dB x dB junk on B_1: nu and, where the dense walk is small, every
    # index's fidelity agree with the dense R.
    junk = scipy.stats.unitary_group.rvs(x.dB, random_state=k)
    solver, nu_actual = engineered_solver(x, k, 0.37, junk)
    assert np.array_equal(solver.junk, junk)
    assert abs(nu_actual - _dense_folded(x, solver, k)) < 1e-12
    if k < 5:
        expected = DenseAmplifier(x, solver, k).per_index(3)
        res = amplify_run(x, solver, AmplifierConfig(k, 3, Seed(3)), 10)
        assert np.allclose(res["per_index_fidelity"], [f for f, _ in expected],
                           rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", ["exact", "engineered"])
@pytest.mark.parametrize("name", sorted(AMP_INSTANCES))
def test_amplifier_range_basis_matches_dense_projector(name, kind, k):
    # The frame is an isometric picture of the dense walk: the vectors that
    # the words of length <= 3 in P, 1 - P, Q and 1 - Q make from the start
    # have the dense vectors' inner products and readouts, and the frame's P
    # is a Hermitian idempotent of rank dA dB.
    import uhlmann_lab.protocols as protocols
    x = AMP_INSTANCES[name]
    solver = _amp_solver(x, kind, k)
    ref = DenseAmplifier(x, solver, k)
    psi, _ = x.states()
    for i in range(k):
        walk = protocols._amp_frame(x, solver, k, i)
        sides = []
        for p, q, start in ((walk.p.__matmul__, walk.q.__mul__, walk.start),
                            (*ref.projectors(i), ref.start)):
            ops = (p, q, lambda v, p=p: v - p(v), lambda v, q=q: v - q(v))
            vecs = [start]
            for length in (1, 2, 3):
                for word in itertools.product(ops, repeat=length):
                    vec = start
                    for op in word:
                        vec = op(vec)
                    vecs.append(vec)
            sides.append(np.array(vecs))
        frame, dense = sides
        assert np.allclose(frame.conj() @ frame.T, dense.conj() @ dense.T, rtol=0, atol=1e-12)
        assert np.allclose([np.vdot(v, walk.gram @ v).real for v in frame],
                           [ref.readout(v, i) for v in dense], rtol=0, atol=1e-12)
        assert np.allclose(walk.p @ walk.p, walk.p, rtol=0, atol=1e-12)
        assert np.allclose(walk.p, walk.p.conj().T, rtol=0, atol=1e-12)
        assert abs(np.trace(walk.p) - psi.dA * psi.dB) < 1e-12


@pytest.mark.parametrize("name", ["epr", "kappa0.8_3x2"])
def test_amplifier_applies_its_solver_once_per_index(name, monkeypatch):
    # The frame is built and the walk's recurrence run once per index class,
    # i = 0, where the junk acts, and i >= 1, whatever k and T are.
    import uhlmann_lab.protocols as protocols
    x = AMP_INSTANCES[name]
    frames, walks = [], []
    real_frame, real_walk = protocols._amp_frame, protocols._amp_fidelity_for_index
    monkeypatch.setattr(protocols, "_amp_frame",
                        lambda x, s, k, i: frames.append(i) or real_frame(x, s, k, i))
    monkeypatch.setattr(protocols, "_amp_fidelity_for_index",
                        lambda *a: walks.append(1) or real_walk(*a))
    for k in (1, 3, 50):
        solver, nu = engineered_solver(x, k, 0.6)
        for T in (1, 6):
            frames.clear()
            walks.clear()
            res = amplify_run(x, solver, AmplifierConfig(k, T, Seed(2)), 30, nu=nu)
            assert frames == [0, 1][:k] and len(walks) == min(k, 2)
            per_index = res["per_index_fidelity"]
            assert len(per_index) == k and len(set(per_index[1:])) <= 1


def test_amplifier_walks_in_the_frame_of_p_and_q(monkeypatch):
    # At the benchmark's size (k = 8, T = 3), and at T = 1000, the walk's
    # state is a matrix on dA dB (g + 1) = 12 frame coordinates, and the
    # folded fidelity computed here is the one the solver was built with.
    import tracemalloc
    import uhlmann_lab.protocols as protocols
    k = 8
    solver, nu = engineered_solver(EPR_INSTANCE, k, 0.6)
    shapes = []
    real = protocols._amp_fidelity_for_index
    monkeypatch.setattr(protocols, "_amp_fidelity_for_index",
                        lambda walk, T: shapes.extend(a.shape for a in walk) or real(walk, T))
    for T in (3, 1000):
        cfg = AmplifierConfig(k, T, Seed(1))
        shapes.clear()
        tracemalloc.start()
        try:
            res = amplify_run(EPR_INSTANCE, solver, cfg, 200, nu=nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shapes == [(12,), (12, 12), (12,), (12, 12)] * 2 and res["nu"] == nu
        assert peak < 2 ** 20
    assert amplify_run(EPR_INSTANCE, solver, cfg, 200)["nu"] == nu


@pytest.mark.parametrize("k, nu", [(2, 0.6), (3, 0.4)])
def test_amplifier_index_fidelity_is_one_to_rounding(k, nu):
    # On the EPR pair the junk spoils B_1 alone, so every index i >= 1 reads
    # fidelity 1, to rounding, however many rounds the walk runs.
    solver, solver_nu = engineered_solver(EPR_INSTANCE, k, nu)
    for T in (12, 17):
        res = amplify_run(EPR_INSTANCE, solver, AmplifierConfig(k, T, Seed(0)), 10,
                          nu=solver_nu)
        assert np.allclose(res["per_index_fidelity"][1:], 1.0, rtol=0, atol=1e-14)


def test_single_copy_powers_match_extended_precision():
    # z^(k-1), z_J z^(k-2) and sum_{l<k-1} |z|^{2l} at k = 20000, against the
    # same recurrences in extended precision, within the ~k ulp that
    # _amp_parts states. |z| is near 1, where the sums have most terms, and
    # a phase on u makes z complex.
    import uhlmann_lab.protocols as protocols
    x = instance_with_fidelity(0.99999, 2, 2, 3)
    psi, phi = x.states()
    exact = _triple_product_solver(x, 0.3)
    solver = FoldedSolver(np.exp(0.7j) * exact.u, exact.junk, 0.3)
    z, zj = (np.vdot(phi.amplitudes, (psi.as_matrix() @ w.T).reshape(-1))
             for w in (solver.u, solver.u @ solver.junk))
    assert 0.999 < abs(z) < 1 and abs(z.imag) > 0.1
    eps = np.finfo(float).eps
    rr = protocols._amp_parts(x, solver, 2, 1)[0][2]  # ||r||^2 times one term
    for k in (2, 3, 1000, 20000):
        zpow = np.cumprod(np.full(k - 1, z, dtype=np.clongdouble))
        geo = np.sum(np.abs(zpow[:-1]) ** 2) + 1
        (_, zn, n0), (_, zn_j, _) = protocols._amp_parts(x, solver, k, 1)
        assert abs(zn - zpow[-1]) <= k * eps * abs(zpow[-1])
        ref_j = zj * (zpow[-2] if k > 2 else 1)
        assert abs(zn_j - ref_j) <= k * eps * abs(ref_j)
        assert abs(n0 / rr - geo) <= 3 * k * eps * geo
    assert abs(zpow[-1]) ** 2 < 0.9


def test_amplify_run_at_k_20000_builds_no_k_fold_object():
    # Past (32 T)^2 the bound is positive; the run holds the k per-index
    # fidelities and the k + 1 powers of z, ~1 MB, and no k-fold object.
    import tracemalloc
    k, T = 20000, 3
    solver, nu = engineered_solver(EPR_INSTANCE, k, 0.6)
    tracemalloc.start()
    try:
        res = amplify_run(EPR_INSTANCE, solver, AmplifierConfig(k, T, Seed(1)), 200, nu=nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert len(res["per_index_fidelity"]) == k and round(res["bound"], 3) == 0.193
    assert res["empirical_fidelity"] >= res["bound"]


def test_amplifier_range_basis_is_capped():
    from uhlmann_lab.errors import DimensionCapError
    from uhlmann_lab.protocols import check_amplifier_cap
    # Every run the k-fold caps admitted is admitted: (dA dB)^k g amplitudes
    # and 2^T times as many at 2^20, and dA dB times as many at 4096^2.
    for dA, dB in ((2, 2), (3, 2), (4, 4)):
        for k in range(1, 12):
            for T in range(1, 22):
                size = (dA * dB) ** k * 2
                if size * 2 ** T <= 2 ** 20 and dA * dB * size <= 4096 ** 2:
                    check_amplifier_cap(dA, dB, k, T)
    check_amplifier_cap(2, 2, 2 ** 20, 17)
    with pytest.raises(DimensionCapError,
                       match="amplifier per-index fidelities dimension 1048577"):
        check_amplifier_cap(2, 2, 2 ** 20 + 1, 3)
    # The walk is T rounds of a D x D state, D = dA dB (g + 1), and T D^2
    # fits 2^20: T <= 7281 on a qubit pair (D = 12), D <= 1024 at T = 1.
    check_amplifier_cap(2, 2, 1, 7281)
    check_amplifier_cap(20, 17, 1, 1)
    for (dA, dB, T), size in (((2, 2, 7282), 1048608), ((2, 2, 10 ** 12), 144 * 10 ** 12),
                              ((32, 32, 3), 28311552), ((64, 32, 1), 37748736)):
        with pytest.raises(DimensionCapError, match=f"amplifier walk dimension {size}"):
            check_amplifier_cap(dA, dB, 1, T)


# ---------------------------------------------------------------------------
# Partial swap and DME

# Dense references: the swap is built as a matrix, the program copy is appended
# by a Kronecker product, the joint state is conjugated and the copy traced out.

def _swap_gate(rest, d, dt):
    """1_rest ⊗ e^{i dt S} on (rest, X, Q) with dim X = dim Q = d."""
    e = math.cos(dt) * np.eye(d * d) + 1j * math.sin(dt) * swap_matrix(d, d)
    return np.kron(np.eye(rest), e)


def dense_dme(target, program, t, k):
    d = program.shape[0]
    rest = target.shape[0] // d
    gate = _swap_gate(rest, d, 2 * math.pi * t / k)
    mat = target
    for _ in range(k):
        joint = gate @ np.kron(mat, program) @ gate.conj().T
        mat = linalg.partial_trace_matrix(joint, [rest * d, d], [0])
    return mat


def dense_controlled_dme(tau, program, k):
    """Blocks (bit 0, bit 1) of |+><+|⊗tau after k controlled partial swaps
    (e^{i pi sigma} overall) and a Hadamard on the control."""
    d = program.shape[0]
    dim = tau.shape[0]
    gate = _swap_gate(dim // d, d, math.pi / k)
    ctrl = np.kron(np.diag([1.0, 0.0]), np.eye(dim * d)) + np.kron(np.diag([0.0, 1.0]), gate)
    mat = np.kron(np.full((2, 2), 0.5), tau)
    for _ in range(k):
        joint = ctrl @ np.kron(mat, program) @ ctrl.conj().T
        mat = linalg.partial_trace_matrix(joint, [2 * dim, d], [0])
    h = np.kron(np.array([[1, 1], [1, -1]]) / math.sqrt(2), np.eye(dim))
    blocks = (h @ mat @ h.conj().T).reshape(2, dim, 2, dim)
    return blocks[0, :, 0, :], blocks[1, :, 1, :]


def test_dme_matches_dense_reference():
    rng = generator(70)
    # Spectators, a non-qubit acted register, and spectator dim != program dim.
    for dims, t in (((2,), 0.5), ((3,), -0.3), ((2, 3), 0.4), ((3, 2), 0.25), ((3, 3), 0.3),
                    ((2, 2, 2), 1.0)):
        d = dims[-1]
        target = random_density(int(np.prod(dims)), rng)
        program = random_density(d, rng)
        for k in (1, 3, 8):
            out = dme(DensityOp(target, dims), DensityOp(program, (d,)), t, k)
            assert np.abs(out.matrix - dense_dme(target, program, t, k)).max() < 1e-12


def _partial_swap(rho, sigma, dt):
    """Tr_P(e^{-i dt SWAP} (rho_P ⊗ sigma_Q) e^{+i dt SWAP}): one DME step on
    ``sigma`` with program ``rho`` at 2 pi t = -dt."""
    return dme(sigma, rho, -dt / (2 * math.pi), 1)


def test_partial_swap_matches_dense_reference():
    rng = generator(71)
    for d, dt in ((2, 0.7), (3, -0.4), (4, 1.3)):
        rho, sig = random_density(d, rng), random_density(d, rng)
        gate = _swap_gate(1, d, -dt)
        joint = gate @ np.kron(rho, sig) @ gate.conj().T
        want = linalg.partial_trace_matrix(joint, [d, d], [1])
        out = _partial_swap(DensityOp(rho, (d,)), DensityOp(sig, (d,)), dt)
        assert np.abs(out.matrix - want).max() < 1e-12


def test_approx_measure_dme_matches_dense_reference():
    rng = generator(72)
    for split in ((1, 2), (2, 3), (3, 2)):
        dim = split[0] * split[1]
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec /= np.linalg.norm(vec)
        psi = rng.standard_normal(split[1]) + 1j * rng.standard_normal(split[1])
        psi /= np.linalg.norm(psi)
        tau = np.outer(vec, vec.conj())
        for k_q in (2, 5, 16):
            res = approx_measure(BipartiteState(vec, split), psi, k_q=k_q, mode="dme")
            zero, one = dense_controlled_dme(tau, np.outer(psi, psi.conj()), k_q)
            p_one = np.trace(one).real
            assert abs(res.p_one - p_one) < 1e-12
            assert np.abs(res.post_one.matrix - one / p_one).max() < 1e-12
            assert np.abs(res.post_zero.matrix - zero / np.trace(zero).real).max() < 1e-12


def _exact_dme(target, program, t):
    d = program.dim
    w = np.kron(np.eye(target.dim // d), dme_exact_unitary(program, t))
    return w @ target.matrix @ w.conj().T


def test_dme_within_derived_bound_near_orthogonal_target():
    # The fitted constant of earlier versions understated this error 6.5-fold.
    theta = math.pi / 2 - 0.05
    vec = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    target = DensityOp(np.outer(vec, vec.conj()), (2,))
    program = DensityOp(np.diag([1.0, 0]).astype(complex), (2,))
    err = trace_distance(dme(target, program, 0.1, 64).matrix, _exact_dme(target, program, 0.1))
    assert err <= dme_error_bound(0.1, 64)


def test_approx_measure_dme_within_bound_near_orthogonal_target():
    theta = math.pi / 2 - 0.05
    tau = BipartiteState(np.array([math.cos(theta), math.sin(theta)], dtype=complex), (1, 2))
    res = approx_measure(tau, np.array([1.0, 0]), k_q=128, mode="dme")
    assert abs(res.p_one - math.cos(theta) ** 2) <= res.error_bound
    assert res.error_bound == dme_error_bound(0.5, 128)
    # Without k_q, the fewest copies whose bound meets 0.05.
    res = approx_measure(tau, np.array([1.0, 0]), mode="dme")
    assert res.error_bound == dme_error_bound(0.5, default_dme_copies(0.05))


def test_dme_error_bound_holds_across_dimensions():
    rng = generator(73)
    for d in (2, 3, 4):
        for rest in (1, 2):
            for t in (0.05, -0.2, 0.5):
                for k in (2, 8, 64):
                    rank = int(rng.integers(1, d * rest + 1))
                    target = DensityOp(random_density(d * rest, rng, rank=rank), (rest, d))
                    program = DensityOp(random_density(d, rng, rank=int(rng.integers(1, d + 1))),
                                        (d,))
                    err = trace_distance(dme(target, program, t, k).matrix,
                                         _exact_dme(target, program, t))
                    assert err <= dme_error_bound(t, k)


def test_default_dme_copies_is_smallest_k_meeting_the_bound():
    for error in (0.3, 0.05, 0.01, 1e-3):
        k = default_dme_copies(error)
        assert dme_error_bound(0.5, k) <= error < dme_error_bound(0.5, k - 1)
    assert default_dme_copies(0.05, t=0.0) == 4
    with pytest.raises(ValueError):
        default_dme_copies(0.0)

def test_partial_swap_endpoints():
    rho = DensityOp(np.diag([1.0, 0]).astype(complex), (2,))
    sig = DensityOp(np.full((2, 2), 0.5, dtype=complex), (2,))
    assert trace_distance(_partial_swap(rho, sig, 0.0), sig) < 1e-12
    assert trace_distance(_partial_swap(rho, sig, math.pi / 2), rho) < 1e-12


def test_partial_swap_matches_expm_oracle():
    rho = DensityOp(np.diag([1.0, 0]).astype(complex), (2,))
    sig = DensityOp(np.full((2, 2), 0.5, dtype=complex), (2,))
    dt = math.pi / 4
    s = swap_matrix(2, 2)
    e = scipy.linalg.expm(-1j * dt * s)
    joint = e @ np.kron(rho.matrix, sig.matrix) @ e.conj().T
    want = linalg.partial_trace_matrix(joint, [2, 2], [1])
    assert np.linalg.norm(_partial_swap(rho, sig, dt).matrix - want,
                          ord=np.inf) < 1e-12


def test_partial_swap_carries_cos_factor():
    # Exact identity: cos^2 sigma + sin^2 rho - i cos sin [rho, sigma].
    rho = DensityOp(random_density(3, generator(1)), (3,))
    sig = DensityOp(random_density(3, generator(2)), (3,))
    dt = 0.3
    c, s = math.cos(dt), math.sin(dt)
    comm = rho.matrix @ sig.matrix - sig.matrix @ rho.matrix
    want = c * c * sig.matrix + s * s * rho.matrix - 1j * c * s * comm
    assert np.linalg.norm(_partial_swap(rho, sig, dt).matrix - want,
                          ord=np.inf) < 1e-12


def test_dme_identity_cases():
    prog = DensityOp(np.diag([1.0, 0]).astype(complex), (2,))
    targ = DensityOp(np.full((2, 2), 0.5, dtype=complex), (2,))
    assert trace_distance(dme(targ, prog, 0.0, 8), targ) < 1e-12
    # Program equal to the target projector: identity action.
    same = DensityOp(np.diag([1.0, 0]).astype(complex), (2,))
    assert trace_distance(dme(same, prog, 0.5, 8), same) < 1e-12


def test_dme_error_halves_with_k():
    prog = DensityOp(np.diag([1.0, 0]).astype(complex), (2,))
    targ = DensityOp(np.full((2, 2), 0.5, dtype=complex), (2,))
    w = dme_exact_unitary(prog, 0.5)
    exact = DensityOp(w @ targ.matrix @ w.conj().T, (2,))
    errs = [trace_distance(dme(targ, prog, 0.5, k), exact) for k in (8, 16, 32)]
    for a, b in zip(errs, errs[1:]):
        ratio = a / b
        assert 1.5 <= ratio <= 2.5   # halves per doubling, within 25%


def test_dme_respects_spectator_register():
    # Purifier rides along: DME on the B half of an entangled state.
    vec = haar_state_vector(4, generator(7))
    joint = DensityOp(np.outer(vec, vec.conj()), (2, 2))
    prog = DensityOp(random_density(2, generator(8)), (2,))
    out = dme(joint, prog, 0.4, 256)
    w = dme_exact_unitary(prog, 0.4)
    want = linalg.apply_matrix_to_registers_dm(joint.matrix, [2, 2], w, [1])
    assert trace_distance(out.matrix, want) < 0.05


def test_dme_copies_helper():
    k = default_dme_copies(0.01)
    assert k >= 4
    assert default_dme_copies(0.001) > k


# ---------------------------------------------------------------------------
# Approximate measurement

def test_approx_measure_ideal_examples():
    zero = np.array([1.0, 0])
    res = approx_measure(BipartiteState(zero.astype(complex), (1, 2)), zero)
    assert abs(res.p_one - 1.0) < 1e-12
    one = np.array([0, 1.0]).astype(complex)
    res = approx_measure(BipartiteState(one, (1, 2)), zero)
    assert res.p_one < 1e-12
    plus = BipartiteState(np.array([1, 1]) / math.sqrt(2), (1, 2))
    res = approx_measure(plus, zero)
    assert abs(res.p_one - 0.5) < 1e-10
    assert np.linalg.norm(res.post_one.amplitudes - zero) < 1e-10


def test_approx_measure_ideal_density_path_projects():
    # Ideal mode on a density operator takes the control-block path with the
    # exact reflection w = 1 - 2|psi><psi|: the posts are the projections.
    rng = generator(74)
    for split in ((1, 2), (2, 3), (3, 2)):
        dim = split[0] * split[1]
        tau = DensityOp(random_density(dim, rng), split)
        psi = haar_state_vector(split[1], rng)
        res = approx_measure(tau, psi)
        proj = np.kron(np.eye(split[0]), np.outer(psi, psi.conj()))
        for post, p in ((res.post_one, proj), (res.post_zero, np.eye(dim) - proj)):
            hit = p @ tau.matrix @ p
            assert np.abs(post.matrix - hit / np.trace(hit).real).max() < 1e-14
        assert abs(res.p_one - np.trace(proj @ tau.matrix).real) < 1e-14
        assert res.error_bound == 0.0
        # On tau = |v><v| it reads the pure-state path's probability.
        pure = BipartiteState(haar_state_vector(dim, rng), split)
        assert abs(approx_measure(pure.density(), psi).p_one
                   - approx_measure(pure, psi).p_one) < 1e-14


def test_approx_measure_refuses_a_mismatched_program_in_every_path():
    vec = BipartiteState(haar_state_vector(6, generator(75)), (2, 3))
    psi = haar_state_vector(2, generator(76))
    for tau in (vec, vec.density()):
        for mode in ("ideal_reflection", "dme"):
            with pytest.raises(DimensionMismatch, match="program dim 2 vs measured register 3"):
                approx_measure(tau, psi, mode=mode)
    with pytest.raises(ValueError, match="unknown mode"):
        approx_measure(vec, psi, mode="exact")
    with pytest.raises(DimensionMismatch, match="BipartiteState or DensityOp"):
        approx_measure(vec.density().matrix, haar_state_vector(3, generator(77)))


def test_approx_measure_dme_calibration():
    tau = DensityOp(np.full((2, 2), 0.5, dtype=complex), (1, 2))
    for k_q in (32, 128):
        res = approx_measure(tau, np.array([1.0, 0]), k_q=k_q, mode="dme")
        assert abs(res.p_one - 0.5) <= res.error_bound + 1e-12
    # Post-state on b = 1 approaches the projection.
    res = approx_measure(tau, np.array([1.0, 0]), k_q=256, mode="dme")
    want = DensityOp(np.diag([1.0, 0]).astype(complex), (1, 2))
    assert trace_distance(res.post_one, want) < 0.02


def test_approx_measure_preserves_entanglement_with_purifier():
    vec = haar_state_vector(4, generator(11))
    tau = BipartiteState(vec, (2, 2))
    psi = haar_state_vector(2, generator(12))
    res = approx_measure(tau, psi)
    proj = np.kron(np.eye(2), np.outer(psi, psi.conj()))
    want = proj @ vec
    p = np.linalg.norm(want) ** 2
    assert abs(res.p_one - p) < 1e-10
    assert np.linalg.norm(res.post_one.amplitudes - want / np.sqrt(p)) < 1e-9


# ---------------------------------------------------------------------------
# QIP verifier with state-synthesis oracle

def test_qip_honest_exact_oracle():
    x = instance_with_fidelity(1.0, 2, 2, 5)
    _, phi = x.states()
    res = qip_run(x, 3, ProverStrategy.honest(x, 3), OracleConfig(), 11)
    assert abs(res.accept_prob - 1.0) < 1e-9
    assert fidelity(_output(res), phi.density()) > 1 - 1e-9


def test_qip_preparation_error_propagates():
    x = instance_with_fidelity(1.0, 2, 2, 5)
    _, phi = x.states()
    delta = 0.06
    res = qip_run(x, 3, ProverStrategy.honest(x, 3), OracleConfig(prep_error=delta), 11)
    assert abs(res.accept_prob - (1 - delta)) < delta  # junk branch mostly fails
    td = trace_distance(_output(res), phi.density())
    assert td <= delta + 1e-9


def test_qip_identity_prover_envelope():
    x = overlap_instance(0.999, 0.96, 4)
    psi, _ = x.states()
    mu = 1 - validate_instance(x)["kappa"]
    m = 8
    res = qip_run(x, m, ProverStrategy.identity(m), OracleConfig(), 11)
    assert res.accept_prob >= 0.5
    target = apply_uhlmann(x, 0.0, psi).density()
    envelope = math.sqrt(4.0 / (m + 1)) + 5 * math.sqrt(mu)
    assert trace_distance(_output(res), target) <= envelope + 1e-9


def test_qip_ideal_oracle_joint_prover_matches_szk():
    # With the ideal oracle the oracle-assisted verifier is szk_run's verifier:
    # runs that drew the same permutation agree in accept prob and output.
    x = instance_with_fidelity(0.95, 2, 2, 17)
    m = 2
    u = unitary_completion(canonical_uhlmann(x, 0.0)).unitary
    honest = linalg.kron_all([u] * (m + 1))
    rng = generator(5)
    for anc in (1, 2):
        d = honest.shape[0] * anc
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        joint = scipy.linalg.expm(0.05j * (h + h.conj().T)) @ np.kron(honest, np.eye(anc))
        prover = ProverStrategy.joint(joint, anc_dim=anc)
        szk = {}
        for seed in range(12):
            res = szk_run(x, m, prover, seed)
            szk[tuple(res.transcript[0]["perm"])] = res
        probs, outputs = 0, 0
        for seed in range(12):
            b = qip_run(x, m, prover, OracleConfig(), seed)
            a = szk.get(tuple(b.transcript[0]["perm"]))
            if a is None:
                continue
            assert abs(a.accept_prob - b.accept_prob) < 1e-12
            probs += 1
            if a.accepted and b.accepted:
                assert np.linalg.norm(_output(a) - _output(b), ord=np.inf) < 1e-12
                outputs += 1
        assert probs >= 4 and outputs >= 2


def test_joint_round_contraction_matches_the_register_kernel():
    from uhlmann_lab.protocols import _joint_test
    rng = generator(43)
    for case in range(24):
        m = int(rng.integers(1, 4))
        dA, dB = (int(d) for d in rng.integers(1, 4, size=2))
        anc = int(rng.integers(1, 3))
        psi, phi = (BipartiteState(haar_state_vector(dA * dB, rng), (dA, dB)) for _ in "ab")
        prover = _haar_joint_prover(dB, m, anc, rng)
        perm = rng.permutation(m + 1)
        j0 = int(np.flatnonzero(perm == 0)[0])
        for prep_error in (0.0, 0.1):
            p, factor = _joint_test(psi, phi, m, j0, prover, prep_error)
            q, want = _joint_test_by_register_kernel(psi, phi, m, perm, prover, prep_error)
            assert abs(p - q) < 1e-13, case
            assert np.abs(factor @ factor.conj().T - want @ want.conj().T).max() < 1e-12, case


def test_joint_round_makes_no_joint_vector():
    # At m = 8 on a 2 x 2 instance a joint vector would be 4 MiB. The
    # contraction's largest array is the unitary with one test slot
    # contracted: 2^16 amplitudes, 1 MiB.
    import tracemalloc
    from uhlmann_lab.protocols import _joint_test
    m = 8
    x = instance_with_fidelity(0.9, 2, 2, 5)
    psi, phi = x.states()
    prover = ProverStrategy.joint(linalg.kron_all([canonical_uhlmann(x, 0.0).completion()]
                                                  * (m + 1)))
    tracemalloc.start()
    try:
        accept, _ = _joint_test(psi, phi, m, m, prover, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(accept - validate_instance(x)["kappa"] ** m) < 1e-9
    assert peak < 2 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"
