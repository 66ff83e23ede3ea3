import numpy as np
import pytest

from uhlmann_lab.errors import DimensionCapError, DimensionMismatch, InvalidInstance
from uhlmann_lab.qcore import (BipartiteState, GateCircuit, PartialIsometryOp, fidelity,
                               sgn_eta, trace_distance)
from uhlmann_lab.qcore import linalg
from uhlmann_lab.qcore.random_ops import haar_state_vector, haar_unitary, random_clifford
from uhlmann_lab.rng import child_seed, generator
from uhlmann_lab.uhlmann import (TRIM, CompletionChannel, UhlmannInstance, apply_uhlmann,
                                 canonical_uhlmann, circuit_instance, cross_operator,
                                 instance_with_fidelity, qutrit_example,
                                 random_raw_instance, unitary_completion, validate_instance)

from conftest import fidelity_eig_oracle


def overlap_after(w_matrix, psi: BipartiteState, phi: BipartiteState) -> float:
    out = (psi.as_matrix() @ w_matrix.T).reshape(-1)
    return abs(np.vdot(phi.amplitudes, out)) ** 2


# ---------------------------------------------------------------------------
# Validation

def test_validate_equal_circuits():
    circ = GateCircuit(2, (("H", (0,)), ("CNOT", (0, 1))))
    info = validate_instance(circuit_instance(1, circ, circ))
    assert abs(info["kappa"] - 1.0) < 1e-10
    assert info["dA"] == info["dB"] == 2


def test_validate_orthogonal_raw_pair():
    psi = BipartiteState(np.array([1, 0, 0, 0.0]), (2, 2))
    phi = BipartiteState(np.array([0, 0, 0, 1.0]), (2, 2))
    info = validate_instance(UhlmannInstance(raw_pair=(psi, phi)))
    assert info["kappa"] < 1e-12


def test_validate_matches_fidelity_oracle():
    for seed in range(10):
        x = random_raw_instance(4, 4, seed)
        psi, phi = x.states()
        want = fidelity_eig_oracle(psi.reduced_a().matrix, phi.reduced_a().matrix)
        assert abs(validate_instance(x)["kappa"] - want) < 1e-10


def test_invalid_instances_raise():
    with pytest.raises(InvalidInstance):
        circuit_instance(1, GateCircuit(2, ()), GateCircuit(3, ()))
    with pytest.raises(InvalidInstance):
        circuit_instance(2, GateCircuit(2, ()), GateCircuit(2, ()))
    with pytest.raises(InvalidInstance, match="need n >= 1"):
        circuit_instance(0, GateCircuit(2, ()), GateCircuit(2, ()))
    circ = {"n_qubits": 2, "gates": []}
    with pytest.raises(InvalidInstance):
        UhlmannInstance.from_json_dict({"n": 1, "C": circ, "D": {"n_qubits": 3}})
    for n in (1.5, True, "1"):
        with pytest.raises(TypeError, match="n must be an integer"):
            UhlmannInstance.from_json_dict({"n": n, "C": circ, "D": circ})
    with pytest.raises(TypeError, match="dB must be an integer"):
        UhlmannInstance.from_json_dict({"raw": {"dA": 1, "dB": 2.0, "psi": [[1, 0], [0, 0]],
                                                "phi": [[1, 0], [0, 0]]}})
    with pytest.raises(TypeError, match="instance must be a JSON object"):
        UhlmannInstance.from_json_dict(["n"])


def test_circuit_instance_holds_its_states():
    c = GateCircuit(2, (("H", (0,)), ("CNOT", (0, 1))))
    d = GateCircuit(2, (("H", (0,)), ("T", (0,)), ("CNOT", (0, 1)), ("H", (1,))))
    x = circuit_instance(1, c, d)
    assert x.states() is x.states()
    psi, phi = x.states()
    assert np.array_equal(psi.amplitudes, c.state()) and np.array_equal(phi.amplitudes, d.state())
    assert psi.split == phi.split == x.split == (2, 2)
    gates = lambda circ: [{"g": g, "q": list(qs)} for g, qs in circ.gates]
    read = UhlmannInstance.from_json_dict({"n": 1, "C": {"n_qubits": 2, "gates": gates(c)},
                                           "D": {"n_qubits": 2, "gates": gates(d)}})
    for held, want in zip(read.states(), x.states()):
        assert np.array_equal(held.amplitudes, want.amplitudes) and held.split == want.split


def test_over_cap_circuit_instance_fails_at_construction():
    circ = GateCircuit(22, ())
    with pytest.raises(DimensionCapError):
        circuit_instance(11, circ, circ)


# ---------------------------------------------------------------------------
# Canonical isometry: the two-qutrit instability pair, exactly

def test_qutrit_identity_case():
    psi, _, phi = qutrit_example(0.01)
    w = canonical_uhlmann(UhlmannInstance(raw_pair=(psi, phi)), 0.0)
    assert np.linalg.norm(w.matrix - np.eye(3), ord=np.inf) < 1e-9


def test_qutrit_swapped_case():
    _, tilde, phi = qutrit_example(0.01)
    w = canonical_uhlmann(UhlmannInstance(raw_pair=(tilde, phi)), 0.0)
    want = np.zeros((3, 3))
    want[0, 0] = want[1, 2] = want[2, 1] = 1.0
    assert np.linalg.norm(w.matrix - want, ord=np.inf) < 1e-9


def test_qutrit_cutoff_instability():
    psi, tilde, phi = qutrit_example(0.01)
    w = canonical_uhlmann(UhlmannInstance(raw_pair=(psi, phi)), 0.0)
    wt = canonical_uhlmann(UhlmannInstance(raw_pair=(tilde, phi)), 0.0)
    assert np.linalg.norm(w.matrix - wt.matrix, ord=2) >= 2.0 - 1e-9
    assert np.linalg.norm(psi.amplitudes - tilde.amplitudes) <= np.sqrt(2 * 0.01) + 1e-12
    # A cutoff above the small singular values restores stability.
    w_eta = canonical_uhlmann(UhlmannInstance(raw_pair=(psi, phi)), 0.1)
    wt_eta = canonical_uhlmann(UhlmannInstance(raw_pair=(tilde, phi)), 0.1)
    assert np.linalg.norm(w_eta.matrix - wt_eta.matrix, ord=2) < 1e-9


def test_equal_states_give_support_projector():
    x = random_raw_instance(3, 4, 17)
    psi, _ = x.states()
    same = UhlmannInstance(raw_pair=(psi, psi))
    w = canonical_uhlmann(same, 0.0)
    rho_b = psi.reduced_b().matrix
    vals, vecs = np.linalg.eigh(rho_b)
    proj = (vecs[:, vals > 1e-12]) @ (vecs[:, vals > 1e-12]).conj().T
    assert np.linalg.norm(w.matrix - proj, ord=np.inf) < 1e-9


def test_uhlmann_equality_random_instances():
    for seed in range(50):
        rng = generator(child_seed(3, "dims", seed))
        dA, dB = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        x = random_raw_instance(dA, dB, child_seed(4, "inst", seed))
        psi, phi = x.states()
        w = canonical_uhlmann(x, 0.0)
        lhs = overlap_after(w.matrix, psi, phi)
        rhs = fidelity(psi.reduced_a(), phi.reduced_a())
        assert abs(lhs - rhs) < 1e-8


def test_eta_monotonicity():
    x = random_raw_instance(3, 5, 23)
    prev = canonical_uhlmann(x, 0.0).support_projector
    for eta in (0.05, 0.2, 0.5, 0.9):
        cur = canonical_uhlmann(x, eta).support_projector
        vals = np.linalg.eigvalsh(prev - cur)
        assert vals.min() > -1e-9  # PSD order: support shrinks as eta grows
        prev = cur


def test_eta_guarantee():
    x = random_raw_instance(4, 4, 31)
    psi, phi = x.states()
    kappa = validate_instance(x)["kappa"]
    for eta in (0.0, 0.1, 0.3):
        w = canonical_uhlmann(x, eta)
        assert overlap_after(w.matrix, psi, phi) >= kappa - 2 * eta * x.dB - 1e-9


def factored_solve_instances():
    """Raw pairs with dA < dB, dA = dB and dA > dB (generic and rank-deficient),
    and pairs of 4-qubit stabilizer states cut at every split."""
    for dA, dB in ((2, 5), (3, 7), (4, 4), (5, 5), (6, 3), (8, 2)):
        for seed in range(3):
            yield random_raw_instance(dA, dB, child_seed(61, f"{dA}x{dB}", seed))
            yield instance_with_fidelity(0.4, dA, dB, child_seed(62, f"{dA}x{dB}", seed))
    for seed in range(4):
        c, d = (random_clifford(4, child_seed(63, tag, seed))[:, 0] for tag in "CD")
        for split in ((2, 8), (4, 4), (8, 2)):
            yield UhlmannInstance(raw_pair=(BipartiteState(c, split), BipartiteState(d, split)))


def test_factored_solve_matches_dense_threshold():
    count = 0
    for x in factored_solve_instances():
        for eta in (0.0, 0.05, 0.3):
            w = canonical_uhlmann(x, eta)
            want = sgn_eta(cross_operator(x), eta)
            assert w.rank() == want.rank()
            assert np.abs(w.matrix - want.matrix).max() < 1e-12
            count += 1
    assert count == 3 * (6 * 3 * 2 + 4 * 3)


def test_canonical_solve_decomposes_only_thin_factors(monkeypatch):
    # Tr_A|phi><psi| is 256 x 256 here but has rank <= 4: no decomposed matrix
    # may have both sides larger than dA.
    x = random_raw_instance(4, 256, 9)
    shapes = []
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    w = canonical_uhlmann(x, 0.0)
    monkeypatch.undo()
    assert shapes and all(min(shape) <= 4 for shape in shapes)
    assert w.rank() == 4


@pytest.mark.parametrize("d", [64, 256, 1024])
@pytest.mark.parametrize("seed", [1, 2])
def test_kappa_matches_closed_form_without_noise_singular_values(d, seed):
    # psi has Schmidt rank 1: the noise rows of its R would add hundreds of
    # ~1e-16 singular values to sqrt(kappa) (2.4e-14 off at d = 256). The
    # states themselves come out of two dense Haar products with squared
    # norms up to ~1e-15 off 1, which moves their kappa by as much.
    x = instance_with_fidelity(0.9, d, d, seed)
    psi, phi = x.states()
    built = abs(np.linalg.norm(psi.amplitudes) ** 2 * np.linalg.norm(phi.amplitudes) ** 2 - 1)
    assert abs(validate_instance(x)["kappa"] - 0.9) < 2e-15 + built
    assert x.factors.sv.size == 1 and canonical_uhlmann(x, 0.0).rank() == 1


def trimmed_instances():
    """Pairs whose psi has negligible rows of R: (|0,0> + |5,5>)/sqrt(2), whose
    zero rows 1-4 sit between kept ones, and a rank-3 state rotated on B."""
    rng = generator(64)
    phi = BipartiteState(haar_state_vector(64, rng), (8, 8))
    bell = np.zeros((8, 8), dtype=complex)
    bell[0, 0] = bell[5, 5] = 1 / np.sqrt(2)
    rank3 = np.zeros((8, 8), dtype=complex)
    rank3[[0, 1, 2], [0, 1, 2]] = 0.8, 0.5, np.sqrt(1 - 0.64 - 0.25)
    rank3 = rank3 @ haar_unitary(8, rng).T
    for amp, rank in ((bell, 2), (rank3, 3)):
        yield UhlmannInstance(raw_pair=(BipartiteState(amp.reshape(-1), (8, 8)), phi)), rank


def test_trimmed_solve_matches_dense_solve():
    for x, rank in trimmed_instances():
        psi, phi = x.states()
        assert x.factors.sv.size == rank  # every negligible row dropped
        want = fidelity_eig_oracle(psi.reduced_a().matrix, phi.reduced_a().matrix)
        assert abs(validate_instance(x)["kappa"] - want) < 1e-14
        for eta in (0.0, 0.05):
            w, ref = canonical_uhlmann(x, eta), sgn_eta(cross_operator(x), eta)
            assert w.rank() == ref.rank()
            assert np.abs(w.matrix - ref.matrix).max() < 1e-14
        assert canonical_uhlmann(x, 0.0).rank() == rank


def test_dropped_rows_move_the_cross_operator_by_at_most_trim():
    # The same QR as the solve: the dropped rows' Frobenius norm bounds the
    # change to the cross operator, and no singular value moves further.
    for x in [x for x, _ in trimmed_instances()] + [instance_with_fidelity(0.9, 256, 256, 5)]:
        psi, _ = x.states()
        r = np.linalg.qr(psi.as_matrix().T, mode="r")
        norms = np.linalg.norm(r, axis=1)
        dropped = norms[norms <= TRIM / np.sqrt(r.shape[0])]
        assert dropped.size > 0 and np.linalg.norm(dropped) <= TRIM
        sv = x.factors.sv
        dense = np.linalg.svd(cross_operator(x), compute_uv=False)
        assert np.abs(dense[:sv.size] - sv).max() <= TRIM
        assert dense[sv.size:].max(initial=0.0) <= TRIM


def test_full_rank_solve_keeps_every_row_and_its_bits():
    for dA, dB in ((4, 4), (3, 7), (7, 3), (32, 32)):
        x = random_raw_instance(dA, dB, child_seed(65, f"{dA}x{dB}"))
        psi, phi = x.states()
        q, r = np.linalg.qr(psi.as_matrix().T)
        ref = sgn_eta(phi.as_matrix().T @ r.conj().T)
        w = canonical_uhlmann(x, 0.0)
        assert x.factors.sv.size == min(dA, dB)
        assert w.left.tobytes() == ref.left.tobytes()
        assert w.right.tobytes() == (q @ ref.right).tobytes()


def test_instance_is_decomposed_once_at_every_eta(monkeypatch):
    x = instance_with_fidelity(0.7, 4, 6, 66)
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    validate_instance(x)
    first = canonical_uhlmann(x, 0.0)
    later = [canonical_uhlmann(x, eta) for eta in (0.3, 0.0, 0.9)]
    validate_instance(x)
    assert len(calls) == 1
    assert [w.rank() for w in later] == [first.rank(), first.rank(), 0]


# ---------------------------------------------------------------------------
# Completion

def assert_completes(w: PartialIsometryOp) -> None:
    u = w.completion()
    assert linalg.is_unitary(u, 1e-12)
    assert np.abs(u @ w.right - w.left).max() < 1e-12


def test_completion_range_apart_from_support():
    # Range and support are orthogonal: W maps e_0, e_1 to e_2, e_3.
    eye = np.eye(6)
    assert_completes(PartialIsometryOp(eye[:, 2:4], eye[:, :2]))
    rng = generator(71)
    basis = haar_unitary(7, rng)
    assert_completes(PartialIsometryOp(basis[:, :3], basis[:, 3:6]))


def test_completion_range_overlapping_support():
    rng = generator(72)
    basis = haar_unitary(8, rng)
    # Shared direction basis[:, 2] plus one direction each of their own.
    left = basis[:, [0, 2]] @ haar_unitary(2, rng)
    assert_completes(PartialIsometryOp(left, basis[:, [1, 2]]))
    # Range equal to support: the stacked factors are rank deficient.
    same = basis[:, :3]
    assert_completes(PartialIsometryOp(same @ haar_unitary(3, rng), same))


def test_completion_rank_above_half_the_dimension():
    rng = generator(73)
    for d, k in ((5, 3), (6, 4), (4, 4)):
        assert_completes(PartialIsometryOp(haar_unitary(d, rng)[:, :k],
                                           haar_unitary(d, rng)[:, :k]))


def test_partial_isometry_and_completion_take_their_arrays():
    rng = generator(74)
    left, right = haar_unitary(4, rng)[:, :2], haar_unitary(4, rng)[:, :2].copy()
    w = PartialIsometryOp(left, right)
    # The strided column slice is copied into a contiguous array; the fresh
    # contiguous complex input is kept as it is, read-only.
    assert not np.shares_memory(w.left, left) and np.array_equal(w.left, left)
    assert np.shares_memory(w.right, right) and w.right.flags.c_contiguous
    assert not (w.left.flags.writeable or w.right.flags.writeable)
    real = PartialIsometryOp(np.eye(3)[:, :1], np.eye(3)[:, 1:2])
    assert real.left.dtype == complex and real.left.flags.c_contiguous
    u = w.completion()
    channel = CompletionChannel(u)
    assert np.shares_memory(channel.unitary, u) and not channel.unitary.flags.writeable
    # Only the held views are read-only; the caller's arrays stay writable.
    assert right.flags.writeable and u.flags.writeable


def test_completion_of_zero_isometry_is_identity():
    w = PartialIsometryOp(np.zeros((3, 0)), np.zeros((3, 0)))
    assert np.abs(w.completion() - np.eye(3)).max() < 1e-15


def test_completion_of_unitary_is_itself():
    u = haar_unitary(4, generator(41))
    from uhlmann_lab.qcore import sgn_eta
    w = sgn_eta(u, 0.0)
    comp = unitary_completion(w)
    assert np.linalg.norm(comp.unitary - u, ord=np.inf) < 1e-10


def test_completion_of_diagonal_projection():
    from uhlmann_lab.qcore import sgn_eta
    w = sgn_eta(np.diag([1.0, 0.0]), 0.0)
    comp = unitary_completion(w)
    assert np.linalg.norm(comp.unitary - np.eye(2), ord=np.inf) < 1e-10


def test_completion_agrees_on_support():
    for seed in range(5):
        x = random_raw_instance(2, 6, 100 + seed)
        w = canonical_uhlmann(x, 0.0)
        comp = unitary_completion(w)
        comp.check_completes(w, atol=1e-10)


# ---------------------------------------------------------------------------
# apply_uhlmann

def test_transport_exact_at_fidelity_one():
    x = instance_with_fidelity(1.0, 4, 4, 7)
    psi, phi = x.states()
    out = apply_uhlmann(x, 0.0, psi)
    assert trace_distance(out.density(), phi.density()) < 1e-9


def test_transport_achieves_reduced_fidelity_qutrit():
    _, tilde, phi = qutrit_example(0.01)
    x = UhlmannInstance(raw_pair=(tilde, phi))
    out = apply_uhlmann(x, 0.0, tilde)
    achieved = abs(np.vdot(phi.amplitudes, out.amplitudes)) ** 2
    want = fidelity(tilde.reduced_a(), phi.reduced_a())
    assert abs(achieved - want) < 1e-9


def test_transport_preserves_norm_off_support():
    x = instance_with_fidelity(0.7, 2, 4, 9)
    w = canonical_uhlmann(x, 0.5)   # aggressive cutoff: small support
    target = BipartiteState(haar_state_vector(8, generator(5)), (2, 4))
    out = apply_uhlmann(x, 0.5, target)
    assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-10


def test_completion_consistency_on_support():
    # For inputs supported on Pi, the completion acts as W itself.
    x = random_raw_instance(3, 3, 55)
    w = canonical_uhlmann(x, 0.0)
    u = unitary_completion(w).unitary
    pi = w.support_projector
    rng = generator(66)
    for _ in range(5):
        v = pi @ haar_state_vector(3, rng)
        v = v / np.linalg.norm(v)
        assert np.linalg.norm(u @ v - w.matrix @ v) < 1e-10


def test_apply_uhlmann_dimension_check():
    x = random_raw_instance(2, 3, 1)
    with pytest.raises(DimensionMismatch):
        apply_uhlmann(x, 0.0, BipartiteState(np.array([1, 0, 0, 0.0]), (2, 2)))


# ---------------------------------------------------------------------------
# An appended ray orthogonal to the rest

def test_padding_block_structure():
    # Each state padded with a flag branch on one extra ray,
    # |E> = |0>|psi>|0> + |1>|1..1>|1> (normalised), split ((a, A) | (B, b)).
    # Then V = U ⊗ |0><0| + |1..1><1..1| ⊗ |1><1| (the proof-level identity).
    dA = dB = 4
    for seed in range(5):
        x = random_raw_instance(dA, dB, 200 + seed)
        padded = []
        for state in x.states():
            amp = np.zeros((2, dA, dB, 2), dtype=complex)
            amp[0, :, :, 0] = np.sqrt(0.5) * state.as_matrix()
            amp[1, dA - 1, dB - 1, 1] = np.sqrt(0.5)
            padded.append(BipartiteState(amp.reshape(-1), (2 * dA, 2 * dB)))
        u = canonical_uhlmann(x, 0.0).matrix
        v = canonical_uhlmann(UhlmannInstance(raw_pair=tuple(padded)), 0.0).matrix
        want = np.zeros((2 * dB, 2 * dB), dtype=complex)
        want[0::2, 0::2] = u                    # flag-0 sector, B x B block
        want[2 * dB - 1, 2 * dB - 1] = 1.0      # |1...1>|1> ray
        assert np.linalg.norm(v - want, ord=np.inf) < 1e-9


def test_cross_operator_orientation():
    # Tr_A |phi><psi| must produce the operator mapping psi toward phi.
    psi, _, phi = qutrit_example(0.04)
    m = cross_operator(UhlmannInstance(raw_pair=(psi, phi)))
    assert np.allclose(m, np.diag([0.96, 0.02, 0.02]), atol=1e-12)
