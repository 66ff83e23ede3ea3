import numpy as np
import pytest

from conftest import dilated_channel, swap_matrix
from uhlmann_lab.errors import DimensionMismatch
from uhlmann_lab.qcore import (BipartiteState, ChannelDesc, DensityOp, GateCircuit,
                               channel_from_circuit, check_trace_preserving,
                               complementary, maximally_entangled, maximally_mixed,
                               unitary_channel)
from uhlmann_lab.qcore.channels import push_factor
from uhlmann_lab.qcore import linalg
from uhlmann_lab.qcore.random_ops import haar_unitary, random_density
from uhlmann_lab.rng import generator


def depolarizing_channel(d=2) -> ChannelDesc:
    """Fully depolarizing: append a maximally entangled pair, swap in the
    input, trace everything but the entangled half."""
    phi = maximally_entangled(d).amplitudes.reshape(d * d, 1)
    v = np.kron(swap_matrix(d, d), np.eye(d)) @ np.kron(np.eye(d), phi)
    return ChannelDesc(v, (d, d * d))


def _factor(rho) -> np.ndarray:
    """A factor L with L L^dag = rho, from the eigendecomposition."""
    vals, vecs = np.linalg.eigh(rho.matrix if isinstance(rho, DensityOp) else rho)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _push(ch: ChannelDesc, rho) -> np.ndarray:
    """N(rho) as a matrix, from the factor push_factor returns."""
    out = push_factor(ch, _factor(rho))
    return out @ out.conj().T


def _kraus_sum(ch: ChannelDesc, rho: np.ndarray) -> np.ndarray:
    """Reference N(rho) = sum_e K_e rho K_e^dag."""
    return sum(k @ rho @ k.conj().T for k in ch.kraus_operators())


def test_identity_channel():
    rho = DensityOp(random_density(4, generator(1)), (4,))
    out = _push(unitary_channel(np.eye(4)), rho)
    assert np.linalg.norm(out - rho.matrix, ord=np.inf) < 1e-12


def test_depolarizing_matches_kraus_oracle():
    ch = depolarizing_channel(2)
    rho = DensityOp(np.diag([1.0, 0]).astype(complex), (2,))
    out = _push(ch, rho)
    assert np.linalg.norm(out - np.eye(2) / 2, ord=np.inf) < 1e-10
    kraus = ch.kraus_operators()
    acc = sum(k @ rho.matrix @ k.conj().T for k in kraus)
    assert np.linalg.norm(out - acc, ord=np.inf) < 1e-12
    # Kraus completeness.
    total = sum(k.conj().T @ k for k in kraus)
    assert np.linalg.norm(total - np.eye(2), ord=np.inf) < 1e-10


def test_complementary_of_isometric_channel_is_trivial_env():
    # Isometric channel (nothing traced): complementary output is rank one.
    iso = dilated_channel(haar_unitary(8, generator(2)), 2, 4, (8, 1))
    comp = complementary(iso)
    out = _push(comp, np.diag([1.0, 0]).astype(complex))
    vals = np.linalg.eigvalsh(out)
    assert vals[-1] > 1 - 1e-9  # rank 1


def test_complementary_swaps_roles():
    u = haar_unitary(8, generator(3))
    ch = dilated_channel(u, 2, 4, (4, 2))
    comp = complementary(ch)
    rho = DensityOp(random_density(2, generator(4)), (2,))
    # Outputs are the two marginals of the same dilated state.
    big = u @ np.kron(rho.matrix, np.diag([1.0, 0, 0, 0])) @ u.conj().T
    want_out = linalg.partial_trace_matrix(big, [4, 2], [0])
    want_env = linalg.partial_trace_matrix(big, [4, 2], [1])
    assert np.linalg.norm(_push(ch, rho) - want_out, ord=np.inf) < 1e-10
    assert np.linalg.norm(_push(comp, rho) - want_env, ord=np.inf) < 1e-10


def test_trace_preservation_check():
    ch = depolarizing_channel(2)
    assert check_trace_preserving(ch) < 1e-12
    v = ch.isometry
    assert np.linalg.norm(v.conj().T @ v - np.eye(2), ord=np.inf) <= 1e-9
    with pytest.raises(ValueError):
        check_trace_preserving(ChannelDesc(0.5 * np.eye(4, 2), (2, 2)))


def test_trace_preservation_reads_the_anc_state_columns():
    # Tr N(|i><i|) = 1/4 for every i: the error is 3/4.
    with pytest.raises(ValueError, match="0.75"):
        check_trace_preserving(dilated_channel(0.5 * np.eye(4), 2, 2, (2, 2)))
    # Rows and columns index (in, anc): only the anc = 1 columns keep norm 1.
    u = np.diag([0.5, 1.0, 0.5, 1.0]).astype(complex)
    assert check_trace_preserving(dilated_channel(u, 2, 2, (2, 2), anc_state=1)) == 0.0
    with pytest.raises(ValueError, match="0.75"):
        check_trace_preserving(dilated_channel(u, 2, 2, (2, 2), anc_state=0))
    ch = dilated_channel(haar_unitary(12, generator(12)), 3, 4, (2, 6), anc_state=2)
    traces = [np.trace(_kraus_sum(ch, np.diag(np.eye(3)[i]))).real for i in range(3)]
    assert abs(check_trace_preserving(ch) - max(abs(t - 1) for t in traces)) < 1e-15


def test_channel_takes_a_read_only_view():
    # Like BipartiteState: the caller's complex contiguous array is held
    # without a copy, and only the channel's view of it is read-only.
    u = np.eye(2, dtype=complex)
    ch = ChannelDesc(u, (2, 1))
    assert np.shares_memory(ch.isometry, u) and not ch.isometry.flags.writeable
    assert u.flags.writeable


def test_channel_from_circuit():
    # CNOT dilation, env = target qubit: dephasing on the control.
    circ = GateCircuit(2, (("CNOT", (0, 1)),))
    ch = channel_from_circuit(circ, 1, [1])
    plus = DensityOp(np.full((2, 2), 0.5, dtype=complex), (2,))
    out = _push(ch, plus)
    assert np.linalg.norm(out - np.eye(2) / 2, ord=np.inf) < 1e-10
    zero = DensityOp(np.diag([1.0, 0]).astype(complex), (2,))
    assert np.linalg.norm(_push(ch, zero) - zero.matrix, ord=np.inf) < 1e-10


def test_unitary_channel_roundtrip():
    u = haar_unitary(4, generator(8))
    rho = DensityOp(random_density(4, generator(9)), (4,))
    out = _push(unitary_channel(u), rho)
    assert np.linalg.norm(out - u @ rho.matrix @ u.conj().T, ord=np.inf) < 1e-11


def test_channel_input_dimension_check():
    ch = unitary_channel(np.eye(4))
    with pytest.raises(DimensionMismatch):
        _push(ch, maximally_mixed((2,)))


def test_push_factor_acts_on_its_register():
    # (id ⊗ N ⊗ id)(L L^dag) against the Kraus form of N on the middle register.
    ch = dilated_channel(haar_unitary(6, generator(11)), 3, 2, (3, 2))
    rng = generator(9)
    for before, after, cols in ((1, 1, 1), (2, 1, 3), (1, 2, 2), (2, 3, 4)):
        d = before * 3 * after
        l = rng.standard_normal((d, cols)) + 1j * rng.standard_normal((d, cols))
        out = push_factor(ch, l, before, after)
        assert out.shape == (d, ch.d_env * cols)
        embed = lambda k: np.kron(np.kron(np.eye(before), k), np.eye(after))
        oracle = sum(embed(k) @ l @ l.conj().T @ embed(k).conj().T
                     for k in ch.kraus_operators())
        assert np.linalg.norm(out @ out.conj().T - oracle, ord=np.inf) < 1e-12
    with pytest.raises(DimensionMismatch):
        push_factor(ch, np.ones((4, 1)), 2, 1)


def _dilate_conjugate_trace(u: np.ndarray, d_anc: int, anc_state: int, out_split,
                            mat: np.ndarray, rest: int) -> np.ndarray:
    """Reference channel application: embed the ancilla in |anc_state>, conjugate
    the (in, anc, rest) density by the full dilation u, trace the environment."""
    d_in = u.shape[0] // d_anc
    anc = np.zeros((d_anc, d_anc))
    anc[anc_state, anc_state] = 1.0
    big = np.kron(mat, anc)  # registers (in, rest, anc)
    reorder = linalg.permutation_matrix([d_in, rest, d_anc], [0, 2, 1])
    big = reorder @ big @ reorder.T  # registers (in, anc, rest)
    u = np.kron(u, np.eye(rest))
    big = u @ big @ u.conj().T  # registers (out, env, rest)
    return linalg.partial_trace_matrix(big, [*out_split, rest], [0, 2])


@pytest.mark.parametrize("d_in,d_anc,out_split,anc_state", [
    (3, 2, (2, 3), 1), (2, 3, (3, 2), 2), (3, 4, (4, 3), 3), (2, 2, (4, 1), 1)])
@pytest.mark.parametrize("rest", [1, 3])
def test_apply_to_first_matches_dilated_reference(d_in, d_anc, out_split, anc_state, rest):
    rng = generator(20 + 7 * d_in + d_anc + rest)
    u = haar_unitary(d_in * d_anc, rng)
    ch = dilated_channel(u, d_in, d_anc, out_split, anc_state)
    dims = (d_in, rest) if rest > 1 else (d_in,)
    mixed = DensityOp(random_density(d_in * rest, rng), dims)
    v = rng.standard_normal(d_in * rest) + 1j * rng.standard_normal(d_in * rest)
    pure = BipartiteState(v / np.linalg.norm(v), (d_in, rest))
    for factor, mat in ((_factor(mixed), mixed.matrix),
                        (pure.amplitudes.reshape(-1, 1), pure.density().matrix)):
        out = push_factor(ch, factor, after=rest)
        assert out.shape == (ch.d_out * rest, ch.d_env * factor.shape[1])
        want = _dilate_conjugate_trace(u, d_anc, anc_state, out_split, mat, rest)
        assert np.linalg.norm(out @ out.conj().T - want, ord=np.inf) < 1e-12

