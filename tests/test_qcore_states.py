import numpy as np
import pytest

from uhlmann_lab.errors import DimensionCapError, DimensionMismatch, NotPositive
from uhlmann_lab.qcore import (BipartiteState, DensityOp, SpectralState, factor_fidelity,
                               factor_trace_distance, fidelity, maximally_entangled,
                               maximally_mixed, partial_trace, sgn_eta, tensor_power,
                               trace_distance)
from uhlmann_lab.qcore.random_ops import haar_state_vector, random_density
from uhlmann_lab.rng import generator

from conftest import fidelity_eig_oracle, gram_schmidt_rank, partial_trace_oracle


def _random_dm(d, seed, rank=None):
    return DensityOp(random_density(d, generator(seed), rank), (d,))


# ---------------------------------------------------------------------------
# partial trace

def test_partial_trace_product_state():
    rho = _random_dm(3, 1).matrix
    sig = _random_dm(4, 2).matrix
    joint = DensityOp(np.kron(rho, sig), (3, 4))
    out = partial_trace(joint, [0])
    assert np.linalg.norm(out.matrix - rho, ord=np.inf) < 1e-12


def test_partial_trace_epr():
    epr = maximally_entangled(2).density()
    joint = DensityOp(epr.matrix, (2, 2))
    out = partial_trace(joint, [1])
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_matches_index_sum_oracle():
    vec = haar_state_vector(6, generator(5))
    joint = DensityOp(np.outer(vec, vec.conj()), (2, 3))
    for keep in ([0], [1], [0, 1]):
        got = partial_trace(joint, keep).matrix
        want = partial_trace_oracle(joint.matrix, (2, 3), keep)
        assert np.linalg.norm(got - want, ord=np.inf) < 1e-12


def test_partial_trace_bad_register():
    with pytest.raises(DimensionMismatch):
        partial_trace(maximally_mixed((2, 2)), [3])


# ---------------------------------------------------------------------------
# fidelity and trace distance

def test_fidelity_examples():
    rho = _random_dm(4, 3)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-10
    zero = DensityOp(np.diag([1.0, 0]).astype(complex), (2,))
    one = DensityOp(np.diag([0, 1.0]).astype(complex), (2,))
    assert fidelity(zero, one) < 1e-12
    assert abs(fidelity(zero, maximally_mixed((2,))) - 0.5) < 1e-12


def test_fidelity_pure_state_formula():
    vec = haar_state_vector(4, generator(9))
    pure = DensityOp(np.outer(vec, vec.conj()), (4,))
    sigma = _random_dm(4, 10)
    direct = float(np.real(vec.conj() @ sigma.matrix @ vec))
    assert abs(fidelity(pure, sigma) - direct) < 1e-11


def test_fidelity_matches_eig_oracle():
    for seed in range(5):
        a, b = _random_dm(5, 2 * seed), _random_dm(5, 2 * seed + 1)
        assert abs(fidelity(a, b) - fidelity_eig_oracle(a.matrix, b.matrix)) < 1e-10


def test_fidelity_rejects_non_psd():
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(NotPositive):
        fidelity(bad, np.eye(2) / 2)


def test_trace_distance_examples():
    rho = _random_dm(3, 4)
    assert trace_distance(rho, rho) < 1e-12
    zero = DensityOp(np.diag([1.0, 0]).astype(complex), (2,))
    one = DensityOp(np.diag([0, 1.0]).astype(complex), (2,))
    assert abs(trace_distance(zero, one) - 1.0) < 1e-12


def test_trace_distance_matches_eigenvalue_oracle():
    for seed in range(10):
        a, b = _random_dm(2, 3 * seed), _random_dm(2, 3 * seed + 1)
        vals = np.linalg.eigvalsh(a.matrix - b.matrix)
        want = 0.5 * np.abs(vals).sum()
        assert abs(trace_distance(a, b) - want) < 1e-12


def test_fuchs_van_de_graaf_on_random_pairs():
    rng = generator(77)
    for trial in range(1000):
        d = int(rng.integers(2, 6))
        a = DensityOp(random_density(d, rng), (d,))
        b = DensityOp(random_density(d, rng), (d,))
        f, td = fidelity(a, b), trace_distance(a, b)
        assert 1 - np.sqrt(f) <= td + 1e-9
        assert td <= np.sqrt(1 - f) + 1e-9


def test_gentle_measurement():
    rng = generator(78)
    for trial in range(300):
        d = int(rng.integers(2, 7))
        rho = DensityOp(random_density(d, rng), (d,))
        k = int(rng.integers(1, d))
        q, _ = np.linalg.qr(rng.standard_normal((d, k))
                            + 1j * rng.standard_normal((d, k)))
        proj = q @ q.conj().T
        p = float(np.real(np.trace(proj @ rho.matrix)))
        if p < 0.2:
            continue
        eps = 1.0 - p
        post = proj @ rho.matrix @ proj / p
        l1 = np.abs(np.linalg.eigvalsh(rho.matrix - post)).sum()
        assert l1 <= 2 * np.sqrt(eps) + 1e-9


# ---------------------------------------------------------------------------
# fidelity and trace distance on factors (rho = L L^dag)

def _factor(d, cols, rng, rank=None):
    """A d x cols factor of the given rank (default: full), with Tr L L^dag = 1."""
    rank = min(d, cols) if rank is None else rank
    g = lambda a, b: rng.standard_normal((a, b)) + 1j * rng.standard_normal((a, b))
    m = g(d, rank) @ g(rank, cols)
    return m / np.linalg.norm(m)


def _assert_factor_forms_match(l, k):
    rho, sigma = l @ l.conj().T, k @ k.conj().T
    f = factor_fidelity(l, k)
    assert abs(f - fidelity(rho, sigma)) < 1e-10
    # The eigendecomposition oracle takes square roots without a cutoff, which
    # turns eigensolver noise on a rank-deficient input into ~1e-8 errors.
    if min(np.linalg.matrix_rank(l), np.linalg.matrix_rank(k)) == l.shape[0]:
        assert abs(f - fidelity_eig_oracle(rho, sigma)) < 1e-10
    assert abs(factor_trace_distance(l, k) - trace_distance(rho, sigma)) < 1e-10


def test_factor_forms_match_dense_oracles():
    rng = generator(41)
    for d in (1, 2, 3, 5, 8):
        # Ranks 1..d, and more columns than rows.
        for cols in range(1, d + 3):
            _assert_factor_forms_match(_factor(d, cols, rng),
                                       _factor(d, int(rng.integers(1, d + 3)), rng))


def test_factor_forms_on_rank_deficient_factors():
    rng = generator(42)
    for d, cols, rank in ((4, 4, 1), (5, 7, 2), (6, 3, 2), (8, 10, 3)):
        _assert_factor_forms_match(_factor(d, cols, rng, rank), _factor(d, cols, rng, rank))
        _assert_factor_forms_match(_factor(d, cols, rng, rank), _factor(d, 2, rng))


def test_factor_forms_on_orthogonal_and_equal_pairs():
    rng = generator(43)
    q, _ = np.linalg.qr(_factor(6, 6, rng))
    l = q[:, :2] @ _factor(2, 3, rng)
    k = q[:, 2:5] @ _factor(3, 4, rng)
    assert factor_fidelity(l, k) < 1e-12
    assert abs(factor_trace_distance(l, k) - 1.0) < 1e-12
    _assert_factor_forms_match(l, k)
    # The same state from two different factors: L and L V for a unitary V.
    v, _ = np.linalg.qr(_factor(3, 3, rng))
    assert abs(factor_fidelity(l, l @ v) - 1.0) < 1e-12
    assert factor_trace_distance(l, l @ v) < 1e-12
    _assert_factor_forms_match(l, l @ v)


def test_factor_forms_on_pure_columns():
    rng = generator(44)
    for d in (2, 7):
        a, b = haar_state_vector(d, rng), haar_state_vector(d, rng)
        ov = abs(np.vdot(a, b)) ** 2
        assert abs(factor_fidelity(a, b) - ov) < 1e-12
        assert abs(factor_trace_distance(a, b) - np.sqrt(1 - ov)) < 1e-12


def test_factor_forms_on_non_square_splits():
    rng = generator(45)
    for split in ((2, 5), (5, 2), (3, 4), (1, 6), (6, 1)):
        d = split[0] * split[1]
        psi = BipartiteState(haar_state_vector(d, rng), split)
        phi = BipartiteState(haar_state_vector(d, rng), split)
        m_psi, m_phi = psi.as_matrix(), phi.as_matrix()
        rho, sigma = psi.reduced_a(), phi.reduced_a()
        _assert_factor_forms_match(m_psi, m_phi)
        assert abs(factor_fidelity(m_psi, m_phi) - fidelity(rho, sigma)) < 1e-10
        assert abs(factor_trace_distance(m_psi, m_phi) - trace_distance(rho, sigma)) < 1e-10


@pytest.mark.parametrize("cols", [2048, 2])
def test_factor_fidelity_of_wide_factors_decomposes_rows_by_rows(cols, monkeypatch):
    # A 4 x 2048 factor is replaced by the 4 x 4 R^dag of its adjoint's QR.
    rng = generator(46)
    l, k = _factor(4, 2048, rng), _factor(4, cols, rng, rank=2)
    want = fidelity(l @ l.conj().T, k @ k.conj().T)
    shapes = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda m, *args, **kw: shapes.append(m.shape) or real(m, *args, **kw))
    assert abs(factor_fidelity(l, k) - want) < 1e-12
    assert abs(factor_fidelity(k, l) - want) < 1e-12
    assert shapes and max(max(shape) for shape in shapes) <= 4


def test_factor_forms_reject_mismatched_rows():
    with pytest.raises(DimensionMismatch):
        factor_fidelity(np.ones((3, 1)), np.ones((4, 1)))
    with pytest.raises(DimensionMismatch):
        factor_trace_distance(np.ones((3, 1)), np.ones((4, 1)))


@pytest.mark.parametrize("rows, cols_l, cols_k, rank", [
    (4, 4, 4, None), (2, 8, 8, None), (2, 8, 3, None), (3, 5, 2, 1), (8, 1, 1, None),
    (6, 3, 7, 2)])
def test_stacked_factor_forms_equal_each_pair_bit_for_bit(rows, cols_l, cols_k, rank):
    # Stacks (..., rows, cols), wide factors (reduce_factor's QR) and
    # rank-deficient ones included, give each pair's own float, bit for bit.
    rng = generator(47)
    ls = np.stack([_factor(rows, cols_l, rng, rank) for _ in range(6)])
    ks = np.stack([_factor(rows, cols_k, rng, rank) for _ in range(6)])
    ks[0] = 0.0 if cols_l != cols_k else ls[0]  # a zero factor, or an equal pair
    for metric in (factor_fidelity, factor_trace_distance):
        want = [metric(l, k) for l, k in zip(ls, ks)]
        assert all(type(w) is float for w in want)
        assert np.array_equal(metric(ls, ks), want)
        grid = metric(ls.reshape(2, 3, rows, cols_l), ks.reshape(2, 3, rows, cols_k))
        assert grid.shape == (2, 3) and np.array_equal(grid.reshape(-1), want)


def test_stacked_fidelity_squares_as_each_pair_does():
    # An array's ** 2 rounds unlike a float's (pow) in ~1 of 1200 values, so
    # 4000 pure pairs would show a stack squared the other way.
    rng = generator(48)
    ls, ks = (np.stack([haar_state_vector(3, rng) for _ in range(4000)])[..., None]
              for _ in range(2))
    want = [factor_fidelity(l, k) for l, k in zip(ls, ks)]
    assert np.array_equal(factor_fidelity(ls, ks), want)


# ---------------------------------------------------------------------------
# sgn_eta

def test_sgn_zero_of_unitary_is_unitary():
    from uhlmann_lab.qcore.random_ops import haar_unitary
    u = haar_unitary(4, generator(6))
    w = sgn_eta(u, 0.0)
    assert np.linalg.norm(w.matrix - u, ord=np.inf) < 1e-12


def test_sgn_threshold_on_diagonal():
    w = sgn_eta(np.diag([0.9, 0.1]), 0.5)
    assert np.allclose(w.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_sgn_rank_matches_gram_schmidt_oracle():
    rng = generator(8)
    for trial in range(10):
        cols = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        m = cols @ (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
        w = sgn_eta(m, 0.0)
        assert w.rank() == gram_schmidt_rank(m)
        # W^dag W is the projector onto the row space.
        pi = w.support_projector
        assert np.linalg.norm(pi @ pi - pi, ord=np.inf) < 1e-9
        assert np.linalg.norm(pi @ m.conj().T - m.conj().T, ord=np.inf) < 1e-9
        # Every singular value of W is 0 or 1.
        sv = np.linalg.svd(w.matrix, compute_uv=False)
        assert np.minimum(sv, np.abs(sv - 1.0)).max() < 1e-9


def test_sgn_eta_band_drops_boundary_values():
    w = sgn_eta(np.diag([0.5, 0.5 + 5e-13, 0.6]), 0.5)
    assert w.rank() == 1


def test_sgn_eta_rejects_bad_input():
    with pytest.raises(ValueError):
        sgn_eta(np.array([[np.nan, 0], [0, 1.0]]), 0.0)
    with pytest.raises(ValueError):
        sgn_eta(np.eye(2), -0.1)


# ---------------------------------------------------------------------------
# state containers

def test_bipartite_state_invariants():
    with pytest.raises(ValueError, match="not normalized"):
        BipartiteState.from_pairs([[1.0, 0], [1.0, 0]], (1, 2))
    with pytest.raises(ValueError, match="not normalized"):
        BipartiteState.from_pairs([[float("nan"), 0], [0, 0]], (1, 2))
    with pytest.raises(DimensionMismatch):
        BipartiteState(np.array([1.0, 0, 0]), (2, 2))
    # The state takes its array: no copy, and a read-only view of it.
    amps = np.array([0.6, 0.8j])
    held = BipartiteState(amps, (1, 2)).amplitudes
    assert np.shares_memory(held, amps) and not held.flags.writeable
    psi = maximally_entangled(3)
    assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-10
    assert np.allclose(psi.reduced_a().matrix, np.eye(3) / 3, atol=1e-12)
    assert np.allclose(psi.reduced_b().matrix, np.eye(3) / 3, atol=1e-12)


def test_density_op_invariants():
    with pytest.raises(DimensionMismatch):
        DensityOp(np.eye(4) / 4, (2, 3))
    with pytest.raises(DimensionCapError):
        maximally_mixed((2,) * 13)
    rho = maximally_mixed((4,))
    assert rho.eigenvalues().min() > -1e-10
    assert abs(np.trace(rho.matrix) - 1) < 1e-10


def test_eigenvalues_read_a_diagonal_and_eigensolve_the_rest():
    probs = np.array([0.4, 0.0, 0.1, 0.3, 0.2])
    diagonal = DensityOp(np.diag(probs), (5,))
    dense = DensityOp(np.diag(probs) + 0.05 * (np.eye(5, k=4) + np.eye(5, k=-4)), (5,))
    assert np.allclose(diagonal.eigenvalues(), np.sort(probs), rtol=0, atol=1e-15)
    assert np.array_equal(dense.eigenvalues(), np.linalg.eigvalsh(dense.matrix))


def test_density_cap_names_offending_size():
    with pytest.raises(DimensionCapError) as err:
        maximally_mixed((2,) * 13)
    assert err.value.size == 8192


def test_reduced_marginals_match_partial_trace():
    vec = haar_state_vector(6, generator(33))
    psi = BipartiteState(vec, (2, 3))
    joint = DensityOp(psi.density().matrix, (2, 3))
    assert np.linalg.norm(psi.reduced_a().matrix
                          - partial_trace(joint, [0]).matrix, ord=np.inf) < 1e-12
    assert np.linalg.norm(psi.reduced_b().matrix
                          - partial_trace(joint, [1]).matrix, ord=np.inf) < 1e-12


def test_purification_recovers_state():
    rho = _random_dm(4, 21, rank=2)
    psi = rho.purify()
    assert np.linalg.norm(psi.reduced_a().matrix - rho.matrix, ord=np.inf) < 1e-10


# ---------------------------------------------------------------------------
# states held as their spectrum

def _spectral_cases():
    """(SpectralState, its dense matrix): diagonal on one and on three
    registers, pure, and rank 2 with complex eigenvectors."""
    rng = generator(61)
    probs = np.array([0.4, 0.0, 0.1, 0.3, 0.2, 0.0])
    vec = haar_state_vector(6, rng)
    q, _ = np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
    return [(SpectralState(probs, (6,)), np.diag(probs)),
            (SpectralState(np.full(8, 0.125), (2, 2, 2)), np.eye(8) / 8),
            (SpectralState.pure(vec), np.outer(vec, vec.conj())),
            (SpectralState([0.75, 0.25], (6,), q), q @ np.diag([0.75, 0.25]) @ q.conj().T)]


def test_spectral_state_reads_like_its_matrix():
    for state, m in _spectral_cases():
        assert state.dim == m.shape[0]
        assert state.is_diagonal == (state.vectors is None)
        assert np.allclose(state.eigenvalues(), np.linalg.eigvalsh(m), rtol=0, atol=1e-14)
        assert state.eigenvalues().shape == (state.dim,)
        assert np.allclose(state.diagonal(), m.diagonal().real, rtol=0, atol=1e-15)
        purification = state.purify()
        assert purification.split == (state.dim, state.dim)
        assert np.abs(purification.reduced_a().matrix - m).max() < 1e-14


def test_spectral_state_validates_at_construction():
    q = np.linalg.qr(np.arange(1.0, 13.0).reshape(6, 2) ** 2)[0]
    with pytest.raises(DimensionMismatch):
        SpectralState(np.full(4, 0.25), (2, 3))          # 4 eigenvalues, d = 6
    with pytest.raises(DimensionMismatch):
        SpectralState([0.5, 0.5], (6,), q[:, :1])        # one column, two eigenvalues
    with pytest.raises(DimensionMismatch):
        SpectralState([0.5, 0.5], (2, 3), q)             # eigenvectors on two registers
    with pytest.raises(DimensionCapError):
        SpectralState(np.full(8192, 1 / 8192), (2,) * 13)
    state = SpectralState.pure(haar_state_vector(4, generator(3)))
    with pytest.raises(ValueError):
        state.p[0] = 0.5                                 # read-only


def test_density_and_spectral_state_take_read_only_views():
    # Like BipartiteState: no copy, and a read-only view of the caller's array,
    # which stays writable.
    m = np.eye(2, dtype=complex) / 2
    held = DensityOp(m, (2,)).matrix
    assert np.shares_memory(held, m) and not held.flags.writeable and m.flags.writeable
    p, vecs = np.array([0.75, 0.25]), np.eye(3, 2, dtype=complex)
    state = SpectralState(p, (3,), vecs)
    for held, given in ((state.p, p), (state.vectors, vecs)):
        assert np.shares_memory(held, given) and not held.flags.writeable
        assert given.flags.writeable


def test_spectral_purification_is_capped_before_it_is_built():
    # d = 2048 is in the density cap, but the d x d purification is not.
    state = SpectralState(np.full(2048, 1 / 2048), (2048,))
    with pytest.raises(DimensionCapError) as err:
        state.purify()
    assert err.value.size == 2048 ** 2


def test_tensor_power_is_kron_then_regroup():
    s = BipartiteState(haar_state_vector(6, generator(4)), (2, 3))
    assert np.array_equal(tensor_power(s, 0), np.array([1.0 + 0j]))
    for k in (1, 2, 3):
        vec = np.array([1.0 + 0j])
        for _ in range(k):
            vec = np.kron(vec, s.amplitudes)
        # (A_1, B_1, ..., A_k, B_k) -> (A_1..A_k, B_1..B_k)
        want = vec.reshape([2, 3] * k).transpose(
            list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2))).reshape(-1)
        assert np.allclose(tensor_power(s, k), want, atol=1e-15)
