import numpy as np
import pytest

from conftest import pauli_matrix, swap_matrix
from uhlmann_lab.errors import DimensionCapError, DimensionMismatch
from uhlmann_lab.qcore import random_clifford, random_symplectic
from uhlmann_lab.qcore.random_ops import (_find_transvection, _pauli_masks, _support_start,
                                          _transvection, pauli_action)
from uhlmann_lab.rng import as_seed, child_seed, generator


def test_clifford_is_unitary():
    for n in (1, 2, 3):
        for seed in range(4):
            u = random_clifford(n, child_seed(0, "u", 10 * n + seed))
            err = np.linalg.norm(u.conj().T @ u - np.eye(2 ** n), ord=np.inf)
            assert err < 1e-10


def test_clifford_determinism():
    a = random_clifford(3, 42)
    b = random_clifford(3, 42)
    assert np.array_equal(a, b)
    c = random_clifford(3, 43)
    assert not np.allclose(a, c)


def test_clifford_normalizes_paulis():
    n = 2
    for seed in range(6):
        u = random_clifford(n, child_seed(1, "p", seed))
        for bit in range(2 * n):
            v = np.zeros(2 * n, dtype=np.int64)
            v[bit] = 1
            img = u @ pauli_matrix(v) @ u.conj().T
            # The image must be a signed Pauli: entries all in {0, +-1, +-i} pattern.
            best = None
            for xz in range(4 ** n):
                bits = np.array([(xz >> j) & 1 for j in range(2 * n)])
                p = pauli_matrix(bits)
                ov = np.trace(p.conj().T @ img) / (2 ** n)
                if abs(abs(ov) - 1.0) < 1e-9:
                    best = (bits, ov)
                    break
            assert best is not None, f"image of generator {bit} is not Pauli"
            assert abs(abs(best[1].real) - 1.0) < 1e-9  # sign is +-1, not +-i


def test_symplectic_matrix_preserves_form():
    rng = generator(5)
    for n in (1, 2, 3):
        for _ in range(5):
            g = random_symplectic(n, rng)
            # Form matrix in the interleaved convention.
            j = np.zeros((2 * n, 2 * n), dtype=np.int64)
            for i in range(n):
                j[2 * i, 2 * i + 1] = 1
                j[2 * i + 1, 2 * i] = 1
            assert np.array_equal((g @ j @ g.T) % 2, j)


def test_single_qubit_clifford_hits_24_classes_uniformly():
    counts = {}
    samples = 10000
    for i in range(samples):
        u = random_clifford(1, child_seed(7, "class", i))
        piv = int(np.argmax(np.abs(u)))
        phase = u.flat[piv] / abs(u.flat[piv])
        sig = np.round(u / phase, 6)
        key = (sig.real.tobytes(), sig.imag.tobytes())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 24
    expect = samples / 24
    sigma = np.sqrt(samples * (1 / 24) * (23 / 24))
    for count in counts.values():
        assert abs(count - expect) <= 3 * sigma


def test_clifford_two_design_twirl():
    d = 2
    x = np.zeros((4, 4), dtype=complex)
    x[1, 1] = 1.0  # |01><01|
    s = swap_matrix(d, d)
    acc = np.zeros((4, 4), dtype=complex)
    n_samples = 1500
    for i in range(n_samples):
        u = random_clifford(1, child_seed(9, "twirl", i))
        uu = np.kron(u, u)
        acc += uu @ x @ uu.conj().T
    acc /= n_samples
    tr_x, tr_sx = np.trace(x), np.trace(s @ x)
    denom = d ** 4 - d ** 2
    alpha = (d * d * tr_x - d * tr_sx) / denom
    beta = (d * d * tr_sx - d * tr_x) / denom
    twirl = alpha * np.eye(4) + beta * s
    assert np.linalg.norm(acc - twirl, ord=2) < 0.05


def test_pauli_action_matches_pauli_matrix():
    for n in (1, 2, 3):
        idx = np.arange(2 ** n)
        for bits in range(4 ** n):
            v = np.array([(bits >> j) & 1 for j in range(2 * n)])
            for sign in (0, 1):
                perm, phase = pauli_action(v, sign)
                dense = np.zeros((2 ** n, 2 ** n), dtype=complex)
                dense[idx, perm] = phase
                assert np.array_equal(dense, pauli_matrix(v, sign))


def _dense_pauli_clifford(n, seed):
    """Reference synthesis: the Clifford with the sampled Pauli images, built by
    multiplying dense Pauli matrices."""
    rng = as_seed(seed).child("clifford").generator()
    g = random_symplectic(n, rng)
    signs = rng.integers(0, 2, size=2 * n)
    proj = np.eye(2 ** n, dtype=complex)
    for i in range(n):
        proj = 0.5 * (proj + pauli_matrix(g[2 * i + 1], int(signs[2 * i + 1])) @ proj)
    phi = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
    phi = phi / np.linalg.norm(phi)
    pivot = int(np.argmax(np.abs(phi)))
    cols = [phi * (np.abs(phi[pivot]) / phi[pivot])]
    for i in reversed(range(n)):
        x_image = pauli_matrix(g[2 * i], int(signs[2 * i]))
        cols = cols + [x_image @ c for c in cols]
    return np.stack(cols, axis=1)


def _projector_clifford(n, seed):
    """Reference synthesis: U|0^n> as the first nonzero column of the whole
    d x d stabilizer projector, built through the Paulis' index maps."""
    rng = as_seed(seed).child("clifford").generator()
    g = random_symplectic(n, rng)
    signs = rng.integers(0, 2, size=2 * n)
    d = 2 ** n
    proj = np.eye(d, dtype=complex)
    for i in range(n):
        perm, phase = pauli_action(g[2 * i + 1], int(signs[2 * i + 1]))
        proj = 0.5 * (proj + phase[:, None] * proj[perm])
    phi = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
    phi = phi / np.linalg.norm(phi)
    pivot = int(np.argmax(np.abs(phi)))
    u = np.empty((d, d), dtype=complex)
    u[:, 0] = phi * (np.abs(phi[pivot]) / phi[pivot])
    filled = 1
    for i in reversed(range(n)):
        perm, phase = pauli_action(g[2 * i], int(signs[2 * i]))
        u[:, filled:2 * filled] = phase[:, None] * u[perm, :filled]
        filled *= 2
    return u


# Seeds whose U|0^n> has a late first nonzero amplitude: at index 64 or past
# it for child_seed(3, "blocks", 100 n + s), and at 2^(n-1) or past it (the
# top bit set on the whole support) for child_seed(3, "support", 100 n + s).
_PAST_64 = {7: (146, 191), 8: (9, 47), 9: (10, 32), 10: (24, 48)}
_TOP_BIT = {2: (2, 11), 3: (18, 63), 4: (12, 28), 5: (91, 166), 6: (91, 261), 7: (314,),
            9: (372,)}


def _clifford_cases(n, count):
    """(seed, an index the first nonzero amplitude of U|0^n> is known to reach)."""
    cases = [(child_seed(3, "bits", 10 * n + s), 0) for s in range(count)]
    cases += [(child_seed(3, "blocks", 100 * n + s), 64) for s in _PAST_64.get(n, ())]
    cases += [(child_seed(3, "support", 100 * n + s), 2 ** (n - 1))
              for s in _TOP_BIT.get(n, ())]
    return cases


def test_clifford_equals_dense_pauli_construction_bit_for_bit():
    # A dense product writes +0.0 where an index map writes -0.0 (a phase -1
    # times 0), so zeros are made +0.0 on both sides; the signs of zeros are
    # compared with the full-projector oracle below.
    for n in range(1, 9):
        for seed, start in _clifford_cases(n, 4):
            fast = random_clifford(n, seed)
            dense = _dense_pauli_clifford(n, seed)
            assert (fast + 0.0).tobytes() == (dense + 0.0).tobytes()
            assert np.flatnonzero(fast[:, 0])[0] >= start


def test_clifford_equals_full_projector_construction_bit_for_bit():
    for n in range(1, 11):
        d = 2 ** n
        # The channel input columns, the last (every image applied) and a spread.
        columns = sorted({0, d // 2, d - 1, d // 3, (5 * d) // 7})
        for seed, start in _clifford_cases(n, 4 if n < 9 else 2):
            fast = random_clifford(n, seed)
            assert fast.tobytes() == _projector_clifford(n, seed).tobytes()
            picked = random_clifford(n, seed, columns=columns)
            assert picked.tobytes() == fast[:, columns].tobytes()
            assert random_clifford(n, seed, columns=(0, d // 2)).tobytes() == \
                fast[:, [0, d // 2]].tobytes()
            assert np.flatnonzero(fast[:, 0])[0] >= start


def test_support_start_is_the_projectors_first_nonzero_column():
    for n in range(1, 9):
        for seed, start in _clifford_cases(n, 25):
            rng = as_seed(seed).child("clifford").generator()
            g = random_symplectic(n, rng)
            signs = rng.integers(0, 2, size=2 * n)
            paulis = [(g[2 * i + 1], int(signs[2 * i + 1])) for i in range(n)]
            proj = np.eye(2 ** n, dtype=complex)
            for v, sign in paulis:
                proj = 0.5 * (proj + pauli_matrix(v, sign) @ proj)
            first = int(np.flatnonzero(proj.any(axis=0))[0])
            assert _support_start([_pauli_masks(v, sign) for v, sign in paulis]) == first
            assert first >= start


def _per_row_symplectic(n, rng):
    """The Koenig-Smolin draw with its four transvections applied one row at a time."""
    nn = 2 * n
    f1 = rng.integers(0, 2, size=nn)
    while not f1.any():
        f1 = rng.integers(0, 2, size=nn)
    e1 = np.zeros(nn, dtype=np.int64)
    e1[0] = 1
    t = _find_transvection(e1, f1)
    bits = rng.integers(0, 2, size=nn - 1)
    eprime = e1.copy()
    eprime[2:] = bits[1:]
    h0 = _transvection(t[1], _transvection(t[0], eprime))
    if bits[0] == 1:
        f1 = f1 * 0
    g = np.eye(nn, dtype=np.int64)
    if n > 1:
        g[2:, 2:] = _per_row_symplectic(n - 1, rng)
    for j in range(nn):
        for h in (t[0], t[1], h0, f1):
            product = int(h[0::2] @ g[j, 1::2] + h[1::2] @ g[j, 0::2]) % 2
            g[j] = (g[j] + product * h) % 2
    return g


def test_symplectic_equals_per_row_transvections():
    for n in range(1, 13):
        for seed in range(40 if n < 8 else 10):
            fast, slow = generator(seed), generator(seed)
            g = random_symplectic(n, fast)
            ref = _per_row_symplectic(n, slow)
            assert g.dtype == ref.dtype and np.array_equal(g, ref)
            # Both drew the same numbers: the generators are in the same state.
            assert fast.integers(2 ** 62) == slow.integers(2 ** 62)


def test_clifford_cap_counts_the_columns_built():
    with pytest.raises(DimensionCapError, match="materialized Clifford dimension 4194304"):
        random_clifford(11, 1)
    assert random_clifford(12, 1, columns=(0, 2048)).shape == (4096, 2)
    # d * len(columns) entries: 2^16 x 2 is in the cap, 2^20 x 2 is not.
    assert random_clifford(16, 1, columns=(0, 1)).shape == (65536, 2)
    with pytest.raises(DimensionCapError, match="materialized Clifford dimension 2097152"):
        random_clifford(20, 1, columns=(0, 1))


def test_clifford_needs_a_qubit():
    for n in (0, -1):
        with pytest.raises(DimensionMismatch):
            random_clifford(n, 1)
        with pytest.raises(DimensionMismatch):
            random_symplectic(n, generator(1))


def test_clifford_columns_hold_one_index_map_at_a_time():
    # 24 d bytes per index map: holding all 14 stabilizer maps at once
    # peaked at ~27 complex vectors of d; one map at a time, at ~6.
    import tracemalloc
    n = 14
    random_clifford(3, 0, columns=(0, 4))
    tracemalloc.start()
    try:
        u = random_clifford(n, 5, columns=(0, 2 ** (n - 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.shape == (2 ** n, 2)
    assert peak < 8 * 16 * 2 ** n, f"peak {peak / (16 * 2 ** n):.1f} complex vectors"
