import itertools
import warnings

import numpy as np

from conftest import swap_matrix
from uhlmann_lab.qcore import linalg
from uhlmann_lab.rng import generator


def explicit_permutation(dims, perm):
    """P|r_0, r_1, ...> = |r_{perm[0]}, r_{perm[1]}, ...>, one basis state at a time."""
    d = int(np.prod(dims))
    out_dims = [dims[p] for p in perm]
    p = np.zeros((d, d))
    for col, digits in enumerate(itertools.product(*[range(k) for k in dims])):
        row = np.ravel_multi_index([digits[q] for q in perm], out_dims)
        p[row, col] = 1.0
    return p


def test_permute_rows_matches_permutation_matrix_product():
    rng = generator(3)
    cases = [([2, 3, 4], [1, 2, 0]), ([3, 1, 2, 2], [2, 0, 3, 1])]
    for _ in range(6):
        n = int(rng.integers(1, 5))
        cases.append(([int(k) for k in rng.integers(1, 5, size=n)],
                      [int(q) for q in rng.permutation(n)]))
    for dims, perm in cases:
        d = int(np.prod(dims))
        m = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
        p = explicit_permutation(dims, perm)
        assert np.array_equal(linalg.permutation_matrix(dims, perm), p)
        assert np.array_equal(linalg.permute_rows(m, dims, perm),
                              linalg.permutation_matrix(dims, perm) @ m)
        assert np.array_equal(linalg.permute_rows(m[:, 0], dims, perm), p @ m[:, 0])


def test_swap_matrix_exchanges_registers():
    for d1, d2 in ((2, 3), (3, 2), (1, 4), (3, 3)):
        s = swap_matrix(d1, d2)
        assert np.array_equal(s, explicit_permutation([d1, d2], [1, 0]))
        for i, j in itertools.product(range(d1), range(d2)):
            ket = np.kron(np.eye(d1)[i], np.eye(d2)[j])
            assert np.array_equal(s @ ket, np.kron(np.eye(d2)[j], np.eye(d1)[i]))


def test_psd_power_raises_no_warning_on_rank_deficient_input():
    v = np.array([1.0, 2.0, 0.0, 0.0])
    m = np.diag(v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv_root = linalg.psd_power(m, -0.5)
    assert np.allclose(inv_root, np.diag([1.0, 2.0 ** -0.5, 0.0, 0.0]), atol=1e-15)


def test_is_diagonal_sees_every_off_diagonal_entry():
    for d in range(1, 6):
        assert linalg.is_diagonal(np.diag(np.arange(1.0, d + 1)).astype(complex))
        for i, j in itertools.product(range(d), repeat=2):
            if i != j:
                for entry in (1e-300, 1e-300j):
                    m = np.eye(d, dtype=complex)
                    m[i, j] = entry
                    assert not linalg.is_diagonal(m), (d, i, j, entry)


def test_is_diagonal_on_strided_views():
    big = np.diag(np.arange(1.0, 9.0))
    assert linalg.is_diagonal(big[::2, ::2])
    big[0, 6] = 1.0
    assert not linalg.is_diagonal(big[::2, ::2])
    assert not linalg.is_diagonal(big.T[::2, ::2])
    assert linalg.is_diagonal(big[1::2, 1::2])


def test_hermitian_residual_equals_inf_norm_bit_for_bit():
    rng = generator(12)
    for d in (1, 5, 37, 100):  # 37 and 100 are not multiples of the band
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        skewed = a + a.conj().T
        skewed[-1, 0] += 10.0  # the largest row sum sits in the last band
        for m in (a, skewed, a + a.conj().T, linalg.hermitize(a)):
            got = linalg.hermitian_residual(m)
            assert got.tobytes() == np.linalg.norm(m - m.conj().T, ord=np.inf).tobytes()
