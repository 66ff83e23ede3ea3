import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import swap_matrix
from uhlmann_lab.errors import DimensionMismatch
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


def transpose_reference(vec, dims, mat, targets):
    """The register apply by one transpose of every register: targets to the
    front, ``mat`` on the (targets, rest) matrix, and back."""
    dims, targets = list(dims), list(targets)
    rest = [a for a in range(len(dims)) if a not in targets]
    tensor = np.transpose(vec.reshape(dims), targets + rest)
    tensor = mat @ tensor.reshape(math.prod(dims[t] for t in targets), -1)
    tensor = tensor.reshape([dims[t] for t in targets] + [dims[a] for a in rest])
    return np.transpose(tensor, np.argsort(targets + rest)).reshape(-1)


@st.composite
def register_applies(draw):
    """(vec, dims, mat, targets): 1-6 registers of dimension 1-4, or qubit
    registers with a trailing column register (a (2^n, k) input), and 0-3
    distinct targets in any order."""
    if draw(st.booleans()):
        dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
        registers = list(range(len(dims)))
    else:
        registers = list(range(draw(st.integers(1, 5))))
        dims = [2] * len(registers) + [draw(st.integers(1, 5))]
    targets = draw(st.permutations(registers))[:draw(st.integers(0, min(3, len(registers))))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = math.prod(dims)
    d_t = math.prod(dims[t] for t in targets)
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    mat = rng.standard_normal((d_t, d_t)) + 1j * rng.standard_normal((d_t, d_t))
    return vec, dims, mat, targets


@settings(max_examples=300, deadline=None, derandomize=True)
@given(register_applies())
def test_register_apply_is_bit_identical_to_the_transpose_reference(case):
    vec, dims, mat, targets = case
    want = transpose_reference(vec, dims, mat, targets)
    assert np.array_equal(linalg.apply_matrix_to_registers(vec, dims, mat, targets), want)
    # The cached plan serves the same shapes again, as lists or as tuples.
    assert np.array_equal(
        linalg.apply_matrix_to_registers(vec, tuple(dims), mat, tuple(targets)), want)


def test_register_plan_cache_is_bounded():
    assert linalg._register_plan.cache_info().maxsize is not None


def test_register_apply_refuses_repeated_or_missing_targets():
    vec = np.zeros(8, dtype=complex)
    for targets in ([0, 0], [3], [-1]):
        d_t = 2 ** len(targets)
        with pytest.raises(DimensionMismatch):
            linalg.apply_matrix_to_registers(vec, [2, 2, 2], np.eye(d_t), targets)
    with pytest.raises(DimensionMismatch):
        linalg.apply_matrix_to_registers(vec, [2, 2, 2], np.eye(4), [1])


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
