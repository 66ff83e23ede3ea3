"""Dense tensor-register bookkeeping and Hermitian matrix helpers.

Register convention: register 0 is the most significant factor, so a state
vector over registers with dimensions (d0, d1, ...) is indexed row-major,
and ``vec.reshape(dims)`` puts register i on axis i.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from ..errors import DimensionMismatch


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def basis_vector(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def apply_matrix_to_registers(vec: np.ndarray, dims: Sequence[int], mat: np.ndarray,
                              targets: Sequence[int]) -> np.ndarray:
    """Apply ``mat`` to the given registers of a state vector.

    ``mat`` acts on the tensor product of the target registers in the order
    listed; all other registers are untouched. The targets are moved to the
    front by one transpose-copy, ``mat`` multiplies the (targets, rest)
    matrix, and one transpose moves them back; the shapes and axis orders
    come from ``_register_plan``.
    """
    shape, forward, flat, middle, backward = _register_plan(tuple(dims), tuple(targets))
    if mat.shape != (flat[0], flat[0]):
        raise DimensionMismatch(f"matrix shape {mat.shape} does not act on dims {flat[0]}")
    tensor = vec.reshape(shape).transpose(forward).reshape(flat)
    return (mat @ tensor).reshape(middle).transpose(backward).reshape(-1)


@functools.lru_cache(maxsize=1024)
def _register_plan(dims: tuple, targets: tuple) -> tuple:
    """(shape, forward, flat, middle, backward) for ``apply_matrix_to_registers``.

    Each run of adjacent untouched registers is merged into one axis of
    ``shape``, which leaves the (targets, rest) matrix ``flat`` and its
    element order as they are. ``forward`` puts the target axes first, in the
    listed order, and ``backward`` undoes it on ``middle``, the product's
    (target dims, merged rest dims) shape.
    """
    if len(set(targets)) != len(targets) or not all(0 <= t < len(dims) for t in targets):
        raise DimensionMismatch(f"targets {list(targets)} are not distinct registers "
                                f"of {len(dims)}")
    shape, axis_of = [], {}
    for reg, d in enumerate(dims):
        if reg in targets:
            axis_of[reg] = len(shape)
            shape.append(d)
        elif reg == 0 or reg - 1 in targets:
            shape.append(d)
        else:
            shape[-1] *= d
    rest = [axis for axis in range(len(shape)) if axis not in axis_of.values()]
    forward = tuple(axis_of[t] for t in targets) + tuple(rest)
    middle = tuple(shape[axis] for axis in forward)
    flat = (math.prod(dims[t] for t in targets),
            math.prod(d for reg, d in enumerate(dims) if reg not in targets))
    return tuple(shape), forward, flat, middle, tuple(np.argsort(forward).tolist())


def apply_matrix_to_registers_dm(rho: np.ndarray, dims: Sequence[int], mat: np.ndarray,
                                 targets: Sequence[int]) -> np.ndarray:
    """Conjugate a density matrix by ``mat`` acting on the given registers.

    Row-major vectorization: vec(M rho M^dag) = (M ⊗ conj(M)) vec(rho).
    """
    d = math.prod(dims)
    n = len(dims)
    as_vec = rho.reshape(-1)
    ext_dims = list(dims) * 2
    out = apply_matrix_to_registers(as_vec, ext_dims, mat, list(targets))
    out = apply_matrix_to_registers(out, ext_dims, mat.conj(), [t + n for t in targets])
    return out.reshape(d, d)


def permute_rows(m: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """``permutation_matrix(dims, perm) @ m`` by reshape and transpose: the rows
    of ``m`` (the entries of a vector) are indexed by registers ``dims`` and
    reordered so that output register i is input register perm[i]."""
    n = len(dims)
    tensor = m.reshape(list(dims) + [-1])
    return np.transpose(tensor, list(perm) + [n]).reshape(m.shape)


def permutation_matrix(dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Unitary P with P|r_0, r_1, ...> = |r_{perm[0]}, r_{perm[1]}, ...>."""
    return permute_rows(np.eye(math.prod(dims)), dims, perm)


def partial_trace_matrix(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all registers not in ``keep`` (kept registers stay in order)."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    traced = [a for a in range(n) if a not in keep]
    tensor = rho.reshape(dims * 2)
    perm = keep + [k + n for k in keep] + traced + [t + n for t in traced]
    tensor = np.transpose(tensor, perm)
    d_keep = math.prod(dims[k] for k in keep)
    d_tr = math.prod(dims[t] for t in traced)
    tensor = tensor.reshape(d_keep, d_keep, d_tr, d_tr)
    return np.trace(tensor, axis1=2, axis2=3)


def hermitize(m: np.ndarray) -> np.ndarray:
    """(M + M^dag) / 2, for M or for each matrix of a stack (..., d, d)."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix; negative eigenvalues clamped to 0.

    Eigenvalues within 1e-13 of zero (relative to the largest) are zeroed
    before the root: the square root would otherwise amplify eigensolver
    noise on rank-deficient inputs to ~1e-8.
    """
    vals, vecs = np.linalg.eigh(hermitize(m))
    cut = 1e-13 * max(vals.max(initial=0.0), 1e-300)
    vals = np.where(vals > cut, vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def psd_power(m: np.ndarray, power: float, rcond: float = 1e-12) -> np.ndarray:
    """Hermitian matrix power restricted to the support (pseudo-inverse style)."""
    vals, vecs = np.linalg.eigh(hermitize(m))
    vals = np.clip(vals, 0.0, None)
    cut = rcond * max(vals.max(initial=0.0), 1.0)
    powered = np.power(vals, power, out=np.zeros_like(vals), where=vals > cut)
    return (vecs * powered) @ vecs.conj().T


def is_unitary(m: np.ndarray, atol: float = 1e-10) -> bool:
    if m.shape[0] != m.shape[1]:
        return False
    return np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]), ord=np.inf) <= atol

