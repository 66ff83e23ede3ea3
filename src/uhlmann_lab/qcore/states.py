"""Pure bipartite states, density operators, and states held as their spectrum."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import DimensionMismatch, check_density_cap, check_pure_cap
from . import linalg

_VALIDATE_ATOL = 1e-8


def pair_array(pairs) -> np.ndarray:
    """[re, im] number pairs as a float (n, 2) array; strings, other lengths
    and ragged lists are refused with a ValueError. A float (n, 2) array, as
    the CLI reads a long list, is returned as it is."""
    parts = np.asarray(pairs)
    if parts.dtype.kind not in "biuf" or parts.ndim != 2 or parts.shape[1] != 2:
        raise ValueError("amplitudes must be a list of [re, im] number pairs")
    return np.ascontiguousarray(parts, dtype=float)


@dataclass(frozen=True)
class BipartiteState:
    """Normalized complex amplitude vector with an (dA, dB) register split."""

    amplitudes: np.ndarray
    split: tuple

    def __post_init__(self):
        # A read-only view of the caller's array, no copy (a caller that writes
        # to it later passes a copy); a file's norm is checked in ``from_pairs``.
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex).reshape(-1)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "split", (int(self.split[0]), int(self.split[1])))
        dA, dB = self.split
        if dA < 1 or dB < 1 or dA * dB != amps.shape[0]:
            raise DimensionMismatch(
                f"split {self.split} does not factor vector of length {amps.shape[0]}")
        check_pure_cap(amps.shape[0])

    @staticmethod
    def from_pairs(pairs, split) -> "BipartiteState":
        """The normalized state whose amplitudes are listed as [re, im] number
        pairs, the form instance and scheme files hold: ``pair_array(pairs)``
        viewed as complex, which gives the bits of complex(re, im)."""
        state = BipartiteState(pair_array(pairs).view(complex), split)
        nrm = np.linalg.norm(state.amplitudes)
        if not abs(nrm - 1.0) <= _VALIDATE_ATOL:  # NaN fails too
            raise ValueError(f"state not normalized: |norm - 1| = {abs(nrm - 1.0):.3g}")
        return state

    @property
    def dA(self) -> int:
        return self.split[0]

    @property
    def dB(self) -> int:
        return self.split[1]

    def as_matrix(self) -> np.ndarray:
        """Coefficient matrix M with psi = sum_ab M[a,b] |a>|b>."""
        return self.amplitudes.reshape(self.split)

    def density(self) -> "DensityOp":
        v = self.amplitudes
        return DensityOp(np.outer(v, v.conj()), self.split)

    def reduced_a(self) -> "DensityOp":
        m = self.as_matrix()
        return DensityOp(m @ m.conj().T, (self.dA,))

    def reduced_b(self) -> "DensityOp":
        m = self.as_matrix()
        return DensityOp(m.T @ m.conj(), (self.dB,))

    def overlap(self, other: "BipartiteState") -> complex:
        if other.amplitudes.shape != self.amplitudes.shape:
            raise DimensionMismatch("states live in different dimensions")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityOp:
    """Hermitian PSD trace-1 operator over a list of register dimensions."""

    matrix: np.ndarray
    dims: tuple

    def __post_init__(self):
        # A read-only view of the caller's array, no copy (a caller that writes
        # to it later passes a copy); the package builds its densities valid.
        dims = tuple(int(d) for d in (self.dims if not np.isscalar(self.dims) else (self.dims,)))
        d = math.prod(dims)
        check_density_cap(d)
        m = np.ascontiguousarray(self.matrix, dtype=complex).view()
        if m.shape != (d, d):
            raise DimensionMismatch(f"matrix shape {m.shape} vs register dims {dims}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """The spectrum, ascending: ``eigvalsh`` of the hermitized matrix."""
        return np.linalg.eigvalsh(linalg.hermitize(self.matrix))

    def purify(self) -> BipartiteState:
        """Canonical purification |rho> = sum_i sqrt(l_i) |e_i>|i> with split (d, d)."""
        vals, vecs = np.linalg.eigh(linalg.hermitize(self.matrix))
        vals = np.clip(vals, 0.0, None)
        vals = vals / vals.sum()
        m = vecs * np.sqrt(vals)  # column i is sqrt(l_i) e_i; M[a, i]
        return BipartiteState(m.reshape(-1), (self.dim, self.dim))


@dataclass(frozen=True)
class SpectralState:
    """A density operator held as its spectrum: eigenvalues ``p`` and, unless
    it is diagonal in the computational basis, its orthonormal eigenvectors
    as the columns of ``vectors`` (d x len(p)). Readers take the spectrum,
    the diagonal and one purification, so the d x d matrix is never built.

    A state with eigenvectors lives on one register; a diagonal one may be
    split over several, as ``mm:n`` is over n qubits.
    """

    p: np.ndarray
    dims: tuple
    vectors: Optional[np.ndarray] = None

    def __post_init__(self):
        # Read-only views of the caller's arrays, no copies; ``cli`` checks a
        # ``diag:`` spec, and the package builds its other spectra valid.
        dims = tuple(int(d) for d in self.dims)
        d = math.prod(dims)
        check_density_cap(d)
        p = np.ascontiguousarray(self.p, dtype=float).reshape(-1)
        vecs = self.vectors
        if vecs is None:
            if p.size != d:
                raise DimensionMismatch(f"{p.size} eigenvalues vs register dims {dims}")
        else:
            vecs = np.ascontiguousarray(vecs, dtype=complex).view()
            if len(dims) > 1 or vecs.shape != (d, p.size):
                raise DimensionMismatch(
                    f"eigenvectors of shape {vecs.shape} vs {p.size} eigenvalues on one "
                    f"register of dims {dims}")
            vecs.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "vectors", vecs)

    @staticmethod
    def pure(vec) -> "SpectralState":
        """|vec><vec| on one register."""
        vec = np.asarray(vec, dtype=complex).reshape(-1, 1)
        return SpectralState(np.ones(1), (vec.shape[0],), vec)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def is_diagonal(self) -> bool:
        return self.vectors is None

    def diagonal(self) -> np.ndarray:
        if self.vectors is None:
            return self.p
        return (np.abs(self.vectors) ** 2) @ self.p

    def eigenvalues(self) -> np.ndarray:
        """The spectrum, ascending, with the zeros off the eigenvectors' span."""
        if self.vectors is None:
            return np.sort(self.p)
        return np.sort(np.concatenate([self.p, np.zeros(self.dim - self.p.size)]))

    def purify(self) -> BipartiteState:
        """|rho> = sum_i sqrt(p_i) |v_i>|i> with split (d, d): column i of the
        coefficient matrix is sqrt(p_i) v_i, and the columns past len(p) are 0."""
        d = self.dim
        check_pure_cap(d * d)
        root = np.sqrt(self.p / self.p.sum())
        if self.vectors is None:
            return BipartiteState(np.diag(root).astype(complex).reshape(-1), (d, d))
        m = np.zeros((d, d), dtype=complex)
        m[:, :root.size] = self.vectors * root
        return BipartiteState(m.reshape(-1), (d, d))


def maximally_mixed(dims) -> DensityOp:
    dims = tuple(int(d) for d in (dims if not np.isscalar(dims) else (dims,)))
    d = math.prod(dims)
    check_density_cap(d)
    return DensityOp(np.eye(d) / d, dims)


def maximally_entangled(d: int) -> BipartiteState:
    """|Phi> = d^{-1/2} sum_i |i>|i> with split (d, d)."""
    v = np.eye(d).reshape(-1) / np.sqrt(d)
    return BipartiteState(v, (d, d))


def tensor_power(state: BipartiteState, k: int) -> np.ndarray:
    """|state>^{⊗k} on registers (A_1..A_k, B_1..B_k): the A-block, then the B-block."""
    vec = linalg.kron_all([state.amplitudes] * k).reshape(-1)
    order = list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2))
    return linalg.permute_rows(vec, [state.dA, state.dB] * k, order)


def partial_trace(op: DensityOp, keep: Sequence[int]) -> DensityOp:
    """Trace out all registers of ``op`` except those in ``keep``."""
    keep = sorted(int(k) for k in keep)
    if any(k < 0 or k >= len(op.dims) for k in keep):
        raise DimensionMismatch(f"keep {keep} invalid for dims {op.dims}")
    out = linalg.partial_trace_matrix(op.matrix, op.dims, keep)
    return DensityOp(out, tuple(op.dims[k] for k in keep))

