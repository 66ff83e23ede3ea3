"""Distance measures and SVD thresholding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch, NotPositive
from . import linalg
from .states import DensityOp

# Singular values within this band of the cutoff count as below it, so that
# numerically rank-deficient inputs threshold the way exact arithmetic would.
SGN_BAND = 1e-12


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityOp):
        return rho.matrix
    return np.asarray(rho, dtype=complex)


def fidelity(rho, sigma) -> float:
    """Squared-convention fidelity F = ||sqrt(rho) sqrt(sigma)||_1^2, clamped to [0,1]."""
    r, s = _as_matrix(rho), _as_matrix(sigma)
    if r.shape != s.shape:
        raise DimensionMismatch(f"shapes {r.shape} vs {s.shape}")
    for m in (r, s):
        if np.linalg.eigvalsh(linalg.hermitize(m)).min() < -1e-7:
            raise NotPositive("fidelity input not PSD within tolerance")
    root = linalg.psd_sqrt(r) @ linalg.psd_sqrt(s)
    val = np.linalg.svd(root, compute_uv=False).sum() ** 2
    return float(np.clip(val.real, 0.0, 1.0))


def trace_distance(rho, sigma) -> float:
    """td = (1/2) ||rho - sigma||_1, clamped to [0,1]."""
    r, s = _as_matrix(rho), _as_matrix(sigma)
    if r.shape != s.shape:
        raise DimensionMismatch(f"shapes {r.shape} vs {s.shape}")
    vals = np.linalg.eigvalsh(linalg.hermitize(r - s))
    return float(np.clip(0.5 * np.abs(vals).sum(), 0.0, 1.0))


def _factor_pair(l, k) -> tuple:
    l, k = (np.asarray(f, dtype=complex) for f in (l, k))
    l, k = (f.reshape(-1, 1) if f.ndim == 1 else f for f in (l, k))
    if l.shape[-2] != k.shape[-2]:
        raise DimensionMismatch(f"factor rows {l.shape[-2]} vs {k.shape[-2]}")
    return l, k


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _clamped(val):
    val = np.clip(val, 0.0, 1.0)  # a float for one pair, an array for a stack
    return float(val) if val.ndim == 0 else val


def reduce_factor(l: np.ndarray) -> np.ndarray:
    """A factor with the same L L^dag and at most as many columns as rows.

    A factor with more columns than rows is replaced by R^dag from the
    reduced QR L^dag = Q R: then L = R^dag Q^dag, so L L^dag = R^dag R, and
    ||L^dag K||_1 = ||R K||_1 for any K (Q^dag has orthonormal rows).
    """
    return _dagger(np.linalg.qr(_dagger(l), mode="r")) if l.shape[-1] > l.shape[-2] else l


def factor_fidelity(l, k):
    """F(L L^dag, K K^dag) = ||L^dag K||_1^2 (Uhlmann form), clamped to [0,1].

    L and K are factors (one column each for a pure state, a purification's
    amplitude matrix for its reduced state, a channel's output with the
    environment in the columns). Each is first narrowed by
    ``reduce_factor``, so the decomposed product is at most rows x rows,
    however wide the factors are. Like every factor metric, it broadcasts
    over stacks (..., rows, cols); ``float_power`` squares by ``pow`` as a
    float's ``** 2`` does (an array's multiplies), so each pair of a stack
    gets its own call's bits.
    """
    l, k = (reduce_factor(f) for f in _factor_pair(l, k))
    sv = np.linalg.svd(_dagger(l) @ k, compute_uv=False)
    return _clamped(np.float_power(sv.sum(axis=-1), 2))


def factor_trace_distance(l, k):
    """td(L L^dag, K K^dag), clamped to [0,1], inside span[L, K].

    With the reduced QR [L | K] = Q [R1 | R2], the difference
    L L^dag - K K^dag = Q (R1 R1^dag - R2 R2^dag) Q^dag has the spectrum of
    the small core, so one eigvalsh of size min(rows, k_L + k_K) gives td.
    """
    l, k = _factor_pair(l, k)
    r = np.linalg.qr(np.concatenate([l, k], axis=-1), mode="r")
    r1, r2 = r[..., :l.shape[-1]], r[..., l.shape[-1]:]
    vals = np.linalg.eigvalsh(linalg.hermitize(r1 @ _dagger(r1) - r2 @ _dagger(r2)))
    return _clamped(0.5 * np.abs(vals).sum(axis=-1))


@dataclass(frozen=True)
class PartialIsometryOp:
    """Partial isometry W = left right^dag, held as its factors.

    ``left`` and ``right`` have orthonormal columns, one per unit singular
    value: ``left`` spans the range of W and ``right`` its support.
    """

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        # Read-only views of the arrays it is given (a copy only to make them
        # complex and contiguous), which stay writable: a caller that writes
        # to its array later passes a copy.
        for name in ("left", "right"):
            m = np.ascontiguousarray(getattr(self, name), dtype=complex).view()
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    @property
    def matrix(self) -> np.ndarray:
        return self.left @ self.right.conj().T

    @property
    def support_projector(self) -> np.ndarray:
        """W^dag W, the projector onto the support."""
        return self.right @ self.right.conj().T

    def rank(self) -> int:
        return self.left.shape[1]

    def completion_factors(self) -> tuple:
        """(Q, V) with U = I + Q (V - I) Q^dag a unitary that agrees with W on
        its support.

        Q is an orthonormal basis of a span containing range and support
        (reduced QR of [left | right]; a rank-deficient stack still gives one),
        of dimension <= 2 rank, and V = polar(Q^dag W Q): U is the polar
        unitary of W inside that span and the identity outside it. Applying U
        to n vectors costs O(d n rank), with no d x d array.
        """
        q, _ = np.linalg.qr(np.hstack([self.left, self.right]))
        u, _, vh = np.linalg.svd((q.conj().T @ self.left) @ (self.right.conj().T @ q))
        return q, u @ vh

    def completion(self, columns=None) -> np.ndarray:
        """The completion of ``completion_factors`` as a matrix, or only its
        ``columns`` (basis indices): U[:, columns], with no d x d array."""
        d = self.left.shape[0]
        cols = np.arange(d) if columns is None else np.asarray(columns)
        q, v = self.completion_factors()
        out = q @ (v - np.eye(q.shape[1])) @ q[cols].conj().T
        out[cols, np.arange(cols.size)] += 1.0  # + I[:, cols] in place
        return out


def cutoff_rank(sv: np.ndarray, eta: float) -> int:
    """How many singular values sgn_eta keeps: those above eta + SGN_BAND."""
    return int((sv > (eta + SGN_BAND)).sum())


def sgn_eta(m: np.ndarray, eta: float = 0.0) -> PartialIsometryOp:
    """SVD thresholding: U sgn_eta(Sigma) V^dag, keeping singular values > eta.

    Uses the strict comparison s > eta with a 1e-12 dead band: values within
    the band of the cutoff are treated as below it.
    """
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    u, sv, vh = np.linalg.svd(m, full_matrices=False)
    k = cutoff_rank(sv, eta)
    return PartialIsometryOp(u[:, :k], vh[:k].conj().T)
