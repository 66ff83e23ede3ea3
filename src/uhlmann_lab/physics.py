"""Black-hole radiation decoding and interference detection.

Radiation decoding reduces a scrambler's two input columns to a
single-input-qubit channel for the Uhlmann decoder of ``shannon``;
interference detection builds a controlled swap between two orthogonal
states from one Uhlmann solve and runs the Hadamard test with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, check_pure_cap
from .qcore import linalg
from .qcore.channels import ChannelDesc
from .qcore.gates import GateCircuit
from .qcore.states import BipartiteState, maximally_entangled
from .uhlmann import UhlmannInstance, canonical_uhlmann


def radiation_channel(columns: np.ndarray, r: int) -> ChannelDesc:
    """The channel that feeds qubit 0 into an n-qubit scrambler U (the other
    inputs start in |0>) and emits its last r output qubits, R.

    ``columns`` is U[:, [0, 2^(n-1)]], the scrambler's two input columns.
    """
    n = int(columns.shape[0]).bit_length() - 1
    if n < 2:
        raise DimensionMismatch("need at least 2 qubits")
    if not (1 <= r <= n):
        raise DimensionMismatch(f"r = {r} out of range 1..{n}")
    if columns.shape[1] != 2:
        raise DimensionMismatch(f"need the scrambler's 2 input columns, got {columns.shape[1]}")
    # Output registers (H = first n-r qubits, R = last r) -> (R, H).
    return ChannelDesc(linalg.permute_rows(columns, [2 ** (n - r), 2 ** r], [1, 0]),
                       (2 ** r, 2 ** (n - r)))


@dataclass(frozen=True)
class OrthPair:
    """Two n-qubit circuits with orthogonal output states (the ``interfere``
    loader checks a file's pair). The output states are simulated on first
    use, after the interference cap, and the controlled swap between them is
    solved on first use; both are held."""

    C: GateCircuit
    D: GateCircuit

    @cached_property
    def _vectors(self) -> tuple:
        # The controlled-swap instance is checked before any simulation.
        check_pure_cap(16 * 4 ** self.C.n_qubits, "interference instance")
        a, b = self.C.state(), self.D.state()
        for v in (a, b):
            v.setflags(write=False)
        return a, b

    @cached_property
    def _swap(self) -> np.ndarray:
        swap = controlled_swap_from_uhlmann(self)
        swap.setflags(write=False)
        return swap

    def vectors(self) -> tuple:
        return self._vectors

    def controlled_swap(self) -> np.ndarray:
        """``controlled_swap_from_uhlmann(self)``, solved once per pair."""
        return self._swap


@dataclass(frozen=True)
class HadamardTestCircuit:
    """H on the decision qubit (qubit 0), a controlled unitary, H, measure."""

    controlled: np.ndarray  # block unitary on (decision ⊗ target)

    @property
    def dim(self) -> int:
        return self.controlled.shape[0] // 2

    def unitary(self) -> np.ndarray:
        h = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(self.dim))
        return h @ self.controlled @ h

    def run(self, state: np.ndarray) -> dict:
        """Measure the decision qubit on |0> ⊗ state: H ⊗ 1, the controlled
        block and H ⊗ 1 act on the vector, never on each other."""
        half = np.asarray(state, dtype=complex).reshape(-1) / np.sqrt(2)
        top, bottom = (self.controlled @ np.concatenate([half, half])).reshape(2, self.dim)
        branches = np.stack([top + bottom, top - bottom]) / np.sqrt(2)
        p = np.linalg.norm(branches, axis=1) ** 2
        return {"p0": float(p[0]), "p1": float(p[1]),
                "post0": branches[0] / np.sqrt(p[0]) if p[0] > 1e-14 else None,
                "post1": branches[1] / np.sqrt(p[1]) if p[1] > 1e-14 else None}


def swap_to_distinguisher(u: np.ndarray, pair=None) -> HadamardTestCircuit:
    """Hadamard-test circuit whose decision qubit distinguishes ± superpositions.

    If ``pair`` = (psi, phi) is supplied, the swap contract U psi = phi,
    U phi = psi is checked first.
    """
    u = np.asarray(u, dtype=complex)
    if pair is not None:
        psi, phi = (np.asarray(v, dtype=complex).reshape(-1) for v in pair)
        err = max(np.linalg.norm(u @ psi - phi), np.linalg.norm(u @ phi - psi))
        if err > 1e-8:
            raise DimensionMismatch(f"U does not swap the pair: residual {err:.3g}")
    d = u.shape[0]
    controlled = np.zeros((2 * d, 2 * d), dtype=complex)
    controlled[:d, :d] = np.eye(d)
    controlled[d:, d:] = u
    return HadamardTestCircuit(controlled)


def distinguisher_to_swap(v: np.ndarray) -> np.ndarray:
    """V^dag (Z on the decision qubit) V, which swaps the two superpositions.

    The decision qubit is qubit 0 of the space V acts on.
    """
    v = np.asarray(v, dtype=complex)
    d = v.shape[0]
    z = np.kron(np.diag([1.0, -1.0]), np.eye(d // 2))
    return v.conj().T @ z @ v


def householder_swap(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Reflection about (psi - phi): swaps psi and phi when <psi|phi> is real."""
    diff = psi - phi
    nrm = np.linalg.norm(diff)
    if nrm < 1e-12:
        return np.eye(psi.shape[0], dtype=complex)
    diff = diff / nrm
    return np.eye(psi.shape[0], dtype=complex) - 2.0 * np.outer(diff, diff.conj())


def controlled_swap_from_uhlmann(pair: OrthPair) -> np.ndarray:
    """The controlled-swap unitary on (control ⊗ state) from one Uhlmann solve.

    Solves the Uhlmann problem between the two four-branch purifications from
    the interference reduction; the resulting unitary fixes |0>|C>, |0>|D>
    and exchanges |1>|C> <-> |1>|D>.
    """
    c_vec, d_vec = pair.vectors()  # checked against the 16·4^n interference cap
    d = c_vec.shape[0]
    # C-tilde, D-tilde on (A, A', B', B) with split ((A, A') | (B', B)).
    epr = maximally_entangled(2).amplitudes.reshape(2, 2)
    c_t = np.zeros((2, 2, 2, d), dtype=complex)
    d_t = np.zeros((2, 2, 2, d), dtype=complex)
    for a, branch in ((0, c_vec), (1, d_vec)):
        for b in (0, 1):
            c_t[a, b, b, :] = epr[b, b] * branch / np.sqrt(2)
    # D-tilde: controlled on B' = 1, the (A-labelled) branch content is swapped.
    for b in (0, 1):
        d_t[0, b, b, :] = epr[b, b] * (c_vec if b == 0 else d_vec) / np.sqrt(2)
        d_t[1, b, b, :] = epr[b, b] * (d_vec if b == 0 else c_vec) / np.sqrt(2)
    split = (4, 2 * d)
    x = UhlmannInstance(raw_pair=(BipartiteState(c_t.reshape(-1), split),
                                  BipartiteState(d_t.reshape(-1), split)))
    return canonical_uhlmann(x, 0.0).completion()


def interference_detect(pair: OrthPair, state, tol: float = 1e-6) -> int:
    """0 for the + superposition, 1 for the -, via the Hadamard test with the
    Uhlmann-built controlled swap. Raises if the outcome distribution is not
    deterministic within tolerance (input outside the promise)."""
    if isinstance(state, BipartiteState):
        state = state.amplitudes
    state = np.asarray(state, dtype=complex).reshape(-1)
    res = HadamardTestCircuit(pair.controlled_swap()).run(state)
    if min(res["p0"], res["p1"]) > tol:
        raise ValueError(
            f"input violates the ± promise: outcome probabilities "
            f"({res['p0']:.3g}, {res['p1']:.3g})")
    return int(res["p1"] > res["p0"])
