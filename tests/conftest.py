"""Shared helpers: independent oracles the implementation is checked against,
plus the acceptance scoreboard printed after the run."""

import numpy as np

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

import math

from uhlmann_lab.qcore import GATES, ChannelDesc, GateCircuit
from uhlmann_lab.qcore import linalg


_PAULI_1 = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),          # X
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),          # Z
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),        # Y = iXZ
}


def pauli_matrix(v: np.ndarray, sign: int = 0) -> np.ndarray:
    """Hermitian Pauli for interleaved bits v: (-1)^sign i^{x.z} ⊗ X^x Z^z."""
    n = v.size // 2
    m = linalg.kron_all([_PAULI_1[(int(v[2 * i]), int(v[2 * i + 1]))] for i in range(n)])
    return -m if sign else m


def swap_matrix(d1: int, d2: int) -> np.ndarray:
    """SWAP between two registers: |i>|j> -> |j>|i>."""
    return linalg.permute_rows(np.eye(d1 * d2), [d1, d2], [1, 0])


def permute_registers_dm(rho: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder the registers of a density matrix (rows and columns alike)."""
    n = len(dims)
    tensor = rho.reshape(list(dims) * 2)
    axes = list(perm) + [p + n for p in perm]
    d = math.prod(dims)
    return np.transpose(tensor, axes).reshape(d, d)


def dilated_channel(u: np.ndarray, d_in: int, d_anc: int, out_split,
                    anc_state: int = 0) -> ChannelDesc:
    """The channel of a unitary dilation u on (in ⊗ anc) with the ancilla in
    |anc_state>: its isometry is those columns of u."""
    return ChannelDesc(np.asarray(u)[:, anc_state::d_anc], out_split)


def kron_oracle_unitary(circ: GateCircuit) -> np.ndarray:
    """Materialize a circuit by explicit kron products and matrix products."""
    u = np.eye(circ.dim, dtype=complex)
    for g, qs in circ.gates:
        m = GATES[g]
        if len(qs) == 1:
            q = qs[0]
            full = linalg.kron_all(
                [np.eye(2)] * q + [m] + [np.eye(2)] * (circ.n_qubits - q - 1))
        else:
            perm_to = list(qs) + [a for a in range(circ.n_qubits) if a not in qs]
            p = linalg.permutation_matrix([2] * circ.n_qubits, perm_to)
            full = p.T @ np.kron(m, np.eye(2 ** (circ.n_qubits - 2))) @ p
        u = full @ u
    return u


def gate_by_gate(circ: GateCircuit, vec: np.ndarray = None) -> np.ndarray:
    """The circuit applied to ``vec`` (default |0...0>), or to each column of a
    (dim, k) matrix, one ``apply_matrix_to_registers`` call per gate."""
    vec = linalg.basis_vector(circ.dim, 0) if vec is None else vec
    out = vec.astype(complex).reshape(-1)
    dims = (2,) * circ.n_qubits + vec.shape[1:]
    for g, qs in circ.gates:
        out = linalg.apply_matrix_to_registers(out, dims, GATES[g], qs)
    return out.reshape(vec.shape)


def partial_trace_oracle(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Explicit index-summation partial trace."""
    dims = list(dims)
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def unravel(flat):
        idx = []
        for d in reversed(dims):
            idx.append(flat % d)
            flat //= d
        return list(reversed(idx))

    def ravel(idx, which):
        flat = 0
        for w in which:
            flat = flat * dims[w] + idx[w]
        return flat

    d = int(np.prod(dims))
    for i in range(d):
        for j in range(d):
            ii, jj = unravel(i), unravel(j)
            if all(ii[t] == jj[t] for t in traced):
                out[ravel(ii, keep), ravel(jj, keep)] += rho[i, j]
    return out


def gram_schmidt_rank(m: np.ndarray, tol: float = 1e-9) -> int:
    """Rank by explicit Gram-Schmidt on the columns."""
    basis = []
    for j in range(m.shape[1]):
        v = m[:, j].astype(complex)
        for b in basis:
            v = v - b * (b.conj() @ v)
        if np.linalg.norm(v) > tol:
            basis.append(v / np.linalg.norm(v))
    return len(basis)


def fidelity_eig_oracle(rho: np.ndarray, sigma: np.ndarray) -> float:
    """F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 via eigendecompositions."""
    def sqrtm(m):
        vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
        vals = np.clip(vals, 0, None)
        return (vecs * np.sqrt(vals)) @ vecs.conj().T
    inner = sqrtm(sqrtm(rho) @ sigma @ sqrtm(rho))
    return float(np.real(np.trace(inner)) ** 2)


def no_eigensolver(monkeypatch):
    """Make ``np.linalg.eigh`` and ``eigvalsh`` raise, for paths that must run none."""
    def unreachable(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
    monkeypatch.setattr(np.linalg, "eigh", unreachable)
