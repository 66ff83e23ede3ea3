"""Canonical quantum bit commitments: security metrics, transformations, and
Uhlmann-derived attacks.

A scheme is a pair of states |psi_b> (a file may name them by circuits),
with a designated commit register C sent to the receiver; the reveal
register R is the complement. Statistical security is what the
simulator certifies: hiding is the Helstrom trace distance and binding the
Uhlmann fidelity of the commit-register reduced states. ``assess`` computes
them, the optimal attack and the flavor switch on stacks of schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, check_int, check_object, check_pure_cap
from .qcore import linalg
from .qcore.channels import ChannelDesc, push_factor
from .qcore.gates import GateCircuit, circuit_states, random_circuit
from .qcore.metrics import factor_fidelity, factor_trace_distance
from .qcore.states import BipartiteState, tensor_power
from .rng import as_seed


@dataclass(frozen=True)
class CommitmentScheme:
    """Commitment states (psi_0, psi_1), two BipartiteStates with a common
    (d_commit, d_reveal) split. A file's circuits are simulated, and its
    commit qubits moved first, by ``from_json_dict``."""

    raw_states: tuple

    def states(self) -> tuple:
        """(psi_0, psi_1) ordered (commit, reveal)."""
        return self.raw_states

    @staticmethod
    def from_json_dict(data: dict) -> "CommitmentScheme":
        """A file's "raw" pair with its split (dC, dR), or circuits "C0", "C1"
        on n qubits and "commit", a proper nonempty subset of them."""
        if "raw" in check_object(data, "scheme"):
            raw = check_object(data["raw"], "raw")
            split = (check_int(raw["dC"], "dC"), check_int(raw["dR"], "dR"))
            return CommitmentScheme((BipartiteState.from_pairs(raw["psi0"], split),
                                     BipartiteState.from_pairs(raw["psi1"], split)))
        c0, c1 = GateCircuit.from_json_dict(data["C0"]), GateCircuit.from_json_dict(data["C1"])
        n = c0.n_qubits
        if c1.n_qubits != n:
            raise DimensionMismatch("C0 and C1 act on different qubit counts")
        commit = sorted(check_int(q, "commit") for q in data["commit"])
        if any(q < 0 or q >= n for q in commit) or len(set(commit)) != len(commit):
            raise DimensionMismatch(f"bad commit registers {commit}")
        if len(commit) in (0, n):
            raise DimensionMismatch("commit/reveal registers must partition the qubits")
        order = commit + [q for q in range(n) if q not in commit]
        split = (2 ** len(commit), 2 ** (n - len(commit)))
        return CommitmentScheme(tuple(BipartiteState(
            linalg.permute_rows(c.state(), [2] * n, order), split) for c in (c0, c1)))


@dataclass(frozen=True)
class SecurityReport:
    hiding_stat: float
    binding_opt: float
    binding_attack: Optional[float] = None


def evaluate(scheme: CommitmentScheme, attack=None) -> SecurityReport:
    """Hiding (trace distance) and binding (fidelity) of the commit-register
    reduced states, plus the fidelity achieved by a supplied reveal-register
    attack channel or unitary. The commit-register states are M M^dag for the
    amplitude matrices M, so both are taken on the factors."""
    m0, m1 = (s.as_matrix() for s in scheme.states())
    attack_fid = None if attack is None else binding_attack_fidelity(scheme, attack)
    return SecurityReport(factor_trace_distance(m0, m1), factor_fidelity(m0, m1), attack_fid)


def binding_attack_fidelity(scheme: CommitmentScheme, attack) -> float:
    """F((id_C ⊗ A)(psi_0), psi_1) for an attack on the reveal register.

    psi_1 is pure, so this is <psi_1|out|psi_1>: |<psi_1|out>|^2 for a
    unitary (``unitary_attack_fidelity``), and ||L^dag psi_1||^2 for a
    channel, whose output is the factor L.
    """
    s0, s1 = scheme.states()
    dC, dR = s0.split
    if isinstance(attack, np.ndarray):
        if attack.shape != (dR, dR):
            raise DimensionMismatch(f"attack shape {attack.shape}, reveal dim {dR}")
        return unitary_attack_fidelity(s0.as_matrix(), s1.as_matrix(), attack)
    if isinstance(attack, ChannelDesc):
        if attack.d_in != dR or attack.d_out != dR:
            raise DimensionMismatch(
                f"attack maps {attack.d_in}->{attack.d_out}, reveal dim {dR}")
        out = push_factor(attack, s0.amplitudes.reshape(-1, 1), before=dC)
        return factor_fidelity(out, s1.amplitudes)
    raise DimensionMismatch("attack must be a unitary matrix or ChannelDesc")


def unitary_attack_fidelity(m0: np.ndarray, m1: np.ndarray, attack: np.ndarray):
    """|<psi_1|(id_C ⊗ A)|psi_0>|^2 from the amplitude matrices, (..., dC, dR),
    and the unitary A, (..., dR, dR): (id_C ⊗ A)|psi_0> has the matrix M_0 A^T."""
    column = m0.shape[:-2] + (-1, 1)
    return factor_fidelity((m0 @ attack.swapaxes(-1, -2)).reshape(column), m1.reshape(column))


def optimal_binding_attack(m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """The optimal attack on the reveal register of psi_0, psi_1 with amplitude
    matrices m0, m1 (..., dC, dR): the unitary U (..., dR, dR) maximizing
    |<psi_1|(id_C ⊗ U)|psi_0>| = |tr(M_1^dag M_0 U^T)| = |tr(U K^dag)| for
    K = M_1^T conj(M_0) = Tr_C |psi_1><psi_0|. Q, the QR of [M_1^T, M_0^T]
    (at most 2 dC columns), spans K's columns and rows: K = Q K_Q Q^dag. Let
    K_Q = x s y^dag (SVD), V = x y^dag and U = I + Q (V - I) Q^dag, unitary.
    K = X s Y^dag for X = Q x, Y = Q y, and U Y = Q V y = X: U y_i = x_i for
    every i. So U agrees with W = sgn_0(K) on W's support, and tr(U K^dag) =
    tr(X s X^dag) = ||K||_1, sqrt F of the commit-register states, the most
    any U reaches (Uhlmann). It costs O(dR^2 dC), not K's O(dR^3) SVD."""
    q = np.linalg.qr(np.concatenate([m1, m0], axis=-2).swapaxes(-1, -2)).Q
    qh = q.conj().swapaxes(-1, -2)
    x, _, yh = np.linalg.svd(qh @ m1.swapaxes(-1, -2) @ (m0.conj() @ q))
    u = q @ ((x @ yh - np.eye(q.shape[-1])) @ qh)
    u += np.eye(u.shape[-1])
    return u


def flavor_switch(scheme: CommitmentScheme) -> CommitmentScheme:
    """Exchange which security property is statistical: the switched scheme
    commits to b via |psi'_b> = (|0>|psi_0> + (-1)^b |1>|psi_1>)/sqrt(2) with
    commit register C' = R ∪ {flag} and reveal register R' = C.

    The states are ordered (C', R') = ((flag, R), C); the exact
    superposition amplitudes are not expressible in the discrete gate set.
    """
    s0, s1 = scheme.states()
    dC, dR = s0.split
    return CommitmentScheme(tuple(BipartiteState(m.reshape(-1), (2 * dR, dC))
                                  for m in switched(s0.as_matrix(), s1.as_matrix())))


def switched(m0: np.ndarray, m1: np.ndarray) -> tuple:
    """The amplitude matrices (..., 2 dR, dC) of the ``flavor_switch`` of the
    schemes whose psi_0 and psi_1 have the matrices (..., dC, dR)."""
    dC, dR = m0.shape[-2:]
    check_pure_cap(2 * dC * dR)
    out = []
    for b in (0, 1):
        amp = np.stack([m0 / np.sqrt(2), ((-1) ** b) * m1 / np.sqrt(2)], axis=-3)
        # (flag, C, R) -> (flag, R, C); C' = (flag, R), R' = C.
        out.append(amp.swapaxes(-1, -2).reshape(m0.shape[:-2] + (2 * dR, dC)))
    return tuple(out)


def tensor_amplify(scheme: CommitmentScheme, k: int) -> CommitmentScheme:
    """k-fold tensor scheme; binding fidelity is raised to the k-th power."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return scheme
    s0, s1 = scheme.raw_states
    dC, dR = s0.split
    check_pure_cap((dC * dR) ** k, "amplified commitment")
    return CommitmentScheme(tuple(
        BipartiteState(tensor_power(s, k), (dC ** k, dR ** k)) for s in (s0, s1)))


def random_scheme(n_commit: int, n_reveal: int, n_gates: int, seed) -> CommitmentScheme:
    """Two random circuits' states; the commit register is their first n_commit qubits."""
    m0, m1 = random_schemes(n_commit, n_reveal, n_gates, [seed])
    return CommitmentScheme(tuple(BipartiteState(m[0].reshape(-1), m.shape[1:])
                                  for m in (m0, m1)))


def random_schemes(n_commit: int, n_reveal: int, n_gates: int, seeds) -> tuple:
    """psi_0's and psi_1's amplitude matrices, (len(seeds), 2^n_commit,
    2^n_reveal) each, of ``random_scheme`` at each seed: each scheme's
    circuits from its own stream, all simulated in one ``circuit_states``."""
    n = n_commit + n_reveal
    circuits = []
    for seed in seeds:
        rng = as_seed(seed).child("scheme").generator()
        circuits += [random_circuit(n, n_gates, rng) for _ in range(2)]
    states = circuit_states(circuits).reshape(len(seeds), 2, 2 ** n_commit, 2 ** n_reveal)
    return states[:, 0], states[:, 1]


def assess(m0: np.ndarray, m1: np.ndarray) -> tuple:
    """Hiding, binding, the optimal attack's fidelity and the switched hiding
    of each scheme of the stacks m0, m1 (B, dC, dR), equal bit for bit to
    ``evaluate`` scheme by scheme: each runs once on the stack."""
    return (factor_trace_distance(m0, m1), factor_fidelity(m0, m1),
            unitary_attack_fidelity(m0, m1, optimal_binding_attack(m0, m1)),
            factor_trace_distance(*switched(m0, m1)))
