"""Canonical Uhlmann partial isometries, completions and instances.

An instance is a pair of bipartite pure states (psi, phi) with a common
(dA, dB) split, which two circuits on 2n qubits may name (register A is the
first n qubits; ``circuit_instance``). The canonical cutoff-eta isometry is

    W = sgn_eta(Tr_A |phi><psi|),

a dB x dB partial isometry acting on register B that maps psi toward phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (DimensionMismatch, InvalidInstance, check_density_cap, check_int,
                     check_object, check_pure_cap)
from .qcore import linalg
from .qcore.gates import GateCircuit
from .qcore.metrics import PartialIsometryOp, cutoff_rank
from .qcore.random_ops import haar_state_vector, haar_unitary
from .qcore.states import BipartiteState
from .rng import as_seed


# Rows of R (psi^T = Q R) with norm at most TRIM / sqrt(m) are dropped before
# the cross operator is decomposed; see UhlmannInstance.factors.
TRIM = 1e-13


class CrossFactors(NamedTuple):
    """Tr_A |phi><psi| as its singular values and eta = 0 factors.

    ``sv`` holds every singular value of the trimmed core, descending;
    ``left`` and ``right`` hold the columns of the eta = 0 isometry, so the
    cutoff-eta isometry is their first k(eta) columns."""

    sv: np.ndarray
    left: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class UhlmannInstance:
    """The state pair (psi, phi) = (|C>, |D>), two BipartiteStates with a
    common split. A file's circuits are simulated by ``from_json_dict``."""

    raw_pair: tuple

    @property
    def split(self) -> tuple:
        return self.raw_pair[0].split

    @property
    def dA(self) -> int:
        return self.split[0]

    @property
    def dB(self) -> int:
        return self.split[1]

    def states(self) -> tuple:
        """(psi, phi) = (|C>, |D>) as BipartiteStates."""
        return self.raw_pair

    @cached_property
    def factors(self) -> CrossFactors:
        """The cross operator Tr_A |phi><psi|, factored once, at first use.

        With psi as a dA x dB matrix M_psi and the thin QR M_psi^T = Q R
        (m = min(dA, dB) columns),

            Tr_A |phi><psi| = M_phi^T conj(M_psi) = (M_phi^T R^dag) Q^dag.

        The rows of R with norm at most TRIM / sqrt(m) are dropped, wherever
        they sit: Householder QR of a state such as |0,0> + |5,5> leaves zero
        rows between nonzero ones. Splitting R into kept and dropped rows
        (and Q's columns alike) gives Tr_A |phi><psi| = K Q_keep^dag + E with
        the dB x r core K = M_phi^T R_keep^dag and

            ||E||_2 = ||M_phi^T R_drop^dag Q_drop^dag||_2
                   <= ||M_phi||_2 ||R_drop||_2 <= ||R_drop||_F <= TRIM,

        since ||M_phi||_2 <= ||M_phi||_F = 1, Q_drop has orthonormal columns
        and at most m rows of squared norm TRIM^2 / m are dropped. By Weyl's
        inequality no singular value moves by more than TRIM, far inside
        metrics.SGN_BAND. K Q_keep^dag has the singular values of K, so one SVD
        K = X S Y^dag gives them all and W = X_k (Q_keep Y_k)^dag at any
        cutoff. TRIM lies above the rounding Householder leaves in the rows
        of a rank-deficient R (<= 6e-16 at m = 1024, against a threshold of
        3e-15 there), so the noise singular values that would each add
        ~1e-16 to sqrt(kappa) are never formed.

        Only the eta = 0 columns and the singular values are kept.
        """
        psi, phi = self.raw_pair
        q, r = np.linalg.qr(psi.as_matrix().T)
        keep = np.linalg.norm(r, axis=1) > TRIM / math.sqrt(r.shape[0])
        if not keep.all():
            q, r = q[:, keep], r[keep]
        core = phi.as_matrix().T @ r.conj().T
        del r  # freed before the SVD, which sets the solve's peak
        u, sv, vh = np.linalg.svd(core, full_matrices=False)
        del core
        k = cutoff_rank(sv, 0.0)
        out = CrossFactors(sv, np.ascontiguousarray(u[:, :k]),
                           q @ np.ascontiguousarray(vh[:k].conj().T))
        for m in out:
            m.setflags(write=False)
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "UhlmannInstance":
        """A file's "raw" pair with its split (dA, dB), or circuits "C", "D" on 2n qubits."""
        if "raw" in check_object(data, "instance"):
            raw = check_object(data["raw"], "raw")
            split = (check_int(raw["dA"], "dA"), check_int(raw["dB"], "dB"))
            return UhlmannInstance((BipartiteState.from_pairs(raw["psi"], split),
                                    BipartiteState.from_pairs(raw["phi"], split)))
        return circuit_instance(check_int(data["n"], "n"), GateCircuit.from_json_dict(data["C"]),
                                GateCircuit.from_json_dict(data["D"]))


def circuit_instance(n: int, C: GateCircuit, D: GateCircuit) -> UhlmannInstance:
    """(|C>, |D>) for circuits on 2n qubits, register A the first n, simulated once, here."""
    if n < 1 or C.n_qubits != 2 * n or D.n_qubits != 2 * n:
        raise InvalidInstance(f"need n >= 1 and circuits on 2n qubits, got n = {n} and "
                              f"{C.n_qubits}, {D.n_qubits} qubits")
    split = (2 ** n, 2 ** n)
    return UhlmannInstance((BipartiteState(C.state(), split), BipartiteState(D.state(), split)))


@dataclass(frozen=True)
class CompletionChannel:
    """Unitary channel completion of a partial isometry."""

    unitary: np.ndarray

    def __post_init__(self):
        # A read-only view, as PartialIsometryOp takes.
        u = np.ascontiguousarray(self.unitary, dtype=complex).view()
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)

    def check_completes(self, w: PartialIsometryOp, atol: float = 1e-9) -> None:
        if not linalg.is_unitary(self.unitary, atol):
            raise ValueError("completion is not unitary")
        err = np.linalg.norm(self.unitary @ w.support_projector - w.matrix, ord=np.inf)
        if err > atol:
            raise ValueError(f"completion does not agree with W on its support: {err:.3g}")


def validate_instance(x: UhlmannInstance) -> dict:
    """Reduced-state fidelity and dimensions: {kappa, dA, dB}.

    rho_A = M M^dag for the dA x dB amplitude matrix M, so kappa is
    ||M_psi^dag M_phi||_1^2 (Uhlmann form), the squared sum of the singular
    values of the cross operator, clamped to [0, 1]; they are read from
    ``x.factors``.
    """
    kappa = float(np.clip(x.factors.sv.sum() ** 2, 0.0, 1.0))
    return {"kappa": kappa, "dA": x.dA, "dB": x.dB}


def cross_operator(x: UhlmannInstance) -> np.ndarray:
    """Tr_A |phi><psi|, the dB x dB operator the canonical isometry thresholds."""
    psi, phi = x.states()
    # [Tr_A |phi><psi|]_{b b'} = sum_a phi_{ab} conj(psi_{a b'})
    return phi.as_matrix().T @ psi.as_matrix().conj()


def canonical_uhlmann(x: UhlmannInstance, eta: float = 0.0) -> PartialIsometryOp:
    """The canonical cutoff-eta Uhlmann partial isometry for (|C>, |D>).

    Thresholds ``cross_operator(x)`` as ``sgn_eta`` does, through
    ``x.factors``: the first k(eta) of its eta = 0 columns, so a solve at any
    eta after the first decomposes nothing.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    sv, left, right = x.factors
    k = cutoff_rank(sv, eta)
    return PartialIsometryOp(left[:, :k], right[:, :k])


def unitary_completion(w: PartialIsometryOp) -> CompletionChannel:
    """The completion of W as a channel."""
    return CompletionChannel(w.completion())


def apply_uhlmann(x: UhlmannInstance, eta: float, target: BipartiteState) -> BipartiteState:
    """Coherently apply the unitary completion of W to the B payload of ``target``.

    ``target`` is any joint pure state whose second register has dimension dB;
    the first register rides along untouched. The completion is applied in
    factored form, U = I + Q (V - I) Q^dag, in O(dA dB rank) with no dB x dB
    array: T U^T = T + (T conj(Q)) (V - I)^T Q^T.
    """
    if target.dB != x.dB:
        raise DimensionMismatch(f"target B dimension {target.dB}, instance needs {x.dB}")
    q, v = canonical_uhlmann(x, eta).completion_factors()
    t = target.as_matrix()
    out = t + ((t @ q.conj()) @ (v - np.eye(v.shape[0])).T) @ q.T
    return BipartiteState(out.reshape(-1), target.split)


# ---------------------------------------------------------------------------
# Instance generators used by tests, experiments and the CLI.

def random_raw_instance(dA: int, dB: int, seed) -> UhlmannInstance:
    """Independent Haar pair with the given split."""
    rng = as_seed(seed).child("raw-instance").generator()
    psi = BipartiteState(haar_state_vector(dA * dB, rng), (dA, dB))
    phi = BipartiteState(haar_state_vector(dA * dB, rng), (dA, dB))
    return UhlmannInstance(raw_pair=(psi, phi))


def instance_with_fidelity(kappa: float, dA: int, dB: int, seed) -> UhlmannInstance:
    """Instance with reduced-state fidelity exactly kappa, rotated by random locals.

    Base pair: psi = |00>, phi = sqrt(kappa)|00> + sqrt(1-kappa)|11>, then a
    common local unitary U_A ⊗ U_B (which leaves kappa invariant). The base
    pair lives on the first two basis states of each side, so only the first
    two columns of each local (one when its dimension is 1) are factored.
    """
    if not (0.0 <= kappa <= 1.0):
        raise ValueError("kappa must lie in [0, 1]")
    if min(dA, dB) < 2 and kappa < 1.0:
        raise DimensionMismatch("need dA, dB >= 2 for kappa < 1")
    # Each local's Gaussian draw is as large as a density operator of its dimension.
    check_density_cap(dA, "local unitary")
    check_density_cap(dB, "local unitary")
    check_pure_cap(dA * dB, "instance state")
    rng = as_seed(seed).child("fid-instance").generator()
    ka, kb = min(2, dA), min(2, dB)
    psi = np.zeros((ka, kb), dtype=complex)
    phi = np.zeros((ka, kb), dtype=complex)
    psi[0, 0] = 1.0
    phi[0, 0] = np.sqrt(kappa)
    if kappa < 1.0:
        phi[1, 1] = np.sqrt(1.0 - kappa)
    ua = haar_unitary(dA, rng, columns=ka)
    ub = haar_unitary(dB, rng, columns=kb)
    psi = ua @ psi @ ub.T
    phi = ua @ phi @ ub.T
    return UhlmannInstance(raw_pair=(BipartiteState(psi.reshape(-1), (dA, dB)),
                                     BipartiteState(phi.reshape(-1), (dA, dB))))


def overlap_instance(kappa: float, overlap: float, seed) -> UhlmannInstance:
    """Qubit-qubit instance with reduced fidelity kappa and |<D|C>|^2 = overlap.

    psi = |00>, phi = a|00> + b|01> + c|11| with a^2 = overlap,
    a^2 + b^2 = kappa. Requires overlap <= kappa.
    """
    if not (0.0 <= overlap <= kappa <= 1.0):
        raise ValueError("need 0 <= overlap <= kappa <= 1")
    rng = as_seed(seed).child("overlap-instance").generator()
    a = np.sqrt(overlap)
    b = np.sqrt(kappa - overlap)
    c = np.sqrt(1.0 - kappa)
    psi = np.zeros((2, 2), dtype=complex)
    phi = np.zeros((2, 2), dtype=complex)
    psi[0, 0] = 1.0
    phi[0, 0] = a
    phi[0, 1] = b
    phi[1, 1] = c
    ua = haar_unitary(2, rng)
    psi = ua @ psi
    phi = ua @ phi
    return UhlmannInstance(raw_pair=(BipartiteState(psi.reshape(-1), (2, 2)),
                                     BipartiteState(phi.reshape(-1), (2, 2))))


def qutrit_example(eps: float = 0.01) -> tuple:
    """The two-qutrit cutoff-instability pair: (psi, psi_tilde, phi = psi)."""
    psi = np.zeros((3, 3), dtype=complex)
    psi[0, 0] = np.sqrt(1 - eps)
    psi[1, 1] = np.sqrt(eps / 2)
    psi[2, 2] = np.sqrt(eps / 2)
    tilde = np.zeros((3, 3), dtype=complex)
    tilde[0, 0] = np.sqrt(1 - eps)
    tilde[1, 2] = np.sqrt(eps / 2)
    tilde[2, 1] = np.sqrt(eps / 2)
    mk = lambda m: BipartiteState(m.reshape(-1), (3, 3))
    return mk(psi), mk(tilde), mk(psi.copy())
