"""Quantum channels in Stinespring form.

A channel is a unitary dilation acting on (input ⊗ ancilla), with the
ancilla initialized to a fixed basis state; the dilation output factors as
(out ⊗ env) and the environment is traced. A channel acts on a state only
through ``push_factor``, which takes a factor of the state and returns one,
with the traced environment moved into the columns. The complementary
channel swaps the roles of out and env.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DimensionMismatch, check_pure_cap
from . import linalg
from .gates import GateCircuit
from .metrics import PartialIsometryOp


@dataclass(frozen=True)
class ChannelDesc:
    dilation: np.ndarray
    d_in: int
    d_anc: int
    out_split: tuple  # (d_out, d_env)
    anc_state: int = 0

    def __post_init__(self):
        u = np.asarray(self.dilation, dtype=complex).copy()
        u.setflags(write=False)
        object.__setattr__(self, "dilation", u)
        object.__setattr__(self, "out_split", (int(self.out_split[0]), int(self.out_split[1])))
        d = self.d_in * self.d_anc
        if u.shape != (d, d):
            raise DimensionMismatch(f"dilation shape {u.shape}, expected {(d, d)}")
        if self.out_split[0] * self.out_split[1] != d:
            raise DimensionMismatch(f"out_split {self.out_split} does not factor {d}")
        if not (0 <= self.anc_state < self.d_anc):
            raise DimensionMismatch(f"ancilla basis state {self.anc_state} out of range")

    @property
    def d_out(self) -> int:
        return self.out_split[0]

    @property
    def d_env(self) -> int:
        return self.out_split[1]

    def check_unitary(self, atol: float = 1e-9) -> None:
        if not linalg.is_unitary(self.dilation, atol):
            raise ValueError("dilation is not unitary within tolerance")

    def isometry(self) -> np.ndarray:
        """The Stinespring isometry V: in -> out ⊗ env (d x d_in)."""
        return self.dilation[:, self.anc_state::self.d_anc]

    def kraus_operators(self) -> list:
        """Kraus operators K_e = (id ⊗ <e|) V."""
        v = self.isometry().reshape(self.d_out, self.d_env, self.d_in)
        return [np.ascontiguousarray(v[:, e, :]) for e in range(self.d_env)]


def complementary(ch: ChannelDesc) -> ChannelDesc:
    """Same dilation with the out/env roles swapped."""
    return ChannelDesc(linalg.permute_rows(ch.dilation, ch.out_split, [1, 0]),
                       ch.d_in, ch.d_anc, (ch.d_env, ch.d_out), ch.anc_state)


def push_factor(ch: ChannelDesc, factor: np.ndarray, before: int = 1, after: int = 1,
                what: str = "channel factor") -> np.ndarray:
    """The channel on the middle register of rho = L L^dag, as a factor.

    L is (before * in * after, k). With V reshaped to (out, env, in),
    (id ⊗ V ⊗ id) L is (before, out, env, after, k); moving the environment
    into the columns traces it out, so the result M with
    M M^dag = (id ⊗ N ⊗ id)(rho) is (before * out * after, env * k). No
    density is built; the cap is on the factor's entries.
    """
    d_in, k = ch.d_in, factor.shape[1]
    if factor.shape[0] != before * d_in * after:
        raise DimensionMismatch(f"channel input dim {d_in} vs register dim "
                                f"{factor.shape[0] // (before * after)}")
    check_pure_cap(before * ch.d_out * after * ch.d_env * k, what)
    v = ch.isometry().reshape(ch.d_out, ch.d_env, d_in)
    out = np.tensordot(v, factor.reshape(before, d_in, after, k), axes=([2], [1]))
    return out.transpose(2, 0, 3, 1, 4).reshape(before * ch.d_out * after, ch.d_env * k)


def compose(second: ChannelDesc, first: ChannelDesc) -> ChannelDesc:
    """The channel second ∘ first as a single Stinespring dilation."""
    if second.d_in != first.d_out:
        raise DimensionMismatch(
            f"cannot compose: {second.d_in} != {first.d_out}")
    d_in, a1, a2 = first.d_in, first.d_anc, second.d_anc
    o1, e1 = first.out_split
    o2, e2 = second.out_split
    dims_total = d_in * a1 * a2
    # Register evolution on (in, anc1, anc2):
    #   U1 on (in, anc1)          -> (out1, env1, anc2)
    #   permute                   -> (out1, anc2, env1)
    #   U2 on (out1, anc2)        -> (out2, env2, env1)
    u = np.kron(first.dilation, np.eye(a2))
    u = linalg.permute_rows(u, [o1, e1, a2], [0, 2, 1])
    u = np.kron(second.dilation, np.eye(e1)) @ u
    anc_state = first.anc_state * a2 + second.anc_state
    assert u.shape == (dims_total, dims_total)
    return ChannelDesc(u, d_in, a1 * a2, (o2, e2 * e1), anc_state)


def identity_channel(d: int) -> ChannelDesc:
    return ChannelDesc(np.eye(d, dtype=complex), d, 1, (d, 1))


def unitary_channel(u: np.ndarray) -> ChannelDesc:
    u = np.asarray(u, dtype=complex)
    return ChannelDesc(u, u.shape[0], 1, (u.shape[0], 1))


def dilation_from_isometry(columns: np.ndarray, d_in: int, d_anc: int,
                           anc_state: int = 0) -> np.ndarray:
    """Unitary U with U|i>|anc_state> = columns[:, i]: the completion of the
    partial isometry that maps each |i>|anc_state> to its column."""
    d = d_in * d_anc
    if columns.shape != (d, d_in):
        raise DimensionMismatch(f"columns shape {columns.shape}, expected {(d, d_in)}")
    return PartialIsometryOp(columns, np.eye(d)[:, anc_state::d_anc]).completion()


def channel_from_circuit(circuit: GateCircuit, n_input: int,
                         env_qubits: Sequence[int]) -> ChannelDesc:
    """Dilation from a circuit: first ``n_input`` qubits are the input, the
    rest start in |0>, and ``env_qubits`` (output indices) are traced."""
    n = circuit.n_qubits
    env_qubits = sorted(int(q) for q in env_qubits)
    if not (0 < n_input <= n):
        raise DimensionMismatch(f"n_input {n_input} out of range for {n} qubits")
    if any(q < 0 or q >= n for q in env_qubits):
        raise DimensionMismatch(f"env qubits {env_qubits} out of range")
    u = circuit.unitary()
    out_qubits = [q for q in range(n) if q not in env_qubits]
    d_out = 2 ** len(out_qubits)
    d_env = 2 ** len(env_qubits)
    return ChannelDesc(linalg.permute_rows(u, [2] * n, out_qubits + env_qubits),
                       2 ** n_input, 2 ** (n - n_input), (d_out, d_env))


def encode_matrix(m: np.ndarray) -> list:
    """Row-major flattening with interleaved (re, im) doubles."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out.tolist()


def decode_matrix(values, d: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    flat = arr[0::2] + 1j * arr[1::2]
    return flat.reshape(d, d)


def channel_to_json_dict(ch: ChannelDesc) -> dict:
    return {"matrix": encode_matrix(ch.dilation), "d_in": ch.d_in,
            "d_anc": ch.d_anc, "out_split": list(ch.out_split),
            "anc_state": ch.anc_state}


def channel_from_json_dict(data: dict) -> ChannelDesc:
    if "matrix" in data:
        d_in, d_anc = int(data["d_in"]), int(data["d_anc"])
        dilation = decode_matrix(data["matrix"], d_in * d_anc)
        return ChannelDesc(dilation, d_in, d_anc, tuple(data["out_split"]),
                           int(data.get("anc_state", 0)))
    circ = GateCircuit.from_json_dict(data["dilation"])
    return channel_from_circuit(circ, int(data["n_input"]), data["env"])


def check_trace_preserving(ch: ChannelDesc, atol: float = 1e-9) -> float:
    """Max trace error of the channel over all basis inputs, read off the
    isometry's column norms: Tr N(|i><i|) = ||V|i>||^2."""
    worst = float(np.abs(np.linalg.norm(ch.isometry(), axis=0) ** 2 - 1.0).max())
    if worst > atol:
        raise ValueError(f"channel trace error {worst:.3g}")
    return worst
