"""Quantum channels in Stinespring form.

A channel is held as its Stinespring isometry V: in -> out ⊗ env, a
(d_out * d_env) x d_in matrix whose rows factor as (out, env); the
environment is traced. A channel acts on a state only through
``push_factor``, which takes a factor of the state and returns one, with
the traced environment moved into the columns. The complementary channel
swaps the roles of out and env.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DimensionMismatch, check_pure_cap
from . import linalg
from .gates import GateCircuit


@dataclass(frozen=True)
class ChannelDesc:
    isometry: np.ndarray  # V: (d_out * d_env) x d_in, rows ordered (out, env)
    out_split: tuple  # (d_out, d_env)

    def __post_init__(self):
        # A read-only view of the caller's array (a copy only to make it
        # complex and contiguous), which stays writable: a caller that writes
        # to it later passes a copy.
        v = np.ascontiguousarray(self.isometry, dtype=complex).view()
        v.setflags(write=False)
        object.__setattr__(self, "isometry", v)
        object.__setattr__(self, "out_split", (int(self.out_split[0]), int(self.out_split[1])))
        if v.ndim != 2 or v.shape[0] != self.out_split[0] * self.out_split[1]:
            raise DimensionMismatch(f"isometry shape {v.shape} does not factor as "
                                    f"out_split {self.out_split} x d_in")

    @property
    def d_in(self) -> int:
        return self.isometry.shape[1]

    @property
    def d_out(self) -> int:
        return self.out_split[0]

    @property
    def d_env(self) -> int:
        return self.out_split[1]

    def kraus_operators(self) -> list:
        """Kraus operators K_e = (id ⊗ <e|) V."""
        v = self.isometry.reshape(self.d_out, self.d_env, self.d_in)
        return [np.ascontiguousarray(v[:, e, :]) for e in range(self.d_env)]


def complementary(ch: ChannelDesc) -> ChannelDesc:
    """Same isometry with the out/env roles swapped."""
    return ChannelDesc(linalg.permute_rows(ch.isometry, ch.out_split, [1, 0]),
                       (ch.d_env, ch.d_out))


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
    v = ch.isometry.reshape(ch.d_out, ch.d_env, d_in)
    out = np.tensordot(v, factor.reshape(before, d_in, after, k), axes=([2], [1]))
    return out.transpose(2, 0, 3, 1, 4).reshape(before * ch.d_out * after, ch.d_env * k)


def unitary_channel(u: np.ndarray) -> ChannelDesc:
    u = np.asarray(u, dtype=complex)
    return ChannelDesc(u, (u.shape[0], 1))


def channel_from_circuit(circuit: GateCircuit, n_input: int,
                         env_qubits: Sequence[int]) -> ChannelDesc:
    """The channel of a circuit: the first ``n_input`` qubits are the input,
    the rest start in |0>, and ``env_qubits`` (distinct output indices) are
    traced. V is the circuit applied to the 2^n_input basis states |i>|0...0>;
    ``cli`` checks a channel file's n_input and env."""
    n = circuit.n_qubits
    env_qubits = sorted(env_qubits)
    d_in = 2 ** n_input
    check_pure_cap(circuit.dim * d_in)
    inputs = np.zeros((circuit.dim, d_in), dtype=complex)
    inputs[np.arange(d_in) * (circuit.dim // d_in), np.arange(d_in)] = 1.0
    out_qubits = [q for q in range(n) if q not in env_qubits]
    return ChannelDesc(linalg.permute_rows(circuit.apply(inputs), [2] * n,
                                           out_qubits + env_qubits),
                       (2 ** len(out_qubits), 2 ** len(env_qubits)))


def interleave(m: np.ndarray) -> np.ndarray:
    """Row-major flattening with interleaved (re, im) doubles."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out


def check_trace_preserving(ch: ChannelDesc, atol: float = 1e-9) -> float:
    """Max trace error of the channel over all basis inputs, read off the
    isometry's column norms: Tr N(|i><i|) = ||V|i>||^2."""
    worst = float(np.abs(np.linalg.norm(ch.isometry, axis=0) ** 2 - 1.0).max())
    if worst > atol:
        raise ValueError(f"channel trace error {worst:.3g}")
    return worst
