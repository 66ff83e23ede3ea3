"""Qubit gate circuits over a fixed gate set.

The gate set extends the universal {H, CNOT, T} with S, Sdg, Tdg, X, Y, Z,
CZ and SWAP as simulation conveniences; the semantic contract is the induced
unitary. Qubit 0 is the most significant bit of the state index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..errors import DimensionMismatch, check_int, check_object, check_pure_cap
from . import linalg

_SQ2 = 1.0 / np.sqrt(2.0)

GATES = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "Sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "Tdg": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}

TWO_QUBIT = {"CNOT", "CZ", "SWAP"}

# The gate matrices of each size stacked, and each gate's (size, slot) in them.
_NAMES = {size: [g for g, m in GATES.items() if len(m) == size] for size in (2, 4)}
_BY_SIZE = {size: np.stack([GATES[g] for g in names]) for size, names in _NAMES.items()}
_SLOT = {g: (size, slot) for size, names in _NAMES.items() for slot, g in enumerate(names)}


@dataclass(frozen=True)
class GateCircuit:
    """Ordered gate list acting on ``n_qubits`` qubits."""

    n_qubits: int
    gates: tuple = field(default_factory=tuple)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply the circuit to a state vector of matching dimension, or to
        each column of a (dim, k) matrix: ``run_gates`` on a stack of one."""
        if vec.ndim not in (1, 2) or vec.shape[0] != self.dim:
            raise DimensionMismatch(
                f"state dimension {vec.shape} does not match {self.n_qubits} qubits")
        check_pure_cap(vec.size)
        dims = (2,) * self.n_qubits + vec.shape[1:]
        return run_gates([self], vec.astype(complex).reshape(1, -1), dims).reshape(vec.shape)

    def state(self) -> np.ndarray:
        """The state prepared from |0...0>."""
        check_pure_cap(self.dim)
        return self.apply(linalg.basis_vector(self.dim, 0))

    @staticmethod
    def from_json_dict(data: dict) -> "GateCircuit":
        """A file's circuit, checked where it enters: n_qubits in [1, 64], and
        each gate a known name on as many distinct in-range qubits as it takes.
        Past 64 qubits the caps are far off, and 2^n is not formed to say so."""
        n = check_int(check_object(data, "circuit")["n_qubits"], "n_qubits")
        if not 1 <= n <= 64:
            raise ValueError(f"n_qubits must lie in [1, 64], got {n}")
        gates = []
        for entry in data.get("gates", []):
            g = check_object(entry, "gate")["g"]
            qs = tuple(check_int(q, "gate target q") for q in entry["q"])
            if not isinstance(g, str) or g not in GATES:
                raise ValueError(f"unknown gate {g!r}")
            want = 2 if g in TWO_QUBIT else 1
            if len(qs) != want:
                raise ValueError(f"gate {g} takes {want} target(s), got {qs}")
            if any(q < 0 or q >= n for q in qs):
                raise DimensionMismatch(f"gate {g} targets {qs} outside 0..{n - 1}")
            if len(set(qs)) != len(qs):
                raise ValueError(f"gate {g} has repeated targets {qs}")
            gates.append((g, qs))
        return GateCircuit(n, tuple(gates))


def run_gates(circuits, stack: np.ndarray, dims: tuple) -> np.ndarray:
    """Run circuits[i] on row i of the complex (len(circuits), prod(dims))
    ``stack``, which may be overwritten, and return the rows. The gates act on
    the leading (qubit) registers of ``dims``.

    Step t applies each circuit's t-th gate, if it has one. The circuits are
    grouped by target tuple, and one matmul applies a group's stacked gate
    matrices to its rows' ``_register_plan`` reshape: each row gets the bits
    ``apply_matrix_to_registers`` would give it. A stack of one skips the
    grouping and applies its gates in turn.
    """
    if len(circuits) == 1:
        for g, qs in circuits[0].gates:
            stack = _apply(GATES[g], stack, dims, qs)
        return stack
    for step in range(max((len(c.gates) for c in circuits), default=0)):
        groups = {}
        for i, c in enumerate(circuits):
            if step < len(c.gates):
                g, qs = c.gates[step]
                size, slot = _SLOT[g]
                rows, slots = groups.setdefault((qs, size), ([], []))
                rows.append(i)
                slots.append(slot)
        for (qs, size), (rows, slots) in groups.items():
            mats = _BY_SIZE[size][slots[0] if len(slots) == 1 else slots]
            if len(rows) == len(stack):
                stack = _apply(mats, stack, dims, qs)
            else:
                stack[rows] = _apply(mats, stack[rows], dims, qs)
    return stack


def _apply(mats: np.ndarray, rows: np.ndarray, dims: tuple, targets: tuple) -> np.ndarray:
    """``mats``, one gate matrix or one per row, on ``targets`` of each row."""
    shape, forward, flat, middle, backward = _stack_plan(dims, targets)
    if flat[1] != (size := len(mats[-1])):
        raise DimensionMismatch(f"a {size}x{size} gate does not act on targets {targets}")
    tensor = rows.reshape(shape).transpose(forward)
    return (mats @ tensor.reshape(flat)).reshape(middle).transpose(backward).reshape(len(rows), -1)


@functools.lru_cache(maxsize=1024)
def _stack_plan(dims: tuple, targets: tuple) -> tuple:
    """``linalg._register_plan`` with a leading axis for the rows of a stack."""
    shape, forward, flat, middle, backward = linalg._register_plan(dims, targets)
    lift = lambda axes: (0,) + tuple(a + 1 for a in axes)
    return (-1,) + shape, lift(forward), (-1,) + flat, (-1,) + middle, lift(backward)


def circuit_states(circuits) -> np.ndarray:
    """The states that circuits of one width prepare from |0...0>, one row
    each, simulated together by ``run_gates``. Each state is held to the pure
    cap; the caller bounds how many it stacks."""
    dim = 2 ** circuits[0].n_qubits
    check_pure_cap(dim)
    stack = np.zeros((len(circuits), dim), dtype=complex)
    stack[:, 0] = 1.0
    return run_gates(circuits, stack, (2,) * circuits[0].n_qubits)


def random_circuit(n_qubits: int, n_gates: int, rng: np.random.Generator) -> GateCircuit:
    """Uniformly random gate sequence from the supported set: per gate, what
    ``rng.integers(len(GATES))``, then ``rng.integers(n)`` or ``rng.choice(n,
    2, replace=False)`` (``H`` on one qubit) draw, decoded from a batch of
    ``rng``'s 32-bit words as numpy decodes them. ``integers(b)``: m = w b,
    redrawn while m mod 2^32 < (2^32 - b) mod b (Lemire), is m >> 32, no word
    if b = 1. ``choice(n, 2)``: a = integers(n - 1), b = integers(n), n - 1 if
    b = a (Floyd), swapped if integers(2) is 0. ``rng`` ends as they leave it."""
    names = sorted(GATES)
    start = rng.bit_generator.state
    words, used = [], 0
    least = {b: (2 ** 32 - b) % b for b in (len(names), n_qubits, n_qubits - 1, 2) if b > 1}

    def draw(bound: int) -> int:
        nonlocal used
        if bound < 2:
            return 0
        while True:
            if used == len(words):
                words.extend(rng.integers(2 ** 32, size=4 * n_gates + 4, dtype=np.uint32).tolist())
            m = words[used] * bound
            used += 1
            if m & 0xFFFFFFFF >= least[bound]:
                return m >> 32

    gates = []
    for _ in range(n_gates):
        g = names[draw(len(names))]
        if g in TWO_QUBIT and n_qubits > 1:
            a, b = draw(n_qubits - 1), draw(n_qubits)
            b = n_qubits - 1 if b == a else b
            gates.append((g, (b, a) if draw(2) == 0 else (a, b)))
        else:
            gates.append(("H" if g in TWO_QUBIT else g, (draw(n_qubits),)))
    rng.bit_generator.state = start
    rng.integers(2 ** 32, size=used, dtype=np.uint32)
    return GateCircuit(n_qubits, tuple(gates))
