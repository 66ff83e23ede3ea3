"""Interactive-protocol simulations built on Uhlmann transformations.

Includes the permutation-test verifier with zero-knowledge simulator, the
alternating-measurement hardness amplifier, density matrix exponentiation,
the Hadamard-test approximate measurement, and the oracle-assisted verifier
variant that replaces state preparation and verification with those
primitives.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, check_density_cap, check_matrix_cap, check_pure_cap
from .qcore import linalg
from .qcore.channels import ChannelDesc, push_factor
from .qcore.metrics import factor_trace_distance
from .qcore.states import BipartiteState, DensityOp
from .rng import Seed, as_seed
from .uhlmann import UhlmannInstance, apply_uhlmann, canonical_uhlmann


# ---------------------------------------------------------------------------
# Prover strategies

@dataclass(frozen=True)
class ProverStrategy:
    """What the prover does to the B-register block it receives.

    Product provers act on each received register slot independently
    (entry None = identity, an ndarray = a dB x dB unitary, or a
    ChannelDesc). Joint provers apply one unitary to the whole block plus a
    private ancilla.
    """

    label: str
    factors: Optional[tuple] = None
    joint_unitary: Optional[np.ndarray] = None
    joint_anc_dim: int = 1

    @staticmethod
    def honest(x: UhlmannInstance, m: int) -> "ProverStrategy":
        return ProverStrategy("honest", factors=tuple([_honest_unitary(x)] * (m + 1)))

    @staticmethod
    def identity(m: int) -> "ProverStrategy":
        return ProverStrategy("identity", factors=tuple([None] * (m + 1)))

    @staticmethod
    def partial_honest(x: UhlmannInstance, m: int, count: int) -> "ProverStrategy":
        """Applies the honest unitary on ``count`` slots, identity elsewhere."""
        facs = [_honest_unitary(x)] * count + [None] * (m + 1 - count)
        return ProverStrategy("custom", factors=tuple(facs))

    @staticmethod
    def joint(u: np.ndarray, anc_dim: int = 1, label: str = "custom") -> "ProverStrategy":
        return ProverStrategy(label, joint_unitary=np.asarray(u, dtype=complex),
                              joint_anc_dim=anc_dim)

    def is_product(self) -> bool:
        return self.factors is not None


def _honest_unitary(x: UhlmannInstance) -> np.ndarray:
    """The dB x dB completion of the canonical transporter, under the density cap."""
    check_density_cap(x.dB, "prover completion")
    return canonical_uhlmann(x, 0.0).completion()


@dataclass
class ProtocolResult:
    accepted: bool
    accept_prob: float
    # A factor L of the output given acceptance, L L^dag; None without one.
    output_factor: Optional[np.ndarray]
    transcript: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# The permutation-test protocol

def szk_run(x: UhlmannInstance, m: int, prover: ProverStrategy, seed) -> ProtocolResult:
    """One seeded run of the permutation-test verifier.

    Prepares m test copies of |C> next to the input copy, block-permutes the
    B registers, hands them to the prover, un-permutes, and accepts iff every
    test copy passes the D-basis check. The surviving register-0 pair is the
    output, given as its factor when the run accepts.
    """
    psi, phi = x.states()
    test = _PermutationTest(psi, phi, m, prover)
    perm, accept_prob, accepted = _szk_coins(test, m, seed)
    factor = test(perm)[1] if accepted else None
    return ProtocolResult(accepted, accept_prob, factor,
                          [_szk_record(test, perm, accept_prob, accepted)])


def szk_trials(x: UhlmannInstance, m: int, prover: ProverStrategy, seeds,
               records: bool = False):
    """``szk_run`` at each seed, without the output factors: yields each
    run's (accepted, transcript record), the record None unless ``records``.

    The runs share one verifier, so a product prover is solved once per
    input slot, and the coins are drawn as ``szk_run`` draws them.
    """
    psi, phi = x.states()
    test = _PermutationTest(psi, phi, m, prover)
    for seed in seeds:
        perm, accept_prob, accepted = _szk_coins(test, m, seed)
        yield accepted, (_szk_record(test, perm, accept_prob, accepted) if records else None)


def _szk_coins(test: _PermutationTest, m: int, seed):
    """(perm, accept prob, accepted) of one run: the permutation is drawn
    first, then the acceptance coin."""
    rng = as_seed(seed).child("szk").generator()
    perm = rng.permutation(m + 1)
    accept_prob = test(perm)[0]
    return perm, accept_prob, bool(rng.random() < accept_prob)


def _szk_record(test: _PermutationTest, perm, accept_prob: float, accepted: bool) -> dict:
    return {"round": 1, "perm": perm.tolist(), "accept_prob": accept_prob,
            "accepted": accepted,
            "output_td_to_target": test.output_distance(perm) if accepted else None}


class _PermutationTest:
    """The permutation-test verifier as a function of the permutation (slot
    j holds register perm[j]), with the m test copies oracle-prepared at
    error ``prep_error`` (0 is the ideal oracle). Calling it returns the
    acceptance probability and a factor L of the (A_0, B_0) output given
    acceptance, or L = None for a joint prover accepted with probability at
    most 1e-12.

    A run depends on the permutation only through j0, the slot that
    receives the input register: the test block and the D-basis check are
    both symmetric under exchanging test registers, so each j0 is solved
    once. Product provers are solved in closed form: each slot acts alone,
    so slot j0 gives the output, whatever the test block holds, and each
    test slot j contributes its row D^dag L_j. A factor object shared by
    several slots (the honest prover's one unitary) is applied once, and
    the products still run over the test slots in order. Joint provers are
    contracted over the test slots (``_joint_test``).
    """

    def __init__(self, psi: BipartiteState, phi: BipartiteState, m: int,
                 prover: ProverStrategy, prep_error: float = 0.0):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.psi, self.phi, self.m = psi, phi, m
        self.prover, self.prep_error = prover, prep_error
        self._runs, self._distances = {}, {}
        if not prover.is_product():
            return
        if len(prover.factors) != m + 1:
            raise DimensionMismatch(f"prover has {len(prover.factors)} factors, needs {m + 1}")
        ids = list(map(id, prover.factors))
        distinct = dict(zip(ids, prover.factors))
        index = {key: i for i, key in enumerate(distinct)}
        self._factors = list(distinct.values())
        # The distinct factor each slot holds.
        self._slot_factor = np.array([index[key] for key in ids])
        self._actions = [_factor_action(factor, psi) for factor in self._factors]
        self._target = phi.amplitudes.conj()
        self._rows = [self._target @ action for action in self._actions]
        row_weights = np.array([np.linalg.norm(row) ** 2 for row in self._rows])
        self._slot_weights = row_weights[self._slot_factor]

    def __call__(self, perm):
        j0 = int(np.flatnonzero(np.asarray(perm) == 0)[0])
        if j0 not in self._runs:
            self._runs[j0] = (self._product_run(j0) if self.prover.is_product() else
                              _joint_test(self.psi, self.phi, self.m, j0, self.prover,
                                          self.prep_error))
        return self._runs[j0]

    def output_distance(self, perm) -> Optional[float]:
        """Trace distance from the output given acceptance to |D><D|, or
        None when there is no output factor; computed once per factor."""
        factor = self(perm)[1]
        if factor is None:
            return None
        # Every factor stays held in self._runs, so its id is not reused.
        if id(factor) not in self._distances:
            self._distances[id(factor)] = factor_trace_distance(factor, self.phi.amplitudes)
        return self._distances[id(factor)]

    def _product_run(self, j0: int):
        # Per-slot values of the test slots, in slot order.
        tests = lambda per_slot: np.concatenate((per_slot[:j0], per_slot[j0 + 1:]))
        accept = float(np.prod(tests(self._slot_weights)))
        if self.prep_error > 0.0:
            # The junk block's accepted amplitude is (Y - c X) / sqrt(1 - |c|^2),
            # X and Y the products of the rows on C and on E.
            e, c = _junk_basis(self.psi, self.m)
            slots = tests(self._slot_factor)
            yy, yx = np.zeros(len(self._factors)), np.zeros(len(self._factors), dtype=complex)
            for i in np.unique(slots).tolist():
                y = self._target @ _factor_action(self._factors[i], e)
                yy[i], yx[i] = np.linalg.norm(y) ** 2, np.vdot(y, self._rows[i])
            junk = ((float(np.prod(yy[slots])) - 2.0 * (c * np.prod(yx[slots])).real
                     + abs(c) ** 2 * accept) / (1.0 - abs(c) ** 2))
            accept = (1.0 - self.prep_error) * accept + self.prep_error * junk
        return accept, self._actions[self._slot_factor[j0]]


def _factor_action(factor, psi: BipartiteState) -> np.ndarray:
    """A factor L of (id ⊗ factor)(|psi><psi|) for one register slot: a
    column for the identity or a unitary, the Kraus push on the B register
    for a channel."""
    col = psi.amplitudes.reshape(-1, 1)
    if factor is None:
        return col
    if isinstance(factor, ChannelDesc):
        if factor.d_out != psi.dB:
            raise DimensionMismatch(f"channel output dim {factor.d_out}, B dim {psi.dB}")
        return push_factor(factor, col, before=psi.dA)
    u = np.asarray(factor, dtype=complex)
    return (psi.as_matrix() @ u.T).reshape(-1, 1)


def _junk_basis(psi: BipartiteState, m: int):
    """(E, c) for the oracle's junk test block (E^{⊗m} - c C^{⊗m}) / sqrt(1 - |c|^2),
    orthogonal to C^{⊗m}: E is the last basis state of (A, B), or the first
    when C is the last one (up to phase), and c = conj(psi[E])^m."""
    amps = psi.amplitudes
    index = 0 if np.isclose(abs(amps[-1]), 1.0, rtol=0.0, atol=1e-12) else amps.size - 1
    e = BipartiteState(linalg.basis_vector(amps.size, index), psi.split)
    return e, np.conj(amps[index]) ** m


def _joint_test(psi: BipartiteState, phi: BipartiteState, m: int, j0: int,
                prover: ProverStrategy, prep_error: float):
    """``_PermutationTest`` for a joint prover whose input register is in
    slot j0. The test block and |D>^{⊗m} are Kronecker powers, so the
    projection goes through the prover: with the ancilla entering at 0,
    each test slot's output axis is contracted with its input axis through
    g = M_test^T conj(M_D), the dB x dB overlap over A of a test copy with
    |D>, and slot j0 stays open as H[b0, anc, b']. The accepted amplitude is
    amp[(a0, b0), anc] = sum_b' psi[a0, b'] H[b0, anc, b'], and its
    branches, side by side, are the output factor. A run costs O(size^2)
    for the prover's size x size unitary, and no joint vector is made; the
    junk branch (E^{⊗m} - c C^{⊗m}) / sqrt(1 - |c|^2) of ``_junk_basis`` is
    the same contraction on E, less c times the good branch. The caps bound
    the unitary and the dA dB x anc accepted amplitude of each branch."""
    dA, dB = psi.split
    anc = prover.joint_anc_dim
    size = dB ** (m + 1) * anc
    check_matrix_cap(size ** 2, "joint prover unitary")
    check_pure_cap(dA * dB * anc * (2 if prep_error > 0.0 else 1), "joint output factor")
    if prover.joint_unitary.shape != (size, size):
        raise DimensionMismatch(f"matrix shape {prover.joint_unitary.shape} "
                                f"does not act on dims {size}")
    # Axes 0..m are the slots' outputs, m + 1 the ancilla's, m + 2 + j slot j's input.
    u = prover.joint_unitary.reshape([dB] * (m + 1) + [anc] + [dB] * (m + 1) + [anc])[..., 0]
    target = phi.as_matrix().conj()

    def accepted(copy: np.ndarray) -> np.ndarray:
        g, h, axes = copy.T @ target, u, list(range(2 * m + 3))
        for j in range(m + 1):
            if j != j0:
                rest = [a for a in axes if a not in (j, m + 2 + j)]
                h = np.einsum(h, axes, g, [m + 2 + j, j], rest)
                axes = rest
        return np.einsum(psi.as_matrix(), [0, 2], h, [1, 3, 2], [0, 1, 3]).reshape(dA * dB, anc)

    good = accepted(psi.as_matrix())
    branches = [(1.0, good)]
    if prep_error > 0.0:
        e, c = _junk_basis(psi, m)
        junk = (accepted(e.as_matrix()) - c * good) / math.sqrt(1.0 - abs(c) ** 2)
        branches = [(1.0 - prep_error, good), (prep_error, junk)]
    accept = sum(weight * float(np.vdot(amp, amp).real) for weight, amp in branches)
    if accept <= 1e-12:
        return accept, None
    factor = np.hstack([math.sqrt(weight) * amp for weight, amp in branches])
    return accept, factor / math.sqrt(accept)


def szk_conditional_output(x: UhlmannInstance, m: int, prover: ProverStrategy):
    """Average over the verifier permutation: (accept prob, output given
    acceptance). A run depends only on the slot that receives the input
    register, so the m + 1 rotations average it exactly. A joint prover's
    run accepted with probability at most 1e-12 has no factor and adds
    nothing to the output. The output is dense, so dA dB has the density cap.
    """
    check_density_cap(x.dA * x.dB, "conditional output")
    psi, phi = x.states()
    perms = [np.roll(np.arange(m + 1), j) for j in range(m + 1)]
    test = _PermutationTest(psi, phi, m, prover)
    acc, mat, wsum = 0.0, 0.0, 0.0
    for perm in perms:
        p, factor = test(perm)
        acc += p / len(perms)
        if factor is not None:
            mat = mat + p * (factor @ factor.conj().T)
            wsum += p
    return acc, DensityOp(mat / wsum, psi.split)


def szk_simulator_distance(x: UhlmannInstance, m: int) -> float:
    """td between simulator output and the honest post-round verifier state.

    Both states are pure products, so the distance follows from the
    single-copy overlap without building the joint matrices.
    """
    psi, phi = x.states()
    out = apply_uhlmann(x, 0.0, psi)
    ov = abs(np.vdot(phi.amplitudes, out.amplitudes)) ** 2
    return float(np.sqrt(max(0.0, 1.0 - ov ** (m + 1))))


# ---------------------------------------------------------------------------
# Hardness amplification

@dataclass(frozen=True)
class AmplifierConfig:
    k: int  # k, T >= 1, as the CLI's --param table checks
    T: int
    seed: Seed


@dataclass(frozen=True)
class FoldedSolver:
    """A k-fold solver in product form, the same for every k:
    R = (u^{⊗k} ⊗ 1)(1 ⊗ |0><0|_G + J ⊗ |1><1|_G)(1 ⊗ Ry(theta)_G) on
    B_1..B_k ⊗ G, with ``u`` a dB x dB unitary on each B_j, ``junk`` the
    dB x dB unitary J on B_1, and G a qubit that Ry(theta) takes from |0> to
    cos(theta)|0> + sin(theta)|1>."""

    u: np.ndarray
    junk: np.ndarray
    theta: float
    g_dim: ClassVar[int] = 2


def amplification_bound(nu: float, T: int, k: int) -> float:
    """1 - (2(1-nu)^T + 32 T / sqrt(k)), clamped to [0, 1]."""
    if not (0.0 <= nu <= 1.0):
        raise ValueError("nu must lie in [0, 1]")
    val = 1.0 - (2.0 * (1.0 - nu) ** T + 32.0 * T / math.sqrt(k))
    return float(np.clip(val, 0.0, 1.0))


def check_amplifier_cap(dA: int, dB: int, k: int, T: int = 0) -> None:
    """Cap what the amplifier holds. Its k per-index fidelities, and the
    k + 1 powers of z behind them, fit the state-vector cap. A run of the
    walk is T rounds of a D x D state on the frame's D = dA dB (g + 1)
    coordinates, so T D^2 fits it too: T <= 7281 on a qubit pair."""
    check_pure_cap(k, "amplifier per-index fidelities")
    check_pure_cap(T * (dA * dB * (FoldedSolver.g_dim + 1)) ** 2, "amplifier walk")


def engineered_solver(x: UhlmannInstance, k: int, nu: float, junk: np.ndarray = None):
    """Solver with folded fidelity nu at k copies: exact transport on a
    cos-weighted branch.

    The ancilla G is rotated to cos(t)|0> + sin(t)|1> with cos^2(t) = nu;
    controlled on G = 1 the dB x dB ``junk`` unitary (X on the first qubit
    of B_1 unless given) spoils B_1, and the exact transporter runs on every
    B_j afterwards. Returns (solver, nu_actual) where nu_actual is the
    exactly computed folded fidelity.
    """
    check_amplifier_cap(x.dA, x.dB, k)
    if junk is None:
        if x.dB % 2 != 0:
            raise DimensionMismatch("default junk needs qubit B registers")
        junk = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(x.dB // 2))
    solver = FoldedSolver(canonical_uhlmann(x, 0.0).completion(), junk,
                          math.acos(math.sqrt(nu)))
    return solver, folded_fidelity(x, solver, k)


# The amplifier's registers are ordered A_1..A_k, B_1..B_k, G, so the solver
# acts on the trailing block. The walk runs in the solver's output frame,
# R v: there the "solver maps to |D>" measurement Q is a plain projection,
# and the final single-copy readout needs no R. Every branch of the walk lies
# in the span of the ranges of P and Q, which has dimension at most
# dA dB (g + 1), so the walk runs on coordinates in that span (_amp_frame).
# The solver is a product, so the frame comes from one copy's quantities
# (_amp_parts), and no object on the k copies is ever built.

def _amp_parts(x: UhlmannInstance, solver: FoldedSolver, k: int, i: int = None):
    """The walk of index i from one copy, per G value gamma = 0, 1: the open
    factor on B_i, the overlap of the n = k - 1 closed blocks with
    |D>^{⊗n}, and the squared norm of their residual. i = None gives the
    folded overlap: n = k and no open register.

    With X = (1 ⊗ u)|C>, X_J = (1 ⊗ uJ)|C>, z = <D|X>, z_J = <D|X_J> and the
    residuals r = X - z|D>, r_J = X_J - z_J|D>, the factors are c u and
    z^n on gamma = 0, and on gamma = 1 s uJ and z^n at i = 0, where J acts
    on B_i, or s u and z_J z^(n-1) at i >= 1, where it acts on a closed
    block (c, s = cos, sin theta). So every i >= 1 has the same walk.
    The residual norms are sums of positive terms: N_0 = ||r||^2
    sum_{l<n} |z|^{2l}, never 1 - |z|^{2n}, which keeps no digits when |z|
    rounds to 1; and N_1 = N_0 at i = 0, or ||r_J||^2 + |z_J|^2 ||r||^2
    sum_{l<n-1} |z|^{2l}. The powers are n sequential complex products,
    each within sqrt(5)/2 ulp (Brent, Percival and Zimmermann, 2007), so
    z^n is within ~n ulp of the exact power of the rounded z, and the sums
    within ~3n ulp: about 1e-12 relative at k = 20000.
    """
    psi, phi = x.states()
    for name, op in (("solver", solver.u), ("junk", solver.junk)):
        if op.shape != (psi.dB, psi.dB):
            raise DimensionMismatch(f"{name} acts on dim {op.shape[0]}, expected {psi.dB}")
    uj = solver.u @ solver.junk
    overlaps = []
    for w in (solver.u, uj):
        xv = (psi.as_matrix() @ w.T).reshape(-1)
        z = np.vdot(phi.amplitudes, xv)
        overlaps.append((z, _weight(xv - z * phi.amplitudes)))
    (z, rr), (zj, rrj) = overlaps
    n = k if i is None else k - 1
    zpow = np.cumprod(np.concatenate(([1.0 + 0j], np.full(n, z))))
    geo = np.concatenate(([0.0], np.cumsum((zpow[:-1] * zpow[:-1].conj()).real)))
    c, s = math.cos(solver.theta), math.sin(solver.theta)
    w0 = np.ones((1, 1)) if i is None else solver.u
    if i == 0:
        gamma1 = (s * uj, zpow[n], rr * geo[n])
    else:
        gamma1 = (s * w0, zj * zpow[n - 1], rrj + abs(zj) ** 2 * rr * geo[n - 1])
    return (c * w0, zpow[n], rr * geo[n]), gamma1


def _weight(vec) -> float:
    return float(np.vdot(vec, vec).real)


def folded_fidelity(x: UhlmannInstance, solver: FoldedSolver, k: int) -> float:
    """nu = F((id ⊗ R)(|C><C|^{⊗k}), |D><D|^{⊗k})
    = cos^2(theta) |z|^{2k} + sin^2(theta) |z_J|^2 |z|^{2(k-1)}, exactly."""
    return float(sum(abs(w[0, 0] * zn) ** 2 for w, zn, _ in _amp_parts(x, solver, k)))


class _Walk(NamedTuple):
    start: np.ndarray
    p: np.ndarray
    q: np.ndarray
    gram: np.ndarray


def _amp_frame(x: UhlmannInstance, solver: FoldedSolver, k: int, i: int) -> _Walk:
    """The walk for index i in coordinates of span(range P ∪ range Q).

    P = R (|C><C| on the blocks j != i ⊗ |0><0|_G) R† and Q = |D><D| on the
    blocks j != i. With a, b, gamma running over the free registers A_i, B_i
    and G, range P has the basis w_(a, beta) = |a> ⊗ S_beta, with
    S_beta = R(|C>^{⊗(k-1)} ⊗ |beta>_{B_i} ⊗ |0>_G), and range Q the basis
    q_(a, t) = |a> ⊗ |D>^{⊗(k-1)} ⊗ |t>, t = (b, gamma). Their overlap is the
    identity on a times the dB x dB g block C[beta, t] = <D^{⊗(k-1)} ⊗ t | S_beta>,
    on G = gamma the open factor [b, beta] times the closed overlap
    (_amp_parts). Its SVD C = U cos V† pairs the principal vectors
    u_j = sum_beta U[beta, j] w_beta and v_j = sum_t V[t, j] q_t, with
    Q u_j = cos_j v_j (Jordan's lemma) and (1 - Q) u_j = sin_j e_j. The
    coordinates are those on the v_t and then the e_j, per a: P acts on
    each pair (v_j, e_j) as the 2 x 2 block of (cos_j, sin_j), and Q keeps
    the v_t. (1 - Q) u_j is, on G = gamma, the open factor times U's column
    j on B_i, times a closed vector of squared norm N_gamma, so the sines
    are sums of positive terms, never sqrt(1 - cos^2), which has no digits
    left when cos_j rounds to 1 (Björck and Golub, 1973).

    ``p`` is P as a matrix, ``q`` the mask of the coordinates Q keeps, and
    ``gram`` the Gram G of |phi><phi|_{A_i B_i} on the frame, so that the
    single-copy readout |<phi|_{A_i B_i} v>|^2 is v† G v.
    """
    psi, phi = x.states()
    parts = _amp_parts(x, solver, k, i)
    nb = psi.dB
    cq = np.stack([zn * w.T for w, zn, _ in parts], axis=-1)  # <D, b, gamma | S_beta>
    u, cos, vh = np.linalg.svd(cq.reshape(nb, -1).conj())
    opened = [(w @ u, norm) for w, _, norm in parts]  # (1 - Q) u_j on (b, gamma)
    sin = np.sqrt(sum(norm * (abs(wu) ** 2).sum(axis=0) for wu, norm in opened))
    m = vh.shape[0]
    rows = np.zeros((nb, m + nb))  # u_j in frame coordinates
    rows[range(nb), range(nb)] = cos
    rows[range(nb), range(m, m + nb)] = sin
    start = ((psi.amplitudes.reshape(psi.dA, nb) @ u.conj()) @ rows).reshape(-1)
    p = np.kron(np.eye(psi.dA), rows.T @ rows)
    q = np.tile(np.arange(m + nb) < m, psi.dA)
    # Gram of the frame vectors' slices on B_i: the v_t, then the unit e_j.
    g = solver.g_dim
    gram = np.zeros((m + nb, nb, m + nb, nb), dtype=complex)
    vt = vh.conj().reshape(m * nb, g)
    gram[:m, :, :m] = (vt.conj() @ vt.T).reshape(m, nb, m, nb)
    scale = np.divide(1.0, sin, out=np.zeros_like(sin), where=sin > 0)
    gram[m:, :, m:] = sum(norm * np.einsum("bj,ck->jbkc", (wu * scale).conj(), wu * scale)
                          for wu, norm in opened)
    phi_pair = phi.amplitudes.reshape(psi.dA, psi.dB)
    read_gram = np.einsum("ab,cd,jbkd->ajck", phi_pair, phi_pair.conj(),
                          gram).reshape(start.size, start.size)
    return _Walk(start, p, q, read_gram)


def _amp_fidelity_for_index(walk: _Walk, T: int) -> float:
    """F((id ⊗ M_i)(|C><C|), |D><D|) for the run that sampled index i.

    The coherent alternating-projection walk (Marriott–Watrous) records
    every outcome, so its branches b are orthogonal records and the
    fidelity is Tr(G sum_b |b><b|). That sum over the branches still
    running, rho, starts as |start><start|, and each round measures P,
    rho <- P rho P + (1 - P) rho (1 - P), and then Q, where Q rho Q stops
    and (1 - Q) rho (1 - Q) runs on: T rounds of D x D products.
    """
    rho = np.outer(walk.start, walk.start.conj())
    miss = np.eye(len(walk.start)) - walk.p
    stop, run = np.outer(walk.q, walk.q), np.outer(~walk.q, ~walk.q)
    stopped = np.zeros_like(rho)
    for _ in range(T):
        rho = walk.p @ rho @ walk.p + miss @ rho @ miss
        stopped += rho * stop
        rho *= run
    return float(np.sum(walk.gram * (stopped + rho).T).real)


def amplify_run(x: UhlmannInstance, solver: FoldedSolver, cfg: AmplifierConfig,
                trials: int, nu: Optional[float] = None) -> dict:
    """Monte-Carlo the amplifier: sample i per trial, measure single-copy fidelity.

    The coherent evolution is deterministic given i, and the same for every
    i >= 1 (the junk acts on B_1 alone), so the walk runs once for i = 0 and
    once for the other indices, and trials sample the index. ``nu`` is the
    solver's folded fidelity, computed here unless the caller has it (as
    ``engineered_solver`` returns it).
    """
    check_amplifier_cap(x.dA, x.dB, cfg.k, cfg.T)
    classes = [_amp_fidelity_for_index(_amp_frame(x, solver, cfg.k, i), cfg.T)
               for i in range(min(cfg.k, 2))]
    per_index = np.full(cfg.k, classes[-1])
    per_index[0] = classes[0]
    rng = cfg.seed.child("amplify").generator()
    samples = np.asarray(classes)[np.minimum(rng.integers(0, cfg.k, size=trials), 1)]
    if nu is None:
        nu = folded_fidelity(x, solver, cfg.k)
    bound = amplification_bound(nu, cfg.T, cfg.k)
    sem = float(samples.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return {
        "empirical_fidelity": float(samples.mean()),
        "exact_mean_fidelity": float(np.mean(per_index)),
        "per_index_fidelity": per_index,
        "nu": nu,
        "bound": bound,
        "stderr": sem,
        "trials": trials,
    }


# ---------------------------------------------------------------------------
# Density matrix exponentiation

def _partial_swap_step(mat: np.ndarray, sigma: np.ndarray, dt: float) -> np.ndarray:
    """Tr_Q[e^{i dt S}(mat ⊗ sigma_Q)e^{-i dt S}], S swapping the last register X of
    ``mat`` with Q, in the Lloyd–Mohseni–Rebentrost closed form
    cos² dt mat + sin² dt Tr_X(mat)⊗sigma + i sin dt cos dt [1⊗sigma, mat]."""
    d, n = sigma.shape[0], mat.shape[0]
    r = mat.reshape(-1, d, n // d, d)
    c, s = math.cos(dt), math.sin(dt)
    swapped = np.trace(r, axis1=1, axis2=3)[:, None, :, None] * sigma[None, :, None, :]
    # (1⊗sigma) mat and mat (1⊗sigma), as products over X's row and column.
    comm = (sigma @ mat.reshape(-1, d, n)).reshape(r.shape) - (mat.reshape(-1, d) @ sigma
                                                              ).reshape(r.shape)
    return (c * c * r + s * s * swapped + 1j * s * c * comm).reshape(mat.shape)


def dme(target: DensityOp, program: DensityOp, t: float, k: int) -> DensityOp:
    """Approximate conjugation by e^{2 pi i t rho} via k partial swaps.

    ``target`` may carry spectator registers; the last register is acted on
    and must match the program dimension. The trace-distance error is at
    most ``dme_error_bound(t, k)``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if target.dims[-1] != program.dim:
        raise DimensionMismatch(
            f"program dim {program.dim} vs acted register {target.dims[-1]}")
    dt = 2.0 * math.pi * t / k
    mat = target.matrix
    for _ in range(k):
        mat = _partial_swap_step(mat, program.matrix, dt)
    return DensityOp(mat, target.dims)


def dme_exact_unitary(program: DensityOp, t: float) -> np.ndarray:
    """e^{2 pi i t rho} for the program state."""
    vals, vecs = np.linalg.eigh(linalg.hermitize(program.matrix))
    return (vecs * np.exp(2j * math.pi * t * vals)) @ vecs.conj().T


def dme_error_bound(t: float, k: int) -> float:
    """Trace-distance bound, in any dimension, for k partial swaps approximating
    conjugation by e^{2 pi i t sigma} (``dme`` and the controlled DME of
    ``approx_measure``): min(1, (k/2) ε(Δ)) with Δ = 2 pi |t| / k and
    ε(Δ) = 4(1 - cos Δ) + |Δ - sin Δ cos Δ| + (e^Δ - 1 - Δ).

    One step E(ρ) = Tr_Q[V(ρ⊗σ)V†], V = e^{iΔH} = 1 + is H - (1-c)Π (c, s =
    cos Δ, sin Δ; H = S or, controlled, |1><1|⊗S; Π = H², H³ = H) stands for
    e^{iΔG} ρ e^{-iΔG}, G = Tr_Q[H(1⊗σ)] = 1⊗σ or |1><1|⊗1⊗σ. For ‖ρ‖₁ ≤ 1 the
    difference has a zeroth- and second-order part -(1-c)(Πρ + ρΠ) + (1-c)²ΠρΠ
    + s² Tr_Q[H(ρ⊗σ)H], at most 2(1-c) + (1-c)² + s² = 4(1-c); a first-order gap
    i(s - Δ)[G, ρ] - is(1-c)[G, ΠρΠ], at most Δ - sc as ‖ad_G‖ ≤ 1 in trace norm
    (0 ≤ G ≤ 1) and 0 ≤ s ≤ Δ (Δ ≤ pi; past it the bound is 1); and the Taylor
    tail Σ_{n≥2} (iΔ ad_G)^n ρ / n! of e^{iΔG} ρ e^{-iΔG}, at most e^Δ - 1 - Δ.
    Steps are channels, so trace-norm contractivity sums the k step errors;
    halving gives trace distance.
    """
    delta = 2.0 * math.pi * abs(t) / k
    step = (4.0 * (1.0 - math.cos(delta)) + abs(delta - math.sin(delta) * math.cos(delta))
            + math.expm1(delta) - delta)
    return min(1.0, 0.5 * k * step)


def default_dme_copies(error: float, t: float = 0.5) -> int:
    """Smallest k >= 4 with ``dme_error_bound(t, k) <= error`` (the bound
    decreases with k, so a doubling search and a bisection find it)."""
    if not error > 0:
        raise ValueError(f"error must be positive, got {error}")
    hi = 4
    while dme_error_bound(t, hi) > error:
        hi *= 2
    ks = range(4, hi + 1)
    return ks[bisect.bisect_left(ks, True, key=lambda k: dme_error_bound(t, k) <= error)]


# ---------------------------------------------------------------------------
# Approximate measurement (Hadamard test against a pure program state)

@dataclass
class ApproxMeasureResult:
    accepted: bool
    bit: int
    p_one: float
    post_state: object      # state conditioned on the sampled bit
    post_one: object
    post_zero: object
    error_bound: float


# The trace-distance error a DME-mode measurement is sized for when no copy
# count is given.
_DME_ERROR = 0.05


def approx_measure(tau, psi, k_q: int = None, mode: str = "ideal_reflection",
                   seed=0) -> ApproxMeasureResult:
    """Hadamard-test measurement of |psi><psi| on the last register of tau.

    An ancilla |+> controls e^{i pi |psi><psi|} (exact reflection in
    ``ideal_reflection`` mode, DME with k_q program copies in ``dme`` mode);
    measuring the ancilla in the ± basis yields bit b with
    Pr[b=1] ≈ Tr(|psi><psi| tau). In ``dme`` mode an omitted k_q is the
    fewest copies whose ``dme_error_bound`` meets 0.05 (``_DME_ERROR``).
    """
    if isinstance(psi, BipartiteState):
        psi = psi.amplitudes
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if mode not in ("ideal_reflection", "dme"):
        raise ValueError(f"unknown mode {mode!r}")
    if not isinstance(tau, (BipartiteState, DensityOp)):
        raise DimensionMismatch("tau must be a BipartiteState or DensityOp")
    d_m = (tau.split if isinstance(tau, BipartiteState) else tau.dims)[-1]
    if d_m != psi.shape[0]:
        raise DimensionMismatch(f"program dim {psi.shape[0]} vs measured register {d_m}")
    if mode == "dme":
        result = _approx_measure_density(tau, psi, k_q or default_dme_copies(_DME_ERROR))
    elif isinstance(tau, BipartiteState):
        result = _approx_measure_pure(tau, psi)
    else:
        result = _approx_measure_density(tau, psi, None)
    rng = as_seed(seed).child("approx-measure").generator()
    result.bit = int(rng.random() < result.p_one)
    result.post_state = result.post_one if result.bit else result.post_zero
    return result


def _approx_measure_pure(tau: BipartiteState, psi):
    # Ancilla |+>, controlled reflection, Hadamard, measure. The branch
    # algebra collapses to projections of the measured register.
    mat = tau.as_matrix()
    overlap = mat @ psi.conj()                     # coefficients on |psi>
    proj = np.outer(overlap, psi)
    p_one = float(np.real(np.vdot(proj, proj)))
    rest = mat - proj
    p_zero = float(np.real(np.vdot(rest, rest)))
    post_one = BipartiteState(proj.reshape(-1) / np.sqrt(p_one), tau.split) \
        if p_one > 1e-14 else None
    post_zero = BipartiteState(rest.reshape(-1) / np.sqrt(p_zero), tau.split) \
        if p_zero > 1e-14 else None
    return ApproxMeasureResult(True, 0, p_one, None, post_one, post_zero, 0.0)


def _approx_measure_density(tau, psi, k_q: Optional[int]):
    """The Hadamard test on tau as a density operator, by DME with k_q
    program copies, or by the exact reflection when k_q is None."""
    if isinstance(tau, BipartiteState):
        tau = tau.density()
    d_m = psi.shape[0]
    sigma = np.outer(psi, psi.conj())
    # w acts on the measured register, the last of each row index of mat.
    on_last = lambda w, mat: (w @ mat.reshape(-1, d_m, tau.dim)).reshape(tau.dim, tau.dim)
    # Control blocks of 2|+><+|⊗tau: |0><0| is left alone, |1><1| takes the
    # controlled operation (b11) and |1><0| its one-sided action 1⊗w (b10).
    if k_q is None:
        # The reflection w = 1 - 2 sigma: b11 = (1⊗w) tau (1⊗w).
        w = np.eye(d_m) - 2.0 * sigma
        b10 = on_last(w, tau.matrix)
        b11 = on_last(w, b10.conj().T)
        error = 0.0
    else:
        check_density_cap(2 * tau.dim * d_m, "controlled-DME state")
        # Partial swaps on |1><1|, w = (cos dt + i sin dt sigma)^{k_q} on |1><0|.
        dt = math.pi / k_q
        b11 = tau.matrix
        for _ in range(k_q):
            b11 = _partial_swap_step(b11, sigma, dt)
        w = np.linalg.matrix_power(math.cos(dt) * np.eye(d_m) + 1j * math.sin(dt) * sigma, k_q)
        b10 = on_last(w, tau.matrix)
        error = dme_error_bound(0.5, k_q)
    # Measure the control in the ± basis: outcome '-' is bit 1.
    one = 0.25 * (tau.matrix + b11 - b10 - b10.conj().T)
    zero = 0.25 * (tau.matrix + b11 + b10 + b10.conj().T)
    p_one = float(np.real(np.trace(one)))
    p_zero = float(np.real(np.trace(zero)))
    post_one = DensityOp(linalg.hermitize(one) / p_one, tau.dims) if p_one > 1e-12 else None
    post_zero = DensityOp(linalg.hermitize(zero) / p_zero, tau.dims) if p_zero > 1e-12 else None
    return ApproxMeasureResult(True, 0, p_one, None, post_one, post_zero, error)


# ---------------------------------------------------------------------------
# Verifier with an ideal state-synthesis oracle

@dataclass(frozen=True)
class OracleConfig:
    prep_error: float = 0.0
    mode: str = "ideal_reflection"


def qip_run(x: UhlmannInstance, m: int, prover: ProverStrategy,
            oracle: OracleConfig, seed) -> ProtocolResult:
    """The permutation-test verifier with oracle-prepared test copies and the
    approximate measurement replacing the D-basis check.

    The preparation oracle supplies the m test copies with trace-distance
    error ``prep_error`` (realized as a mix with an orthogonal junk state);
    verification projects the test block onto |D>^{⊗m} via the Hadamard-test
    measurement. With the ideal ``OracleConfig()`` this is ``szk_run``'s
    verifier. The output factor is that of the output given acceptance,
    returned whatever the coin.
    """
    psi, phi = x.states()
    rng = as_seed(seed).child("qip").generator()
    perm = rng.permutation(m + 1)
    p_one, factor = _PermutationTest(psi, phi, m, prover, oracle.prep_error)(perm)
    meas_error = (dme_error_bound(0.5, default_dme_copies(_DME_ERROR))
                  if oracle.mode == "dme" else 0.0)
    accepted = bool(rng.random() < p_one)
    transcript = [{
        "round": 1, "perm": [int(p) for p in perm],
        "p_accept_and_one": p_one, "prep_error": oracle.prep_error,
        "measurement_error_bound": meas_error, "accepted": accepted,
    }]
    return ProtocolResult(accepted, float(p_one), factor, transcript)
