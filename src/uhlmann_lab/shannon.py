"""Channel decodability, decoupling, one-shot entropies, and compression.

The decoder and compression codecs are built from canonical Uhlmann
transformations between explicitly constructed purifications, exactly
mirroring the existence proofs they come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, check_density_cap, check_matrix_cap, check_pure_cap
from .qcore import linalg
from .qcore.channels import ChannelDesc, complementary, push_factor
from .qcore.gates import GateCircuit
from .qcore.metrics import factor_fidelity, factor_trace_distance, reduce_factor
from .qcore.random_ops import haar_state_vector, random_clifford
from .qcore.states import (BipartiteState, DensityOp, SpectralState, maximally_entangled,
                           partial_trace)
from .rng import Seed, as_seed
from .uhlmann import UhlmannInstance, canonical_uhlmann


# ---------------------------------------------------------------------------
# One-shot entropies

@dataclass(frozen=True)
class EntropyReport:
    h_min: float
    h_max: float
    h2_lower: float
    h_max_smoothed: float
    epsilon: float


def entropies(rho, epsilon: float = 0.0) -> EntropyReport:
    """Unconditional min/max entropies plus a particular-sigma Renyi-2 value.

    For two-register inputs the Renyi-2 entry conditions the first register
    on the second, evaluated at sigma = rho_B (a lower bound on H_2(A|B)).
    The smoothed max-entropy drops the smallest-eigenvalue tail of mass at
    most epsilon and renormalizes, which upper-bounds the true smoothed
    value.

    ``rho`` is a DensityOp or a SpectralState; the latter is read through its
    spectrum alone. A diagonal SpectralState rho = diag(p) costs O(D): its
    spectrum is p, and with s_b = sum_a p_ab the Renyi-2 term is
    -log2 sum_ab p_ab^2 / s_b over the b that ``psd_power`` keeps in the
    support of sigma = diag(s).
    """
    if not (0.0 <= epsilon < 1.0):
        raise ValueError("epsilon must lie in [0, 1)")
    vals = np.clip(rho.eigenvalues(), 0.0, None)
    h_min = -math.log2(vals.max())
    h_max = 2.0 * math.log2(np.sqrt(vals).sum())
    if len(rho.dims) < 2:
        h2 = -math.log2(float(np.sum(vals ** 2)))
    elif isinstance(rho, SpectralState) and rho.is_diagonal:
        p = rho.diagonal().reshape(rho.dims[0], -1)
        s = p.sum(0)
        keep = s > 1e-12 * max(s.max(), 1.0)
        h2 = -math.log2(max(float(np.sum(p[:, keep] ** 2 / s[keep])), 1e-300))
    else:
        sigma = partial_trace(rho, list(range(1, len(rho.dims)))).matrix
        h2 = h2_conditional(rho.matrix, (rho.dims[0], rho.dim // rho.dims[0]), sigma)
    h_max_smoothed = smoothed_h_max(vals, epsilon)
    # + 0.0 reports a pure state's -log2(1) = -0.0 as 0.0; no other value moves.
    return EntropyReport(*(float(h) + 0.0 for h in (h_min, h_max, h2, h_max_smoothed)),
                         float(epsilon))


def smoothed_h_max(eigenvalues: np.ndarray, epsilon: float) -> float:
    """Max-entropy after truncating the smallest-eigenvalue tail of mass <= epsilon."""
    vals = np.sort(np.clip(eigenvalues, 0.0, None))
    cum = np.cumsum(vals)
    keep = vals[cum > epsilon] if epsilon > 0 else vals
    keep = keep / keep.sum()
    return 2.0 * math.log2(np.sqrt(keep).sum())


def h2_conditional(mat: np.ndarray, split, sigma: np.ndarray) -> float:
    """H_2(A|B) evaluated at a particular sigma: -log2 Tr[((id ⊗ sigma)^{-1/2} rho)^2].

    Support-restricted inverse; a lower bound on the optimized H_2.
    """
    dA, dB = split
    inv_root = linalg.psd_power(sigma, -0.5)
    # (id ⊗ sigma^{-1/2}) rho: sigma^{-1/2} on the B axis of rho's rows.
    x = np.matmul(inv_root, mat.reshape(dA, dB, -1)).reshape(mat.shape)
    val = float(np.real(np.sum(x * x.T)))
    return -math.log2(max(val, 1e-300))


# ---------------------------------------------------------------------------
# Decoupling and decoding

def decoupling_fidelity(ch: ChannelDesc) -> float:
    """F(N^c(Phi_AR), N^c(id/dA) ⊗ id/dR) via the complementary channel, in
    Uhlmann form: Phi_AR has the one-column factor |Phi> and id/d the factor
    id/sqrt(d), so both sides are pushed through N^c as factors."""
    comp = complementary(ch)
    dA = ch.d_in
    root = np.eye(dA) / np.sqrt(dA)
    joint = push_factor(comp, maximally_entangled(dA).amplitudes.reshape(-1, 1),
                        after=dA)  # registers (env, R)
    marg = push_factor(comp, root)
    check_pure_cap(marg.size * dA * dA, "decoupling product factor")
    return factor_fidelity(joint, np.kron(marg, root))


def check_decoding_caps(d_in: int, d_out: int, d_env: int) -> None:
    """The caps that ``decoupling_fidelity`` and then ``decoder_from_uhlmann``
    apply to a channel with these dimensions, checked from the dimensions
    alone, so a caller can refuse a size before it builds the channel."""
    # The decoupling product factor (d_env x d_out d_in) ⊗ (d_in x d_in) and
    # the decoder instance's vector hold the same d_in^3 d_out d_env entries.
    check_pure_cap(d_in ** 3 * d_out * d_env, "decoupling product factor")
    check_matrix_cap(d_out * d_in * d_in * d_out, "decoder isometry")


def _decoder_instance(ch: ChannelDesc):
    """The Uhlmann instance of the purification pair (|E>, |F>), split as
    ((C, R) | (B, A', R'))."""
    dA, dB, dC = ch.d_in, ch.d_out, ch.d_env
    check_pure_cap(dC * dA * dB * dA * dA, "decoder instance")
    check_matrix_cap(dB * dA * dA * dB, "decoder isometry")
    iso = ch.isometry  # columns indexed by A: |a> -> (B, C)
    # |E> on (R, B, C, A', R'): V on the A half of Phi_RA, ancillas |0>.
    e = np.zeros((dA, dB * dC, dA, dA), dtype=complex)  # (R, BC, A', R')
    for r in range(dA):
        e[r, :, 0, 0] = iso[:, r] / np.sqrt(dA)
    e = linalg.permute_rows(e.reshape(-1), [dA, dB, dC, dA, dA], [2, 0, 1, 3, 4])
    # |F> = Phi_{R A'} ⊗ V|Phi_{A R'}> on (R, A', B, C, R').
    f = np.zeros((dA, dA, dB * dC, dA), dtype=complex)  # (R, A', BC, R')
    for r in range(dA):
        for rp in range(dA):
            f[r, r, :, rp] = iso[:, rp] / dA
    f = linalg.permute_rows(f.reshape(-1), [dA, dA, dB, dC, dA], [3, 0, 2, 1, 4])
    split = (dC * dA, dB * dA * dA)
    return UhlmannInstance(raw_pair=(BipartiteState(e, split), BipartiteState(f, split)))


def decoder_from_uhlmann(ch: ChannelDesc) -> dict:
    """Decoder channel for a decodable channel, via the canonical Uhlmann
    unitary between the two standard purifications; reports the achieved
    fidelity F((D ∘ N)(Phi_AR), Phi_A'R)."""
    dA, dB = ch.d_in, ch.d_out
    # Decoder: input B; append |0>_{A'R'}; apply the completion on (B, A', R');
    # keep A'. Its isometry is the completion's columns |b, 0, 0>, taken in
    # factored form, with the rows reordered to (A', B, R'). The columns are
    # not bound to a name, so they are freed once reordered.
    w = canonical_uhlmann(_decoder_instance(ch), 0.0)
    decoder = ChannelDesc(linalg.permute_rows(w.completion(np.arange(dB) * dA * dA),
                                              [dB, dA, dA], [1, 0, 2]),
                          (dA, dB * dA))
    target = maximally_entangled(dA).amplitudes.reshape(-1, 1)
    out = push_factor(decoder, push_factor(ch, target, after=dA), after=dA)
    # The target is pure, so F = <Phi|L L^dag|Phi> = ||Phi^dag L||^2.
    return {"decoder": decoder, "fidelity": factor_fidelity(target, out)}


def decoupling_experiment(rho: DensityOp, s: int, samples: int, seed) -> dict:
    """Sampled-Clifford decoupling: measure the first n-s qubits of A.

    lhs_mean is the sampled average of ||(T ∘ U)(rho_AB) - omega_E ⊗ rho_B||_1;
    rhs_bound is the relaxed particular-sigma Renyi-2 bound
    2^{-(s + h2(A|B))/2}.
    """
    dA = rho.dims[0]
    n = int(round(math.log2(dA)))
    if 2 ** n != dA:
        raise DimensionMismatch("register A must be a qubit register")
    if not (0 <= s <= n):
        raise ValueError(f"s must lie in 0..{n}")
    dB = rho.dim // dA
    rho_b = linalg.partial_trace_matrix(rho.matrix, [dA, dB], [1])
    h2_ab = h2_conditional(rho.matrix, (dA, dB), rho_b)
    rhs = 2.0 ** (-0.5 * s - 0.5 * h2_ab)
    d_e = 2 ** (n - s)
    target = np.kron(np.eye(d_e) / d_e, rho_b)
    seed = as_seed(seed)
    vals = []
    for trial in range(samples):
        u = random_clifford(n, seed.child("decouple", trial))
        conj = linalg.apply_matrix_to_registers_dm(rho.matrix, [dA, dB], u, [0])
        # T: measure first n-s qubits of A, trace the remaining s.
        blocks = conj.reshape(d_e, 2 ** s, dB, d_e, 2 ** s, dB)
        out = np.zeros((d_e, dB, d_e, dB), dtype=complex)
        for y in range(d_e):
            out[y, :, y, :] = np.trace(blocks[y, :, :, y, :, :], axis1=0, axis2=2)
        out = out.reshape(d_e * dB, d_e * dB)
        diff = np.linalg.eigvalsh(linalg.hermitize(out - target))
        vals.append(float(np.abs(diff).sum()))
    vals = np.array(vals)
    sem = float(vals.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return {"lhs_mean": float(vals.mean()), "rhs_bound": float(rhs),
            "stderr": sem, "h2_ab": float(h2_ab), "samples": samples}


# ---------------------------------------------------------------------------
# One-shot compression

@dataclass(frozen=True)
class CompressionCodec:
    encoder: ChannelDesc
    decoder: ChannelDesc
    s: int
    n: int
    y_star: int
    clifford_seed: Seed


def _source_state(source):
    """A DensityOp or SpectralState as given; a GateCircuit as its pure output."""
    if isinstance(source, (DensityOp, SpectralState)):
        return source
    if isinstance(source, GateCircuit):
        return SpectralState.pure(source.state())
    raise DimensionMismatch("source must be a DensityOp, SpectralState or GateCircuit")


def compress(source, delta: float, seed, s: Optional[int] = None) -> CompressionCodec:
    """Build the one-shot codec: a sampled Clifford, the best measurement
    branch y*, and encoder/decoder from the Uhlmann completions between the
    two purifications of the decoupling output.

    The default rate is s = ceil(h_max_smoothed + 8 log2(4/delta)) clamped to
    [0, n] (the smoothing is (delta/40)^4); pass ``s`` to override.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    rho = _source_state(source)
    n = int(round(math.log2(rho.dim)))
    if 2 ** n != rho.dim:
        raise DimensionMismatch("source must be a qubit state")
    seed = as_seed(seed)
    if s is None:
        h = smoothed_h_max(rho.eigenvalues(), (delta / 40.0) ** 4)
        # Clamped before the ceiling: a subnormal delta makes the rate infinite.
        s = max(0, math.ceil(min(h + 8 * math.log2(4.0 / delta), n)))
    if not (0 <= s <= n):
        raise ValueError(f"s must lie in 0..{n}")
    d, d_c, d_e = 2 ** n, 2 ** s, 2 ** (n - s)
    purif = rho.purify()           # (A, R) with dR = d
    d_r = purif.dB
    check_pure_cap(d_e * d_e * d * d_r, "compression instance")
    u = random_clifford(n, seed.child("compress-clifford")) if n > 0 else np.eye(1)

    # |F> = |Phi_{E E'}> ⊗ |rho_{A R}> on (E, E', A, R).
    phi_ee = maximally_entangled(d_e).amplitudes if d_e > 1 else np.array([1.0 + 0j])
    f_vec = np.kron(phi_ee, purif.amplitudes)
    # |G> = sum_y |y>_E (Pi_y U ⊗ id)|rho> ⊗ |0>_{F0} on (E, [E'=y, C], R, F0).
    rotated = (u @ purif.as_matrix()).reshape(d_e, d_c, d_r)
    g = np.zeros((d_e, d_e, d_c, d_r, d_e), dtype=complex)
    for y in range(d_e):
        g[y, y, :, :, 0] = rotated[y]
    g_vec = g.reshape(-1)
    # Bipartite split: untouched (E, R) first, acted (E', A≅(E'path)) second.
    # F on (E, E', A, R) -> (E, R | E', A); G on (E, E', C, R, F0) -> (E, R | E', C, F0).
    f_vec = linalg.permute_rows(f_vec, [d_e, d_e, d, d_r], [0, 3, 1, 2])
    g_vec = linalg.permute_rows(g_vec, [d_e, d_e, d_c, d_r, d_e], [0, 3, 1, 2, 4])
    split = (d_e * d_r, d_e * d)
    x = UhlmannInstance(raw_pair=(BipartiteState(f_vec, split),
                                  BipartiteState(g_vec, split)))
    xi = canonical_uhlmann(x, 0.0).completion()  # on (E', A) -> (E', C, F0)

    alphas = np.linalg.norm(rotated.reshape(d_e, -1), axis=1) ** 2
    y_star = int(np.argmax(alphas))

    # xi is built whole: the encoder reads its columns and the decoder its
    # rows. Encoder: input A with E' = |y*>, the columns |y*, a> of xi; its
    # outputs (E', C, F0) are reordered to put the s-qubit register first.
    encoder = ChannelDesc(linalg.permute_rows(xi[:, y_star * d:(y_star + 1) * d],
                                              [d_e, d_c, d_e], [1, 0, 2]),
                          (d_c, d_e * d_e))
    # Decoder: input C with (E' = |y*>, F0 = |0>), the columns |y*, c, 0> of
    # xi^dag, which maps (E', C, F0) back to (E', A); output order (A | E').
    rows = slice(y_star * d_c * d_e, (y_star + 1) * d_c * d_e, d_e)
    decoder = ChannelDesc(linalg.permute_rows(xi[rows].conj().T, [d_e, d], [1, 0]),
                          (d, d_e))
    return CompressionCodec(encoder, decoder, s, n, y_star, seed)


def roundtrip_bound(source, s: int, delta: float) -> float:
    """The codec contract max(delta, 20 nu^{1/4}) with nu from the decoupling
    bound 2^{-(s - h_max_smoothed)/2} + 8 eps, capped at 1."""
    eps = (delta / 40.0) ** 4
    h = smoothed_h_max(_source_state(source).eigenvalues(), eps)
    nu = 2.0 ** (-0.5 * (s - h)) + 8 * eps
    return float(min(1.0, max(delta, 20.0 * nu ** 0.25)))


def roundtrip(codec: CompressionCodec, purification: BipartiteState) -> float:
    """td((D ∘ E)(psi), psi) for a supplied purification of the source.

    The output is kept as a factor L with rank <= the traced environment,
    and td(L L^dag, psi psi^dag) is taken inside span[L, psi].
    """
    check_density_cap(purification.dA * purification.dB, "roundtrip state")
    psi = purification.amplitudes.reshape(-1, 1)
    rest = purification.dB
    push = lambda ch, factor: push_factor(ch, factor, after=rest, what="roundtrip factor")
    # The encoder's output is narrowed before the decoder multiplies its width.
    return factor_trace_distance(push(codec.decoder, reduce_factor(push(codec.encoder, psi))),
                                 psi)


def haar_overlap(encoder: ChannelDesc, decoder: ChannelDesc, samples: int, seed) -> dict:
    """Monte-Carlo E_theta Tr((D ∘ E)(theta) theta) over Haar input states."""
    d = encoder.d_in
    rng = as_seed(seed).child("haar-overlap").generator()
    vals = np.empty(samples)
    for i in range(samples):
        theta = haar_state_vector(d, rng).reshape(-1, 1)
        vals[i] = factor_fidelity(theta, push_factor(decoder, push_factor(encoder, theta)))
    r_over_m = decoder.d_in / d
    sem = float(vals.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return {"overlap_mean": float(vals.mean()), "bound": float(r_over_m),
            "stderr": sem, "samples": samples}


def truncation_codec(m: int, s: int) -> tuple:
    """Hand-built codec: keep the first s qubits, pad with |0> on decode."""
    if not (0 <= s <= m):
        raise ValueError("need 0 <= s <= m")
    d, dc = 2 ** m, 2 ** s
    enc = ChannelDesc(np.eye(d, dtype=complex), (dc, d // dc))
    dec = ChannelDesc(np.kron(np.eye(dc), np.eye(d // dc, 1)), (d, 1))  # |c> -> |c, 0>
    return enc, dec
