import math
import tracemalloc

import numpy as np
import pytest

from conftest import dilated_channel, no_eigensolver, swap_matrix
from uhlmann_lab.errors import DimensionCapError, DimensionMismatch
from uhlmann_lab.qcore import (BipartiteState, ChannelDesc, DensityOp, GateCircuit,
                               SpectralState, complementary,
                               fidelity, linalg, maximally_entangled,
                               maximally_mixed, trace_distance, unitary_channel)
from uhlmann_lab.qcore.random_ops import haar_state_vector, haar_unitary, random_density
from uhlmann_lab.rng import Seed, child_seed, generator
from uhlmann_lab.shannon import (CompressionCodec, compress,
                                 decoder_from_uhlmann, decoupling_experiment,
                                 decoupling_fidelity, entropies, h2_conditional,
                                 haar_overlap, roundtrip, roundtrip_bound,
                                 smoothed_h_max, truncation_codec)


# ---------------------------------------------------------------------------
# Entropies

def test_entropy_pure_state():
    rep = entropies(DensityOp(np.diag([1.0, 0, 0, 0]).astype(complex), (4,)))
    assert abs(rep.h_min) < 1e-9 and abs(rep.h_max) < 1e-9


def test_entropy_maximally_mixed():
    rep = entropies(maximally_mixed((8,)))
    assert abs(rep.h_min - 3.0) < 1e-9
    assert abs(rep.h_max - 3.0) < 1e-9
    assert abs(rep.h2_lower - 3.0) < 1e-9


def test_entropy_frozen_closed_form():
    rep = entropies(DensityOp(np.diag([0.75, 0.25]).astype(complex), (2,)))
    assert abs(rep.h_min - 0.4150374992788438) < 1e-12
    assert abs(rep.h_max - 0.8999686269529916) < 1e-12


def test_entropy_sandwich():
    rng = generator(12)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        rank = int(rng.integers(1, d + 1))
        rho = DensityOp(random_density(d, rng, rank), (d,))
        rep = entropies(rho)
        log_rank = math.log2(rank)
        assert -log_rank - 1e-7 <= rep.h_min <= rep.h_max <= log_rank + 1e-7
        assert -math.log2(d) - 1e-9 <= rep.h_min <= math.log2(d) + 1e-9


def test_entropy_smoothing_direction():
    rho = DensityOp(np.diag([0.9, 0.06, 0.04]).astype(complex), (3,))
    plain = entropies(rho, 0.0)
    smoothed = entropies(rho, 0.05)
    assert smoothed.h_max_smoothed <= plain.h_max + 1e-12
    with pytest.raises(ValueError):
        entropies(rho, 1.0)


def test_entropy_conditional_h2():
    # Maximally entangled pair: H2(A|B) = -log dA at sigma = id/dA.
    phi = maximally_entangled(4)
    rep = entropies(DensityOp(phi.density().matrix, (4, 4)))
    assert abs(rep.h2_lower - (-2.0)) < 1e-9


@pytest.mark.parametrize("split", [(2, 3), (4, 8)])
def test_h2_conditional_matches_kron_formula(split):
    dA, dB = split
    rng = generator(40 + dA)
    for rank in (1, 3, dA * dB):
        rho = random_density(dA * dB, rng, rank)
        for sigma in (linalg.partial_trace_matrix(rho, [dA, dB], [1]),
                      random_density(dB, rng, max(1, dB - 1))):
            x = np.kron(np.eye(dA), linalg.psd_power(sigma, -0.5)) @ rho
            want = -math.log2(float(np.real(np.trace(x @ x))))
            assert abs(h2_conditional(rho, split, sigma) - want) < 1e-12


def _dense_entropies(m, dims, epsilon):
    """(h_min, h_max, h2_lower, h_max_smoothed) by the dense route: eigvalsh,
    Tr rho^2 as a matrix product, h2_conditional at sigma = rho_B."""
    vals = np.clip(np.linalg.eigvalsh(linalg.hermitize(m)), 0.0, None)
    if len(dims) >= 2:
        split = (dims[0], m.shape[0] // dims[0])
        h2 = h2_conditional(m, split, linalg.partial_trace_matrix(m, list(split), [1]))
    else:
        h2 = -math.log2(float(np.real(np.trace(m @ m))))
    return (-math.log2(vals.max()), 2.0 * math.log2(np.sqrt(vals).sum()), h2,
            smoothed_h_max(vals, epsilon))


def _assert_report(rep, want, epsilon):
    got = (rep.h_min, rep.h_max, rep.h2_lower, rep.h_max_smoothed)
    assert np.allclose(got, want, rtol=0, atol=1e-12), (got, want)
    assert rep.epsilon == epsilon


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
@pytest.mark.parametrize("dims", [(4,), (2, 2), (3, 4), (2, 3, 2)])
def test_diagonal_route_matches_dense_route(dims, epsilon, monkeypatch):
    rng = generator(70 + len(dims) + math.prod(dims))
    probs = rng.random(math.prod(dims)) ** 3
    m = np.diag(probs / probs.sum()).astype(complex)
    want = _dense_entropies(m, dims, epsilon)
    rho = SpectralState(probs / probs.sum(), dims)
    no_eigensolver(monkeypatch)
    _assert_report(entropies(rho, epsilon), want, epsilon)


@pytest.mark.parametrize("tiny", [0.0, 9e-13])
def test_diagonal_route_cuts_sigma_support_like_psd_power(tiny, monkeypatch):
    # (2, 4) registers: marginal s_3 = tiny lies below psd_power's 1e-12 cut,
    # s_1 carries one heavy entry, the others spread over both rows.
    p = np.array([[0.30, 0.05, 0.10, tiny],
                  [0.20, 0.00, 0.35, 0.0]])
    p[0, 0] -= tiny
    m = np.diag(p.reshape(-1)).astype(complex)
    want = _dense_entropies(m, (2, 4), 0.0)
    rho = SpectralState(p.reshape(-1), (2, 4))
    no_eigensolver(monkeypatch)
    _assert_report(entropies(rho), want, 0.0)


def test_one_off_diagonal_pair_takes_the_dense_route():
    dims = (2, 3, 2)
    d = math.prod(dims)
    probs = np.linspace(1.0, 2.0, d)
    m = np.diag(probs / probs.sum()).astype(complex)
    m[0, d - 1], m[d - 1, 0] = 0.02 + 0.01j, 0.02 - 0.01j
    rho = DensityOp(m, dims)
    _assert_report(entropies(rho, 0.05), _dense_entropies(m, dims, 0.05), 0.05)
    diag_only = entropies(DensityOp(np.diag(np.diag(m)), dims), 0.05)
    assert abs(diag_only.h_min - entropies(rho, 0.05).h_min) > 1e-3


# ---------------------------------------------------------------------------
# Decoupling condition and decoding

def kraus_apply(ch, rho, rest=1):
    """Reference (N ⊗ id_rest)(rho): the sum of (K ⊗ id) rho (K ⊗ id)^dag
    over the channel's Kraus operators."""
    ops = [np.kron(k, np.eye(rest)) for k in ch.kraus_operators()]
    return sum(op @ rho @ op.conj().T for op in ops)


def test_decoupling_identity_channel():
    assert abs(decoupling_fidelity(unitary_channel(np.eye(4))) - 1.0) < 1e-9


def test_decoupling_dephasing_hand_computed():
    from uhlmann_lab.qcore import GATES
    deph = dilated_channel(GATES["CNOT"], 2, 2, (2, 2))
    # Hand computation: N^c(Phi) is the classically correlated pair, the
    # product target is id/4; F = 1/2.
    assert abs(decoupling_fidelity(deph) - 0.5) < 1e-9


def test_decoupling_trace_channel():
    # Environment = input: F(Phi, id/4) = 1/4 <= 1/2.
    ch = dilated_channel(swap_matrix(2, 2), 2, 2, (2, 2))
    val = decoupling_fidelity(ch)
    assert abs(val - 0.25) < 1e-9
    assert val <= 0.5


def test_decoder_unitary_channel():
    ch = unitary_channel(haar_unitary(4, generator(3)))
    res = decoder_from_uhlmann(ch)
    assert res["fidelity"] > 1 - 1e-8
    assert decoder_from_uhlmann(unitary_channel(np.eye(2)))["fidelity"] > 1 - 1e-8


def test_decoder_isometric_encoding_vs_pseudoinverse_oracle():
    # 1 qubit -> 3 qubits isometric encoding; brute-force inversion oracle.
    u = haar_unitary(8, generator(4))
    ch = dilated_channel(u, 2, 4, (8, 1))
    res = decoder_from_uhlmann(ch)
    assert res["fidelity"] > 1 - 1e-8
    iso = ch.isometry
    pinv = np.linalg.pinv(iso)
    phi = maximally_entangled(2)
    sent = kraus_apply(ch, phi.density().matrix, rest=2)
    dec = np.kron(pinv, np.eye(2)) @ sent @ np.kron(pinv, np.eye(2)).conj().T
    oracle_fid = fidelity(dec / np.trace(dec).real, phi.density().matrix)
    assert abs(res["fidelity"] - oracle_fid) < 1e-8


def test_decoder_beats_decoupling_bound():
    for seed in range(50):
        u = haar_unitary(8, generator(child_seed(5, "ch", seed)))
        ch = dilated_channel(u, 2, 4, (4, 2))
        dec = decoupling_fidelity(ch)
        got = decoder_from_uhlmann(ch)["fidelity"]
        # decoupling error eps implies decodability with the same eps...
        assert got >= dec - 1e-9
        # ...and decodability 1-eps implies decoupling 1 - 2 sqrt(eps).
        assert dec >= 1 - 2 * math.sqrt(max(0.0, 1 - got)) - 1e-9


def test_decoder_holds_at_most_two_isometries():
    # The completion's dB input columns and their row reordering are each
    # the decoder isometry's size (dB dA^2 x dB), and the first is freed once
    # the second exists; ChannelDesc keeps the reordering without a copy, and
    # no square dilation is built.
    v, _ = np.linalg.qr(haar_state_vector(1024 * 2, generator(6)).reshape(1024, 2))
    ch = ChannelDesc(v, (512, 2))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        decoder = decoder_from_uhlmann(ch)["decoder"]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert decoder.isometry.shape == (2048, 512)
    assert peak <= 2.05 * decoder.isometry.nbytes


def reference_channels():
    """Haar, Clifford and radiation (r = 1 and r = n) channels, with
    anc_state != 0 and dA != dB among them."""
    from uhlmann_lab.physics import radiation_channel
    from uhlmann_lab.qcore.random_ops import random_clifford
    scrambler = random_clifford(4, Seed(17), columns=(0, 8))
    return {
        "haar": dilated_channel(haar_unitary(8, generator(60)), 2, 4, (4, 2), anc_state=3),
        "haar-qutrit": dilated_channel(haar_unitary(12, generator(61)), 3, 4, (2, 6),
                                       anc_state=1),
        "clifford": ChannelDesc(random_clifford(3, Seed(16), columns=(0, 4)), (4, 2)),
        "radiation-r1": radiation_channel(scrambler, 1),
        "radiation-rn": radiation_channel(scrambler, 4),
    }


@pytest.mark.parametrize("name", ["haar", "haar-qutrit", "clifford", "radiation-r1",
                                  "radiation-rn"])
def test_decoupling_and_decoder_match_kraus_sum_references(name):
    ch = reference_channels()[name]
    dA = ch.d_in
    phi = maximally_entangled(dA).amplitudes
    # Decoupling: F(N^c(Phi), N^c(id/dA) ⊗ id/dA) on dense Kraus sums.
    comp = complementary(ch)
    joint = kraus_apply(comp, np.outer(phi, phi.conj()), rest=dA)
    product = np.kron(kraus_apply(comp, np.eye(dA) / dA), np.eye(dA) / dA)
    assert abs(decoupling_fidelity(ch) - fidelity(joint, product)) < 1e-12
    # Decoder: <Phi|(D ∘ N ⊗ id)(Phi)|Phi> on dense Kraus sums.
    res = decoder_from_uhlmann(ch)
    out = kraus_apply(res["decoder"], kraus_apply(ch, np.outer(phi, phi.conj()), dA), dA)
    assert abs(res["fidelity"] - np.vdot(phi, out @ phi).real) < 1e-12


@pytest.mark.parametrize("codec", ["compress", "truncation"])
def test_haar_overlap_matches_kraus_sum_reference(codec):
    if codec == "compress":
        rho = DensityOp(random_density(8, generator(6), rank=2), (8,))
        built = compress(rho, 0.1, Seed(6), s=1)
        enc, dec = built.encoder, built.decoder
        assert built.y_star == 3  # the codec reads xi away from its first block
    else:
        enc, dec = truncation_codec(3, 1)
    res = haar_overlap(enc, dec, 20, Seed(8))
    rng = Seed(8).child("haar-overlap").generator()
    vals = []
    for _ in range(20):
        theta = haar_state_vector(8, rng)
        out = kraus_apply(dec, kraus_apply(enc, np.outer(theta, theta.conj())))
        vals.append(np.vdot(theta, out @ theta).real)
    assert abs(res["overlap_mean"] - np.mean(vals)) < 1e-12
    assert abs(res["stderr"] - np.std(vals, ddof=1) / np.sqrt(20)) < 1e-12


def test_decoder_isometry_is_capped_before_the_solve(monkeypatch):
    # The decoder isometry would hold dB dA^2 x dB = 2^26 entries > 4096^2,
    # while the instance holds 2^15 amplitudes.
    from uhlmann_lab import shannon
    ch = ChannelDesc(np.eye(4096, 2), (4096, 1))
    monkeypatch.setattr(shannon, "canonical_uhlmann", None)  # never reached
    with pytest.raises(DimensionCapError, match="decoder isometry dimension 67108864"):
        decoder_from_uhlmann(ch)


# ---------------------------------------------------------------------------
# Decoupling experiment

def test_decoupling_experiment_degenerate_keep_all():
    rho = DensityOp(np.kron(random_density(4, generator(7)),
                            np.diag([1.0, 0])).astype(complex), (4, 2))
    res = decoupling_experiment(rho, 2, 10, Seed(1))
    assert res["lhs_mean"] < 1e-10


def test_decoupling_experiment_unentangled_trend():
    # Unentangled states with a full-rank A marginal decouple better as dA
    # grows: the measured deviation falls toward 0 across n = 2, 3, 4.
    means = []
    for n in (2, 3, 4):
        rng = generator(child_seed(13, "trend", n))
        ra = random_density(2 ** n, rng)
        vb = haar_state_vector(2, rng)
        rho = DensityOp(np.kron(ra, np.outer(vb, vb.conj())), (2 ** n, 2))
        res = decoupling_experiment(rho, 0, 80, Seed(5))
        assert res["lhs_mean"] <= res["rhs_bound"] + 3 * res["stderr"] + 1e-9
        means.append(res["lhs_mean"])
    assert means[2] < means[1] < means[0]


def test_decoupling_experiment_inequality():
    configs = [
        (DensityOp(maximally_entangled(4).density().matrix, (4, 4)), 0),
        (DensityOp(maximally_entangled(4).density().matrix, (4, 4)), 1),
        (DensityOp(np.kron(np.eye(4) / 4,
                           np.outer([1, 0], [1, 0])).astype(complex), (4, 2)), 1),
    ]
    for rho, s in configs:
        res = decoupling_experiment(rho, s, 60, Seed(2))
        assert res["lhs_mean"] <= res["rhs_bound"] + 3 * res["stderr"] + 1e-9


# ---------------------------------------------------------------------------
# Compression

def test_compress_pure_source_exact():
    vec = haar_state_vector(8, generator(10))
    rho = DensityOp(np.outer(vec, vec.conj()), (8,))
    codec = compress(rho, 0.1, Seed(3))
    assert codec.s == 3  # rate formula clamps to n at desk scale
    assert roundtrip(codec, rho.purify()) < 1e-6


def test_compress_maximally_mixed_converse():
    mm = maximally_mixed((8,))
    good = compress(mm, 0.1, Seed(4), s=3)
    assert roundtrip(good, mm.purify()) < 1e-6
    bad = compress(mm, 0.1, Seed(4), s=1)
    assert roundtrip(bad, mm.purify()) >= 0.2


def test_compress_rank2_sources():
    for seed in range(5):
        rng = generator(child_seed(6, "rank2", seed))
        rho = DensityOp(random_density(8, rng, rank=2), (8,))
        codec = compress(rho, 0.1, Seed(seed))
        assert roundtrip(codec, rho.purify()) <= 0.1


def test_compress_works_for_any_purification():
    # The codec must serve every purification, not just the canonical one.
    mm = maximally_mixed((4,))
    codec = compress(mm, 0.1, Seed(8), s=2)
    base = mm.purify()
    u = haar_unitary(4, generator(9))
    other = BipartiteState((base.as_matrix() @ u.T).reshape(-1), base.split)
    assert roundtrip(codec, other) < 1e-6


def test_compress_rejects_bad_delta():
    with pytest.raises(ValueError):
        compress(maximally_mixed((4,)), 1.5, Seed(1))


def dense_roundtrip(codec, purification):
    """td((D ∘ E)(psi), psi) through the dense densities and Kraus sums."""
    rho, rest = purification.density().matrix, purification.dB
    out = kraus_apply(codec.decoder, kraus_apply(codec.encoder, rho, rest), rest)
    return trace_distance(out, rho)


def source(kind, n, seed):
    d = 2 ** n
    rng = generator(child_seed(31 + n, kind, seed))
    if kind == "mm":
        return maximally_mixed((d,))
    if kind == "pure":
        vec = haar_state_vector(d, rng)
        return DensityOp(np.outer(vec, vec.conj()), (d,))
    if kind == "rank2":
        return DensityOp(random_density(d, rng, rank=min(2, d)), (d,))
    probs = np.zeros(d)  # diag: half the basis states carry weight, half are zero
    probs[:max(1, d // 2)] = rng.random(max(1, d // 2)) + 0.1
    return DensityOp(np.diag(probs / probs.sum()).astype(complex), (d,))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["mm", "pure", "rank2", "diag"])
def test_roundtrip_matches_dense_reference(kind, n):
    for seed in (0, 1):
        rho = source(kind, n, seed)
        purification = rho.purify()
        for s in range(n + 1):
            codec = compress(rho, 0.1, Seed(seed), s=s)
            want = dense_roundtrip(codec, purification)
            assert abs(roundtrip(codec, purification) - want) < 1e-12


@pytest.mark.parametrize("s", [1, 3])
def test_roundtrip_of_truncation_codec_matches_dense_reference(s):
    enc, dec = truncation_codec(3, s)
    codec = CompressionCodec(enc, dec, s, 3, 0, Seed(0))
    for kind in ("mm", "rank2", "diag"):
        purification = source(kind, 3, 0).purify()
        want = dense_roundtrip(codec, purification)
        assert abs(roundtrip(codec, purification) - want) < 1e-12
    if s == 3:
        assert want < 1e-12
    with pytest.raises(DimensionMismatch):
        roundtrip(codec, source("mm", 2, 0).purify())


def test_roundtrip_of_rotated_purification_matches_dense_reference():
    rho = source("rank2", 3, 2)
    base = rho.purify()
    u = haar_unitary(8, generator(19))
    other = BipartiteState((base.as_matrix() @ u.T).reshape(-1), base.split)
    for s in range(4):
        codec = compress(rho, 0.1, Seed(5), s=s)
        want = dense_roundtrip(codec, other)
        assert abs(roundtrip(codec, other) - want) < 1e-12
        assert abs(roundtrip(codec, base) - want) < 1e-12


def test_roundtrip_builds_no_density(monkeypatch):
    import uhlmann_lab.qcore.metrics as metrics

    def unreachable(*args, **kwargs):
        raise AssertionError("dense path taken")

    mm5 = maximally_mixed((32,))
    purification = mm5.purify()
    codecs = {s: compress(mm5, 0.1, Seed(2), s=s) for s in (5, 3)}
    monkeypatch.setattr(metrics, "trace_distance", unreachable)
    monkeypatch.setattr(DensityOp, "__post_init__", unreachable)
    shapes = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or real(m))
    assert roundtrip(codecs[5], purification) < 1e-12
    assert max(shapes) == (2, 2)
    shapes.clear()
    # s = 3: the output factor has rank <= d_e^3 = 64, so the core is 65 x 65.
    assert roundtrip(codecs[3], purification) > 0.5
    assert max(shapes) == (65, 65)


# ---------------------------------------------------------------------------
# Sources held as spectra

GHZ3 = GateCircuit(3, (("H", (0,)), ("CNOT", (0, 1)), ("CNOT", (1, 2))))


def spectral_and_dense(kind):
    """A CLI source as a SpectralState and as the dense DensityOp the same
    state makes, on the same registers."""
    if kind == "mm":
        return SpectralState(np.full(8, 0.125), (2, 2, 2)), maximally_mixed((2, 2, 2))
    if kind == "diag":
        probs = np.array([0.7, 0.1, 0.1, 0.1, 0, 0, 0, 0])
        return SpectralState(probs, (8,)), DensityOp(np.diag(probs), (8,))
    vec = haar_state_vector(8, generator(12)) if kind == "haar" else GHZ3.state()
    return SpectralState.pure(vec), DensityOp(np.outer(vec, vec.conj()), (8,))


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
@pytest.mark.parametrize("kind", ["mm", "diag", "haar", "circuit"])
def test_spectral_entropies_match_the_dense_route(kind, epsilon, monkeypatch):
    state, dense = spectral_and_dense(kind)
    want = _dense_entropies(dense.matrix, dense.dims, epsilon)
    no_eigensolver(monkeypatch)
    got = entropies(state, epsilon)
    assert np.allclose((got.h_min, got.h2_lower), (want[0], want[2]), rtol=0, atol=1e-12)
    if state.is_diagonal:
        assert np.allclose((got.h_max, got.h_max_smoothed), (want[1], want[3]),
                           rtol=0, atol=1e-12)
    else:
        # A pure source: exactly 0, where sqrt lifts the dense eigensolver's
        # ~1e-17 on the zero eigenvalues to ~1e-8.
        assert abs(got.h_max) <= 1e-15 and abs(got.h_max_smoothed) <= 1e-15
        assert abs(want[1]) < 1e-6 and abs(want[3]) < 1e-6


@pytest.mark.parametrize("kind", ["mm", "diag", "haar", "circuit"])
def test_spectral_source_compresses_like_the_dense_source(kind):
    state, dense = spectral_and_dense(kind)
    source = GHZ3 if kind == "circuit" else state  # a circuit is taken as its pure output
    ours, theirs = state.purify(), dense.purify()
    for s in range(4):
        codec = compress(source, 0.1, Seed(3), s=s)
        reference = compress(dense, 0.1, Seed(3), s=s)
        assert codec.s == reference.s == s
        td, want = roundtrip(codec, ours), roundtrip(reference, theirs)
        if state.is_diagonal:
            assert abs(td - want) < 1e-12
        else:
            # A pure source round-trips exactly at every rate. The dense
            # purification carries ~1e-9 columns from the eigensolver's zero
            # eigenvalues, which move its td by up to ~1.5e-8.
            assert td < 1e-14 and want < 1e-7
        assert abs(roundtrip_bound(source, s, 0.1) - roundtrip_bound(dense, s, 0.1)) < 1e-12
    assert compress(source, 0.1, Seed(3)).s == compress(dense, 0.1, Seed(3)).s


# ---------------------------------------------------------------------------
# Haar incompressibility

def test_haar_overlap_identity_codec_tight():
    enc, dec = truncation_codec(3, 3)
    res = haar_overlap(enc, dec, 100, Seed(5))
    assert abs(res["overlap_mean"] - 1.0) < 1e-9
    assert res["bound"] == 1.0


def test_haar_overlap_bounded_by_rate_ratio():
    for s in (0, 1, 2):
        enc, dec = truncation_codec(3, s)
        res = haar_overlap(enc, dec, 400, Seed(6))
        assert res["overlap_mean"] <= res["bound"] + 3 * res["stderr"] + 1e-9
