"""Acceptance suite: every top-level criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (bypassing pytest capture) and then
asserts, so `pytest tests/test_acceptance.py` shows the full scoreboard.
"""

import math
import sys
import time

import numpy as np

from conftest import dilated_channel
from uhlmann_lab.crypto import (CommitmentScheme, evaluate, flavor_switch, random_scheme,
                                tensor_amplify)
from uhlmann_lab.physics import (OrthPair, controlled_swap_from_uhlmann,
                                 distinguisher_to_swap, householder_swap,
                                 interference_detect, swap_to_distinguisher)
from uhlmann_lab.protocols import (AmplifierConfig, ProverStrategy,
                                   amplify_run, dme, dme_exact_unitary, engineered_solver,
                                   szk_conditional_output, szk_run, szk_simulator_distance)
from uhlmann_lab.qcore import (BipartiteState, DensityOp, GateCircuit,
                               fidelity, linalg, maximally_entangled, maximally_mixed,
                               random_circuit, trace_distance, unitary_channel)
from uhlmann_lab.qcore.random_ops import (haar_state_vector, haar_unitary,
                                          random_clifford, random_density)
from uhlmann_lab.rng import Seed, child_seed, generator
from uhlmann_lab.shannon import (compress, decoder_from_uhlmann, decoupling_experiment,
                                 decoupling_fidelity, haar_overlap, roundtrip,
                                 truncation_codec)
from uhlmann_lab.uhlmann import (UhlmannInstance, apply_uhlmann, canonical_uhlmann,
                                 circuit_instance, instance_with_fidelity, overlap_instance,
                                 qutrit_example, random_raw_instance, validate_instance)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    import conftest
    line = f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_uhlmann_equality():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        rng = generator(child_seed(101, "dims", trial))
        dA = int(rng.integers(2, 9))
        dB = int(rng.integers(2, 9))
        x = random_raw_instance(dA, dB, child_seed(101, "inst", trial))
        psi, phi = x.states()
        w = canonical_uhlmann(x, 0.0)
        lhs = abs(np.vdot(phi.amplitudes,
                          (psi.as_matrix() @ w.matrix.T).reshape(-1))) ** 2
        rhs = fidelity(psi.reduced_a(), phi.reduced_a())
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    report(1, "uhlmann equality over 200 instances",
           worst <= 1e-8 and elapsed < 10.0,
           f"worst dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_qutrit_example():
    psi, tilde, phi = qutrit_example(0.01)
    w = canonical_uhlmann(UhlmannInstance(raw_pair=(psi, phi)), 0.0).matrix
    wt = canonical_uhlmann(UhlmannInstance(raw_pair=(tilde, phi)), 0.0).matrix
    want_wt = np.zeros((3, 3))
    want_wt[0, 0] = want_wt[1, 2] = want_wt[2, 1] = 1.0
    ok = (np.linalg.norm(w - np.eye(3), ord=np.inf) <= 1e-9
          and np.linalg.norm(wt - want_wt, ord=np.inf) <= 1e-9
          and np.linalg.norm(w - wt, ord=2) >= 2.0 - 1e-9)
    report(2, "two-qutrit instability pair reproduced exactly", ok,
           f"|W - Wt|_inf = {np.linalg.norm(w - wt, ord=2):.3f}")


def test_criterion_03_szk_statistics():
    runs = 500
    mu, m = 0.01, 4
    x = instance_with_fidelity(1 - mu, 2, 2, 303)
    honest = ProverStrategy.honest(x, m)
    accepts = sum(szk_run(x, m, honest, child_seed(303, "h", t)).accepted
                  for t in range(runs))
    p_honest = (1 - mu) ** m
    sig_h = math.sqrt(p_honest * (1 - p_honest) / runs)
    ok_honest = accepts / runs >= p_honest - 3 * sig_h

    x2 = overlap_instance(0.99, 0.95, 304)
    psi2, phi2 = x2.states()
    p_id = abs(psi2.overlap(phi2)) ** (2 * m)
    ident = ProverStrategy.identity(m)
    accepts_id = sum(szk_run(x2, m, ident, child_seed(304, "i", t)).accepted
                     for t in range(runs))
    sig_i = math.sqrt(p_id * (1 - p_id) / runs)
    ok_id = abs(accepts_id / runs - p_id) <= 3 * sig_i

    sim = szk_simulator_distance(x, 3)
    ok_sim = sim <= math.sqrt(4 * mu) + 1e-9
    report(3, "permutation-test statistics over 500 runs",
           ok_honest and ok_id and ok_sim,
           f"honest {accepts / runs:.3f} vs {p_honest:.3f}, "
           f"identity {accepts_id / runs:.3f} vs {p_id:.3f}, sim {sim:.3f}")


def test_criterion_04_soundness_envelope():
    x = overlap_instance(0.999, 0.97, 404)
    psi, _ = x.states()
    mu = 1 - validate_instance(x)["kappa"]
    target = apply_uhlmann(x, 0.0, psi).density()
    ok, tested, detail = True, 0, []
    for m in (4, 8, 16):
        for prover in (ProverStrategy.identity(m),
                       ProverStrategy.partial_honest(x, m, (m + 1) // 2)):
            acc, cond = szk_conditional_output(x, m, prover)
            if acc < 0.5:
                continue
            tested += 1
            envelope = math.sqrt(4.0 / (m + 1)) + 5 * math.sqrt(mu) + 0.05
            dist = trace_distance(cond, target)
            detail.append(f"m={m} {prover.label}: {dist:.3f}<={envelope:.3f}")
            ok = ok and dist <= envelope
    report(4, "soundness envelope for cheating provers",
           ok and tested >= 6, "; ".join(detail[:3]) + f"; {tested} configs")


def test_criterion_05_amplification():
    start = time.perf_counter()
    epr = GateCircuit(2, (("H", (0,)), ("CNOT", (0, 1))))
    x = circuit_instance(1, epr, epr)
    ok = True
    lines = []
    for nu in (0.4, 0.6, 0.8):
        for k in (2, 4):
            for t_rounds in (2, 5):
                solver, nu_actual = engineered_solver(x, k, nu)
                cfg = AmplifierConfig(k, t_rounds, Seed(child_seed(505, "amp",
                                                                   int(nu * 10) + k + t_rounds)))
                res = amplify_run(x, solver, cfg, 200)
                passed = res["empirical_fidelity"] >= \
                    res["bound"] - 3 * res["stderr"] - 1e-12
                ok = ok and passed and abs(nu_actual - nu) < 1e-9
                lines.append(f"nu={nu} k={k} T={t_rounds}: "
                             f"{res['empirical_fidelity']:.3f}>={res['bound']:.3f}")
    elapsed = time.perf_counter() - start
    report(5, "hardness amplification sweep", ok and elapsed < 300.0,
           f"12 configs, {elapsed:.1f}s")


def test_criterion_06_dme_scaling():
    haar_target = haar_state_vector(2, generator(61))
    instances = [
        (DensityOp(np.full((2, 2), 0.5, dtype=complex), (2,)),
         DensityOp(np.diag([1.0, 0]).astype(complex), (2,)), 0.5),
        (DensityOp(np.outer(haar_target, haar_target.conj()), (2,)),
         DensityOp(random_density(2, generator(62)), (2,)), 0.5),
        (DensityOp(random_density(3, generator(63), rank=1), (3,)),
         DensityOp(random_density(3, generator(64)), (3,)), 0.4),
    ]
    ks = [8, 16, 32, 64, 128]
    ok = True
    slopes = []
    for target, program, t in instances:
        w = dme_exact_unitary(program, t)
        exact = DensityOp(w @ target.matrix @ w.conj().T, target.dims)
        errs = [trace_distance(dme(target, program, t, k), exact) for k in ks]
        slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
        slopes.append(slope)
        ok = ok and -1.25 <= slope <= -0.75
    report(6, "DME error scales like 1/k", ok,
           "slopes " + ", ".join(f"{s:.2f}" for s in slopes))


def test_criterion_07_decoupling_inequality():
    configs = []
    for n in (2, 3):
        phi = maximally_entangled(2 ** n)
        ent = DensityOp(phi.density().matrix, (2 ** n, 2 ** n))
        for s in range(n + 1):
            configs.append((ent, s))
    for n in (2, 3, 4):
        mixed = DensityOp(np.kron(np.eye(2 ** n) / 2 ** n,
                                  np.diag([1.0, 0])).astype(complex), (2 ** n, 2))
        for s in (0, 1):
            configs.append((mixed, s))
    rng = generator(701)
    for n in (2, 3):
        vec = haar_state_vector(2 ** (n + 1), rng)
        pure = DensityOp(np.outer(vec, vec.conj()), (2 ** n, 2))
        for s in (0, 1):
            configs.append((pure, s))
    for n in (2, 3, 4):
        joint = DensityOp(random_density(2 ** (n + 1), rng), (2 ** n, 2))
        configs.append((joint, 1))
    assert len(configs) == 20
    ok = True
    worst = -1.0
    for idx, (rho, s) in enumerate(configs):
        res = decoupling_experiment(rho, s, 100, Seed(child_seed(707, "cfg", idx)))
        margin = res["lhs_mean"] - (res["rhs_bound"] + 3 * res["stderr"])
        worst = max(worst, margin)
        ok = ok and margin <= 1e-9
    report(7, "decoupling inequality on 20 configs", ok,
           f"worst margin {worst:.2e}")


def test_criterion_08_compression():
    vec = haar_state_vector(8, generator(801))
    pure = DensityOp(np.outer(vec, vec.conj()), (8,))
    codec = compress(pure, 0.1, Seed(801))
    ok_pure = roundtrip(codec, pure.purify()) <= 1e-6

    ok_mixed = True
    for m in (3, 4):
        mm = maximally_mixed((2 ** m,))
        good = compress(mm, 0.1, Seed(802), s=m)
        bad = compress(mm, 0.1, Seed(802), s=m - 2)
        ok_mixed = ok_mixed and roundtrip(good, mm.purify()) <= 1e-6
        ok_mixed = ok_mixed and roundtrip(bad, mm.purify()) >= 0.2

    ok_rank2, worst = True, 0.0
    for seed in range(20):
        rng = generator(child_seed(803, "rank2", seed))
        rho = DensityOp(random_density(8, rng, rank=2), (8,))
        codec = compress(rho, 0.1, Seed(child_seed(803, "codec", seed)))
        td = roundtrip(codec, rho.purify())
        worst = max(worst, td)
        ok_rank2 = ok_rank2 and td <= 0.1
    report(8, "one-shot compression achievability and converse",
           ok_pure and ok_mixed and ok_rank2,
           f"rank-2 worst td {worst:.2e}")


def test_criterion_09_haar_incompressibility():
    ok = True
    lines = []
    for s in (0, 1, 2):
        enc, dec = truncation_codec(3, s)
        res = haar_overlap(enc, dec, 1000, Seed(child_seed(909, "haar", s)))
        passed = res["overlap_mean"] <= res["bound"] + 3 * res["stderr"]
        ok = ok and passed
        lines.append(f"s={s}: {res['overlap_mean']:.3f}<={res['bound']:.3f}"
                     f"+{3 * res['stderr']:.3f}")
    report(9, "Haar mean overlap bounded by R/M", ok, "; ".join(lines))


def test_criterion_10_commitments():
    worst_mlc = 1.0
    for seed in range(500):
        scheme = random_scheme(2, 2, 20, child_seed(1010, "mlc", seed))
        rep = evaluate(scheme)
        worst_mlc = min(worst_mlc,
                        rep.hiding_stat - (1 - math.sqrt(rep.binding_opt)))
    ok_mlc = worst_mlc >= -1e-9

    worst_flavor = -1.0
    for seed in range(200):
        scheme = random_scheme(2, 2, 20, child_seed(1010, "flavor", seed))
        rep = evaluate(scheme)
        switched = evaluate(flavor_switch(scheme))
        worst_flavor = max(worst_flavor,
                           switched.hiding_stat - math.sqrt(rep.binding_opt))
    ok_flavor = worst_flavor <= 1e-8

    ok_tensor = True
    for seed in range(10):
        rng = generator(child_seed(1010, "tensor", seed))
        s0 = BipartiteState(haar_state_vector(4, rng), (2, 2))
        s1 = BipartiteState(haar_state_vector(4, rng), (2, 2))
        scheme = CommitmentScheme(raw_states=(s0, s1))
        base = evaluate(scheme).binding_opt
        for k in (2, 4):
            got = evaluate(tensor_amplify(scheme, k)).binding_opt
            ok_tensor = ok_tensor and abs(got - base ** k) <= 1e-9
    report(10, "commitment tradeoffs and amplification",
           ok_mlc and ok_flavor and ok_tensor,
           f"MLC margin {worst_mlc:.2e}, flavor excess {worst_flavor:.2e}")


def test_criterion_11_channel_and_blackhole_decoding():
    ok_unitary = True
    for seed in range(5):
        ch = unitary_channel(haar_unitary(4, generator(child_seed(1111, "u", seed))))
        ok_unitary = ok_unitary and \
            decoder_from_uhlmann(ch)["fidelity"] >= 1 - 1e-8

    # Scrambler instances are prechecked against the decoupling promise; the
    # first seed meeting it is the (deterministic) test instance.
    perm = linalg.permutation_matrix([4, 16], [1, 0])
    dec, epr_fid = 0.0, 0.0
    for seed in range(10):
        u = random_clifford(6, child_seed(1111, "scrambler", seed))
        ch = dilated_channel(perm @ u, 2, 32, (16, 4))
        dec = decoupling_fidelity(ch)
        if dec >= 0.99:
            epr_fid = decoder_from_uhlmann(ch)["fidelity"]
            break
    ok_bh = dec >= 0.99 and epr_fid >= 0.98
    report(11, "channel and black-hole decoding", ok_unitary and ok_bh,
           f"scrambler decoupling {dec:.4f}, EPR fidelity {epr_fid:.4f}")


def test_criterion_12_interference():
    correct = 0
    for seed in range(100):
        rng = generator(child_seed(1212, "pair", seed))
        c = random_circuit(3, 15, rng)
        pair = OrthPair(C=c, D=GateCircuit(3, (("X", (0,)),) + c.gates))
        cv, dv = pair.vectors()
        correct += interference_detect(pair, (cv + dv) / math.sqrt(2)) == 0
        correct += interference_detect(pair, (cv - dv) / math.sqrt(2)) == 1
    ok_signs = correct == 200

    rng = generator(child_seed(1212, "ctrl", 0))
    c = random_circuit(3, 15, rng)
    pair = OrthPair(C=c, D=GateCircuit(3, (("X", (1,)),) + c.gates))
    ctrl = controlled_swap_from_uhlmann(pair)
    cv, dv = pair.vectors()
    worst_eq = 0.0
    for flag, vin, vout in ((0, cv, cv), (0, dv, dv), (1, cv, dv), (1, dv, cv)):
        e = np.eye(2)[flag]
        worst_eq = max(worst_eq,
                       float(np.linalg.norm(ctrl @ np.kron(e, vin) - np.kron(e, vout))))
    ok_ctrl = worst_eq <= 1e-8

    psi = haar_state_vector(8, rng)
    phi = haar_state_vector(8, rng)
    phi = phi - psi * (psi.conj() @ phi)
    phi = phi / np.linalg.norm(phi)
    u = householder_swap(psi, phi)
    w = distinguisher_to_swap(swap_to_distinguisher(u, (psi, phi)).unitary())
    worst_rt = 0.0
    for vec in (psi, phi):
        joint = np.zeros(16, dtype=complex)
        joint[:8] = vec
        expect = np.zeros(16, dtype=complex)
        expect[:8] = u @ vec
        worst_rt = max(worst_rt, float(np.linalg.norm(w @ joint - expect)))
    ok_rt = worst_rt <= 1e-8
    report(12, "interference detection and swap round trip",
           ok_signs and ok_ctrl and ok_rt,
           f"{correct}/200 correct, eq residual {worst_eq:.2e}, "
           f"round trip {worst_rt:.2e}")
