"""Each check passes on a real output of the program and fails on a perturbed one."""

import copy
import json
import math

import numpy as np
import pytest

import checks
import workloads
from uhlmann_lab import physics, protocols
from uhlmann_lab.qcore.gates import GateCircuit
from uhlmann_lab.qcore.states import BipartiteState, DensityOp


def report(*argv):
    return json.loads(workloads.run_cli(list(argv)))


def perturbed(rep, key, change):
    out = copy.deepcopy(rep)
    out["results"][key] = change(out["results"][key])
    return out


def raw_file(tmp_path, d, p, q, seed=0):
    psi, phi, kappa = workloads.rank2_pair(d, d, p, q, np.random.default_rng(seed))
    path = tmp_path / f"instance{d}.json"
    workloads.write_raw_instance(path, d, d, psi, phi)
    return str(path), kappa, (psi, phi)


def test_compress():
    rep = report("compress", "--param", "source=mm:3", "--param", "seeds=2", "--seed", "5")
    eig = np.full(8, 1 / 8)
    assert checks.check_compress(rep, eig, 0.1, 2) == []
    assert checks.check_compress(perturbed(rep, "s", lambda s: s - 1), eig, 0.1, 2)
    assert checks.check_compress(perturbed(rep, "roundtrip_td", lambda t: [t[0], 1e-6]),
                                 eig, 0.1, 2)
    assert checks.check_compress(rep, eig, 0.1, 3)


@pytest.mark.parametrize("argv, reference, keys", [
    (["channel", "--param", "qubits=4", "--seed", "9"],
     lambda: workloads._channel_reference("9", 4), ("decoupling_fidelity", "decoder_fidelity")),
    (["blackhole", "--param", "qubits=6", "--param", "r=4", "--seed", "9"],
     lambda: workloads._scrambler_reference("9", 6, 4), ("decoupling", "epr_fidelity")),
])
def test_decoding(argv, reference, keys):
    rep = report(*argv)
    ref = reference()
    assert checks.check_decoding(rep, ref, *keys) == []
    assert checks.check_decoding(perturbed(rep, keys[0], lambda f: f - 1e-6), ref, *keys)
    assert checks.check_decoding(perturbed(rep, keys[1], lambda f: ref - 1e-6), ref, *keys)


def test_entropy_mm():
    rep = report("entropy", "--param", "state=mm:4")
    assert checks.check_entropy_mm(rep, 4) == []
    assert checks.check_entropy_mm(perturbed(rep, "h2_lower", lambda h: h + 1e-6), 4)
    assert checks.check_entropy_mm(perturbed(rep, "h_min", lambda h: h - 1e-6), 4)


def test_szk(tmp_path):
    path, kappa, _ = raw_file(tmp_path, 2, 0.7, 0.55)
    transcript = tmp_path / "t.jsonl"
    rep = report("szk", path, "--param", "m=3", "--trials", "200",
                 "--transcript", str(transcript), "--seed", "7")
    lines = workloads.read_lines(transcript)
    assert checks.check_szk(rep, kappa, 3, 200, lines) == []
    assert checks.check_szk(perturbed(rep, "accept_rate", lambda r: r - 0.2), kappa, 3, 200)
    assert checks.check_szk(perturbed(rep, "simulator_distance", lambda d: d + 1e-6),
                            kappa, 3, 200)
    assert checks.check_szk(rep, kappa, 3, 200, lines[:-1])


def test_qip(tmp_path):
    path, kappa, _ = raw_file(tmp_path, 2, 0.7, 0.55)
    rep = report("qip", path, "--param", "m=3", "--seed", "1")
    assert checks.check_accept_exact(rep["results"]["accept_prob"], kappa, 3) == []
    assert checks.check_accept_exact(rep["results"]["accept_prob"] + 1e-7, kappa, 3)
    rep = report("qip", path, "--param", "m=3", "--param", "prep_error=0.2", "--seed", "1")
    assert checks.check_qip_prep(rep, kappa, 3, 0.2) == []
    assert checks.check_qip_prep(perturbed(rep, "accept_prob", lambda p: p + 0.3), kappa, 3, 0.2)
    assert checks.check_qip_prep(perturbed(rep, "accept_prob", lambda p: 0.5 * p), kappa, 3, 0.2)
    transcript = tmp_path / "q.jsonl"
    rep = report("qip", path, "--param", "m=1", "--param", "mode=dme",
                 "--transcript", str(transcript), "--seed", "1")
    lines = workloads.read_lines(transcript)
    assert checks.check_qip_dme(rep, lines, kappa, 1) == []
    bound = lines[0]["measurement_error_bound"]
    assert checks.check_qip_dme(perturbed(rep, "accept_prob", lambda p: p + bound + 1e-6),
                                lines, kappa, 1)


def test_interfere():
    c = workloads.random_circuit(3, 10, np.random.default_rng(2))
    pair = physics.OrthPair(C=c, D=GateCircuit(3, (("X", (0,)),) + c.gates))
    c_vec, d_vec = pair.vectors()
    for sign in (1, -1):
        decision = physics.interference_detect(pair, (c_vec + sign * d_vec) / math.sqrt(2))
        assert checks.check_decision(decision, sign) == []
        assert checks.check_decision(decision, -sign)
    rep = report("interfere", "--param", "pairs=3", "--seed", "4")
    assert checks.check_interfere_report(rep, 3) == []
    assert checks.check_interfere_report(perturbed(rep, "correct", lambda c: c - 1), 3)


def test_commit():
    rep = report("commit", "--param", "schemes=4", "--seed", "3")
    assert checks.check_commit(rep, 4) == []
    assert checks.check_commit(rep, 5)
    bad = copy.deepcopy(rep)
    bad["results"]["schemes"][1]["binding_attack"] -= 1e-6
    assert checks.check_commit(bad, 4)
    bad = copy.deepcopy(rep)
    f = bad["results"]["schemes"][0]["binding_opt"]
    bad["results"]["schemes"][0]["hiding_stat"] = math.sqrt(1 - f) + 1e-6
    assert checks.check_commit(bad, 4)


def test_amplify():
    rep = report("amplify", "--param", "k=2", "--param", "nu=0.6", "--trials", "100",
                 "--seed", "2")
    assert checks.check_amplify(rep, 0.6, 100) == []
    assert checks.check_amplify(perturbed(rep, "nu", lambda v: v + 1e-6), 0.6, 100)
    assert checks.check_amplify(perturbed(rep, "per_index_fidelity",
                                          lambda f: [1.001] + f[1:]), 0.6, 100)
    assert checks.check_amplify(perturbed(rep, "empirical_fidelity", lambda e: e - 0.3),
                                0.6, 100)


def test_uhlmann(tmp_path):
    path, kappa, _ = raw_file(tmp_path, 4, 0.3, 0.8)
    rep = report("uhlmann", path)
    assert checks.check_uhlmann(rep, kappa, 4) == []
    assert checks.check_uhlmann(perturbed(rep, "kappa", lambda k: k + 1e-6), kappa, 4)
    assert checks.check_uhlmann(perturbed(rep, "isometry_overlap", lambda k: k - 1e-6), kappa, 4)
    assert checks.check_uhlmann(perturbed(rep, "w_matrix", lambda w: [1.001 * v for v in w]),
                                kappa, 4)
    assert checks.check_uhlmann(rep, kappa, 4, rank=3)


def test_dme_closed_form():
    rng = np.random.default_rng(5)
    target = workloads.random_density(6, 3, rng)
    program = workloads.random_density(3, 3, rng)
    out = protocols.dme(DensityOp(target, (2, 3)), DensityOp(program, (3,)), 0.5, 6).matrix
    reference = checks.dme_closed_form(target, program, 0.5, 6)
    assert checks.check_dme(out, reference) == []
    assert checks.check_dme(out + 1e-9, reference)
    assert checks.check_dme(out, checks.dme_closed_form(target, program, 0.5, 7))


def test_approx_measure():
    rng = np.random.default_rng(6)
    tau = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    tau /= np.linalg.norm(tau)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    res = protocols.approx_measure(BipartiteState(tau, (2, 4)), psi, k_q=16, mode="dme")
    assert checks.check_approx_measure(res, tau, (2, 4), psi) == []
    res.p_one += res.error_bound + 0.5
    assert checks.check_approx_measure(res, tau, (2, 4), psi)


def test_decoupling_reference_matches_closed_forms():
    # Identity on the input with nothing in the environment: fully decoupled
    # environment of dimension 1 gives fidelity 1; a swap into the environment
    # leaves it maximally entangled with R, fidelity 1/d^2.
    eye = np.eye(2)
    assert checks.decoupling_fidelity(eye, 2, 1, (2, 1)) == pytest.approx(1.0)
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert checks.decoupling_fidelity(swap, 2, 2, (2, 2)) == pytest.approx(0.25)
