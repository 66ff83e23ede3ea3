"""The benchmark's workloads: inputs generated from a seed, and the operations.

An operation is one CLI report (``uhlmann_lab.cli.main`` called in-process,
stdout captured) or one public library call, together with its check. A
round runs every operation of a workload once, in order, as a closed loop
with a single client.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from uhlmann_lab import cli, physics, protocols
from uhlmann_lab.qcore.gates import GateCircuit
from uhlmann_lab.qcore.random_ops import random_clifford
from uhlmann_lab.qcore.states import BipartiteState, DensityOp
from uhlmann_lab.rng import Seed
from uhlmann_lab.uhlmann import UhlmannInstance, canonical_uhlmann, unitary_completion

import checks


class OperationFailed(Exception):
    """The program did not complete the operation (exception or non-zero exit)."""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    ops: list
    # Operations run once during set-up, to fill the program's process-wide caches.
    warmup: list
    # Cached reference values of the checks, computed before the measured rounds.
    references: list = field(default_factory=list)


def rng_for(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def cli_seed(seed: int, tag: str) -> str:
    return str(int(rng_for(seed, "cli-seed:" + tag).integers(2 ** 32)))


def run_cli(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise OperationFailed(f"uhlmann-lab {' '.join(argv)} exited {code}: "
                              f"{err.getvalue().strip()[-300:]}")
    return out.getvalue()


def cli_op(name: str, argv: list, check: Callable[[dict], list], out_path=None) -> Op:
    """A CLI report; the check receives the parsed report (from --out if given)."""
    def call():
        text = run_cli(argv)
        return Path(out_path).read_text() if out_path else text
    return Op(name, call, lambda text: check(json.loads(text)))


def read_lines(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# ---------------------------------------------------------------------------
# Input generation (the benchmark's own, numpy only)

def haar_unitary(d: int, rng) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rank2_pair(d_a: int, d_b: int, p: float, q: float, rng):
    """(psi, phi, kappa): Schmidt-rank-2 states sqrt(p)|00>+sqrt(1-p)|11> and the
    same with q, under common Haar locals. Tr_A|phi><psi| has rank 2 and the
    reduced-state fidelity is kappa = (sqrt(pq) + sqrt((1-p)(1-q)))^2."""
    ua, ub = haar_unitary(d_a, rng), haar_unitary(d_b, rng)
    states = []
    for w in (p, q):
        base = np.zeros((d_a, d_b), dtype=complex)
        base[0, 0], base[1, 1] = math.sqrt(w), math.sqrt(1 - w)
        states.append((ua @ base @ ub.T).reshape(-1))
    kappa = (math.sqrt(p * q) + math.sqrt((1 - p) * (1 - q))) ** 2
    return states[0], states[1], kappa


def _write_pairs(fh, vec: np.ndarray, chunk: int = 8192) -> None:
    fh.write("[")
    for start in range(0, vec.size, chunk):
        part = np.stack([vec[start:start + chunk].real, vec[start:start + chunk].imag], axis=1)
        fh.write(("," if start else "") + json.dumps(part.tolist())[1:-1])
    fh.write("]")


def write_raw_instance(path: Path, d_a: int, d_b: int, psi, phi) -> None:
    """Raw Uhlmann instance file {"raw": {dA, dB, psi, phi}} with (re, im) pairs."""
    with open(path, "w") as fh:
        fh.write(f'{{"raw": {{"dA": {d_a}, "dB": {d_b}, "psi": ')
        _write_pairs(fh, psi)
        fh.write(', "phi": ')
        _write_pairs(fh, phi)
        fh.write("}}\n")


def random_circuit(n: int, gates: int, rng) -> GateCircuit:
    names = ("H", "S", "T", "X", "CNOT", "CZ")
    out = []
    for _ in range(gates):
        g = names[rng.integers(len(names))]
        qubits = rng.choice(n, size=2 if g in ("CNOT", "CZ") else 1, replace=False)
        out.append((g, tuple(int(q) for q in qubits)))
    return GateCircuit(n, tuple(out))


def random_density(d: int, rank: int, rng) -> np.ndarray:
    m = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# dense: density operators of dimension 1024-4096

def _scrambler_reference(seed: str, n: int, r: int) -> float:
    # The CLI's blackhole channel: scrambler u, output reordered to (radiation = last r
    # qubits, remaining n - r qubits), input qubit 0, the rest starting in |0>.
    u = random_clifford(n, Seed(int(seed)).child("scrambler"))
    dilation = u.reshape(2 ** (n - r), 2 ** r, -1).transpose(1, 0, 2).reshape(2 ** n, 2 ** n)
    return checks.decoupling_fidelity(dilation, 2, 2 ** (n - 1), (2 ** r, 2 ** (n - r)))


def _channel_reference(seed: str, n: int) -> float:
    u = random_clifford(n, Seed(int(seed)).child("channel"))
    return checks.decoupling_fidelity(u, 2, 2 ** (n - 1), (2 ** (n - 1), 2))


def dense(seed: int, work: Path) -> Workload:
    delta, seeds = 0.1, 1
    s = {tag: cli_seed(seed, tag) for tag in ("mm", "haar", "blackhole", "channel")}
    bh_ref = functools.cache(lambda: _scrambler_reference(s["blackhole"], 10, 6))
    ch_ref = functools.cache(lambda: _channel_reference(s["channel"], 8))
    rank1 = np.zeros(32)
    rank1[0] = 1.0
    ops = [
        cli_op("compress.mm5", ["compress", "--param", "source=mm:5", "--param",
                                f"seeds={seeds}", "--seed", s["mm"]],
               lambda rep: checks.check_compress(rep, np.full(32, 1 / 32), delta, seeds)),
        cli_op("compress.haar32", ["compress", "--param", "source=haar:32", "--param",
                                   f"seeds={seeds}", "--seed", s["haar"]],
               lambda rep: checks.check_compress(rep, rank1, delta, seeds)),
        cli_op("blackhole.q10r6", ["blackhole", "--param", "qubits=10", "--param", "r=6",
                                   "--seed", s["blackhole"]],
               lambda rep: checks.check_decoding(rep, bh_ref(), "decoupling", "epr_fidelity")),
        cli_op("channel.q8", ["channel", "--param", "qubits=8", "--seed", s["channel"]],
               lambda rep: checks.check_decoding(rep, ch_ref(), "decoupling_fidelity",
                                                 "decoder_fidelity")),
        cli_op("entropy.mm10", ["entropy", "--param", "state=mm:10"],
               lambda rep: checks.check_entropy_mm(rep, 10)),
    ]
    return Workload(ops, [], [bh_ref, ch_ref])


# ---------------------------------------------------------------------------
# trials: hundreds of small operations

SZK_COIN_SEED = "7"   # fixed protocol coins: see README ("szk coins")


def trials(seed: int, work: Path) -> Workload:
    rng = rng_for(seed, "trials")
    ops = []

    # szk at dA = dB = 8, m = 8, with a transcript file.
    m_szk, szk_trials = 8, 300
    psi, phi, kappa8 = rank2_pair(8, 8, 0.7, 0.55, rng)
    write_raw_instance(work / "szk_instance.json", 8, 8, psi, phi)
    transcript = work / "szk_transcript.jsonl"
    ops.append(cli_op(
        "szk.m8", ["szk", str(work / "szk_instance.json"), "--param", f"m={m_szk}",
                   "--trials", str(szk_trials), "--transcript", str(transcript),
                   "--seed", SZK_COIN_SEED],
        lambda rep: checks.check_szk(rep, kappa8, m_szk, szk_trials, read_lines(transcript))))

    # interference detection: one CLI report over generated pairs, and library
    # decisions on pairs built here with a known sign.
    pairs = 20
    ops.append(cli_op("interfere.cli", ["interfere", "--param", f"pairs={pairs}",
                                        "--seed", cli_seed(seed, "interfere")],
                      lambda rep: checks.check_interfere_report(rep, pairs)))
    for i in range(12):
        c = random_circuit(3, 15, rng)
        pair = physics.OrthPair(C=c, D=GateCircuit(3, (("X", (0,)),) + c.gates))
        c_vec, d_vec = pair.vectors()
        for sign in (1, -1):
            state = (c_vec + sign * d_vec) / math.sqrt(2)
            ops.append(Op(f"interfere.lib{i}{'+' if sign > 0 else '-'}",
                          lambda pair=pair, state=state: physics.interference_detect(pair, state),
                          lambda decision, sign=sign: checks.check_decision(decision, sign)))

    schemes = 150
    ops.append(cli_op("commit.150", ["commit", "--param", f"schemes={schemes}",
                                     "--seed", cli_seed(seed, "commit")],
                      lambda rep: checks.check_commit(rep, schemes)))
    ops.append(cli_op("amplify.k6", ["amplify", "--param", "k=6", "--param", "nu=0.6",
                                     "--param", "T=3", "--trials", "200",
                                     "--seed", cli_seed(seed, "amplify")],
                      lambda rep: checks.check_amplify(rep, 0.6, 200)))

    # qip at small m on a qubit-qubit instance.
    psi2, phi2, kappa2 = rank2_pair(2, 2, 0.7, 0.55, rng)
    inst2 = str(work / "qip_instance.json")
    write_raw_instance(Path(inst2), 2, 2, psi2, phi2)
    qseed = cli_seed(seed, "qip")
    ops.append(cli_op("qip.m4", ["qip", inst2, "--param", "m=4", "--seed", qseed],
                      lambda rep: checks.check_accept_exact(rep["results"]["accept_prob"],
                                                            kappa2, 4)))
    ops.append(cli_op("qip.m4.prep", ["qip", inst2, "--param", "m=4", "--param",
                                      "prep_error=0.05", "--seed", qseed],
                      lambda rep: checks.check_qip_prep(rep, kappa2, 4, 0.05)))
    qip_transcript = work / "qip_dme_transcript.jsonl"
    qip_dme = cli_op("qip.m2.dme", ["qip", inst2, "--param", "m=2", "--param", "mode=dme",
                                    "--transcript", str(qip_transcript), "--seed", qseed],
                     lambda rep: checks.check_qip_dme(rep, read_lines(qip_transcript),
                                                      kappa2, 2))
    ops.append(qip_dme)

    # Uhlmann solves at 8 x 8, one instance file each.
    for i in range(100):
        p, q = rng.uniform(0.05, 0.95, size=2)
        psi_i, phi_i, kappa_i = rank2_pair(8, 8, p, q, rng)
        path = work / f"uhlmann_{i:03d}.json"
        write_raw_instance(path, 8, 8, psi_i, phi_i)
        ops.append(cli_op(f"uhlmann.8x8.{i}", ["uhlmann", str(path)],
                          lambda rep, kappa=kappa_i: checks.check_uhlmann(rep, kappa, 8)))

    # Density matrix exponentiation, dims (8, 8), k = 32.
    target = random_density(64, 64, rng)
    program = random_density(8, 8, rng)
    dme_ref = functools.cache(lambda: checks.dme_closed_form(target, program, 0.5, 32))
    target_op, program_op = DensityOp(target, (8, 8)), DensityOp(program, (8,))
    ops.append(Op("dme.8x8.k32", lambda: protocols.dme(target_op, program_op, 0.5, 32),
                  lambda out: checks.check_dme(out.matrix, dme_ref())))

    # Hadamard-test measurement in DME mode.
    approx = []
    for i in range(8):
        tau = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        tau /= np.linalg.norm(tau)
        psi_m = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi_m /= np.linalg.norm(psi_m)
        tau_state = BipartiteState(tau, (2, 4))
        approx.append(Op(f"approx_measure.dme.{i}",
                         lambda tau_state=tau_state, psi_m=psi_m, i=i: protocols.approx_measure(
                             tau_state, psi_m, k_q=16, mode="dme", seed=i),
                         lambda res, tau=tau, psi_m=psi_m: checks.check_approx_measure(
                             res, tau, (2, 4), psi_m)))
    ops += approx
    return Workload(ops, [qip_dme, approx[0]], [dme_ref])


# ---------------------------------------------------------------------------
# vectors: state vectors at the 2^20-amplitude cap, and the CLI's file path

def vectors(seed: int, work: Path) -> Workload:
    rng = rng_for(seed, "vectors")
    ops = []
    psi2, phi2, kappa2 = rank2_pair(2, 2, 0.7, 0.55, rng)
    inst2 = str(work / "qip_instance.json")
    write_raw_instance(Path(inst2), 2, 2, psi2, phi2)
    qseed = cli_seed(seed, "qip")
    ops.append(cli_op("qip.m9", ["qip", inst2, "--param", "m=9", "--seed", qseed],
                      lambda rep: checks.check_accept_exact(rep["results"]["accept_prob"],
                                                            kappa2, 9)))
    ops.append(cli_op("qip.m9.prep", ["qip", inst2, "--param", "m=9", "--param",
                                      "prep_error=0.1", "--seed", qseed],
                      lambda rep: checks.check_qip_prep(rep, kappa2, 9, 0.1)))

    # szk with a joint prover: the Kronecker power of the honest unitary.
    m = 9
    x = UhlmannInstance(raw_pair=(BipartiteState(psi2, (2, 2)), BipartiteState(phi2, (2, 2))))
    u = unitary_completion(canonical_uhlmann(x, 0.0)).unitary
    joint = np.ones((1, 1), dtype=complex)
    for _ in range(m + 1):
        joint = np.kron(joint, u)
    prover = protocols.ProverStrategy.joint(joint, label="honest-joint")
    szk_seed = int(cli_seed(seed, "szk-joint"))
    ops.append(Op("szk.joint.m9", lambda: protocols.szk_run(x, m, prover, szk_seed),
                  lambda res: checks.check_accept_exact(res.accept_prob, kappa2, m)))

    for k, t_rounds in ((8, 3), (7, 4)):
        ops.append(cli_op(f"amplify.k{k}T{t_rounds}",
                          ["amplify", "--param", f"k={k}", "--param", "nu=0.6", "--param",
                           f"T={t_rounds}", "--trials", "200",
                           "--seed", cli_seed(seed, f"amplify{k}")],
                          lambda rep: checks.check_amplify(rep, 0.6, 200)))

    # A raw dA = dB = 512 instance read from a file, report written with --out.
    p, q = rng.uniform(0.2, 0.8, size=2)
    psi, phi, kappa = rank2_pair(512, 512, p, q, rng)
    big = work / "uhlmann_512.json"
    write_raw_instance(big, 512, 512, psi, phi)
    report = work / "uhlmann_512_report.json"
    ops.append(cli_op("uhlmann.512", ["uhlmann", str(big), "--out", str(report)],
                      lambda rep: checks.check_uhlmann(rep, kappa, 512), out_path=report))
    return Workload(ops, [])


WORKLOADS = {"dense": dense, "trials": trials, "vectors": vectors}
