"""Scenario runner: seeded, reproducible experiments with JSON reports.

Usage: uhlmann-lab <scenario> [flags] [inputs...]

Scenarios: uhlmann, szk, qip, amplify, commit, channel, compress,
blackhole, interfere, entropy. Reports go to stdout as a single JSON
document (byte-identical for identical config and seed); a human summary
and wall-clock time go to stderr. Exit codes: 0 all asserted bounds pass,
1 an assertion failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import re
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import (DENSITY_DIM_CAP, UhlmannLabError, check_density_cap, check_int,
                     check_pure_cap)
from .qcore.channels import ChannelDesc, channel_from_circuit, interleave
from .qcore.gates import GateCircuit, random_circuit
from .qcore.metrics import factor_trace_distance
from .qcore.states import SpectralState, pair_array
from .qcore.random_ops import haar_state_vector, random_clifford
from .rng import Seed
from . import crypto, physics, protocols, shannon, uhlmann


def _check(name: str, measured: float, bound: float, formula: str,
           direction: str = "<=") -> dict:
    ok = measured <= bound if direction == "<=" else measured >= bound
    return {"name": name, "bound_formula": formula, "bound": float(bound),
            "measured": float(measured), "direction": direction, "pass": bool(ok)}


def _load_json(path: str) -> dict:
    """The JSON document at ``path``, parsed in one go if it has at most
    ``_SLICE`` bytes, else read in blocks and never held whole. The cyclic
    collector is off while it parses: the fresh lists of a large instance
    hold no cycles, and scanning them again and again is a third of it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path) as fh:
            if os.fstat(fh.fileno()).st_size > _SLICE:
                doc = _read_in_blocks(fh)
                if doc is not None:
                    return doc
                fh.seek(0)
            text = fh.read()
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}")
    except OSError as exc:
        raise UsageError(f"{path}: {exc}")
    finally:
        if enabled:
            gc.enable()


_SLICE = 1 << 20  # characters read, and of a raw pair list decoded, at a time
_PAIR_KEYS = ("psi", "phi", "psi0", "psi1")  # the [re, im] lists of a "raw" block
_WS = "[ \t\n\r]*"  # JSON whitespace
_PAIRS_START = re.compile(rf"\[{_WS}\[")
_PAIRS_END = re.compile(rf"\]{_WS}\]")
_PAIRS_CUT = re.compile(rf"\]{_WS},")
_OPEN_TAIL = re.compile(rf"\[{_WS}\Z")  # the start of a "[[" that a block's end cuts


def _read_in_blocks(fh):
    """``json.loads`` of the text of ``fh``, read ``_SLICE`` characters at a
    time, with each raw pair list (``_PAIR_KEYS`` of a "raw" block) longer
    than ``_SLICE`` as the float (n, 2) array ``BipartiteState.from_pairs``
    makes of it; None if there is none, or if anything is unexpected. The
    text outside such ``[[`` ... ``]]`` spans is kept; a span is decoded by
    ``pair_array`` as its blocks arrive, in slices of ~``_SLICE`` characters
    cut after a ``]`` that a comma follows. Then a quoted placeholder, grown
    until the kept text lacks it, takes each span's place, and json must
    find each as a pair list of a "raw" block: the arrays hold json's bits.
    """
    pieces, buf = [], ""  # the skeleton's text, and an array per long span

    def more() -> bool:  # the next block onto ``buf``; False at the end
        nonlocal buf
        buf += (block := fh.read(_SLICE))
        return bool(block)

    def extend(pairs: np.ndarray, piece: str) -> None:
        part = pair_array(json.loads(f"[{piece}]"))
        pairs.resize((len(pairs) + len(part), 2), refcheck=False)
        pairs[len(pairs) - len(part):] = part

    try:
        while True:
            start = _PAIRS_START.search(buf)
            keep = start or _OPEN_TAIL.search(buf)
            keep = keep.start() if keep else len(buf)
            pieces.append(buf[:keep])
            buf = buf[keep:]
            if start is None:
                if more():
                    continue
                break
            pairs, pos = np.empty((0, 2)), 0  # buf[pos] is the "[" or "," before a slice
            while True:
                end = _PAIRS_END.search(buf)
                stop = end.end() - 1 if end else len(buf)
                while cut := _PAIRS_CUT.search(buf, pos + 1 + _SLICE, stop):
                    extend(pairs, buf[pos + 1:cut.start() + 1])
                    pos = cut.end() - 1
                if end:
                    break
                buf, pos = buf[pos:], 0
                if not more():
                    return None  # a span that no "]]" ends
            if len(pairs) or end.end() > _SLICE:
                extend(pairs, buf[pos + 1:stop])
            pieces.append(pairs if len(pairs) else buf[:end.end()])  # a short span stays text
            buf = buf[end.end():]
        pieces.append(buf)
        mark, skeleton = "SPLICE", "".join(p for p in pieces if isinstance(p, str))
        while mark in skeleton:
            mark += "_"
        slots = {f"{mark}{i}": p for i, p in enumerate(pieces) if not isinstance(p, str)}

        def fill(items: list) -> dict:  # an object, with its raw block's spans put in
            node = dict(items)
            raw = node.get("raw")
            for key in _PAIR_KEYS if isinstance(raw, dict) else ():
                if isinstance(raw.get(key), str) and raw[key].startswith(mark):
                    raw[key] = slots.pop(raw[key])
            return node

        doc = slots and json.loads("".join(p if isinstance(p, str) else f'"{mark}{i}"'
                                           for i, p in enumerate(pieces)), object_pairs_hook=fill)
    except Exception:  # anything unexpected: the whole file is parsed as before
        return None
    return doc if doc and not slots else None


def _load(path: str, build, data=None):
    """``build`` applied to the JSON object at ``path``, or to ``data`` taken
    from it. A KeyError, TypeError or ValueError raised while building is a
    UsageError naming the file."""
    if data is None:
        data = _load_json(path)
        if not isinstance(data, dict):
            raise UsageError(f"{path}: expected a JSON object")
    try:
        return build(data)
    except KeyError as exc:
        raise UsageError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from None


class UsageError(UhlmannLabError):
    pass


def _in_interval(name: str, raw, kind, interval: str):
    """``raw`` as ``kind`` inside ``interval``, else a UsageError that names
    it as ``name``. ``interval`` reads "[low, high]", with "(" or ")"
    marking an open end."""
    try:
        value = kind(raw)
    except ValueError:
        raise UsageError(f"{name}={raw!r} is not a valid {kind.__name__}") from None
    low, high = (float(end) for end in interval[1:-1].split(","))
    inside = ((value > low if interval[0] == "(" else value >= low)
              and (value < high if interval[-1] == ")" else value <= high))
    if not inside:  # NaN is never inside
        raise UsageError(f"{name}={raw} out of range {interval}")
    return value


def _seed(value: int) -> Seed:
    """``--seed`` or a config's seed, the one place a seed enters."""
    if not 0 <= value < 2 ** 64:
        raise UsageError(f"seed must be a 64-bit unsigned integer, got {value}")
    return Seed(value)


def _absorb_config(args, data: dict) -> None:
    """Take in the first input file, parsed once: an Uhlmann instance or an
    experiment config.

    Config JSON carries {instance path or inline dict, m, k, T, trials,
    prover, mode, seed, ...}; explicit command-line flags win over it. The
    instance is kept as (path, document or None), for ``_load_instance``.
    """
    if not (_CONFIG_KEYS & set(data)) or "raw" in data or "C" in data:
        args.instance = (args.inputs[0], data)
        return
    path, args.inputs = args.inputs[0], args.inputs[1:]
    inst = data.pop("instance", None)
    if inst is None and args.inputs:
        inst = args.inputs[0]
    if inst is not None:
        args.instance = (inst, None) if isinstance(inst, str) else (path, inst)
    seed, trials = data.pop("seed", None), data.pop("trials", None)
    if seed is not None and "--seed" not in args.raw_argv:
        args.seed = _seed(check_int(seed, "seed"))
    if trials is not None and "--trials" not in args.raw_argv:
        args.trials = check_int(trials, "trials")
    for key, value in data.items():
        args.params.setdefault(key, str(value))


def _load_instance(args) -> uhlmann.UhlmannInstance:
    if args.instance is not None:
        path, data = args.instance
        return _load(path, uhlmann.UhlmannInstance.from_json_dict, data)
    kappa, overlap = args.p["kappa"], args.p["overlap"]
    if overlap is not None:
        return uhlmann.overlap_instance(
            kappa, _in_interval("--param overlap", overlap, float, f"[0, {kappa}]"), args.seed)
    return uhlmann.instance_with_fidelity(kappa, args.p["dA"], args.p["dB"], args.seed)


@contextlib.contextmanager
def _transcript(args):
    """A function that writes one record as a JSON line to ``--transcript``
    as it is made, so no run holds its records; without the flag it writes
    nothing."""
    if not args.transcript:
        yield lambda record: None
        return
    with open(args.transcript, "w") as fh:
        yield lambda record: fh.write(json.dumps(record, sort_keys=True) + "\n")


def _state_from_spec(spec: str, seed: Seed) -> SpectralState:
    """The state named by ``mm:n`` (n qubits), ``diag:p0,p1,...``, ``haar:d``
    (drawn from ``seed``) or a circuit file, held as its spectrum: ``mm:`` and
    ``diag:`` as p alone, ``haar:`` and a circuit as p = [1] with the state
    vector as the one column. Sizes are range-checked, and capped before
    anything is built."""
    if spec.startswith("mm:"):
        n = _in_interval(f"{spec}: n", spec[3:], int, "[0, inf)")
        if n > DENSITY_DIM_CAP.bit_length():  # 2^n is far past the cap
            raise UsageError(f"{spec}: dimension 2^{n} exceeds cap {DENSITY_DIM_CAP}")
        return SpectralState(np.full(2 ** n, 1.0 / 2 ** n), (2,) * n)
    if spec.startswith("diag:"):
        try:
            probs = np.array([float(p) for p in spec.split(":", 1)[1].split(",")])
        except ValueError:
            raise UsageError(f"{spec}: probabilities must be numbers") from None
        if not (probs.min() >= 0.0 and abs(probs.sum() - 1.0) <= 1e-8):  # NaN fails too
            raise UsageError(f"{spec}: probabilities must be >= 0 and sum to 1")
        return SpectralState(probs, (len(probs),))
    if spec.startswith("haar:"):
        d = _in_interval(f"{spec}: d", spec[5:], int, "[1, inf)")
        check_density_cap(d, f"{spec} state")
        return SpectralState.pure(haar_state_vector(d, seed.generator()))
    circ = _load(spec, GateCircuit.from_json_dict)
    check_density_cap(circ.dim, f"{spec} state")
    return SpectralState.pure(circ.state())


# ---------------------------------------------------------------------------
# Scenario implementations. Each returns (results dict, checks list).

def run_uhlmann(args):
    x = _load_instance(args)
    eta = args.p["eta"]
    info = uhlmann.validate_instance(x)
    w = uhlmann.canonical_uhlmann(x, eta)
    psi, phi = x.states()
    # <phi|(id x L C R^dag)|psi> = vdot(M_phi conj(L), M_psi conj(R) C^T), with
    # W = left right^dag and U = I + Q (V - I) Q^dag: O(dA dB rank), no dB x dB product.
    q, v = w.completion_factors()
    mp, mf = psi.as_matrix(), phi.as_matrix()
    achieved = abs(np.vdot(phi.amplitudes, psi.amplitudes)
                   + np.vdot(mf @ q.conj(), (mp @ q.conj()) @ (v - np.eye(v.shape[0])).T)) ** 2
    overlap = abs(np.vdot(mf @ w.left.conj(), mp @ w.right.conj())) ** 2
    results = {
        "kappa": info["kappa"], "dA": info["dA"], "dB": info["dB"], "eta": eta,
        "rank": w.rank(),
        "w_matrix": interleave(w.matrix),
        "isometry_overlap": float(overlap),
        "completion_overlap": float(achieved),
    }
    checks = [
        _check("uhlmann_equality", abs(overlap - info["kappa"]),
               args.tol if eta == 0 else 2 * eta * info["dB"] + args.tol,
               "| |<phi|(id x W)|psi>|^2 - F(rho, sigma) | <= tol (eta = 0)"),
        # No unitary on B beats the fidelity (Uhlmann); at eta = 0 the
        # completion attains it.
        _check("completion_fidelity", abs(achieved - info["kappa"]), args.tol,
               "| |<phi|(id x U)|psi>|^2 - F(rho, sigma) | <= tol (eta = 0)")
        if eta == 0 else
        _check("completion_fidelity", achieved, info["kappa"] + args.tol,
               "|<phi|(id x U)|psi>|^2 <= F(rho, sigma) + tol (eta > 0)"),
    ]
    return results, checks


def run_entropy(args):
    spec = args.inputs[0] if args.inputs and "state" not in args.params else args.p["state"]
    rho = _state_from_spec(spec, args.seed)
    eps = args.p["epsilon"]
    rep = shannon.entropies(rho, eps)
    d = rho.dim
    results = {"state": spec, "h_min": rep.h_min, "h_max": rep.h_max,
               "h2_lower": rep.h2_lower, "h_max_smoothed": rep.h_max_smoothed,
               "epsilon": eps}
    checks = [
        _check("entropy_order", rep.h_min, rep.h_max + args.tol,
               "h_min <= h_max"),
        _check("entropy_range", abs(rep.h_max), math.log2(d) + args.tol,
               "|h| <= log2(d)"),
    ]
    return results, checks


def _prover(args, x, m: int):
    # m + 1 slots of dA dB amplitudes, capped before the prover's factors are built.
    check_pure_cap((m + 1) * x.dA * x.dB, "permutation-test slots")
    name = args.p["prover"]
    return name, (protocols.ProverStrategy.honest(x, m) if name == "honest"
                  else protocols.ProverStrategy.identity(m))


def run_szk(args):
    x = _load_instance(args)
    m = args.p["m"]
    info = uhlmann.validate_instance(x)
    prover_name, prover = _prover(args, x, m)
    psi, phi = x.states()
    expected = info["kappa"] ** m if prover_name == "honest" \
        else abs(psi.overlap(phi)) ** (2 * m)
    seeds = (args.seed.child("szk-trial", t) for t in range(args.trials))
    trials = protocols.szk_trials(x, m, prover, seeds, records=bool(args.transcript))
    accepts = 0
    with _transcript(args) as write:
        for t, (accepted, record) in enumerate(trials):
            accepts += accepted
            if record is not None:
                write({"trial": t, **record})
    rate = accepts / args.trials
    sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / args.trials)
    sim_dist = protocols.szk_simulator_distance(x, m)
    # The tolerance enters under the root: 1 - ov^(m+1) carries ~1e-15 of
    # float error, whose square root (~3e-8) a tolerance added outside misses.
    sim_bound = math.sqrt((m + 1) * max(0.0, 1 - info["kappa"]) + args.tol)
    results = {"m": m, "prover": prover_name, "kappa": info["kappa"],
               "trials": args.trials, "accept_rate": rate,
               "expected_accept": expected, "simulator_distance": sim_dist}
    checks = [
        _check("accept_rate_3sigma", abs(rate - expected), 3 * sigma + args.tol,
               "|rate - expected| <= 3 sigma"),
        _check("simulator_distance", sim_dist, sim_bound,
               "td(sim, real) <= sqrt((m+1) mu + tol)"),
    ]
    return results, checks


def run_qip(args):
    x = _load_instance(args)
    m = args.p["m"]
    info = uhlmann.validate_instance(x)
    prover_name, prover = _prover(args, x, m)
    oracle = protocols.OracleConfig(prep_error=args.p["prep_error"], mode=args.p["mode"])
    res = protocols.qip_run(x, m, prover, oracle, args.seed)
    with _transcript(args) as write:
        for record in res.transcript:
            write(record)
    target = uhlmann.apply_uhlmann(x, 0.0, x.states()[0]).amplitudes
    td_out = (factor_trace_distance(res.output_factor, target)
              if res.output_factor is not None else 1.0)
    # The tolerance enters under the root: ~1e-16 of rounding in kappa near 1
    # would otherwise move 5 sqrt(mu) by ~5e-8.
    mu = max(0.0, 1 - info["kappa"])
    envelope = (math.sqrt(4.0 / (m + 1)) + 5 * math.sqrt(mu + args.tol)
                + oracle.prep_error + 0.05)
    results = {"m": m, "prover": prover_name, "mode": oracle.mode,
               "prep_error": oracle.prep_error, "accept_prob": res.accept_prob,
               "output_distance": td_out, "kappa": info["kappa"]}
    checks = []
    if res.accept_prob >= 0.5:
        checks.append(_check("soundness_envelope", td_out, envelope,
                             "td(out, Phi(C)) <= sqrt(4/(m+1)) + 5 sqrt(mu + tol) + prep + 0.05"))
    # No prover acting on B beats the Uhlmann fidelity kappa^m in the good
    # branch, and the honest prover attains it; the junk branch has weight e.
    good = (1 - oracle.prep_error) * info["kappa"] ** m
    checks.append(_check("accept_upper", res.accept_prob, good + oracle.prep_error + args.tol,
                         "accept <= (1-e) kappa^m + e + tol"))
    if prover_name == "honest":
        checks.append(_check("accept_lower", res.accept_prob, good - args.tol,
                             "accept >= (1-e) kappa^m - tol", ">="))
    return results, checks


def run_amplify(args):
    nu, k, t_rounds = args.p["nu"], args.p["k"], args.p["T"]
    epr = GateCircuit(2, (("H", (0,)), ("CNOT", (0, 1))))
    x = uhlmann.circuit_instance(1, epr, epr)
    protocols.check_amplifier_cap(x.dA, x.dB, k, T=t_rounds)
    solver, solver_nu = protocols.engineered_solver(x, k, nu)
    cfg = protocols.AmplifierConfig(k, t_rounds, args.seed)
    res = protocols.amplify_run(x, solver, cfg, args.trials, nu=solver_nu)
    results = {"nu_requested": nu, "nu": res["nu"], "k": k, "T": t_rounds,
               "trials": args.trials,
               "empirical_fidelity": res["empirical_fidelity"],
               "exact_mean_fidelity": res["exact_mean_fidelity"],
               "per_index_fidelity": res["per_index_fidelity"],
               "bound": res["bound"], "stderr": res["stderr"]}
    checks = [_check("amplification_bound",
                     res["empirical_fidelity"],
                     res["bound"] - 3 * res["stderr"] - args.tol,
                     "empirical >= 1 - (2(1-nu)^T + 32T/sqrt(k)) - 3 sigma", ">="),
              _check("solver_fidelity", abs(res["nu"] - nu), args.tol,
                     "|nu - nu_requested| <= tol")]
    return results, checks


# Amplitudes of the states of one block of `commit` schemes (a block holds at
# least one scheme). A block's metrics peak near 12 MiB at 10 qubits, and the
# peak does not grow with the number of schemes.
_COMMIT_BLOCK = 2 ** 16


def run_commit(args):
    if args.inputs:
        scheme = _load(args.inputs[0], crypto.CommitmentScheme.from_json_dict)
        count, blocks = 1, [[s.as_matrix()[None] for s in scheme.states()]]
        d_c, d_r = scheme.states()[0].split
    else:
        n_c, n_r, gates = args.p["commit_qubits"], args.p["reveal_qubits"], args.p["gates"]
        count, d_c, d_r = args.p["schemes"], 2 ** n_c, 2 ** n_r
        size = max(1, _COMMIT_BLOCK // 2 ** (n_c + n_r + 1))
        blocks = (crypto.random_schemes(n_c, n_r, gates, [
            args.seed.child("scheme", i).value for i in range(start, min(start + size, count))])
            for start in range(0, count, size))
    # The flavor switch doubles each state; the blocks are drawn lazily, so
    # this refuses before any scheme is drawn.
    check_pure_cap(2 * d_c * d_r, "flavor-switched scheme state")
    worst_mlc = 1.0
    worst_flavor = -1.0
    reports = []
    for block in blocks:
        for hiding, binding, attack, switched in zip(*(v.tolist()
                                                       for v in crypto.assess(*block))):
            worst_mlc = min(worst_mlc, hiding - (1 - math.sqrt(binding)))
            worst_flavor = max(worst_flavor, switched - math.sqrt(binding))
            if len(reports) < 10:
                reports.append({"hiding_stat": hiding, "binding_opt": binding,
                                "binding_attack": attack, "switched_hiding": switched})
    results = {"count": count, "schemes": reports,
               "worst_mlc_margin": worst_mlc, "worst_flavor_excess": worst_flavor}
    checks = [
        _check("mayers_lo_chau", -worst_mlc, 1e-9,
               "hiding >= 1 - sqrt(binding) - 1e-9"),
        _check("flavor_switch_law", worst_flavor, 1e-8,
               "switched hiding <= sqrt(binding) + 1e-8"),
    ]
    return results, checks


def _decode(args, ch: ChannelDesc):
    """(decoupling fidelity, Uhlmann decoder fidelity, the check that the
    decoder reaches the decoupling fidelity) for ``ch``."""
    dec_fid = shannon.decoupling_fidelity(ch)
    decoded = shannon.decoder_from_uhlmann(ch)["fidelity"]
    return dec_fid, decoded, _check("decoder_vs_decoupling", decoded, dec_fid - args.tol,
                                    "decoder fidelity >= decoupling fidelity", ">=")


def _input_columns(n: int, seed, d_out: int, d_env: int) -> np.ndarray:
    """U[:, [0, 2^(n-1)]] of a random n-qubit Clifford U: the isometry of the
    channel that feeds qubit 0 in, the rest in |0>, with output split
    (d_out, d_env). The caps a decoding run meets (the Clifford's, then the
    decoupling and decoder caps) are checked first, in that order, so a size
    they refuse draws nothing."""
    check_pure_cap(2 ** n * 2, "materialized Clifford")
    shannon.check_decoding_caps(2, d_out, d_env)
    return random_clifford(n, seed, columns=(0, 2 ** (n - 1)))


def run_channel(args):
    if args.inputs:
        ch = _load(args.inputs[0], lambda data: _channel_from_file(args.inputs[0], data))
    else:
        n = args.p["qubits"]
        split = (2 ** (n - 1), 2)
        ch = ChannelDesc(_input_columns(n, args.seed.child("channel"), *split), split)
    dec_fid, decoded, check = _decode(args, ch)
    return {"decoupling_fidelity": dec_fid, "decoder_fidelity": decoded}, [check]


def _channel_from_file(path: str, data: dict) -> ChannelDesc:
    """The channel of a channel file's dilation circuit. n_input, the
    circuit's input block, env and the decoding caps are checked before the
    circuit runs, in the order the run would meet them."""
    circuit = GateCircuit.from_json_dict(data["dilation"])
    n = circuit.n_qubits
    n_input = check_int(data["n_input"], "n_input")
    _in_interval(f"{path}: n_input", n_input, int, f"[1, {n}]")
    check_pure_cap(circuit.dim * 2 ** n_input)
    env = [check_int(q, "env") for q in data["env"]]
    if len(set(env)) != len(env) or not all(0 <= q < n for q in env):
        raise ValueError(f"env {env} must list distinct qubits in [0, {n})")
    shannon.check_decoding_caps(2 ** n_input, 2 ** (n - len(env)), 2 ** len(env))
    return channel_from_circuit(circuit, n_input, env)


def run_compress(args):
    spec, delta, s = args.p["source"], args.p["delta"], args.p["s"]
    rho = _state_from_spec(spec, args.seed)
    if s is not None:
        _in_interval("--param s", s, int, f"[0, {rho.dim.bit_length() - 1}]")
    purification = rho.purify()
    # roundtrip's cap, checked before the first codec is built.
    check_density_cap(purification.dA * purification.dB, "roundtrip state")
    tds = []
    for i in range(args.p["seeds"]):
        codec = shannon.compress(rho, delta, args.seed.child("codec", i), s=s)
        tds.append(shannon.roundtrip(codec, purification))
    bound = shannon.roundtrip_bound(rho, codec.s, delta)
    results = {"source": spec, "delta": delta, "s": codec.s,
               "roundtrip_td": tds, "max_td": max(tds),
               "contract_bound": bound}
    checks = [_check("roundtrip_contract", max(tds), bound,
                     "td((D o E)(psi), psi) <= max(delta, 20 nu^(1/4))")]
    return results, checks


def run_blackhole(args):
    if args.inputs:
        ch = _load(args.inputs[0], lambda data: _radiation_from_file(args.inputs[0], data))
    else:
        n = args.p["qubits"]
        r = _in_interval("--param r", args.p["r"], int, f"[1, {n}]")
        ch = physics.radiation_channel(
            _input_columns(n, args.seed.child("scrambler"), 2 ** r, 2 ** (n - r)), r)
    dec_fid, decoded, check = _decode(args, ch)
    results = {"decoupling": dec_fid, "epr_fidelity": decoded}
    checks = [check]
    if dec_fid >= 0.99:
        checks.append(_check("epr_recovery", decoded, 0.98,
                             "decoupling >= 0.99 implies EPR fidelity >= 0.98", ">="))
    return results, checks


def _radiation_from_file(path: str, data: dict):
    """The radiation channel of a black-hole file: the circuit applied to its
    two input columns, |0...0> and |10...0>. r and the decoding caps are
    checked before the circuit runs."""
    circuit = GateCircuit.from_json_dict(data["circuit"])
    n = circuit.n_qubits
    r = _in_interval(f"{path}: r", check_int(data["r"], "r"), int, f"[1, {n}]")
    shannon.check_decoding_caps(2, 2 ** r, 2 ** (n - r))
    return physics.radiation_channel(channel_from_circuit(circuit, 1, ()).isometry, r)


def _orth_pair_from_file(data: dict) -> physics.OrthPair:
    """The circuit pair of an interference file: equal qubit counts, then
    the interference cap as the pair simulates its states, then orthogonal
    outputs."""
    pair = physics.OrthPair(C=GateCircuit.from_json_dict(data["C"]),
                            D=GateCircuit.from_json_dict(data["D"]))
    if pair.C.n_qubits != pair.D.n_qubits:
        raise ValueError("circuits act on different qubit counts")
    overlap = abs(np.vdot(*pair.vectors()))
    if overlap > 1e-9:
        raise ValueError(f"states are not orthogonal: |<C|D>| = {overlap:.3g}")
    return pair


def run_interfere(args):
    if args.inputs:
        pairs = [_load(args.inputs[0], _orth_pair_from_file)]
    else:
        n, gates = args.p["qubits"], args.p["gates"]
        pairs = []
        for i in range(args.p["pairs"]):
            rng = args.seed.child("pair", i).generator()
            c = random_circuit(n, gates, rng)
            d = GateCircuit(n, (("X", (0,)),) + c.gates)
            pairs.append(physics.OrthPair(C=c, D=d))
    correct = 0
    for pair in pairs:
        c, d = pair.vectors()
        correct += physics.interference_detect(pair, (c + d) / math.sqrt(2)) == 0
        correct += physics.interference_detect(pair, (c - d) / math.sqrt(2)) == 1
    results = {"pairs": len(pairs), "decisions": 2 * len(pairs), "correct": correct}
    checks = [_check("all_correct", correct, 2 * len(pairs),
                     "every sign decision correct", ">=")]
    return results, checks


SCENARIOS = {
    "uhlmann": run_uhlmann, "szk": run_szk, "qip": run_qip,
    "amplify": run_amplify, "commit": run_commit, "channel": run_channel,
    "compress": run_compress, "blackhole": run_blackhole,
    "interfere": run_interfere, "entropy": run_entropy,
}

# Each scenario's --param keys as key: (kind, default, range), the range an
# interval for ``_in_interval``, a tuple of the allowed values, or None for a
# state spec. ``_parse`` checks the command line's values before any file is
# read, and a config's as it fills them; the bounds that depend on another
# value (overlap <= kappa, s <= n, r <= qubits) wait for it.
_INSTANCE = {"kappa": (float, 1.0, "[0, 1]"), "overlap": (float, None, "[0, 1]"),
             "dA": (int, 2, "[1, inf)"), "dB": (int, 2, "[1, inf)")}
_PROVER = {"m": (int, 8, "[1, inf)"), "prover": (str, "honest", ("honest", "identity"))}
PARAMS = {
    "uhlmann": {**_INSTANCE, "eta": (float, 0.0, "[0, inf)")},
    "szk": {**_INSTANCE, **_PROVER},
    "qip": {**_INSTANCE, **_PROVER, "mode": (str, "ideal_reflection", ("ideal_reflection", "dme")),
            "prep_error": (float, 0.0, "[0, 1]")},
    "amplify": {"nu": (float, 0.6, "[0, 1]"), "k": (int, 2, "[1, inf)"),
                "T": (int, 3, "[1, inf)")},
    "commit": {"schemes": (int, 100, "[1, inf)"), "commit_qubits": (int, 2, "[1, inf)"),
               "reveal_qubits": (int, 2, "[1, inf)"), "gates": (int, 20, "[0, inf)")},
    "channel": {"qubits": (int, 3, "[1, inf)")},
    "compress": {"source": (str, "mm:3", None), "delta": (float, 0.1, "(0, 1)"),
                 "s": (int, None, "[0, inf)"), "seeds": (int, 5, "[1, inf)")},
    "blackhole": {"qubits": (int, 6, "[2, inf)"), "r": (int, 4, "[1, inf)")},
    "interfere": {"pairs": (int, 20, "[1, inf)"), "qubits": (int, 3, "[1, inf)"),
                  "gates": (int, 15, "[0, inf)")},
    "entropy": {"state": (str, "mm:3", None), "epsilon": (float, 0.0, "[0, 1)")},
}
# A first input file with any of these keys, and no "raw" or "C", is an experiment config.
_CONFIG_KEYS = {"instance", "seed", "trials"}.union(*PARAMS.values())


def _params_help() -> str:
    """The ``--help`` epilog: each scenario's --param keys, default and range."""
    lines = ["--param keys by scenario (KEY=DEFAULT, then the allowed values):"]
    for scenario, table in sorted(PARAMS.items()):
        lines.append(f"  {scenario}")
        for key, (_, default, allowed) in table.items():
            allowed = ("a state spec" if allowed is None else allowed
                       if isinstance(allowed, str) else "one of " + ", ".join(allowed))
            given = f"{key}={'unset' if default is None else default}"
            lines.append(f"    {given:<24} {allowed}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uhlmann-lab", description=__doc__, epilog=_params_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument("inputs", nargs="*", help="scenario input files")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--transcript", type=str, default=None,
                        help="write per-round protocol records as JSON lines")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE")
    return parser


_PARSER = _build_parser()
# parse_intermixed_args formats this same usage on every call unless it is set.
_PARSER.usage = _PARSER.format_usage()[len("usage: "):]


def _parse(argv) -> argparse.Namespace:
    args = _PARSER.parse_intermixed_args(argv)
    params = {}
    for entry in args.param:
        if "=" not in entry:
            raise UsageError(f"--param needs KEY=VALUE, got {entry!r}")
        key, value = entry.split("=", 1)
        params[key] = value
    args.params = params
    args.seed = _seed(args.seed)
    args.raw_argv = list(argv)
    args.instance = None
    args.p = {key: default for key, (_, default, _) in PARAMS[args.scenario].items()}
    given = set(params)
    _check_params(args, given)  # the command line's, before any file is read
    if args.inputs and args.scenario in ("szk", "qip", "amplify", "uhlmann"):
        _load(args.inputs[0], lambda data: _absorb_config(args, data))
        _check_params(args, set(params) - given)  # the keys a config filled
    return args


def _check_params(args, keys: set) -> None:
    """Check the ``--param`` values of ``keys`` and ``--trials`` against the
    scenario's table, and put the typed values of ``keys`` in ``args.p``."""
    table = PARAMS[args.scenario]
    unknown = sorted(keys - set(table))
    if unknown:
        raise UsageError(f"{args.scenario} takes no --param {', '.join(unknown)}; "
                         f"it takes {', '.join(sorted(table))}")
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    for key, (kind, _, allowed) in table.items():
        if key not in keys:
            continue
        raw = args.params[key]
        if isinstance(allowed, str):
            args.p[key] = _in_interval(f"--param {key}", raw, kind, allowed)
        elif allowed is None or raw in allowed:
            args.p[key] = raw
        else:
            raise UsageError(f"--param {key}={raw} is not one of {', '.join(allowed)}")


def _dumps(report) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)``, byte for byte."""
    return "".join(_report_chunks(report))


_CHUNK = 4096  # floats formatted per chunk of a float array


def _report_chunks(report):
    """``_dumps(report)`` as strings, no float array as one text. ``json.dumps``
    runs ``_Encoder`` over the whole report first, so one it cannot encode
    raises before a write; the encoder leaves a NUL, which its ASCII text
    never holds, for each float array it keeps aside."""
    arrays = []
    text = json.dumps(report, sort_keys=True, indent=2, cls=_Encoder, arrays=arrays)
    return _chunks(text.split("\0"), arrays)


def _chunks(pieces: list, arrays: list):
    """The text ``pieces`` with each array between two, ``_CHUNK`` floats at a time."""
    yield pieces[0]
    for (values, sep), piece in zip(arrays, pieces[1:]):
        for start in range(0, len(values), _CHUNK):
            part = values[start:start + _CHUNK].tolist()
            yield (sep if start else "") + sep.join(map(float.__repr__, part))
        yield piece


class _Encoder(json.JSONEncoder):
    """What ``json.dumps(report, sort_keys=True, indent=2)`` writes, by ``_encode``
    in one pass instead of the stdlib's pure-Python indenting encoder."""

    def __init__(self, arrays: list, **settings):
        super().__init__(**settings)
        self.arrays = arrays

    def encode(self, obj) -> str:
        parts = []
        _encode(obj, "\n", parts, self.arrays)
        return "".join(parts)


def _encode(obj, ind: str, parts: list, arrays: list) -> None:
    """Append ``json.dumps(obj, sort_keys=True, indent=2)`` to ``parts`` at the
    newline-led indent ``ind``, by the stdlib's rules (float.__repr__, not
    numpy 2's repr; str keys only), with a NUL in place of each non-empty 1-D
    float64 array of finite values, whose (array, item separator) goes to
    ``arrays``. Not a closure calling itself: that cycle would hold the
    arrays until the cyclic collector runs."""
    inner = ind + "  "
    if isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif isinstance(obj, float):
        parts.append(float.__repr__(obj) if math.isfinite(obj) else
                     "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity")
    elif obj is None or obj is True or obj is False:
        parts.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64:
        if obj.size and np.isfinite(obj).all():
            parts += ["[" + inner, "\0", ind + "]"]
            arrays.append((obj, "," + inner))
        else:
            _encode(obj.tolist(), ind, parts, arrays)
    elif isinstance(obj, dict):
        for i, key in enumerate(sorted(obj)):
            parts.append(("," if i else "{") + inner + encode_basestring_ascii(key) + ": ")
            _encode(obj[key], inner, parts, arrays)
        parts.append(ind + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            parts.append(("," if i else "[") + inner)
            _encode(item, inner, parts, arrays)
        parts.append(ind + "]" if obj else "[]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def main(argv=None) -> int:
    start = time.perf_counter()
    try:
        args = _parse(argv if argv is not None else sys.argv[1:])
        results, checks = SCENARIOS[args.scenario](args)
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    except UhlmannLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "scenario": args.scenario,
        "seed": args.seed.value,
        "params": dict(sorted(args.params.items())),
        "results": results,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    chunks = _report_chunks(report)
    try:
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            fh.writelines(chunks)
            fh.write("\n")
    except BrokenPipeError:  # the reader closed stdout; the flush at exit goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    elapsed = time.perf_counter() - start
    summary = ", ".join(f"{c['name']}={'ok' if c['pass'] else 'FAIL'}" for c in checks)
    print(f"[{args.scenario}] {summary or 'no checks'} "
          f"(wall time {elapsed:.2f}s)", file=sys.stderr)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
