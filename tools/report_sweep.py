"""Run a fixed sweep of CLI reports, or compare two sweeps.

    python tools/report_sweep.py OUT.json
    python tools/report_sweep.py --compare A.json B.json

The sweep writes its own input files to a temporary directory, then calls
``uhlmann_lab.cli.main`` in-process (one BLAS thread) for every command
below at ``--seed`` 0, 3 and 11. OUT.json maps each command line (input
files named by their base name) to ``[exit code, stdout]``. The package is
imported from the ``src`` directory next to this script, so a copy of the
script inside another checkout sweeps that checkout.

``--compare`` prints the commands whose exit code changed, the number of
byte-identical reports, and for every other report the largest change of a
numeric field and the fields that moved by more than 1e-12.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

SEEDS = (0, 3, 11)
MOVED = 1e-12

EPR = {"n_qubits": 2, "gates": [{"g": "H", "q": [0]}, {"g": "CNOT", "q": [0, 1]}]}
GHZ3 = {"n_qubits": 3, "gates": [{"g": "H", "q": [0]}, {"g": "CNOT", "q": [0, 1]},
                                 {"g": "CNOT", "q": [1, 2]}]}

EPR2 = {"n_qubits": 4, "gates": [{"g": "H", "q": [0]}, {"g": "CNOT", "q": [0, 2]},
                                 {"g": "H", "q": [1]}, {"g": "CNOT", "q": [1, 3]}]}

SCRAMBLER6 = {"n_qubits": 6, "gates": [
    {"g": g, "q": q} for g, q in (("H", [0]), ("CNOT", [0, 1]), ("H", [3]), ("CNOT", [1, 2]),
                                  ("T", [2]), ("CNOT", [3, 4]), ("CZ", [2, 5]), ("H", [5]),
                                  ("CNOT", [0, 5]), ("S", [4]), ("SWAP", [1, 4]), ("H", [2]),
                                  ("CNOT", [2, 3]), ("Tdg", [0]), ("CNOT", [5, 0]))]}


def _amp(values):
    return [[float(v), 0.0] for v in values]


def _haar_pairs(d: int, seed: int) -> list:
    """A seeded Haar-random state of dimension d as [re, im] pairs."""
    import numpy as np
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.stack([v.real, v.imag], axis=1).tolist()


def input_files() -> dict:
    """File name -> JSON content (or its text) of every input the sweep reads."""
    eps = 0.01
    qutrit = [0.0] * 9
    qutrit[0], qutrit[4], qutrit[8] = math.sqrt(1 - eps), math.sqrt(eps / 2), math.sqrt(eps / 2)
    tilted ={"n_qubits": 2, "gates": [{"g": "H", "q": [0]}, {"g": "T", "q": [0]},
                                       {"g": "CNOT", "q": [0, 1]}, {"g": "H", "q": [1]}]}
    return {
        "qutrit.json": {"raw": {"dA": 3, "dB": 3, "psi": _amp(qutrit), "phi": _amp(qutrit)}},
        "basis11.json": {"raw": {"dA": 2, "dB": 2, "psi": _amp([0, 0, 0, 1]),
                                 "phi": _amp([0, 0, 0, 1])}},
        "circuit_instance.json": {"n": 1, "C": EPR, "D": tilted},
        "szk_config.json": {"instance": "circuit_instance.json", "m": 2, "trials": 40,
                            "prover": "identity"},
        "qip_config.json": {"instance": {"n": 1, "C": EPR, "D": EPR}, "m": 2,
                            "prep_error": 0.02},
        "scheme.json": {"C0": EPR, "C1": tilted, "commit": [0]},
        # The commit register is the last qubit, so the held states are reordered.
        "scheme3.json": {"C0": GHZ3, "C1": {"n_qubits": 3, "gates": [
            {"g": "H", "q": [0]}, {"g": "T", "q": [0]}, {"g": "CNOT", "q": [0, 1]},
            {"g": "H", "q": [2]}, {"g": "CNOT", "q": [1, 2]}]}, "commit": [2]},
        # Two EPR pairs across A = qubits 0, 1 and B = qubits 2, 3, against one
        # EPR pair and a partly entangled pair, turned on B.
        "circuit_instance2.json": {"n": 2, "C": EPR2, "D": {"n_qubits": 4, "gates": [
            {"g": g, "q": q} for g, q in (("H", [0]), ("CNOT", [0, 2]), ("H", [1]), ("T", [1]),
                                          ("H", [1]), ("CNOT", [1, 3]), ("H", [3]),
                                          ("CNOT", [2, 3]))]}},
        "channel.json": {"dilation": GHZ3, "n_input": 1, "env": [2]},
        "channel_env22.json": {"dilation": GHZ3, "n_input": 1, "env": [2, 2]},  # refused
        "blackhole.json": {"circuit": GHZ3, "r": 2},
        "blackhole_r1.json": {"circuit": GHZ3, "r": 1},
        "blackhole_r3.json": {"circuit": GHZ3, "r": 3},
        "blackhole6.json": {"circuit": SCRAMBLER6, "r": 4},
        "pair.json": {"C": {"n_qubits": 2, "gates": [{"g": "H", "q": [1]}]},
                      "D": {"n_qubits": 2, "gates": [{"g": "X", "q": [0]},
                                                     {"g": "H", "q": [1]}]}},
        "pair_parallel.json": {"C": EPR, "D": EPR},  # not orthogonal: refused
        "state.json": GHZ3,
        # Pair lists of ~2.9 MB and ~1.5 MB: longer than the CLI's read slice.
        "raw256.json": {"raw": {"dA": 256, "dB": 256, "psi": _haar_pairs(256 * 256, 1),
                                "phi": _haar_pairs(256 * 256, 2)}},
        # psi = (|0,0> + |5,5>)/sqrt(2): the R of its QR has zero rows 1-4,
        # between the two kept ones.
        "bell55.json": {"raw": {"dA": 8, "dB": 8, "psi": _amp([math.sqrt(0.5) * (i in (0, 45))
                                                               for i in range(64)]),
                                "phi": _haar_pairs(64, 7)}},
        "raw_scheme.json": {"raw": {"dC": 2048, "dR": 16, "psi0": _haar_pairs(2048 * 16, 3),
                                    "psi1": _haar_pairs(2048 * 16, 4)}},
        # Pretty-printed, one number a line: whitespace runs and newline-
        # separated pairs cross the CLI's read blocks.
        "raw256_indented.json": json.dumps({"raw": {
            "dA": 256, "dB": 256, "psi": _haar_pairs(256 * 256, 5),
            "phi": _haar_pairs(256 * 256, 6)}}, indent=1),
    }


COMMANDS = [
    "uhlmann",
    "uhlmann --param kappa=0.7 --param dA=3 --param dB=4",
    "uhlmann --param kappa=0.6 --param dA=4 --param dB=2 --param eta=0.05",
    "uhlmann --param kappa=0.5 --param dA=2 --param dB=8 --param eta=0.3",
    "uhlmann --param kappa=0.5 --param overlap=0.2",
    "uhlmann --param dA=256 --param dB=256",
    "uhlmann --param kappa=0.8 --param dA=256 --param dB=256 --param eta=0.1",
    "uhlmann qutrit.json",
    "uhlmann bell55.json",
    "uhlmann bell55.json --param eta=0.5",
    "uhlmann circuit_instance.json",
    "uhlmann circuit_instance2.json",
    "uhlmann raw256.json",
    "uhlmann raw256_indented.json",
    "szk --param kappa=0.99 --param m=4 --trials 100",
    "szk szk_config.json",
    "szk --param m=4095 --trials 50",
    "qip --param kappa=0.9 --param m=3 --param prep_error=0.05",
    "qip --param m=2 --param prover=identity",
    "qip --param mode=dme --param m=2",
    "qip qip_config.json",
    "qip --param kappa=0.3 --param m=2",
    "qip --param m=12",
    "qip --param m=12 --param prep_error=0.1",
    "qip basis11.json --param m=2 --param prep_error=0.1",
    "qip --param kappa=0.9 --param dA=64 --param dB=64 --param m=2",
    "qip --param kappa=0.9 --param dA=128 --param dB=64 --param m=2",
    "qip --param kappa=0.9 --param dA=512 --param dB=512 --param m=3",
    "szk --param kappa=0.9 --param dA=512 --param dB=512 --param m=3",
    "qip --param kappa=1 --param dA=1 --param dB=4096 --param m=2",
    "szk --param kappa=1 --param dA=1 --param dB=4096 --param m=2",
    "amplify --param k=2 --trials 50",
    "amplify --param k=4 --param nu=0.4 --param T=5",
    "amplify --param k=5 --param nu=0.2 --param T=6",
    "amplify --param k=7 --param T=4",
    "amplify --param k=8 --param T=3",
    "amplify --param k=1 --param T=17",
    "amplify --param k=2 --param T=17",
    "amplify --param k=2 --param T=1000",
    "amplify --param k=3 --param nu=1",
    "amplify --param k=3 --param nu=0",
    "amplify --param k=9 --param T=3",
    "amplify --param k=20000 --param T=3",
    "commit --param schemes=10",
    "commit scheme.json",
    "commit scheme3.json",
    "commit raw_scheme.json",
    "commit --param commit_qubits=5 --param reveal_qubits=5 --param schemes=2",
    "commit --param commit_qubits=1 --param reveal_qubits=3",
    "commit --param commit_qubits=3 --param reveal_qubits=1",
    "commit --param schemes=150",
    "commit --param gates=0",
    "commit --param commit_qubits=10 --param reveal_qubits=10 --param schemes=1",
    # One commit and one reveal qubit: the attack acts on dR = 2.
    "commit --param commit_qubits=1 --param reveal_qubits=1 --param schemes=20",
    "channel --param qubits=5",
    "channel --param qubits=8",
    "channel --param qubits=10",
    "channel --param qubits=11",
    "channel --param qubits=13",
    "channel channel.json",
    "channel channel_env22.json",
    "compress --param source=mm:3 --param s=2 --param seeds=2",
    "compress --param source=diag:0.7,0.1,0.1,0.1,0,0,0,0 --param s=1",
    "compress --param source=haar:8 --param seeds=2",
    "compress --param source=mm:5 --param s=2 --param seeds=1",
    "compress --param source=mm:5 --param s=1 --param seeds=1",
    "compress --param source=mm:5 --param s=0 --param seeds=1",
    "compress --param source=mm:6 --param s=3 --param seeds=1",
    "compress --param source=state.json",
    "blackhole --param qubits=6 --param r=4",
    "blackhole --param qubits=10 --param r=6",
    "blackhole --param qubits=10 --param r=1",
    "blackhole --param qubits=10 --param r=10",
    "blackhole --param qubits=12 --param r=6",
    "blackhole --param qubits=14 --param r=2",
    "blackhole --param qubits=15 --param r=2",
    "blackhole --param qubits=16 --param r=2",
    "blackhole --param qubits=17 --param r=2",
    "blackhole --param qubits=18 --param r=2",
    "blackhole blackhole.json",
    "blackhole blackhole_r1.json",
    "blackhole blackhole_r3.json",
    "blackhole blackhole6.json",
    "interfere --param pairs=3",
    "interfere pair.json",
    "interfere pair_parallel.json",
    "interfere --param qubits=9",
    "interfere --param qubits=6 --param pairs=10",
    # One qubit: two-qubit names become H on integers(1), which draws no word.
    "interfere --param qubits=1 --param pairs=5",
    # Two qubits: the first of choice(2, 2)'s draws has bound 1 and takes no word.
    "interfere --param qubits=2 --param pairs=5",
    "entropy --param state=diag:0.5,0.25,0.25 --param epsilon=0.1",
    "entropy --param state=mm:10",
    "entropy --param state=mm:2 --param epsilon=0.1",
    "entropy --param state=haar:8",
    "entropy --param state=haar:512",
    "entropy --param state=mm:12",
    "entropy state.json",
    "entropy --param state=diag:0.5,0.6",
]


def sweep() -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from uhlmann_lab import cli

    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in input_files().items():
            Path(tmp, name).write_text(content if isinstance(content, str)
                                       else json.dumps(content))
        cwd = os.getcwd()
        os.chdir(tmp)  # config files name their instance relative to here
        try:
            for command in COMMANDS:
                for seed in SEEDS:
                    argv = command.split() + ["--seed", str(seed)]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                    reports[" ".join(argv)] = [code, out.getvalue()]
        finally:
            os.chdir(cwd)
    return reports


def _numbers(node, path=""):
    """Yield (path, value) for every numeric leaf of a parsed report."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numbers(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numbers(value, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)


def _check_passes(report) -> list:
    return [(c["name"], c["pass"]) for c in report.get("checks", [])]


def compare(first: dict, second: dict) -> None:
    identical = 0
    for argv in sorted(set(first) | set(second)):
        if argv not in first or argv not in second:
            print(f"only in {'second' if argv in second else 'first'}: {argv}")
            continue
        (code_a, out_a), (code_b, out_b) = first[argv], second[argv]
        if code_a != code_b:
            print(f"exit {code_a} -> {code_b}: {argv}")
        if out_a == out_b:
            identical += code_a == code_b
            continue
        if not (out_a.strip() and out_b.strip()):
            print(f"stdout emptied or filled: {argv}")
            continue
        rep_a, rep_b = json.loads(out_a), json.loads(out_b)
        if _check_passes(rep_a) != _check_passes(rep_b):
            print(f"check pass values {_check_passes(rep_a)} -> {_check_passes(rep_b)}: {argv}")
        nums_a, nums_b = dict(_numbers(rep_a)), dict(_numbers(rep_b))
        if nums_a.keys() != nums_b.keys():
            print(f"fields differ ({sorted(nums_a.keys() ^ nums_b.keys())[:5]}): {argv}")
        common = nums_a.keys() & nums_b.keys()
        deltas = {k: abs(nums_a[k] - nums_b[k]) for k in common}
        worst = max(deltas.values(), default=0.0)
        moved = sorted(k for k, d in deltas.items() if d > MOVED)
        line = f"max delta {worst:.3g}: {argv}"
        if moved:
            shown = ", ".join(f"{k} {nums_a[k]:.6g} -> {nums_b[k]:.6g}" for k in moved[:6])
            more = f" (+{len(moved) - 6} more)" if len(moved) > 6 else ""
            line += f"\n    moved > {MOVED:g}: {shown}{more}"
        print(line)
    print(f"{identical} of {len(set(first) | set(second))} reports byte-identical "
          f"with equal exit codes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="write the sweep to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        compare(first, second)
        return 0
    if not args.out:
        parser.error("give OUT.json or --compare A B")
    Path(args.out).write_text(json.dumps(sweep(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
