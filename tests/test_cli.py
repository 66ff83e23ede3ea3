import contextlib
import io
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import gate_by_gate, no_eigensolver
from uhlmann_lab import cli, crypto
from uhlmann_lab.cli import _state_from_spec, main
from uhlmann_lab.protocols import default_dme_copies, dme_error_bound
from uhlmann_lab.qcore import gates
from uhlmann_lab.qcore.gates import GateCircuit, random_circuit
from uhlmann_lab.qcore.metrics import PartialIsometryOp
from uhlmann_lab.qcore.random_ops import haar_state_vector
from uhlmann_lab.qcore.states import BipartiteState
from uhlmann_lab.rng import Seed, as_seed


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report


def qutrit_instance_file(tmp_path, eps=0.01):
    amp = lambda v: [[float(c.real), float(c.imag)] for c in v]
    psi = np.zeros(9)
    psi[0] = math.sqrt(1 - eps)
    psi[4] = math.sqrt(eps / 2)
    psi[8] = math.sqrt(eps / 2)
    data = {"raw": {"dA": 3, "dB": 3, "psi": amp(psi), "phi": amp(psi)}}
    path = tmp_path / "qutrit.json"
    path.write_text(json.dumps(data))
    return str(path)


def circuit_szk_config_file(tmp_path):
    """An identity-prover szk run on a circuit instance whose kappa is 1 - 4e-16."""
    epr = [{"g": "H", "q": [0]}, {"g": "CNOT", "q": [0, 1]}]
    tilted = [{"g": "H", "q": [0]}, {"g": "T", "q": [0]}, {"g": "CNOT", "q": [0, 1]},
              {"g": "H", "q": [1]}]
    config = {"instance": {"n": 1, "C": {"n_qubits": 2, "gates": epr},
                           "D": {"n_qubits": 2, "gates": tilted}},
              "m": 2, "trials": 40, "prover": "identity"}
    path = tmp_path / "szk_config.json"
    path.write_text(json.dumps(config))
    return str(path)


def identity_completion(monkeypatch):
    """Replace every Uhlmann unitary by the identity: a broken solver."""
    def identity(self):
        return np.zeros((self.left.shape[0], 0), dtype=complex), np.zeros((0, 0), dtype=complex)

    monkeypatch.setattr(PartialIsometryOp, "completion_factors", identity)


def test_uhlmann_scenario_qutrit(tmp_path, capsys):
    code, report = run_cli(capsys, "uhlmann", qutrit_instance_file(tmp_path))
    assert code == 0
    assert report["pass"]
    flat = np.array(report["results"]["w_matrix"])
    w = (flat[0::2] + 1j * flat[1::2]).reshape(3, 3)
    assert np.linalg.norm(w - np.eye(3), ord=np.inf) < 1e-9


def test_entropy_scenario_maximally_mixed(capsys):
    code, report = run_cli(capsys, "entropy", "--param", "state=mm:3")
    assert code == 0
    assert abs(report["results"]["h_min"] - 3.0) < 1e-9
    assert abs(report["results"]["h_max"] - 3.0) < 1e-9


def test_amplify_scenario_deterministic_bytes(tmp_path, capsys):
    argv = ["amplify", "--param", "nu=0.6", "--param", "k=2", "--param", "T=3",
            "--trials", "50", "--seed", "7"]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1 = main(argv + ["--out", str(out1)])
    code2 = main(argv + ["--out", str(out2)])
    capsys.readouterr()
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_szk_scenario(capsys):
    code, report = run_cli(capsys, "szk", "--param", "kappa=0.99",
                           "--param", "m=4", "--trials", "300", "--seed", "5")
    assert code == 0
    assert report["pass"]
    assert abs(report["results"]["expected_accept"] - 0.99 ** 4) < 1e-9


def test_commit_scenario(capsys):
    code, report = run_cli(capsys, "commit", "--param", "schemes=20", "--seed", "3")
    assert code == 0
    assert report["pass"]


def _per_scheme_commit(args):
    """The commit scenario one scheme at a time, as it ran before its schemes
    were stacked: each scheme's two circuits drawn from its own stream and
    run gate by gate, then evaluate, optimal_binding_attack and flavor_switch
    on that scheme alone."""
    n_c, n_r, n_gates = args.p["commit_qubits"], args.p["reveal_qubits"], args.p["gates"]
    split = (2 ** n_c, 2 ** n_r)
    worst_mlc, worst_flavor, reports = 1.0, -1.0, []
    for i in range(args.p["schemes"]):
        rng = as_seed(args.seed.child("scheme", i).value).child("scheme").generator()
        circuits = [random_circuit(n_c + n_r, n_gates, rng) for _ in range(2)]
        scheme = crypto.CommitmentScheme(tuple(BipartiteState(gate_by_gate(c), split)
                                               for c in circuits))
        rep = crypto.evaluate(scheme, attack=crypto.optimal_binding_attack(
            *(s.as_matrix() for s in scheme.states())))
        worst_mlc = min(worst_mlc, rep.hiding_stat - (1 - math.sqrt(rep.binding_opt)))
        switched = crypto.evaluate(crypto.flavor_switch(scheme))
        worst_flavor = max(worst_flavor, switched.hiding_stat - math.sqrt(rep.binding_opt))
        reports.append({"hiding_stat": rep.hiding_stat, "binding_opt": rep.binding_opt,
                        "binding_attack": rep.binding_attack,
                        "switched_hiding": switched.hiding_stat})
    results = {"count": args.p["schemes"], "schemes": reports[:10],
               "worst_mlc_margin": worst_mlc, "worst_flavor_excess": worst_flavor}
    return results, [
        cli._check("mayers_lo_chau", -worst_mlc, 1e-9, "hiding >= 1 - sqrt(binding) - 1e-9"),
        cli._check("flavor_switch_law", worst_flavor, 1e-8,
                   "switched hiding <= sqrt(binding) + 1e-8")]


@pytest.mark.parametrize("schemes", [1, 10, 150])
@pytest.mark.parametrize("split", [(2, 2), (1, 3), (3, 1), (5, 5)])  # 5/5: blocks of 32
def test_commit_report_equals_the_per_scheme_loop(split, schemes, capsys, monkeypatch):
    argv = ["commit", "--param", f"schemes={schemes}", "--param", f"commit_qubits={split[0]}",
            "--param", f"reveal_qubits={split[1]}"]
    for seed in ("0", "5", "19"):
        stacked = (main(argv + ["--seed", seed]), capsys.readouterr().out)
        with monkeypatch.context() as patch:
            patch.setitem(cli.SCENARIOS, "commit", _per_scheme_commit)
            reference = (main(argv + ["--seed", seed]), capsys.readouterr().out)
        assert stacked == reference and json.loads(stacked[1])["results"]["count"] == schemes


def test_commit_memory_is_bounded_by_the_block(capsys):
    # At 10 qubits a block is 32 schemes, whose metrics peak near 12 MiB; 100
    # schemes stacked at once would peak near 37 MiB.
    assert cli._COMMIT_BLOCK // 2 ** 11 == 32
    tracemalloc.start()
    try:
        code = main(["commit", "--param", "commit_qubits=5", "--param", "reveal_qubits=5",
                     "--param", "schemes=100"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["results"]["count"] == 100
    assert peak < 16 * 2 ** 20


def test_commit_refuses_an_over_cap_flavor_switch_before_any_draw(capsys, monkeypatch):
    # 20 qubits fit the state cap, but the switched pair has 2^21 amplitudes.
    def unreachable(*args):
        raise AssertionError("schemes drawn before the cap check")

    monkeypatch.setattr(crypto, "random_schemes", unreachable)
    code = main(["commit", "--param", "commit_qubits=10", "--param", "reveal_qubits=10",
                 "--param", "schemes=1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: flavor-switched scheme state dimension 2097152 "
                            "exceeds cap 1048576\n")


def test_interfere_scenario(capsys):
    code, report = run_cli(capsys, "interfere", "--param", "pairs=5", "--seed", "2")
    assert code == 0
    assert report["results"]["correct"] == 10


def test_compress_scenario(capsys):
    code, report = run_cli(capsys, "compress", "--param", "source=mm:3",
                           "--param", "s=3", "--param", "seeds=2", "--seed", "4")
    assert code == 0
    assert max(report["results"]["roundtrip_td"]) < 1e-6


def test_blackhole_scenario(capsys):
    code, report = run_cli(capsys, "blackhole", "--param", "qubits=4",
                           "--param", "r=3", "--seed", "1")
    assert code == 0
    assert 0.0 <= report["results"]["epr_fidelity"] <= 1.0 + 1e-12


def test_channel_scenario_with_file(tmp_path, capsys):
    data = {"dilation": {"n_qubits": 2, "gates": [{"g": "CNOT", "q": [0, 1]}]},
            "n_input": 1, "env": [1]}
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(data))
    code, report = run_cli(capsys, "channel", str(path))
    assert code == 0
    assert abs(report["results"]["decoupling_fidelity"] - 0.5) < 1e-9


def test_failing_check_exit_code(capsys, monkeypatch):
    import uhlmann_lab.uhlmann as uhlmann
    argv = ["uhlmann", "--param", "kappa=0.7", "--param", "dA=3", "--param", "dB=4",
            "--seed", "3"]
    code, report = run_cli(capsys, *argv)
    assert code == 0 and report["pass"]
    # A wrong W: the canonical isometry with its weakest singular direction
    # dropped transports only part of the fidelity, at the default tolerance.
    real = uhlmann.canonical_uhlmann

    def truncated(x, eta=0.0):
        w = real(x, eta)
        return PartialIsometryOp(w.left[:, :-1], w.right[:, :-1])

    monkeypatch.setattr(uhlmann, "canonical_uhlmann", truncated)
    code, report = run_cli(capsys, *argv)
    assert code == 1
    assert not report["pass"]


def test_compress_contract_check(capsys):
    code, report = run_cli(capsys, "compress", "--param", "source=mm:3",
                           "--param", "s=1", "--seed", "4",
                           "--param", "seeds=2")
    # Small s makes the contract bound vacuous (1.0): pass with a high td.
    assert code == 0
    assert report["results"]["contract_bound"] == 1.0
    assert report["results"]["max_td"] > 0.2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = main(["uhlmann", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line" in captured.err


def test_unknown_scenario_exit_code(capsys):
    code = main(["not-a-scenario"])
    capsys.readouterr()
    assert code == 2


def test_bad_param_exit_code(capsys):
    code = main(["entropy", "--param", "oops"])
    capsys.readouterr()
    assert code == 2


def test_cap_violation_reports_size(capsys):
    code = main(["entropy", "--param", "state=mm:13"])
    captured = capsys.readouterr()
    assert code == 2
    assert "8192" in captured.err


def test_experiment_config_file_and_transcript(tmp_path, capsys):
    config = {"m": 3, "trials": 40, "prover": "identity", "seed": 9,
              "instance": {"n": 1,
                           "C": {"n_qubits": 2, "gates": [{"g": "H", "q": [0]},
                                                          {"g": "CNOT", "q": [0, 1]}]},
                           "D": {"n_qubits": 2, "gates": [{"g": "H", "q": [0]},
                                                          {"g": "CNOT", "q": [0, 1]}]}}}
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps(config))
    transcript = tmp_path / "rounds.jsonl"
    code, report = run_cli(capsys, "szk", str(cfg_path),
                           "--transcript", str(transcript))
    assert code == 0
    assert report["results"]["m"] == 3
    assert report["results"]["trials"] == 40
    assert report["results"]["prover"] == "identity"
    assert report["seed"] == 9
    lines = transcript.read_text().strip().splitlines()
    assert len(lines) == 40
    record = json.loads(lines[0])
    assert "accepted" in record and record["trial"] == 0


def test_instance_files_are_parsed_once(tmp_path, capsys, monkeypatch):
    import uhlmann_lab.cli as cli
    loads = []
    real = cli._load_json

    def counting(path):
        loads.append(path)
        return real(path)

    monkeypatch.setattr(cli, "_load_json", counting)
    inst = qutrit_instance_file(tmp_path)
    code, _ = run_cli(capsys, "uhlmann", inst)
    assert code == 0 and loads == [inst]
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({"instance": inst, "m": 2, "trials": 10}))
    loads.clear()
    code, report = run_cli(capsys, "szk", str(config), "--param", "prover=identity")
    assert code == 0 and loads == [str(config), inst]
    assert report["results"]["m"] == 2 and report["results"]["trials"] == 10


def test_amplify_ignores_instance_file(tmp_path, capsys):
    # amplify runs on its own EPR instance and never builds the file's, which
    # here is not even normalized.
    bad = tmp_path / "unnormalized.json"
    bad.write_text(json.dumps({"raw": {"dA": 1, "dB": 2, "psi": [[1, 0], [1, 0]],
                                       "phi": [[1, 0], [0, 0]]}}))
    flags = ["--param", "k=2", "--trials", "20", "--seed", "1"]
    code, plain = run_cli(capsys, "amplify", *flags)
    code_file, with_file = run_cli(capsys, "amplify", str(bad), *flags)
    assert code == code_file == 0
    assert with_file == plain


def test_blackhole_rejects_out_of_range_r(capsys):
    for qubits, r in ((6, 0), (6, 7)):
        code = main(["blackhole", "--param", f"qubits={qubits}", "--param", f"r={r}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and "out of range" in captured.err


def test_zero_qubit_scenarios_exit_2(capsys):
    for scenario in ("channel", "blackhole"):
        code = main([scenario, "--param", "qubits=0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error:")


def test_inputs_may_follow_flags(tmp_path, capsys):
    inst = qutrit_instance_file(tmp_path)
    for argvs in ((["uhlmann", inst, "--seed", "1"], ["uhlmann", "--seed", "1", inst]),
                  (["szk", inst, "--param", "m=2", "--trials", "5"],
                   ["szk", "--param", "m=2", "--trials", "5", inst])):
        first, second = (run_cli(capsys, *argv) for argv in argvs)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]


def test_qip_dme_mode_reports_the_derived_bound(tmp_path, capsys):
    # Sizing the copies no longer depends on the (dA dB)^m test-block dimension.
    transcript = tmp_path / "qip.jsonl"
    code, _ = run_cli(capsys, "qip", "--param", "mode=dme", "--param", "m=3",
                      "--transcript", str(transcript))
    assert code == 0
    bound = json.loads(transcript.read_text().splitlines()[0])["measurement_error_bound"]
    assert bound == dme_error_bound(0.5, default_dme_copies(0.05))
    assert bound <= 0.05


def test_qip_rejects_unknown_prover_and_mode(capsys):
    for param in ("prover=cheat", "mode=bogus"):
        code = main(["qip", "--param", "m=2", "--param", param])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and param.split("=")[1] in captured.err


def test_haar_source_follows_seed():
    first, other = (_state_from_spec("haar:8", Seed(s)) for s in (0, 5))
    assert np.abs(first.vectors - other.vectors).max() > 1e-3
    v = haar_state_vector(8, as_seed(0).generator())
    assert np.array_equal(first.vectors, v.reshape(-1, 1))
    assert np.array_equal(first.p, [1.0])


@pytest.mark.parametrize("argv", [
    ["uhlmann", "--param", "eta=-1"], ["uhlmann", "--param", "eta=abc"],
    ["uhlmann", "--param", "eta=nan"],
    ["uhlmann", "--param", "kappa=2"], ["uhlmann", "--param", "dA=0"],
    ["uhlmann", "--param", "kappa=0.5", "--param", "overlap=0.8"],
    ["szk", "--trials", "0"], ["szk", "--seed", "-1"], ["amplify", "--trials", "0"],
    ["szk", "--param", "m=abc"], ["szk", "--param", "m=0"], ["qip", "--param", "m=abc"],
    ["qip", "--param", "m=0"], ["qip", "--param", "prep_error=2"],
    ["amplify", "--param", "nu=1.5"], ["amplify", "--param", "k=0"],
    ["amplify", "--param", "T=0"], ["compress", "--param", "delta=2"],
    ["compress", "--param", "seeds=0"], ["compress", "--param", "s=9"],
    ["entropy", "--param", "epsilon=1"], ["entropy", "--param", "state=diag:0.5,0.6"],
    ["channel", "--param", "qubits=abc"], ["blackhole", "--param", "r=abc"],
    ["interfere", "--param", "qubits=0"], ["interfere", "--param", "qubits=70"],
    ["interfere", "--param", "pairs=0"],
    ["commit", "--param", "schemes=0"],
    ["entropy", "--param", "state=mm:abc"], ["entropy", "--param", "state=haar:x"],
    ["entropy", "--param", "state=haar:0"], ["entropy", "--param", "state=mm:-1"],
    ["compress", "--param", "source=mm:abc"], ["compress", "--param", "source=haar:x"],
    ["compress", "--param", "source=haar:0"], ["compress", "--param", "source=mm:-1"]])
def test_invalid_values_exit_2(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("scenario, circuits", [("commit", 6), ("interfere", 6), ("szk", 2)])
def test_each_circuit_is_simulated_once(scenario, circuits, tmp_path, capsys, monkeypatch):
    # 3 schemes or 3 pairs of two circuits each; one circuit-form szk instance.
    argv = {"commit": ["commit", "--param", "schemes=3"],
            "interfere": ["interfere", "--param", "pairs=3"],
            "szk": ["szk", circuit_szk_config_file(tmp_path)]}[scenario]
    # Every simulation goes through the one gate loop, a stack of circuits per call.
    calls = []
    real = gates.run_gates
    monkeypatch.setattr(gates, "run_gates",
                        lambda circs, *rest: calls.extend(circs) or real(circs, *rest))
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(calls) == len(set(map(id, calls))) == circuits


def test_over_cap_circuit_instance_exits_2(tmp_path, capsys):
    circ = {"n_qubits": 22, "gates": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 11, "C": circ, "D": circ}))
    code = main(["uhlmann", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "4194304" in captured.err


@pytest.mark.parametrize("spec, size", [("mm:14", "2^14"), ("haar:4097", "4097")])
def test_over_cap_state_spec_exits_2_before_building(spec, size, capsys, monkeypatch):
    import uhlmann_lab.cli as cli
    monkeypatch.setattr(cli, "haar_state_vector", None)  # never reached
    code = main(["entropy", "--param", f"state={spec}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and size in captured.err


def test_over_cap_circuit_state_exits_2_before_simulating(tmp_path, capsys, monkeypatch):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n_qubits": 13, "gates": [{"g": "H", "q": [0]}]}))
    monkeypatch.setattr(GateCircuit, "state", None)  # never reached
    code = main(["entropy", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "8192" in captured.err


@pytest.mark.parametrize("argv", [["channel", "--param", "qubits=8"],
                                  ["blackhole", "--param", "qubits=10", "--param", "r=1"]])
def test_decoding_builds_no_density(argv, capsys, monkeypatch):
    import uhlmann_lab.qcore.linalg as linalg
    import uhlmann_lab.qcore.metrics as metrics
    from uhlmann_lab.qcore.states import DensityOp

    def unreachable(*args, **kwargs):
        raise AssertionError("dense path taken")

    monkeypatch.setattr(metrics, "fidelity", unreachable)
    monkeypatch.setattr(linalg, "psd_sqrt", unreachable)
    monkeypatch.setattr(DensityOp, "__post_init__", unreachable)
    code, report = run_cli(capsys, *argv)
    assert code == 0 and report["pass"]


@pytest.mark.parametrize("argv", [
    ["uhlmann"],
    ["szk", "--param", "m=4", "--trials", "50"],
    ["qip", "--param", "m=2"],
    ["qip", "--param", "m=3", "--param", "prep_error=0.05"],
    ["qip", "--param", "mode=dme", "--param", "m=2"],
    ["qip", "--param", "m=2", "--param", "prover=identity"],
    ["qip", "CONFIG"],
    ["amplify", "--param", "k=2"],
    ["commit", "--param", "schemes=2"],
    ["channel", "--param", "qubits=5"],
    ["compress", "--param", "source=mm:3", "--param", "s=2", "--param", "seeds=1"],
    ["blackhole", "--param", "qubits=6", "--param", "r=4"],
    ["interfere", "--param", "pairs=3"],
    ["entropy", "--param", "state=haar:8"]])
def test_no_scenario_builds_a_density_operator(argv, tmp_path, capsys, monkeypatch):
    from uhlmann_lab.qcore.states import DensityOp

    def unreachable(*args, **kwargs):
        raise AssertionError("DensityOp built")

    if "CONFIG" in argv:
        epr = {"n_qubits": 2, "gates": [{"g": "H", "q": [0]}, {"g": "CNOT", "q": [0, 1]}]}
        config = tmp_path / "qip_config.json"
        config.write_text(json.dumps({"instance": {"n": 1, "C": epr, "D": epr}, "m": 2,
                                      "prep_error": 0.02}))
        argv = [str(config) if a == "CONFIG" else a for a in argv]
    monkeypatch.setattr(DensityOp, "__post_init__", unreachable)
    code, report = run_cli(capsys, *argv)
    assert code == 0 and report["pass"]


@pytest.mark.parametrize("extra", [[], ["--param", "prep_error=0.1"],
                                   ["--param", "prover=identity"]])
def test_qip_at_the_density_cap_holds_only_factors(extra, capsys):
    # A (dA dB)^2 density at dA = dB = 64 is 256 MiB; the run holds factors.
    tracemalloc.start()
    try:
        code = main(["qip", "--param", "kappa=0.9", "--param", "dA=64", "--param", "dB=64",
                     "--param", "m=2", *extra])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["pass"] and report["checks"]
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("argv", [
    ["--param", "m=3", "--param", "prep_error=0.05", "--param", "kappa=0.9"],
    ["--param", "m=2", "--param", "kappa=0.9", "--param", "overlap=0.3",
     "--param", "prover=identity"],
    ["--param", "m=2", "--param", "kappa=0.7", "--param", "dA=3", "--param", "dB=4"],
    ["--param", "m=4", "--param", "kappa=0.95", "--param", "overlap=0.6",
     "--param", "prover=identity", "--param", "prep_error=0.2"]])
def test_qip_output_distance_matches_the_dense_reference(argv, capsys, monkeypatch):
    import uhlmann_lab.protocols as protocols
    from uhlmann_lab.qcore.metrics import trace_distance
    from uhlmann_lab.qcore.states import DensityOp
    from uhlmann_lab.uhlmann import apply_uhlmann
    runs, real = [], protocols.qip_run
    monkeypatch.setattr(protocols, "qip_run",
                        lambda x, *a: runs.append((x, real(x, *a))) or runs[-1][1])
    code, report = run_cli(capsys, "qip", *argv)
    (x, res), = runs
    psi = x.states()[0]
    factor = res.output_factor
    want = trace_distance(DensityOp(factor @ factor.conj().T, psi.split),
                          apply_uhlmann(x, 0.0, psi).density())
    assert code == 0
    assert abs(report["results"]["output_distance"] - want) < 1e-14


def test_szk_simulator_check_at_kappa_one(tmp_path, capsys, monkeypatch):
    # kappa = 1 - 4e-16: both sides of the check are square roots of float noise.
    config = circuit_szk_config_file(tmp_path)
    code, report = run_cli(capsys, "szk", config)
    assert code == 0
    assert report["results"]["kappa"] < 1.0
    argv = ["szk", "--param", "kappa=0.99", "--param", "overlap=0.5", "--param", "m=2"]
    _, report = run_cli(capsys, *argv)
    sim = {c["name"]: c for c in report["checks"]}["simulator_distance"]
    assert sim["pass"] and sim["measured"] > 0.17
    identity_completion(monkeypatch)
    _, report = run_cli(capsys, *argv)
    assert not {c["name"]: c for c in report["checks"]}["simulator_distance"]["pass"]


def test_uhlmann_completion_check_can_fail(capsys, monkeypatch):
    argv = ["uhlmann", "--param", "kappa=0.5", "--param", "overlap=0.2"]
    for eta in ("0", "0.1"):
        code, report = run_cli(capsys, *argv, "--param", f"eta={eta}")
        assert code == 0 and report["checks"][1]["name"] == "completion_fidelity"
    # A non-unitary "completion" I + Q (1.2 V - I) Q^dag, here 1.2 U (Q spans
    # the qubit B), whose overlap, 1.44 kappa, lies between kappa and 1.
    real = PartialIsometryOp.completion_factors
    monkeypatch.setattr(PartialIsometryOp, "completion_factors",
                        lambda self: (lambda q, v: (q, 1.2 * v))(*real(self)))
    code, report = run_cli(capsys, *argv, "--param", "eta=0.1")
    assert code == 1
    assert [c["pass"] for c in report["checks"]] == [True, False]
    identity_completion(monkeypatch)
    code, report = run_cli(capsys, *argv)
    assert code == 1
    assert [c["pass"] for c in report["checks"]] == [True, False]


def test_interference_cap_is_checked_before_any_circuit_is_simulated(capsys, monkeypatch):
    def unreachable(self):
        raise AssertionError("simulated before the cap check")

    monkeypatch.setattr(GateCircuit, "state", unreachable)
    code = main(["interfere", "--param", "qubits=9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "interference instance dimension 4194304" in captured.err


@pytest.mark.parametrize("d_gates, reason", [
    ([{"g": "H", "q": [1]}], "states are not orthogonal: |<C|D>| = 1"),
    (None, "circuits act on different qubit counts")], ids=["not_orthogonal", "qubit_counts"])
def test_interfere_file_pair_must_be_orthogonal_on_equal_qubits(d_gates, reason, tmp_path,
                                                                capsys):
    c = {"n_qubits": 2, "gates": [{"g": "H", "q": [1]}]}
    d = {"n_qubits": 2, "gates": d_gates} if d_gates else {"n_qubits": 3, "gates": []}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"C": c, "D": d}))
    code = main(["interfere", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: {reason}\n"


@pytest.mark.parametrize("argv, config", [
    (["--seed", "-1"], None), (["--seed", str(2 ** 64)], None), ([], {"seed": 2 ** 64})])
def test_a_seed_outside_64_bits_exits_2(argv, config, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"instance": {"n": 1, "C": EPR_GATES, "D": EPR_GATES},
                                    **config}))
        argv = [str(path)] + argv
    code = main(["szk"] + argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    value = config["seed"] if config else argv[-1]
    assert captured.err == f"error: seed must be a 64-bit unsigned integer, got {value}\n"


@pytest.mark.parametrize("argv", [
    ["uhlmann", "--param", "kappa=0.7", "--param", "dA=3", "--param", "dB=4"],
    ["szk", "--param", "kappa=0.9", "--param", "m=3", "--trials", "20"],
    ["szk", "--param", "kappa=0.9", "--param", "m=2", "--param", "prover=identity",
     "--trials", "20"],
    ["commit", "--param", "schemes=3"],
    ["qip", "--param", "kappa=0.9", "--param", "m=2"],
])
def test_pure_and_purified_paths_run_no_dense_fidelity(argv, capsys, monkeypatch):
    import sys
    from uhlmann_lab.qcore import linalg, metrics

    def dense(*args):
        raise AssertionError("dense fidelity on a pure or purified input")

    for original in (metrics.fidelity, linalg.psd_sqrt):
        for name, module in list(sys.modules.items()):
            if name.startswith("uhlmann_lab"):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, dense)
    code, report = run_cli(capsys, *argv)
    assert code == 0 and report["pass"]


def test_amplify_cap_is_checked_before_the_solver_is_built(capsys, monkeypatch):
    import uhlmann_lab.protocols as protocols

    def unreachable(*args):
        raise AssertionError("solved before the cap check")

    monkeypatch.setattr(protocols, "canonical_uhlmann", unreachable)
    code = main(["amplify", "--param", f"k={2 ** 20 + 1}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "amplifier per-index fidelities dimension 1048577" in captured.err


def test_amplify_walk_cap_is_checked_before_the_solver_is_built(capsys, monkeypatch):
    import uhlmann_lab.protocols as protocols

    def unreachable(*args):
        raise AssertionError("solved before the cap check")

    monkeypatch.setattr(protocols, "canonical_uhlmann", unreachable)
    # T rounds of a 12 x 12 state fit 2^20 up to T = 7281.
    for rounds in (7282, 10 ** 12):
        code = main(["amplify", "--param", f"T={rounds}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and f"amplifier walk dimension {144 * rounds}" in captured.err


def test_amplify_runs_at_the_walk_cap(capsys):
    code, report = run_cli(capsys, "amplify", "--param", "k=2", "--param", "T=7281")
    assert code == 0 and report["pass"]


@pytest.mark.parametrize("k, bound", [(9, 0.0), (20000, 0.193)])
def test_amplify_runs_past_the_k_fold_caps(k, bound, capsys):
    # k = 9 was refused while the solver was a k-fold matrix; past
    # k = (32 T)^2 the bound is positive, and the check can read it.
    code, report = run_cli(capsys, "amplify", "--param", f"k={k}", "--param", "T=3")
    assert code == 0 and round(report["results"]["bound"], 3) == bound
    assert len(report["results"]["per_index_fidelity"]) == k


@pytest.mark.parametrize("argv, shift", [
    (["--param", "kappa=0.3", "--param", "m=2"], 0.01),
    (["--param", "kappa=0.3", "--param", "m=2", "--param", "prover=identity"], 0.01),
    (["--param", "kappa=0.9", "--param", "m=3", "--param", "prep_error=0.05"], -0.01),
    (["--param", "prep_error=1"], -0.01)])
def test_qip_accept_checks_can_fail(argv, shift, capsys, monkeypatch):
    import dataclasses
    import uhlmann_lab.protocols as protocols
    code, report = run_cli(capsys, "qip", *argv)
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert "accept_upper" in names
    assert ("accept_lower" in names) == ("prover=identity" not in argv)
    real = protocols.qip_run
    monkeypatch.setattr(protocols, "qip_run", lambda *a: dataclasses.replace(
        real(*a), accept_prob=real(*a).accept_prob + shift))
    code, report = run_cli(capsys, "qip", *argv)
    assert code == 1


def test_qip_soundness_bound_is_stable_at_kappa_one(capsys, monkeypatch):
    from uhlmann_lab import uhlmann
    real = uhlmann.validate_instance
    bounds = []
    for kappa in (1.0, 1.0 - 1e-16):
        monkeypatch.setattr(uhlmann, "validate_instance",
                            lambda x, kappa=kappa: {**real(x), "kappa": kappa})
        code, report = run_cli(capsys, "qip", "--param", "m=2")
        check = report["checks"][0]
        assert code == 0 and check["name"] == "soundness_envelope"
        bounds.append(check["bound"])
    assert report["results"]["kappa"] < 1.0
    assert abs(bounds[0] - bounds[1]) < 1e-10


@pytest.mark.parametrize("seed", [22, 25, 37])
def test_qip_soundness_reads_the_output_given_acceptance(seed, tmp_path, capsys):
    # The honest prover's coin rejects at these seeds; the verifier still
    # returns the output given acceptance, which the soundness check measures.
    transcript = tmp_path / "qip.jsonl"
    code, report = run_cli(capsys, "qip", "--param", "m=9", "--param", "prep_error=0.1",
                           "--seed", str(seed), "--transcript", str(transcript))
    assert not json.loads(transcript.read_text())["accepted"]
    assert code == 0
    assert report["checks"][0]["name"] == "soundness_envelope" and report["checks"][0]["pass"]
    assert report["results"]["output_distance"] < 1e-9


def test_qip_junk_block_when_c_is_the_last_basis_state(tmp_path, capsys):
    # C = D = |11>: the oracle's junk block starts from |00> instead.
    path = tmp_path / "basis11.json"
    one = [[0, 0]] * 3 + [[1, 0]]
    path.write_text(json.dumps({"raw": {"dA": 2, "dB": 2, "psi": one, "phi": one}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = run_cli(capsys, "qip", str(path), "--param", "m=2",
                               "--param", "prep_error=0.1")
    assert code == 0
    assert abs(report["results"]["accept_prob"] - 0.9) < 1e-12


@pytest.mark.parametrize("scenario", ["szk", "qip"])
def test_slot_count_is_capped_before_the_prover_is_built(scenario, capsys, monkeypatch):
    from uhlmann_lab import protocols

    def unreachable(*args):
        raise AssertionError("prover built before the slot cap check")

    monkeypatch.setattr(protocols.ProverStrategy, "honest", staticmethod(unreachable))
    code = main([scenario, "--param", "m=2000000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "permutation-test slots" in captured.err


def test_entropy_of_a_diagonal_state_runs_no_eigensolver(capsys, monkeypatch):
    no_eigensolver(monkeypatch)
    code, report = run_cli(capsys, "entropy", "--param", "state=mm:11")
    assert code == 0 and report["pass"]
    res = report["results"]
    assert (res["h_min"], res["h2_lower"]) == (11.0, 1.0)
    assert abs(res["h_max"] - 11.0) < 1e-12


def test_compress_admits_what_the_factor_cap_admits(capsys):
    from uhlmann_lab import shannon
    from uhlmann_lab.qcore.states import maximally_mixed
    code, report = run_cli(capsys, "compress", "--param", "source=mm:5", "--param", "s=2",
                           "--param", "seeds=1")
    assert code == 0
    codec = shannon.compress(maximally_mixed((2,) * 5), 0.1, Seed(0).child("codec", 0), s=2)
    d, d_c, d_e = 32, 4, 8
    enc = codec.encoder.isometry.reshape(d_c, d_e * d_e, d)
    dec = codec.decoder.isometry.reshape(d, d_e, d_c)
    psi = np.eye(d) / math.sqrt(d)  # (A, R) coefficients of a purification
    branches = np.einsum("xfc,cea,ar->xrfe", dec, enc, psi).reshape(d * d, -1)
    out = branches @ branches.conj().T  # the 1024 x 1024 output density
    diff = out - np.outer(psi.reshape(-1), psi.reshape(-1))
    want = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
    assert abs(report["results"]["max_td"] - want) < 1e-10
    # The encoder's output factor is narrowed to its rank before the decoder
    # push: at mm:5 s=1 it is 64 x 256, so the push holds 2^20 entries, not 2^22.
    code, report = run_cli(capsys, "compress", "--param", "source=mm:5", "--param", "s=1",
                           "--param", "seeds=1")
    assert code == 0 and report["pass"]
    for s in (2, 3):
        assert main(["compress", "--param", "source=mm:6", "--param", f"s={s}",
                     "--param", "seeds=1"]) == 2
        assert "roundtrip factor" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["blackhole", "--param", "qubits=12", "--param", "r=6"],
                                  ["blackhole", "--param", "qubits=14", "--param", "r=2"],
                                  ["channel", "--param", "qubits=11"],
                                  ["blackhole", "--param", "qubits=17", "--param", "r=2"]])
def test_decoding_admits_what_its_isometries_admit(argv, capsys):
    # The Clifford's two input columns and the decoder's dB input columns are
    # all that is built, so these run though a 2^n x 2^n unitary is over cap.
    code, report = run_cli(capsys, *argv)
    assert code == 0 and report["pass"]


@pytest.mark.parametrize("argv, what", [
    (["channel", "--param", "qubits=13"], "decoder isometry dimension 67108864"),
    (["blackhole", "--param", "qubits=20", "--param", "r=2"],
     "materialized Clifford dimension 2097152"),
    (["blackhole", "--param", "qubits=18", "--param", "r=2"],
     "decoupling product factor dimension 2097152"),
    (["blackhole", "--param", "qubits=12", "--param", "r=12"], "decoder isometry dimension")])
def test_oversize_decoding_exits_2_before_allocating(argv, what, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("random_clifford called")

    # Every cap is checked from n and r before the Clifford is drawn.
    monkeypatch.setattr(cli, "random_clifford", never)
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and what in capsys.readouterr().err
    # The refused array would be 8 MiB or more (the two Clifford columns at
    # n = 18); nothing of the run's size is built.
    assert peak < 2 ** 20


def test_channel_file_checks_the_decoding_caps_before_simulating(tmp_path, capsys,
                                                                 monkeypatch):
    # 19 qubits pass the 2^19 x 2 input block, but the decoupling product
    # factor (2^3 x 2^19 entries) exceeds the cap: the 400 gates never run.
    real, built = cli.channel_from_circuit, []
    monkeypatch.setattr(cli, "channel_from_circuit",
                        lambda *args: built.append(args) or real(*args))
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"dilation": {"n_qubits": 2, "gates": [{"g": "H", "q": [0]}]},
                                "n_input": 1, "env": [1]}))
    assert main(["channel", str(path)]) == 0 and len(built) == 1
    capsys.readouterr()
    gates = [{"g": "H", "q": [i % 19]} for i in range(400)]
    path.write_text(json.dumps({"dilation": {"n_qubits": 19, "gates": gates},
                                "n_input": 1, "env": [18]}))
    code = main(["channel", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and len(built) == 1
    assert captured.err.startswith(f"error: {path}: decoupling product factor dimension "
                                   "4194304 exceeds cap 1048576")


@pytest.mark.parametrize("env", [[2, 2], [3], [-1]], ids=["repeated", "past_n", "negative"])
def test_channel_file_env_lists_distinct_qubits(env, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("circuit simulated")

    monkeypatch.setattr(GateCircuit, "apply", never)
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"dilation": _GHZ3, "n_input": 1, "env": env}))
    code = main(["channel", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: env {env} must list distinct qubits in [0, 3)\n"


@pytest.mark.parametrize("scenario, content, what", [
    ("channel", {"dilation": {"n_qubits": 40, "gates": []}, "n_input": 1, "env": [39]},
     "state vector dimension 2199023255552"),
    ("blackhole", {"circuit": {"n_qubits": 40, "gates": []}, "r": 2},
     "decoupling product factor dimension"),
    ("blackhole", {"circuit": {"n_qubits": 18, "gates": [{"g": "H", "q": [0]}]}, "r": 2},
     "decoupling product factor dimension 2097152"),
    ("blackhole", {"circuit": {"n_qubits": 12, "gates": []}, "r": 12},
     "decoder isometry dimension"),
    ("blackhole", {"circuit": {"n_qubits": 3, "gates": []}, "r": 0}, "r=0 out of range [1, 3]")],
    ids=["channel_n40", "blackhole_n40", "blackhole_n18", "blackhole_n12_r12", "blackhole_r0"])
def test_oversize_circuit_file_exits_2_before_simulating(scenario, content, what, tmp_path,
                                                         capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("circuit simulated")

    # The caps and r are checked from the file's n before the circuit runs.
    monkeypatch.setattr(GateCircuit, "apply", never)
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(content))
    code = main([scenario, str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and what in captured.err


@pytest.mark.parametrize("source", ["haar:128", "haar:1024", "mm:7"])
def test_compress_roundtrip_cap_is_checked_before_any_codec(source, capsys, monkeypatch):
    from uhlmann_lab import shannon

    def never(*args, **kwargs):
        raise AssertionError("codec built")

    monkeypatch.setattr(shannon, "compress", never)
    assert main(["compress", "--param", f"source={source}", "--param", "seeds=1"]) == 2
    assert "roundtrip state dimension" in capsys.readouterr().err


def test_amplify_solver_fidelity_check_can_fail(capsys, monkeypatch):
    import uhlmann_lab.protocols as protocols
    argv = ["amplify", "--param", "k=3", "--param", "nu=0.5", "--trials", "20"]
    code, report = run_cli(capsys, *argv)
    assert code == 0
    assert [c["name"] for c in report["checks"]] == ["amplification_bound", "solver_fidelity"]
    # A solver built for another fidelity than the one requested.
    real = protocols.engineered_solver
    monkeypatch.setattr(protocols, "engineered_solver", lambda x, k, nu: real(x, k, nu + 0.01))
    code, report = run_cli(capsys, *argv)
    assert code == 1
    assert [c["pass"] for c in report["checks"]] == [True, False]


@pytest.mark.parametrize("argv", [["channel", "--param", "qubits=4"],
                                  ["blackhole", "--param", "qubits=10", "--param", "r=6"]])
def test_decoder_check_can_fail(argv, capsys, monkeypatch):
    import uhlmann_lab.shannon as shannon
    code, report = run_cli(capsys, *argv)
    assert code == 0
    assert report["checks"][0]["name"] == "decoder_vs_decoupling"
    real = shannon.decoder_from_uhlmann

    def worse(ch):
        decoded = real(ch)
        return {**decoded, "fidelity": decoded["fidelity"] - 1e-6}

    monkeypatch.setattr(shannon, "decoder_from_uhlmann", worse)
    code, report = run_cli(capsys, *argv)
    assert code == 1 and not report["checks"][0]["pass"]


EPR_GATES = {"n_qubits": 2, "gates": [{"g": "H", "q": [0]}, {"g": "CNOT", "q": [0, 1]}]}


def _raw(psi, **extra):
    return {"raw": {"dA": 1, "dB": 2, "psi": psi, "phi": [[1, 0], [0, 0]], **extra}}


@pytest.mark.parametrize("scenario, content", [
    ("uhlmann", _raw([[1, 0], [1, 0]])),
    ("uhlmann", _raw([["NaN", 0], [0, 0]])),
    ("uhlmann", '{"raw": {"dA": 1, "dB": 2, "psi": [[NaN, 0], [0, 0]], "phi": [[1, 0], [0, 0]]}}'),
    ("uhlmann", {"raw": {"dA": 1, "psi": [[1, 0], [0, 0]], "phi": [[1, 0], [0, 0]]}}),
    ("uhlmann", {"n": 1, "C": {"n_qubits": 2, "gates": [{"g": "Q", "q": [0]}]}, "D": EPR_GATES}),
    ("szk", [1, 2]),
    ("szk", {"instance": {"n": 1, "C": EPR_GATES, "D": EPR_GATES}, "trials": "many"}),
    ("qip", {"instance": _raw([[1, 0], [1, 0]]), "m": 2}),
    ("commit", {"C0": EPR_GATES, "commit": [0]}),
    ("channel", {"dilation": EPR_GATES, "n_input": 1}),
    ("blackhole", {"circuit": EPR_GATES, "r": 5}),
    ("interfere", {"C": EPR_GATES, "D": {"n_qubits": 2, "gates": [{"g": "H", "q": [9]}]}}),
    ("entropy", {"gates": []}),
    ("uhlmann", _raw([["1", "0"], ["0", "0"]])),
    ("uhlmann", _raw([[1, 0, 0], [0, 0, 0]])),
    ("uhlmann", _raw([[1, 0], [0]])),
    ("commit", {"raw": {"dC": 1, "dR": 2, "psi0": [[1, 0], ["0", 0]],
                        "psi1": [[0, 0], [1, 0]]}}),
], ids=["unnormalized", "nan_string", "nan_literal", "missing_dB", "unknown_gate",
        "config_list", "config_trials", "config_inline_instance", "commit", "channel",
        "blackhole", "interfere", "entropy_state", "string_pairs", "three_element_pairs",
        "ragged_pairs", "commit_string_pair"])
def test_malformed_input_file_exits_2(scenario, content, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    code = main([scenario, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("scenario, text", [
    ("uhlmann", '"T"'), ("szk", '"m"'), ("amplify", '"s"'), ("uhlmann", '["m"]'),
    ("qip", "5"), ("commit", "null"), ("channel", '"dilation"'), ("blackhole", "[]"),
    ("interfere", '"C"'), ("entropy", '"n_qubits"'),
])
def test_a_document_that_is_not_an_object_exits_2(scenario, text, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text)
    code = main([scenario, str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: expected a JSON object\n"


@pytest.mark.parametrize("scenario, content, field", [
    ("uhlmann", {"n": 1.5, "C": EPR_GATES, "D": EPR_GATES}, "n"),
    ("uhlmann", {"n": True, "C": EPR_GATES, "D": EPR_GATES}, "n"),
    ("uhlmann", {"n": 1, "C": {"n_qubits": 2, "gates": [{"g": "H", "q": [0.5]}]},
                 "D": EPR_GATES}, "gate target q"),
    ("commit", {"C0": EPR_GATES, "C1": EPR_GATES, "commit": [0.5]}, "commit"),
    ("szk", {"instance": {"raw": {"dA": 1.0, "dB": 2, "psi": [[1, 0], [0, 0]],
                                  "phi": [[1, 0], [0, 0]]}}}, "dA"),
    ("szk", {"instance": {"n": 1, "C": EPR_GATES, "D": EPR_GATES}, "trials": 4.5}, "trials"),
    ("channel", {"dilation": EPR_GATES, "n_input": True, "env": [1]}, "n_input"),
    ("channel", {"dilation": EPR_GATES, "n_input": 1, "env": [1.0]}, "env"),
    ("blackhole", {"circuit": EPR_GATES, "r": 1.5}, "r"),
    ("entropy", {"n_qubits": 2.0, "gates": []}, "n_qubits"),
])
def test_a_file_integer_field_must_be_an_integer(scenario, content, field, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code = main([scenario, str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {path}: {field} must be an integer, got ")


def test_the_instance_is_built_after_the_params_are_checked(tmp_path, capsys, monkeypatch):
    from uhlmann_lab.uhlmann import UhlmannInstance

    def unreachable(data):
        raise AssertionError("instance built before the --param values were checked")

    def unread(path):
        raise AssertionError("file read before the command-line --param values were checked")

    inst = qutrit_instance_file(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"instance": json.loads((tmp_path / "qutrit.json").read_text()),
                                  "m": 0}))
    monkeypatch.setattr(UhlmannInstance, "from_json_dict", staticmethod(unreachable))
    for argv, bad in ((["uhlmann", inst, "--param", "eta=-1"], "eta=-1"),
                      (["szk", inst, "--param", "m=0"], "m=0"),
                      (["szk", str(config)], "m=0")):
        # A command-line value is checked before the first file is read at all.
        with monkeypatch.context() as patch:
            if "--param" in argv:
                patch.setattr(cli, "_load_json", unread)
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: --param {bad} out of range")


@pytest.mark.parametrize("dA", [100000, 4097])
def test_generated_instance_cap_is_checked_before_the_locals_are_drawn(dA, capsys,
                                                                       monkeypatch):
    import uhlmann_lab.uhlmann as uhlmann

    def unreachable(*args):
        raise AssertionError("local unitary drawn before the cap check")

    monkeypatch.setattr(uhlmann, "haar_unitary", unreachable)
    code = main(["uhlmann", "--param", f"dA={dA}", "--param", "dB=2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: local unitary dimension {dA} exceeds cap 4096")


def test_generated_instance_state_cap():
    from uhlmann_lab.errors import DimensionCapError
    from uhlmann_lab.uhlmann import instance_with_fidelity
    with pytest.raises(DimensionCapError, match="instance state dimension 4194304"):
        instance_with_fidelity(0.5, 2048, 2048, 0)


@pytest.mark.parametrize("report", [
    {"scenario": "x", "results": {"a": {"b": {"c": [0.5, -1.25]}}, "d": {}}, "pass": True},
    {"empty": [], "ints": [1, 2, 3], "mixed": [1, 2.5, -3], "bools": [True, False, None]},
    {"edges": [-0.0, 5e-324, 1e16, 1.7976931348623157e308, 0.1, -2.5e-7],
     "scalar": -0.0, "nested": [[0.25], [], [[1e-300, 3.0]], {"k": [2.0]}]},
    {"nonfinite": [1.0, float("nan"), float("inf"), -float("inf")],
     "inner": [[float("nan")], [0.5]]},
    {"SPLICE0": [0.5], "s": "SPLICE1", "t": "xSPLICE_0", "u": "éSPLICE\n", "v": [1.5]},
    [0.5, 0.25],
    [[1.0, 2.0], []],
    [],
])
def test_report_writer_matches_json_dumps(report):
    from uhlmann_lab.cli import _dumps
    assert _dumps(report) == json.dumps(report, sort_keys=True, indent=2)


def test_report_writer_leaves_no_cycle_holding_the_report():
    # With the cyclic collector off, the report's float lists are freed as
    # soon as the caller drops the report.
    import gc
    import weakref
    from uhlmann_lab.cli import _dumps

    class Floats(list):
        pass

    report = {"w_matrix": Floats([0.5, -1.25]), "nested": [Floats([2.0])]}
    refs = [weakref.ref(report["w_matrix"]), weakref.ref(report["nested"][0])]
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert _dumps(report) == json.dumps(report, sort_keys=True, indent=2)
        del report
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("content", ['{"raw": {}}', '{"raw": ', None])
def test_load_json_restores_the_collector_state(collecting, content, tmp_path):
    import gc
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    enabled = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if content == '{"raw": {}}':
            assert cli._load_json(str(path)) == {"raw": {}}
        else:  # a parse error, or a missing file
            with pytest.raises(cli.UsageError):
                cli._load_json(str(path))
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if enabled else gc.disable)()


def test_interfere_solves_one_controlled_swap_per_pair(capsys, monkeypatch):
    import uhlmann_lab.physics as physics
    real = physics.controlled_swap_from_uhlmann
    solved = []
    monkeypatch.setattr(physics, "controlled_swap_from_uhlmann",
                        lambda pair: solved.append(pair) or real(pair))
    code, report = run_cli(capsys, "interfere", "--param", "pairs=3")
    assert code == 0 and report["results"]["correct"] == 6
    assert len(solved) == 3 and len({id(pair) for pair in solved}) == 3


def test_amplify_computes_the_folded_fidelity_once(capsys, monkeypatch):
    import uhlmann_lab.protocols as protocols
    real = protocols.folded_fidelity
    calls = []
    monkeypatch.setattr(protocols, "folded_fidelity",
                        lambda *args: calls.append(args) or real(*args))
    code, report = run_cli(capsys, "amplify", "--param", "k=3", "--trials", "20")
    assert code == 0 and len(calls) == 1
    assert report["results"]["nu"] == real(*calls[0])


def test_szk_builds_transcript_records_only_when_asked(tmp_path, capsys, monkeypatch):
    import uhlmann_lab.protocols as protocols
    real = protocols._szk_record
    built = []
    monkeypatch.setattr(protocols, "_szk_record",
                        lambda *args: built.append(1) or real(*args))
    argv = ["szk", "--param", "m=3", "--trials", "30"]
    code, report = run_cli(capsys, *argv)
    assert code == 0 and built == []
    transcript = tmp_path / "rounds.jsonl"
    code, with_records = run_cli(capsys, *argv, "--transcript", str(transcript))
    assert code == 0 and len(built) == 30 and with_records == report
    assert len(transcript.read_text().splitlines()) == 30


def test_report_writer_rejects_what_json_rejects():
    from uhlmann_lab.cli import _dumps
    with pytest.raises(TypeError):
        _dumps({"a": [1.0], "b": np.int64(3)})


def test_report_bytes_are_the_stdlib_encoding(capsys):
    # One small run of each scenario.
    runs = [["uhlmann", "--param", "dA=3", "--param", "dB=4"],
            ["szk", "--param", "m=2", "--trials", "5"], ["qip", "--param", "m=2", "--trials", "3"],
            ["amplify", "--trials", "5"], ["commit", "--param", "schemes=5"],
            ["channel", "--param", "qubits=2"], ["compress", "--param", "seeds=1"],
            ["blackhole", "--param", "qubits=4", "--param", "r=2"],
            ["interfere", "--param", "pairs=2"], ["entropy"]]
    assert sorted(argv[0] for argv in runs) == sorted(cli.SCENARIOS)
    for argv in runs:
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        if argv[0] == "uhlmann":
            assert '"w_matrix": [\n      ' in out


_JSON_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1e16, float("nan"), float("inf"), -float("inf")])
_REPORT_LEAVES = (st.none() | st.booleans() | st.integers() | _JSON_FLOATS | st.text()
                  | st.lists(_JSON_FLOATS, max_size=5).map(lambda v: np.array(v, dtype=float)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tree=st.recursive(_REPORT_LEAVES, lambda kids: (
    st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(), kids, max_size=4)), max_leaves=20))
def test_report_writer_is_the_stdlib_encoding_of_any_report_tree(tree):
    from uhlmann_lab.cli import _dumps
    assert _dumps(tree) == json.dumps(tree, sort_keys=True, indent=2,
                                      default=lambda array: array.tolist())


@pytest.mark.parametrize("argv", [["--help"], ["nosuch"], ["channel", "--seed", "x"], []])
def test_parser_built_once_prints_what_a_fresh_parser_prints(argv, capsys):
    # The module's parser has its usage set once; a parser built per call
    # formats it inside parse_intermixed_args. Help and errors are the same bytes.
    assert main(argv) in (0, 2)
    pinned = capsys.readouterr()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit):
        cli._build_parser().parse_intermixed_args(argv)
    assert (pinned.out, pinned.err) == (out.getvalue(), err.getvalue())


def test_help_lists_every_scenario_param_with_its_default(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    listed = {}
    for line in out[out.index("--param keys by scenario"):].splitlines()[1:]:
        if line.startswith("    "):
            listed[scenario].append(line.split()[0])
        else:
            scenario = line.strip()
            listed[scenario] = []
    assert listed == {scenario: [f"{key}={'unset' if default is None else default}"
                                 for key, (_, default, _) in table.items()]
                      for scenario, table in cli.PARAMS.items()}


# ---------------------------------------------------------------------------
# Sources held as spectra

def wide_circuit_file(tmp_path, n=12):
    gates = ([{"g": "H", "q": [q]} for q in range(n)]
             + [{"g": "CNOT", "q": [q, q + 1]} for q in range(n - 1)]
             + [{"g": "T", "q": [q]} for q in range(0, n, 2)])
    path = tmp_path / "wide_state.json"
    path.write_text(json.dumps({"n_qubits": n, "gates": gates}))
    return str(path)


@pytest.mark.parametrize("which", ["haar:4096", "circuit"])
def test_pure_source_entropy_at_the_cap_runs_no_eigensolver(which, tmp_path, capsys,
                                                            monkeypatch):
    spec = wide_circuit_file(tmp_path) if which == "circuit" else which
    no_eigensolver(monkeypatch)
    code, report = run_cli(capsys, "entropy", "--param", f"state={spec}")
    assert code == 0
    assert report["results"]["h_max"] == 0.0 and report["results"]["h_min"] == 0.0


@pytest.mark.parametrize("epsilon", ["0", "0.1"])
@pytest.mark.parametrize("which", ["haar:8", "haar:512", "circuit"])
def test_pure_source_reports_zero_max_entropy(which, epsilon, tmp_path, capsys):
    spec = wide_circuit_file(tmp_path, 3) if which == "circuit" else which
    code, report = run_cli(capsys, "entropy", "--param", f"state={spec}",
                           "--param", f"epsilon={epsilon}")
    assert code == 0
    assert abs(report["results"]["h_max"]) <= 1e-15
    assert abs(report["results"]["h_max_smoothed"]) <= 1e-15


# ---------------------------------------------------------------------------
# Declared --param keys

# For each scenario, runs that give every key it declares a small valid value.
DECLARED_RUNS = {
    "uhlmann": [["--param", "kappa=0.7", "--param", "dA=2", "--param", "dB=3",
                 "--param", "eta=0"],
                ["--param", "kappa=0.7", "--param", "overlap=0.5"]],
    "szk": [["--param", "kappa=0.9", "--param", "dA=2", "--param", "dB=2", "--param", "m=2",
             "--param", "prover=identity", "--trials", "5"],
            ["--param", "kappa=0.9", "--param", "overlap=0.5", "--param", "m=2",
             "--trials", "5"]],
    "qip": [["--param", "kappa=0.9", "--param", "dA=2", "--param", "dB=2", "--param", "m=2",
             "--param", "prover=honest", "--param", "mode=dme",
             "--param", "prep_error=0.1"],
            ["--param", "kappa=0.9", "--param", "overlap=0.5", "--param", "m=2"]],
    "amplify": [["--param", "nu=0.6", "--param", "k=2", "--param", "T=1", "--trials", "5"]],
    "commit": [["--param", "schemes=1", "--param", "commit_qubits=1",
                "--param", "reveal_qubits=1", "--param", "gates=3"]],
    "channel": [["--param", "qubits=2"]],
    "compress": [["--param", "source=mm:2", "--param", "delta=0.1", "--param", "s=1",
                  "--param", "seeds=1"]],
    "blackhole": [["--param", "qubits=3", "--param", "r=1"]],
    "interfere": [["--param", "pairs=1", "--param", "qubits=2", "--param", "gates=3"]],
    "entropy": [["--param", "state=mm:2", "--param", "epsilon=0.1"]],
}


def test_declared_runs_cover_every_scenario_and_key():
    assert set(DECLARED_RUNS) == set(MISSPELLED) == set(cli.SCENARIOS) == set(cli.PARAMS)
    for scenario, runs in DECLARED_RUNS.items():
        given = {arg.split("=")[0] for run in runs for arg in run if "=" in arg}
        assert given == set(cli.PARAMS[scenario]), scenario


class _RecordingParams(dict):
    """The resolved params, recording every key a scenario reads."""

    def __init__(self, params, seen):
        super().__init__(params)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("scenario", sorted(DECLARED_RUNS))
def test_every_key_a_scenario_reads_is_declared_and_accepted(scenario, capsys, monkeypatch):
    seen = set()
    runner = cli.SCENARIOS[scenario]

    def recording(args):
        args.p = _RecordingParams(args.p, seen)
        return runner(args)

    monkeypatch.setitem(cli.SCENARIOS, scenario, recording)
    for run in DECLARED_RUNS[scenario]:
        code, report = run_cli(capsys, scenario, *run, "--seed", "1")
        assert code == 0, (scenario, run)
    assert seen == set(cli.PARAMS[scenario])


# A near miss of a declared key, for each scenario.
MISSPELLED = {"uhlmann": "kapa", "szk": "prove", "qip": "prep", "amplify": "t",
              "commit": "scheme", "channel": "qubit", "compress": "sources", "blackhole": "R",
              "interfere": "pair", "entropy": "eps"}


@pytest.mark.parametrize("scenario", sorted(MISSPELLED))
def test_undeclared_key_exits_2_naming_the_accepted_keys(scenario, capsys):
    key = MISSPELLED[scenario]
    code = main([scenario, "--param", f"{key}=8"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and f"--param {key};" in captured.err
    assert all(accepted in captured.err for accepted in cli.PARAMS[scenario])


def test_config_file_keys_follow_the_declared_keys(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"m": 2, "trials": 5, "delta": 0.1}))  # szk reads no delta
    code = main(["szk", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and "delta" in captured.err
    # A seed and trials in the file lose to the command line, and are no --param.
    path.write_text(json.dumps({"m": 2, "trials": 5, "seed": 9}))
    code, report = run_cli(capsys, "szk", str(path), "--seed", "4", "--trials", "6")
    assert code == 0
    assert report["seed"] == 4 and report["results"]["trials"] == 6
    assert report["params"] == {"m": "2"}


@pytest.mark.parametrize("argv", [
    ["szk", "--param", "m=0"], ["qip", "--param", "prep_error=2"],
    ["uhlmann", "--param", "eta=-1"], ["szk", "--param", "prover=bogus"]])
def test_given_values_are_checked_before_the_instance_is_drawn(argv, capsys, monkeypatch):
    from uhlmann_lab import uhlmann

    def no_draw(*args):
        raise AssertionError("a Haar unitary was drawn")

    monkeypatch.setattr(uhlmann, "haar_unitary", no_draw)
    code = main(argv + ["--param", "kappa=0.9", "--param", "dA=2", "--param", "dB=2048"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: --param {argv[-1]} ")


def test_values_the_run_ignores_are_checked(tmp_path, capsys):
    inst = qutrit_instance_file(tmp_path)
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps({"C0": {"n_qubits": 2, "gates": []},
                                  "C1": {"n_qubits": 2, "gates": [{"g": "X", "q": [0]}]},
                                  "commit": [0]}))
    for argv, bad in ((["uhlmann", inst], "kappa=2"), (["commit", str(scheme)], "schemes=0")):
        assert run_cli(capsys, *argv)[0] == 0
        code = main(argv + ["--param", bad])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"--param {bad} out of range" in captured.err


def test_the_first_bad_value_in_table_order_is_named(capsys):
    code = main(["szk", "--param", "m=0", "--param", "prover=bogus", "--param", "kappa=2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == "error: --param kappa=2 out of range [0, 1]\n"


def test_compress_at_a_subnormal_delta_takes_the_full_rate(capsys):
    # 4 / 5e-324 overflows to inf: the rate is clamped to n before its ceiling.
    code, report = run_cli(capsys, "compress", "--param", "delta=5e-324", "--param", "seeds=1")
    assert code == 0 and report["results"]["s"] == 3


# The bounds that depend on another value, as README quotes them.
DEPENDENT = {"overlap": "[0, kappa]", "s": "[0, n]", "r": "[1, qubits]"}


def _readme_cli_notes() -> str:
    from pathlib import Path
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text[text.index("## CLI"):text.index("## File formats")]


def _cell(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return " or ".join(f"`{v}`" for v in value)
    return f"`{value}`" if isinstance(value, str) else str(value)


def test_readme_states_the_parameter_table():
    # The table states each static range; the prose quotes only the
    # dependent bounds, as "`key` in `[a, b]`".
    notes, rows = _readme_cli_notes(), {}
    quotes = re.findall(r"`(\w+)` in `([\[(][^`]*[\])])`", notes)
    assert sorted(quotes) == sorted(DEPENDENT.items())
    for line in notes.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0].startswith("`"):
            scenarios, keys, kind, default, allowed = cells
            for scenario in scenarios.split(", "):
                for key in keys.split(", "):
                    assert (scenario, key) not in rows
                    rows[scenario.strip("`"), key.strip("`")] = (kind, default, allowed)
    table = {(scenario, key): (f"`{kind.__name__}`", _cell(default),
                               "state spec" if allowed is None else _cell(allowed))
             for scenario, keys in cli.PARAMS.items()
             for key, (kind, default, allowed) in keys.items()}
    assert rows == table


def test_every_default_lies_inside_its_range():
    for scenario, table in cli.PARAMS.items():
        for key, (kind, default, allowed) in table.items():
            if default is None or allowed is None:
                continue
            if isinstance(allowed, tuple):
                assert default in allowed, (scenario, key)
            else:
                assert cli._in_interval(key, default, kind, allowed) == default, (scenario, key)


def test_closed_stdout_ends_without_a_traceback(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    with open(tmp_path / "stderr.txt", "w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "uhlmann_lab.cli", "amplify",
                                 "--param", "k=200000", "--trials", "20"],
                                stdout=subprocess.PIPE, stderr=err, env=env)
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        err.seek(0)
        text = err.read()
    assert "Traceback" not in text and "Exception ignored" not in text
    assert text.startswith("[amplify] amplification_bound=ok")


# Sizes the fuzzer stays under, so no example runs long.
_FUZZ_HIGH = {"m": 3, "schemes": 3, "pairs": 3, "seeds": 3, "gates": 3}
_SPECS = (["mm:2", "diag:0.5,0.5", "haar:4"], ["mm:-1", "haar:0", "mm:abc", "diag:0.5,0.6"])


def _value(draw, key, kind, allowed) -> str:
    """A value for one row: most often inside its range (kept small), else
    outside it, or one that no kind parses."""
    which = draw(st.sampled_from(["inside"] * 4 + ["outside", "unparsable"]))
    if which == "unparsable":
        return draw(st.sampled_from(["nan", "1e400", "abc", ""]))
    if allowed is None:
        return draw(st.sampled_from(_SPECS[which == "outside"]))
    if isinstance(allowed, tuple):
        return draw(st.sampled_from(allowed)) if which == "inside" else "bogus"
    low, high = (float(end) for end in allowed[1:-1].split(","))
    if kind is int:
        value = (st.integers(int(low), _FUZZ_HIGH.get(key, 4)) if which == "inside"
                 else st.integers(int(low) - 3, int(low) - 1))
    elif which == "inside":
        value = st.floats(low, min(high, 2.0), exclude_min=allowed[0] == "(",
                          exclude_max=allowed[-1] == ")")
    else:
        value = st.floats(low - 2.0, low, exclude_max=allowed[0] == "[")
        if math.isfinite(high):
            value = st.one_of(value, st.floats(high, high + 2.0, exclude_min=allowed[-1] == "]"))
    return repr(draw(value))


@st.composite
def _fuzzed_argv(draw):
    scenario = draw(st.sampled_from(sorted(cli.PARAMS)))
    table = cli.PARAMS[scenario]
    keys = draw(st.lists(st.sampled_from(sorted(table)), unique=True))
    argv = [scenario, "--trials", "3", "--seed", str(draw(st.integers(0, 5)))]
    for key in keys:
        argv += ["--param", f"{key}={_value(draw, key, table[key][0], table[key][2])}"]
    if draw(st.sampled_from([False] * 7 + [True])):
        argv += ["--param", f"{MISSPELLED[scenario]}=1"]
    return argv


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argv=_fuzzed_argv())
def test_fuzzed_params_exit_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:"), argv


_GHZ3 = {"n_qubits": 3, "gates": [{"g": "H", "q": [0]}, {"g": "CNOT", "q": [0, 1]},
                                  {"g": "CNOT", "q": [1, 2]}]}
_RAW = {"dA": 1, "dB": 2, "psi": [[1, 0], [0, 0]], "phi": [[0.6, 0], [0, 0.8]]}
# Well-formed documents every key of which its loader reads: (scenarios, document).
_FILES = {
    "instance": (("uhlmann", "szk", "qip"), {"n": 1, "C": EPR_GATES, "D": EPR_GATES}),
    "raw_instance": (("uhlmann", "szk", "qip"), {"raw": _RAW}),
    "config": (("szk", "qip"), {"instance": {"raw": _RAW}, "m": 2, "trials": 5,
                                "prover": "identity", "seed": 1}),
    "amplify_config": (("amplify",), {"k": 2, "T": 2, "trials": 5, "seed": 1}),
    "scheme": (("commit",), {"C0": _GHZ3, "C1": EPR_GATES | {"n_qubits": 3}, "commit": [2]}),
    "raw_scheme": (("commit",), {"raw": {"dC": 2, "dR": 1, "psi0": [[1, 0], [0, 0]],
                                         "psi1": [[0, 0], [1, 0]]}}),
    "channel": (("channel",), {"dilation": _GHZ3, "n_input": 1, "env": [2]}),
    "blackhole": (("blackhole",), {"circuit": _GHZ3, "r": 2}),
    "interfere": (("interfere",), {"C": {"n_qubits": 2, "gates": [{"g": "H", "q": [1]}]},
                                   "D": {"n_qubits": 2, "gates": [{"g": "X", "q": [0]},
                                                                  {"g": "H", "q": [1]}]}}),
    "state": (("entropy",), _GHZ3),
}
_DELETE = "<delete>"
_ODD = [_DELETE, None, True, False, -1, 0, 1, 2, 3, 99, 0.5, 1.5, 2.0, "", "T", "m", "H",
        "CNOT", [], [0], [0.5], [0, 0], [1, 2], [3], [[1, 0]], [[1, 0], [0, 1]], [2, 0], {},
        {"g": "H", "q": [0]}]
_INT_KEYS = {"n", "n_qubits", "dA", "dB", "dC", "dR", "n_input", "r", "seed", "trials"}
_INT_LIST_KEYS = {"q", "commit", "env"}


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def _malformed_file(draw):
    """(scenario, document name, path, value): the document with the value
    at ``path`` replaced (``_DELETE`` removes it; the empty path is the
    whole document)."""
    name = draw(st.sampled_from(sorted(_FILES)))
    scenarios, doc = _FILES[name]
    return (draw(st.sampled_from(scenarios)), name,
            draw(st.sampled_from(list(_paths(doc)))), draw(st.sampled_from(_ODD)))


def _must_refuse(path, old, value) -> bool:
    """Whether the loaders must refuse ``value`` in place of ``old``: a
    document that is not an object, a nested object that is not one, or an
    integer field (or one of its list's entries) that is not an integer.
    Leaving out seed, trials or instance is allowed."""
    ints = lambda v: isinstance(v, list) and all(type(q) is int for q in v)
    key = path[-1] if path else None
    if value is _DELETE or (value is None and key in ("seed", "trials", "instance")):
        return False
    return ((isinstance(old, dict) and not isinstance(value, dict))
            or (key in _INT_KEYS and type(value) is not int)
            or (key in _INT_LIST_KEYS and not ints(value))
            or (isinstance(key, int) and path[-2] in _INT_LIST_KEYS and type(value) is not int))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_malformed_file())
@example(case=("uhlmann", "instance", (), "T"))
@example(case=("szk", "instance", (), "m"))
@example(case=("amplify", "amplify_config", (), "s"))
@example(case=("uhlmann", "instance", (), ["m"]))
@example(case=("uhlmann", "instance", ("n",), 1.5))
@example(case=("uhlmann", "instance", ("n",), True))
@example(case=("uhlmann", "instance", ("C", "gates", 0, "q", 0), 0.5))
@example(case=("commit", "scheme", ("commit", 0), 0.5))
def test_malformed_files_exit_0_1_or_2_without_a_traceback(case, tmp_path_factory):
    scenario, name, path, value = case
    scenarios, doc = _FILES[name]
    old, doc = doc, json.loads(json.dumps(doc))
    for key in path:
        old = old[key]
    if not path:
        doc = value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    file = tmp_path_factory.mktemp("fuzz") / "input.json"
    file.write_text("" if doc is _DELETE else json.dumps(doc))
    argv = [scenario, str(file)] + ([] if "config" in name else ["--trials", "5"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    allowed = (2,) if _must_refuse(path, old, value) else (0, 1, 2)
    assert code in allowed, (case, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:"), case


# ---------------------------------------------------------------------------
# Raw pair lists read in slices, reports written in chunks

_JSON_WS = st.sampled_from(["", " ", "\n", "\t", "\r\n  ", "\n    "])
_NUMBER = st.one_of(
    st.integers(-2 ** 70, 2 ** 70).map(str),  # past 2^53, and past int64
    st.sampled_from(["-0", "0", "1", "true", "false", "-0.0", "5e-324", "1e400", "NaN",
                     "Infinity", "-Infinity"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@st.composite
def _pair_list(draw):
    def pair():
        w = [draw(_JSON_WS) for _ in range(4)]
        return f"[{w[0]}{draw(_NUMBER)}{w[1]},{w[2]}{draw(_NUMBER)}{w[3]}]"
    pairs = [pair() for _ in range(draw(st.integers(2, 12)))]
    seps = [f"{draw(_JSON_WS)},{draw(_JSON_WS)}" for _ in pairs[1:]]
    body = pairs[0] + "".join(sep + p for sep, p in zip(seps, pairs[1:]))
    return f"[{draw(_JSON_WS)}{body}{draw(_JSON_WS)}]"


def _pairs_or_error(value):
    from uhlmann_lab.qcore.states import pair_array
    try:
        return pair_array(value).tobytes()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(psi=_pair_list(), phi=_pair_list(), ws=_JSON_WS, indent=st.sampled_from(["", "\n  "]))
def test_sliced_reader_gives_the_bits_of_json_load(psi, phi, ws, indent, tmp_path_factory):
    # With 8-character slices every pair list takes the slice path, cut
    # after almost every pair.
    text = (f'{{{indent}"raw":{ws}{{{indent}"dA": 1,{ws}"dB": 2,{indent}"psi":{ws}{psi},'
            f'{indent}"phi": {phi}{ws}}}{indent}}}')
    path = tmp_path_factory.getbasetemp() / "pairs.json"
    path.write_text(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_SLICE", 8)
        loaded = cli._load_json(str(path))
    want = json.loads(text)
    got = [_pairs_or_error(loaded["raw"][key]) for key in ("psi", "phi")]
    assert got == [_pairs_or_error(want["raw"][key]) for key in ("psi", "phi")]
    if all(isinstance(g, bytes) for g in got):  # both lists are number pairs
        assert all(isinstance(loaded["raw"][key], np.ndarray) for key in ("psi", "phi"))


_FOUR = "[[1, 0], [0, 0], [0, 0], [0, 0]]"


@pytest.mark.parametrize("scenario,content", [
    ("uhlmann", '{"raw": {"dA": 2, "dB": 2, "psi": [[1, 0], [0, 0], ["0", 0], [0, 0]], '
                f'"phi": {_FOUR}}}}}'),
    ("uhlmann", '{"raw": {"dA": 2, "dB": 2, "psi": [[1, 0, 0], [0, 0, 0], [0, 0, 0], '
                f'[0, 0, 0]], "phi": {_FOUR}}}}}'),
    ("uhlmann", f'{{"raw": {{"dA": 2, "dB": 2, "psi": [[1, 0], [0], [0, 0], [0, 0]], '
                f'"phi": {_FOUR}}}}}'),
    ("uhlmann", f'{{"raw": {{"dA": 2, "dB": 2, "note": "x{_FOUR}y", "psi": "{_FOUR}", '
                f'"phi": {_FOUR}}}}}'),
    ("uhlmann", f'{{"raw": {{"dA": 2, "dB": 2, "psi": [[1, [2]], [0, 0], [0, 0], [0, 0]], '
                f'"phi": {_FOUR}}}}}'),
    ("uhlmann", '{"raw": {"dA": 1, "dB": 1, "psi": [[1, [2]]}}'),
    ("uhlmann", f'{{"raw": {{"dA": 2, "dB": 2, "psi": [[1, 0], [0, 0], [0, 0],], '
                f'"phi": {_FOUR}}}}}'),
    ("uhlmann", f'{{"raw": {{"dA": 2, "dB": 2, "psi": [[1, 0] x, [0, 0], [0, 0], [0, 0]], '
                f'"phi": {_FOUR}}}}}'),
    ("uhlmann", f'{{"raw": {{"dA": 2, "dB": 2, "psi": [[NaN, 0], [0, 0], [0, 0], [0, 0]], '
                f'"phi": {_FOUR}}}}}'),
    ("uhlmann", f'{{"raw": {{"dA": 2, "dB": 2, "psi": {_FOUR}}}, "phi": {_FOUR}}}'),
    ("commit", '{"raw": {"dC": 2, "dR": 2, "psi0": [[1, 0], ["0", 0], [0, 0], [0, 0]], '
               f'"psi1": {_FOUR}}}}}'),
])
def test_malformed_raw_pairs_exit_2_as_when_read_whole(scenario, content, tmp_path, capsys,
                                                       monkeypatch):
    path = tmp_path / "input.json"
    path.write_text(content)
    assert main([scenario, str(path)]) == 2
    whole = capsys.readouterr()
    assert whole.out == "" and whole.err.startswith(f"error: {path}: ")
    monkeypatch.setattr(cli, "_SLICE", 8)
    assert main([scenario, str(path)]) == 2
    assert capsys.readouterr() == whole


def test_long_pair_lists_outside_a_raw_block_stay_lists(tmp_path, monkeypatch):
    text = json.dumps({"other": [[1.0, 2.0], [3.0, 4.0]],
                       "raw": {"psi": [[0.5, 0.0], [0.0, 0.5]]}})
    path = tmp_path / "input.json"
    path.write_text(text)
    monkeypatch.setattr(cli, "_SLICE", 8)
    loaded = cli._load_json(str(path))
    assert loaded == json.loads(text) and isinstance(loaded["raw"]["psi"], list)


_LONG = "[[0.1, -0.25], [5e-324, 3], [-0.0, 1e300], [0.5, 0.5], [2, -1]]"
_GAP = " " * 20  # longer than a 16-character block


@pytest.mark.parametrize("psi", [
    "[|" + _LONG[1:],
    _LONG[:-1] + "|]",
    _LONG.replace("3], ", "3]|, "),
    _LONG.replace("3], ", "3],| "),
    _LONG.replace("3], ", f"3]{_GAP[:9]}|{_GAP[9:]}, "),
    "[" + _GAP[:9] + "|" + _GAP[9:] + _LONG[1:],
    _LONG[:-1] + _GAP[:9] + "|" + _GAP[9:] + "]",
    _LONG.replace("-0.25", "-0.|25"),
], ids=["open", "close", "cut", "after_cut", "cut_gap", "open_gap", "close_gap", "number"])
def test_block_boundaries_inside_a_pair_list(psi, tmp_path, monkeypatch):
    # The "|" marks where a block of 16 characters ends: spaces in front of
    # the document move it there. The reader must find the list's "[[", its
    # cut after "3]" and its "]]" across the boundary, and give the bits of
    # json.loads.
    from uhlmann_lab.qcore.states import pair_array
    text = f'{{"raw": {{"dA": 1, "dB": 5, "psi": {psi}, "phi": {_LONG}}}}}'
    text = " " * (-text.index("|") % 16) + text.replace("|", "")
    path = tmp_path / "input.json"
    path.write_text(text)
    monkeypatch.setattr(cli, "_SLICE", 16)
    loaded = cli._load_json(str(path))["raw"]
    want = json.loads(text)["raw"]
    assert loaded["dA"] == 1 and loaded["dB"] == 5
    for key in ("psi", "phi"):
        assert isinstance(loaded[key], np.ndarray)
        assert loaded[key].tobytes() == pair_array(want[key]).tobytes()


def test_block_reader_never_holds_the_whole_text(tmp_path, monkeypatch):
    # A raw 128 x 128 instance (~1.5 MB of text) read in 8 KiB blocks, ~100
    # for each pair list. Its two arrays take 0.5 MiB; the text held whole
    # would pass the bound on its own.
    from uhlmann_lab.qcore.states import pair_array
    rng = np.random.default_rng(5)
    pairs = lambda v: [[float(c.real), float(c.imag)] for c in v]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"raw": {"dA": 128, "dB": 128,
                                        "psi": pairs(haar_state_vector(128 * 128, rng)),
                                        "phi": pairs(haar_state_vector(128 * 128, rng))}}))
    monkeypatch.setattr(cli, "_SLICE", 1 << 13)
    tracemalloc.start()
    try:
        loaded = cli._load_json(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = json.loads(path.read_text())
    for key in ("psi", "phi"):
        assert loaded["raw"][key].tobytes() == pair_array(want["raw"][key]).tobytes()
    assert peak < path.stat().st_size / 2, f"peak {peak} of {path.stat().st_size} bytes"


def test_uhlmann_raw_file_to_out_holds_no_float_per_amplitude(tmp_path, capsys, monkeypatch):
    # 64 KiB slices make a raw 128 x 128 instance (1.5 MB of text) take the
    # path a 512 x 512 one takes at the default slice size. Read as Python
    # lists it peaks at ~6 MiB; with the whole text held while its lists are
    # decoded, ~3.0 MiB; read in blocks and written in chunks, ~2.8 MiB.
    rng = np.random.default_rng(3)
    pairs = lambda v: [[float(c.real), float(c.imag)] for c in v]
    path, out = tmp_path / "instance.json", tmp_path / "report.json"
    path.write_text(json.dumps({"raw": {"dA": 128, "dB": 128,
                                        "psi": pairs(haar_state_vector(128 * 128, rng)),
                                        "phi": pairs(haar_state_vector(128 * 128, rng))}}))
    monkeypatch.setattr(cli, "_SLICE", 1 << 16)
    main(["uhlmann", "--param", "dA=2"])  # first-call imports and caches
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["uhlmann", str(path), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert len(report["results"]["w_matrix"]) == 2 * 128 * 128
    assert peak < 3.25 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


@pytest.mark.parametrize("to_file", [True, False])
def test_a_report_that_cannot_be_encoded_writes_no_bytes(to_file, tmp_path, capsys,
                                                         monkeypatch):
    # The unencodable value sorts after a float array that is spliced in.
    monkeypatch.setitem(cli.SCENARIOS, "entropy", lambda args: (
        {"a": np.linspace(0.0, 1.0, 10000), "z": object()}, []))
    out = tmp_path / "report.json"
    with pytest.raises(TypeError):
        main(["entropy"] + (["--out", str(out)] if to_file else []))
    assert not out.exists() and capsys.readouterr().out == ""


def test_report_writer_splices_arrays_in_chunks(monkeypatch):
    from uhlmann_lab.cli import _dumps
    monkeypatch.setattr(cli, "_CHUNK", 3)
    arrays = {f"n{size}": np.linspace(-1.0, 2.0, size) for size in range(1, 11)}
    report = {**arrays, "lists": [a.tolist() for a in arrays.values()],
              "nan": np.array([0.5, np.nan]), "empty": np.zeros(0), "edges":
              np.array([-0.0, 5e-324, 1e16, 1.7976931348623157e308, 0.1])}
    plain = json.loads(json.dumps(report, default=lambda a: a.tolist()))
    assert _dumps(report) == json.dumps(plain, sort_keys=True, indent=2)


def test_szk_writes_each_transcript_record_before_the_next_is_made(tmp_path, capsys,
                                                                   monkeypatch):
    import uhlmann_lab.protocols as protocols
    real_record, real_dumps = protocols._szk_record, json.dumps
    events = []
    monkeypatch.setattr(protocols, "_szk_record",
                        lambda *args: events.append("made") or real_record(*args))
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: (
        events.append("written") if isinstance(obj, dict) and "trial" in obj else None)
        or real_dumps(obj, **kw))
    transcript = tmp_path / "rounds.jsonl"
    code, _ = run_cli(capsys, "szk", "--param", "m=3", "--trials", "5",
                      "--transcript", str(transcript))
    assert code == 0 and events == ["made", "written"] * 5
    assert len(transcript.read_text().splitlines()) == 5
