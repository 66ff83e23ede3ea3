"""Tests of the span tracer: self time, wrapping everywhere, counters, metric list."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import tracer as tracing
import workloads
from uhlmann_lab import cli, crypto, protocols, shannon, uhlmann
from uhlmann_lab import qcore
from uhlmann_lab.qcore import metrics
from uhlmann_lab.qcore.states import DensityOp


def _layer_metrics(spans, names):
    layers = [name.rsplit(".", 1)[0] for name in names]
    return tracing.round_metrics(names, layers, spans, {})


def test_self_time_of_nested_spans():
    names = ["uhlmann.validate_instance", "qcore.metrics.fidelity",
             "qcore.linalg.psd_sqrt", "qcore.linalg.psd_power"]
    spans = [
        (0, 0.0, 10.0, -1, "op"),   # uhlmann.validate_instance
        (1, 1.0, 5.0, 0, "op"),     #   qcore.metrics.fidelity
        (2, 2.0, 3.0, 1, "op"),     #     qcore.linalg.psd_sqrt
        (3, 2.2, 2.5, 2, "op"),     #       qcore.linalg.psd_power (nested in psd_sqrt)
        (0, 6.0, 7.0, 0, "op"),     #   uhlmann.validate_instance (nested in itself)
    ]
    values = _layer_metrics(spans, names)
    assert values["uhlmann.self_s"] == pytest.approx((10 - 4 - 1) + 1)
    assert values["qcore.metrics.self_s"] == pytest.approx(4 - 1)
    assert values["qcore.linalg.self_s"] == pytest.approx((1 - 0.3) + 0.3)
    # Inclusive times count a span only when no ancestor is in the same metric.
    assert values["uhlmann.validate_instance_s"] == pytest.approx(10)
    assert values["qcore.linalg.psd_s"] == pytest.approx(1)
    assert values["qcore.metrics.fidelity_s"] == pytest.approx(4)
    assert values["qcore.metrics.fidelity_calls"] == 1


@pytest.fixture
def installed():
    tracer = tracing.Tracer()
    original = metrics.fidelity
    tracer.install()
    try:
        yield tracer, original
    finally:
        tracer.uninstall()


def test_wrapped_name_is_caught_in_every_module_that_imports_it(installed):
    tracer, original = installed
    wrapper = metrics.fidelity
    assert wrapper is not original and wrapper.__wrapped__ is original
    binders = [mod for name, mod in sys.modules.items()
               if name.startswith("uhlmann_lab") and mod is not None
               and "fidelity" in vars(mod)]
    assert {m.__name__ for m in binders} >= {
        "uhlmann_lab.uhlmann", "uhlmann_lab.shannon", "uhlmann_lab.crypto",
        "uhlmann_lab.cli", "uhlmann_lab.qcore", "uhlmann_lab.qcore.metrics"}
    for mod in binders:
        assert vars(mod)["fidelity"] is wrapper, mod.__name__
    assert cli.SCENARIOS["entropy"] is cli.run_entropy
    assert cli.run_entropy.__wrapped__ is not None

    x = uhlmann.instance_with_fidelity(0.8, 2, 2, 3)
    tracer.active = True
    uhlmann.validate_instance(x)
    crypto.evaluate(crypto.commitment_from_instance(x))
    tracer.active = False
    spans, _ = tracer.take()
    name = {i: tracer.names[s[0]] for i, s in enumerate(spans)}
    parents = {(name[i], name[s[3]] if s[3] >= 0 else None) for i, s in enumerate(spans)}
    assert ("qcore.metrics.fidelity", "uhlmann.validate_instance") in parents
    assert ("qcore.metrics.fidelity", "crypto.evaluate") in parents
    assert ("uhlmann.UhlmannInstance.states", "uhlmann.validate_instance") in parents


def test_cli_scenario_and_report_spans(installed):
    tracer, _ = installed
    tracer.active = True
    text = workloads.run_cli(["entropy", "--param", "state=mm:2"])
    tracer.active = False
    spans, counts = tracer.take()
    names = [tracer.names[s[0]] for s in spans]
    assert "cli.main" in names and "cli.run_entropy" in names
    assert "shannon.entropies" in names and "cli.json.dumps" in names
    assert counts["cli.report_bytes"] == len(text) - 1   # print adds the newline


def test_uninstall_restores_originals():
    before = (metrics.fidelity, shannon.fidelity, cli.SCENARIOS["szk"], cli.json,
              DensityOp.__dict__["__post_init__"], qcore.linalg.partial_trace_matrix)
    tracer = tracing.Tracer()
    tracer.install()
    assert shannon.fidelity is not before[1]
    tracer.uninstall()
    after = (metrics.fidelity, shannon.fidelity, cli.SCENARIOS["szk"], cli.json,
             DensityOp.__dict__["__post_init__"], qcore.linalg.partial_trace_matrix)
    assert all(a is b for a, b in zip(before, after))


def test_counters_follow_arguments(installed):
    tracer, _ = installed
    rng = np.random.default_rng(0)
    target = DensityOp(workloads.random_density(4, 4, rng), (2, 2))
    program = DensityOp(workloads.random_density(2, 2, rng), (2,))
    tracer.active = True
    protocols.dme(target, program, 0.5, 5)
    qcore.GateCircuit(2, (("H", (0,)), ("CNOT", (0, 1)))).state()
    tracer.active = False
    spans, counts = tracer.take()
    assert counts["protocols.dme_steps"] == 5
    assert counts["qcore.gates.gates_applied"] == 2
    values = tracing.round_metrics(tracer.names, tracer.layer_of, spans, counts)
    assert values["qcore.linalg.apply_calls"] == 5 * 2 + 2
    assert values["qcore.states.density_op_calls"] == 1


def test_per_layer_list_matches_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == tracing.PER_LAYER
