"""Spans around the program's public calls, installed from outside the program.

``Tracer.install`` replaces every public function and method of each traced
module of ``uhlmann_lab`` by a wrapper that records a span (name, start, end,
parent span, operation id). A function is replaced in every module of the
package that binds it, so ``fidelity`` imported by name into ``uhlmann``,
``shannon``, ``crypto`` and ``cli`` is traced on each of those paths, and in
the CLI's scenario table. ``Tracer.uninstall`` puts the originals back.

Spans are kept in memory; ``round_metrics`` turns the spans and counters of
one round into the per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

PACKAGE = "uhlmann_lab"

# Layers are the package's modules; a span belongs to the module that defines
# the wrapped function.
LAYERS = ("cli", "uhlmann", "shannon", "physics", "protocols", "crypto",
          "qcore.states", "qcore.linalg", "qcore.channels", "qcore.metrics",
          "qcore.random_ops", "qcore.gates")

# Private helpers that carry a layer metric.
PRIVATE_TARGETS = {"cli": ("_load_json",)}

SCENARIOS = ("uhlmann", "szk", "qip", "amplify", "commit", "channel",
             "compress", "blackhole", "interfere", "entropy")

# metric -> span names; a span counts only when no ancestor span is in the set.
TIME_METRICS = {
    "cli.load_s": ("cli._load_json",),
    "cli.report_s": ("cli.json.dumps",),
    **{f"cli.scenario.{s}_s": (f"cli.run_{s}",) for s in SCENARIOS},
    "uhlmann.canonical_uhlmann_s": ("uhlmann.canonical_uhlmann",),
    "uhlmann.validate_instance_s": ("uhlmann.validate_instance",),
    "uhlmann.apply_uhlmann_s": ("uhlmann.apply_uhlmann",),
    "shannon.compress_s": ("shannon.compress",),
    "shannon.roundtrip_s": ("shannon.roundtrip",),
    "shannon.decoder_from_uhlmann_s": ("shannon.decoder_from_uhlmann",),
    "shannon.decoupling_fidelity_s": ("shannon.decoupling_fidelity",),
    "shannon.entropies_s": ("shannon.entropies",),
    "physics.interference_detect_s": ("physics.interference_detect",),
    "protocols.szk_run_s": ("protocols.szk_run",),
    "protocols.qip_run_s": ("protocols.qip_run",),
    "protocols.amplify_run_s": ("protocols.amplify_run",),
    "protocols.dme_s": ("protocols.dme",),
    "protocols.approx_measure_s": ("protocols.approx_measure",),
    "protocols.dme_error_constant_s": ("protocols.dme_error_constant",),
    "crypto.evaluate_s": ("crypto.evaluate",),
    "crypto.optimal_binding_attack_s": ("crypto.optimal_binding_attack",),
    "crypto.flavor_switch_s": ("crypto.flavor_switch",),
    "qcore.states.density_op_s": ("qcore.states.DensityOp.__post_init__",),
    "qcore.states.purify_s": ("qcore.states.DensityOp.purify",),
    "qcore.linalg.apply_s": ("qcore.linalg.apply_matrix_to_registers",
                             "qcore.linalg.apply_matrix_to_registers_dm"),
    "qcore.linalg.partial_trace_s": ("qcore.linalg.partial_trace_matrix",),
    "qcore.linalg.permutation_matrix_s": ("qcore.linalg.permutation_matrix",),
    "qcore.linalg.psd_s": ("qcore.linalg.psd_sqrt", "qcore.linalg.psd_power"),
    "qcore.channels.apply_to_first_s": ("qcore.channels.apply_to_first",),
    "qcore.metrics.fidelity_s": ("qcore.metrics.fidelity",),
    "qcore.metrics.trace_distance_s": ("qcore.metrics.trace_distance",),
    "qcore.metrics.sgn_eta_s": ("qcore.metrics.sgn_eta",),
    "qcore.random_ops.random_clifford_s": ("qcore.random_ops.random_clifford",),
    "qcore.gates.circuit_s": ("qcore.gates.GateCircuit.apply",
                              "qcore.gates.GateCircuit.unitary"),
}

# metric -> span name whose every call (nested or not) is counted.
CALL_METRICS = {
    "uhlmann.canonical_uhlmann_calls": "uhlmann.canonical_uhlmann",
    "uhlmann.states_calls": "uhlmann.UhlmannInstance.states",
    "physics.interference_detect_calls": "physics.interference_detect",
    "physics.controlled_swap_from_uhlmann_calls": "physics.controlled_swap_from_uhlmann",
    "protocols.szk_run_calls": "protocols.szk_run",
    "crypto.scheme_states_calls": "crypto.CommitmentScheme.states",
    "qcore.states.density_op_calls": "qcore.states.DensityOp.__post_init__",
    "qcore.states.bipartite_state_calls": "qcore.states.BipartiteState.__post_init__",
    "qcore.linalg.apply_calls": "qcore.linalg.apply_matrix_to_registers",
    "qcore.channels.apply_to_first_calls": "qcore.channels.apply_to_first",
    "qcore.metrics.fidelity_calls": "qcore.metrics.fidelity",
    "qcore.random_ops.random_clifford_calls": "qcore.random_ops.random_clifford",
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _text_bytes(args, kwargs, result):
    return len(result)


def _dme_steps(args, kwargs, result):
    return int(_arg(args, kwargs, 3, "k"))


def _approx_dme_steps(args, kwargs, result):
    if _arg(args, kwargs, 3, "mode", "ideal_reflection") != "dme":
        return 0
    return int(_arg(args, kwargs, 2, "k_q") or 0)


def _dilated_bytes(args, kwargs, result):
    """Bytes of the dilated complex density apply_to_first builds (computed)."""
    ch, state = args[0], _arg(args, kwargs, 1, "state")
    d_rest = _arg(args, kwargs, 2, "d_rest")
    if hasattr(state, "split"):
        rest = state.split[1]
    elif hasattr(state, "dims"):
        rest = 1
        for d in state.dims[1:]:
            rest *= int(d)
    else:
        rest = d_rest or 1
    dim = ch.d_in * ch.d_anc * rest
    return 16 * dim * dim


def _gates(args, kwargs, result):
    return len(args[0].gates)


# span name -> (counter metric, function of (args, kwargs, result)).
COUNTERS = {
    "cli._load_json": ("cli.load_bytes", _file_bytes),
    "cli.json.dumps": ("cli.report_bytes", _text_bytes),
    "protocols.dme": ("protocols.dme_steps", _dme_steps),
    "protocols.approx_measure": ("protocols.dme_steps", _approx_dme_steps),
    "qcore.channels.apply_to_first": ("qcore.channels.apply_to_first_bytes", _dilated_bytes),
    "qcore.gates.GateCircuit.apply": ("qcore.gates.gates_applied", _gates),
    "qcore.gates.GateCircuit.unitary": ("qcore.gates.gates_applied", _gates),
}

COUNT_UNITS = {"cli.load_bytes": "bytes", "cli.report_bytes": "bytes",
               "qcore.channels.apply_to_first_bytes": "bytes"}

OVERHEAD = "trace.overhead_s"


def per_layer_metrics() -> list:
    """Every per-layer metric as (name, unit), grouped by layer."""
    names = {m: "s" for m in TIME_METRICS}
    names.update({m: "count" for m in CALL_METRICS})
    for metric, _ in COUNTERS.values():
        names[metric] = COUNT_UNITS.get(metric, "count")
    names.update({f"{layer}.self_s": "s" for layer in LAYERS})
    out = []
    for layer in LAYERS:
        out += sorted((m, u) for m, u in names.items() if m.startswith(layer + "."))
    return out + [(OVERHEAD, "s")]


PER_LAYER = per_layer_metrics()


class _JsonProxy:
    """Stands in for the ``json`` module inside ``cli`` so encoding is a span."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Span recorder. Records only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.names = []          # span name by id
        self.layer_of = []       # layer by name id
        self.spans = []          # (name id, start, end, parent index, op id)
        self.counts = {}
        self.op = None
        self._stack = []
        self._patches = []

    # -- recording -----------------------------------------------------------
    def wrap(self, name: str, layer: str, fn):
        self.names.append(name)
        self.layer_of.append(layer)
        name_id = len(self.names) - 1
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, tracer.op)
            if counter is not None:
                metric, count = counter
                tracer.counts[metric] = tracer.counts.get(metric, 0) + count(args, kwargs, result)
            return result

        return traced

    def take(self):
        """Return and clear the spans and counters recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap the traced modules' public functions and methods everywhere."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            private = PRIVATE_TARGETS.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif (callable(obj) and getattr(obj, "__module__", None) == mod.__name__
                      and (inspect.isfunction(obj) or hasattr(obj, "__wrapped__"))
                      and (not attr.startswith("_") or attr in private)):
                    replaced[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", layer, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        cli = sys.modules[f"{PACKAGE}.cli"]
        for key, fn in list(cli.SCENARIOS.items()):
            hit = replaced.get(id(fn))
            if hit is not None and hit[0] is fn:
                self._set_item(cli.SCENARIOS, key, hit[1])
        self._set(cli, "json", _JsonProxy(self.wrap("cli.json.dumps", "cli", json.dumps)))

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            static = isinstance(member, staticmethod)
            fn = member.__func__ if static else member
            if not inspect.isfunction(fn):
                continue
            if attr.startswith("_") and attr != "__post_init__":
                continue
            wrapped = self.wrap(f"{layer}.{cls.__name__}.{attr}", layer, fn)
            self._set(cls, attr, staticmethod(wrapped) if static else wrapped)

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr], False))
        setattr(owner, attr, value)

    def _set_item(self, table, key, value) -> None:
        self._patches.append((table, key, table[key], True))
        table[key] = value

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, is_item = self._patches.pop()
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def round_metrics(names, layer_of, spans, counts) -> dict:
    """Per-layer metrics of one round's spans and counters (no overhead entry)."""
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    values = {metric: 0.0 for metric, _ in PER_LAYER if metric != OVERHEAD}
    for i, (name_id, start, end, parent, _) in enumerate(spans):
        values[f"{layer_of[name_id]}.self_s"] += (end - start) - child_time[i]
    index = {}
    for metric, group in TIME_METRICS.items():
        for name in group:
            index.setdefault(name, []).append((metric, set(group)))
    calls = {name: metric for metric, name in CALL_METRICS.items()}
    for name_id, start, end, parent, _ in spans:
        name = names[name_id]
        if name in calls:
            values[calls[name]] += 1
        for metric, group in index.get(name, ()):
            ancestor = parent
            while ancestor >= 0 and names[spans[ancestor][0]] not in group:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                values[metric] += end - start
    for metric, count in counts.items():
        values[metric] += count
    return values
