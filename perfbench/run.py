"""Benchmark entry point.

    python3 perfbench/run.py --workload {dense,trials,vectors} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ./src. The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from statistics import median
from pathlib import Path

# One BLAS thread: the figures in README.md were taken this way, and the
# setting must be in place before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
SETUP_REPEATS = 3


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("dense", "trials", "vectors"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def clear_program_caches(package) -> None:
    """Empty every functools cache in the program, so each set-up fills them."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == package or name.startswith(package + ".")):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class Runner:
    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.incorrect = []

    def round(self, index: int, traced: bool) -> float:
        """Run every operation once; return the time spent in program calls."""
        busy = 0.0
        for i, op in enumerate(self.ops):
            self.attempted += 1
            if traced:
                self.tracer.op = f"{index}/{i}:{op.name}"
                self.tracer.active = True
            start = time.perf_counter()
            try:
                output = op.call()
            except Exception as exc:  # a failed operation is counted, and the run goes on
                busy += time.perf_counter() - start
                self.failed += 1
                print(f"failed {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            finally:
                if traced:
                    self.tracer.active = False
            busy += time.perf_counter() - start
            try:
                problems = op.check(output)
            except Exception as exc:  # an output the check cannot read is incorrect
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.incorrect.append((op.name, problems))
                print(f"incorrect {op.name}: {'; '.join(problems)}", file=sys.stderr)
        return busy


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "uhlmann_lab" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import uhlmann_lab.cli  # noqa: F401  (the whole package loads through the CLI)
    import_s = time.perf_counter() - start

    import tracer as tracing
    import workloads

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    build = workloads.WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        clear_program_caches(tracing.PACKAGE)
        workload = build(args.seed, work)
        for op in workload.warmup:
            op.call()
        setup_times.append(time.perf_counter() - start)

    for reference in workload.references:
        reference()

    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(workload.ops, tracer)
    plain, traced, layer_rounds, kept_spans = [], [], [], []
    start = time.perf_counter()
    index = 0
    while (time.perf_counter() - start < args.seconds or not plain
           or (tracer is not None and not traced)):
        # With tracing, rounds alternate untraced / traced.
        if tracer is not None and index % 2 == 1:
            tracer.install()
            try:
                traced.append(runner.round(index, traced=True))
            finally:
                tracer.uninstall()
            spans, counts = tracer.take()
            layer_rounds.append(tracing.round_metrics(tracer.names, tracer.layer_of,
                                                      spans, counts))
            if not kept_spans:
                kept_spans = spans
        else:
            plain.append(runner.round(index, traced=False))
        index += 1

    if tracer is None:
        metrics = {
            "wall_s": (median(plain), "s"),
            "setup_s": (import_s + median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = {}
        for name, unit in tracing.PER_LAYER:
            if name == tracing.OVERHEAD:
                value = median(traced) - median(plain)
            elif unit == "s":
                value = median([r[name] for r in layer_rounds])
            else:
                value = layer_rounds[0][name]   # counts repeat exactly from round to round
            metrics[name] = (value, unit)
        write_spans(work / f"spans-seed{args.seed}.jsonl", tracer, kept_spans)

    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced rounds of "
          f"{len(workload.ops)} operations", file=sys.stderr)
    result = {
        "correct": not runner.incorrect,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_spans(path: Path, tracer, spans) -> None:
    """The first traced round's spans, one JSON object per line."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        for i, (name_id, begin, end, parent, op) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": tracer.names[name_id],
                                 "start": begin - t0, "end": end - t0,
                                 "parent": parent, "op": op}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
