"""logifp benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload jred --seed 1 --seconds 20 --trace 0

The run builds its inputs from --seed, times operations for --seconds,
checks every output against the benchmark's own answers and prints, as
the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: op_p50_refs, op_py_lines,
setup_s and peak_rss_mb.  op_p50_refs is the median operation time in
units of a fixed reference computation that a timer signal runs every
0.2 s during the timed loop (probe.HostSpeed), which cancels most of the
host's drift in speed.  --trace 1 alternates untraced and traced
operations, writes spans and counters to bench/trace-<workload>.json and
reports the per-layer metrics.  Both include a counting pass that replays
a fixed, seeded set of operations under a line tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from probe import LAYERS, HostSpeed, LineCounter, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
PACKAGE_DIR = SRC / "logifp"
SETUP_ROUNDS = 5  # at each end of the run

PER_LAYER = (
    [f"{layer}.py_lines" for layer in LAYERS]
    + [
        "evaluate.evaluate.calls", "evaluate.evaluate.self_ms",
        "interp.tuples_tested", "interp.useful_ratio",
        "evaluate.ifp_fixpoint.calls", "evaluate.ifp_fixpoint.self_ms",
        "evaluate.enumerate_bounded_relations.yielded",
        "evaluate.evaluate_via_bitstrings.ms", "encode.j_encode.calls",
        "evaluate.gc_check.candidates", "evaluate.gc_check.ms", "core.from_text.calls",
        "game.game_winner.ms", "game.solver_nodes", "game.verify_fresh_strategy.ms",
        "game.pebble_game_winner.calls", "game.pebble_game_winner.self_ms",
        "game.surviving_positions",
        "formula.parse_formula.ms", "formula.pretty.ms", "formula.validate.ms",
        "interp.transform_formula.ms", "interp.transform_formula.out_chars",
        "trace.overhead_ms",
    ]
)
UNITS = {"py_lines": "lines", "ms": "ms", "self_ms": "ms", "useful_ratio": "ratio",
         "out_chars": "chars", "overhead_ms": "ms"}


def fresh_import() -> SimpleNamespace:
    """Import logifp from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "logifp" or n.startswith("logifp.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("logifp")
    if Path(pkg.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise ImportError(f"logifp imported from {pkg.__file__}, not from {PACKAGE_DIR}")
    return SimpleNamespace(**{layer: sys.modules[f"logifp.{layer}"] for layer in LAYERS})


def set_up(workload_cls):
    """SETUP_ROUNDS rounds of a fresh import plus the workload's own set-up;
    returns the round times and the workload of the last round."""
    times = []
    for _ in range(SETUP_ROUNDS):
        gc.collect()
        start = time.perf_counter()
        wl = workload_cls()
        wl.setup(fresh_import())
        times.append(time.perf_counter() - start)
    return times, wl


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, wl, inp):
        """One operation; returns (start, seconds, output), or output None
        if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = wl.op(inp)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return start, None, None
        return start, time.perf_counter() - start, out

    def check(self, wl, inp, out):
        if not wl.check(inp, out):
            self.correct = False
            print(f"{wl.name}: wrong output for input {inp!r}", file=sys.stderr)


def count_lines(wl, tally) -> dict:
    """Lines executed per module, per operation, over the fixed counting set."""
    rng = random.Random(f"{wl.name}:count")
    counter = LineCounter(PACKAGE_DIR)
    for _ in range(wl.count_ops):
        inp = wl.make_input(rng)
        with counter:
            out = wl.op(inp)
        tally.check(wl, inp, out)
    return {stem: lines / wl.count_ops for stem, lines in counter.counts().items()}


def timed_loop(wl, rng, seconds, tally, times, tracer=None):
    """Closed loop for `seconds`, appending (start, seconds) of each
    operation to times[0] (untraced) or times[1] (traced); with a tracer,
    every second operation is traced."""
    start = time.perf_counter()
    while True:
        inp = wl.make_input(rng)
        traced = tracer is not None and tally.attempted % 2 == 1
        if traced:
            tracer.begin_op()
        try:
            op_start, elapsed, out = tally.run(wl, inp)
        finally:
            if traced:
                tracer.end_op()
        if out is not None:
            times[traced].append((op_start, elapsed))
            tally.check(wl, inp, out)
            if traced and hasattr(wl, "layer_counts"):
                tracer.counters.update(wl.layer_counts(out))
        if time.perf_counter() - start >= seconds:
            return


def per_layer_metrics(tracer, lines, untraced, traced) -> dict:
    ops = max(tracer.ops, 1)
    values = {}
    for name in PER_LAYER:
        key, _, kind = name.rpartition(".")
        if kind == "py_lines":
            value = lines.get(key, 0)
        elif kind == "calls":
            value = tracer.calls[key] / ops
        elif kind == "ms":
            value = tracer.total_s[key] * 1e3 / ops
        elif kind == "self_ms":
            value = tracer.self_s[key] * 1e3 / ops
        elif name == "interp.useful_ratio":
            tested = tracer.counters["interp.tuples_tested"]
            value = tracer.counters["interp.universe_size"] / tested if tested else 0.0
        elif name == "trace.overhead_ms":
            value = (statistics.median(traced) - statistics.median(untraced)) * 1e3 \
                if traced and untraced else 0.0
        else:
            value = tracer.counters[name] / ops
        values[name] = {"value": value, "unit": UNITS.get(kind, "count")}
    return values


def write_trace(path, args, tracer, lines, untraced, traced, metrics):
    ops = max(tracer.ops, 1)
    traced_mean_ms = statistics.fmean(traced) * 1e3 if traced else 0.0
    layer_self_ms = tracer.layer_self_ms()
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "untraced_ops": len(untraced), "traced_ops": tracer.ops,
        "untraced_op_p50_ms": statistics.median(untraced) * 1e3 if untraced else None,
        "traced_op_p50_ms": statistics.median(traced) * 1e3 if traced else None,
        "py_lines_per_op": lines,
        "per_op": {name: {"calls": tracer.calls[name] / ops,
                          "ms": tracer.total_s[name] * 1e3 / ops,
                          "self_ms": tracer.self_s[name] * 1e3 / ops}
                   for name in sorted(tracer.calls)},
        "traced_op_mean_ms": traced_mean_ms,
        "layer_self_ms_per_op": layer_self_ms,
        "layer_share_of_traced_op": {layer: ms / traced_mean_ms if traced_mean_ms else 0.0
                                     for layer, ms in layer_self_ms.items()},
        "counters_per_op": {k: v / ops for k, v in sorted(tracer.counters.items())},
        "metrics": metrics,
        "first_op_spans": tracer.first_op_spans,
    }, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        setup_times, wl = set_up(WORKLOADS[args.workload])
    except ImportError as exc:
        print(f"cannot import logifp from {SRC}: {exc}", file=sys.stderr)
        return 2

    # The host's speed drifts over tens of seconds, so the timed loop runs
    # in two halves around the counting pass and set-up is timed at both
    # ends of the run: each median then samples more than one stretch.
    # Untraced runs also sample the host's speed while they time, and
    # report each operation's time in units of the reference computation.
    tally = Tally()
    tracer = Tracer(vars(wl.m)) if args.trace else None
    speed = None if args.trace else HostSpeed()
    rng = random.Random(f"{wl.name}:{args.seed}")
    times = ([], [])
    with speed or contextlib.nullcontext():
        timed_loop(wl, rng, args.seconds / 2, tally, times, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines = count_lines(wl, tally)
    with speed or contextlib.nullcontext():
        timed_loop(wl, rng, args.seconds / 2, tally, times, tracer)
    if args.trace:
        untraced, traced = ([seconds for _, seconds in t] for t in times)
        metrics = per_layer_metrics(tracer, lines, untraced, traced)
        write_trace(BENCH_DIR / f"trace-{wl.name}.json", args, tracer, lines,
                    untraced, traced, metrics)
    else:
        setup_times += set_up(WORKLOADS[args.workload])[0]
        refs = []
        for start, seconds in times[0]:
            end = start + seconds
            refs.append((seconds - speed.paused_s(start, end)) / speed.reference_s(start, end))
        metrics = {
            "op_p50_refs": {"value": statistics.median(refs), "unit": "refs"},
            "op_py_lines": {"value": sum(lines.values()), "unit": "lines"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
