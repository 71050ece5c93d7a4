"""Instruments: an exact count of the Python lines logifp executes, a
span tracer that wraps the public names each logifp module binds, and a
sampler of the host's current speed."""

from __future__ import annotations

import bisect
import re
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("formula", "evaluate", "encode", "interp", "game", "core")


class LineCounter:
    """While active (`with counter:`), counts 'line' events of code objects
    whose file lies in the logifp package, per module file stem."""

    def __init__(self, package_dir):
        self.package_dir = Path(package_dir).resolve()
        self.cells: dict[str, list] = {}
        self._by_file: dict[str, object] = {}

    def _local_for(self, filename):
        path = Path(filename).resolve()
        if path.parent != self.package_dir:
            return None
        cell = self.cells.setdefault(path.stem, [0])

        def local(frame, event, arg):
            if event == "line":
                cell[0] += 1
            return local

        return local

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return self._by_file[filename]
        except KeyError:
            tracer = self._by_file[filename] = self._local_for(filename)
            return tracer

    def __enter__(self):
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)

    def counts(self) -> dict:
        return {stem: cell[0] for stem, cell in self.cells.items()}


# span name -> modules that bind that function under its own name
SPANS = {
    "formula.parse_formula": ("formula", "interp"),
    "formula.pretty": ("formula", "interp"),
    "formula.validate": ("formula", "interp"),
    "formula.metrics": ("formula", "evaluate"),
    "evaluate.evaluate": ("evaluate", "interp", "game"),
    "evaluate.ifp_fixpoint": ("evaluate",),
    "evaluate.evaluate_via_bitstrings": ("evaluate",),
    "evaluate.gc_check": ("evaluate",),
    "encode.j_encode": ("encode",),
    "core.from_text": ("core", "evaluate", "encode"),
    "interp.apply_interpretation": ("interp",),
    "interp.transform_formula": ("interp",),
    "interp.interpretation_to_json": ("interp",),
    "interp.interpretation_from_json": ("interp",),
    "game.even_instance": ("game",),
    "game.game_winner": ("game",),
    "game.pebble_game_winner": ("game",),
    "game.verify_fresh_strategy": ("game",),
}
# generators: counted per item yielded, no span
YIELD_COUNTERS = {
    "evaluate.enumerate_bounded_relations": ("evaluate", "game"),
}


class Tracer:
    """Records one span (name, start, end, parent) per call of a wrapped
    name while installed, plus counters taken at the same boundaries.

    Spans of the operation in progress are kept in memory; `end_op` folds
    them into per-name totals (calls, inclusive and self time) and keeps
    the spans of the first traced operation for the output file.
    """

    def __init__(self, modules: dict):
        self.spans: list = []
        self.stack: list = []
        self.counters: Counter = Counter()
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.first_op_spans = None
        self.ops = 0
        self._universe_formulas: list = []
        self._patches = []
        for name, binders in SPANS.items():
            layer, attr = name.split(".")
            original = getattr(modules[layer], attr)
            after = getattr(self, "_after_" + attr, None)
            before = getattr(self, "_before_" + attr, None)
            for binder in binders:
                before_here = before
                if name == "evaluate.evaluate" and binder == "interp":
                    before_here = self._count_universe_test
                wrapper = self._span(name, original, before_here, after)
                self._patches.append((modules[binder], attr, original, wrapper))
        for name, binders in YIELD_COUNTERS.items():
            layer, attr = name.split(".")
            original = getattr(modules[layer], attr)
            wrapper = self._counting_generator(name + ".yielded", original)
            for binder in binders:
                self._patches.append((modules[binder], attr, original, wrapper))

    def _span(self, name, fn, before, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counting_generator(self, key, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[key] += 1
                yield item

        return wrapper

    # --- counters taken at span boundaries ---

    def _before_apply_interpretation(self, args):
        self._universe_formulas.append(args[0].uni)

    def _after_apply_interpretation(self, args, result):
        self._universe_formulas.pop()
        self.counters["interp.universe_size"] += result.n

    def _count_universe_test(self, args):
        if self._universe_formulas and args[1] is self._universe_formulas[-1]:
            self.counters["interp.tuples_tested"] += 1

    def _after_pebble_game_winner(self, args, result):
        self.counters["game.surviving_positions"] += len(result[1])

    # --- install / fold ---

    def begin_op(self):
        self.spans.clear()
        self.stack.clear()
        self._universe_formulas.clear()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def end_op(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        child_s = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(self.spans):
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - child_s[idx]
            if name == "core.from_text" and parent >= 0 \
                    and self.spans[parent][0] == "evaluate.gc_check":
                self.counters["evaluate.gc_check.candidates"] += 1
        if self.first_op_spans is None:
            origin = self.spans[0][1] if self.spans else 0.0
            self.first_op_spans = [
                [name, round((start - origin) * 1e3, 4), round((end - origin) * 1e3, 4), parent]
                for name, start, end, parent in self.spans
            ]
        self.ops += 1

    def layer_self_ms(self) -> dict:
        out = Counter()
        for name, s in self.self_s.items():
            out[name.split(".")[0]] += s * 1e3
        return {layer: out[layer] / max(self.ops, 1) for layer in LAYERS}


@dataclass(frozen=True)
class _Node:
    op: str
    kids: tuple


def _tree(depth, i):
    if depth == 0:
        return _Node(f"P{i % 5}", ())
    return _Node("&" if i % 2 else "|", (_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1)))


def _show(node):
    if not node.kids:
        return node.op
    return "(" + f" {node.op} ".join(_show(kid) for kid in node.kids) + ")"


_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9]*|[()&|]")


def reference() -> int:
    """The fixed computation the host's speed is read with, 4-5 ms on a
    shared 2.1 GHz Xeon: the kind of work logifp does, in two parts.  One
    builds, prints, tokenizes and walks a tree of 255 frozen dataclass
    nodes, as the formula layer does; the other is a loop of tuple, set,
    dict and call work, as the evaluator's inner loops are.  It never
    calls logifp, so no change to logifp moves it."""
    tree = _tree(7, 1)
    tokens = _TOKEN.findall(_show(tree))
    seen, stack = {tree}, [tree]
    while stack:
        for kid in stack.pop().kids:
            if kid not in seen:
                seen.add(kid)
                stack.append(kid)
    table, acc = {}, len(tokens) + len(seen)
    for i in range(5000):
        key = (i % 13, i % 7)
        if key not in seen:
            seen.add(key)
        table[key] = table.get(key, 0) + (i * 31 + key[0]) % 101
        acc += len(table)
    return acc


class HostSpeed:
    """While active (`with speed:`), a SIGALRM handler runs `reference`
    every `interval` seconds, between the bytecodes of whatever is running,
    and records when it started and how long it took.  The handler runs
    whole between two bytecodes, so each of its runs lies wholly inside or
    wholly outside an operation, and `paused_s` gives exactly the time to
    take off that operation's wall time.

    On a shared host the same computation runs up to 2x slower from one
    stretch of seconds to the next; an operation's time divided by the
    reference time sampled while it ran cancels most of that drift."""

    WINDOW = 0.5  # seconds on each side of an operation

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.starts: list = []
        self.seconds: list = []
        self.paused = [0.0]  # handler time up to and including each sample
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)
        self.paused.append(self.paused[-1] + time.perf_counter() - start)

    def __enter__(self):
        self._tick(None, None)  # so that every operation has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def paused_s(self, start: float, end: float) -> float:
        """Time spent in the handler between `start` and `end`."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return self.paused[hi] - self.paused[lo]

    def reference_s(self, start: float, end: float) -> float:
        """Mean reference time over the samples taken from WINDOW seconds
        before `start` to WINDOW seconds after `end` (the nearest sample if
        there is none)."""
        lo = bisect.bisect_left(self.starts, start - self.WINDOW)
        hi = bisect.bisect_right(self.starts, end + self.WINDOW)
        if lo == hi:
            near = min(range(len(self.starts)),
                       key=lambda i: abs(self.starts[i] - (start + end) / 2))
            return self.seconds[near]
        return statistics.fmean(self.seconds[lo:hi])
