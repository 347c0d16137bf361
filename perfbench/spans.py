"""Spans around spr's public functions, recorded from the benchmark's side.

``Tracer.install()`` replaces each function in ``SITES`` by a wrapper in the
module where its callers look it up (``spr.recognizer.term_mul`` is what
``op_parallel`` calls), and ``remove()`` puts the originals back.  A span's
parent is the innermost span open when it starts.  Saturations make millions
of calls, so spans are folded as they close: per span name its calls, total
time and self time (duration minus the time its child spans cover), and per
(parent, child) pair its calls.  Each job is a root span of its own.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from spr import decision, grammar, recognizer, spgraph

# (module, attribute, span name); the layer is the span name's first part
SITES = [
    (recognizer, "term_mul", "termalg.term_mul"),
    (recognizer, "linear_to_nf", "termalg.linear_to_nf"),
    (recognizer, "par_map", "recognizer.par_map"),
    (recognizer, "op_serial", "recognizer.op_serial"),
    (recognizer, "op_parallel", "recognizer.op_parallel"),
    (recognizer, "eval_graph", "recognizer.eval_graph"),
    (recognizer, "accepts", "recognizer.accepts"),
    (recognizer, "reachable_profiles", "recognizer.reachable_profiles"),
    (recognizer, "build_ctx", "recognizer.build_ctx"),
    (decision, "op_serial", "recognizer.op_serial"),
    (decision, "op_parallel", "recognizer.op_parallel"),
    (decision, "accepts", "recognizer.accepts"),
    (decision, "build_ctx", "recognizer.build_ctx"),
    (decision, "compose_serial", "spgraph.compose"),
    (decision, "compose_parallel", "spgraph.compose"),
    (decision, "derivable_values", "decision.derivable_values"),
    (decision, "inclusion", "decision.inclusion"),
    (decision, "intersection_empty", "decision.intersection_empty"),
    (decision, "bound_cardinality", "decision.bound_cardinality"),
    (spgraph, "parse_graph", "spgraph.parse_graph"),
    (grammar, "parse_grammar", "grammar.parse_grammar"),
]

LAYERS = ("spgraph", "grammar", "termalg", "recognizer", "decision", "bench")
ROOT = "bench.job"


def _record(tr, name, args, out):
    """Work counters read off a call's arguments and result."""
    c = tr.counts
    if name == "termalg.term_mul":
        c[name + ".pairs"] += len(args[0]) * len(args[1])
    elif name in ("recognizer.op_serial", "recognizer.op_parallel"):
        tr.distinct[name].add(hash((args[0], args[1])))
    elif name == "recognizer.eval_graph":
        c[name + ".edges"] += args[0].edges
    elif name == "spgraph.parse_graph":
        c[name + ".edges"] += out.edges
    elif name == "recognizer.reachable_profiles":
        c[name + ".profiles"] += len(out.profiles)
    elif name == "decision.derivable_values":
        c[name + ".settled"] += sum(len(vs) for vs in out.values())
    elif name == "decision.intersection_empty":
        c[name + ".settled"] += out.stats["profiles_explored"]
        c[name + ".pops"] += out.stats["iterations"]


class Tracer:
    def __init__(self):
        self.stack: list = []  # open spans: [name, time covered by children]
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.pairs: Counter = Counter()  # (parent name, child name) -> calls
        self.counts: Counter = Counter()
        self.distinct: dict = defaultdict(set)
        self._saved: list = []

    def _close(self, frame, dur):
        name = frame[0]
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - frame[1]
        if self.stack:
            parent = self.stack[-1]
            parent[1] += dur
            self.pairs[(parent[0], name)] += 1

    def wrap(self, fn, name):
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self._close(frame, dur)
            _record(self, name, args, out)
            return out

        return wrapper

    def job(self, fn, *args):
        """Run one job as a root span; returns (output, seconds)."""
        frame = [ROOT, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            dur = time.perf_counter() - t0
            self.stack.pop()
            self._close(frame, dur)
        return out, dur

    def install(self):
        for module, attr, name in SITES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in self.self_time.items():
            out[name.split(".", 1)[0]] += s
        return out
