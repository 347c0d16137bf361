"""spr benchmark: one workload in one single-threaded process.

    python3 perfbench/run.py --workload member --seed 1 --seconds 26 --trace 0

Run from the root of a checkout; spr is imported from ``src/``.  Inputs are
generated from ``--seed`` as text, every expected verdict is computed by the
references in ``reference.py``, and only then does timing start.  The
process re-executes itself once with ``PYTHONHASHSEED`` fixed to the seed,
so a seed repeats its outputs exactly (capped saturations depend on hash
order).

The job list runs in passes until ``--seconds`` have gone by, and every
verdict is checked.  Set-up (parse_grammar plus build_ctx of the workload's
grammars) is timed in rounds between the passes.  Every time is scaled by
the machine speed probed right around it (see ``speed.py``).  With
``--trace 1`` one traced set-up round and one traced pass follow, and the
per-layer metrics are reported instead of the end-to-end ones.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("member", "saturate", "periodic", "decide")
# set-up rounds after each pass, while their total stays under the budget
SETUP_ROUNDS_PER_PASS = 3
SETUP_BUDGET_S = 2.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long the passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced pass")
    return ap.parse_args(argv)


def pin_hash_seed(seed: int) -> str:
    """Re-execute this process with PYTHONHASHSEED set to the seed."""
    want = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != want:
        sys.stdout.flush()
        env = dict(os.environ, PYTHONHASHSEED=want)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    return want


class Pass:
    """The outcome of running every job once."""

    def __init__(self):
        self.latencies: list = []  # scaled seconds per job (see speed.py)
        self.raw: list = []  # measured seconds per job
        self.graph_s = 0.0  # scaled time of jobs that parse and evaluate a graph
        self.edges = 0
        self.failed = 0

    @property
    def wall_s(self):
        return sum(self.latencies)


def run_pass(w, env, speed=None, tracer=None, flip=False, log=None) -> Pass:
    """Run every job once and check its verdict.  A job fails when the
    verdict is wrong or the call raises; spr's time is taken around the
    call alone, the check is not timed.  With a ``Speed`` each job's time
    is scaled by the machine speed probed right before and after it."""
    p = Pass()
    for job in w.jobs:
        raised = False
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = job.run(env)
                dt = time.perf_counter() - t0
            else:
                out, dt = tracer.job(job.run, env)
        except Exception:  # a job that raises is a failed job; keep measuring
            dt = time.perf_counter() - t0
            raised = True
            p.failed += 1
            if log is not None:
                log(f"job {job.kind} raised:\n{traceback.format_exc()}")
        p.raw.append(dt)
        if speed is not None:
            dt = speed.scale(dt)
        p.latencies.append(dt)
        if raised:
            continue
        if job.edges:
            p.graph_s += dt
            p.edges += job.edges
        if flip:
            out = job.flip(out)
        if not job.check(out):
            p.failed += 1
            if log is not None:
                log(f"job {job.kind}: wrong output {out!r}")
    return p


def timed_setup(w, times, speed):
    """One set-up round; appends its scaled seconds to ``times``."""
    from workloads import setup

    t0 = time.perf_counter()
    env = setup(w)
    times.append(speed.scale(time.perf_counter() - t0))
    return env


def measure(w, seconds, speed, log):
    """Passes until ``seconds`` have gone by, with set-up rounds between
    them so that set-up is sampled over the same stretch of time as the
    passes.  Returns the set-up times and the passes."""
    setup_times: list = []
    env = timed_setup(w, setup_times, speed)
    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        passes.append(run_pass(w, env, speed, log=log))
        for _ in range(SETUP_ROUNDS_PER_PASS):
            if sum(setup_times) < SETUP_BUDGET_S:
                timed_setup(w, setup_times, speed)
    return setup_times, passes


def percentile(values, q):
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer(tr, setup_tr, overhead_s):
    from spans import ROOT

    m = {}
    for name in ("termalg.term_mul", "termalg.linear_to_nf", "recognizer.par_map",
                 "recognizer.op_serial", "recognizer.op_parallel", "spgraph.compose"):
        m[name + ".calls"] = metric(tr.calls[name], "count")
        m[name + ".s"] = metric(tr.total[name], "s")
    m["termalg.term_mul.pairs"] = metric(tr.counts["termalg.term_mul.pairs"], "count")
    for name in ("recognizer.op_serial", "recognizer.op_parallel"):
        calls = tr.calls[name]
        m[name + ".distinct_ratio"] = metric(len(tr.distinct[name]) / calls if calls else 0.0, "ratio")
    m["recognizer.reachable_profiles.s"] = metric(tr.total["recognizer.reachable_profiles"], "s")
    m["recognizer.reachable_profiles.profiles"] = metric(
        tr.counts["recognizer.reachable_profiles.profiles"], "count")
    for name in ("recognizer.eval_graph", "spgraph.parse_graph"):
        s = tr.total[name]
        m[name + ".s"] = metric(s, "s")
        m[name + ".edges_per_s"] = metric(tr.counts[name + ".edges"] / s if s else 0.0, "edges/s")
    dv = "decision.derivable_values"
    settled = tr.counts[dv + ".settled"]
    ops = tr.pairs[(dv, "recognizer.op_serial")] + tr.pairs[(dv, "recognizer.op_parallel")]
    m[dv + ".s"] = metric(tr.total[dv], "s")
    m[dv + ".settled"] = metric(settled, "count")
    m[dv + ".ops_per_settled"] = metric(ops / settled if settled else 0.0, "ratio")
    ie = "decision.intersection_empty"
    m[ie + ".s"] = metric(tr.total[ie], "s")
    m[ie + ".settled"] = metric(tr.counts[ie + ".settled"], "count")
    m[ie + ".pops"] = metric(tr.counts[ie + ".pops"], "count")
    m["decision.bound_cardinality.s"] = metric(tr.total["decision.bound_cardinality"], "s")
    m["grammar.parse_grammar.s"] = metric(setup_tr.total["grammar.parse_grammar"], "s")
    m["recognizer.build_ctx.s"] = metric(setup_tr.total["recognizer.build_ctx"], "s")
    base = tr.total[ROOT]
    for layer, s in tr.layer_self().items():
        if layer == "grammar":
            continue  # grammars are parsed in set-up, never inside a job
        m[layer + ".self_s"] = metric(s, "s")
        m[layer + ".self_pct"] = metric(100.0 * s / base, "%")
    m["trace.overhead_s"] = metric(overhead_s, "s")
    return m


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "spr" / "__init__.py").is_file():
        print(f"perfbench: spr sources not found under {SRC}", file=sys.stderr)
        return 2
    hash_seed = pin_hash_seed(args.seed)
    sys.path.insert(0, str(SRC))

    import workloads
    from spans import ROOT, Tracer
    from speed import Speed

    def log(msg):
        print(f"perfbench: {msg}", file=sys.stderr)

    print(f"# workload={args.workload} seed={args.seed} PYTHONHASHSEED={hash_seed} "
          f"python={platform.python_version()} cores={os.cpu_count()} trace={args.trace}")
    w = workloads.build(args.workload, args.seed)
    speed = Speed()
    setup_times, passes = measure(w, args.seconds, speed, log)
    setup_s = statistics.median(setup_times)
    walls = [p.wall_s for p in passes]
    wall_s = statistics.median(walls)
    attempted = len(w.jobs) * len(passes)
    failed = sum(p.failed for p in passes)

    if args.trace:
        setup_tr, tr = Tracer(), Tracer()
        setup_tr.install()
        try:
            env = workloads.setup(w)
        finally:
            setup_tr.remove()
        tr.install()
        try:
            traced = run_pass(w, env, speed, tracer=tr, log=log)
        finally:
            tr.remove()
        attempted += len(w.jobs)
        failed += traced.failed
        overhead_s = traced.wall_s - wall_s
        metrics = per_layer(tr, setup_tr, overhead_s)
        base = tr.total[ROOT]
        shares = ", ".join(f"{layer} {100.0 * s / base:.1f}%"
                           for layer, s in tr.layer_self().items() if layer != "grammar")
        print(f"# self time of {base:.3f} s traced (measured): {shares}")
        print(f"# traced wall_s {traced.wall_s:.3f} s vs untraced {wall_s:.3f} s, both scaled "
              f"({100.0 * overhead_s / wall_s:+.1f}%)")
    else:
        lat = [x for p in passes for x in p.latencies]
        graph_s = sum(p.graph_s for p in passes)
        edges = sum(p.edges for p in passes)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(wall_s, "s"),
            "query_p50_ms": metric(1000.0 * percentile(lat, 50), "ms"),
            "query_p90_ms": metric(1000.0 * percentile(lat, 90), "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"# set-up rounds={len(setup_times)} passes={len(passes)} jobs/pass={len(w.jobs)} "
              f"query samples={len(lat)} "
              f"pass walls (s): {' '.join(f'{x:.3f}' for x in walls)}")
        print(f"# measured pass walls (s): {' '.join(f'{sum(p.raw):.3f}' for p in passes)}")
        by_kind: dict = {}
        for p in passes:
            for job, x in zip(w.jobs, p.latencies):
                by_kind.setdefault(job.kind, []).append(x)
        print("# median ms per job: " + ", ".join(
            f"{kind} {1000.0 * statistics.median(xs):.1f} (n={len(xs)})" for kind, xs in by_kind.items()))
        if edges:
            print(f"# edges_per_s={edges / graph_s:.1f} edges/s over {edges} edges")
        else:
            print("# edges_per_s: no graph jobs in this workload")
    print(f"# fail_ratio={failed / attempted:.6f} ({failed} of {attempted} jobs)")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
