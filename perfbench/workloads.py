"""The four workloads: grammars, jobs and the expected verdict of each job.

``build(name, seed)`` generates every input as text and computes every
expected verdict before anything is timed.  A job's ``run`` calls spr
through module attributes (``R.eval_graph``, ``D.inclusion``...) so that
the tracer can wrap those functions where callers look them up.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from typing import Callable

import inputs
import reference as ref
from spr import decision as D
from spr import grammar as G
from spr import recognizer as R
from spr import spgraph as S


@dataclass
class Job:
    kind: str  # job class, for the report
    run: Callable[[dict], object]  # set-up objects -> output
    check: Callable[[object], bool]  # output -> is it correct
    flip: Callable[[object], object]  # output with its verdict inverted
    edges: int = 0  # graph edges parsed and evaluated


@dataclass
class Workload:
    grammars: dict  # key -> grammar text
    jobs: list = field(default_factory=list)
    contexts: tuple = ()  # grammar keys whose recognizer context set-up builds


def setup(w: Workload) -> dict:
    """Parse every grammar and build the contexts the jobs use."""
    env = {k: G.parse_grammar(text) for k, text in w.grammars.items()}
    for k in w.contexts:
        env["ctx:" + k] = R.build_ctx(env[k])
    return env


# ---------------------------------------------------------------------------
# member
# ---------------------------------------------------------------------------


# spr's term parser is recursive descent, three frames per nesting level,
# so the nesting depth stays well inside Python's default recursion limit
NESTED_DEPTH = 250


def _member_job(kind, text, gkey, expected, edges):
    def run(env):
        ctx = env["ctx:" + gkey]
        return R.accepts(R.eval_graph(S.parse_graph(text), ctx), ctx)

    return Job(kind, run, lambda v: v is expected, operator.not_, edges)


def member(rng) -> Workload:
    k = 3
    w = Workload({"univ": inputs.UNIVERSAL, "wc": inputs.worstcase_grammar(k)}, contexts=("univ", "wc"))
    for _ in range(8):
        text = inputs.random_graph(rng, 2000, "ab")
        w.jobs.append(_member_job("univ-random", text, "univ", ref.labels_within(text, "ab"), 2000))
    for _ in range(8):
        text = inputs.random_graph(rng, 2000, "abcdh")
        expected = ref.worstcase_graph(S.parse_graph(text), k)
        w.jobs.append(_member_job("wc-random", text, "wc", expected, 2000))
    for _ in range(3):
        path, trailer = inputs.worstcase_member(rng, k, 80, 6)
        bad = inputs.mutate(rng, path, len(path) - k)  # one letter of the final v
        for p in (path, bad):
            text = inputs.worstcase_graph_text(p, trailer)
            w.jobs.append(_member_job("wc-path", text, "wc", ref.worstcase_strings(p, trailer, k),
                                      len(p) + k + 1))
    for _ in range(2):
        text = inputs.nested_graph(rng, NESTED_DEPTH, 8)
        w.jobs.append(_member_job("nested", text, "univ", ref.labels_within(text, "ab"),
                                  1 + NESTED_DEPTH * 9))
    return w


# ---------------------------------------------------------------------------
# saturate
# ---------------------------------------------------------------------------


def _saturate_job(kind, gkey, cap, lower):
    """Full saturation must finish with at least ``lower`` profiles; a capped
    one must stop unsaturated at the cap.  Either way the profile count stays
    within bound_cardinality."""

    def run(env):
        ctx = env["ctx:" + gkey]
        res = R.reachable_profiles(ctx, cap)
        return res.saturated, len(res.profiles), D.bound_cardinality(env[gkey], ctx)

    def check(out):
        saturated, n, bound = out
        if n > bound:
            return False
        if cap is None:
            return saturated and n >= lower
        return not saturated and cap <= n <= cap + 1

    return Job(kind, run, check, lambda out: (not out[0],) + out[1:])


def saturate(rng) -> Workload:
    # every job saturates a grammar of its own: renamed copies of the
    # string-matching grammars share no profile, so no composition repeats
    # across jobs
    w = Workload({})
    for i, cap in enumerate((250, 300, 350, 400)):
        for k in (2, 3):
            key = f"wc{k}_{i}"
            w.grammars[key] = inputs.worstcase_grammar(k, f"_{i}")
            w.jobs.append(_saturate_job(f"wc{k}-capped", key, cap, None))
    # Full saturations of chains, each of its own residue.  Their cost does
    # not depend on the residue or the hash order, while a capped saturation's
    # does, so they are placed where the percentiles fall: six of one
    # modulus around the middle of the latencies and three of a larger one at
    # the top, so that neither query_p50_ms nor query_p90_ms sits on a gap
    # between job sizes.
    chains = []
    for m, count in ((44, 6), (58, 3)):
        for r in rng.sample(range(m), count):
            chains.append((f"mod{m}r{r}", m))
            w.grammars[chains[-1][0]] = inputs.chain_grammar(m, r)
    w.contexts = tuple(w.grammars)
    for key, m in chains:
        # chains of different residues mod m are told apart by appending a chain
        w.jobs.append(_saturate_job("chain-full", key, None, m))
    return w


# ---------------------------------------------------------------------------
# periodic
# ---------------------------------------------------------------------------

BUNDLE = ((4, 6, 10), 3)  # widths 3 + 4x + 6y + 10z: odd widths from 7 on
# saturated in four renamed copies: equal-cost jobs form the top tenth of
# the latencies, so query_p90_ms does not sit on a gap between job sizes
SATURATED_BUNDLE = ((3, 4), 2)
SPARSE = ((2000,), 2)  # one period in the thousands: widths 2 + 2000x


def periodic(rng) -> Workload:
    w = Workload({"bundle": inputs.bundle_grammar(*BUNDLE), "sparse": inputs.bundle_grammar(*SPARSE)})
    for i in range(4):
        w.grammars[f"sat{i}"] = inputs.bundle_grammar(*SATURATED_BUNDLE, f"_{i}")
    w.contexts = tuple(w.grammars)
    for _ in range(12):
        width = rng.randint(24, 26)
        expected = ref.bundle_widths(*BUNDLE, width)[width]
        w.jobs.append(_member_job("bundle", inputs.bundle_text(width), "bundle", expected, width))
    for width in (SPARSE[1], rng.randint(290, 310)):
        expected = ref.bundle_widths(*SPARSE, width)[width]
        w.jobs.append(_member_job("sparse", inputs.bundle_text(width), "sparse", expected, width))
    lower = ref.bundle_classes(*SATURATED_BUNDLE)
    for i in range(4):
        w.jobs.append(_saturate_job("bundle-full", f"sat{i}", None, lower))
    return w


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def _chain_witness_ok(grammars, n_expected, wit):
    """The witness is the shortest chain with the expected length, and small
    ones are also found by brute-force enumeration of every grammar."""
    if ref.chain_labels(wit) != "a" * n_expected:
        return False
    return all(ref.small_member(g, wit) is not False for g in grammars)


def _flip_decision(res):
    return D.DecisionResult(not res.holds, res.witness, res.stats)


def _intersection_job(kind, parsed, ka, kb, n):
    """Chains of ``ka`` and ``kb`` share the length ``n`` at the shortest, or
    none when ``n`` is None."""

    def run(env):
        return D.intersection_empty([env[ka], env[kb]])

    def check(res):
        if n is None:
            return res.holds and res.witness is None
        return not res.holds and _chain_witness_ok((parsed[ka], parsed[kb]), n, res.witness)

    return Job(kind, run, check, _flip_decision)


def _inclusion_job(kind, parsed, k1, k2, n):
    """``k1`` included in ``k2``; when ``n`` is not None it fails and the
    shortest counterexample has ``n`` edges."""

    def run(env):
        return D.inclusion(env[k1], env[k2])

    def check(res):
        if n is None:
            return res.holds and res.witness is None
        if res.holds or res.witness is None or res.witness.edges != n:
            return False
        if k1 != "univ" and ref.chain_labels(res.witness) != "a" * n:
            return False
        return (ref.small_member(parsed[k1], res.witness) is not False
                and ref.small_member(parsed[k2], res.witness) is not True)

    return Job(kind, run, check, _flip_decision)


def decide(rng) -> Workload:
    w = Workload({"univ": inputs.UNIVERSAL})
    parsed: dict = {}  # filled below, read only by the checks

    def chain(m, r):
        key = f"mod{m}r{r}"
        w.grammars[key] = inputs.chain_grammar(m, r)
        return key

    # witnesses of 35 to 51 edges: each costs less than an inclusion of the
    # universal grammar below, so the 90th percentile falls among those
    for a, b, lo, hi in ((8, 9, 49, 51), (7, 8, 44, 46), (6, 7, 34, 36)):
        length = rng.randint(lo, hi)
        ra, rb = length % a, length % b
        n = ref.min_common_chain(a, ra, b, rb)
        w.jobs.append(_intersection_job("int-witness", parsed, chain(a, ra), chain(b, rb), n))
    # one modulus pair and distinct residues: four jobs of nearly equal cost
    # around the middle of the latencies, as on saturate
    a, b = 12, 18
    for ra in rng.sample(range(a), 4):
        rb = (ra + rng.randint(1, math.gcd(a, b) - 1)) % b  # residues differ mod gcd
        n = ref.min_common_chain(a, ra, b, rb)
        w.jobs.append(_intersection_job("int-empty", parsed, chain(a, ra), chain(b, rb), n))
    for _ in range(4):
        # equal-cost jobs, as with SATURATED_BUNDLE: the top of the latencies
        m = 26
        key = chain(m, rng.randrange(m))
        # the lone edge b is in the universal language and in no chain language
        w.jobs.append(_inclusion_job("univ-in-chain", parsed, "univ", key, 1))
    for m in (60, 100):
        r = rng.randrange(2 * m)
        big = chain(2 * m, r)
        for r2, kind in ((r % m, "chain-in-chain-holds"), ((r + 1) % m, "chain-in-chain-fails")):
            n = ref.min_chain_outside(2 * m, r, m, r2)
            w.jobs.append(_inclusion_job(kind, parsed, big, chain(m, r2), n))
    parsed.update({k: G.parse_grammar(t) for k, t in w.grammars.items()})
    return w


BUILDERS = {"member": member, "saturate": saturate, "periodic": periodic, "decide": decide}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
