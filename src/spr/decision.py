"""Decision procedures built on top of the profile recognizer.

All of these reduce questions about infinite graph languages to finite
saturations:

* ``is_empty``: a productivity fixpoint over the rules.
* ``minimal_graphs``: smallest derivable graph per nonterminal
  (shortest-derivation search, so witnesses are edge-minimal).
* ``derivable_values``: for every nonterminal of one grammar, all profiles
  (with respect to another grammar) of graphs it derives, each with an
  edge-minimal witness.  Inclusion and filtering are read off from this.
* ``intersection_empty``: the same saturation on tuples of profiles.
* ``bound_cardinality``: a closed-form bound on how many distinct profiles a
  grammar admits; reachability saturations stay below it.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .grammar import Grammar, GrammarError, RuleFree, rule_rhs_term
from .recognizer import (
    RecognizerCtx,
    accepts,
    bridge_profile,
    build_ctx,
    op_parallel,
    op_serial,
)
from .spgraph import (
    Atom,
    Bridge,
    Ref,
    Serial,
    SPGraph,
    compose_parallel,
    compose_serial,
)
from .termalg import Bounded, Periodic


class CapExceeded(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"saturation exceeded the cap of {cap} states")
        self.cap = cap


@dataclass
class DecisionResult:
    """Verdict plus optional counterexample; unpacks like (holds, witness).

    ``stats`` carries saturation effort: distinct profile values stored,
    worklist items processed, and wall-clock milliseconds.
    """

    holds: bool
    witness: Optional[SPGraph] = None
    stats: dict = field(default_factory=dict)

    def __iter__(self):
        return iter((self.holds, self.witness))

    def __bool__(self):
        return self.holds


# ---------------------------------------------------------------------------
# Plumbing over rule bodies
# ---------------------------------------------------------------------------


def _ref_occurrences(t) -> list:
    """Nonterminal occurrences of a body, in the traversal order every other
    helper here uses (left to right)."""
    if isinstance(t, Atom):
        return []
    if isinstance(t, Ref):
        return [t.name]
    return _ref_occurrences(t.left) + _ref_occurrences(t.right)


def _build_graph(t, wits) -> SPGraph:
    """The body with its i-th nonterminal occurrence replaced by wits[i]."""
    it = iter(wits)

    def go(node):
        if isinstance(node, Atom):
            return Bridge(node.label)
        if isinstance(node, Ref):
            return next(it)
        a, b = go(node.left), go(node.right)
        return compose_serial(a, b) if isinstance(node, Serial) else compose_parallel(a, b)

    return go(t)


def _eval_body(ctx: RecognizerCtx, t, vals, wits):
    """Profile and witness of the body under a choice of profile/witness for
    each nonterminal occurrence (same order as ``_ref_occurrences``)."""
    idx = iter(range(len(vals)))

    def go(node):
        if isinstance(node, Atom):
            return bridge_profile(node.label, ctx), Bridge(node.label)
        if isinstance(node, Ref):
            i = next(idx)
            return vals[i], wits[i]
        (va, wa), (vb, wb) = go(node.left), go(node.right)
        if isinstance(node, Serial):
            return op_serial(va, vb, ctx), compose_serial(wa, wb)
        return op_parallel(va, vb, ctx), compose_parallel(wa, wb)

    return go(t)


def _rename_refs(t, names):
    it = iter(names)

    def go(node):
        if isinstance(node, Atom):
            return node
        if isinstance(node, Ref):
            return Ref(next(it))
        cls = type(node)
        return cls(go(node.left), go(node.right))

    return go(t)


# ---------------------------------------------------------------------------
# Emptiness
# ---------------------------------------------------------------------------


def productive_nonterminals(g: Grammar) -> set:
    info = [(r.lhs, set(_ref_occurrences(rule_rhs_term(r)))) for r in g.rules]
    prod: set = set()
    changed = True
    while changed:
        changed = False
        for lhs, refs in info:
            if lhs not in prod and refs <= prod:
                prod.add(lhs)
                changed = True
    return prod


def is_empty(g: Grammar) -> bool:
    return not (set(g.axioms) & productive_nonterminals(g))


def minimal_graphs(g: Grammar, stats: Optional[dict] = None) -> dict:
    """Edge-minimal derivable graph for each productive nonterminal.  When
    given, ``stats`` receives the effort: nonterminals ``settled`` and heap
    ``pops``."""
    rule_info = [(r.lhs, rule_rhs_term(r)) for r in g.rules]
    occs = [_ref_occurrences(t) for _, t in rule_info]
    uses = defaultdict(list)
    for i, names in enumerate(occs):
        for y in set(names):
            uses[y].append(i)
    settled: dict = {}
    heap: list = []
    tick = itertools.count()

    def consider(i):
        lhs, t = rule_info[i]
        if lhs in settled:
            return
        try:
            wits = [settled[y] for y in occs[i]]
        except KeyError:
            return
        graph = _build_graph(t, wits)
        heapq.heappush(heap, (graph.edges, next(tick), lhs, graph))

    for i, names in enumerate(occs):
        if not names:
            consider(i)
    pops = 0
    while heap:
        _, _, x, graph = heapq.heappop(heap)
        pops += 1
        if x in settled:
            continue
        settled[x] = graph
        for i in uses[x]:
            consider(i)
    if stats is not None:
        stats.update(settled=len(settled), pops=pops)
    return settled


def emptiness_witness(g: Grammar, stats: Optional[dict] = None) -> Optional[SPGraph]:
    """An edge-minimal graph of the language, or None when empty
    (``stats`` as for :func:`minimal_graphs`)."""
    best = minimal_graphs(g, stats)
    found = [best[x] for x in g.axioms if x in best]
    if not found:
        return None
    return min(found, key=lambda w: (w.edges, w.key))


# ---------------------------------------------------------------------------
# Profiles of one grammar's derivations under another grammar
# ---------------------------------------------------------------------------


def derivable_values(g: Grammar, ctx: RecognizerCtx, cap: Optional[int] = None) -> dict:
    """For every nonterminal of ``g``: all profiles (w.r.t. ``ctx``) of graphs
    it derives, mapped to an edge-minimal witness graph."""
    foreign = set(g.alphabet) - set(ctx.grammar.alphabet)
    if foreign:
        raise GrammarError(f"alphabet mismatch: {sorted(foreign)} unknown to the recognizer")
    rule_info = [(r.lhs, rule_rhs_term(r)) for r in g.rules]
    occs = [_ref_occurrences(t) for _, t in rule_info]
    uses = defaultdict(list)
    for i, names in enumerate(occs):
        for y in set(names):
            uses[y].append(i)
    settled = {x: {} for x in g.pnames + g.snames}
    heap: list = []
    tick = itertools.count()

    def consider(i):
        lhs, t = rule_info[i]
        pools = [list(settled[y].items()) for y in occs[i]]
        for combo in itertools.product(*pools):
            vals = [v for v, _ in combo]
            wits = [w for _, w in combo]
            value, wit = _eval_body(ctx, t, vals, wits)
            if value not in settled[lhs]:
                heapq.heappush(heap, (wit.edges, next(tick), lhs, value, wit))

    for i, names in enumerate(occs):
        if not names:
            consider(i)
    total = 0
    while heap:
        _, _, x, value, wit = heapq.heappop(heap)
        if value in settled[x]:
            continue
        settled[x][value] = wit
        total += 1
        if cap is not None and total > cap:
            raise CapExceeded(cap)
        for i in uses[x]:
            consider(i)
    return settled


def inclusion(g1: Grammar, g2: Grammar, cap: Optional[int] = None) -> DecisionResult:
    """Is every graph of ``g1`` also one of ``g2``?  Returns (holds, witness)
    with an edge-minimal counterexample when it does not hold."""
    t0 = time.perf_counter()
    ctx2 = build_ctx(g2)
    values = derivable_values(g1, ctx2, cap)
    explored = sum(len(vs) for vs in values.values())
    stats = {"profiles_explored": explored, "iterations": explored}
    bad = []
    for x in g1.axioms:
        bad.extend(w for v, w in values[x].items() if not accepts(v, ctx2))
    stats["wall_ms"] = (time.perf_counter() - t0) * 1000.0
    if bad:
        return DecisionResult(False, min(bad, key=lambda w: (w.edges, w.key)), stats)
    return DecisionResult(True, None, stats)


def intersection_empty(grammars, cap: Optional[int] = None) -> DecisionResult:
    """Do the given languages share no graph?  Returns (empty, witness) with
    an edge-minimal common graph when they do share one."""
    t0 = time.perf_counter()
    grammars = list(grammars)
    if not grammars:
        raise ValueError("need at least one grammar")
    ctxs = [build_ctx(g) for g in grammars]
    common = set(grammars[0].alphabet)
    for g in grammars[1:]:
        common &= set(g.alphabet)
    settled: dict = {}
    best: dict = {}
    heap: list = []
    tick = itertools.count()
    pops = 0

    def done(holds, wit):
        stats = {
            "profiles_explored": len(settled),
            "iterations": pops,
            "wall_ms": (time.perf_counter() - t0) * 1000.0,
        }
        return DecisionResult(holds, wit, stats)

    def push(value, wit):
        if wit.edges < best.get(value, math.inf):
            best[value] = wit.edges
            heapq.heappush(heap, (wit.edges, next(tick), value, wit))

    for a in sorted(common):
        push(tuple(ctx.bridge_profiles[a] for ctx in ctxs), Bridge(a))
    while heap:
        _, _, value, wit = heapq.heappop(heap)
        pops += 1
        if value in settled:
            continue
        settled[value] = wit
        if all(accepts(h, ctx) for ctx, h in zip(ctxs, value)):
            return done(False, wit)
        if cap is not None and len(settled) > cap:
            raise CapExceeded(cap)
        for v2, w2 in list(settled.items()):
            for (va, wa), (vb, wb) in (((value, wit), (v2, w2)), ((v2, w2), (value, wit))):
                push(
                    tuple(op_serial(x, y, ctx) for ctx, x, y in zip(ctxs, va, vb)),
                    compose_serial(wa, wb),
                )
            push(
                tuple(op_parallel(x, y, ctx) for ctx, x, y in zip(ctxs, value, v2)),
                compose_parallel(wit, w2),
            )
    return done(True, None)


def filter_grammar(
    g1: Grammar, g2: Grammar, mode: str = "accept", cap: Optional[int] = None
) -> Grammar:
    """A grammar for the graphs of ``g1`` that ``g2`` accepts (or rejects,
    with ``mode='reject'``).

    Every nonterminal of ``g1`` is split per reachable profile; rules are
    re-emitted once per realizable combination of profiles for their
    nonterminal occurrences, and only suitably-profiled axioms survive.
    """
    if mode not in ("accept", "reject"):
        raise ValueError("mode must be 'accept' or 'reject'")
    ctx2 = build_ctx(g2)
    values = derivable_values(g1, ctx2, cap)
    vname = {}
    for x in g1.pnames + g1.snames:
        ordered = sorted(values[x].items(), key=lambda vw: (vw[1].edges, vw[1].key))
        vname[x] = {v: f"{x}$v{i}" for i, (v, _) in enumerate(ordered)}

    rules = []
    for r in g1.rules:
        t = rule_rhs_term(r)
        occ = _ref_occurrences(t)
        pools = [list(values[y].items()) for y in occ]
        for combo in itertools.product(*pools):
            vals = [v for v, _ in combo]
            wits = [w for _, w in combo]
            value, _ = _eval_body(ctx2, t, vals, wits)
            body = _rename_refs(t, [vname[y][v] for y, v in zip(occ, vals)])
            rules.append(RuleFree(vname[r.lhs][value], body))

    axioms = []
    for x in g1.axioms:
        for v in values[x]:
            if accepts(v, ctx2) == (mode == "accept"):
                axioms.append(vname[x][v])
    pnames = tuple(n for x in g1.pnames for n in vname[x].values())
    snames = tuple(n for x in g1.snames for n in vname[x].values())
    return Grammar(g1.alphabet, pnames, snames, tuple(axioms), tuple(rules))


# ---------------------------------------------------------------------------
# How many profiles can there be
# ---------------------------------------------------------------------------


def bound_cardinality(g: Grammar, ctx: Optional[RecognizerCtx] = None) -> int:
    """An upper bound on the number of distinct profiles of the working form
    of ``g`` (serial plus parallel)."""
    if ctx is None:
        ctx = build_ctx(g)
    work = ctx.grammar
    ns, np = len(work.snames), len(work.pnames)
    bases = []
    periods = []
    for classes in ctx.contexts.values():
        for cl in classes.values():
            if isinstance(cl, Bounded):
                bases.append(cl.base)
            elif isinstance(cl, Periodic):
                periods.append(cl.period)
    b_max = max(bases, default=1)
    if not periods:
        exponent = b_max * ns * ns * np
    elif max(periods) == 1:
        exponent = 2 * b_max * ns * ns * np
    else:
        p_max = max(periods)
        exponent = math.ceil(
            (Fraction(b_max) + Fraction(p_max**2, 2)) * ns * ns * (ns + 2) * np
        )
    s_bound = 2 ** (ns * (ns + np + 1))
    return 2**exponent + s_bound
