"""Decision procedures built on top of the profile recognizer.

All of these reduce questions about infinite graph languages to finite
saturations, and every saturation is one loop, ``_lightest``: Knuth's
lightest-derivation search, which evaluates every derivation of a grammar
into a finite algebra and keeps an edge-minimal derivation per (nonterminal,
value).  A settled derivation is stored as back-pointers (its rule body and
the settled entries it combines), not as a graph.  Only when asked for it,
``_witnesses`` substitutes them into one ground term of the derivation
(``spgraph.substitute``) and canonicalizes that once.

Every search runs in one algebra, ``_search_ops``: the product of the
profile algebras of some contexts, whose values are tuples with one profile
per context.  Each composition law keeps a table for the search, keyed by
the pair of whole values, so each distinct pair is composed once.

``_decide`` answers a yes/no question and stops once the edge layer of its
first answer is finished; ``derivable_values`` and ``filter_grammar`` read
every value.

* ``derivable_values``: the loop over the profiles of another grammar (a
  product of one context), so for every nonterminal all profiles of graphs
  it derives, each with an edge-minimal witness.
* ``filter_grammar``: the same loop, read without witnesses.  Each settled
  value is a split nonterminal, numbered in settling order, and each rule
  is re-emitted per combination of splits, its head read off by folding the
  body once more through the search's own tables.
* ``inclusion``: the same loop, stopped at the first rejected axiom value.
* ``intersection_empty``: the loop over the first grammar's derivations in
  the product of the later grammars' profile algebras, stopped at the first
  common graph.  With one grammar the product is the one-point algebra, so
  this is emptiness: ``is_empty`` and ``emptiness_witness`` read it off.
* ``bound_cardinality``: a closed-form bound on how many distinct profiles a
  grammar admits; reachability saturations stay below it.

Inclusion and intersection build only the witnesses of their fewest-edge
hits, and rank them by ``spgraph.graph_order``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Optional

from .grammar import Grammar, GrammarError, RuleFree, _ignore, rule_rhs_term
from .recognizer import (
    RecognizerCtx,
    _check_cap,
    accepts,
    build_ctx,
    op_parallel,
    op_serial,
)
from .spgraph import (
    Ref,
    SPGraph,
    _canonicalizer,
    compose_parallel,  # not called here: perfbench/spans.py traces these two by name
    compose_serial,
    fold_term,
    graph_order,
    substitute,
)
from .termalg import Bounded, Periodic


class CapExceeded(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"saturation exceeded the cap of {cap} states")
        self.cap = cap


@dataclass
class DecisionResult:
    """Verdict plus optional counterexample, the first fewest-edge hit in
    ``spgraph.graph_order``; unpacks like (holds, witness).

    ``stats`` carries the effort: ``profiles_explored`` (distinct values
    settled), ``iterations`` (heap pops), ``compositions`` (distinct pairs
    of values composed, the search tables' entries), and wall-clock
    milliseconds spent in the saturation (``saturation_ms``), in building
    the witness (``witness_ms``) and in the whole call (``wall_ms``, which
    also covers compiling the recognizers and reading off the verdict).
    """

    holds: bool
    witness: Optional[SPGraph] = None
    stats: dict = field(default_factory=dict)

    def __iter__(self):
        return iter((self.holds, self.witness))

    def __bool__(self):
        return self.holds


# ---------------------------------------------------------------------------
# Lightest derivations
# ---------------------------------------------------------------------------


def _lightest(g: Grammar, atom, ser, par, cap=None, stats=None, goal=None) -> dict:
    """For every nonterminal of ``g``: each value its derivations take in the
    algebra given by ``atom(label)``, ``ser(a, b)`` and ``par(a, b)``, mapped
    to the settled entry of an edge-minimal derivation.

    Knuth's lightest-derivation search: candidates leave a heap in order of
    edges, and the first one for a (nonterminal, value) settles it.  A newly
    settled value re-evaluates only the rule bodies that use it, once per
    combination that holds it (semi-naive: the occurrences before the one
    fixed to the new value take only older values).  Each nonterminal keeps
    its settled entries in an append-only list beside the ``value -> entry``
    dict, so a combination reads the lists as they are and only a body that
    names the new value's nonterminal twice or more slices off the older
    ones.  ``stats`` receives the effort as ``DecisionResult.stats`` names
    it: the values settled (``profiles_explored``) and the heap pops
    (``iterations``); more than ``cap`` settled values raise
    :class:`CapExceeded`, and a negative ``cap`` ``ValueError``.

    An entry is ``(value, edges, body, combo)``: the rule body that derived
    it and the entries of its nonterminal occurrences, left to right.  These
    back-pointers stand in for the graph, which :func:`_witnesses` builds on
    demand.

    With ``goal``, the first settled (x, value) with ``goal(x, value)`` fixes
    an edge limit: the loop finishes that edge layer, so every value of at
    most that many edges is settled as in the full search, and stops.  The
    cap no longer applies once the goal is met.
    """
    _check_cap(cap)
    bodies = [(r.lhs, rule_rhs_term(r)) for r in g.rules]
    occs = []
    base = []  # each body's own edges: its atoms
    uses = defaultdict(list)  # nonterminal -> [(rule index, its positions)]
    for i, (_, t) in enumerate(bodies):
        names: list = []
        base.append(fold_term(t, lambda _: 1, lambda y: names.append(y) or 0, add, add))
        occs.append(names)
        for y in dict.fromkeys(names):
            uses[y].append((i, [j for j, n in enumerate(names) if n == y]))
    settled: dict = {x: {} for x in g.pnames + g.snames}
    entries: dict = {x: [] for x in settled}  # settled entries, in settling order
    heap: list = []
    tick = itertools.count()

    def push(i, combo):
        lhs, t = bodies[i]
        it = iter(combo)
        value = fold_term(t, atom, lambda _: next(it)[0], ser, par)
        if value in settled[lhs]:
            return
        edges = base[i] + sum(e[1] for e in combo)
        heapq.heappush(heap, (edges, next(tick), lhs, value, i, combo))

    for i, names in enumerate(occs):
        if not names:
            push(i, ())
    total = pops = 0
    limit = math.inf  # edges of the first value meeting the goal
    while heap and heap[0][0] <= limit:
        edges, _, x, value, i, combo = heapq.heappop(heap)
        pops += 1
        pool = settled[x]
        if value in pool:
            continue
        entry = (value, edges, bodies[i][1], combo)
        pool[value] = entry
        full = entries[x]
        full.append(entry)
        total += 1
        if limit == math.inf:
            if goal is not None and goal(x, value):
                limit = edges
            elif cap is not None and total > cap:
                raise CapExceeded(cap)
        new = [entry]
        for i, positions in uses[x]:
            pools = [entries[y] for y in occs[i]]
            old = full[:-1] if len(positions) > 1 else None
            for j in positions:
                pools[j] = new
                for combo in itertools.product(*pools):
                    push(i, combo)
                if not old:  # later positions would need an older value of x
                    break
                pools[j] = old
    if stats is not None:
        stats.update(profiles_explored=total, iterations=pops)
    return settled


def _witnesses():
    """``witness(entry)``, the graph of a settled entry of :func:`_lightest`,
    for one caller's use of the entries (which keep their ids alive): the
    ground term of its derivation, each rule body with its nonterminal
    leaves replaced by the terms of the entries they point to
    (``substitute``), canonicalized once, so each flattened layer of the
    whole derivation is one node.

    The entries' terms and one ``_canonicalizer`` are kept from call to
    call, so an entry shared by several derivations is substituted once
    and a layer shared by several witnesses is built once; an entry without
    nonterminal leaves is its body.  Iterative, so deep derivations do not
    hit the recursion limit.
    """
    terms: dict = {}
    canonical = _canonicalizer()

    def witness(entry) -> SPGraph:
        stack = [entry]
        while stack:
            e = stack[-1]
            if id(e) in terms:
                stack.pop()
                continue
            todo = [c for c in e[3] if id(c) not in terms]
            if todo:
                stack += todo
                continue
            stack.pop()
            it = iter(e[3])
            terms[id(e)] = substitute(e[2], lambda _: terms[id(next(it))]) if e[3] else e[2]
        return canonical(terms[id(entry)])

    return witness


def _search_ops(ctxs, stats: dict) -> tuple:
    """The (atom, ser, par) actions of :func:`_lightest` over the product of
    the profile algebras of ``ctxs``.  A value is a tuple with one profile
    per context; a label that a context does not know gets that context's
    empty serial profile, which nothing makes accepting.  With no context
    the product is the one-point algebra.

    Each law keeps one table for the search, keyed by the pair of whole
    values, so each distinct pair is composed once, by one ``op_serial`` or
    ``op_parallel`` call per context, and equal compositions are one shared
    value.  ``stats["compositions"]`` counts the table entries.  The laws
    are read from this module when the search starts, so a tracer's
    wrappers see every composition."""
    atoms: dict = {}
    stats["compositions"] = 0

    def atom(a):
        v = atoms.get(a)
        if v is None:
            v = atoms[a] = tuple(ctx.bridge_profiles.get(a, ctx.make((), ())) for ctx in ctxs)
        return v

    def tabled(law):
        table: dict = {}

        def compose(u, v):
            w = table.get((u, v))
            if w is None:
                w = table[u, v] = tuple(map(law, u, v, ctxs))
                stats["compositions"] += 1
            return w

        return compose

    return atom, tabled(op_serial), tabled(op_parallel)


def _decide(g: Grammar, ctxs, found, cap, t0: float) -> DecisionResult:
    """Run the loop over ``g``'s derivations in the product of the profile
    algebras of ``ctxs`` until the edge layer of the first axiom value that
    is ``found`` is finished.  The decision holds when no value of an axiom
    is ``found``, and fails with the lightest witness of those that are: only
    the hits of fewest edges are built, and ranked by ``graph_order``."""
    axioms = set(g.axioms)
    stats: dict = {}
    ops = _search_ops(ctxs, stats)
    t1 = time.perf_counter()
    values = _lightest(g, *ops, cap, stats, lambda x, value: x in axioms and found(value))
    t2 = time.perf_counter()
    hits = [e for x in axioms for v, e in values[x].items() if found(v)]
    fewest = min((e[1] for e in hits), default=None)
    build = _witnesses()
    witness = min((build(e) for e in hits if e[1] == fewest), key=graph_order, default=None)
    t3 = time.perf_counter()
    stats.update(
        saturation_ms=(t2 - t1) * 1000.0, witness_ms=(t3 - t2) * 1000.0, wall_ms=(t3 - t0) * 1000.0
    )
    return DecisionResult(not hits, witness, stats)


# ---------------------------------------------------------------------------
# Profiles of one grammar's derivations under another grammar
# ---------------------------------------------------------------------------


def derivable_values(
    g: Grammar, ctx: RecognizerCtx, cap: Optional[int] = None, stats: Optional[dict] = None
) -> dict:
    """For every nonterminal of ``g``: all profiles (w.r.t. ``ctx``) of graphs
    it derives, mapped to an edge-minimal witness graph.  When given,
    ``stats`` receives the effort counters of ``DecisionResult.stats``:
    ``profiles_explored``, ``iterations`` and ``compositions``."""
    _check_alphabet(g, ctx)
    if stats is None:
        stats = {}
    values = _lightest(g, *_search_ops([ctx], stats), cap, stats)
    build = _witnesses()
    return {x: {v[0]: build(e) for v, e in vs.items()} for x, vs in values.items()}


def _check_alphabet(g: Grammar, ctx: RecognizerCtx) -> None:
    foreign = set(g.alphabet) - set(ctx.grammar.alphabet)
    if foreign:
        raise GrammarError(f"alphabet mismatch: {sorted(foreign)} unknown to the recognizer")


def inclusion(g1: Grammar, g2: Grammar, cap: Optional[int] = None) -> DecisionResult:
    """Is every graph of ``g1`` also one of ``g2``?  Returns (holds, witness)
    with an edge-minimal counterexample when it does not hold.

    The loop over ``g1``'s derivations in ``g2``'s profiles stops once the
    edge layer of the first rejected axiom value is finished."""
    t0 = time.perf_counter()
    ctx2 = build_ctx(g2)
    _check_alphabet(g1, ctx2)
    return _decide(g1, [ctx2], lambda v: not accepts(v[0], ctx2), cap, t0)


def intersection_empty(grammars, cap: Optional[int] = None) -> DecisionResult:
    """Do the given languages share no graph?  Returns (empty, witness) with
    an edge-minimal common graph when they do share one.

    The loop runs over the first grammar's derivations, valued in the product
    of the later grammars' profile algebras; a label a later grammar does not
    know gets the empty serial profile, which nothing makes accepting.  So
    only the later grammars are compiled and must be regular: the first may
    be free-form, as the left grammar of :func:`inclusion` may.  With one
    grammar the product is the one-point algebra, and this is emptiness.
    """
    t0 = time.perf_counter()
    grammars = list(grammars)
    if not grammars:
        raise ValueError("need at least one grammar")
    first, *rest = grammars
    ctxs = [build_ctx(g) for g in rest]

    def common(value):
        return all(accepts(h, ctx) for ctx, h in zip(ctxs, value))

    return _decide(first, ctxs, common, cap, t0)


def is_empty(g: Grammar) -> bool:
    """Does ``g`` derive no graph?  The intersection of its language alone."""
    return intersection_empty([g]).holds


def emptiness_witness(g: Grammar) -> Optional[SPGraph]:
    """An edge-minimal graph of the language, or None when empty."""
    return intersection_empty([g]).witness


def filter_grammar(
    g1: Grammar, g2: Grammar, mode: str = "accept", cap: Optional[int] = None
) -> Grammar:
    """A grammar for the graphs of ``g1`` that ``g2`` accepts (or rejects,
    with ``mode='reject'``).

    Every nonterminal x of ``g1`` is split per reachable profile, into
    ``x$vN`` for the N-th value x settles in one search of ``g1``'s
    derivations in ``g2``'s profiles: in settling order, fewest edges first,
    then heap order, so the fewest edges ``x$vN`` derives never fall as N
    grows.  Each rule is re-emitted once per combination of splits for its
    occurrences, under the split of the value its body folds to through
    that search's tables, which already hold every such composition.  Only
    the splits of axioms whose profile ``g2`` accepts (or rejects) are
    axioms.  No graph is built.
    """
    if mode not in ("accept", "reject"):
        raise ValueError("mode must be 'accept' or 'reject'")
    ctx2 = build_ctx(g2)
    _check_alphabet(g1, ctx2)
    atom, ser, par = ops = _search_ops([ctx2], {})
    values = _lightest(g1, *ops, cap)
    vname = {x: {v: f"{x}$v{i}" for i, v in enumerate(vs)} for x, vs in values.items()}

    rules = []
    for r in g1.rules:
        t = rule_rhs_term(r)
        occ: list = []
        fold_term(t, _ignore, occ.append, _ignore, _ignore)
        for vals in itertools.product(*(values[y] for y in occ)):
            it = iter(vals)
            value = fold_term(t, atom, lambda _: next(it), ser, par)
            it = iter(vname[y][v] for y, v in zip(occ, vals))
            rules.append(RuleFree(vname[r.lhs][value], substitute(t, lambda _: Ref(next(it)))))

    keep = mode == "accept"
    axioms = [vname[x][v] for x in g1.axioms for v in values[x] if accepts(v[0], ctx2) == keep]
    pnames = tuple(n for x in g1.pnames for n in vname[x].values())
    snames = tuple(n for x in g1.snames for n in vname[x].values())
    return Grammar(g1.alphabet, pnames, snames, tuple(axioms), tuple(rules))


# ---------------------------------------------------------------------------
# How many profiles can there be
# ---------------------------------------------------------------------------


def bound_cardinality(g: Grammar, ctx: Optional[RecognizerCtx] = None) -> int:
    """An upper bound on the number of distinct profiles of the working form
    of ``g`` (serial plus parallel)."""
    p_exp, s_exp = _bound_exponents(ctx or build_ctx(g))
    return (1 << p_exp) + (1 << s_exp)


def _bound_exponents(ctx: RecognizerCtx) -> tuple:
    """The exponents of the two powers of two whose sum is
    :func:`bound_cardinality`: parallel profiles, then serial ones."""
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
    return exponent, ns * (ns + np + 1)
