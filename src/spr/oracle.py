"""Brute-force reference implementations and grammar generators.

Everything here is deliberately simple and independent of the profile
machinery in :mod:`spr.recognizer`; the test suite cross-checks the fast
algorithms against these enumerations on small inputs.

* ``language_upto`` / ``lang_from``: enumerate all graphs of a language up to
  an edge budget by expanding partial terms.
* ``enumerate_s_views`` / ``enumerate_p_views``: the serial/parallel
  observations a grammar can make of a concrete graph, computed directly from
  the definitions by enumerating sub-languages: a frozenset of pairs
  ``(s, q)`` and a ``TermNF``, the plain values a test compares a profile's
  ``.pairs`` and terms with.
* ``gen_random_grammar``: small seeded random regular grammars for fuzzing.
* ``gen_worstcase``: a grammar family over a 5-letter alphabet whose profile
  reachability blows up exponentially in ``k`` (string matching encoded in
  graph shape); useful for exercising caps and bounds.  It has
  ``7 * 2^(k + 2) + 1`` rules.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from functools import lru_cache, partial

from .grammar import (
    Grammar,
    RuleA,
    RuleB,
    RuleC,
    RuleD,
    RuleE,
    RuleF,
    compute_base_period,
    rule_rhs_term,
)
from .spgraph import Bridge, PNode, SNode, SPGraph, fold_flat
from .termalg import LinearTerm, TermNF, nf_linear_product

INF = float("inf")


# ---------------------------------------------------------------------------
# Language enumeration
# ---------------------------------------------------------------------------
#
# Partial terms are canonical nested tuples:
#   ("lit", label) | ("ref", name) | ("ser", children) | ("par", children)
# with serial/parallel layers flattened and parallel children sorted, so that
# states reached along different derivation orders collapse.  Expanding only
# the first remaining reference (in one fixed traversal order) is complete:
# references derive independently of their context.
#
# The partial terms built with one table ``layers`` are hash-consed: equal
# ones are one object, keyed by tag and child ids, so comparing two terms
# stops at their shared children instead of descending through every level.


def _cons(layers, tag, children):
    return layers.setdefault((tag, *map(id, children)), (tag, tuple(children)))


def _ser(children, layers):
    out = []
    for c in children:
        if c[0] == "ser":
            out.extend(c[1])
        else:
            out.append(c)
    return out[0] if len(out) == 1 else _cons(layers, "ser", out)


def _par(children, layers):
    out = []
    for c in children:
        if c[0] == "par":
            out.extend(c[1])
        else:
            out.append(c)
    return out[0] if len(out) == 1 else _cons(layers, "par", sorted(out))


def _to_pterm(t, layers):
    """The partial term of ``t``: each of its flattened layers made once."""
    return fold_flat(
        t,
        lambda label: layers.setdefault(("lit", label), ("lit", label)),
        lambda name: layers.setdefault(("ref", name), ("ref", name)),
        partial(_ser, layers=layers),
        partial(_par, layers=layers),
    )


def _subst_first(pt, repl, layers):
    """Replace the first ``ref`` leaf (depth-first) of ``pt``, which has
    one, by ``repl``.

    Iterative, so deep terms do not hit the recursion limit: ``path`` holds
    each layer on the way down to the leaf with the index of the child being
    visited, and the layers are rebuilt bottom-up once the leaf is found."""
    path: list = []
    t = pt
    while t[0] != "ref":
        if t[0] != "lit":  # a layer: visit its first child
            path.append([t, 0])
            t = t[1][0]
            continue
        while path[-1][1] == len(path[-1][0][1]) - 1:
            path.pop()  # a layer with no child left to visit
        path[-1][1] += 1
        t = path[-1][0][1][path[-1][1]]
    t = repl
    for (tag, cs), i in reversed(path):
        rebuilt = [*cs[:i], t, *cs[i + 1 :]]
        t = _ser(rebuilt, layers) if tag == "ser" else _par(rebuilt, layers)
    return t


def _first_ref(pt):
    stack = [pt]
    while stack:
        t = stack.pop()
        if t[0] == "ref":
            return t[1]
        if t[0] != "lit":
            stack.extend(reversed(t[1]))
    return None


def _to_graph(pt) -> SPGraph:
    """The graph of a ground partial term: each of its flat layers is one
    ``SNode`` or ``PNode``.  Iterative post-order, so deep terms do not hit
    the recursion limit; a layer is pushed again, marked, below its
    children and built once they are."""
    out: list = []
    stack: list = [(pt, False)]
    while stack:
        t, built = stack.pop()
        if t[0] == "lit":
            out.append(Bridge(t[1]))
        elif built:
            n = len(t[1])
            parts = tuple(out[-n:])
            del out[-n:]
            out.append((SNode if t[0] == "ser" else PNode)(parts))
        else:
            stack.append((t, True))
            stack += ((c, False) for c in reversed(t[1]))
    return out[0]


@lru_cache(maxsize=None)
def _min_edges(g: Grammar):
    """Least number of edges derivable from each nonterminal (inf if none).

    A worklist fixpoint: every body is evaluated once, and again only when
    a nonterminal it names has improved since."""
    best = {x: INF for x in g.pnames + g.snames}
    bodies = [(r.lhs, _to_pterm(rule_rhs_term(r), {})) for r in g.rules]
    users: dict = {x: [] for x in best}  # name -> the bodies naming it
    for i, (_, pt) in enumerate(bodies):
        for name in _refs(pt):
            users[name].append(i)
    todo = deque(range(len(bodies)))
    queued = [True] * len(bodies)
    while todo:
        i = todo.popleft()
        queued[i] = False
        lhs, pt = bodies[i]
        val = _lower_bound(pt, best)
        if val < best[lhs]:
            best[lhs] = val
            for j in users[lhs]:
                if not queued[j]:
                    queued[j] = True
                    todo.append(j)
    return best


def _refs(pt) -> set:
    """The names of the ``ref`` leaves of a partial term."""
    out = set()
    stack = [pt]
    while stack:
        t = stack.pop()
        if t[0] == "ref":
            out.add(t[1])
        elif t[0] != "lit":
            stack.extend(t[1])
    return out


def _lower_bound(pt, best):
    total = 0
    stack = [pt]
    while stack:
        t = stack.pop()
        if t[0] == "lit":
            total += 1
        elif t[0] == "ref":
            b = best[t[1]]
            if b == INF:
                return INF
            total += b
        else:
            stack.extend(t[1])
    return total


@lru_cache(maxsize=None)
def lang_from(g: Grammar, name: str, max_edges: int) -> frozenset:
    """All graphs with at most ``max_edges`` edges derivable from ``name``."""
    best = _min_edges(g)
    layers: dict = {}  # the hash-consed partial terms of this call
    bodies = {}
    for r in g.rules:
        bodies.setdefault(r.lhs, []).append(_to_pterm(rule_rhs_term(r), layers))
    start = ("ref", name)
    out = set()
    seen = {start}
    queue = deque([start])
    while queue:
        pt = queue.popleft()
        ref = _first_ref(pt)
        if ref is None:
            out.add(_to_graph(pt))
            continue
        for body in bodies.get(ref, ()):
            npt = _subst_first(pt, body, layers)
            if npt not in seen and _lower_bound(npt, best) <= max_edges:
                seen.add(npt)
                queue.append(npt)
    return frozenset(out)


def language_upto(g: Grammar, max_edges: int) -> set:
    """Union of ``lang_from`` over the axioms."""
    out = set()
    for x in g.axioms:
        out |= lang_from(g, x, max_edges)
    return out


# ---------------------------------------------------------------------------
# View oracles
# ---------------------------------------------------------------------------


def _derivers(g: Grammar, names, c: SPGraph):
    return {x for x in names if c in lang_from(g, x, c.edges)}


def enumerate_p_views(graph: SPGraph, g: Grammar, p: str) -> TermNF:
    """The reduced sum, over all ways of deriving every parallel component of
    ``graph`` from one S-variable known to ``p``, of the product of those
    variables."""
    if not isinstance(graph, PNode):
        raise ValueError("parallel views are only defined for parallel graphs")
    ctx = compute_base_period(g).context(p)
    factors = [
        LinearTerm.of(_derivers(g, set(ctx), c), one=False) for c in graph.children
    ]
    return nf_linear_product(factors, ctx)


def enumerate_s_views(graph: SPGraph, g: Grammar) -> frozenset:
    """All pairs (s, q) such that s derives ``graph`` followed by remainder q
    (an S- or P-nonterminal), together with (s, None) for complete
    derivations.  Consumption is per serial component: C-rules step through
    the chain, a D-rule may finish on the last component."""
    if isinstance(graph, PNode):
        raise ValueError("serial views are only defined for bridges and serial graphs")
    comps = graph.children if isinstance(graph, SNode) else (graph,)
    pairs = set()
    for s in g.snames:
        if graph in lang_from(g, s, graph.edges):
            pairs.add((s, None))
    crules = [r for r in g.rules if isinstance(r, RuleC)]
    drules = [r for r in g.rules if isinstance(r, RuleD)]
    cur = {s: {s} for s in g.snames}
    for i, c in enumerate(comps):
        derivers = _derivers(g, set(g.pnames), c)
        last = i == len(comps) - 1
        nxt = {s0: set() for s0 in cur}
        for s0, states in cur.items():
            for s in states:
                for r in crules:
                    if r.s == s and r.p in derivers:
                        nxt[s0].add(r.s1)
                if last:
                    for r in drules:
                        if r.s == s and r.p1 in derivers:
                            pairs.add((s0, r.p2))
        cur = nxt
    for s0, states in cur.items():
        pairs.update((s0, q) for q in states)
    return frozenset(pairs)


# ---------------------------------------------------------------------------
# Grammar generators
# ---------------------------------------------------------------------------


def gen_random_grammar(seed: int) -> Grammar:
    """A small random regular grammar (deterministic in ``seed``)."""
    rng = random.Random(seed)
    alphabet = ("a", "b")[: rng.randint(1, 2)]
    pnames = tuple(f"p{i}" for i in range(rng.randint(1, 3)))
    snames = tuple(f"s{i}" for i in range(rng.randint(1, 4)))
    rules = []
    for _ in range(rng.randint(4, 12)):
        kind = rng.choice("ABCDEF")
        p = rng.choice(pnames)
        s = rng.choice(snames)
        if kind == "A":
            rules.append(RuleA(p, s, rng.randint(1, 3)))
        elif kind == "B":
            chosen = rng.sample(snames, rng.randint(1, min(2, len(snames))))
            body = sorted((v, rng.randint(1, 2)) for v in chosen)
            if sum(e for _, e in body) < 2:
                body = [(body[0][0], 2)]
            rules.append(RuleB(p, tuple(body)))
        elif kind == "C":
            rules.append(RuleC(s, p, rng.choice(snames)))
        elif kind == "D":
            rules.append(RuleD(s, p, rng.choice(pnames)))
        elif kind == "E":
            rules.append(RuleE(p, rng.choice(alphabet)))
        else:
            rules.append(RuleF(s, rng.choice(alphabet)))
    pool = pnames + snames
    axioms = tuple(rng.sample(pool, rng.randint(1, len(pool))))
    return Grammar(alphabet, pnames, snames, axioms, tuple(rules))


def gen_worstcase(k: int, start: str = "start") -> Grammar:
    """A grammar whose graphs are ``(c || path) . u`` where ``path`` spells

        (w $ w' #)*  u $ v #  (w $ w' #)*  v

    for some u, v in {a,b}^k and arbitrary junk w, w' in {a,b}* (with ``$``
    written ``d`` and ``#`` written ``h``).  Tracking which u is being matched
    forces exponentially many distinct serial profiles in k.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    ab = "ab"
    words = {
        j: ["".join(t) for t in itertools.product(ab, repeat=j)] for j in range(k + 1)
    }
    full = words[k]
    alphabet = ("a", "b", "c", "d", "h")

    pnames = tuple(f"p_{u}" for u in full) + tuple(f"q_{ch}" for ch in alphabet)
    snames = [start, "sc", "s0", "s2"]
    for j in range(1, k + 1):
        snames += [f"s0_{x}" for x in words[j]]
        snames += [f"s3_{x}" for x in words[j]]
        snames += [f"s5_{x}" for x in words[j]]
    snames += [f"s1_{u}" for u in full]
    snames += [f"s2_{u}" for u in full]
    snames += [f"s4_{v}" for v in full]
    snames += [f"s6_{v}" for v in full]
    snames += [f"s7_{v}" for v in full]

    rules: list = [RuleF("sc", "c")]
    rules += [RuleE(f"q_{ch}", ch) for ch in alphabet]
    for u in full:
        rules.append(RuleC(start, f"p_{u}", f"s5_{u}"))
        rules.append(RuleB(f"p_{u}", tuple(sorted(((f"s0_{u}", 1), ("sc", 1))))))
    # matching u: consume it letter by letter, then d starts the v block
    for j in range(1, k + 1):
        for x in words[j]:
            rest = f"s0_{x[1:]}" if len(x) > 1 else "s0"
            rules.append(RuleC(f"s0_{x}", f"q_{x[0]}", rest))
    rules.append(RuleC("s0", "q_d", "s2"))
    # junk blocks before the match: anything, then d, anything, then h restarts
    for u in full:
        for ch in ab:
            rules.append(RuleC(f"s0_{u}", f"q_{ch}", f"s1_{u}"))
            rules.append(RuleC(f"s1_{u}", f"q_{ch}", f"s1_{u}"))
            rules.append(RuleC(f"s2_{u}", f"q_{ch}", f"s2_{u}"))
        rules.append(RuleC(f"s0_{u}", "q_d", f"s2_{u}"))
        rules.append(RuleC(f"s1_{u}", "q_d", f"s2_{u}"))
        rules.append(RuleC(f"s2_{u}", "q_h", f"s0_{u}"))
    # accumulate v after the matched d, h hands over to the v-keeper
    for ch in ab:
        rules.append(RuleC("s2", f"q_{ch}", f"s3_{ch}"))
    for j in range(1, k):
        for y in words[j]:
            for ch in ab:
                rules.append(RuleC(f"s3_{y}", f"q_{ch}", f"s3_{y + ch}"))
    for v in full:
        rules.append(RuleC(f"s3_{v}", "q_h", f"s4_{v}"))
    # junk blocks after the match, keeping v; finally read v off
    for v in full:
        for ch in ab:
            rules.append(RuleC(f"s4_{v}", f"q_{ch}", f"s6_{v}"))
            rules.append(RuleC(f"s6_{v}", f"q_{ch}", f"s6_{v}"))
            rules.append(RuleC(f"s7_{v}", f"q_{ch}", f"s7_{v}"))
        rules.append(RuleC(f"s4_{v}", "q_d", f"s7_{v}"))
        rules.append(RuleC(f"s6_{v}", "q_d", f"s7_{v}"))
        rules.append(RuleC(f"s7_{v}", "q_h", f"s4_{v}"))
        rules.append(RuleC(f"s4_{v}", f"q_{v[0]}", f"s5_{v[1:]}"))
    # the trailing read-off
    for j in range(2, k + 1):
        for x in words[j]:
            rules.append(RuleC(f"s5_{x}", f"q_{x[0]}", f"s5_{x[1:]}"))
    for ch in ab:
        rules.append(RuleF(f"s5_{ch}", ch))

    return Grammar(alphabet, pnames, tuple(snames), (start,), tuple(rules))
