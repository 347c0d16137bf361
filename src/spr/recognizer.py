"""Finite profiles that recognise membership in a grammar's graph language.

A graph is summarised by a *profile* that records everything the grammar can
still do with it; profiles compose under serial and parallel composition, so
membership of arbitrarily large graphs is decided by one bottom-up sweep:

* an ``SProfile`` (for bridges and serial graphs) is the set of pairs
  ``(s, q)`` meaning S-nonterminal ``s`` derives the whole graph followed by
  remainder nonterminal ``q``; ``q is None`` marks a complete derivation;
* a ``PProfile`` (for parallel graphs) maps every P-nonterminal ``p`` to the
  reduced sum of monomials over p's known S-variables, one variable per
  parallel component, describing which parallel layers p can still build.
  Each sum is packed over p's ``TermSpace`` (one bit per reduced monomial),
  so composing is masked shifts and testing acceptance is one AND.

The two views convert into each other: ``par_map`` reads a serial graph as a
single parallel component, ``seq_map`` turns a parallel graph's views into
chain steps through the serial rules.

Everything is computed on a normalized, alternative-form working copy of the
grammar (built once per ``RecognizerCtx``); languages are unchanged by that
preparation.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional, Union

from .grammar import (
    BasePeriodTable,
    Grammar,
    GrammarError,
    RuleAlt,
    RuleB,
    RuleC,
    RuleD,
    RuleF,
    compute_base_period,
    is_alternative,
    is_normalized,
    normalize,
    to_alternative,
    validate_regular,
)
from .spgraph import Bridge, SNode, SPGraph
from .termalg import (
    LinearTerm,
    Monomial,
    TermNF,
    TermSpace,
    linear_to_nf,
    term_mul,
    term_space,
)

Pair = tuple[str, Optional[str]]


@dataclass(frozen=True)
class SProfile:
    pairs: frozenset

    def __str__(self):
        items = sorted(self.pairs, key=lambda pq: (pq[0], pq[1] or ""))
        inner = ", ".join(f"({s}, {'⊥' if q is None else q})" for s, q in items)
        return "{" + inner + "}"


@dataclass(frozen=True)
class PProfile:
    entries: tuple  # ((p, term), ...) in grammar P-order; see RecognizerCtx.spaces

    def get(self, p: str):
        for name, t in self.entries:
            if name == p:
                return t
        raise KeyError(p)

    def __str__(self):
        return "; ".join(f"{p}: {t}" for p, t in self.entries)


Profile = Union[SProfile, PProfile]

EMPTY_SPROFILE = SProfile(frozenset())


def profile_to_json(h: Profile):
    """Serialize: SProfile as a sorted pair array, PProfile as p -> term text."""
    if isinstance(h, SProfile):
        pairs = sorted(h.pairs, key=lambda pq: (pq[0], pq[1] or ""))
        return [[s, "⊥" if q is None else q] for s, q in pairs]
    return {p: str(t) for p, t in h.entries}


@dataclass
class RecognizerCtx:
    """Preprocessed grammar tables shared by all profile operations."""

    source: Grammar
    grammar: Grammar  # normalized alternative working form
    table: BasePeriodTable
    contexts: dict  # p -> variable classes for nf
    varsets: dict  # p -> frozenset of variables p knows
    # p -> TermSpace its terms are packed over, or p's variable classes when
    # the box exceeds termalg.BOX_LIMIT and its terms stay TermNFs
    spaces: dict
    # p -> the monomials finishing a derivation: a bitmask over p's space
    # (a frozenset of monomials for TermNF terms); ``accepting[p] & t`` tests
    accepting: dict
    serial_rules: tuple  # (lhs, head_p, remainder) for all C- and D-rules
    bridge_profiles: dict  # label -> SProfile
    pset: frozenset
    s_axioms: tuple
    p_axioms: tuple


def build_ctx(g: Grammar) -> RecognizerCtx:
    if any(isinstance(r, RuleAlt) for r in g.rules):
        if not (is_normalized(g) and is_alternative(g)):
            raise GrammarError(
                "grammars with alternation rules must already be normalized "
                "and in alternative form"
            )
        work = g
    else:
        rep = validate_regular(g)
        if not rep.ok:
            raise GrammarError(f"not a regular grammar: {rep.offenders[0][1]}")
        work = to_alternative(normalize(g))

    # An axiom p accepts every bridge its alternation targets spell; those
    # targets derive nothing else, so making them axioms keeps the language
    # and lets acceptance of bridges be read off the S-side alone.
    axioms = set(work.axioms)
    promoted = {r.s for r in work.rules if isinstance(r, RuleAlt) and r.p in axioms}
    if promoted - axioms:
        work = dataclasses.replace(work, axioms=tuple(work.axioms) + tuple(
            sorted(promoted - axioms)))

    table = compute_base_period(work)
    contexts = {p: table.context(p) for p in work.pnames}
    varsets = {p: frozenset(contexts[p]) for p in work.pnames}
    spaces = {p: term_space(contexts[p]) or contexts[p] for p in work.pnames}

    accepting: dict = {p: set() for p in work.pnames}
    falls = defaultdict(set)  # s -> labels derivable in one step
    for r in work.rules:
        if isinstance(r, RuleF):
            falls[r.s].add(r.a)
    serial_rules = []
    for r in work.rules:
        if isinstance(r, RuleB):
            m = Monomial.of(r.body)
            # normalized => every exponent is below its base, nothing reduces
            accepting[r.p].add(m)
        elif isinstance(r, RuleAlt):
            accepting[r.p].add(Monomial.of({r.s: 1}))
        elif isinstance(r, RuleC):
            serial_rules.append((r.s, r.p, r.s1))
        elif isinstance(r, RuleD):
            serial_rules.append((r.s, r.p1, r.p2))

    pbridge = defaultdict(set)  # p -> labels p derives as a lone edge
    for r in work.rules:
        if isinstance(r, RuleAlt):
            pbridge[r.p] |= falls[r.s]

    bridges = {}
    for a in work.alphabet:
        pairs = {(s, None) for s, labels in falls.items() if a in labels}
        for lhs, head, rem in serial_rules:
            if a in pbridge[head]:
                pairs.add((lhs, rem))
        bridges[a] = SProfile(frozenset(pairs))

    return RecognizerCtx(
        source=g,
        grammar=work,
        table=table,
        contexts=contexts,
        varsets=varsets,
        spaces=spaces,
        accepting={p: _accept_mask(ms, spaces[p]) for p, ms in accepting.items()},
        serial_rules=tuple(serial_rules),
        bridge_profiles=bridges,
        pset=frozenset(work.pnames),
        s_axioms=tuple(x for x in work.axioms if x in set(work.snames)),
        p_axioms=tuple(x for x in work.axioms if x in set(work.pnames)),
    )


def _accept_mask(monos, space):
    """What ``accepting[p] & t`` tests a term of ``space`` against."""
    monos = frozenset(monos)
    return space.encode(TermNF(monos)) if type(space) is TermSpace else monos


def bridge_profile(a: str, ctx: RecognizerCtx) -> SProfile:
    try:
        return ctx.bridge_profiles[a]
    except KeyError:
        raise GrammarError(f"label {a!r} not in the grammar's alphabet") from None


# ---------------------------------------------------------------------------
# The two conversions and the two composition laws
# ---------------------------------------------------------------------------


def par_map(h: Profile, ctx: RecognizerCtx) -> PProfile:
    """Read any profile as a parallel one: for each p, the reduced sum of p's
    variables that derive the graph completely (parallel profiles pass
    through unchanged)."""
    if isinstance(h, PProfile):
        return _native(h, ctx)
    done = [s for s, q in h.pairs if q is None]
    entries = []
    for p in ctx.grammar.pnames:
        space = ctx.spaces[p]
        if type(space) is TermSpace:
            var_bits = space.var_bits
            bits = 0
            for s in done:
                bits |= var_bits.get(s, 0)
            entries.append((p, space.cls(bits)))
        else:
            lin = LinearTerm.of(ctx.varsets[p].intersection(done))
            entries.append((p, linear_to_nf(lin, space)))
    return PProfile(tuple(entries))


def _native(h: PProfile, ctx: RecognizerCtx) -> PProfile:
    """``h`` with every term in the representation ``ctx.spaces`` asks for.
    Profiles assembled outside the recognizer (the view oracles) hold
    ``TermNF``s; packing them here keeps equal profiles hashing equal."""
    spaces = ctx.spaces
    foreign = [p for p, t in h.entries if type(t) is TermNF and type(spaces[p]) is TermSpace]
    if not foreign:
        return h
    return PProfile(tuple((p, spaces[p].encode(t) if p in foreign else t) for p, t in h.entries))


def _finished(h: PProfile, ctx: RecognizerCtx) -> set:
    """The P-nonterminals that accept the parallel profile ``h`` as a
    finished layer."""
    accepting = ctx.accepting
    return {p for p, t in h.entries if accepting[p] & t}


def seq_map(h: Profile, ctx: RecognizerCtx) -> frozenset:
    """Read any profile as a chain-step relation: (s, q) for each serial rule
    whose head p accepts the graph as a finished layer (serial profiles are
    already relations and pass through unchanged)."""
    if isinstance(h, SProfile):
        return h.pairs
    done = _finished(_native(h, ctx), ctx)
    return frozenset((lhs, rem) for lhs, head, rem in ctx.serial_rules if head in done)


def op_parallel(h1: Profile, h2: Profile, ctx: RecognizerCtx) -> PProfile:
    t1 = par_map(h1, ctx)
    t2 = par_map(h2, ctx)
    entries = tuple(
        (p, term_mul(a, b, ctx.spaces[p]))
        for (p, a), (_, b) in zip(t1.entries, t2.entries)
    )
    return PProfile(entries)


def op_serial(h1: Profile, h2: Profile, ctx: RecognizerCtx) -> SProfile:
    r1 = seq_map(h1, ctx)
    r2 = seq_map(h2, ctx)
    by_head = defaultdict(set)
    for s, q in r2:
        by_head[s].add(q)
    out = set()
    t2 = None
    for s, q in r1:
        if q is None:
            continue  # a finished derivation cannot absorb more graph
        if q in ctx.pset:
            # remainder is a P-nonterminal: it must derive the whole right
            # part as one finished layer
            if t2 is None:
                t2 = par_map(h2, ctx)
            if ctx.accepting[q] & t2.get(q):
                out.add((s, None))
        else:
            for q2 in by_head.get(q, ()):
                out.add((s, q2))
    return SProfile(frozenset(out))


# ---------------------------------------------------------------------------
# Evaluation and acceptance
# ---------------------------------------------------------------------------


def eval_graph(g: SPGraph, ctx: RecognizerCtx) -> Profile:
    """Bottom-up profile of a canonical graph (iterative, memoized on shared
    subgraphs)."""
    memo: dict[str, Profile] = {}
    stack = [g]
    while stack:
        node = stack.pop()
        if node.key in memo:
            continue
        if isinstance(node, Bridge):
            memo[node.key] = bridge_profile(node.label, ctx)
            continue
        pending = [c for c in node.children if c.key not in memo]
        if pending:
            stack.append(node)
            stack.extend(pending)
            continue
        acc = memo[node.children[0].key]
        if isinstance(node, SNode):
            for c in node.children[1:]:
                acc = op_serial(acc, memo[c.key], ctx)
        else:
            for c in node.children[1:]:
                acc = op_parallel(acc, memo[c.key], ctx)
        memo[node.key] = acc
    return memo[g.key]


def accepts(h: Profile, ctx: RecognizerCtx) -> bool:
    if isinstance(h, SProfile):
        return any((s, None) in h.pairs for s in ctx.s_axioms)
    done = _finished(_native(h, ctx), ctx)
    return any(p in done for p in ctx.p_axioms)


def member(graph: SPGraph, g: Grammar, ctx: Optional[RecognizerCtx] = None) -> bool:
    if ctx is None:
        ctx = build_ctx(g)
    return accepts(eval_graph(graph, ctx), ctx)


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------


@dataclass
class ReachResult:
    profiles: set = field(default_factory=set)
    saturated: bool = False

    @property
    def n_serial(self):
        return sum(1 for h in self.profiles if isinstance(h, SProfile))

    @property
    def n_parallel(self):
        return len(self.profiles) - self.n_serial


def reachable_profiles(ctx: RecognizerCtx, cap: Optional[int] = None) -> ReachResult:
    """Close the bridge profiles under both composition laws.

    Every profile of an actual graph shows up here; the closure can be larger
    (it composes profiles of incompatible shapes too), but it is still bounded
    by the counting argument in :func:`spr.decision.bound_cardinality`.  Stops
    unsaturated, holding exactly ``cap`` profiles, once a profile beyond the
    first ``cap`` turns up.
    """
    bridges = list(dict.fromkeys(ctx.bridge_profiles[a] for a in ctx.grammar.alphabet))
    if cap is not None and len(bridges) > cap:
        return ReachResult(set(bridges[:cap]), False)
    profiles = set(bridges)
    frontier = bridges
    while frontier:
        known = list(profiles)
        new = set()
        for x in frontier:
            for y in known:
                for h in (
                    op_serial(x, y, ctx),
                    op_serial(y, x, ctx),
                    op_parallel(x, y, ctx),
                ):
                    if h not in profiles and h not in new:
                        if cap is not None and len(profiles) + len(new) == cap:
                            return ReachResult(profiles | new, False)
                        new.add(h)
        profiles |= new
        frontier = list(new)
    return ReachResult(profiles, True)
