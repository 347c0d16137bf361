"""Finite profiles that recognise membership in a grammar's graph language.

A graph is summarised by a *profile* that records everything the grammar can
still do with it; profiles compose under serial and parallel composition, so
membership of arbitrarily large graphs is decided by one bottom-up sweep:

* an ``SProfile`` (for bridges and serial graphs) is the set of pairs
  ``(s, q)`` meaning S-nonterminal ``s`` derives the whole graph followed by
  remainder nonterminal ``q``; ``q is None`` (⊥) marks a complete derivation.
  It is packed over its context's remainder index ``names``: remainder
  ``j`` runs over the S-names, the P-names, then ⊥; the profile is two
  aligned tuples, ``idx`` the S-names of its nonzero rows in increasing
  order and ``rows`` those rows, and bit ``j`` of ``rows[k]`` stands for the
  pair (S-name ``idx[k]``, remainder ``j``).  ``.pairs`` reads the pairs
  back.
* a ``PProfile`` (for parallel graphs) maps every P-nonterminal ``p`` to the
  reduced sum of monomials over p's known S-variables, one variable per
  parallel component, describing which parallel layers p can still build.
  Each sum is a term of p's space (``termalg.term_space``): packed, one bit
  per reduced monomial, so that composing is masked shifts and testing
  acceptance is one AND; a ``TermNF`` when p's box is too large to pack.

The two views convert into each other: ``par_map`` reads a serial graph as a
single parallel component, ``seq_map`` turns a parallel graph's views into
chain steps through the serial rules.  The context computes each view of a
profile the first time it is asked for, and the profile keeps the views
that are read again: a serial profile its left view (index tuples:
``idx``, each row's first S-remainder, and the few rows with further
S-remainders or with P-remainders) and its ``par_map``; a parallel profile
its finished mask (the P-names that accept it as a finished layer, as
remainder bits) and its ``seq_map``.  A serial profile's rows indexed by
S-name (``RecognizerCtx.heads``, read on the right) are built for each
use and not kept: a decision search meets almost every right operand
once, and the list holds a row for every S-name of the context.
``op_serial`` is then composition of relations: every row of the left
profile ORs the right profile's rows that its S-remainders name, and gains
⊥ when one of its P-remainders is in the right profile's finished mask
(``RecognizerCtx.row`` states this law for one row).  The rows named by
first S-remainders are fetched in one C-level gather; Python steps in only
for the other rows.

A right operand that is a layer atom (a bridge or a parallel profile) meets
few distinct left rows, so the callers that compose with atoms do it through
a *row table* of the atom (``RecognizerCtx.row_table``): a dict from a
packed left row to its composed row, filled on a miss by the same row law.
Composing is then one lookup pass over the left ``rows``
(``RecognizerCtx.compose``), and the left profile needs no left view.
Both serial compositions end in one packing step
(``RecognizerCtx.composed``), which keeps the left ``idx`` unless a row
composes to 0.  The choice is by operand shape: ``reachable_profiles``
and ``eval_graph`` compose every serial pair with an atom on the right
and keep one table per atom for one call, while ``op_serial`` with its
left view serves composite right operands (the values of
``decision._lightest``), which a table would not repay.  Profiles exist
only packed over a context, made by its ``make`` (which ``from_dense``,
``pack``, ``seq`` and ``composed`` call) and ``pprofile``; the operations
reject a profile of another context with a ``ValueError``.

The recognizer's algebra is finite, so a large graph goes through few
distinct profiles.  ``eval_graph`` walks a graph's nodes by identity,
folding each layer's ``parts`` in the order they were built, so a subgraph
that ``spgraph.parse_graph`` shares is evaluated once and no key string is
made.  It interns every profile it meets in a table of its own call, so
equal profiles are one object that keeps its views, and keeps a serial and
a parallel composition table keyed by the ids of two interned operands:
each distinct pair is composed once per call.  A
serial layer's parts are bridges or parallel graphs, so a serial miss
composes through the row table of its right operand, one per interned
operand.  The tables die with the call, and a context that kept them would
only grow.
``reachable_profiles`` enumerates the algebra from its generators.  Both
laws are associative and ``op_parallel`` commutes, so every profile of a
graph is a product of layer atoms: a worklist in the order profiles turn up
composes each profile on the right with every *serial atom* (a bridge or
parallel profile, through its row table), and each distinct ``par_map``
image with every *parallel atom* (the image of a bridge or serial profile),
each pair once.  That is at most n times the number of atoms
compositions.  Every parallel profile is a serial atom, so a closure of
mostly parallel profiles makes about n² (n² − 8 on
``p -> t^999999999 || s``); one with few atoms makes far fewer.

Everything is computed on a normalized, alternative-form working copy of the
grammar (built once per ``RecognizerCtx``); languages are unchanged by that
preparation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress
from typing import Optional, Union

from .grammar import (
    Grammar,
    GrammarError,
    RuleAlt,
    RuleB,
    RuleC,
    RuleD,
    RuleF,
    _base_period,
    _derived,
    _normalize,
    _require_regular,
    _to_alternative,
    is_alternative,
    is_normalized,
)
from .spgraph import Bridge, SNode, SPGraph
from .termalg import (
    Monomial,
    TermNF,
    _set_bits,
    linear_to_nf,  # not called here: perfbench/spans.py traces it by name
    term_mul,
    term_space,
)


class SProfile:
    """A serial profile packed over the remainder index ``space`` (see the
    module docstring), made by ``RecognizerCtx.make``: ``idx`` holds the
    S-names of its nonzero rows in increasing order and ``rows`` those rows,
    position by position.  Two profiles are equal when they belong to one
    context and their ``idx`` and ``rows`` are equal; the hash is that of
    ``rows``, computed once, as ``rows`` never changes after ``make``."""

    __slots__ = ("idx", "rows", "space", "_hash", "_pairs", "_left", "_par")

    @property
    def pairs(self) -> frozenset:
        if self._pairs is None:
            self._pairs = _decode(self.space, self.idx, self.rows)
        return self._pairs

    def __eq__(self, other):
        if type(other) is not SProfile:
            return NotImplemented
        return self.space is other.space and self.rows == other.rows and self.idx == other.idx

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def __str__(self):
        items = sorted(self.pairs, key=lambda pq: (pq[0], pq[1] or ""))
        inner = ", ".join(f"({s}, {'⊥' if q is None else q})" for s, q in items)
        return "{" + inner + "}"

    def __repr__(self):
        return f"SProfile({self})"


class PProfile:
    """A parallel profile: ``entries`` is ``((p, term), ...)`` in grammar
    P-order, each term of p's space (see ``RecognizerCtx.spaces``), made by
    ``RecognizerCtx.pprofile``; ``space`` is the remainder index of its
    context.  Two profiles are equal when they belong to one context and
    their entries are equal."""

    __slots__ = ("entries", "space", "_fin", "_seq")

    def __eq__(self, other):
        if type(other) is not PProfile:
            return NotImplemented
        return self.space is other.space and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __str__(self):
        return "; ".join(f"{p}: {t}" for p, t in self.entries)

    def __repr__(self):
        return f"PProfile({self})"


Profile = Union[SProfile, PProfile]


def profile_to_json(h: Profile):
    """Serialize: SProfile as a sorted pair array, PProfile as p -> term text."""
    if isinstance(h, SProfile):
        pairs = sorted(h.pairs, key=lambda pq: (pq[0], pq[1] or ""))
        return [[s, "⊥" if q is None else q] for s, q in pairs]
    return {p: str(t) for p, t in h.entries}


_new = object.__new__


def _decode(names: tuple, idx: tuple, rows: tuple) -> frozenset:
    return frozenset((names[i], names[j]) for i, r in zip(idx, rows) for j in _set_bits(r))


class RecognizerCtx:
    """One grammar's profile algebra: its tables, and the views of the
    profiles packed over it as bit operations.

    ``grammar`` is the normalized alternative working form of ``source``;
    ``contexts[p]`` holds p's variable classes, ``spaces[p]`` the space of
    p's terms (``termalg.term_space``), and ``accepting[p] & t`` tests
    whether term ``t`` finishes a derivation.  Remainder ``j`` is
    ``names[j]``: the S-names, the P-names, then ``None`` for ⊥.  ``layers``
    holds per P-name its space, its accepting term, its remainder bit, and
    the ``var_bits`` of its S-variables indexed by S-name (0 for an S-name
    that is not one); ``steps[j]`` holds the pairs ``(i, bit)`` of the serial
    rules headed by P-name ``j``.  A profile's ``space`` is ``names``, not
    the context, so that bridge profiles make no reference cycle.
    """

    def __init__(self, source, work, contexts, spaces, accepting, serial_rules, bridges):
        self.source = source
        self.grammar = work
        self.contexts = contexts
        self.spaces = spaces
        self.accepting = accepting
        snames, pnames = work.snames, work.pnames
        # a new tuple per context: the operations tell contexts apart by it
        self.names = (*snames, *pnames, None)
        index = self.index = {q: j for j, q in enumerate(self.names)}
        self.ns = ns = len(snames)
        self.s_bits = (1 << ns) - 1
        self.p_bits = ((1 << len(pnames)) - 1) << ns
        self.bot = 1 << index[None]
        self.s_axioms = sum(1 << index[x] for x in work.axioms if index[x] < ns)
        self.p_axioms = sum(1 << index[x] for x in work.axioms if index[x] >= ns)
        self.layers = [
            (p, spaces[p], accepting[p], 1 << index[p],
             tuple(spaces[p].var_bits.get(s, 0) for s in snames))
            for p in pnames
        ]
        steps = [[] for _ in self.names]
        for lhs, head, rem in serial_rules:
            steps[index[head]].append((index[lhs], 1 << index[rem]))
        self.steps = tuple(map(tuple, steps))
        self.bridge_profiles = {a: self.pack(pairs) for a, pairs in bridges.items()}

    # -- building and reading packed profiles ---------------------------------

    def make(self, idx: tuple, rows: tuple) -> SProfile:
        """The profile with row ``rows[k]`` for S-name ``idx[k]``, packed
        over this context: ``idx`` increases and no row is 0."""
        h = _new(SProfile)
        h.idx = idx
        h.rows = rows
        h.space = self.names
        h._hash = h._pairs = h._left = h._par = None
        return h

    def from_dense(self, rows: list) -> SProfile:
        """The profile with row ``rows[i]`` for S-name ``i``."""
        return self.make(tuple([*compress(range(len(rows)), rows)]), tuple([*filter(None, rows)]))

    def pack(self, pairs) -> SProfile:
        index = self.index
        rows = [0] * self.ns
        for s, q in pairs:
            rows[index[s]] |= 1 << index[q]
        return self.from_dense(rows)

    def pprofile(self, entries: tuple) -> PProfile:
        t = _new(PProfile)
        t.entries = entries
        t.space = self.names
        t._fin = t._seq = None
        return t

    # -- the views of profiles packed over this context -----------------------

    def left(self, h: SProfile) -> tuple:
        """The rows as ``op_serial`` reads them on the left: ``idx``, the
        first S-remainder of each row (``ns`` for a row without
        one), the rows with further S-remainders as pairs (row position,
        those S-remainders) and the rows with P-remainders as pairs (row
        position, P-remainder bits)."""
        v = h._left
        if v is None:
            ns, s_bits, p_bits = self.ns, self.s_bits, self.p_bits
            first, more, pend = [], [], []
            for k, r in enumerate(h.rows):
                s = r & s_bits
                low = s & -s
                first.append(low.bit_length() - 1 if low else ns)
                if s ^ low:
                    more.append((k, tuple(_set_bits(s ^ low))))
                if r & p_bits:
                    pend.append((k, r & p_bits))
            v = h._left = (h.idx, tuple(first), tuple(more), tuple(pend))
        return v

    def heads(self, h: SProfile) -> list:
        """The rows indexed by S-name, 0 for an S-name without pairs, and a
        last 0 at index ``ns`` that ``left`` names for rows without an
        S-remainder.  A new list on every call, which ``h`` does not keep."""
        v = [0] * (self.ns + 1)
        for i, r in zip(h.idx, h.rows):
            v[i] = r
        return v

    def done(self, h: SProfile) -> int:
        """The S-names that derive the whole graph, as a bitmask."""
        v = 0
        for i in compress(h.idx, map(self.bot.__and__, h.rows)):
            v |= 1 << i
        return v

    def par(self, h: SProfile) -> PProfile:
        """``par_map`` of ``h``."""
        v = h._par
        if v is None:
            done = list(compress(h.idx, map(self.bot.__and__, h.rows)))
            entries = []
            for p, space, _, _, vb in self.layers:
                bits = 0
                for i in done:
                    bits |= vb[i]
                entries.append((p, space.cls(bits)))
            v = h._par = self.pprofile(tuple(entries))
        return v

    def finished(self, t: PProfile) -> int:
        """The P-names that accept ``t`` as a finished layer, as remainder
        bits."""
        v = t._fin
        if v is None:
            v = 0
            for (_, _, acc, bit, _), (_, term) in zip(self.layers, t.entries):
                if acc & term:
                    v |= bit
            t._fin = v
        return v

    def seq(self, t: PProfile) -> SProfile:
        """``seq_map`` of ``t``, packed."""
        v = t._seq
        if v is None:
            rows = [0] * self.ns
            steps = self.steps
            for j in _set_bits(self.finished(t)):
                for i, bit in steps[j]:
                    rows[i] |= bit
            v = t._seq = self.from_dense(rows)
        return v

    # -- composition with a serial atom through its row table -----------------

    def row(self, r: int, heads: list, fin: int) -> int:
        """The law of ``op_serial`` on one left row ``r``: the right rows
        ``heads`` that its S-remainders name, ORed, with ⊥ when one of its
        P-remainders is in the right operand's finished mask ``fin``."""
        out = self.bot if r & fin else 0
        s = r & self.s_bits
        while s:
            low = s & -s
            out |= heads[low.bit_length() - 1]
            s ^= low
        return out

    def row_table(self, h: Profile) -> RowTable:
        """An empty row table of ``h`` as the right operand of ``op_serial``."""
        t = RowTable()
        t.ctx = self
        t.heads = self.heads(h if type(h) is SProfile else self.seq(h))
        t.fin = self.finished(self.par(h) if type(h) is SProfile else h)
        return t

    def compose(self, h: Profile, table: RowTable) -> SProfile:
        """``op_serial`` of ``h`` and the right operand of ``table``: each row
        of ``h`` looked up in the table, in one pass."""
        if type(h) is not SProfile:
            h = self.seq(h)
        return self.composed(h.idx, list(map(table.__getitem__, h.rows)))

    def composed(self, idx: tuple, out: list) -> SProfile:
        """The serial composition whose row ``out[k]`` belongs to S-name
        ``idx[k]``: ``idx`` is kept unless a row composed to 0."""
        # every tuple is copied from a list: a tuple built from an iterator
        # of unknown length grows by reallocation, which fragments the
        # small-object pools (a higher peak RSS)
        if all(out):
            return self.make(idx, tuple(out))
        return self.make(tuple([*compress(idx, out)]), tuple([*filter(None, out)]))


class RowTable(dict):
    """A right operand of ``op_serial`` as a table from a packed left row to
    the row it composes to, filled on a miss by ``RecognizerCtx.row``.
    Layer atoms (bridge and parallel profiles) meet few distinct left rows,
    so the callers that compose with atoms keep one table per atom for one
    call (see the module docstring)."""

    __slots__ = ("ctx", "heads", "fin")

    def __missing__(self, r):
        v = self[r] = self.ctx.row(r, self.heads, self.fin)
        return v


def build_ctx(g: Grammar) -> RecognizerCtx:
    if any(isinstance(r, RuleAlt) for r in g.rules):
        if not (is_normalized(g) and is_alternative(g)):
            raise GrammarError(
                "grammars with alternation rules must already be normalized "
                "and in alternative form"
            )
        work = g
    else:
        # the one check of g; its working copies are derived unchecked
        _require_regular(g, "not a regular grammar")
        work = _to_alternative(_normalize(g))

    # An axiom p accepts every bridge its alternation targets spell; those
    # targets derive nothing else, so making them axioms keeps the language
    # and lets acceptance of bridges be read off the S-side alone.
    axioms = set(work.axioms)
    promoted = {r.s for r in work.rules if isinstance(r, RuleAlt) and r.p in axioms}
    if promoted - axioms:
        work = _derived(work, axioms=work.axioms + tuple(sorted(promoted - axioms)))

    table = _base_period(work)
    contexts = {p: table.context(p) for p in work.pnames}
    spaces = {p: term_space(contexts[p]) for p in work.pnames}

    accepting: dict = {p: set() for p in work.pnames}
    falls = defaultdict(set)  # s -> labels derivable in one step
    serial_rules = []  # (lhs, head_p, remainder) for all C- and D-rules
    for r in work.rules:
        if isinstance(r, RuleF):
            falls[r.s].add(r.a)
        elif isinstance(r, RuleB):
            m = Monomial.of(r.body)
            # normalized => every exponent is below its base, nothing reduces
            accepting[r.p].add(m)
        elif isinstance(r, RuleAlt):
            accepting[r.p].add(Monomial.of({r.s: 1}))
        elif isinstance(r, RuleC):
            serial_rules.append((r.s, r.p, r.s1))
        elif isinstance(r, RuleD):
            serial_rules.append((r.s, r.p1, r.p2))
    accepting = {p: spaces[p].encode(TermNF(frozenset(ms))) for p, ms in accepting.items()}

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
        bridges[a] = pairs

    return RecognizerCtx(g, work, contexts, spaces, accepting, serial_rules, bridges)


def bridge_profile(a: str, ctx: RecognizerCtx) -> SProfile:
    try:
        return ctx.bridge_profiles[a]
    except KeyError:
        raise GrammarError(f"label {a!r} not in the grammar's alphabet") from None


# ---------------------------------------------------------------------------
# The two conversions and the two composition laws
# ---------------------------------------------------------------------------


def _foreign(h: Profile) -> ValueError:
    return ValueError(f"a {type(h).__name__} of another context")


def par_map(h: Profile, ctx: RecognizerCtx) -> PProfile:
    """Read any profile as a parallel one: for each p, the reduced sum of p's
    variables that derive the graph completely (parallel profiles pass
    through unchanged)."""
    if h.space is not ctx.names:
        raise _foreign(h)
    return ctx.par(h) if type(h) is SProfile else h


def seq_map(h: Profile, ctx: RecognizerCtx) -> frozenset:
    """Read any profile as a chain-step relation: (s, q) for each serial rule
    whose head p accepts the graph as a finished layer (serial profiles are
    already relations and pass through unchanged)."""
    if h.space is not ctx.names:
        raise _foreign(h)
    return (h if type(h) is SProfile else ctx.seq(h)).pairs


def op_parallel(h1: Profile, h2: Profile, ctx: RecognizerCtx) -> PProfile:
    t1 = par_map(h1, ctx)
    t2 = par_map(h2, ctx)
    spaces = ctx.spaces
    # a zero side (a term without monomials) is the product
    entries = tuple(
        (p, a if not a else b if not b else term_mul(a, b, spaces[p]))
        for (p, a), (_, b) in zip(t1.entries, t2.entries)
    )
    return ctx.pprofile(entries)


def op_serial(h1: Profile, h2: Profile, ctx: RecognizerCtx) -> SProfile:
    if h1.space is not ctx.names:
        raise _foreign(h1)
    if h2.space is not ctx.names:
        raise _foreign(h2)
    r1 = h1 if type(h1) is SProfile else ctx.seq(h1)
    r2 = h2 if type(h2) is SProfile else ctx.seq(h2)
    heads = ctx.heads(r2)
    idx, first, more, pend = ctx.left(r1)
    # every row takes the right row its first S-remainder names; only rows
    # with more remainders, or with P-remainders, need a step of their own
    out = list(map(heads.__getitem__, first))
    for k, ss in more:
        for j in ss:
            out[k] |= heads[j]
    if pend:
        # a P-remainder must derive the whole right part as one finished
        # layer
        fin = ctx.finished(ctx.par(h2) if type(h2) is SProfile else h2)
        for k, pbits in pend:
            if pbits & fin:
                out[k] |= ctx.bot
    return ctx.composed(idx, out)


# ---------------------------------------------------------------------------
# Evaluation and acceptance
# ---------------------------------------------------------------------------


def eval_graph(g: SPGraph, ctx: RecognizerCtx, stats: Optional[dict] = None) -> Profile:
    """Bottom-up profile of a canonical graph (iterative, memoized by node
    identity, so a subgraph shared within ``g`` is evaluated once),
    composing each distinct pair of profiles once.

    Each layer folds its ``parts`` in the order they were built, so no
    key is spelled and no parallel node is sorted.  Every profile the call
    meets goes through one intern table, so equal profiles are one object
    (which keeps its views), and a serial and a parallel table map the ids
    of two interned operands to their interned composition; a serial miss
    looks each left row up in the row table of its right operand, a bridge
    or parallel profile, one table per interned operand.  All the tables
    live for this call only.  ``stats`` receives the effort:
    ``compositions`` (serial and parallel compositions made),
    ``table_hits`` and ``profiles`` (distinct profiles)."""
    memo: dict[int, Profile] = {}  # id of a node of g -> its profile
    canon: dict = {}  # profile -> the one equal profile this call uses
    serial: dict = {}  # (id, id) of interned operands -> interned result
    parallel: dict = {}
    rows: dict = {}  # id of an interned serial right operand -> its row table

    def by_table(h1, h2, ctx):
        t = rows.get(id(h2))
        if t is None:
            t = rows[id(h2)] = ctx.row_table(h2)
        return ctx.compose(h1, t)

    def bridge(b):
        h = bridge_profile(b.label, ctx)
        memo[id(b)] = canon.setdefault(h, h)

    steps = 0  # compositions asked for
    # layers to evaluate, each with a (layer,) below it that folds the layer
    # once its parts are evaluated; a bridge is evaluated where it is met
    stack: list = []
    if type(g) is Bridge:
        bridge(g)
    else:
        stack.append(g)
    while stack:
        node = stack.pop()
        if type(node) is not tuple:
            if id(node) in memo:
                continue
            stack.append((node,))
            for c in node.parts:
                if id(c) not in memo:
                    if type(c) is Bridge:
                        bridge(c)
                    else:
                        stack.append(c)
            continue
        node = node[0]  # (layer,): its parts are evaluated, fold them
        parts = node.parts
        if type(node) is SNode:
            table, op = serial, by_table
        else:
            table, op = parallel, op_parallel
        acc = memo[id(parts[0])]
        for c in parts[1:]:
            b = memo[id(c)]
            pair = (id(acc), id(b))
            h = table.get(pair)
            if h is None:
                h = op(acc, b, ctx)
                h = table[pair] = canon.setdefault(h, h)
            acc = h
        steps += len(parts) - 1
        memo[id(node)] = acc
    if stats is not None:
        made = len(serial) + len(parallel)  # one entry per composition made
        stats.update(compositions=made, table_hits=steps - made, profiles=len(canon))
    return memo[id(g)]


def accepts(h: Profile, ctx: RecognizerCtx) -> bool:
    if h.space is not ctx.names:
        raise _foreign(h)
    if type(h) is SProfile:
        return bool(ctx.done(h) & ctx.s_axioms)
    return bool(ctx.finished(h) & ctx.p_axioms)


def member(
    graph: SPGraph, g: Grammar, ctx: Optional[RecognizerCtx] = None, stats: Optional[dict] = None
) -> bool:
    """Is ``graph`` in ``g``'s language?  ``stats`` receives ``eval_graph``'s
    effort."""
    if ctx is None:
        ctx = build_ctx(g)
    return accepts(eval_graph(graph, ctx, stats), ctx)


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


def _check_cap(cap: Optional[int]) -> None:
    if cap is not None and cap < 0:
        raise ValueError(f"cap must not be negative, got {cap}")


def reachable_profiles(
    ctx: RecognizerCtx, cap: Optional[int] = None, stats: Optional[dict] = None
) -> ReachResult:
    """The profiles of all graphs over the alphabet: the bridge profiles
    closed under both composition laws.

    ``op_serial`` and ``op_parallel`` are associative and ``op_parallel``
    commutes, so the closure holds exactly the profiles of graphs, and it
    is bounded by the counting argument in
    :func:`spr.decision.bound_cardinality`.  Stops unsaturated, holding
    exactly ``cap`` profiles, once a profile beyond the first ``cap`` turns
    up.  A negative ``cap`` raises ``ValueError``.

    A worklist in the order profiles turn up that multiplies by the atoms of
    a layer only, never by every other profile.  A serial graph is a layer
    of bridges and parallel graphs, so the *serial atoms* are the bridge
    profiles and the parallel profiles: each profile, when taken, is
    composed on the right with every serial atom taken so far, and a serial
    atom, when taken, also on the right of every profile taken before it.
    A parallel graph is a layer of bridges and serial graphs, and
    ``op_parallel`` reads only ``par_map`` images, so the *parallel atoms*
    are the images of the serial profiles: each distinct image, when first
    taken, is composed with every parallel atom so far, and a new parallel
    atom with every image taken that is not one.  So each ordered pair
    (profile, serial atom) is composed once, and each unordered pair (image,
    parallel atom) once.  Membership is tested on the packed ``(idx, rows)``
    and ``entries``.  ``stats`` receives the effort as ``eval_graph`` reports
    it: ``compositions``, ``table_hits`` (profiles taken whose ``par_map``
    image an earlier profile had, so their parallel products are already
    made) and ``profiles``.  Each serial atom is composed through a row
    table made when it is taken, so no profile builds a left view; only
    bridges are serial right operands, so a serial profile that is none
    drops its ``par_map`` view once the image is taken: nothing reads it
    again.
    """
    _check_cap(cap)
    found = list(dict.fromkeys(ctx.bridge_profiles[a] for a in ctx.grammar.alphabet))
    n_bridges = len(found)
    hits = 0

    def compositions():
        """Every composition of the schedule, made when the walk reaches it."""
        nonlocal hits
        s_atoms: list = []  # the row tables of the serial atoms taken so far
        p_atoms: list = []  # the parallel atoms so far
        plain: dict = {}  # entries -> the other images taken, in that order
        seen: set = set()  # the entries of every image taken
        for i, x in enumerate(found):  # grows while it is walked
            if i < n_bridges or type(x) is PProfile:
                t = ctx.row_table(x)
                s_atoms.append(t)
                for j in range(i):
                    yield ctx.compose(found[j], t)
            for t in s_atoms:
                yield ctx.compose(x, t)
            image = par_map(x, ctx)
            if i >= n_bridges and type(x) is SProfile:
                x._par = None  # only bridges are serial right operands
            key = image.entries
            if key in seen:
                hits += 1
            else:
                seen.add(key)
                plain[key] = image
                for t in p_atoms:
                    yield op_parallel(image, t, ctx)
            if type(x) is SProfile and key in plain:
                for t in plain.values():
                    yield op_parallel(t, image, ctx)
                del plain[key]
                p_atoms.append(image)

    serial_keys = {(h.idx, h.rows) for h in found}
    parallel_keys: set = set()
    made = 0

    def result(saturated):
        if stats is not None:
            stats.update(compositions=made, table_hits=hits, profiles=len(found))
        return ReachResult(set(found), saturated)

    if cap is not None and len(found) > cap:
        del found[cap:]
        return result(False)
    for h in compositions():
        made += 1
        if type(h) is SProfile:
            keys, key = serial_keys, (h.idx, h.rows)
        else:
            keys, key = parallel_keys, h.entries
        if key not in keys:
            if len(found) == cap:
                return result(False)
            keys.add(key)
            found.append(h)
    return result(True)
