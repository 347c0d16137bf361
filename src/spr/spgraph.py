"""Series-parallel graphs.

A series-parallel (SP) graph is what you get from single labelled edges
("bridges") by composing graphs in series (gluing target to source) and in
parallel (gluing sources together and targets together).  Every SP graph has a
unique decomposition tree in which serial and parallel layers alternate; this
module stores graphs directly in that canonical shape, so structural equality
coincides with graph isomorphism:

* ``Bridge(a)``          -- a single edge labelled ``a``;
* ``SNode(parts)``       -- serial composition of >= 2 parts, each a bridge or
  a parallel node (never a serial node), in left-to-right order;
* ``PNode(parts)``       -- parallel composition of >= 2 parts, each a bridge
  or a serial node, a multiset.

A node keeps its ``parts`` as built; its ``children`` are the canonical
sequence: a serial node's parts, and a parallel node's parts sorted
bridges-first (by label), then serial nodes lexicographically by their
child sequence.  The order is that of a canonical key string, ``key``;
equality and hashing go through it.  A bridge makes its key at once.  A
serial or parallel node finds its sorted ``children`` and its key only when
they are read, so building and evaluating a graph make neither.  Then the
children of every parallel node below it are sorted in one iterative pass
that compares keys token by token without spelling them (``_compare``),
and a key read is spelled in one walk and kept by its node alone.  So a
deep graph needs memory linear in its size, not in the length of all its
nodes' keys.

Within one call, ``parse_graph`` and ``canonicalize`` build nodes through a
table (``_node``) keyed by kind and the ids of the parts, sorted for a
parallel node, so equal subgraphs of one text or term are one object and
code that walks the graph (``recognizer.eval_graph``) can memoize by
identity.  The table dies with the call: graphs of two calls share
nothing, except the calls of one ``_canonicalizer``, which the witnesses
of one decision share.

Terms (the textual syntax ``a.(b||c)``) are also a free AST, which grammar
rule right-hand sides use with nonterminal leaves: ``Atom`` and ``Ref``
leaves, and ``Serial``/``Parallel`` layers of two or more parts.  A layer
denotes its left fold: ``Serial(a, b, c)`` equals ``Serial(Serial(a, b), c)``,
which ``fold_term`` folds exactly; ``fold_flat`` folds associatively, a
layer and its nested layers of its own kind in one call, and a layer term
met twice once.  One reader serves terms and graphs.  It reads the bare
words of one ``re.findall`` over the text and works out a line and column
only for an error, by tokenizing the text then.  It collects each layer's
parts and hands them, when the layer closes, to a builder of the layer's
kind: for a term or a rule body a ``Serial``/``Parallel`` layer (a rule
body's exponent ``s^k`` may stay the pair ``(leaf, k)`` for the grammar
reader to count); for graph text (``parse_graph``) the canonical node at
once, so no term is made.
``canonicalize`` turns a ground term into its graph the same way; a
decision witness is the one ground term that ``substitute`` makes of its
derivation, canonicalized once.  Both build every distinct node of a graph
once, from all the parts of its flattened layer, so n edges cost time
linear in n (and one sort of part ids per parallel layer), however ``.``
and ``||`` associate; ``compose_serial``/``compose_parallel`` copy their
operands' parts, share no table and suit composing a few graphs, not
building one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, cmp_to_key, partial
from operator import attrgetter
from typing import Iterable, Iterator, Union

LABEL_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
# Nonterminal names may additionally contain '$' (reserved for generated
# names, e.g. normalisation copies), but must not start with a digit.
NAME_RE = re.compile(r"[a-z$][a-z0-9_$]*\Z")


class ParseError(ValueError):
    """Malformed term or grammar text; carries a 1-based line/column."""

    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Free terms (parse trees)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """A single edge labelled ``label``."""

    label: str


@dataclass(frozen=True)
class Ref:
    """A nonterminal occurrence inside a grammar rule right-hand side."""

    name: str


class _Node(tuple):
    """What ``Serial`` and ``Parallel`` share: the parts of one layer, two
    or more, left to right.  A layer denotes its left fold, so
    ``Serial(a, b, c)`` is ``Serial(Serial(a, b), c)`` (and not
    ``Serial(a, Serial(b, c))``).  Hashing and equality read the term's
    postfix form, built by ``fold_term``, which makes the two equal and
    keeps a long chain from recursing (as tuple's own compare would)."""

    __slots__ = ()

    def __new__(cls, *parts):
        if len(parts) < 2:
            raise ValueError(f"{cls.__name__} needs at least two parts")
        return tuple.__new__(cls, parts)

    def __getnewargs__(self):  # copy and pickle call ``cls(*parts)``
        return tuple(self)

    def _postfix(self) -> list:
        out: list = []
        fold_term(
            self,
            lambda label: out.append(("atom", label)),
            lambda name: out.append(("ref", name)),
            lambda a, b: out.append("."),
            lambda a, b: out.append("||"),
        )
        return out

    def __hash__(self):
        return hash(tuple(self._postfix()))

    def __eq__(self, other):
        return isinstance(other, _Node) and self._postfix() == other._postfix()

    def __ne__(self, other):  # else tuple's own compare would answer
        return not self.__eq__(other)

    def __repr__(self):
        return type(self).__name__ + tuple.__repr__(self)


class Serial(_Node):
    __slots__ = ()


class Parallel(_Node):
    __slots__ = ()


Term = Union[Atom, Ref, Serial, Parallel]


def _visits(node: _Node, op) -> list:
    """What ``fold_term`` stacks for a layer: its parts last to first, each
    but the first below the callback ``op`` that folds it in."""
    out = [op] * (2 * len(node) - 1)
    out[1::2] = node[:0:-1]
    out[-1] = node[0]
    return out


def fold_term(t: Term, atom, ref, ser, par):
    """Fold a term bottom-up: ``Atom`` leaves become ``atom(label)``, ``Ref``
    leaves ``ref(name)``, and a layer of parts ``x0, x1, ..., xn`` the left
    fold ``ser(... ser(ser(y0, y1), y2) ..., yn)`` (or ``par``) of its
    folded parts ``yi`` -- the calls a left-nested binary chain makes.

    Iterative post-order, so arbitrarily deep terms do not hit the Python
    recursion limit; leaves are met left to right.  The stack holds terms
    still to visit and, after each of a layer's parts but the first, the
    callback that combines the fold so far with that part.  Rule bodies,
    the terms folded most often, are mostly nonterminal leaves in binary
    layers, so those are tested for first.
    """
    out: list = []
    stack: list = [t]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Ref:
            out.append(ref(node.name))
        elif kind is Serial:
            stack += (ser, node[1], node[0]) if len(node) == 2 else _visits(node, ser)
        elif kind is Atom:
            out.append(atom(node.label))
        elif kind is Parallel:
            stack += (par, node[1], node[0]) if len(node) == 2 else _visits(node, par)
        else:
            b = out.pop()
            out[-1] = node(out[-1], b)
    return out[0]


def _flat(layer) -> tuple:
    """The parts of ``layer``, each nested layer of its own kind (a
    parenthesised group) replaced by its parts."""
    kind = type(layer)
    if kind not in map(type, layer):
        return layer
    out = []
    stack = [layer]
    while stack:
        x = stack.pop()
        if type(x) is kind:
            stack += reversed(x)
        else:
            out.append(x)
    return tuple(out)


def fold_flat(t: Term, atom, ref, ser, par, memo=None):
    """Fold a term where grouping does not matter: leaves as in
    ``fold_term``, and each layer, flattened as by ``_flat``, one call
    ``ser(parts)`` or ``par(parts)`` with the list of its folded parts.
    Iterative; the stack holds (callback, start of the parts in ``out``,
    the layer's term).

    The fold of each layer is kept in ``memo`` (a dict of this call unless
    given) under the id of the term that opens it: ``t``, or a layer inside
    one of the other kind.  A term met again, in this call or in a later one
    given the same ``memo``, is not walked again, so a term that shares
    subterms costs its distinct layers."""
    if memo is None:
        memo = {}
    out: list = []
    stack: list = [t]
    kinds: list = [None]  # the kind of each open layer, innermost last
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Ref:
            out.append(ref(node.name))
        elif kind is Atom:
            out.append(atom(node.label))
        elif kind is tuple:
            op, i, layer = node
            out[i:] = [op(out[i:])]
            memo[id(layer)] = layer, out[-1]  # kept with the term, so its id stays its own
            kinds.pop()
        else:
            if kind is not kinds[-1]:  # not a group inside a layer of its kind
                done = memo.get(id(node))
                if done is not None:
                    out.append(done[1])
                    continue
                stack.append((ser if kind is Serial else par, len(out), node))
                kinds.append(kind)
            stack += node[::-1]
    return out[0]


def substitute(t: Term, ref) -> Term:
    """``t`` with each ``Ref`` leaf, left to right, replaced by the term
    ``ref(name)``.  One exact ``fold_term`` walk: each layer comes back as
    its binary left fold, an equal term, so grouping is kept and
    ``substitute(t, Ref) == t``."""
    return fold_term(t, Atom, ref, Serial, Parallel)


# ---------------------------------------------------------------------------
# Canonical graphs
# ---------------------------------------------------------------------------


class SPGraph:
    """Base class for canonical decomposition-tree nodes.

    Equality and hashing go through ``key``, the canonical key string (see
    the module docstring).  A bridge makes its key at once; a serial or
    parallel node spells it the first time it is read (``_spell``) and
    keeps it, while the nodes below keep theirs only if read themselves."""

    __slots__ = ("edges", "_key")

    edges: int

    @property
    def key(self) -> str:
        k = self._key
        if k is None:
            k = self._key = _spell(self)
        return k

    def __eq__(self, other):
        return self is other or (
            isinstance(other, SPGraph) and self.edges == other.edges and self.key == other.key
        )

    def __hash__(self):
        return hash(self.key)  # a string keeps its hash

    def __repr__(self):
        return f"<sp {format_graph(self)}>"

    def __str__(self):
        return format_graph(self)


class Bridge(SPGraph):
    __slots__ = ("label",)

    def __init__(self, label: str):
        if not LABEL_RE.match(label):
            raise ValueError(f"bad edge label {label!r}")
        self.label = label
        self._key = "b:" + label + ";"
        self.edges = 1


_key_of = attrgetter("_key")
_edges = attrgetter("edges")


class SNode(SPGraph):
    """A serial layer; its ``parts`` are its ``children``, left to right."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        if len(parts) < 2:
            raise ValueError("serial node needs at least two parts")
        if not _SERIAL_PARTS.issuperset(map(type, parts)):
            for c in parts:
                if isinstance(c, SNode) or not isinstance(c, SPGraph):
                    raise ValueError("serial children must be bridges or parallel nodes")
        self.parts = parts
        self.edges = sum(map(_edges, parts))
        self._key = None

    @property
    def children(self) -> tuple:
        return self.parts


class PNode(SPGraph):
    """A parallel layer: ``parts`` in the order it was built from, and
    ``children``, the same multiset sorted by key, found the first time it
    is read."""

    __slots__ = ("parts", "_children")

    def __init__(self, parts: tuple):
        if len(parts) < 2:
            raise ValueError("parallel node needs at least two parts")
        if not _PARALLEL_PARTS.issuperset(map(type, parts)):
            for c in parts:
                if isinstance(c, PNode) or not isinstance(c, SPGraph):
                    raise ValueError("parallel children must be bridges or serial nodes")
        self.parts = parts
        self.edges = sum(map(_edges, parts))
        self._key = self._children = None

    @property
    def children(self) -> tuple:
        c = self._children
        if c is None:
            _sort_below(self)
            c = self._children
        return c


# the child types each node accepts at a glance; any other child goes
# through the isinstance checks above
_SERIAL_PARTS = frozenset((Bridge, PNode))
_PARALLEL_PARTS = frozenset((Bridge, SNode))


def _sort_below(g: SPGraph) -> None:
    """Sort the parts of every parallel node of ``g`` that has no
    ``children`` yet, each after the nodes below it (which ``_compare``
    reads).  Iterative, each node once; it stops at a node with a key and
    at a sorted parallel node, as everything below one is sorted."""
    done: set = set()
    stack = [g]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        below = [
            c for c in node.parts
            if c._key is None and id(c) not in done and (isinstance(c, SNode) or c._children is None)
        ]
        if below:
            stack += below
            continue
        stack.pop()
        done.add(id(node))
        if isinstance(node, PNode) and node._children is None:
            node._children = _sorted_parts(node.parts)


def _sorted_parts(parts: tuple) -> tuple:
    """The parts of a parallel node in key order: by key if each has one,
    else bridges first, by key, then the serial nodes by ``_compare``."""
    if None not in map(_key_of, parts):
        return tuple(sorted(parts, key=_key_of))
    bridges = sorted((c for c in parts if isinstance(c, Bridge)), key=_key_of)
    serials = sorted((c for c in parts if not isinstance(c, Bridge)), key=_by_key)
    return (*bridges, *serials)


def _head(x) -> str:
    """The first token of the key of ``x``, or ``x`` itself if it is a
    token: a bridge's key, a layer's ``s(`` or ``p(``, or ``)``."""
    if type(x) is str:
        return x
    if isinstance(x, Bridge):
        return x._key
    return "s(" if isinstance(x, SNode) else "p("


def _compare(x: SPGraph, y: SPGraph) -> int:
    """-1, 0 or 1 as the key of ``x`` sorts before, with or after that of
    ``y``, read from both graphs a token at a time without spelling either:
    a bridge's key, a layer's ``s(`` or ``p(``, its children and its ``)``.
    Keys are prefix-free, so the first two tokens that differ decide; a
    node met on both sides, or two nodes whose keys are spelled, are
    compared whole.  The parallel nodes of both graphs must be sorted."""
    xs, ys = [x], [y]
    while xs:
        a, b = xs.pop(), ys.pop()
        if a is b:
            continue
        ka = a if type(a) is str else a._key
        kb = b if type(b) is str else b._key
        if ka is not None and kb is not None:
            if ka != kb:
                return -1 if ka < kb else 1
            continue
        ha, hb = _head(a), _head(b)
        if ha != hb:
            return -1 if ha < hb else 1
        xs.append(")")
        xs += reversed(a.children)
        ys.append(")")
        ys += reversed(b.children)
    return 0


_by_key = cmp_to_key(_compare)


def _spell(g: SPGraph) -> str:
    """The key of the layer ``g``, written in one walk: a bridge's key, a
    layer's ``s(`` or ``p(``, its children and its ``)``, a node whose key
    is spelled already copied whole."""
    _sort_below(g)
    out: list = []
    stack = [g]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
        elif x._key is not None:
            out.append(x._key)
        else:
            out.append(_head(x))
            stack.append(")")
            stack += reversed(x.children)
    return "".join(out)


def _splice(node, parts) -> tuple:
    """``parts``, each part of the kind ``node`` replaced by its parts."""
    out: list = []
    for x in parts:
        out += x.parts if type(x) is node else (x,)
    return tuple(out)


def _node(made: dict, kind, parts) -> SPGraph:
    """The node of ``kind`` of ``parts`` from ``made``, the node table of
    one call; one part is itself.  The table maps the kind and the ids of
    the parts (sorted for a parallel node, whose parts are a multiset) to a
    node, so each distinct subgraph of the call is built once, with the
    parts it first had, and equal subgraphs are one object.  The nodes keep
    their parts alive, so the ids stay theirs."""
    if len(parts) == 1:
        return parts[0]
    ids = map(id, parts)
    key = (kind, *(sorted(ids) if kind is PNode else ids))
    g = made.get(key)
    if g is None:
        g = made[key] = kind(tuple(parts))
    return g


def compose_serial(a: SPGraph, b: SPGraph) -> SPGraph:
    """Serial composition; flattens nested serial layers."""
    return SNode(_splice(SNode, (a, b)))


def compose_parallel(a: SPGraph, b: SPGraph) -> SPGraph:
    """Parallel composition; flattens nested parallel layers."""
    return PNode(_splice(PNode, (a, b)))


def edge_count(g: SPGraph) -> int:
    return g.edges


def graph_order(g: SPGraph) -> tuple:
    """The one order graphs are listed and ranked in: edges, then key."""
    return g.edges, g.key


def _not_ground(name: str):
    raise ValueError(f"term is not ground: nonterminal {name!r}")


def canonicalize(t: Term) -> SPGraph:
    """Turn a ground term into its canonical decomposition tree; a
    nonterminal leaf raises ``ValueError`` (``substitute`` binds them first).

    Each flattened layer (``fold_flat``) is one node of a table of this
    call (``_node``), so every distinct node is built once and equal
    subgraphs are one object; the work is linear in the term, a layer term
    that occurs more than once counted once."""
    return _canonicalizer()(t)


def _canonicalizer():
    """``canonicalize`` for many terms of one caller that share subterms:
    its calls share one bridge per label, one node table (``_node``) and one
    ``fold_flat`` memo, so a layer term met in an earlier call is its node
    at once."""
    bridges: dict[str, Bridge] = {}

    def bridge(label):
        b = bridges.get(label)
        if b is None:
            b = bridges[label] = Bridge(label)
        return b

    made: dict = {}  # the node table (``_node``)
    memo: dict = {}
    ser, par = partial(_node, made, SNode), partial(_node, made, PNode)
    return lambda t: fold_flat(t, bridge, _not_ground, ser, par, memo)


# ---------------------------------------------------------------------------
# Text form
#
# atoms            [a-z][a-z0-9_]*
# serial           t1 . t2        (binds tighter)
# parallel         t1 || t2
# grouping         ( t )
# comments         # to end of line
# ---------------------------------------------------------------------------

_TOKEN = r"[a-z$][a-z0-9_$]*|\|\||[().^]|[0-9]+"
# whitespace, then a token (group 1) or the one character that starts none
_SCAN_RE = re.compile(rf"\s*(?:({_TOKEN})|(\S))")
# a token, or the one character that starts none as a word no reader accepts
_WORD_RE = re.compile(rf"{_TOKEN}|\S")


def tokenize(text: str) -> list[tuple[str, int, int]]:
    """Split ``text`` into (token, line, col) triples, dropping comments."""
    toks = []
    for lno, line in enumerate(text.splitlines(), start=1):
        # without trailing whitespace every match ends where the next begins
        for m in _SCAN_RE.finditer(line.split("#", 1)[0].rstrip()):
            tok = m.group(1)
            if tok is None:
                raise ParseError(f"unexpected character {m.group(2)!r}", lno, m.start(2) + 1)
            toks.append((tok, lno, m.start(1) + 1))
    return toks


def _words(text: str) -> list[str]:
    """The tokens of ``text`` without positions, comments dropped as
    ``tokenize`` drops them; each character that starts no token is a word
    of its own."""
    if "#" in text:
        text = "\n".join([line.split("#", 1)[0] for line in text.splitlines()])
    return _WORD_RE.findall(text)


def _layer(node):
    """The builder of ``node``'s layers: one ``node`` of all the parts."""
    return lambda parts: parts[0] if len(parts) == 1 else node(tuple(parts))


# (label leaf, serial layer, parallel layer); a term layer is made by
# tuple's constructor, as ``_layer`` has already seen two or more parts
_TERM_BUILDERS = (
    Atom,
    _layer(partial(tuple.__new__, Serial)),
    _layer(partial(tuple.__new__, Parallel)),
)


class _TermParser:
    """Reader for the term syntax: ``||`` binds loosest, then ``.``, both
    left-associative, with parentheses for grouping.

    ``names`` maps known nonterminal names to their kind; when given, bare
    identifiers found in it become ``Ref`` leaves and exponents ``x^k`` are
    accepted -- that extension exists only for grammar rule bodies, never
    for ground graph terms.

    Each layer is built once, when it closes, by the builder of its kind from
    all its parts; a one-part layer is its part.  ``parse()`` gives a term
    of ``Serial``/``Parallel`` layers with ``Atom``/``Ref`` leaves, each
    name's leaf made once per parser (or once per grammar, where the rule
    bodies share ``leaves``), and ``x^k`` the layer of k copies of ``x``'s
    leaf; ``parse(counts=True)`` keeps it as the pair ``(leaf, k)``, so an
    exponent costs its digits, not its value.
    ``parse(graph=True)`` builds the canonical graph directly, through one
    node table (``_node``), so equal subgraphs of the text are one node.
    There a parenthesised layer that is an operand of a layer of its own
    kind is not built at all: its parts stay where they are and join the
    enclosing layer, so a graph of n edges costs time linear in n however
    its text associates.  Open groups live on explicit stacks rather than
    the Python call stack, so nesting depth is bounded by memory only.

    The parser reads bare words from one scan of the text (``_words``) and
    computes positions only for an error: ``error`` then tokenizes the text,
    and ``tokenize`` raises the text's first unexpected character if there
    is one, so errors take the same precedence as when the whole text was
    tokenized first.  Such a character is a word of its own, which the
    parser rejects wherever it stands.
    """

    def __init__(self, source, names=None, leaves=None):
        """``source`` is the text to read, or its ``tokenize`` triples;
        ``leaves`` maps each name read so far to its leaf."""
        if isinstance(source, str):
            self.text = source
            self.words = _words(source)
        else:
            self.toks = source
            self.words = [tok for tok, _, _ in source]
        self.names = names
        self.leaves = {} if leaves is None else leaves
        self.exponent_at = None  # the token index of the first '^' read

    @cached_property
    def toks(self) -> list[tuple[str, int, int]]:
        """The (token, line, col) triples of the text, one per word."""
        return tokenize(self.text)

    def error(self, msg, i):
        """Raise ``msg`` at token ``i``, or at the last token past the end."""
        if i < len(self.toks):
            _, ln, col = self.toks[i]
        elif self.toks:
            _, ln, col = self.toks[-1]
        else:
            ln, col = 1, 1
        raise ParseError(msg, ln, col)

    def parse(self, graph: bool = False, counts: bool = False):
        """The term the tokens spell or, with ``graph``, its canonical
        graph; with ``counts``, each exponent stays the pair ``(leaf, k)``."""
        if graph:  # one node table for the text
            made: dict = {}
            atom, ser, par = Bridge, partial(_node, made, SNode), partial(_node, made, PNode)
        else:
            atom, ser, par = _TERM_BUILDERS
        leaves = self.leaves
        words = [*self.words, None]  # None: the end of input
        # the serial parts of every open factor and the parallel parts of
        # every open group, innermost last; the innermost group's current
        # factor is sers[s0:] and its parallel parts pars[p0:]
        sers: list = []
        pars: list = []
        s0 = p0 = 0
        outer: list = []  # (s0, p0) of each enclosing group
        i = 0
        while True:
            tok = words[i]
            if tok == "(":
                outer.append((s0, p0))
                s0, p0 = len(sers), len(pars)
                i += 1
                continue
            t = leaves.get(tok)
            if t is None:
                t = leaves[tok] = self.leaf(tok, i, atom)
            i += 1
            tok = words[i]
            if tok == "^":
                k = self.exponent(i)
                t = (t, k) if counts else t if k == 1 else par([t] * k)
                i += 2
                tok = words[i]
            sers.append(t)
            while tok != ".":  # t ends a factor: close what it ends
                if tok == "||":  # a factor of one part is that part
                    pars.append(sers.pop() if len(sers) == s0 + 1 else ser(sers[s0:]))
                    del sers[s0:]
                    break
                if not outer:
                    if tok is not None:
                        self.error(f"trailing input {tok!r}", i)
                    pars.append(ser(sers))
                    return par(pars)
                if tok != ")":
                    self.error("expected ')'", i)
                i += 1
                tok = words[i]
                outer_s0, outer_p0 = outer.pop()
                # the group becomes one serial part, unless in a graph its
                # parts can stay and join the layer around them: those of a
                # serial group always, a parallel group's when the group is
                # the whole factor around it
                if not graph or (p0 < len(pars) and (outer_s0 < s0 or tok == ".")):
                    pars.append(ser(sers[s0:]))
                    del sers[s0:]
                    sers.append(par(pars[p0:]))
                    del pars[p0:]
                s0, p0 = outer_s0, outer_p0
            i += 1  # the operator before the next factor

    def leaf(self, tok, i, atom):
        """The leaf for the name ``tok`` at token ``i``: a nonterminal's
        ``Ref``, a label's ``atom(tok)``."""
        if tok is None:
            self.error("unexpected end of input", i)
        if not NAME_RE.match(tok):
            self.error(f"expected a name, got {tok!r}", i)
        if self.names is not None and tok in self.names:
            return Ref(tok)
        if not LABEL_RE.match(tok):
            self.error(f"unknown name {tok!r}", i)
        return atom(tok)

    def exponent(self, i) -> int:
        """The count of the exponent whose ``^`` is token ``i``."""
        if self.names is None:
            self.error("exponents are not valid in graph terms", i)
        if i + 1 >= len(self.words):
            self.error("unexpected end of input", i + 1)
        count = self.words[i + 1]
        # a foreign digit such as '\u0663' (a word of its own) or zeros alone are no count
        if not (count.isascii() and count.isdigit()) or not count.strip("0"):
            self.error("exponent must be a positive integer", i + 1)
        try:
            k = int(count)
        except ValueError:  # more digits than the interpreter converts
            self.error(f"exponent has too many digits ({len(count)})", i + 1)
        if self.exponent_at is None:
            self.exponent_at = i
        return k


def _read_text(text: str, graph: bool):
    parser = _TermParser(text)
    if not parser.words:
        raise ParseError("empty term", 1, 1)
    return parser.parse(graph)


def parse_term(text: str) -> Term:
    """Parse a ground graph term (labels, ``.``, ``||``, parentheses)."""
    return _read_text(text, False)


def parse_graph(text: str) -> SPGraph:
    """Parse a ground graph term straight into its canonical graph; equal to
    ``canonicalize(parse_term(text))``, with the same errors."""
    return _read_text(text, True)


def format_graph(g: SPGraph) -> str:
    """Render a canonical graph in the term syntax (parse/format round-trips)
    in one walk, each parallel node's children in key order.  The text of
    a layer of bridges alone is made once per node and joined at once."""
    if isinstance(g, Bridge):
        return g.label
    _sort_below(g)
    flat: dict = {}  # id of a layer of bridges -> its text
    out: list = []
    stack: list = [g]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
        elif isinstance(x, Bridge):
            out.append(x.label)
        elif id(x) in flat:
            out.append(flat[id(x)])
        else:
            serial = isinstance(x, SNode)
            parts = x.parts if serial else x.children
            if _BRIDGES.issuperset(map(type, parts)):
                text = flat[id(x)] = (" . " if serial else " || ").join([c.label for c in parts])
                out.append(text)
                continue
            items: list = []
            for c in parts:
                items += (" . ", "(", c, ")") if isinstance(c, PNode) else (" . " if serial else " || ", c)
            stack += reversed(items[1:])
    return "".join(out)


_BRIDGES = frozenset((Bridge,))


# A term's text is the pair (text, its top operator or None for a leaf).
# ``fold_term`` calls ``_text_ser``/``_text_par`` with the fold of a layer so
# far on the left, so only a right operand can be a group of the layer's own
# kind, which then keeps its parentheses.


def _text_leaf(name: str):
    return name, None


def _text_ser(a, b):
    left = "(" + a[0] + ")" if a[1] == "||" else a[0]
    right = b[0] if b[1] is None else "(" + b[0] + ")"
    return left + " . " + right, "."


def _text_par(a, b):
    return a[0] + " || " + ("(" + b[0] + ")" if b[1] == "||" else b[0]), "||"


def format_term(t: Term) -> str:
    """Render a free term; used for grammar rule bodies.  The text reads
    back as an equal term."""
    return fold_term(t, _text_leaf, _text_leaf, _text_ser, _text_par)[0]


# ---------------------------------------------------------------------------
# Enumeration and random sampling
# ---------------------------------------------------------------------------


def enumerate_graphs(labels: Iterable[str], max_edges: int) -> list[SPGraph]:
    """All canonical SP graphs over ``labels`` with at most ``max_edges``
    edges, sorted by :func:`graph_order`.

    Dynamic programming over the alternating decomposition: a serial node of
    size n is an ordered sequence (length >= 2) of bridges/parallel nodes,
    a parallel node is a multiset (length >= 2) of bridges/serial nodes.
    """
    labels = sorted(set(labels))
    if not labels:
        raise ValueError("need at least one label")
    if max_edges < 1:
        return []
    bridges = [Bridge(a) for a in labels]
    snodes: dict[int, list[SPGraph]] = {1: []}
    pnodes: dict[int, list[SPGraph]] = {1: []}

    def s_atoms(j):  # what may appear under a serial node
        return (bridges if j == 1 else []) + pnodes.get(j, [])

    def p_atoms(j):
        return (bridges if j == 1 else []) + snodes.get(j, [])

    for n in range(2, max_edges + 1):
        # ordered sequences summing to n, length >= 2
        def sequences(total):
            if total == 0:
                yield ()
                return
            for j in range(1, total + 1):
                for atom in s_atoms(j):
                    for rest in sequences(total - j):
                        yield (atom,) + rest

        snodes[n] = [SNode(seq) for seq in sequences(n) if len(seq) >= 2]

        atoms = [(a, a.edges) for j in range(1, n) for a in p_atoms(j)]
        atoms.sort(key=lambda pair: pair[0].key)

        def multisets(start, remaining, picked):
            if remaining == 0:
                if len(picked) >= 2:
                    yield tuple(picked)
                return
            for idx in range(start, len(atoms)):
                g, e = atoms[idx]
                if e <= remaining:
                    picked.append(g)
                    yield from multisets(idx, remaining - e, picked)
                    picked.pop()

        pnodes[n] = [PNode(ms) for ms in multisets(0, n, [])]

    result = list(bridges)
    for n in range(2, max_edges + 1):
        result.extend(snodes[n])
        result.extend(pnodes[n])
    result.sort(key=graph_order)
    return result


def random_graph(rng, n_edges: int, labels) -> SPGraph:
    """A uniformly-split random SP graph with exactly ``n_edges`` edges.

    Not uniform over graphs; intended for stress and performance tests.
    Builds the random term iteratively and canonicalizes it once, so very
    large graphs are safe and linear to build.
    """
    if n_edges < 1:
        raise ValueError("need at least one edge")
    labels = list(labels)
    if not labels:
        raise ValueError("need at least one label")
    out: list[Term] = []
    tasks: list[tuple] = [("gen", n_edges)]
    while tasks:
        task = tasks.pop()
        if task[0] == "gen":
            m = task[1]
            if m == 1:
                out.append(Atom(rng.choice(labels)))
            else:
                i = rng.randint(1, m - 1)
                op = rng.choice(("s", "p"))
                tasks.append(("mk", op))
                tasks.append(("gen", m - i))
                tasks.append(("gen", i))
        else:
            b = out.pop()
            a = out.pop()
            out.append(Serial(a, b) if task[1] == "s" else Parallel(a, b))
    return canonicalize(out[0])
