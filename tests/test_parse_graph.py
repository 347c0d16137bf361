"""``parse_graph`` reads graph text straight into canonical nodes; the
reference is the term it used to go through, ``canonicalize(parse_term(text))``.
Equal graphs for every association, redundant parentheses, comment and
blank; the same ``ParseError`` for corrupted text; one node construction per
node of the result, equal subgraphs of one text being one node; keys,
hashes and sorted parallel children found on demand."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_canonicalize import ASSOCIATIONS, associate, ground_terms, inner_nodes, nest

from spr import spgraph
from spr.spgraph import (
    Atom,
    Parallel,
    Bridge,
    ParseError,
    PNode,
    Serial,
    SNode,
    canonicalize,
    compose_parallel,
    compose_serial,
    fold_term,
    format_graph,
    parse_graph,
    parse_term,
    random_graph,
)

# what may stand between two tokens: blanks of several kinds, line breaks,
# comments (each runs to the end of its line)
BLANKS = ["", " ", "  ", "\t", "\u00a0", "\u2003", "\u3000", "\n", "\r\n",
          "\n\n", " # note\n", "\r\n# c . (\r\n", "\u2028", " \n \t\n"]
# pieces spliced in to corrupt a text
BAD = ["|", "?", "A", "(", ")", ".", "||", "^", "^2", "2", "$x", "\u00e9",
       "#", "\u00a0|", "a b", "\n)"]


def render(t, rnd, extra=0.2):
    """Tokens of ``t`` as text: parentheses wherever the binary term needs
    them to keep its association, and with chance ``extra`` elsewhere."""

    def node(op, kind):
        def join(a, b):
            left, right = a[0], b[0]
            # '.' binds tighter, and both operators associate to the left
            if a[1] == "p" and kind == "s" or rnd.random() < extra:
                left = ["(", *left, ")"]
            if b[1] in (kind, "p") or rnd.random() < extra:
                right = ["(", *right, ")"]
            return [*left, op, *right], kind

        return join

    def leaf(name):
        return [name], None

    return fold_term(t, leaf, leaf, node(".", "s"), node("||", "p"))[0]


def spaced(tokens, rnd):
    """The tokens joined by random blanks, with blank lines and comments
    before and after."""
    out = [rnd.choice(["", "\n", "# header\n", "\r\n\r\n"])]
    for tok in tokens:
        out += (tok, rnd.choice(BLANKS))
    return "".join(out)


def outcome(read, text):
    try:
        g = read(text)
    except ParseError as e:
        return "error", str(e), e.line, e.col
    return "graph", g.key, g.edges, format_graph(g)


def reference(text):
    return canonicalize(parse_term(text))


@settings(max_examples=200, deadline=None)
@given(ground_terms, st.randoms(use_true_random=False))
def test_valid_text_reads_to_the_same_graph(t, rnd):
    text = spaced(render(t, rnd), rnd)
    want = outcome(reference, text)
    assert want[0] == "graph" and want[1] == canonicalize(t).key
    assert outcome(parse_graph, text) == want


@settings(max_examples=200, deadline=None)
@given(ground_terms, st.randoms(use_true_random=False), st.integers(1, 3))
def test_corrupted_text_raises_the_same_error(t, rnd, n_bad):
    tokens = render(t, rnd)
    for _ in range(n_bad):
        tokens.insert(rnd.randint(0, len(tokens)), rnd.choice(BAD))
    text = spaced(tokens, rnd)
    assert outcome(parse_graph, text) == outcome(reference, text)


@pytest.mark.parametrize(
    "text",
    ["", " \n# nothing\n", "(", "()", "a .", "a . (b", "a b", "(a || b) c",
     "a || ||", "a^2", "$x . a", "a\r\n.\r\n?", "((a)))", "a . (b || c))"],
)
def test_error_cases_raise_the_same_error(text):
    want = outcome(reference, text)
    assert want[0] == "error"
    assert outcome(parse_graph, text) == want


# ---------------------------------------------------------------------------
# one construction per node
# ---------------------------------------------------------------------------


def parenthesized(t) -> str:
    """``t`` as text with every binary node in parentheses."""
    return fold_term(
        t,
        lambda label: label,
        lambda name: name,
        lambda a, b: "(" + a + " . " + b + ")",
        lambda a, b: "(" + a + " || " + b + ")",
    )


@pytest.mark.parametrize("how", ASSOCIATIONS)
@pytest.mark.parametrize("shape", ["chain", "bundle", "nest"])
def test_every_node_is_built_once(shape, how, monkeypatch):
    node = Serial if shape == "chain" else Parallel
    if shape == "nest":
        t = nest(5001, "left" if how == "flat" else how)
    else:
        t = associate([Atom("a")] * 5000, "left" if how == "flat" else how, node)
    # flat: only the parentheses the term needs; else around every node
    text = " ".join(render(t, random.Random(0), 0)) if how == "flat" else parenthesized(t)
    built = []
    for cls in (SNode, PNode):
        init = cls.__init__

        def counting(self, children, init=init):
            built.append(len(children))
            init(self, children)

        monkeypatch.setattr(cls, "__init__", counting)
    g = parse_graph(text)
    assert len(built) == inner_nodes(g)
    if shape == "nest":
        assert g.edges == 5001
    else:
        assert built == [5000]
    monkeypatch.undo()
    assert g.key == reference(text).key


# ---------------------------------------------------------------------------
# shared nodes, keys on demand
# ---------------------------------------------------------------------------


def test_equal_subgraphs_of_one_text_are_one_object():
    g = parse_graph("(a || b . c) . d . (b . c || a) . (a || (b . c)) . (b || b . c)")
    first, _, third, fourth, fifth = g.parts
    # a parallel node is found again whatever the order of its parts, and
    # keeps the parts it was first built with
    assert first is third is fourth
    assert first.parts == third.parts and first.parts[0].label == "a"
    assert fifth.parts[1] is first.parts[1]
    # the bridges of one label are one object too
    assert fifth.parts[0] is first.parts[1].parts[0]
    # the table lives for one text only
    assert parse_graph("a || b") is not parse_graph("a || b")


@pytest.mark.parametrize(
    "one,other",
    [
        ("a . (b || c . a || a) . b", "a . ((a || (c . a)) || b) . b"),
        ("(a || b) . (c || d . (e || f))", "(b || a) . ((d . (f || e)) || c)"),
        ("a . b || a . (b || c) || a . b . c || a", "a || (a . b . c || (a . (c || b))) || a . b"),
    ],
)
def test_two_texts_of_one_graph_agree(one, other):
    g, h = parse_graph(one), parse_graph(other)
    assert g is not h
    assert g.key == h.key and hash(g) == hash(h) and g == h
    assert g.children == h.children
    assert format_graph(g) == format_graph(h) == format_graph(reference(other))
    assert g.key == reference(one).key


def _layers(g):
    """Every serial and parallel node of ``g``, each once."""
    out, seen, stack = [], set(), [g]
    while stack:
        node = stack.pop()
        if not isinstance(node, Bridge) and id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(node.parts)
    return out


@pytest.mark.parametrize("small", [spgraph._SMALL, 1])
def test_parallel_children_are_sorted_by_key(small, monkeypatch):
    # small graphs are sorted by key strings; with no graph counted small,
    # every layer is sorted without spelling keys
    monkeypatch.setattr(spgraph, "_SMALL", small)
    rng = random.Random(5)
    for n in range(200):
        text = format_graph(random_graph(rng, rng.randint(2, 80), "abc"))
        if n % 4 < 2:  # equal subgraphs one object
            g = parse_graph(text)
        else:  # built pairwise, so equal subgraphs are distinct objects
            g = fold_term(parse_term(text), Bridge, None, compose_serial, compose_parallel)
            assert g == parse_graph(text)
        layers = _layers(g)
        if n % 2:  # some nodes below have spelled their keys, some not
            for node in rng.sample(layers, len(layers) // 3):
                node.key
        for node in layers:
            keys = [c.key for c in node.children]
            if isinstance(node, PNode):
                assert keys == sorted(keys)
                assert sorted(map(id, node.children)) == sorted(map(id, node.parts))
            else:
                assert node.children == node.parts
    # serial siblings whose parallel parts differ only in length, or deep down
    for text in ("a . (b || c || c) || a . (b || c)",
                 "(b || c . (a || b || b)) . a || (b || c . (a || b)) . a || b . (a || b)"):
        keys = [c.key for c in parse_graph(text).children]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
    # equal parts that are distinct objects order their serial nodes as one
    x, y = (
        fold_term(parse_term(text), Bridge, None, compose_serial, compose_parallel)
        for text in ("a . (b || c) . b", "a . (c || b) . a")
    )
    assert x.parts[1] is not y.parts[1] and x.parts[1] == y.parts[1]
    assert compose_parallel(x, y).children == (y, x)


def test_a_deep_nest_spells_its_key_and_text_in_linear_memory():
    # 50,000 levels, serial and parallel in turn: beyond the recursion
    # limit if anything recursed per level, and beyond any memory if every
    # node kept its key (the keys of all levels sum to billions of bytes)
    levels = 50000
    g = parse_graph("".join(("a . (", "b || (")[i % 2] for i in range(levels)) + "c" + ")" * levels)
    assert g.edges == levels + 1
    tracemalloc.start()
    try:
        key, text = g.key, format_graph(g)
        assert hash(g) == hash(key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert key.startswith("s(b:a;p(b:b;s(b:a;p(") and key.count("(") == levels
    assert text == "".join(("a . (", "b || ")[i % 2] for i in range(levels)) + "c" + ")" * (levels // 2)
    assert peak <= 40e6, peak
    assert parse_graph(text) == g
