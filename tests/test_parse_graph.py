"""``parse_graph`` reads graph text straight into canonical nodes; the
reference is the term it used to go through, ``canonicalize(parse_term(text))``.
Equal graphs for every association, redundant parentheses, comment and
blank; the same ``ParseError`` for corrupted text; one node construction per
node of the result."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_canonicalize import ASSOCIATIONS, associate, ground_terms, inner_nodes, nest

from spr.spgraph import (
    Atom,
    Parallel,
    ParseError,
    PNode,
    Serial,
    SNode,
    canonicalize,
    fold_term,
    format_graph,
    parse_graph,
    parse_term,
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
