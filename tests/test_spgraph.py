import itertools
import pickle
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spr.spgraph import (
    Atom,
    Bridge,
    Parallel,
    ParseError,
    PNode,
    Ref,
    Serial,
    SNode,
    _TermParser,
    canonicalize,
    compose_parallel,
    compose_serial,
    edge_count,
    enumerate_graphs,
    fold_flat,
    format_term,
    format_graph,
    parse_graph,
    parse_term,
    random_graph,
    substitute,
    tokenize,
)

# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------


def test_bridge_label_validation():
    assert Bridge("a").label == "a"
    assert Bridge("ab_2").edges == 1
    for bad in ("A", "2a", "", "a b", "$x"):
        with pytest.raises(ValueError):
            Bridge(bad)


def test_node_arity_and_layering():
    a, b = Bridge("a"), Bridge("b")
    with pytest.raises(ValueError):
        SNode((a,))
    with pytest.raises(ValueError):
        PNode((a,))
    s = SNode((a, b))
    with pytest.raises(ValueError):
        SNode((s, a))  # serial under serial must be flattened first
    p = PNode((a, b))
    with pytest.raises(ValueError):
        PNode((p, a))


@pytest.mark.parametrize("node,kind", [(SNode, "serial"), (PNode, "parallel")])
def test_node_validation_messages(node, kind):
    a, b = Bridge("a"), Bridge("b")
    other = "parallel nodes" if node is SNode else "serial nodes"
    children = f"{kind} children must be bridges or {other}"
    # a child of the node's own kind, anywhere in the parts
    for parts in ((node((a, b)), a), (a, b, node((a, b)))):
        with pytest.raises(ValueError, match=re.escape(children)):
            node(parts)
    # children that are no graph at all
    for bad in ("a", Atom("a"), None):
        with pytest.raises(ValueError, match=re.escape(children)):
            node((a, bad))
    for parts in ((), (a,), (node((b, b)),)):
        with pytest.raises(ValueError, match=re.escape(f"{kind} node needs at least two parts")):
            node(parts)
    # a subclass of an accepted kind passes the isinstance check
    class Edge(Bridge):
        __slots__ = ()

    assert node((Edge("a"), b)).key == node((a, b)).key


def test_compose_flattens_layers():
    a, b, c = Bridge("a"), Bridge("b"), Bridge("c")
    s = compose_serial(compose_serial(a, b), c)
    assert isinstance(s, SNode) and len(s.children) == 3
    p = compose_parallel(a, compose_parallel(b, c))
    assert isinstance(p, PNode) and len(p.children) == 3
    assert edge_count(s) == edge_count(p) == 3


def test_parallel_children_sorted():
    g = compose_parallel(Bridge("b"), Bridge("a"))
    assert [c.label for c in g.children] == ["a", "b"]
    # bridges come before serial nodes regardless of insertion order
    s = compose_serial(Bridge("a"), Bridge("a"))
    g2 = compose_parallel(s, Bridge("b"))
    assert isinstance(g2.children[0], Bridge)


def test_equality_is_structural():
    g1 = parse_graph("a . (b || c . a)")
    g2 = parse_graph("a . (c . a || b)")
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != parse_graph("a . (b || a . c)")


def test_compose_serial_associative():
    gs = enumerate_graphs(["a", "b"], 2)
    for x, y, z in itertools.islice(itertools.product(gs, repeat=3), 200):
        assert compose_serial(compose_serial(x, y), z) == compose_serial(
            x, compose_serial(y, z)
        )


def test_compose_parallel_associative_commutative():
    gs = enumerate_graphs(["a", "b"], 2)
    for x, y, z in itertools.islice(itertools.product(gs, repeat=3), 200):
        assert compose_parallel(compose_parallel(x, y), z) == compose_parallel(
            x, compose_parallel(y, z)
        )
        assert compose_parallel(x, y) == compose_parallel(y, x)


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


def all_terms(leaves):
    """Every binary term over the given leaf word, in order."""
    if len(leaves) == 1:
        yield Atom(leaves[0])
        return
    for i in range(1, len(leaves)):
        for left in all_terms(leaves[:i]):
            for right in all_terms(leaves[i:]):
                yield Serial(left, right)
                yield Parallel(left, right)


def rewrites(t):
    """All terms one reassociation/commutation step away from the binary
    term ``t``."""
    if isinstance(t, Atom):
        return
    cls = type(t)
    left, right = t
    if isinstance(left, cls):
        yield cls(left[0], cls(left[1], right))
    if isinstance(right, cls):
        yield cls(cls(left, right[0]), right[1])
    if cls is Parallel:
        yield Parallel(right, left)
    for sub in rewrites(left):
        yield cls(sub, right)
    for sub in rewrites(right):
        yield cls(left, sub)


def test_canonicalize_constant_on_rewrite_classes():
    # associativity of both operations and commutativity of || generate the
    # whole equivalence; one-step closure over all terms with <= 5 leaves
    # therefore checks the invariance exhaustively at that size.
    leaf_words = [w for n in range(1, 6) for w in itertools.product("ab", repeat=n)]
    checked = 0
    for word in leaf_words:
        for t in all_terms(list(word)):
            g = canonicalize(t)
            for t2 in rewrites(t):
                assert canonicalize(t2) == g
                checked += 1
    assert checked > 10_000


def test_canonicalize_idempotent_via_format():
    for g in enumerate_graphs(["a", "b"], 4):
        assert parse_graph(format_graph(g)) == g


def test_canonicalize_rejects_nonterminals():
    with pytest.raises(ValueError, match="not ground"):
        canonicalize(Serial(Atom("a"), Ref("p")))


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def test_parse_precedence():
    # '.' binds tighter than '||'
    g = parse_graph("a || b . c")
    assert isinstance(g, PNode)
    assert parse_graph("(a || b) . c") != g


def test_parse_errors():
    for text, frag in [
        ("", "empty term"),
        ("a .", "unexpected end"),
        ("a . (b", "expected ')'"),
        ("a ? b", "unexpected character"),
        ("a^2", "exponents are not valid"),
        ("a b", "trailing input"),
        ("Aa", "unexpected character"),
    ]:
        with pytest.raises(ParseError, match=re.escape(frag)):
            parse_graph(text)


def test_parse_term_folds_each_layer_left():
    a, b, c, d = map(Atom, "abcd")
    assert parse_term("a . b . c") == Serial(Serial(a, b), c)
    assert parse_term("a . (b . c)") == Serial(a, Serial(b, c))
    assert parse_term("a || b . c . d || (a)") == Parallel(
        Parallel(a, Serial(Serial(b, c), d)), a
    )
    assert parse_term("((a || b)) . c") == Serial(Parallel(a, b), c)
    # a rule body's exponent is one more parallel layer of its copies
    p, s = Ref("p"), Ref("s")
    reader = _TermParser(tokenize("p || s^3 . a"), names={"p": "P", "s": "S"})
    assert reader.parse() == Parallel(p, Serial(Parallel(Parallel(s, s), s), a))
    assert reader.exponent_at == 3  # the index of the '^' token


def test_parse_error_location():
    with pytest.raises(ParseError) as exc:
        parse_term("a .\n. b")
    assert exc.value.line == 2
    assert exc.value.col == 1


def nested_text(op, depth):
    """``a op (a op ( ... a))`` with ``depth`` leaves."""
    return f"a {op} (" * (depth - 1) + "a" + ")" * (depth - 1)


@pytest.mark.parametrize("op,node", [(".", SNode), ("||", PNode)])
def test_parse_deep_nesting(op, node):
    # far beyond the default recursion limit if the parser recursed per group
    g = parse_graph(nested_text(op, 5000))
    assert isinstance(g, node)
    assert g.edges == len(g.children) == 5000
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_graph(nested_text(op, 5000)[:-1])


def test_comments_and_whitespace():
    assert parse_graph("a . b # trailing comment") == parse_graph("a.b")
    assert parse_graph("a\n. b") == parse_graph("a . b")


def _tokenize_by_char(text):
    """Reference tokenizer: steps over whitespace one character at a time."""
    token_re = re.compile(r"[a-z$][a-z0-9_$]*|\|\||[().^]|[0-9]+")
    toks = []
    for lno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = token_re.match(line, pos)
            if not m:
                raise ParseError(f"unexpected character {line[pos]!r}", lno, pos + 1)
            toks.append((m.group(), lno, pos + 1))
            pos = m.end()
    return toks


def _tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as e:
        return ("error", str(e), e.line, e.col)


# token pieces, whitespace of several kinds and line breaks, comments
_PIECES = ["a", "b1", "x_y", "$s", "p$2", "12", "0", ".", "||", "(", ")", "^",
           " ", "  ", "\t", "\u00a0", "\u2003", "\n", "\r\n", "\u2028", "# c", "#"]
# characters that start no token, spliced in to corrupt a valid string
_BAD = ["|", "?", "A", "-", "\x00", "\u00e9", "{", "@", "\u00a0|"]


def test_tokenize_matches_the_character_stepping_reference():
    rng = random.Random(5)
    texts = ["", " ", "\n\n", "a   ", "a\t\n", "   # only a comment", "a b |"]
    for _ in range(3000):
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randint(1, 25)))
        texts.append(text)
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(0, len(text))
            text = text[:k] + rng.choice(_BAD) + text[k:]
        texts.append(text)
    errors = 0
    for text in texts:
        want = _tokens_or_error(_tokenize_by_char, text)
        assert _tokens_or_error(tokenize, text) == want, repr(text)
        errors += isinstance(want, tuple)
    assert 1000 < errors < len(texts) - 1000


def _read_by_tokens(text, graph):
    """Reference reader: the parser fed with ``tokenize``'s triples."""
    toks = tokenize(text)
    if not toks:
        raise ParseError("empty term", 1, 1)
    return _TermParser(toks).parse(graph)


def _read_outcome(read, text):
    try:
        t = read(text)
    except ParseError as e:
        return ("error", str(e), e.line, e.col)
    return ("graph", t.key) if isinstance(t, (Bridge, SNode, PNode)) else ("term", t)


# line breaks that str.splitlines knows and '\n' is not
_BREAKS = ["\u2028", "\x1c", "\x85", "\r", "\r\n", "\u2029", "\x0b", "\x0c"]


def test_word_scan_reads_as_the_tokens_do():
    rng = random.Random(11)
    texts = ["", "#", "# only a comment", "  # c\n\n#", "a # (", "a .# c\n b"]
    for brk in _BREAKS:
        texts += [
            f"# c{brk}",
            f"a{brk}# c . (\n. b",
            f"a .{brk}#{brk}b",
            f"# c{brk}a || b #{brk}?",
            f"a{brk}#?{brk}. b # ?",
            f"(a{brk}# )\n|| b)",
        ]
    for _ in range(3000):
        if rng.random() < 0.5:
            text = "".join(rng.choice(_PIECES) for _ in range(rng.randint(1, 25)))
        else:  # a valid term, its words joined by blanks, breaks and comments
            words = format_graph(random_graph(rng, rng.randint(1, 12), "ab")).split(" ")
            gaps = [" ", "\t", "\u2003", "\n", "# c\n", *_BREAKS]
            text = "".join(w + rng.choice(gaps) for w in words)
        for _ in range(rng.randint(0, 2)):
            k = rng.randint(0, len(text))
            text = text[:k] + rng.choice(_BAD) + text[k:]
        texts.append(text)
    errors = 0
    for text in texts:
        for graph, reader in ((True, parse_graph), (False, parse_term)):
            want = _read_outcome(lambda t: _read_by_tokens(t, graph), text)
            assert _read_outcome(reader, text) == want, repr(text)
        errors += want[0] == "error"
    assert 1000 < errors < len(texts) - 500


terms = st.deferred(
    lambda: st.one_of(
        st.sampled_from(["a", "b", "c"]).map(Atom),
        st.builds(Serial, terms, terms),
        st.builds(Parallel, terms, terms),
    )
)


@given(terms)
def test_format_parse_round_trip(t):
    g = canonicalize(t)
    assert parse_graph(format_graph(g)) == g


# ---------------------------------------------------------------------------
# enumeration and sampling
# ---------------------------------------------------------------------------


def test_enumerate_counts_two_labels():
    # graphs over {a,b} by exact edge count
    expected = {1: 2, 2: 7, 3: 32, 4: 176, 5: 1066}
    gs = enumerate_graphs(["a", "b"], 5)
    assert len(gs) == sum(expected.values())
    by_size = {}
    for g in gs:
        by_size[g.edges] = by_size.get(g.edges, 0) + 1
    assert by_size == expected


def test_enumerate_counts_one_label():
    assert [len(enumerate_graphs(["a"], n)) for n in range(1, 6)] == [1, 3, 8, 23, 71]


def test_enumerate_monotone_and_bounded():
    smaller = set(enumerate_graphs(["a", "b"], 3))
    bigger = set(enumerate_graphs(["a", "b"], 4))
    assert smaller <= bigger
    assert all(g.edges <= 4 for g in bigger)


def test_enumerate_unique_and_sorted():
    gs = enumerate_graphs(["a", "b"], 4)
    assert len(set(gs)) == len(gs)
    assert gs == sorted(gs, key=lambda g: (g.edges, g.key))


def test_enumerate_validates_input():
    with pytest.raises(ValueError):
        enumerate_graphs([], 3)
    assert enumerate_graphs(["a"], 0) == []


def test_random_graph_edge_counts():
    rng = random.Random(1)
    for n in (1, 2, 17, 400):
        assert random_graph(rng, n, ["a", "b"]).edges == n
    with pytest.raises(ValueError):
        random_graph(rng, 0, ["a"])


def test_random_graph_deterministic():
    g1 = random_graph(random.Random(99), 50, ["a", "b"])
    g2 = random_graph(random.Random(99), 50, ["a", "b"])
    assert g1 == g2


def test_deep_graphs_survive_round_trips():
    # far beyond the default recursion limit if anything recursed per edge
    g = random_graph(random.Random(3), 5000, ["a", "b"])
    assert g.edges == 5000
    assert parse_graph(format_graph(g)) == g


def test_long_terms_hash_compare_and_print():
    def chain(node, last):
        t = Atom("a")
        for _ in range(4999):
            t = node(t, Atom("a"))
        return node(t, last)

    t = chain(Serial, Atom("a"))
    assert t == chain(Serial, Atom("a"))
    assert hash(t) == hash(chain(Serial, Atom("a")))
    assert t != chain(Serial, Ref("a"))
    assert t != chain(Parallel, Atom("a"))
    assert format_term(chain(Parallel, Ref("p"))).endswith("a || a || p")


# ---------------------------------------------------------------------------
# layers of any width denote their left fold
# ---------------------------------------------------------------------------


def left_nested(t):
    """``t`` with each layer rebuilt as its left-nested binary chain."""
    if isinstance(t, (Atom, Ref)):
        return t
    parts = [left_nested(x) for x in t]
    out = parts[0]
    for x in parts[1:]:
        out = type(t)(out, x)
    return out


nary_terms = st.recursive(
    st.sampled_from([Atom("a"), Atom("b"), Ref("p"), Ref("q")]),
    lambda children: st.builds(
        lambda node, parts: node(*parts),
        st.sampled_from([Serial, Parallel]),
        st.lists(children, min_size=2, max_size=5),
    ),
    max_leaves=40,
)


@given(nary_terms)
def test_a_layer_equals_its_left_fold(t):
    binary = left_nested(t)
    assert t == binary and not t != binary and hash(t) == hash(binary)
    graphs = {"p": Bridge("c"), "q": parse_graph("a || c")}
    bound = {name: parse_term(format_graph(g)) for name, g in graphs.items()}
    assert canonicalize(substitute(t, bound.__getitem__)) == canonicalize(
        substitute(binary, bound.__getitem__)
    )
    text = format_term(t)
    assert text == format_term(binary)
    assert _TermParser(text, names={"p": "P", "q": "S"}).parse() == t


@given(nary_terms)
def test_substituting_each_leaf_by_itself_gives_the_term(t):
    s = substitute(t, Ref)
    assert s == t and format_term(s) == format_term(t)


def test_substitute_replaces_ref_leaves_left_to_right():
    a, b = Atom("a"), Atom("b")
    t = Parallel(Serial(Ref("p"), a, Ref("q")), Ref("p"), Serial(b, Ref("q")))
    seen = []
    terms = iter([b, Parallel(a, b), Serial(a, a), a])

    def ref(name):
        seen.append(name)
        return next(terms)

    s = substitute(t, ref)
    assert seen == ["p", "q", "p", "q"]
    assert format_term(s) == "b . a . (a || b) || a . a || b . a"
    assert canonicalize(s) == parse_graph("b . a . (a || b) || a . a || b . a")


def test_fold_flat_folds_a_shared_layer_once():
    # 40 levels, each two serial layers around one shared parallel term:
    # 3 * 2**40 - 2 edges, but 3 distinct layers per level
    a, b = Atom("a"), Atom("b")
    t = a
    for _ in range(40):
        t = Parallel(Serial(t, b), Serial(t, a))
    calls = []

    def layer(parts):
        calls.append(len(parts))
        return sum(parts)

    assert fold_flat(t, lambda _: 1, lambda _: 1, layer, layer) == 3 * 2**40 - 2
    assert calls == [2] * 120


def test_layers_compare_as_their_left_fold_only():
    a, b, c = map(Atom, "abc")
    assert Serial(a, b, c) == Serial(Serial(a, b), c)
    assert hash(Serial(a, b, c)) == hash(Serial(Serial(a, b), c))
    assert Serial(a, b, c) != Serial(a, Serial(b, c))
    assert Serial(a, b, c) != Parallel(a, b, c)
    assert Serial(a, b) != (a, b) and (a, b) != Serial(a, b)
    assert repr(Parallel(a, Ref("p"))) == "Parallel(Atom(label='a'), Ref(name='p'))"
    t = Parallel(Serial(a, b, c), c)
    assert pickle.loads(pickle.dumps(t)) == t
    for node in (Serial, Parallel):
        with pytest.raises(ValueError, match="at least two parts"):
            node(a)


def test_format_term_keeps_a_group_that_is_not_a_layers_first_part():
    a, b, c = map(Atom, "abc")
    assert format_term(Serial(a, Serial(b, c))) == "a . (b . c)"
    assert format_term(Serial(Serial(a, b), c)) == "a . b . c"
    assert format_term(Parallel(a, Parallel(b, c))) == "a || (b || c)"
    assert format_term(Parallel(Parallel(a, b), c)) == "a || b || c"
    assert format_term(Serial(Parallel(a, b), Parallel(b, c))) == "(a || b) . (b || c)"
    assert format_term(Parallel(Serial(a, b), Serial(b, c))) == "a . b || b . c"
