"""One-pass canonicalization against the pairwise composition it replaced:
equal graphs for every association, with nonterminal leaves substituted by
the terms of graphs too, one node construction per node of the result, and
``random_graph`` unchanged seed for seed."""

import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spr.spgraph import (
    Atom,
    Bridge,
    Parallel,
    PNode,
    Ref,
    Serial,
    SNode,
    _canonicalizer,
    _not_ground,
    canonicalize,
    compose_parallel,
    compose_serial,
    fold_term,
    format_graph,
    parse_graph,
    parse_term,
    random_graph,
    substitute,
)

# ---------------------------------------------------------------------------
# the references: one pairwise composition per binary node
# ---------------------------------------------------------------------------


def reference_canonicalize(t):
    return fold_term(t, Bridge, _not_ground, compose_serial, compose_parallel)


def reference_random_graph(rng, n_edges, labels):
    """``random_graph`` as it composed graphs pairwise."""
    labels = list(labels)
    out = []
    tasks = [("gen", n_edges)]
    while tasks:
        task = tasks.pop()
        if task[0] == "gen":
            m = task[1]
            if m == 1:
                out.append(Bridge(rng.choice(labels)))
            else:
                i = rng.randint(1, m - 1)
                op = rng.choice(("s", "p"))
                tasks.append(("mk", op))
                tasks.append(("gen", m - i))
                tasks.append(("gen", i))
        else:
            b = out.pop()
            a = out.pop()
            out.append(compose_serial(a, b) if task[1] == "s" else compose_parallel(a, b))
    return out[0]


# ---------------------------------------------------------------------------
# terms of every association
# ---------------------------------------------------------------------------

ASSOCIATIONS = ("left", "right", "balanced", "flat")


def associate(parts, how, node):
    """``parts`` joined by the binary ``node``, nested as ``how`` says, or
    for ``"flat"`` one layer of them all; iterative, so long lists make deep
    terms without recursing."""
    if how == "flat":
        return node(*parts)
    if how == "left":
        return reduce(node, parts)
    if how == "right":
        return reduce(lambda acc, p: node(p, acc), reversed(parts))
    level = list(parts)
    while len(level) > 1:
        pairs = [node(level[k], level[k + 1]) for k in range(0, len(level) - 1, 2)]
        level = pairs + level[len(level) - len(level) % 2:]
    return level[0]


atoms = st.sampled_from(["a", "b", "c"]).map(Atom)
hows = st.sampled_from(ASSOCIATIONS)
nodes = st.sampled_from([Serial, Parallel])


def _grow(children):
    layer = st.builds(associate, st.lists(children, min_size=2, max_size=8), hows, nodes)
    # a wide layer of one repeated part (a bundle of equal serial children)
    repeated = st.builds(
        lambda part, n, how, node: associate([part] * n, how, node),
        children, st.integers(2, 40), hows, nodes,
    )
    # a layer of the other kind at every level
    alternating = st.builds(
        lambda part, n, how: associate(
            [associate([part, Atom("a")], how, Serial), Atom("b")] * n, how, Parallel
        ),
        children, st.integers(1, 5), hows,
    )
    return st.one_of(layer, repeated, alternating)


ground_terms = st.recursive(atoms, _grow, max_leaves=60)


@settings(max_examples=300, deadline=None)
@given(ground_terms)
def test_canonicalize_agrees_with_pairwise_composition(t):
    g, want = canonicalize(t), reference_canonicalize(t)
    assert g.key == want.key
    assert g.edges == want.edges
    assert format_graph(g) == format_graph(want)
    assert g == want and hash(g) == hash(want)


@pytest.mark.parametrize("how", ASSOCIATIONS)
@pytest.mark.parametrize("node", [Serial, Parallel])
def test_nonterminal_leaves_raise_the_same_error(how, node):
    inner = associate([Atom("a"), Atom("b"), Ref("p")], how, Parallel if node is Serial else node)
    t = associate([Atom("a"), inner, Atom("c")], how, node)
    with pytest.raises(ValueError) as want:
        reference_canonicalize(t)
    with pytest.raises(ValueError) as got:
        canonicalize(t)
    assert str(got.value) == str(want.value) == "term is not ground: nonterminal 'p'"


# ---------------------------------------------------------------------------
# nonterminal leaves substituted by the terms of graphs
# ---------------------------------------------------------------------------

open_terms = st.recursive(
    st.one_of(atoms, st.sampled_from(["x", "y", "z"]).map(Ref)), _grow, max_leaves=60
)


@settings(max_examples=300, deadline=None)
@given(open_terms, st.integers(0, 2**32))
def test_bound_nonterminals_agree_with_pairwise_composition(t, seed):
    rng = random.Random(seed)
    graphs = {name: random_graph(rng, rng.randint(1, 12), "abc") for name in "xyz"}
    terms = {name: parse_term(format_graph(g)) for name, g in graphs.items()}
    g = canonicalize(substitute(t, terms.__getitem__))
    want = fold_term(t, Bridge, graphs.__getitem__, compose_serial, compose_parallel)
    assert g.key == want.key
    assert g.edges == want.edges


@pytest.mark.parametrize("how", ASSOCIATIONS)
@pytest.mark.parametrize("node,text", [(Serial, "a . (b || c) . a"), (Parallel, "a || b . c || a")])
def test_a_bound_graph_of_the_layers_kind_joins_the_layer(node, text, how):
    bound = parse_graph(text)
    t = associate([Atom("b"), Ref("x"), Atom("c"), Ref("x")], how, node)
    term = parse_term(format_graph(bound))
    g = canonicalize(substitute(t, lambda _: term))
    assert g == fold_term(t, Bridge, lambda _: bound, compose_serial, compose_parallel)
    assert type(g) is type(bound)
    assert len(g.children) == 2 + 2 * len(bound.children)


def test_a_canonicalizer_builds_a_layer_shared_by_two_terms_once():
    x = Parallel(Atom("a"), Atom("b"))
    canonical = _canonicalizer()
    g1, g2 = canonical(Serial(x, Atom("a"))), canonical(Serial(Atom("b"), x))
    assert g1.parts[0] is g2.parts[1]
    assert g1 == parse_graph("(a || b) . a") and g2 == parse_graph("b . (a || b)")


# ---------------------------------------------------------------------------
# one construction per node
# ---------------------------------------------------------------------------


def nest(factors, how):
    """A term of ``factors`` edges whose layers alternate between serial and
    parallel, four edges and the inner layer each."""
    t = Atom("a")
    node = Serial
    for _ in range((factors - 1) // 4):
        t = associate([Atom("a"), Atom("b"), t, Atom("a"), Atom("b")], how, node)
        node = Parallel if node is Serial else Serial
    return t


def inner_nodes(g) -> int:
    count, stack = 0, [g]
    while stack:
        node = stack.pop()
        if not isinstance(node, Bridge):
            count += 1
            stack.extend(node.children)
    return count


@pytest.mark.parametrize("how", ASSOCIATIONS)
@pytest.mark.parametrize("shape", ["chain", "bundle", "nest"])
def test_every_node_is_built_once(shape, how, monkeypatch):
    built = []
    for cls in (SNode, PNode):
        init = cls.__init__

        def counting(self, children, init=init):
            built.append(len(children))
            init(self, children)

        monkeypatch.setattr(cls, "__init__", counting)
    if shape == "nest":
        t = nest(5001, how)
    else:
        t = associate([Atom("a")] * 5000, how, Serial if shape == "chain" else Parallel)
    g = canonicalize(t)
    assert len(built) == inner_nodes(g)
    if shape != "nest":
        assert built == [5000]
    else:
        assert g.edges == 5001


# ---------------------------------------------------------------------------
# random graphs
# ---------------------------------------------------------------------------


def test_random_graph_matches_pairwise_composition():
    for seed in range(200):
        n = random.Random(seed).choice((1, 2, 3, 17, 100, 1000))
        labels = ("a", "b") if seed % 2 else "abcdh"
        rng, ref_rng = random.Random(seed), random.Random(seed)
        g = random_graph(rng, n, labels)
        assert g.key == reference_random_graph(ref_rng, n, labels).key
        # the same draws, so callers sharing the generator see the same stream
        assert rng.getstate() == ref_rng.getstate()


def test_random_graph_rejects_bad_labels():
    with pytest.raises(ValueError, match="bad edge label"):
        random_graph(random.Random(0), 3, ["A"])
