import pytest
from hypothesis import given, settings

import conftest
from spr.decision import emptiness_witness, is_empty
from spr.grammar import (
    RuleA,
    is_normalized,
    normalize,
    parse_grammar,
    rule_rhs_term,
    validate_regular,
)
from spr.oracle import (
    INF,
    _lower_bound,
    _min_edges,
    _par,
    _ser,
    _to_pterm,
    enumerate_p_views,
    enumerate_s_views,
    gen_random_grammar,
    gen_worstcase,
    lang_from,
    language_upto,
)
from spr.recognizer import member
from spr.spgraph import Bridge, enumerate_graphs, fold_term, format_graph, parse_graph
from test_canonicalize import open_terms
from test_cli_robustness import deep_chain

# ---------------------------------------------------------------------------
# language enumeration
# ---------------------------------------------------------------------------


def fmt(graphs):
    return sorted(format_graph(g) for g in graphs)


def test_lang_from_small_sets(univ):
    assert fmt(lang_from(univ, "s", 2)) == ["a", "a . a", "a . b", "b", "b . a", "b . b"]
    assert fmt(lang_from(univ, "p", 2)) == ["a", "a || a", "a || b", "b", "b || b"]


def test_universal_language_is_everything(univ):
    for n in range(1, 5):
        assert language_upto(univ, n) == set(enumerate_graphs(("a", "b"), n))


def test_language_upto_is_monotone(univ, chain, bundle, even_bundle):
    for g in (univ, chain, bundle, even_bundle):
        prev = set()
        for n in range(1, 5):
            cur = language_upto(g, n)
            assert prev <= cur
            prev = cur


def test_fixture_languages(ga, gab, chain, bundle, even_bundle, empty_grammar):
    assert fmt(language_upto(ga, 3)) == ["a"]
    assert fmt(language_upto(gab, 3)) == ["a", "b"]
    assert fmt(language_upto(chain, 4)) == ["a . a", "a . a . a", "a . a . a . a"]
    assert fmt(language_upto(bundle, 4)) == [
        "a || a",
        "a || a || a",
        "a || a || a || a",
    ]
    assert fmt(language_upto(even_bundle, 5)) == ["a || a", "a || a || a || a"]
    assert language_upto(empty_grammar, 6) == set()


def test_lang_from_respects_the_edge_budget(univ):
    assert all(g.edges <= 3 for g in lang_from(univ, "p", 3))
    assert lang_from(univ, "p", 0) == frozenset()


# ---------------------------------------------------------------------------
# view enumeration
# ---------------------------------------------------------------------------


def test_serial_views_of_a_bridge(chain):
    assert set(enumerate_s_views(Bridge("a"), chain)) == {("s", "p"), ("s", "s")}


def test_serial_views_of_a_chain(chain):
    got = set(enumerate_s_views(parse_graph("a . a"), chain))
    # complete (None), or still waiting for one p / one s suffix
    assert got == {("s", None), ("s", "p"), ("s", "s")}


def test_serial_views_reject_parallel_graphs(chain):
    with pytest.raises(ValueError, match="serial views"):
        enumerate_s_views(parse_graph("a || a"), chain)


def test_parallel_views_count_component_assignments(bundle):
    nb = normalize(bundle)
    for t in ("a || a", "a || a || a", "a || a || a || a"):
        pv = enumerate_p_views(parse_graph(t), nb, "p")
        assert str(pv) == "1 + s$1 + s$1^2"


def test_parallel_views_reject_non_parallel_graphs(bundle):
    with pytest.raises(ValueError, match="parallel views"):
        enumerate_p_views(Bridge("a"), normalize(bundle), "p")


# ---------------------------------------------------------------------------
# the term reader
# ---------------------------------------------------------------------------


def reference_to_pterm(t, layers):
    """``_to_pterm`` as it folded each layer pairwise, one partial term per
    prefix of the layer."""
    return fold_term(
        t,
        lambda label: layers.setdefault(("lit", label), ("lit", label)),
        lambda name: layers.setdefault(("ref", name), ("ref", name)),
        lambda a, b: _ser([a, b], layers),
        lambda a, b: _par([a, b], layers),
    )


@settings(max_examples=300, deadline=None)
@given(open_terms)
def test_the_term_reader_agrees_with_the_pairwise_fold(t):
    assert _to_pterm(t, {}) == reference_to_pterm(t, {})
    # with one table the two readers share their hash-consed terms
    layers: dict = {}
    assert _to_pterm(t, layers) is reference_to_pterm(t, layers)


def test_the_term_reader_builds_each_layer_once():
    layers: dict = {}
    pt = _to_pterm(rule_rhs_term(RuleA("p", "s", 2000)), layers)
    assert pt == ("par", (("ref", "p"),) + (("ref", "s"),) * 2000)
    # the two leaves and the one layer, not a layer per prefix
    assert sorted(key[0] for key in layers) == ["par", "ref", "ref"]


# ---------------------------------------------------------------------------
# least edges per nonterminal
# ---------------------------------------------------------------------------


def _min_edges_by_rounds(g):
    """Reference fixpoint: re-walk every rule body until a round changes
    nothing."""
    best = {x: INF for x in g.pnames + g.snames}
    bodies = [(r.lhs, _to_pterm(rule_rhs_term(r), {})) for r in g.rules]
    changed = True
    while changed:
        changed = False
        for lhs, pt in bodies:
            val = _lower_bound(pt, best)
            if val < best[lhs]:
                best[lhs] = val
                changed = True
    return best


def test_min_edges_worklist_agrees_with_the_round_fixpoint():
    grammars = [parse_grammar(text) for name, text in vars(conftest).items() if name.endswith("_TEXT")]
    grammars += [gen_random_grammar(seed) for seed in range(60)]
    grammars.append(parse_grammar(deep_chain(300, routes=2)))
    for g in grammars:
        assert _min_edges(g) == _min_edges_by_rounds(g)
    assert _min_edges(grammars[-1])["s0"] == 601


# ---------------------------------------------------------------------------
# random grammar generator
# ---------------------------------------------------------------------------


def test_random_grammars_are_deterministic_and_regular():
    for seed in range(30):
        g = gen_random_grammar(seed)
        assert g == gen_random_grammar(seed)
        assert validate_regular(g).ok
    assert gen_random_grammar(7) != gen_random_grammar(8)


def test_random_grammars_include_productive_ones():
    productive = [s for s in range(30) if not is_empty(gen_random_grammar(s))]
    assert len(productive) >= 10


# ---------------------------------------------------------------------------
# worst-case generator
# ---------------------------------------------------------------------------


def test_worstcase_rejects_small_k():
    with pytest.raises(ValueError, match="k must be >= 2"):
        gen_worstcase(1)


@pytest.mark.parametrize(
    "k,np,ns,nr",
    [(2, 9, 42, 113), (3, 13, 86, 225), (4, 21, 174, 449)],
)
def test_worstcase_sizes(k, np, ns, nr):
    g = gen_worstcase(k)
    assert (len(g.pnames), len(g.snames), len(g.rules)) == (np, ns, nr)


def test_worstcase_is_regular_and_normalized():
    g = gen_worstcase(2)
    assert validate_regular(g).ok
    assert is_normalized(g)
    assert not is_empty(g)


def test_worstcase_minimal_member():
    g = gen_worstcase(2)
    w = emptiness_witness(g)
    assert w.edges == 11
    assert format_graph(w) == "(c || a . a . d . a . a . h . a . a) . a . a"
    members = language_upto(g, 11)
    assert len(members) == 16
    assert {m.edges for m in members} == {11}
    assert all(member(m, g) for m in members)


@pytest.mark.parametrize(
    "text,expected",
    [
        # one full tape pass: write u=ab, check it back, read off v=ba
        ("(c || (a . b . d . b . a . h . b . a)) . a . b", True),
        # extra junk passes before and after the checking pass are fine
        (
            "(c || (b . d . a . h . a . b . d . b . a . h . b . d . h . b . a)) . a . b",
            True,
        ),
        # ... but the final read-off must mirror the trailing word
        (
            "(c || (b . d . a . h . a . b . d . b . a . h . b . d . h . a . b)) . a . b",
            False,
        ),
        ("a . b", False),
    ],
)
def test_worstcase_membership(text, expected):
    g = gen_worstcase(2)
    assert member(parse_graph(text), g) is expected


def test_worstcase_start_name():
    g = gen_worstcase(2, start="root")
    assert g.axioms == ("root",)
