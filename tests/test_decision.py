import collections
import heapq
import itertools
import tracemalloc
from collections import defaultdict

import pytest

from conftest import EVEN_CHAIN_TEXT
from test_cli_robustness import deep_chain
from spr import decision
from spr.decision import (
    CapExceeded,
    DecisionResult,
    bound_cardinality,
    derivable_values,
    emptiness_witness,
    filter_grammar,
    inclusion,
    intersection_empty,
    is_empty,
)
from spr.grammar import GrammarError, parse_grammar, rule_rhs_term, validate_regular
from spr.oracle import _min_edges, gen_random_grammar, gen_worstcase, lang_from, language_upto
from spr.recognizer import (
    accepts,
    bridge_profile,
    build_ctx,
    eval_graph,
    member,
    op_parallel,
    op_serial,
    reachable_profiles,
)
from spr.spgraph import (
    Bridge,
    PNode,
    SNode,
    compose_parallel,
    compose_serial,
    fold_term,
    format_graph,
    parse_graph,
)

# ---------------------------------------------------------------------------
# emptiness
# ---------------------------------------------------------------------------


def test_emptiness(univ, empty_grammar, chain):
    assert is_empty(empty_grammar)
    assert emptiness_witness(empty_grammar) is None
    assert not is_empty(univ)
    assert format_graph(emptiness_witness(univ)) == "a"
    assert format_graph(emptiness_witness(chain)) == "a . a"


# ---------------------------------------------------------------------------
# the result protocol
# ---------------------------------------------------------------------------


def test_decision_result_protocol(ga, gab):
    res = inclusion(ga, gab)
    holds, witness = res
    assert (holds, witness) == (True, None)
    assert bool(res)
    assert set(res.stats) == {
        "profiles_explored", "iterations", "compositions", "saturation_ms", "witness_ms",
        "wall_ms",
    }
    assert res.stats["profiles_explored"] >= 1
    assert not DecisionResult(False)


# ---------------------------------------------------------------------------
# inclusion
# ---------------------------------------------------------------------------


def test_inclusion_is_reflexive(univ, ga, gab, chain, bundle, even_bundle, empty_grammar):
    for g in (univ, ga, gab, chain, bundle, even_bundle, empty_grammar):
        assert inclusion(g, g).holds


def test_inclusions_that_hold(ga, gab, univ, chain, bundle, even_bundle, empty_grammar):
    assert inclusion(ga, gab).holds
    assert inclusion(gab, univ).holds
    assert inclusion(even_bundle, bundle).holds
    assert inclusion(empty_grammar, chain).holds


@pytest.mark.parametrize(
    "left,right,witness",
    [
        ("gab", "ga", "b"),
        ("bundle", "even_bundle", "a || a || a"),
        ("bundle", "chain", "a || a"),
        ("chain", "bundle", "a . a"),
    ],
)
def test_inclusion_counterexamples_are_minimal(request, left, right, witness):
    g1 = request.getfixturevalue(left)
    g2 = request.getfixturevalue(right)
    res = inclusion(g1, g2)
    assert not res.holds
    assert format_graph(res.witness) == witness
    # the counterexample really separates the languages
    assert member(res.witness, g1)
    assert not member(res.witness, g2)
    assert res.witness in language_upto(g1, res.witness.edges)


def test_inclusion_needs_a_covering_alphabet(univ, chain):
    with pytest.raises(GrammarError, match="alphabet mismatch"):
        inclusion(univ, chain)


def test_inclusion_agrees_with_enumeration(ga, gab, chain, bundle, even_bundle):
    fixtures = [ga, gab, chain, bundle, even_bundle]
    for g1 in fixtures:
        for g2 in fixtures:
            if set(g1.alphabet) - set(g2.alphabet):
                continue
            res = inclusion(g1, g2)
            enumerated = language_upto(g1, 4) <= language_upto(g2, 4)
            if not enumerated:
                assert not res.holds
            if res.holds:
                assert enumerated


# ---------------------------------------------------------------------------
# intersection
# ---------------------------------------------------------------------------


def test_intersection_witnesses(univ, ga, gab, bundle, even_bundle):
    for grammars, witness in [
        ([bundle, even_bundle], "a || a"),
        ([ga, gab], "a"),
        ([univ, gab], "a"),
    ]:
        res = intersection_empty(grammars)
        assert not res.holds
        assert format_graph(res.witness) == witness
        for g in grammars:
            assert member(res.witness, g)


def test_empty_intersections(univ, chain, bundle, empty_grammar):
    assert intersection_empty([chain, bundle]).holds
    assert intersection_empty([empty_grammar, univ]).holds
    # ... and enumeration confirms there is no small common graph
    assert not (language_upto(chain, 5) & language_upto(bundle, 5))


# Chains of 3k + 1 edges, k >= 1.
CHAIN_3K1_TEXT = """\
alphabet: a
pnonterminals: p
snonterminals: s t u
axioms: s
rules:
s -> p . t
t -> p . u
u -> p . s
u -> p . p
p -> a
"""


def check_intersection(grammars, empty_upto=6):
    """``intersection_empty`` against enumeration: a witness lies in every
    language and no common graph has fewer edges; an empty verdict has no
    common graph of up to ``empty_upto`` edges."""
    res = intersection_empty(grammars)
    n = empty_upto if res.holds else res.witness.edges
    common = set.intersection(*(language_upto(g, n) for g in grammars))
    if res.holds:
        assert res.witness is None and not common
    else:
        assert res.witness in common
        assert all(c.edges == n for c in common)
    return res


@pytest.mark.parametrize("seed", range(60))
def test_intersection_agrees_with_enumeration(seed):
    g, h = gen_random_grammar(seed), gen_random_grammar(1000 + seed)
    assert check_intersection([g, h]).holds == check_intersection([h, g]).holds


def test_intersection_of_a_free_form_first_grammar(chain, bundle):
    even = parse_grammar(EVEN_CHAIN_TEXT)
    assert not validate_regular(even).ok
    assert format_graph(check_intersection([even, chain]).witness) == "a . a"
    assert check_intersection([even, bundle]).holds
    res = check_intersection([even, parse_grammar(CHAIN_3K1_TEXT)])
    assert format_graph(res.witness) == "a . a . a . a"
    # only the first grammar may be free-form
    with pytest.raises(GrammarError, match="not a regular grammar"):
        intersection_empty([chain, even])


@pytest.mark.parametrize("seed", range(60))
def test_intersection_of_one_grammar_is_emptiness(seed):
    # against the oracle: an empty language has no graph of up to 6 edges,
    # and any other has the witness and no graph of fewer edges
    g = gen_random_grammar(seed)
    res = intersection_empty([g])
    n = 6 if res.holds else res.witness.edges
    assert res.holds == (not language_upto(g, n))
    if not res.holds:
        assert res.witness in language_upto(g, n)
        assert not language_upto(g, n - 1)


def test_intersection_of_one_grammar_is_its_language(chain):
    res = intersection_empty([chain])
    assert not res.holds
    assert format_graph(res.witness) == "a . a"


def test_intersection_requires_a_grammar():
    with pytest.raises(ValueError, match="at least one grammar"):
        intersection_empty([])


# ---------------------------------------------------------------------------
# caps
# ---------------------------------------------------------------------------


def test_caps_abort_saturation(chain, bundle, even_bundle):
    # the search over chain's derivations settles exactly two states
    with pytest.raises(CapExceeded) as exc:
        intersection_empty([chain, bundle], cap=1)
    assert exc.value.cap == 1
    assert intersection_empty([chain, bundle], cap=2).holds
    # a common graph found within the cap is returned, never a cap error
    wc2 = gen_worstcase(2)
    res = intersection_empty([wc2, wc2], cap=2000)
    assert not res.holds
    assert res.witness.edges == 11
    assert member(res.witness, wc2)
    with pytest.raises(CapExceeded):
        inclusion(bundle, even_bundle, cap=1)


def test_negative_caps_are_rejected(chain, bundle, even_bundle):
    for decide in (
        lambda cap: intersection_empty([chain, bundle], cap=cap),
        lambda cap: inclusion(bundle, even_bundle, cap=cap),
        lambda cap: derivable_values(chain, build_ctx(bundle), cap=cap),
    ):
        with pytest.raises(ValueError, match="cap must not be negative, got -1"):
            decide(-1)
        with pytest.raises(CapExceeded):  # zero settles nothing
            decide(0)


# ---------------------------------------------------------------------------
# derivable values
# ---------------------------------------------------------------------------


def test_derivable_values_settle_minimal_witnesses(ga, univ):
    ctx = build_ctx(univ)
    values = derivable_values(ga, ctx)
    assert set(values) == {"p", "s"}
    assert values["s"] == {}
    ((value, witness),) = values["p"].items()
    assert format_graph(witness) == "a"
    assert accepts(value, ctx)


def test_derivable_values_reject_foreign_labels(univ, chain):
    with pytest.raises(GrammarError, match="alphabet mismatch"):
        derivable_values(univ, build_ctx(chain))


# Chains a . b . ... . b . a: serial profiles that tell a . b from b . a.
ABA_TEXT = """\
alphabet: a b
pnonterminals: p q
snonterminals: s t
axioms: s
rules:
s -> p . t
t -> q . t
t -> q . p
p -> a
q -> b
"""


@pytest.mark.parametrize("seed", range(60))
def test_derivable_values_match_enumeration(univ, seed):
    # every combination of settled values must be tried: a dropped one shows
    # as a missing value or as a witness heavier than the lightest graph
    # (against univ, whose profiles ignore order, only the latter can show)
    g = gen_random_grammar(seed)
    for ctx in (build_ctx(univ), build_ctx(parse_grammar(ABA_TEXT))):
        values = derivable_values(g, ctx)
        for x, found in values.items():
            small = {v for v, w in found.items() if w.edges <= 4}
            assert small == {eval_graph(h, ctx) for h in lang_from(g, x, 4)}
            for v, w in found.items():
                assert eval_graph(w, ctx) == v
                assert w in lang_from(g, x, w.edges)
                assert all(eval_graph(h, ctx) != v for h in lang_from(g, x, w.edges - 1))


def test_inclusion_reports_heap_pops(univ, ga, gab, chain, bundle, even_bundle):
    surplus = 0
    for g1, g2 in [(bundle, even_bundle), (chain, univ), (univ, univ), (ga, gab)]:
        stats = inclusion(g1, g2).stats
        effort: dict = {}
        values = derivable_values(g1, build_ctx(g2), stats=effort)
        assert effort["profiles_explored"] == sum(len(vs) for vs in values.values())
        assert stats["profiles_explored"] == effort["profiles_explored"]
        assert stats["iterations"] == effort["iterations"] >= effort["profiles_explored"]
        surplus += effort["iterations"] - effort["profiles_explored"]
        # one vocabulary: the search's counters, which a decision also times
        assert set(stats) == {*effort, "saturation_ms", "witness_ms", "wall_ms"}
    assert surplus > 0  # superseded candidates are popped and counted too


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------


def test_filter_grammar_splits_by_acceptance(bundle, even_bundle):
    kept = filter_grammar(bundle, even_bundle, mode="accept")
    dropped = filter_grammar(bundle, even_bundle, mode="reject")
    whole = language_upto(bundle, 5)
    assert language_upto(kept, 5) == {g for g in whole if member(g, even_bundle)}
    assert language_upto(dropped, 5) == {g for g in whole if not member(g, even_bundle)}
    # profile-indexed copies; the output is free-form, not regular
    assert all("$v" in n for n in kept.pnames + kept.snames)
    assert not validate_regular(kept).ok


def test_filter_grammar_modes(bundle, even_bundle, chain):
    with pytest.raises(ValueError, match="mode must be"):
        filter_grammar(bundle, even_bundle, mode="both")
    # nothing in bundle is a chain, so the accept filter is empty ...
    assert is_empty(filter_grammar(bundle, chain, mode="accept"))
    # ... and the reject filter keeps the whole language
    rej = filter_grammar(bundle, chain, mode="reject")
    assert language_upto(rej, 4) == language_upto(bundle, 4)


def test_filter_agrees_with_intersection(ga, gab, chain, bundle, even_bundle):
    pairs = [(ga, gab), (bundle, even_bundle), (bundle, chain), (chain, bundle)]
    for g1, g2 in pairs:
        empty = intersection_empty([g1, g2]).holds
        assert is_empty(filter_grammar(g1, g2, mode="accept")) == empty


def test_a_filtered_grammar_is_empty_exactly_when_it_has_no_axioms(
    univ, ga, gab, chain, bundle, even_bundle
):
    # what `spr filter` reports as "empty", with the full search as reference
    fixtures = [univ, ga, gab, chain, bundle, even_bundle]
    seeds = [gen_random_grammar(seed) for seed in range(40)]
    pairs = list(itertools.product(fixtures, repeat=2))
    pairs += [(g1, g2) for i, g1 in enumerate(seeds) for g2 in seeds[i % 4 :: 4]]
    checked = set()
    for (g1, g2), mode in itertools.product(pairs, ("accept", "reject")):
        try:
            f = filter_grammar(g1, g2, mode=mode, cap=20_000)
        except GrammarError:  # a label g2 does not know
            continue
        assert is_empty(f) == (not f.axioms)
        checked.add(not f.axioms)
    assert checked == {True, False}


@pytest.mark.parametrize("seed", [None, *range(40)])
def test_filtered_languages_agree_with_enumeration(request, seed):
    for g1, g2 in inclusion_pairs(request, seed):
        ctx = build_ctx(g2)
        graphs = language_upto(g1, 5)
        kept = {h for h in graphs if member(h, g2, ctx)}
        assert language_upto(filter_grammar(g1, g2, mode="accept"), 5) == kept
        assert language_upto(filter_grammar(g1, g2, mode="reject"), 5) == graphs - kept


@pytest.mark.parametrize("seed", [None, *range(40)])
def test_split_nonterminals_are_numbered_in_settling_order(request, seed):
    # x$vN is the N-th value x settles, so the fewest edges it derives never
    # fall as N grows, and they are the edges of derivable_values' witnesses
    for g1, g2 in inclusion_pairs(request, seed):
        f = filter_grammar(g1, g2)
        fewest = _min_edges(f)
        values = derivable_values(g1, build_ctx(g2))
        assert set(fewest) == {f"{x}$v{i}" for x, vs in values.items() for i in range(len(vs))}
        for x, found in values.items():
            edges = [fewest[f"{x}$v{i}"] for i in range(len(found))]
            assert edges == [w.edges for w in found.values()] == sorted(edges)


@pytest.mark.parametrize("seed", [None, *range(40)])
def test_filtering_is_one_search_whose_rules_compose_nothing_new(request, seed, monkeypatch):
    searches, after = [], []
    search_ops, lightest = decision._search_ops, decision._lightest

    def recording_ops(ctxs, stats):
        searches.append(stats)
        return search_ops(ctxs, stats)

    def recording_lightest(*args, **kwargs):
        settled = lightest(*args, **kwargs)
        after.append(searches[-1]["compositions"])
        return settled

    monkeypatch.setattr(decision, "_search_ops", recording_ops)
    monkeypatch.setattr(decision, "_lightest", recording_lightest)
    composed = 0
    for (g1, g2), mode in itertools.product(inclusion_pairs(request, seed), ("accept", "reject")):
        searches.clear()
        after.clear()
        filter_grammar(g1, g2, mode=mode)
        assert len(searches) == len(after) == 1
        assert searches[0]["compositions"] == after[0]
        composed += after[0]
    assert composed > 0 or seed is not None  # the fixture pairs compose


def test_filtering_builds_no_graph(univ, ga, gab, chain, bundle, even_bundle, monkeypatch):
    grammars = [univ, ga, gab, chain, bundle, even_bundle]
    pairs = [*itertools.product(grammars, repeat=2), (parse_grammar(deep_chain(300)), univ)]
    built = []
    for cls in (Bridge, SNode, PNode):
        init = cls.__init__

        def counting(self, *args, init=init, cls=cls):
            built.append(cls)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    Bridge("a")  # the counters see a construction
    assert built == [Bridge]
    built.clear()
    kept = 0
    for g1, g2 in pairs:
        if not set(g1.alphabet) - set(g2.alphabet):
            kept += len(filter_grammar(g1, g2).axioms)
    assert kept and built == []


# ---------------------------------------------------------------------------
# cardinality bound
# ---------------------------------------------------------------------------


def test_bound_cardinality_values(univ, chain):
    assert bound_cardinality(chain) == 512
    assert bound_cardinality(univ) == 2**96 + 2**24


def test_saturation_stays_below_the_bound(univ, ga, gab, chain, bundle, even_bundle):
    for g in (univ, ga, gab, chain, bundle, even_bundle):
        ctx = build_ctx(g)
        out = reachable_profiles(ctx)
        assert out.saturated
        assert len(out.profiles) <= bound_cardinality(g, ctx)


# ---------------------------------------------------------------------------
# the search against an eager reference, and inclusion's early stop
# ---------------------------------------------------------------------------


def eager_derivable_values(g, ctx):
    """The lightest-derivation search as it was written with a witness graph
    built for every candidate pushed and the pools copied per settled value:
    (values, settled, pops), with ``values`` as ``derivable_values`` returns
    them."""

    def point(*_):
        pass

    bodies = [(r.lhs, rule_rhs_term(r)) for r in g.rules]
    occs = []
    uses = defaultdict(list)
    for i, (_, t) in enumerate(bodies):
        names = []
        fold_term(t, point, names.append, point, point)
        occs.append(names)
        for y in dict.fromkeys(names):
            uses[y].append((i, [j for j, n in enumerate(names) if n == y]))
    settled = {x: {} for x in g.pnames + g.snames}
    heap = []
    tick = itertools.count()

    def push(i, combo):
        lhs, t = bodies[i]
        it = iter(combo)
        value = fold_term(
            t,
            lambda a: bridge_profile(a, ctx),
            lambda _: next(it)[0],
            lambda h1, h2: op_serial(h1, h2, ctx),
            lambda h1, h2: op_parallel(h1, h2, ctx),
        )
        if value in settled[lhs]:
            return
        it = iter(combo)
        wit = fold_term(t, Bridge, lambda _: next(it)[1], compose_serial, compose_parallel)
        heapq.heappush(heap, (wit.edges, next(tick), lhs, value, wit))

    for i, names in enumerate(occs):
        if not names:
            push(i, ())
    total = pops = 0
    while heap:
        _, _, x, value, wit = heapq.heappop(heap)
        pops += 1
        pool = settled[x]
        if value in pool:
            continue
        pool[value] = wit
        total += 1
        full = list(pool.items())
        old, new = full[:-1], full[-1:]
        for i, positions in uses[x]:
            pools = [list(settled[y].items()) for y in occs[i]]
            for j in positions:
                pools[j] = new
                for combo in itertools.product(*pools):
                    push(i, combo)
                if not old:
                    break
                pools[j] = old
    return settled, total, pops


FIXTURES = ["univ", "ga", "gab", "chain", "bundle", "even_bundle", "empty_grammar"]


def inclusion_pairs(request, seed):
    """The fixture pairs (for ``seed`` None) or the two random grammars of
    ``seed`` both ways, where the right alphabet covers the left."""
    if seed is None:
        grammars = [request.getfixturevalue(name) for name in FIXTURES]
        pairs = itertools.product(grammars, repeat=2)
    else:
        g, h = gen_random_grammar(seed), gen_random_grammar(1000 + seed)
        pairs = [(g, h), (h, g), (g, g)]
    return [(g1, g2) for g1, g2 in pairs if not set(g1.alphabet) - set(g2.alphabet)]


@pytest.mark.parametrize("seed", [None, *range(60)])
def test_derivable_values_match_the_eager_search(request, seed):
    for g1, g2 in inclusion_pairs(request, seed):
        ctx = build_ctx(g2)
        effort: dict = {}
        values = derivable_values(g1, ctx, stats=effort)
        reference, settled, pops = eager_derivable_values(g1, ctx)
        assert (effort["profiles_explored"], effort["iterations"]) == (settled, pops)
        assert list(values) == list(reference)
        for x, found in values.items():
            assert list(found) == list(reference[x])  # same values, same order
            for v, w in found.items():
                assert w == reference[x][v]
                assert format_graph(w) == format_graph(reference[x][v])


@pytest.mark.parametrize("seed", [None, *range(60)])
def test_inclusion_stops_early_with_the_full_searchs_answer(request, seed):
    for g1, g2 in inclusion_pairs(request, seed):
        ctx = build_ctx(g2)
        effort: dict = {}
        values = derivable_values(g1, ctx, stats=effort)
        hits = [w for x in g1.axioms for v, w in values[x].items() if not accepts(v, ctx)]
        full = min(hits, key=lambda w: (w.edges, w.key), default=None)
        res = inclusion(g1, g2)
        assert res.holds == (full is None)
        assert res.stats["profiles_explored"] <= effort["profiles_explored"]
        # criterion 7's oracle: no graph of up to 4 edges separates the
        # languages when inclusion holds
        assert res.holds <= (language_upto(g1, 4) <= language_upto(g2, 4))
        if res.holds:
            assert res.witness is None
            assert res.stats["profiles_explored"] == effort["profiles_explored"]
            continue
        assert format_graph(res.witness) == format_graph(full)
        # ... and a counterexample separates them, and no lighter graph does
        n = res.witness.edges
        assert res.witness in language_upto(g1, n)
        assert not member(res.witness, g2)
        assert all(member(h, g2) for h in language_upto(g1, n - 1))


def test_inclusion_of_the_worst_case_grammars_stops_at_its_counterexample():
    wc2, wc3 = gen_worstcase(2), gen_worstcase(3)
    res = inclusion(wc2, wc3, cap=20000)
    assert not res.holds
    assert res.witness.edges == 11
    # the full search exceeds this cap; the counterexample settles after 1,733
    assert res.stats["profiles_explored"] <= 2500
    ctx2, ctx3 = build_ctx(wc2), build_ctx(wc3)
    assert accepts(eval_graph(res.witness, ctx2), ctx2)
    assert not accepts(eval_graph(res.witness, ctx3), ctx3)


# ---------------------------------------------------------------------------
# the search algebra: one table per law and search
# ---------------------------------------------------------------------------


def test_a_search_composes_each_distinct_pair_of_values_once(
    univ, chain, bundle, even_bundle, monkeypatch
):
    calls: list = []  # (law, left, right, context) of every composition
    for name in ("op_serial", "op_parallel"):

        def counting(h1, h2, ctx, law=getattr(decision, name), name=name):
            calls.append((name, h1, h2, ctx))
            return law(h1, h2, ctx)

        monkeypatch.setattr(decision, name, counting)
    wc2, wc3 = gen_worstcase(2), gen_worstcase(3)
    searches = [
        (inclusion, (wc2, wc3), False),
        # b is unknown to bundle and even_bundle, so its value is their empty
        # serial profiles
        (intersection_empty, ([univ, bundle, even_bundle],), False),
        # empty, so the whole product is saturated
        (intersection_empty, ([univ, chain, bundle],), True),
    ]
    for search, args, holds in searches:
        calls.clear()
        res = search(*args)
        assert res.holds is holds
        n = res.stats["compositions"]
        per_ctx = collections.Counter(id(c[3]) for c in calls)
        contexts = 1 if search is inclusion else len(args[0]) - 1
        assert sorted(per_ctx.values()) == [n] * contexts
        if contexts == 1:
            assert len({c[:3] for c in calls}) == n
        assert all(h.space is c[3].names for c in calls for h in c[1:3])
    # every component of every settled value belongs to its own context
    for grammars in ([univ, bundle, even_bundle], [univ, chain, bundle]):
        ctxs = [build_ctx(g) for g in grammars[1:]]
        effort: dict = {}
        values = decision._lightest(grammars[0], *decision._search_ops(ctxs, effort))
        assert effort["compositions"] > 0
        for vs in values.values():
            for value in vs:
                assert len(value) == len(ctxs)
                assert all(h.space is ctx.names for h, ctx in zip(value, ctxs))


# ---------------------------------------------------------------------------
# witnesses: one node per layer of a rule body
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op", [".", "||"])
def test_a_long_rule_bodys_witness_is_one_node(op, monkeypatch):
    # q derives a graph of the body's own kind, whose parts join the body's
    # layer; r one of the other kind, which stays one part
    own, other = ("a . b", "a || b") if op == "." else ("a || b", "a . b")
    factors = ["a", "q", "r"] * 1000
    g = parse_grammar(
        "alphabet: a b\npnonterminals: p\nsnonterminals: s q r\naxioms: s\nrules:\n"
        f"s -> {f' {op} '.join(factors)}\nq -> {own}\nr -> {other}\n"
    )
    graphs = {"q": parse_graph(own), "r": parse_graph(other)}
    body = rule_rhs_term(next(r for r in g.rules if r.lhs == "s"))
    want = fold_term(body, Bridge, graphs.__getitem__, compose_serial, compose_parallel)
    built = []
    for cls in (SNode, PNode):
        init = cls.__init__

        def counting(self, children, init=init):
            built.append(len(children))
            init(self, children)

        monkeypatch.setattr(cls, "__init__", counting)
    res = intersection_empty([g])
    assert not res.holds
    assert res.witness == want and res.witness.edges == 5000
    # the body's layer, with q's parts in it, and r's graph, built once
    assert sorted(built) == [2, 4000]


def chain_grammar(n: int):
    """``c_i -> p . c_{i+1}`` down to ``c_{n-1} -> a``, with ``p -> a``: one
    graph, the n-edge chain."""
    return parse_grammar(
        "alphabet: a\npnonterminals: p\n"
        f"snonterminals: {' '.join(f'c{i}' for i in range(n))}\naxioms: c0\nrules:\n"
        f"p -> a\nc{n - 1} -> a\n" + "".join(f"c{i} -> p . c{i + 1}\n" for i in range(n - 1))
    )


def test_a_deep_chains_witness_is_one_node(monkeypatch):
    # c_i -> p . c_{i+1}: each level's serial body joins the one below, so
    # the whole derivation is one serial layer, built once
    n = 3000
    g = chain_grammar(n)
    built = []
    for cls in (SNode, PNode):
        init = cls.__init__

        def counting(self, children, init=init, cls=cls):
            built.append((cls, len(children)))
            init(self, children)

        monkeypatch.setattr(cls, "__init__", counting)
    res = intersection_empty([g])
    assert not res.holds
    assert built == [(SNode, n)]
    assert all(type(c) is Bridge for c in res.witness.children) and res.witness.edges == n


def test_derivable_values_share_the_layers_of_their_witnesses(univ):
    # s_i -> p_i . a, p_i -> s_{i+1} || a: each witness is one node around
    # the witness one level down, built once, so all of them take linear time
    n = 2000
    values = derivable_values(parse_grammar(deep_chain(n)), build_ctx(univ))
    (below,) = values[f"s{n}"].values()
    for i in reversed(range(n)):
        (wp,) = values[f"p{i}"].values()
        (ws,) = values[f"s{i}"].values()
        assert wp.parts == (below, Bridge("a")) and wp.parts[0] is below
        assert ws.parts == (wp, Bridge("a")) and ws.parts[0] is wp
        below = ws
    assert below.edges == 2 * n + 1


def test_a_deep_chains_intersection_keeps_no_dense_rows():
    # every value of the 1,000-level chain is a profile of about 1,000 rows
    # over 1,000 S-names; a profile that kept its rows indexed by S-name as
    # well (a list of 1,001 entries) peaked at 18.0 MB (a memory count)
    n = 1000
    g = chain_grammar(n)
    tracemalloc.start()
    try:
        res = intersection_empty([g, g])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.holds and res.witness.edges == n
    assert res.stats["profiles_explored"] == n + 1
    assert peak <= 13e6, peak
