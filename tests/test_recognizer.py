import gc
import itertools
import random
from collections import Counter

import pytest

import conftest
from spr import grammar
from spr.grammar import (
    Grammar,
    GrammarError,
    format_grammar,
    normalize,
    parse_grammar,
    validate_regular,
)
from spr.oracle import (
    enumerate_p_views,
    enumerate_s_views,
    gen_random_grammar,
    gen_worstcase,
    language_upto,
)
from spr.recognizer import (
    PProfile,
    RecognizerCtx,
    SProfile,
    accepts,
    bridge_profile,
    build_ctx,
    eval_graph,
    member,
    op_parallel,
    op_serial,
    par_map,
    profile_to_json,
    reachable_profiles,
    seq_map,
)
from spr.spgraph import (
    Bridge,
    PNode,
    SNode,
    compose_parallel,
    compose_serial,
    enumerate_graphs,
    parse_graph,
    random_graph,
)
from spr import recognizer, termalg
from spr.termalg import TermSpace, nf_monomial

BOT = "⊥"

# Already in the shape the recognizer wants (no rewriting on build), with an
# alternation rule on the axiom: its target must be treated as an axiom too.
PROMO_TEXT = """\
alphabet: a
pnonterminals: p
snonterminals: s2 sa
axioms: p
rules:
p -> s2^2
p -> sa
s2 -> p . p
s2 -> a
sa -> a
"""


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_build_ctx_rewrites_plain_grammars(univ):
    ctx = build_ctx(univ)
    assert ctx.source == univ
    assert ctx.grammar.snames == ("s", "s$1", "$alt_a", "$alt_b")
    assert ctx.grammar.axioms == ("p", "s", "$alt_a", "$alt_b")
    assert ctx.grammar.pnames == ("p",)


def test_build_ctx_promotes_alternation_targets_of_axioms():
    g = parse_grammar(PROMO_TEXT)
    ctx = build_ctx(g)
    assert ctx.source.axioms == ("p",)
    assert ctx.grammar.axioms == ("p", "sa")
    # the lone edge is in the language only through that promotion
    assert member(Bridge("a"), g)
    assert member(parse_graph("a || a"), g)
    assert not member(parse_graph("a . a"), g)


def test_build_ctx_rejects_halfway_alternative_grammars():
    g = parse_grammar(
        "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: p\n"
        "rules:\np -> s\np -> a\ns -> a\n"
    )
    with pytest.raises(GrammarError, match="must already be normalized"):
        build_ctx(g)


def _regular_texts():
    texts = [text for name, text in vars(conftest).items() if name.endswith("_TEXT")]
    texts += [format_grammar(gen_random_grammar(seed)) for seed in range(20)]
    texts.append(format_grammar(gen_worstcase(2)))
    return [text for text in texts if validate_regular(parse_grammar(text)).ok]


def test_build_ctx_checks_a_regular_grammar_once(monkeypatch):
    # the grammar is checked when it is read; build_ctx validates its
    # regularity once and derives its working copies without a check
    calls = Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    texts = _regular_texts()
    assert len(texts) > 20
    monkeypatch.setattr(grammar, "validate_regular", counted("regular", grammar.validate_regular))
    monkeypatch.setattr(Grammar, "__post_init__", counted("grammar", Grammar.__post_init__))
    for text in texts:
        calls.clear()
        build_ctx(parse_grammar(text))
        assert calls == {"regular": 1, "grammar": 1}, text
    monkeypatch.undo()
    for text in texts:
        work = build_ctx(parse_grammar(text)).grammar
        # ... and the working copy passes the check unchanged
        assert Grammar(work.alphabet, work.pnames, work.snames, work.axioms, work.rules) == work


def test_contexts_and_their_profiles_make_no_reference_cycle(univ, chain):
    # a profile records its context's remainder index, not the context, so
    # a context and the profiles packed over it are freed by reference count
    rng = random.Random(3)
    graphs = [random_graph(rng, 200, sorted(g.alphabet)) for g in (univ, chain)]
    gc.collect()
    gc.disable()
    try:
        for g, graph in zip((univ, chain, gen_worstcase(2)), graphs + [None]):
            ctx = build_ctx(g)
            if graph is not None:
                accepts(eval_graph(graph, ctx), ctx)
            reachable_profiles(ctx, cap=300)
            del ctx
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bridge_profile_unknown_label(univ):
    ctx = build_ctx(univ)
    with pytest.raises(GrammarError, match="not in the grammar's alphabet"):
        bridge_profile("z", ctx)


# ---------------------------------------------------------------------------
# pinned profile values for the universal grammar
# ---------------------------------------------------------------------------


def test_bridge_profile_pairs(univ):
    ctx = build_ctx(univ)
    assert profile_to_json(bridge_profile("a", ctx)) == [
        ["$alt_a", BOT],
        ["s", BOT],
        ["s", "p"],
        ["s", "s"],
        ["s$1", BOT],
        ["s$1", "p"],
        ["s$1", "s"],
    ]


def test_parallel_profile_value(univ):
    ctx = build_ctx(univ)
    h = eval_graph(parse_graph("a || a"), ctx)
    assert isinstance(h, PProfile)
    assert profile_to_json(h) == {"p": "1 + $alt_a + s$1 + $alt_a*s$1 + s$1^2"}


def test_serial_profile_value(univ):
    ctx = build_ctx(univ)
    h = eval_graph(parse_graph("a . a"), ctx)
    assert isinstance(h, SProfile)
    # like a bridge, but no longer a bare labelled edge
    assert profile_to_json(h) == [
        ["s", BOT],
        ["s", "p"],
        ["s", "s"],
        ["s$1", BOT],
        ["s$1", "p"],
        ["s$1", "s"],
    ]


def test_profile_json_shapes(univ):
    ctx = build_ctx(univ)
    assert profile_to_json(ctx.make((), ())) == []
    as_json = profile_to_json(eval_graph(parse_graph("a || b"), ctx))
    assert set(as_json) == {"p"}
    assert isinstance(as_json["p"], str)


# ---------------------------------------------------------------------------
# the two acceptance clauses
# ---------------------------------------------------------------------------


def test_accepts_universal(univ):
    ctx = build_ctx(univ)
    for t in ("a", "a || a", "a . a", "(a || b) . c".replace("c", "a")):
        assert accepts(eval_graph(parse_graph(t), ctx), ctx)
    assert not accepts(ctx.make((), ()), ctx)


def test_accepts_needs_an_axiom(chain):
    # chain's only axiom is the S-kind start; parallel values never accept
    ctx = build_ctx(chain)
    assert not accepts(eval_graph(parse_graph("a || a"), ctx), ctx)
    assert accepts(eval_graph(parse_graph("a . a"), ctx), ctx)
    assert not accepts(eval_graph(Bridge("a"), ctx), ctx)


# ---------------------------------------------------------------------------
# the maps between the two views
# ---------------------------------------------------------------------------


def test_par_map_passes_parallel_profiles_through(univ):
    ctx = build_ctx(univ)
    h = eval_graph(parse_graph("a || a"), ctx)
    assert par_map(h, ctx) is h


def test_par_map_sums_completed_variables(univ):
    ctx = build_ctx(univ)
    t = par_map(bridge_profile("a", ctx), ctx)
    # (s, bot) collapses into the unit: s recurs with period 1
    assert str(dict(t.entries)["p"]) == "1 + $alt_a + s$1"


def test_profiles_and_terms_repr_as_their_text(univ):
    ctx = build_ctx(univ)
    h = bridge_profile("b", ctx)
    assert repr(h) == "SProfile({($alt_b, ⊥), (s, ⊥), (s, p), (s, s), (s$1, ⊥), (s$1, p), (s$1, s)})"
    assert repr(eval_graph(parse_graph("a || a"), ctx)) == (
        "PProfile(p: 1 + $alt_a + s$1 + $alt_a*s$1 + s$1^2)"
    )
    t = dict(par_map(bridge_profile("a", ctx), ctx).entries)["p"]
    assert repr(t) == "PackedTerm('1 + $alt_a + s$1')"


def test_seq_map_passes_serial_profiles_through(univ):
    ctx = build_ctx(univ)
    h = bridge_profile("b", ctx)
    assert seq_map(h, ctx) == h.pairs


def test_seq_map_reads_parallel_values_as_layers(univ):
    ctx = build_ctx(univ)
    h = eval_graph(parse_graph("a || a"), ctx)
    assert seq_map(h, ctx) == frozenset(
        {("s", "p"), ("s", "s"), ("s$1", "p"), ("s$1", "s")}
    )


# ---------------------------------------------------------------------------
# algebraic laws on profiles of actual graphs
# ---------------------------------------------------------------------------


def _image(ctx, max_edges=2):
    return [eval_graph(g, ctx) for g in enumerate_graphs(("a", "b"), max_edges)]


def test_op_parallel_is_commutative(univ):
    ctx = build_ctx(univ)
    image = _image(ctx)
    for x, y in itertools.combinations(image, 2):
        assert op_parallel(x, y, ctx) == op_parallel(y, x, ctx)


def test_op_parallel_is_associative(univ):
    ctx = build_ctx(univ)
    image = _image(ctx)
    for x, y, z in itertools.product(image, repeat=3):
        lhs = op_parallel(op_parallel(x, y, ctx), z, ctx)
        assert lhs == op_parallel(x, op_parallel(y, z, ctx), ctx)


def test_op_serial_is_associative(univ):
    ctx = build_ctx(univ)
    image = _image(ctx)
    for x, y, z in itertools.product(image, repeat=3):
        lhs = op_serial(op_serial(x, y, ctx), z, ctx)
        assert lhs == op_serial(x, op_serial(y, z, ctx), ctx)


def test_eval_is_a_homomorphism(univ, chain, even_bundle):
    for g in (univ, chain, even_bundle):
        ctx = build_ctx(g)
        graphs = enumerate_graphs(g.alphabet, 2)
        for g1, g2 in itertools.product(graphs, repeat=2):
            h1, h2 = eval_graph(g1, ctx), eval_graph(g2, ctx)
            assert op_serial(h1, h2, ctx) == eval_graph(compose_serial(g1, g2), ctx)
            assert op_parallel(h1, h2, ctx) == eval_graph(compose_parallel(g1, g2), ctx)


# ---------------------------------------------------------------------------
# agreement with the enumeration oracles
# ---------------------------------------------------------------------------


def test_eval_matches_view_oracles(chain, bundle):
    for g in (chain, normalize(bundle)):
        ctx = build_ctx(g)
        cg = ctx.grammar
        for graph in enumerate_graphs(cg.alphabet, 3):
            h = eval_graph(graph, ctx)
            if isinstance(graph, PNode):
                entries = dict(h.entries)
                for p in cg.pnames:
                    assert entries[p] == enumerate_p_views(graph, cg, p)
            else:
                assert h.pairs == enumerate_s_views(graph, cg)


def test_member_matches_language_enumeration(
    univ, ga, gab, chain, bundle, even_bundle, empty_grammar
):
    for g in (univ, ga, gab, chain, bundle, even_bundle, empty_grammar):
        lang = language_upto(g, 3)
        ctx = build_ctx(g)
        for graph in enumerate_graphs(g.alphabet, 3):
            assert member(graph, g, ctx) == (graph in lang)


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------


def test_reachable_profiles_saturate_on_universal(univ):
    ctx = build_ctx(univ)
    out = reachable_profiles(ctx)
    assert out.saturated
    assert (out.n_serial, out.n_parallel) == (3, 8)
    # every actual graph value is in the closure
    for graph in enumerate_graphs(("a", "b"), 3):
        assert eval_graph(graph, ctx) in out.profiles


def test_reachable_profiles_respect_the_cap(univ):
    ctx = build_ctx(univ)
    full = reachable_profiles(ctx)
    capped = reachable_profiles(ctx, cap=4)
    assert not capped.saturated
    assert len(capped.profiles) >= 4
    assert capped.profiles <= full.profiles


def test_reachable_parallel_entries_are_reduced(univ):
    # every closure value keeps its monomials inside the finite residue box
    ctx = build_ctx(univ)
    for h in reachable_profiles(ctx).profiles:
        if isinstance(h, SProfile):
            names = set(ctx.grammar.snames)
            heads = set(ctx.grammar.pnames) | names
            assert all(s in names and (q is None or q in heads) for s, q in h.pairs)
            continue
        for p, t in h.entries:
            cctx = ctx.contexts[p]
            size_box = 1
            for cls in cctx.values():
                size_box *= getattr(cls, "base", None) or getattr(cls, "period")
            assert len(t.monomials) <= size_box
            for m in t.monomials:
                assert nf_monomial(dict(m.exps), cctx) == m


def test_reachable_profiles_stop_at_exactly_the_cap(univ):
    ctx = build_ctx(univ)
    full = reachable_profiles(ctx)
    for cap in (1, 2, 4, len(full.profiles) - 1):
        res = reachable_profiles(ctx, cap=cap)
        assert not res.saturated
        assert len(res.profiles) == cap
        assert res.profiles <= full.profiles
    res = reachable_profiles(ctx, cap=len(full.profiles))
    assert res.saturated and res.profiles == full.profiles


def test_reachable_profiles_reject_a_negative_cap(univ):
    ctx = build_ctx(univ)
    with pytest.raises(ValueError, match="cap must not be negative, got -3"):
        reachable_profiles(ctx, cap=-3)
    res = reachable_profiles(ctx, cap=0)  # no profile at all, unsaturated
    assert not res.saturated and res.profiles == set()


def _round_closure(ctx):
    """The closure by rounds, the reference for the worklist: each round
    composes every new profile with every known one, both ways round."""
    profiles = set(ctx.bridge_profiles.values())
    frontier = list(profiles)
    while frontier:
        known = list(profiles)
        new = set()
        for x in frontier:
            for y in known:
                new.update((op_serial(x, y, ctx), op_serial(y, x, ctx), op_parallel(x, y, ctx)))
        new -= profiles
        profiles |= new
        frontier = list(new)
    return profiles


def _sorted_str(profiles):
    return sorted(_profile_key(h) for h in profiles)


CLOSURE_GRAMMARS = ["univ", "chain", "bundle", "even_bundle"] + [f"random{s}" for s in range(60)]


def _grammar(name, request):
    if name.startswith("random"):
        return gen_random_grammar(int(name[len("random"):]))
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", CLOSURE_GRAMMARS)
def test_worklist_closure_matches_the_round_closure(name, request):
    ctx = build_ctx(_grammar(name, request))
    full = reachable_profiles(ctx)
    assert full.saturated
    assert len(full.profiles) == len(_sorted_str(full.profiles))
    assert _sorted_str(full.profiles) == _sorted_str(_round_closure(ctx))
    want = set(_sorted_str(full.profiles))
    for cap in sorted({0, 1, len(full.profiles) // 2, len(full.profiles) - 1}):
        capped = reachable_profiles(ctx, cap=cap)
        assert not capped.saturated and len(capped.profiles) == cap
        assert set(_sorted_str(capped.profiles)) <= want


def _count_atom_compositions(monkeypatch, record):
    """Make every ``RecognizerCtx.compose`` call ``record(left operand,
    the atom of its row table)`` first."""
    atoms = {}  # id of a row table -> (table, its atom)
    row_table, compose = RecognizerCtx.row_table, RecognizerCtx.compose

    def counted_table(c, y):
        t = row_table(c, y)
        atoms[id(t)] = t, y
        return t

    def counted_compose(c, x, t):
        record(x, atoms[id(t)][1])
        return compose(c, x, t)

    monkeypatch.setattr(RecognizerCtx, "row_table", counted_table)
    monkeypatch.setattr(RecognizerCtx, "compose", counted_compose)


def _count_compositions(monkeypatch, ctx):
    """Run a full saturation with counting serial atom compositions
    (``RecognizerCtx.compose`` through a ``row_table``) and ``op_parallel``:
    the ordered serial operand pairs and the unordered parallel image
    pairs."""
    serial, parallel = [], []

    def counted_parallel(x, y, c):
        parallel.append(frozenset((par_map(x, c).entries, par_map(y, c).entries)))
        return op_parallel(x, y, c)

    _count_atom_compositions(monkeypatch, lambda x, y: serial.append((_key(x), _key(y))))
    monkeypatch.setattr(recognizer, "op_parallel", counted_parallel)
    stats = {}
    res = reachable_profiles(ctx, stats=stats)
    monkeypatch.undo()
    return res, stats, serial, parallel


def _key(h):
    return ("S", h.idx, h.rows) if isinstance(h, SProfile) else ("P", h.entries)


@pytest.mark.parametrize("name", ["univ", "chain", "bundle", "even_bundle", "random32", "random43"])
def test_saturation_composes_each_profile_with_each_atom_once(name, request, monkeypatch):
    ctx = build_ctx(_grammar(name, request))
    res, stats, serial, parallel = _count_compositions(monkeypatch, ctx)
    assert res.saturated
    # serial atoms: the bridges and the parallel profiles; every profile of
    # the closure on the left of every serial atom, exactly once
    bridges = set(ctx.bridge_profiles.values())
    s_atoms = [_key(h) for h in res.profiles if h in bridges or isinstance(h, PProfile)]
    assert len(serial) == len(set(serial))
    assert set(serial) == set(itertools.product(map(_key, res.profiles), s_atoms))
    # parallel atoms: the images of the serial profiles; every image of the
    # closure with every parallel atom, exactly once per unordered pair
    images = {par_map(h, ctx).entries for h in res.profiles}
    p_atoms = {par_map(h, ctx).entries for h in res.profiles if isinstance(h, SProfile)}
    assert len(parallel) == len(set(parallel))
    assert set(parallel) == {frozenset((t, u)) for t in images for u in p_atoms}
    assert stats == {
        "compositions": len(serial) + len(parallel),
        "table_hits": len(res.profiles) - len(images),
        "profiles": len(res.profiles),
    }


def test_a_closure_keeps_no_par_map_view_on_serial_profiles_past_bridges():
    # only bridges are serial right operands, where op_serial reads the view
    ctx = build_ctx(gen_worstcase(2))
    bridges = set(ctx.bridge_profiles.values())
    reach = reachable_profiles(ctx, cap=2000)
    serial = [h for h in reach.profiles if isinstance(h, SProfile) and h not in bridges]
    assert len(serial) > 1000
    assert all(h._par is None for h in serial)
    assert all(h._par is not None for h in bridges)


def test_a_closure_builds_no_left_view_on_serial_profiles_past_bridges():
    # every closure composition looks left rows up in a serial atom's row
    # table, so no profile needs the left view that op_serial reads
    ctx = build_ctx(gen_worstcase(2))
    bridges = set(ctx.bridge_profiles.values())
    reach = reachable_profiles(ctx, cap=2000)
    serial = [h for h in reach.profiles if isinstance(h, SProfile) and h not in bridges]
    assert len(serial) > 1000
    assert all(h._left is None for h in serial)


# ---------------------------------------------------------------------------
# packed terms against the frozenset terms of oversized boxes
# ---------------------------------------------------------------------------


def _profile_key(h):
    return type(h).__name__, str(h)


@pytest.mark.parametrize("name", ["univ", "bundle", "even_bundle"])
def test_frozenset_terms_give_the_same_profiles(name, request, monkeypatch):
    g = request.getfixturevalue(name)
    packed = build_ctx(g)
    monkeypatch.setattr(termalg, "BOX_LIMIT", 1)
    loose = build_ctx(g)
    assert not any(isinstance(sp, TermSpace) for sp in loose.spaces.values())
    assert all(isinstance(sp, TermSpace) for sp in packed.spaces.values())
    for graph in enumerate_graphs(g.alphabet, 4):
        h, h_loose = eval_graph(graph, packed), eval_graph(graph, loose)
        assert _profile_key(h) == _profile_key(h_loose)
        assert profile_to_json(h) == profile_to_json(h_loose)
        assert accepts(h, packed) == accepts(h_loose, loose)
    full, full_loose = reachable_profiles(packed), reachable_profiles(loose)
    assert full.saturated and full_loose.saturated
    assert {_profile_key(h) for h in full.profiles} == {
        _profile_key(h) for h in full_loose.profiles
    }


# p's box is 3000 * 3 * 3 * 3 = 81,000 monomials, past BOX_LIMIT
WIDE_TEXT = """\
alphabet: a b
pnonterminals: p
snonterminals: s t u v
axioms: p
rules:
p -> p || s^3000
p -> t^2 || u^2 || v^2
s -> a
t -> b
u -> b
v -> b
"""


def test_membership_past_the_box_limit():
    g = parse_grammar(WIDE_TEXT)
    ctx = build_ctx(g)
    assert termalg.BOX_LIMIT < 81_000
    assert isinstance(ctx.spaces["p"], termalg.FrozenSpace)
    cases = [(3000, 6, True), (3001, 6, False), (6000, 6, True), (0, 6, True), (3000, 5, False)]
    for a_edges, b_edges, want in cases:
        graph = parse_graph(" || ".join(["a"] * a_edges + ["b"] * b_edges))
        assert member(graph, g, ctx) == want


# ---------------------------------------------------------------------------
# op_parallel takes a zero side as the product
# ---------------------------------------------------------------------------


def _op_parallel_via_term_mul(h1, h2, ctx):
    """``op_parallel`` with every product computed by ``term_mul``."""
    t1, t2 = par_map(h1, ctx), par_map(h2, ctx)
    return ctx.pprofile(tuple(
        (p, termalg.term_mul(a, b, ctx.spaces[p]))
        for (p, a), (_, b) in zip(t1.entries, t2.entries)
    ))


@pytest.mark.parametrize("packed", [True, False])
def test_zero_sides_give_the_term_mul_product(packed, request, monkeypatch):
    if not packed:
        monkeypatch.setattr(termalg, "BOX_LIMIT", 1)
    grammars = [request.getfixturevalue(n) for n in ("univ", "chain", "bundle", "even_bundle")]
    grammars += [gen_random_grammar(seed) for seed in range(12)]
    zero_sides = 0
    for k, g in enumerate(grammars):
        ctx = build_ctx(g)
        if packed:
            assert all(type(sp) is TermSpace for sp in ctx.spaces.values())
        elif k < 4:  # the fixtures' boxes all exceed the limit
            assert not any(type(sp) is TermSpace for sp in ctx.spaces.values())
        full = reachable_profiles(ctx, cap=30)
        profiles = list(full.profiles) + list(ctx.bridge_profiles.values())
        for h1, h2 in itertools.product(profiles, repeat=2):
            got, want = op_parallel(h1, h2, ctx), _op_parallel_via_term_mul(h1, h2, ctx)
            for (p, a), (q, b) in zip(got.entries, want.entries):
                assert p == q and a == b and hash(a) == hash(b) and type(a) is type(b)
            assert got == want and hash(got) == hash(want)
            zero_sides += sum(
                not len(a) or not len(b)
                for (_, a), (_, b) in zip(par_map(h1, ctx).entries, par_map(h2, ctx).entries)
            )
        with monkeypatch.context() as m:
            m.setattr(recognizer, "op_parallel", _op_parallel_via_term_mul)
            again = reachable_profiles(ctx, cap=30)
        assert again.profiles == full.profiles
    assert zero_sides


# ---------------------------------------------------------------------------
# eval_graph composes each distinct pair of profiles once per call
# ---------------------------------------------------------------------------


def _eval_every_child(g, ctx, pairs, met):
    """``eval_graph`` without tables: one ``op_serial``/``op_parallel`` call
    per part after the first, each node once (memoized by identity), its
    parts in the order they were built.  Each call is recorded in ``pairs``
    as ``(op, h1, h2)``, and every bridge profile and result in ``met``."""
    memo = {}

    def ev(node):
        if id(node) not in memo:
            if isinstance(node, Bridge):
                acc = bridge_profile(node.label, ctx)
                met.append(acc)
            else:
                op = op_serial if isinstance(node, SNode) else op_parallel
                acc = ev(node.parts[0])
                for c in node.parts[1:]:
                    b = ev(c)
                    pairs.append((op, acc, b))
                    acc = op(acc, b, ctx)
                    met.append(acc)
            memo[id(node)] = acc
        return memo[id(node)]

    return ev(g)


def _shared_graphs(rng, labels):
    """Random graphs, flat layers of bridges, and graphs that reuse
    subgraphs."""
    x, y = random_graph(rng, 5, labels), random_graph(rng, 4, labels)
    xy, xx = compose_parallel(x, y), compose_parallel(x, x)
    out = [
        random_graph(rng, 40, labels),
        compose_serial(xy, compose_serial(xx, xy)),
        compose_parallel(compose_serial(x, y), compose_serial(x, y)),
        compose_serial(compose_serial(xx, x), compose_parallel(xx, compose_serial(y, y))),
        parse_graph(" . ".join(rng.choice(labels) for _ in range(30))),
        parse_graph(" || ".join(rng.choice(labels) for _ in range(12))),
    ]
    return out + [compose_parallel(g, g) for g in out[:2]]


@pytest.mark.parametrize("packed", [True, False])
def test_eval_graph_equals_the_fold_over_every_child(packed, monkeypatch):
    if not packed:
        monkeypatch.setattr(termalg, "BOX_LIMIT", 1)
    rng = random.Random(11)
    hits = 0
    for seed in range(60):
        g = gen_random_grammar(seed)
        ctx = build_ctx(g)
        for graph in _shared_graphs(rng, g.alphabet):
            pairs, met, stats = [], [], {}
            want = _eval_every_child(graph, ctx, pairs, met)
            got = eval_graph(graph, ctx, stats)
            assert got == want and hash(got) == hash(want) and type(got) is type(want)
            assert accepts(got, ctx) == accepts(want, ctx)
            assert stats == {
                "compositions": len(set(pairs)),
                "table_hits": len(pairs) - len(set(pairs)),
                "profiles": len(set(met)),
            }
            hits += stats["table_hits"]
    assert hits


def test_long_chains_compose_each_distinct_pair_once(univ, monkeypatch):
    ctx = build_ctx(univ)
    rng = random.Random(3)
    chain = parse_graph(" . ".join(rng.choice("ab") for _ in range(2000)))
    pairs = []
    want = _eval_every_child(chain, ctx, pairs, [])
    calls = []
    _count_atom_compositions(monkeypatch, lambda h1, h2: calls.append((h1, h2)))
    assert eval_graph(chain, ctx) == want
    assert len(pairs) == 1999
    assert len(calls) == len(set(calls)) <= len(set(pairs)) < 100


def test_eval_graph_keeps_nothing_between_calls(univ, chain):
    rng = random.Random(8)
    wc = gen_worstcase(2)
    for g in (univ, chain, wc):
        labels = sorted(g.alphabet)
        a, b = random_graph(rng, 300, labels), random_graph(rng, 300, labels)
        ctx = build_ctx(g)
        eval_graph(a, ctx)
        after_a, fresh = {}, {}
        h = eval_graph(b, ctx, after_a)
        fresh_ctx = build_ctx(g)
        want = eval_graph(b, fresh_ctx, fresh)
        assert _profile_key(h) == _profile_key(want) and hash(h) == hash(want)
        assert accepts(h, ctx) == accepts(want, fresh_ctx)
        assert after_a == fresh and fresh["compositions"] > 0
