"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
``criterion N: <label>: PASS/FAIL`` line on the terminal, with the wall
time it took.  Criteria with a stated time budget fail when they run
over it.  The suite exercises the package at full scale: exhaustive
cut-off sweeps, recognizer-versus-enumeration cross-checks on dozens of
random grammars, and a thousand-edge membership query.
"""

import itertools
import random
import time
from contextlib import contextmanager

from cutoffs import (
    bounded_configs,
    exists_equal_subproduct,
    exists_interval_subproduct,
    linear_sums,
    mixed_configs,
    one_sums,
    products_of_length,
)
from spr.decision import bound_cardinality, inclusion, intersection_empty
from spr.grammar import normalize, parse_grammar, to_alternative
from spr.oracle import (
    enumerate_p_views,
    enumerate_s_views,
    gen_random_grammar,
    gen_worstcase,
    language_upto,
)
from spr.recognizer import (
    build_ctx,
    eval_graph,
    member,
    op_parallel,
    op_serial,
    reachable_profiles,
)
from spr.spgraph import (
    PNode,
    compose_parallel,
    compose_serial,
    enumerate_graphs,
    random_graph,
)
from spr.termalg import (
    Bounded,
    LinearTerm,
    Monomial,
    Periodic,
    Threshold,
    cutoff_bound,
    expand_product,
    nf_linear_product,
    sup_monomials,
    weighted_card,
)


@contextmanager
def criterion(capsys, number, label, budget=None):
    """Time a criterion body and report a one-line verdict."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {number}: {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        with capsys.disabled():
            print(f"\ncriterion {number}: {label}: FAIL "
                  f"({elapsed:.2f}s over the {budget:.0f}s budget)")
        raise AssertionError(
            f"criterion {number} took {elapsed:.2f}s, budget {budget:.0f}s")
    with capsys.disabled():
        print(f"\ncriterion {number}: {label}: PASS ({elapsed:.2f}s)")


def mono(**exps):
    return Monomial.of(exps)


def test_criterion_1_worked_normal_forms(capsys):
    """Three hand-computed products normalize to the expected terms."""
    with criterion(capsys, 1, "worked normal forms and suprema", budget=1.0):
        # Threshold-2 variables: (s1+s2)(s2+s3)(s3+s4).
        ctx = {v: Threshold(2) for v in ("s1", "s2", "s3", "s4")}
        factors = [
            LinearTerm.of({"s1", "s2"}),
            LinearTerm.of({"s2", "s3"}),
            LinearTerm.of({"s3", "s4"}),
        ]
        t = nf_linear_product(factors, ctx)
        assert t == expand_product(factors, ctx)
        assert t.monomials == frozenset({
            mono(s1=1, s2=1, s3=1),
            mono(s1=1, s2=1, s4=1),
            mono(s1=1, s3=1),
            mono(s1=1, s3=1, s4=1),
            mono(s2=1, s3=1),
            mono(s2=1, s4=1),
            mono(s2=1, s3=1, s4=1),
        })
        sup = sup_monomials(t)
        assert sup.monomials == frozenset({
            mono(s1=1, s2=1, s3=1),
            mono(s1=1, s2=1, s4=1),
            mono(s1=1, s3=1, s4=1),
            mono(s2=1, s3=1, s4=1),
        })
        assert sup.monomials == frozenset(
            m for m in t.monomials if m.total_degree == 3)

        # Mixed bounded/periodic 1-sums: a 3-factor prefix already gives
        # the full normal form, and so does everything in between.
        ctx = {"s1": Bounded(2), "s2": Periodic(3)}
        one = lambda *vs: LinearTerm.of(set(vs), one=True)
        factors = [one("s1", "s2"), one("s1"), one("s2"), one("s1"),
                   one("s1"), one("s1", "s2"), one("s2")]
        t = nf_linear_product(factors, ctx)
        assert t == expand_product(factors, ctx)
        assert t.monomials == frozenset({
            mono(),
            mono(s1=1),
            mono(s2=1),
            mono(s1=1, s2=1),
            mono(s2=2),
            mono(s1=1, s2=2),
        })
        prefix, rest = factors[:3], factors[3:]
        assert nf_linear_product(prefix, ctx) == t
        for r in range(len(rest) + 1):
            for picked in itertools.combinations(rest, r):
                assert nf_linear_product(prefix + list(picked), ctx) == t

        # Same shape without units: a shared periodic variable in every
        # factor synchronizes all degrees modulo the period.
        ctx = {"s0": Periodic(3), "s1": Bounded(2), "s2": Periodic(3)}
        plain = lambda *vs: LinearTerm.of(set(vs))
        factors = [plain("s0", "s1", "s2"), plain("s0", "s1"),
                   plain("s0", "s2"), plain("s0", "s1"), plain("s0", "s1"),
                   plain("s0", "s1", "s2"), plain("s0", "s2")]
        t = nf_linear_product(factors, ctx)
        assert t == expand_product(factors, ctx)
        assert t.monomials == frozenset({
            mono(s0=1),
            mono(s1=1),
            mono(s2=1),
            mono(s0=2, s1=1, s2=1),
            mono(s0=2, s2=2),
            mono(s0=1, s1=1, s2=2),
        })
        assert nf_linear_product(factors[:4], ctx) == t
        assert all(m.total_degree % 3 == 1 for m in t.monomials)


def test_criterion_2_universal_grammar_membership(capsys, univ):
    """The all-graphs grammar accepts everything; random grammars sit below it."""
    with criterion(capsys, 2, "universal membership and inclusion", budget=10.0):
        ctx = build_ctx(univ)
        graphs = enumerate_graphs(("a", "b"), 6)
        assert len(graphs) >= 1000
        assert all(member(g, univ, ctx) for g in graphs)
        for seed in range(30):
            assert inclusion(gen_random_grammar(seed), univ).holds


def test_criterion_3_profiles_match_view_enumeration(capsys):
    """eval_graph reproduces the brute-force view profiles exactly."""
    with criterion(capsys, 3, "profiles match exhaustive view enumeration",
                   budget=60.0):
        for seed in range(50):
            g = gen_random_grammar(seed)
            ctx = build_ctx(g)
            cg = ctx.grammar
            lang = language_upto(g, 4)
            for graph in enumerate_graphs(cg.alphabet, 4):
                h = eval_graph(graph, ctx)
                if isinstance(graph, PNode):
                    entries = dict(h.entries)
                    for p in cg.pnames:
                        assert entries[p] == enumerate_p_views(graph, cg, p)
                else:
                    assert h.pairs == enumerate_s_views(graph, cg)
                assert member(graph, g, ctx) == (graph in lang)


def _oracle_profile(graph, ctx):
    cg = ctx.grammar
    if isinstance(graph, PNode):
        return ctx.pprofile(tuple(
            (p, ctx.spaces[p].encode(enumerate_p_views(graph, cg, p))) for p in cg.pnames))
    return ctx.pack(enumerate_s_views(graph, cg))


def test_criterion_4_composition_is_homomorphic(capsys, univ, chain, even_bundle):
    """op_serial/op_parallel commute with graph composition on view profiles."""
    with criterion(capsys, 4, "composition operators are homomorphic"):
        for g in (univ, chain, even_bundle):
            ctx = build_ctx(g)
            cg = ctx.grammar
            parts = enumerate_graphs(cg.alphabet, 2)
            for g1, g2 in itertools.product(parts, repeat=2):
                h1, h2 = _oracle_profile(g1, ctx), _oracle_profile(g2, ctx)
                want = _oracle_profile(compose_serial(g1, g2), ctx)
                assert op_serial(h1, h2, ctx).pairs == want.pairs
                want = _oracle_profile(compose_parallel(g1, g2), ctx)
                assert op_parallel(h1, h2, ctx) == want


def test_criterion_5_cutoff_bounds(capsys):
    """Linear products collapse at the predicted lengths.

    Four sweeps: bounded-only products past the weighted cardinality
    vanish; threshold-2 suprema keep exactly the maximal-degree
    monomials; 1-sum products of the critical length have an equivalent
    subproduct in the prefix interval; plain variable-sum products past
    the mixed cut-off either vanish or match a strict subproduct.  The
    two larger sweeps sample when exhaustion gets too big.
    """
    with criterion(capsys, 5, "long products collapse within predicted cut-offs",
                   budget=120.0):
        # Bounded-only annihilation, exhaustive up to 3 variables.
        for ctx in bounded_configs(max_vars=3, bases=(2, 3)):
            sums = linear_sums(ctx)
            bound = weighted_card(set(ctx), ctx)
            for factors in products_of_length(sums, bound + 1):
                assert nf_linear_product(factors, ctx).is_zero

        # Threshold-2 suprema on random products.
        rng = random.Random(20260814)
        for _ in range(500):
            nv = rng.randint(1, 5)
            ctx = {f"s{i}": Threshold(2) for i in range(1, nv + 1)}
            pool = linear_sums(ctx)
            factors = [rng.choice(pool) for _ in range(rng.randint(1, 7))]
            t = nf_linear_product(factors, ctx)
            if t.is_zero:
                continue
            maxdeg = max(m.total_degree for m in t.monomials)
            assert sup_monomials(t).monomials == frozenset(
                m for m in t.monomials if m.total_degree == maxdeg)

        # 1-sum interval cut-off, sampled beyond 300 products per config.
        rng = random.Random(99)
        for ctx in mixed_configs(max_vars=4, bases=(2, 3), periods=(2, 3)):
            sums = one_sums(ctx)
            length = weighted_card(set(ctx), ctx) + 1
            if len(list(products_of_length(sums, length))) <= 300:
                candidates = products_of_length(sums, length)
            else:
                candidates = [tuple(rng.choice(sums) for _ in range(length))
                              for _ in range(120)]
            for factors in candidates:
                assert exists_interval_subproduct(factors, ctx)

        # Mixed cut-off for plain variable sums, exhaustive where the
        # bound keeps product lengths at 9 or below.
        for ctx in mixed_configs(max_vars=3, bases=(2, 3), periods=(2, 3)):
            bounded = {v for v, c in ctx.items() if isinstance(c, Bounded)}
            periodic = {v for v, c in ctx.items() if isinstance(c, Periodic)}
            bound = cutoff_bound(bounded, periodic, ctx)
            if bound + 2 > 9:
                continue
            sums = linear_sums(ctx)
            for length in (bound + 1, bound + 2):
                for factors in products_of_length(sums, length):
                    t = nf_linear_product(factors, ctx)
                    assert t.is_zero or exists_equal_subproduct(factors, ctx)


def test_criterion_6_normalization_preserves_language(
        capsys, univ, ga, gab, chain, bundle, even_bundle, empty_grammar):
    """normalize and to_alternative leave the generated language unchanged."""
    with criterion(capsys, 6, "normalization preserves the language"):
        corpus = [univ, ga, gab, chain, bundle, even_bundle, empty_grammar]
        corpus += [gen_random_grammar(seed) for seed in range(14)]
        for g in corpus:
            n = normalize(g)
            alt = to_alternative(n)
            want = language_upto(g, 4)
            assert language_upto(n, 4) == want
            assert language_upto(alt, 4) == want


def test_criterion_7_decisions_agree_with_enumeration(
        capsys, univ, ga, gab, chain, bundle, even_bundle, empty_grammar):
    """Inclusion and intersection answers match small-graph ground truth."""
    with criterion(capsys, 7, "decision procedures agree with enumeration"):
        fixtures = [univ, ga, gab, chain, bundle, even_bundle, empty_grammar]
        for g1, g2 in itertools.product(fixtures, repeat=2):
            if set(g1.alphabet) - set(g2.alphabet):
                continue
            res = inclusion(g1, g2)
            l1, l2 = language_upto(g1, 4), language_upto(g2, 4)
            if not (l1 <= l2):
                assert not res.holds
            if res.holds:
                assert l1 <= l2
            else:
                w = res.witness
                assert member(w, g1) and not member(w, g2)
                assert w in language_upto(g1, w.edges)
        for g1, g2 in itertools.combinations(fixtures, 2):
            res = intersection_empty([g1, g2])
            common = language_upto(g1, 4) & language_upto(g2, 4)
            if common:
                assert not res.holds
            if res.holds:
                assert not common
            else:
                w = res.witness
                assert member(w, g1) and member(w, g2)


def test_criterion_8_saturation_within_state_bound(
        capsys, univ, ga, gab, chain, bundle, even_bundle, empty_grammar):
    """Saturation finishes below the cardinality bound, yet profile counts
    genuinely grow on the adversarial generator."""
    with criterion(capsys, 8, "saturation stays within the state bound"):
        for g in (univ, ga, gab, chain, bundle, even_bundle, empty_grammar):
            reach = reachable_profiles(build_ctx(g))
            assert reach.saturated
            assert reach.n_serial + reach.n_parallel <= bound_cardinality(g)

        # A flat grammar over the same five labels stays tiny...
        flat = parse_grammar("""\
alphabet: a b c d h
pnonterminals: p
snonterminals: s
axioms: p
rules:
p -> s || s
s -> a
s -> b
s -> c
s -> d
s -> h
""")
        base = reachable_profiles(build_ctx(flat))
        assert base.saturated
        # ...while the adversarial generator's closure is still growing at
        # the cap, thousands of times larger: its capped closure holds 29,989
        # serial and 11 parallel profiles, against 2 and 2 for the flat
        # grammar.  How the cap splits between serial and parallel profiles
        # depends on the order they turn up in; the sizes below do not.
        grown = reachable_profiles(build_ctx(gen_worstcase(2)), cap=30000)
        assert not grown.saturated
        assert len(grown.profiles) == 30000
        assert grown.n_serial > 1000 * len(base.profiles)
        assert grown.n_parallel > base.n_parallel


def test_criterion_9_membership_scales(capsys, univ):
    """A 1000-edge random graph is classified within the time budget."""
    with criterion(capsys, 9, "membership on a 1000-edge graph", budget=2.0):
        rng = random.Random(20260814)
        graph = random_graph(rng, 1000, ("a", "b"))
        assert graph.edges == 1000
        assert member(graph, univ, build_ctx(univ))
