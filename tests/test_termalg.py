import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutoffs import (
    bounded_configs,
    exists_equal_subproduct,
    exists_interval_subproduct,
    linear_sums,
    mixed_configs,
    one_sums,
    products_of_length,
)
from spr import termalg
from spr.termalg import (
    MONO_ONE,
    ONE,
    ZERO,
    Bounded,
    FrozenSpace,
    LinearTerm,
    Monomial,
    Periodic,
    TermNF,
    TermSpace,
    Threshold,
    cutoff_bound,
    expand_product,
    linear_to_nf,
    mono_leq,
    mono_mul,
    nf_linear_product,
    nf_monomial,
    sup_monomials,
    term_add,
    term_mul,
    term_space,
    weighted_card,
)

CTX = {
    "s1": Bounded(2),
    "s2": Bounded(3),
    "s3": Periodic(1),
    "s4": Periodic(3),
    "s5": Threshold(2),
    "s6": Threshold(3),
}


def mono(**exps):
    return Monomial.of(exps)


def term(*monos):
    return TermNF(frozenset(monos))


# ---------------------------------------------------------------------------
# classes and monomials
# ---------------------------------------------------------------------------


def test_variable_class_validation():
    with pytest.raises(ValueError):
        Bounded(1)
    with pytest.raises(ValueError):
        Periodic(0)
    with pytest.raises(ValueError):
        Threshold(1)
    Bounded(2), Periodic(1), Threshold(2)  # minimal legal values


def test_monomial_of_merges_and_drops_zeros():
    m = Monomial.of([("b", 1), ("a", 2), ("b", 1), ("c", 0)])
    assert m.exps == (("a", 2), ("b", 2))
    assert m.degree("a") == 2 and m.degree("z") == 0
    assert m.total_degree == 4
    assert m.vars == {"a", "b"}
    with pytest.raises(ValueError):
        Monomial.of([("a", -1)])


def test_monomial_str():
    assert str(MONO_ONE) == "1"
    assert str(mono(s1=1)) == "s1"
    assert str(mono(s2=2, s1=1)) == "s1*s2^2"


@pytest.mark.parametrize(
    "exps,cls,expected",
    [
        ({"s": 2}, Periodic(1), MONO_ONE),  # period 1: everything is the unit
        ({"s": 3}, Bounded(3), None),  # at the base: killed
        ({"s": 2}, Bounded(3), mono(s=2)),  # below the base: kept
        ({"s": 7}, Periodic(3), mono(s=1)),  # wraps mod period
        ({"s": 6}, Periodic(3), MONO_ONE),
        ({"s": 5}, Threshold(3), mono(s=2)),  # capped at theta - 1
        ({"s": 1}, Threshold(3), mono(s=1)),
    ],
)
def test_nf_monomial_axioms(exps, cls, expected):
    assert nf_monomial(exps, {"s": cls}) == expected


def test_nf_monomial_unknown_variable():
    with pytest.raises(ValueError, match="not in context"):
        nf_monomial({"z": 1}, CTX)


def test_nf_monomial_accepts_monomial_and_mapping():
    assert nf_monomial(mono(s1=1), CTX) == nf_monomial({"s1": 1}, CTX)


# ---------------------------------------------------------------------------
# dioid laws
# ---------------------------------------------------------------------------


def test_term_str_literals():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(term(mono(s1=1), MONO_ONE)) == "1 + s1"


def test_add_mul_unit_laws():
    t = term(mono(s1=1), mono(s2=2))
    assert term_add(t, ZERO) == t
    assert term_add(t, t) == t
    assert term_mul(t, ONE, CTX) == t
    assert term_mul(t, ZERO, CTX) == ZERO


small_monomials = st.builds(
    Monomial.of,
    st.dictionaries(st.sampled_from(sorted(CTX)), st.integers(0, 4), max_size=4),
)
small_terms = st.builds(
    TermNF, st.frozensets(small_monomials, max_size=4).map(
        lambda ms: frozenset(
            m for m in (nf_monomial(x, CTX) for x in ms) if m is not None
        )
    )
)


@given(small_terms, small_terms, small_terms)
def test_mul_commutative_associative_distributive(t1, t2, t3):
    assert term_mul(t1, t2, CTX) == term_mul(t2, t1, CTX)
    assert term_mul(term_mul(t1, t2, CTX), t3, CTX) == term_mul(
        t1, term_mul(t2, t3, CTX), CTX
    )
    assert term_mul(term_add(t1, t2), t3, CTX) == term_add(
        term_mul(t1, t3, CTX), term_mul(t2, t3, CTX)
    )


@given(small_monomials, small_monomials)
def test_nf_nesting(m1, m2):
    # reducing before multiplying changes nothing: nf(m1*m2) = nf(nf(m1)*nf(m2))
    raw = dict(m1.exps)
    for v, e in m2.exps:
        raw[v] = raw.get(v, 0) + e
    direct = nf_monomial(raw, CTX)
    r1, r2 = nf_monomial(m1, CTX), nf_monomial(m2, CTX)
    if r1 is None or r2 is None:
        nested = None
    else:
        merged = dict(r1.exps)
        for v, e in r2.exps:
            merged[v] = merged.get(v, 0) + e
        nested = nf_monomial(merged, CTX)
    assert direct == nested


@given(small_terms, small_terms)
def test_products_stay_reduced(t1, t2):
    out = term_mul(t1, t2, CTX)
    for m in out:
        assert nf_monomial(m, CTX) == m


# ---------------------------------------------------------------------------
# linear products
# ---------------------------------------------------------------------------


def test_linear_term_str():
    assert str(LinearTerm.of(["s2", "s1"])) == "s1 + s2"
    assert str(LinearTerm.of(["s1"], one=True)) == "1 + s1"
    assert str(LinearTerm.of([])) == "0"


def test_empty_product_is_one():
    assert nf_linear_product([], CTX) == ONE


def test_linear_to_nf_drops_killed_variables():
    ctx = {"s": Bounded(2), "u": Periodic(1)}
    t = linear_to_nf(LinearTerm.of(["s", "u"], one=True), ctx)
    # u reduces to the unit, merging with the explicit 1
    assert t == term(MONO_ONE, mono(s=1))


def test_nf_linear_product_matches_brute_force():
    rng = random.Random(20240814)
    vars_ = ["s1", "s2", "s4", "s5"]
    for _ in range(150):
        n = rng.randint(1, 6)
        factors = [
            LinearTerm.of(
                rng.sample(vars_, rng.randint(1, 3)), one=rng.random() < 0.4
            )
            for _ in range(n)
        ]
        want = expand_product(factors, CTX)
        assert nf_linear_product(factors, CTX) == want
        # s5 is a threshold variable
        for space in spaces_of(CTX):
            assert nf_linear_product(factors, space) == want


# ---------------------------------------------------------------------------
# sup and the order
# ---------------------------------------------------------------------------


def test_mono_leq():
    assert mono_leq(mono(s1=1), mono(s1=2, s2=1))
    assert not mono_leq(mono(s1=2), mono(s1=1, s2=3))
    assert mono_leq(MONO_ONE, mono(s1=1))


def test_sup_examples():
    assert sup_monomials(ZERO) == ZERO
    assert sup_monomials(ONE) == ONE
    t = term(mono(s1=1), mono(s1=1, s5=1))
    assert sup_monomials(t) == term(mono(s1=1, s5=1))


def test_sup_is_max_degree_for_two_thresholds():
    # with every threshold at 2, the maximal monomials are exactly the
    # maximal-degree ones
    rng = random.Random(7)
    vars_ = [f"v{i}" for i in range(5)]
    ctx = {v: Threshold(2) for v in vars_}
    for _ in range(120):
        factors = [
            LinearTerm.of(rng.sample(vars_, rng.randint(1, 4)))
            for _ in range(rng.randint(1, 7))
        ]
        t = nf_linear_product(factors, ctx)
        if t.is_zero:
            continue
        top = max(m.total_degree for m in t)
        assert sup_monomials(t) == TermNF(
            frozenset(m for m in t if m.total_degree == top)
        )


# ---------------------------------------------------------------------------
# measures and bounds
# ---------------------------------------------------------------------------


def test_weighted_card_values():
    assert weighted_card({"s"}, {"s": Bounded(2)}) == 1
    assert weighted_card({"s"}, {"s": Periodic(1)}) == 0
    assert weighted_card({"s"}, {"s": Threshold(3)}) == 2
    ctx = {"s1": Bounded(2), "s0": Periodic(3), "s2": Periodic(3)}
    assert weighted_card({"s1", "s0", "s2"}, ctx) == 5
    with pytest.raises(ValueError):
        weighted_card({"z"}, ctx)


def test_cutoff_bound_values():
    ctx = {"s1": Bounded(2), "s0": Periodic(3), "s2": Periodic(3)}
    assert cutoff_bound({"s1"}, {"s0", "s2"}, ctx) == 9
    assert cutoff_bound(set(), {"s"}, {"s": Periodic(2)}) == 1
    assert cutoff_bound({"s"}, set(), {"s": Bounded(2)}) == 1


def test_cutoff_bound_rejects_period_one():
    with pytest.raises(ValueError, match="periods >= 2"):
        cutoff_bound(set(), {"s"}, {"s": Periodic(1)})


def test_cutoff_bound_checks_classes():
    ctx = {"s": Bounded(2), "t": Periodic(2)}
    with pytest.raises(ValueError):
        cutoff_bound({"t"}, set(), ctx)
    with pytest.raises(ValueError):
        cutoff_bound(set(), {"s"}, ctx)


# ---------------------------------------------------------------------------
# cut-off properties (small scale; the acceptance suite runs the full scale)
# ---------------------------------------------------------------------------


def test_long_bounded_products_vanish():
    for ctx in bounded_configs(max_vars=2):
        sums = linear_sums(ctx)  # no unit: a unit would survive forever
        bound = weighted_card(set(ctx), ctx)
        for factors in products_of_length(sums, bound + 1):
            assert nf_linear_product(factors, ctx).is_zero


def test_one_sum_products_have_interval_cutoff():
    for ctx in mixed_configs(max_vars=2):
        sums = one_sums(ctx)
        bound = weighted_card(set(ctx), ctx)
        for factors in products_of_length(sums, bound + 1):
            assert exists_interval_subproduct(factors, ctx)


def test_general_products_have_existential_cutoff():
    # The general cut-off concerns products of plain variable sums; sums
    # containing the unit are the separate interval-cutoff family above
    # (a factor like 1 + t over a periodic t genuinely escapes this bound:
    # nf((t)(t)(1 + t)) = 1 + t^2 at period 3 matches no strict subproduct).
    ctx = {"s1": Bounded(2), "t1": Periodic(2)}
    bound = cutoff_bound({"s1"}, {"t1"}, ctx)
    for length in (bound + 1, bound + 2):
        for factors in products_of_length(linear_sums(ctx), length):
            t = nf_linear_product(factors, ctx)
            assert t.is_zero or exists_equal_subproduct(factors, ctx)


# ---------------------------------------------------------------------------
# the packed kernel against the monomial-level definitions
# ---------------------------------------------------------------------------

var_classes = st.one_of(
    st.builds(Bounded, st.integers(2, 4)),
    st.builds(Periodic, st.integers(1, 4)),
    st.builds(Threshold, st.integers(2, 4)),
)
contexts = st.dictionaries(
    st.sampled_from(["s0", "s1", "s2", "s3"]), var_classes, min_size=1, max_size=4
)


def terms_in(ctx):
    """Strategy for normal forms over ``ctx``."""
    monos = st.dictionaries(st.sampled_from(sorted(ctx)), st.integers(0, 5)).map(
        lambda exps: nf_monomial(exps, ctx)
    )
    return st.frozensets(monos, max_size=6).map(TermNF.of)


def linears_in(ctx):
    return st.builds(
        LinearTerm.of, st.frozensets(st.sampled_from(sorted(ctx))), st.booleans()
    )


def pairwise_reference(t1, t2, ctx):
    return TermNF.of(mono_mul(m1, m2, ctx) for m1 in t1 for m2 in t2)


def spaces_of(ctx):
    """The two spaces of a context that fits the box: the packed one
    ``term_space`` picks, and the frozenset one it picks past ``BOX_LIMIT``."""
    packed = term_space(ctx)
    assert isinstance(packed, TermSpace)
    return packed, FrozenSpace(ctx)


@given(st.data())
def test_packed_linear_product_matches_expansion(data):
    ctx = data.draw(contexts)
    factors = data.draw(st.lists(linears_in(ctx), max_size=5))
    want = expand_product(factors, ctx)
    assert nf_linear_product(factors, ctx) == want
    for space in spaces_of(ctx):
        assert nf_linear_product(factors, space) == want


@given(st.data())
def test_packed_term_mul_matches_pairwise_products(data):
    ctx = data.draw(contexts)
    t1, t2 = data.draw(terms_in(ctx)), data.draw(terms_in(ctx))
    want = pairwise_reference(t1, t2, ctx)
    assert term_mul(t1, t2, ctx) == want
    for space in spaces_of(ctx):
        product = term_mul(space.encode(t1), space.encode(t2), space)
        assert product == space.encode(want)
        assert product == want and len(product) == len(want)
        assert str(product) == str(want)


@given(st.data())
def test_encode_decode_round_trip(data):
    ctx = data.draw(contexts)
    t = data.draw(terms_in(ctx))
    packed, frozen = spaces_of(ctx)
    raw = st.dictionaries(st.sampled_from(sorted(ctx)), st.integers(0, 5)).map(Monomial.of)
    stored = [
        (packed, data.draw(st.integers(0, (1 << packed.size) - 1))),
        # any monomials, reduced where they are stored
        (frozen, frozen.encode(TermNF(data.draw(st.frozensets(raw, max_size=6))))),
    ]
    for space, bits in stored:
        assert space.decode(space.encode(t)) == t
        assert space.encode(space.decode(bits)) == bits
        for m in space.decode(bits):
            assert nf_monomial(m, ctx) == m


def test_packed_terms_read_like_normal_forms():
    for space in spaces_of(CTX):
        t = space.linear(LinearTerm.of(["s1", "s4"], one=True))
        assert str(t) == f"{t}" == "1 + s1 + s4"
        assert len(t) == 3 and t.monomials == {MONO_ONE, mono(s1=1), mono(s4=1)}
        # s3 has period 1: s3 is the unit
        assert space.linear(LinearTerm.of(["s3"])) == space.one == ONE
        assert term_mul(t, space.encode(ZERO), space) == ZERO


def test_large_boxes_keep_frozenset_terms(monkeypatch):
    monkeypatch.setattr(termalg, "BOX_LIMIT", 10)
    assert isinstance(term_space({"s": Bounded(10)}), TermSpace)
    ctx = {"s": Bounded(11)}
    assert isinstance(term_space(ctx), FrozenSpace)
    t = nf_linear_product([LinearTerm.of(["s"], one=True)] * 3, ctx)
    assert t == expand_product([LinearTerm.of(["s"], one=True)] * 3, ctx)
    assert term_mul(t, t, ctx) == pairwise_reference(t, t, ctx)
    # a box of 2^80 monomials: nothing of its size is ever allocated
    wide = {f"s{i:02}": Bounded(2) for i in range(80)}
    assert isinstance(term_space(wide), FrozenSpace)
    lin = LinearTerm.of(["s00", "s79"], one=True)
    t = nf_linear_product([lin, lin], wide)
    assert t == expand_product([lin, lin], wide) and len(t) == 4
