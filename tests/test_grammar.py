import random
from collections import Counter
from dataclasses import astuple, fields

import pytest

from conftest import (
    BUNDLE_TEXT,
    CHAIN_TEXT,
    EMPTY_TEXT,
    EVEN_BUNDLE_TEXT,
    EVEN_CHAIN_TEXT,
    GA_TEXT,
    GAB_TEXT,
    UNIV_TEXT,
)
from spr.decision import inclusion
from spr.grammar import (
    BasePeriodTable,
    Grammar,
    GrammarError,
    RuleA,
    RuleAlt,
    RuleB,
    RuleC,
    RuleD,
    RuleE,
    RuleF,
    RuleFree,
    _with_lhs,
    compute_base_period,
    format_grammar,
    format_rule,
    is_alternative,
    is_normalized,
    normalize,
    parse_grammar,
    rule_rhs_term,
    to_alternative,
    validate_regular,
)
from spr.oracle import gen_random_grammar, gen_worstcase, language_upto
from spr.spgraph import (
    Atom,
    Parallel,
    ParseError,
    Ref,
    Serial,
    _TermParser,
    format_term,
    parse_graph,
)
from spr.termalg import Bounded, Periodic

# ---------------------------------------------------------------------------
# parsing and rule classification
# ---------------------------------------------------------------------------


def test_parse_classifies_regular_shapes(univ):
    assert univ.rules == (
        RuleA("p", "s", 1),
        RuleB("p", (("s", 2),)),
        RuleC("s", "p", "s"),
        RuleD("s", "p", "p"),
        RuleE("p", "a"),
        RuleE("p", "b"),
        RuleF("s", "a"),
        RuleF("s", "b"),
    )


def test_parallel_repeats_fold_into_exponents():
    g = parse_grammar(
        "alphabet: a\npnonterminals: p\nsnonterminals: s t\naxioms: p\n"
        "rules:\np -> s || t || s\ns -> a\nt -> a\n"
    )
    (b,) = [r for r in g.rules if isinstance(r, RuleB)]
    assert b.body == (("s", 2), ("t", 1))
    # ... and the explicit exponent form parses to the same rule
    g2 = parse_grammar(
        "alphabet: a\npnonterminals: p\nsnonterminals: s t\naxioms: p\n"
        "rules:\np -> s^2 || t\ns -> a\nt -> a\n"
    )
    assert b in g2.rules


def test_self_recursive_parallel_is_rule_a(even_bundle):
    assert RuleA("p", "s", 2) in even_bundle.rules
    assert RuleB("p", (("s", 2),)) in even_bundle.rules


def test_single_nonterminal_body_is_alternation():
    g = parse_grammar(
        "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: p\n"
        "rules:\np -> s\ns -> a\n"
    )
    assert RuleAlt("p", "s") in g.rules


def test_unshaped_bodies_fall_back_to_free_rules():
    g = parse_grammar(
        "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: p\n"
        "rules:\np -> a || s\ns -> p . s . p\ns -> a . a\n"
    )
    frees = [r for r in g.rules if isinstance(r, RuleFree)]
    assert len(frees) == 3
    rep = validate_regular(g)
    assert not rep.ok
    assert len(rep.offenders) == 3
    assert all(why == "free-form right-hand side" for _, why in rep.offenders)


def test_alternation_is_reported_as_non_regular():
    g = parse_grammar(
        "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: p\n"
        "rules:\np -> s\ns -> a\n"
    )
    rep = validate_regular(g)
    assert not rep.ok
    (offender,) = rep.offenders
    assert isinstance(offender[0], RuleAlt)


def test_exponents_only_in_parallel_bodies():
    with pytest.raises(ParseError, match="exponents are only valid"):
        parse_grammar(
            "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: s\n"
            "rules:\ns -> p . p^2\np -> a\n"
        )
    with pytest.raises(ParseError, match="exponents are only valid"):
        parse_grammar(
            "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: p\n"
            "rules:\np -> a^2\n"
        )


@pytest.mark.parametrize(
    "text,message",
    [
        ("pnonterminals: p\n", "expected 'alphabet:'"),
        ("alphabet: a\nsnonterminals: s\n", "expected 'pnonterminals:'"),
        ("alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: p\n", "missing 'rules:'"),
        (
            "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: p\n"
            "rules:\np = a\n",
            "rule must look like",
        ),
        (
            "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: p\n"
            "rules:\nq -> a\n",
            "undeclared rule head",
        ),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_grammar(text)


def test_rule_parse_errors_carry_the_rule_line():
    text = (
        "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: p\n"
        "rules:\np -> a\np -> a ||\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_grammar(text)
    assert exc.value.line == 7


_MISPLACED_EXPONENT = "exponents are only valid on S-nonterminals in parallel rule bodies"
_HEAD = "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: p\nrules:\np -> a\n"


@pytest.mark.parametrize(
    "read,text,message,line,col",
    [
        (parse_graph, "$x . a", "unknown name '$x'", 1, 1),
        (parse_graph, "a .\n  $x || a", "unknown name '$x'", 2, 3),
        # a rule's columns count from the start of its line
        (parse_grammar, _HEAD + "p -> $y || s\n", "unknown name '$y'", 7, 6),
        (parse_grammar, _HEAD + "p -> s^0 || s\n", "exponent must be a positive integer", 7, 8),
        (parse_grammar, _HEAD + "p -> s || s^x\n", "exponent must be a positive integer", 7, 13),
        (parse_grammar, _HEAD + "p -> s^", "unexpected end of input", 7, 7),
        # a digit outside ASCII is no count but a character no token starts
        (parse_grammar, _HEAD + "p -> s^\u0663 || s", "unexpected character '\u0663'", 7, 8),
        # an exponent outside a parallel body of S-nonterminals, at its '^'
        (parse_grammar, _HEAD + "p -> a^2\n", _MISPLACED_EXPONENT, 7, 7),
        (parse_grammar, _HEAD + "s -> p . s^2\n", _MISPLACED_EXPONENT, 7, 11),
        # empty text has no line 0
        (parse_grammar, "", "missing 'rules:' section", 1, 1),
        # a misspelt fifth section line, and a rule without a body
        (parse_grammar, _HEAD.replace("rules:", "rule:"), "expected 'rules:' section", 5, 1),
        (parse_grammar, _HEAD.replace("p -> a", "p ->   "), "unexpected end of input", 6, 5),
    ],
)
def test_parse_errors_point_at_the_offending_token(read, text, message, line, col):
    with pytest.raises(ParseError) as exc:
        read(text)
    assert (str(exc.value), exc.value.line, exc.value.col) == (f"{line}:{col}: {message}", line, col)


@pytest.mark.parametrize("count", ["9" * 5000, "0" * 4999 + "7"], ids=["nines", "leading-zeros"])
def test_an_exponent_past_the_digit_limit_is_a_positioned_error(count):
    # Python converts at most 4300 digits to an int by default
    with pytest.raises(ParseError) as exc:
        parse_grammar(_HEAD + "p -> p || s^" + count + "\n")
    assert (exc.value.msg, exc.value.line, exc.value.col) == (
        "exponent has too many digits (5000)", 7, 13
    )


def test_a_summed_count_past_the_digit_limit_is_a_positioned_error():
    # each exponent is read, but their sum has more digits than can be printed
    n = "9" * 4300
    with pytest.raises(ParseError) as exc:
        parse_grammar(_HEAD + f"p -> s || s^{n} || s^{n}\n")
    assert (exc.value.msg, exc.value.line, exc.value.col) == (
        "exponents of s sum to a count with too many digits", 7, 6
    )


def test_comments_and_blank_lines_are_ignored(univ):
    text = UNIV_TEXT.replace("rules:", "\n# body follows\nrules:\n")
    text = text.replace("pnonterminals:", "\n# the P-names\npnonterminals:")
    text += "# trailing comment\n\n"
    assert parse_grammar(text) == univ


# ---------------------------------------------------------------------------
# grammar-level validation
# ---------------------------------------------------------------------------


def _univ_parts():
    g = parse_grammar(UNIV_TEXT)
    return {
        "alphabet": g.alphabet,
        "pnames": g.pnames,
        "snames": g.snames,
        "axioms": g.axioms,
        "rules": g.rules,
    }


@pytest.mark.parametrize(
    "patch,message",
    [
        ({"alphabet": ("a", "B")}, "bad label"),
        ({"alphabet": ("a", "a")}, "duplicate label"),
        ({"pnames": ("p", "p")}, "duplicate or label-shadowing"),
        ({"snames": ("s", "a")}, "duplicate or label-shadowing"),
        ({"pnames": ("-p",)}, "bad nonterminal name"),
        ({"axioms": ("p", "q")}, "axiom 'q' is not"),
        ({"axioms": ("p", "p")}, "duplicate axiom"),
    ],
)
def test_declaration_errors(patch, message):
    parts = _univ_parts()
    parts.update(patch)
    with pytest.raises(GrammarError, match=message):
        Grammar(**parts)


@pytest.mark.parametrize(
    "rule,message",
    [
        (RuleA("s", "s", 1), "not a declared P-nonterminal"),
        (RuleA("p", "p", 1), "not a declared S-nonterminal"),
        (RuleA("p", "s", 0), "exponent must be >= 1"),
        (RuleB("p", ()), "sorted and non-empty"),
        (RuleB("p", (("t", 1), ("s", 1))), "sorted and non-empty"),
        (RuleB("p", (("s", 1), ("s", 2))), "repeated variable"),
        (RuleB("p", (("s", 1),)), "at least two factors"),
        (RuleB("p", (("s", 0),)), "exponent must be >= 1"),
        (RuleE("p", "z"), "label 'z' not in alphabet"),
        (RuleF("s", "z"), "label 'z' not in alphabet"),
        (RuleC("p", "p", "s"), "not a declared S-nonterminal"),
        (RuleD("s", "p", "s"), "not a declared P-nonterminal"),
        (RuleFree("x", Atom("a")), "undeclared nonterminal 'x' in x -> a"),
        (RuleFree("p", Serial(Atom("a"), Ref("x"))), r"undeclared nonterminal 'x' in p -> a \. x"),
        ("bogus", "unknown rule object 'bogus'"),
    ],
)
def test_rule_validation_errors(rule, message):
    parts = _univ_parts()
    parts["snames"] = ("s", "t")
    parts["rules"] = parts["rules"] + (rule,)
    with pytest.raises(GrammarError, match=message):
        Grammar(**parts)


def test_a_rule_without_copies_is_printed_with_its_count():
    # printed as ``p -> p || s`` the rejected rule would read as a valid one
    parts = _univ_parts()
    parts["rules"] = parts["rules"] + (RuleA("p", "s", 0),)
    with pytest.raises(GrammarError) as exc:
        Grammar(**parts)
    assert str(exc.value) == "exponent must be >= 1 in p -> p || s^0"


def test_duplicate_rules_collapse(univ):
    doubled = Grammar(
        univ.alphabet, univ.pnames, univ.snames, univ.axioms, univ.rules + univ.rules
    )
    assert doubled == univ


def test_rules_for(univ):
    assert univ.rules_for("p") == [
        r for r in univ.rules if r.lhs == "p"
    ]


def test_rule_rhs_term_shapes():
    assert format_term(rule_rhs_term(RuleA("p", "s", 2))) == "p || s || s"
    assert format_term(rule_rhs_term(RuleB("p", (("s", 1), ("t", 2))))) == "s || t || t"
    assert format_term(rule_rhs_term(RuleC("s", "p", "t"))) == "p . t"
    assert format_term(rule_rhs_term(RuleD("s", "p", "q"))) == "p . q"
    assert format_term(rule_rhs_term(RuleE("p", "a"))) == "a"
    assert format_term(rule_rhs_term(RuleAlt("p", "s"))) == "s"


def test_rule_rhs_term_builds_one_parallel_layer():
    t = rule_rhs_term(RuleA("p", "s", 10**6))
    assert type(t) is Parallel and len(t) == 10**6 + 1
    assert t[0] == Ref("p") and t[1] is t[-1] == Ref("s")
    # equal to the left-nested chain of pairwise parallel nodes
    p, s, u = Ref("p"), Ref("s"), Ref("u")
    for k in range(1, 6):
        chain = p
        for _ in range(k):
            chain = Parallel(chain, s)
        t = rule_rhs_term(RuleA("p", "s", k))
        assert t == chain and hash(t) == hash(chain)
        chain = u
        for x in [u] * (k - 1) + [s, s]:
            chain = Parallel(chain, x)
        t = rule_rhs_term(RuleB("p", (("u", k), ("s", 2))))
        assert len(t) == k + 2 and t == chain and hash(t) == hash(chain)


# ---------------------------------------------------------------------------
# text format round-trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text", [UNIV_TEXT, CHAIN_TEXT, EVEN_BUNDLE_TEXT])
def test_format_parse_round_trip(text):
    g = parse_grammar(text)
    assert parse_grammar(format_grammar(g)) == g


def test_format_keeps_groups_that_are_not_a_layers_first_part():
    text = (
        "alphabet: a b c\npnonterminals: x\nsnonterminals: s\naxioms: x\nrules:\n"
        "x -> a . (b . c)\nx -> a || (b || c)\nx -> (a || b) || c\n"
    )
    g = parse_grammar(text)
    assert [format_rule(r) for r in g.rules] == [
        "x -> a . (b . c)", "x -> a || (b || c)", "x -> a || b || c"
    ]
    assert parse_grammar(format_grammar(g)) == g


@pytest.mark.parametrize("seed", range(12))
def test_random_grammars_round_trip(seed):
    g = gen_random_grammar(seed)
    assert parse_grammar(format_grammar(g)) == g


def test_format_rule_exponents():
    assert format_rule(RuleA("p", "s", 1)) == "p -> p || s"
    assert format_rule(RuleA("p", "s", 3)) == "p -> p || s^3"
    assert format_rule(RuleB("p", (("s", 2), ("t", 1)))) == "p -> s^2 || t"


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------


def test_universal_grammar_is_not_normalized(univ):
    # s recurs through the self-rule *and* occurs in the parallel body
    assert not is_normalized(univ)


def test_normalize_splits_shared_variables(univ):
    n = normalize(univ)
    assert is_normalized(n)
    assert n.snames == ("s", "s$1")
    assert n.rules == (
        RuleA("p", "s", 1),
        RuleB("p", (("s$1", 2),)),
        RuleC("s", "p", "s"),
        RuleD("s", "p", "p"),
        RuleE("p", "a"),
        RuleE("p", "b"),
        RuleF("s", "a"),
        RuleF("s", "b"),
        RuleC("s$1", "p", "s"),
        RuleD("s$1", "p", "p"),
        RuleF("s$1", "a"),
        RuleF("s$1", "b"),
    )
    assert normalize(n) == n


def test_normalize_splits_ambiguous_periods():
    g = parse_grammar(
        "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: p\n"
        "rules:\np -> p || s\np -> p || s^2\np -> s || s\ns -> a\n"
    )
    assert not is_normalized(g)
    n = normalize(g)
    assert is_normalized(n)
    assert n.snames == ("s", "s$1", "s$2")
    assert n.rules == (
        RuleA("p", "s$1", 1),
        RuleA("p", "s$2", 2),
        RuleB("p", (("s", 2),)),
        RuleF("s", "a"),
        RuleF("s$1", "a"),
        RuleF("s$2", "a"),
    )


def test_normalize_leaves_normal_grammars_alone(ga, chain):
    assert normalize(ga) == ga
    assert normalize(chain) == chain


def test_normalize_returns_a_grammar_that_needs_no_copy_itself(ga, chain, univ):
    assert normalize(ga) is ga
    assert normalize(chain) is chain
    assert normalize(univ) is not univ


# every regular grammar of conftest.py (EVEN_CHAIN_TEXT is free-form)
_REGULAR_GRAMMARS = {
    **{
        name: parse_grammar(text)
        for name, text in [
            ("univ", UNIV_TEXT),
            ("ga", GA_TEXT),
            ("gab", GAB_TEXT),
            ("chain", CHAIN_TEXT),
            ("bundle", BUNDLE_TEXT),
            ("even_bundle", EVEN_BUNDLE_TEXT),
            ("empty", EMPTY_TEXT),
        ]
    },
    "wc2": gen_worstcase(2),
    "wc3": gen_worstcase(3),
    **{f"seed{i}": gen_random_grammar(i) for i in range(60)},
}


@pytest.mark.parametrize("name", _REGULAR_GRAMMARS)
def test_a_regular_grammar_is_normalized_when_normalize_copies_nothing(name):
    g = _REGULAR_GRAMMARS[name]
    assert validate_regular(g).ok
    assert is_normalized(g) == (normalize(g) is g)
    assert is_normalized(normalize(g))
    # the alternative form's alternation rules count as bounded occurrences
    alt = to_alternative(normalize(g))
    assert is_alternative(alt) and is_normalized(alt)


@pytest.mark.parametrize(
    "text",
    [
        EVEN_CHAIN_TEXT,  # free-form rules
        # an Alt/A overlap: normalize renames only B-rule occurrences, so it
        # would copy nothing here, and is_normalized finds the overlap itself
        "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: p\n"
        "rules:\np -> s\np -> p || s\ns -> a\n",
    ],
    ids=["free-form", "alt-beside-periodic"],
)
def test_grammars_that_normalize_cannot_repair_are_not_normalized(text):
    assert not is_normalized(parse_grammar(text))


_EVERY_RULE_KIND = [
    RuleA("p", "s", 2),
    RuleB("p", (("s", 1), ("t", 2))),
    RuleC("s", "p", "t"),
    RuleD("s", "p", "q"),
    RuleE("p", "a"),
    RuleF("s", "a"),
    RuleAlt("p", "s"),
    RuleFree("s", Serial(Atom("a"), Ref("p"))),
]


@pytest.mark.parametrize("rule", _EVERY_RULE_KIND, ids=lambda r: type(r).__name__)
def test_a_rules_head_is_its_first_field(rule):
    assert rule.lhs == getattr(rule, fields(rule)[0].name) == format_rule(rule).split(" -> ")[0]


@pytest.mark.parametrize(
    "rule",
    [r for r in _EVERY_RULE_KIND if isinstance(r, (RuleC, RuleD, RuleF))],
    ids=lambda r: type(r).__name__,
)
def test_with_lhs_renames_only_the_head(rule):
    renamed = _with_lhs(rule, "s$1")
    assert type(renamed) is type(rule) and renamed.lhs == "s$1"
    assert astuple(renamed)[1:] == astuple(rule)[1:]
    assert rule.lhs == "s"


def test_normalize_rejects_free_rules():
    g = parse_grammar(
        "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: s\n"
        "rules:\ns -> a . a\np -> a\n"
    )
    with pytest.raises(GrammarError, match="cannot normalize"):
        normalize(g)


@pytest.mark.parametrize("text", [UNIV_TEXT, EVEN_BUNDLE_TEXT])
def test_normalize_preserves_language(text):
    g = parse_grammar(text)
    n = normalize(g)
    for k in range(1, 4):
        assert language_upto(n, k) == language_upto(g, k)


# ---------------------------------------------------------------------------
# alternative form
# ---------------------------------------------------------------------------


def test_to_alternative_reroutes_edge_rules(univ):
    alt = to_alternative(normalize(univ))
    assert is_alternative(alt)
    assert not any(isinstance(r, RuleE) for r in alt.rules)
    assert RuleAlt("p", "$alt_a") in alt.rules
    assert RuleF("$alt_a", "a") in alt.rules
    # p was an axiom, so the fresh S-copies must be axioms too
    assert alt.axioms == ("p", "s", "$alt_a", "$alt_b")
    assert alt.snames == ("s", "s$1", "$alt_a", "$alt_b")


def test_to_alternative_without_edge_rules_is_identity():
    g = parse_grammar(
        "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: s\n"
        "rules:\ns -> p . s\ns -> a\n"
    )
    assert to_alternative(g) == g


# '$alt_a' is taken, so the copy for label a is named '$alt_a$'
COLLISION_TEXT = """\
alphabet: a b
pnonterminals: p
snonterminals: s $alt_a
axioms: p
rules:
p -> a
p -> s || s
s -> b
$alt_a -> b
"""


def test_to_alternative_skips_taken_copy_names():
    g = parse_grammar(COLLISION_TEXT)
    alt = to_alternative(normalize(g))
    assert is_alternative(alt)
    assert alt.snames == ("s", "$alt_a", "$alt_a$")
    assert alt.axioms == ("p", "$alt_a$")
    assert RuleAlt("p", "$alt_a$") in alt.rules
    assert RuleF("$alt_a$", "a") in alt.rules
    assert RuleF("$alt_a", "b") in alt.rules
    assert inclusion(g, alt).holds and inclusion(alt, g).holds


def test_is_alternative_requires_dedicated_targets(univ):
    assert not is_alternative(normalize(univ))
    # an alternation target with a second rule disqualifies the form
    g = parse_grammar(
        "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: p\n"
        "rules:\np -> s\ns -> a\ns -> p . p\n"
    )
    assert not is_alternative(g)


@pytest.mark.parametrize("text", [UNIV_TEXT, CHAIN_TEXT, EVEN_BUNDLE_TEXT])
def test_to_alternative_preserves_language(text):
    g = normalize(parse_grammar(text))
    alt = to_alternative(g)
    for k in range(1, 4):
        assert language_upto(alt, k) == language_upto(g, k)


# ---------------------------------------------------------------------------
# base/period bookkeeping
# ---------------------------------------------------------------------------


def test_base_period_before_normalization(univ):
    tbl = compute_base_period(univ)
    assert tbl.periodic == {"p": {"s": 1}}
    # base is one more than the largest folded exponent: s || s gives 3
    assert tbl.bounded == {"p": {"s": 3}}
    with pytest.raises(GrammarError, match="normalize first"):
        tbl.context("p")


def test_base_period_after_normalization(univ):
    alt = to_alternative(normalize(univ))
    tbl = compute_base_period(alt)
    assert tbl.periodic == {"p": {"s": 1}}
    assert tbl.bounded == {"p": {"s$1": 3, "$alt_a": 2, "$alt_b": 2}}
    assert tbl.context("p") == {
        "s": Periodic(1),
        "s$1": Bounded(3),
        "$alt_a": Bounded(2),
        "$alt_b": Bounded(2),
    }


def test_ambiguous_period_is_rejected():
    g = parse_grammar(
        "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: p\n"
        "rules:\np -> p || s\np -> p || s^2\ns -> a\n"
    )
    with pytest.raises(GrammarError, match="ambiguous"):
        compute_base_period(g)


def test_base_period_rejects_free_rules():
    g = parse_grammar(
        "alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: s\n"
        "rules:\ns -> a . a\np -> a\n"
    )
    with pytest.raises(GrammarError, match="regular grammar"):
        compute_base_period(g)


def test_context_for_unknown_p_is_empty():
    tbl = BasePeriodTable({}, {})
    assert tbl.context("p") == {}


# ---------------------------------------------------------------------------
# the layer classifier against the term classifier
# ---------------------------------------------------------------------------


def _flatten(t, cls):
    """The factors of ``t``'s top ``cls`` layer, across parentheses."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, cls):
            stack += reversed(node)
        else:
            out.append(node)
    return out


def _classify(lhs, kinds, rhs):
    """Reference classifier: matches a body's term, with every exponent
    expanded into its copies, against the regular shapes."""
    rule = RuleFree(lhs, rhs)
    pfactors = _flatten(rhs, Parallel)
    if all(isinstance(f, (Ref, Atom)) for f in pfactors):
        counts = Counter(
            (f.name if isinstance(f, Ref) else f.label, isinstance(f, Ref))
            for f in pfactors
        )
        if kinds[lhs] == "P":
            svars = {n: c for (n, is_ref), c in counts.items() if is_ref and kinds.get(n) == "S"}
            others = {n for (n, is_ref), c in counts.items() if not (is_ref and kinds.get(n) == "S")}
            if not others and len(svars) == len(counts):
                if sum(svars.values()) == 1:
                    rule = RuleAlt(lhs, next(iter(svars)))
                else:
                    rule = RuleB(lhs, tuple(sorted(svars.items())))
            elif others == {lhs} and counts.get((lhs, True)) == 1 and len(svars) == 1:
                (s, ell), = svars.items()
                rule = RuleA(lhs, s, ell)
            elif len(pfactors) == 1 and isinstance(pfactors[0], Atom):
                rule = RuleE(lhs, pfactors[0].label)
        elif len(pfactors) == 1 and isinstance(pfactors[0], Atom):
            rule = RuleF(lhs, pfactors[0].label)
    if kinds[lhs] == "S" and len(pfactors) == 1:
        sfactors = _flatten(rhs, Serial)
        if len(sfactors) == 2 and all(isinstance(f, Ref) for f in sfactors):
            k0, k1 = (kinds.get(f.name) for f in sfactors)
            if (k0, k1) == ("P", "S"):
                rule = RuleC(lhs, sfactors[0].name, sfactors[1].name)
            elif (k0, k1) == ("P", "P"):
                rule = RuleD(lhs, sfactors[0].name, sfactors[1].name)
    return rule


def _reference_rule(line, lineno, kinds):
    """The rule of one rule line as the term reader and ``_classify`` give
    it, or the ``ParseError`` they raise, placed in its line."""
    lhs, rhs = line.split("->", 1)
    lhs = lhs.strip()
    try:
        parser = _TermParser(rhs, names=kinds)
        rule = _classify(lhs, kinds, parser.parse())
        if parser.exponent_at is not None and not isinstance(rule, (RuleA, RuleB, RuleAlt)):
            parser.error(_MISPLACED_EXPONENT, parser.exponent_at)
    except ParseError as e:
        return ("error", e.msg, lineno, e.col + line.index("->") + 2)
    return ("rule", rule)


def _reference_grammar(text):
    """``parse_grammar`` of a text in ``format_grammar``'s layout, each rule
    read by ``_reference_rule``."""
    lines = text.splitlines()
    head = [tuple(line.split(":", 1)[1].split()) for line in lines[:4]]
    kinds = {n: "P" for n in head[1]}
    kinds.update({n: "S" for n in head[2]})
    rules = []
    for lineno, line in enumerate(lines[5:], start=6):
        outcome = _reference_rule(line, lineno, kinds)
        assert outcome[0] == "rule", outcome
        rules.append(outcome[1])
    return Grammar(*head, rules)


_BODY_HEAD = "alphabet: a b\npnonterminals: p q\nsnonterminals: s t\naxioms: p\nrules:\n"
_BODY_KINDS = {"p": "P", "q": "P", "s": "S", "t": "S"}


def _random_leaf(rnd):
    name = rnd.choice("pqstab")
    return name + f"^{rnd.randint(1, 3)}" if rnd.random() < 0.3 else name


def _random_body(rnd, depth=3):
    """A body spelled at random: a layer of leaves (names, labels, exponents,
    repeats) in any order, its runs grouped by parentheses, with nested
    layers of the other kind, and now and then an exponent on a group."""
    if depth == 0 or rnd.random() < 0.3:
        return _random_leaf(rnd)
    op = rnd.choice([" . ", " || "])
    parts = [_random_body(rnd, depth - 1) for _ in range(rnd.randint(2, 4))]
    while len(parts) > 1 and rnd.random() < 0.4:
        k = rnd.randrange(len(parts) - 1)
        parts[k : k + 2] = ["(" + parts[k] + op + parts[k + 1] + ")"]
    text = op.join(parts)
    if rnd.random() < 0.3:
        text = "(" + text + ")" + ("^2" if rnd.random() < 0.2 else "")
    return text


def _shaped_body(rnd):
    """A body near a regular shape: a few S-names, labels, exponents and
    the head, in any order, grouped at random."""
    pool = ["s", "t", "s^2", "t^1", "p", "q", "a", "s^3"]
    if rnd.random() < 0.5:
        parts = rnd.sample(pool, rnd.randint(1, 4))
        op = " || "
    else:
        parts = [rnd.choice(["p", "q", "s", "p^1", "a"]), rnd.choice(["s", "p", "t", "q^2", "b"])]
        op = " . "
    while len(parts) > 1 and rnd.random() < 0.3:
        k = rnd.randrange(len(parts) - 1)
        parts[k : k + 2] = ["(" + parts[k] + op + parts[k + 1] + ")"]
    text = op.join(parts)
    return "((" + text + "))" if rnd.random() < 0.2 else text


def test_layer_classifier_agrees_with_the_term_classifier():
    rnd = random.Random(16)
    kinds = dict(_BODY_KINDS)
    shapes = Counter()
    for n in range(3000):
        body = (_shaped_body if n % 2 else _random_body)(rnd)
        line = f"{rnd.choice('pqst')} -> {body}"
        want = _reference_rule(line, 6, kinds)
        try:
            (rule,) = parse_grammar(_BODY_HEAD + line + "\n").rules
            got = ("rule", rule)
        except ParseError as e:
            got = ("error", e.msg, e.line, e.col)
        assert got == want, line
        shapes[type(rule).__name__ if got[0] == "rule" else got[1]] += 1
    # every shape and the misplaced exponent are met
    names = {"RuleA", "RuleB", "RuleC", "RuleD", "RuleE", "RuleF", "RuleAlt", "RuleFree"}
    assert names <= set(shapes), shapes
    assert shapes[_MISPLACED_EXPONENT] > 100, shapes


@pytest.mark.parametrize("k", [2, 3, 4])
def test_worstcase_grammars_read_as_the_term_classifier_reads_them(k):
    text = format_grammar(gen_worstcase(k))
    assert format_grammar(parse_grammar(text)) == format_grammar(_reference_grammar(text)) == text


def test_random_grammars_read_as_the_term_classifier_reads_them():
    for seed in range(200):
        text = format_grammar(gen_random_grammar(seed))
        g = parse_grammar(text)
        assert g == _reference_grammar(text)
        assert format_grammar(g) == text
