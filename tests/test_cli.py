import io
import json

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
from spr.cli import entry, run
from spr.grammar import (
    is_alternative,
    is_normalized,
    parse_grammar,
    validate_regular,
)
from spr.oracle import gen_worstcase, language_upto

FREE_TEXT = """\
alphabet: a
pnonterminals: p
snonterminals: s
axioms: s
rules:
s -> a . a
p -> a
"""


# An A-rule exponent expands into a chain of 3000 parallel nodes.
DEEP_TEXT = """\
alphabet: a
pnonterminals: p
snonterminals: s
axioms: p
rules:
p -> p || s^3000
p -> s^2
s -> a
"""


def long_rule_text(lhs, sep, last="a"):
    """A grammar with one free-form rule of 3000 factors joined by ``sep``."""
    body = f" {sep} ".join(["a"] * 2999 + [last])
    return (
        f"alphabet: a\npnonterminals: p\nsnonterminals: s\naxioms: {lhs}\n"
        f"rules:\n{lhs} -> {body}\n"
    )


@pytest.fixture
def gfile(tmp_path):
    def write(text, name="g.spg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


# ---------------------------------------------------------------------------
# check / normalize
# ---------------------------------------------------------------------------


def test_check_reports_a_regular_grammar(gfile, capsys):
    assert run(["check", gfile(UNIV_TEXT)]) == 0
    out = capsys.readouterr().out
    assert "regular: True" in out
    assert "normalized: False" in out


def test_check_flags_free_rules(gfile, capsys):
    assert run(["check", gfile(FREE_TEXT)]) == 1
    out = capsys.readouterr().out
    assert "regular: False" in out
    assert "free-form right-hand side" in out


def test_check_json(gfile, capsys):
    assert run(["--json", "check", gfile(UNIV_TEXT)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["regular"] is True
    assert data["rules"] == 8
    assert data["offenders"] == []


def test_check_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(GA_TEXT))
    assert run(["check", "-"]) == 0
    assert "regular: True" in capsys.readouterr().out


def test_normalize_round_trips(gfile, capsys):
    assert run(["normalize", gfile(UNIV_TEXT)]) == 0
    g = parse_grammar(capsys.readouterr().out)
    assert is_normalized(g)
    assert not is_alternative(g)


def test_normalize_alternative(gfile, capsys):
    assert run(["normalize", "--alternative", gfile(UNIV_TEXT)]) == 0
    g = parse_grammar(capsys.readouterr().out)
    assert is_normalized(g)
    assert is_alternative(g)


def test_check_reports_the_alternative_form_as_normalized(gfile, capsys):
    assert run(["normalize", "--alternative", gfile(UNIV_TEXT)]) == 0
    alt = gfile(capsys.readouterr().out, "alt.spg")
    # alternation rules are not a regular shape, so the check fails, but the
    # grammar is normalized and compiles into a recognizer as it is
    assert run(["--json", "check", alt]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["regular"] is False
    assert data["normalized"] is True
    assert data["alternative"] is True


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_member_true(gfile, capsys):
    assert run(["member", "-g", gfile(UNIV_TEXT), "-t", "(a || b) . a"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_member_false(gfile, capsys):
    assert run(["member", "-g", gfile(CHAIN_TEXT), "-t", "a || a"]) == 1
    assert capsys.readouterr().out == "false\n"


def test_member_term_from_stdin(gfile, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("a . a . a\n"))
    assert run(["member", "-g", gfile(CHAIN_TEXT), "-t", "-"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_member_json(gfile, capsys):
    assert run(["--json", "member", "-g", gfile(GAB_TEXT), "-t", "b"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"member": True, "graph": "b",
                    "stats": {"compositions": 0, "table_hits": 0, "profiles": 1}}
    # eval_graph's effort: a layer folds its parts in text order, so in
    # a || a || b || b the last of the three parallel steps repeats a pair
    # of profiles that the second made, and in a || b || a || b none does
    assert run(["--json", "member", "-g", gfile(GAB_TEXT), "-t", "a || a || b || b"]) == 1
    assert json.loads(capsys.readouterr().out)["stats"] == {
        "compositions": 2, "table_hits": 1, "profiles": 3}
    assert run(["--json", "member", "-g", gfile(GAB_TEXT), "-t", "a || b || a || b"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["graph"] == "a || a || b || b"
    assert data["stats"] == {"compositions": 3, "table_hits": 0, "profiles": 4}


# ---------------------------------------------------------------------------
# decision commands
# ---------------------------------------------------------------------------


def test_empty_true(gfile, capsys):
    assert run(["empty", gfile(EMPTY_TEXT)]) == 0
    assert capsys.readouterr().out == "true\n"


def test_empty_false_prints_witness(gfile, capsys):
    assert run(["empty", gfile(CHAIN_TEXT)]) == 1
    assert capsys.readouterr().out == "false: witness a . a\n"


def test_intersect_empty(gfile, capsys):
    assert run(["intersect", gfile(CHAIN_TEXT), gfile(BUNDLE_TEXT, "h.spg")]) == 0
    assert capsys.readouterr().out == "true\n"


def test_intersect_shared_graph(gfile, capsys):
    code = run(["intersect", gfile(BUNDLE_TEXT), gfile(EVEN_BUNDLE_TEXT, "h.spg")])
    assert code == 1
    assert capsys.readouterr().out == "false: witness a || a\n"


def test_intersect_decides_a_free_form_first_grammar(gfile, capsys):
    even, chain = gfile(EVEN_CHAIN_TEXT), gfile(CHAIN_TEXT, "h.spg")
    assert run(["intersect", even, chain]) == 1
    assert capsys.readouterr().out == "false: witness a . a\n"
    assert run(["intersect", even, gfile(BUNDLE_TEXT, "b.spg")]) == 0
    # later grammars are compiled into recognizers, so they must be regular
    assert run(["intersect", chain, even]) == 2
    assert "not a regular grammar" in capsys.readouterr().err


def test_include_holds(gfile, capsys):
    assert run(["include", "-l", gfile(GA_TEXT), "-r", gfile(GAB_TEXT, "h.spg")]) == 0
    assert capsys.readouterr().out == "holds\n"


def test_include_fails_with_witness(gfile, capsys):
    code = run(["include", "-l", gfile(GAB_TEXT), "-r", gfile(GA_TEXT, "h.spg")])
    assert code == 1
    assert capsys.readouterr().out == "fails: witness b\n"


def test_include_json_shape(gfile, capsys):
    code = run(
        ["--json", "include", "-l", gfile(GAB_TEXT), "-r", gfile(GA_TEXT, "h.spg")]
    )
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["holds"] is False
    assert data["witness"] == "b"
    assert set(data["stats"]) == {
        "profiles_explored", "iterations", "compositions", "saturation_ms", "witness_ms",
        "wall_ms",
    }


def test_filter_emits_a_grammar(gfile, capsys):
    assert run(["filter", "-l", gfile(BUNDLE_TEXT), "-r", gfile(EVEN_BUNDLE_TEXT, "h.spg")]) == 0
    kept = parse_grammar(capsys.readouterr().out)
    even = parse_grammar(EVEN_BUNDLE_TEXT)
    assert language_upto(kept, 5) == language_upto(even, 5)
    assert run(["filter", "--reject", "-l", gfile(BUNDLE_TEXT), "-r", gfile(EVEN_BUNDLE_TEXT, "h.spg")]) == 0
    dropped = parse_grammar(capsys.readouterr().out)
    assert language_upto(dropped, 5).isdisjoint(language_upto(even, 5))


# ---------------------------------------------------------------------------
# enumerate / stats / gen-worstcase
# ---------------------------------------------------------------------------


def test_enumerate_lists_sorted_graphs(gfile, capsys):
    assert run(["enumerate", "-g", gfile(CHAIN_TEXT), "-n", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a . a",
        "a . a . a",
        "a . a . a . a",
    ]


def test_enumerate_json(gfile, capsys):
    assert run(["--json", "enumerate", "-g", gfile(CHAIN_TEXT), "-n", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 3
    assert data["graphs"][0] == "a . a"


def test_stats(gfile, capsys):
    assert run(["stats", gfile(UNIV_TEXT)]) == 0
    out = capsys.readouterr().out
    assert "serial profiles: 3" in out
    assert "parallel profiles: 8" in out
    assert "saturated: True" in out


def test_stats_json_respects_cap(gfile, capsys):
    assert run(["--json", "--cap", "4", "stats", gfile(UNIV_TEXT)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["saturated"] is False
    assert data["bound"] == 2**96 + 2**24


@pytest.mark.parametrize("cmd", ["stats", "empty"])
def test_negative_cap_is_a_usage_error(gfile, capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        run(["--cap", "-3", cmd, gfile(UNIV_TEXT)])
    assert exc.value.code == 2
    assert "argument --cap: must not be negative, got -3" in capsys.readouterr().err


def test_negative_edge_count_is_a_usage_error(gfile, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["enumerate", "-g", gfile(UNIV_TEXT), "-n", "-3"])
    assert exc.value.code == 2
    assert "argument -n/--edges: must not be negative, got -3" in capsys.readouterr().err


def test_zero_cap_keeps_its_meaning(gfile, capsys):
    assert run(["--cap", "0", "stats", gfile(UNIV_TEXT)]) == 0
    out = capsys.readouterr().out
    assert "serial profiles: 0" in out and "saturated: False" in out
    assert run(["--cap", "0", "empty", gfile(CHAIN_TEXT)]) == 2
    assert "exceeded the cap of 0 states" in capsys.readouterr().err


def test_gen_worstcase_emits_a_parsable_grammar(capsys):
    assert run(["gen-worstcase", "-k", "2"]) == 0
    g = parse_grammar(capsys.readouterr().out)
    assert validate_regular(g).ok
    assert len(g.rules) == 113


def test_gen_worstcase_weighs_its_rules_against_the_cap(capsys):
    for k in range(2, 6):
        assert len(gen_worstcase(k).rules) == 7 * 2 ** (k + 2) + 1
    assert run(["--cap", "113", "gen-worstcase", "-k", "2"]) == 0
    assert len(parse_grammar(capsys.readouterr().out).rules) == 113
    assert run(["--cap", "112", "gen-worstcase", "-k", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: gen-worstcase -k 2 makes 113 rules, more than the cap of 112\n"


def test_seed_flag_is_rejected(gfile, capsys):
    # --seed was parsed but changed nothing; it is no longer an option
    with pytest.raises(SystemExit) as exc:
        run(["--seed", "42", "member", "-g", gfile(GA_TEXT), "-t", "a"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--cap", "x", "empty", "g.spg"], 2, "argument --cap: invalid int value: 'x'"),
        (["--cap"], 2, "argument --cap: expected one argument"),
        (["--json", "--bogus=1", "empty", "g.spg"], 2, "unrecognized arguments: --bogus=1"),
        (["nosuchcommand"], 2, "invalid choice: 'nosuchcommand'"),
        (["-h", "empty"], 0, ""),
    ],
)
def test_options_before_the_subcommand(argv, code, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == code
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------


def test_missing_file_exits_2(capsys):
    assert run(["check", "/no/such/file.spg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_grammar_exits_2(gfile, capsys):
    assert run(["member", "-g", gfile("alphabet: a\nwhat\n"), "-t", "a"]) == 2
    assert "error:" in capsys.readouterr().err


def test_an_exponent_past_the_digit_limit_exits_2_at_its_position(gfile, capsys):
    assert run(["check", gfile(GA_TEXT + "p -> p || s^" + "9" * 5000 + "\n")]) == 2
    assert capsys.readouterr().err.startswith("error: 7:13: exponent has too many digits")


def test_bad_term_exits_2(gfile, capsys):
    assert run(["member", "-g", gfile(GA_TEXT), "-t", "a . ("]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_worstcase_rejects_small_k(capsys):
    assert run(["gen-worstcase", "-k", "1"]) == 2
    assert "k must be >= 2" in capsys.readouterr().err


def test_cap_exceeded_exits_2(gfile, capsys):
    code = run(["--cap", "1", "include", "-l", gfile(BUNDLE_TEXT), "-r", gfile(EVEN_BUNDLE_TEXT, "h.spg")])
    assert code == 2
    assert "exceeded the cap" in capsys.readouterr().err


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_entry_raises_system_exit(gfile, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["spr", "empty", gfile(EMPTY_TEXT)])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0


def test_stats_on_a_bound_too_long_to_print(gfile, capsys):
    assert run(["gen-worstcase", "-k", "2"]) == 0
    path = gfile(capsys.readouterr().out)
    assert run(["--cap", "50", "stats", path]) == 0
    out = capsys.readouterr().out
    assert "saturated: False" in out
    # interpreters without a digit limit for int-to-text print it exactly
    bound = out.split("profile bound: ")[1].strip()
    bits = int(bound[4:]) if bound.startswith("< 2^") else int(bound).bit_length()
    assert run(["--json", "--cap", "50", "stats", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["saturated"] is False
    assert data["bound_bits"] == bits > 4300 * 3
    assert data["serial_profiles"] + data["parallel_profiles"] == 50


def test_stats_reports_the_saturation_effort(gfile, capsys):
    assert run(["stats", gfile(UNIV_TEXT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    effort = dict(line.split(": ") for line in lines[3:5])
    assert set(effort) == {"compositions", "table hits"}
    assert int(effort["compositions"]) > 0 and int(effort["table hits"]) >= 0
    assert run(["--json", "stats", gfile(UNIV_TEXT)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"serial_profiles", "parallel_profiles", "saturated", "bound",
                         "bound_bits", "working_nonterminals", "stats"}
    assert data["stats"] == {"compositions": int(effort["compositions"]),
                             "table_hits": int(effort["table hits"]),
                             "profiles": 11}
    assert run(["--json", "--cap", "4", "stats", gfile(UNIV_TEXT)]) == 0
    assert json.loads(capsys.readouterr().out)["stats"]["profiles"] == 4


def test_stats_json_reports_bound_bits(gfile, capsys):
    assert run(["--json", "stats", gfile(UNIV_TEXT)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bound_bits"] == data["bound"].bit_length() == 97


def test_empty_reports_its_effort(gfile, capsys):
    assert run(["--json", "empty", gfile(CHAIN_TEXT)]) == 1
    data = json.loads(capsys.readouterr().out)
    assert set(data["stats"]) == {
        "profiles_explored", "iterations", "compositions", "saturation_ms", "witness_ms",
        "wall_ms",
    }
    assert data["stats"]["profiles_explored"] == 2  # p and s
    assert data["stats"]["iterations"] >= 2


# ---------------------------------------------------------------------------
# deep and long rule bodies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op", [".", "||"])
def test_member_of_a_deeply_nested_term(gfile, capsys, op):
    term = f"a {op} (" * 4999 + "a" + ")" * 4999
    assert run(["member", "-g", gfile(UNIV_TEXT), "-t", term]) == 0
    assert capsys.readouterr().out == "true\n"


@pytest.mark.parametrize("op", [".", "||"])
def test_member_of_a_long_flat_term(gfile, capsys, monkeypatch, op):
    monkeypatch.setattr("sys.stdin", io.StringIO(f" {op} ".join(["a"] * 20000) + "\n"))
    assert run(["member", "-g", gfile(UNIV_TEXT), "-t", "-"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_deep_exponents_do_not_crash(gfile, capsys):
    deep = gfile(DEEP_TEXT)
    assert run(["empty", deep]) == 1
    assert capsys.readouterr().out == "false: witness a || a\n"
    assert run(["include", "-l", deep, "-r", deep]) == 0
    assert run(["filter", "-l", deep, "-r", deep]) == 0
    assert "s$v0 || s$v0" in capsys.readouterr().out
    assert run(["enumerate", "-g", deep, "-n", "4"]) == 0
    assert capsys.readouterr().out == "a || a\n"  # the next graph has 3002 edges
    assert run(["member", "-g", deep, "-t", "a || a"]) == 0


@pytest.mark.parametrize("lhs,sep", [("s", "."), ("p", "||")])
def test_long_free_rules_do_not_crash(gfile, capsys, lhs, sep):
    path = gfile(long_rule_text(lhs, sep))
    assert run(["check", path]) == 1
    assert "free-form right-hand side" in capsys.readouterr().out
    assert run(["empty", path]) == 1
    assert capsys.readouterr().out.count(f" {sep} ") == 2999
    assert run(["normalize", path]) == 2
    assert "cannot normalize a non-regular grammar" in capsys.readouterr().err


def test_bad_label_in_a_long_rule_exits_2(gfile, capsys):
    assert run(["check", gfile(long_rule_text("s", ".", last="z"))]) == 2
    err = capsys.readouterr().err
    assert "label 'z' not in alphabet in s -> a . a" in err
    assert err.rstrip().endswith("a . z")
