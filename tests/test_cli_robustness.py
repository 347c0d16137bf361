"""Every input the CLI accepts ends in exit 0, 1 or 2 with a message, never
in an uncaught exception: generated grammar texts (``gen_random_grammar``
output, free-form rule bodies, and corruptions of both) and term texts,
through ``check``, ``stats``, ``empty`` and ``member``, and deep grammars
through ``enumerate``."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spr.cli import run
from spr.grammar import format_grammar
from spr.oracle import gen_random_grammar, gen_worstcase
from spr.spgraph import format_graph, parse_graph, random_graph

# pieces spliced into a text to corrupt it (no digits but "0", so an
# exponent grows by at most a factor of ten)
PIECES = ["->", "||", ".", "(", ")", "^", "^2", "0", "#", "\n", " ", "A", "?",
          ":", "x", "a", "p0", "s0", "s1", "rules:", "axioms: q\n", "$", "-"]
TERM_TOKENS = ["a", "b", "c", "p0", "s0", "(", ")", ".", "||", "^2", " ", "\n", "#x\n"]


def corrupt(text: str, rnd: random.Random) -> str:
    for _ in range(rnd.randint(1, 3)):
        k = rnd.randint(0, len(text))
        if rnd.random() < 0.25:  # drop a span
            text = text[:k] + text[k + rnd.randint(1, 12):]
        else:
            text = text[:k] + rnd.choice(PIECES) + text[k:]
    return text


def free_rules(rnd: random.Random) -> str:
    """Rules with free-form bodies over the names of ``gen_random_grammar``."""
    lines = []
    for _ in range(rnd.randint(1, 3)):
        body = " ".join(rnd.choice(TERM_TOKENS[:9]) for _ in range(rnd.randint(1, 9)))
        lines.append(f"{rnd.choice(['p0', 's0'])} -> {body}\n")
    return "".join(lines)


@st.composite
def grammar_texts(draw):
    text = format_grammar(gen_random_grammar(draw(st.integers(0, 10**6))))
    rnd = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        text += free_rules(rnd)
    if draw(st.booleans()):
        text = corrupt(text, rnd)
    return text


@st.composite
def term_texts(draw):
    rnd = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        text = format_graph(random_graph(rnd, rnd.randint(1, 30), rnd.choice(["a", "ab", "abc"])))
    else:
        text = "".join(rnd.choice(TERM_TOKENS) for _ in range(rnd.randint(0, 20)))
    return corrupt(text, rnd) if draw(st.booleans()) else text


def call(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()
    return code, out.getvalue()


@pytest.fixture(scope="module")
def grammar_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("robust") / "g.spg"

    def write(text):
        path.write_text(text)
        return str(path)

    return write


@settings(max_examples=60, deadline=None)
@given(grammar_texts())
def test_grammar_commands_end_in_an_exit_code(text):
    for cmd in ("check", "stats", "empty"):
        call(["--cap", "40", cmd, "-"], stdin=text)


@settings(max_examples=60, deadline=None)
@given(grammar_texts(), term_texts())
def test_member_ends_in_an_exit_code(grammar_file, grammar, term):
    call(["member", "-g", grammar_file(grammar), "-t", "-"], stdin=term)


def deep_chain(levels: int, routes: int = 1) -> str:
    """``s_i -> p_i . a`` and ``p_i -> s_{i+1} || a`` down to ``s_levels -> a``,
    so one graph of ``2 * levels + 1`` edges nested ``levels`` deep; with
    ``routes=2`` each ``p_i`` has a twin ``q_i`` that derives the same."""
    heads = ["p", "q"][:routes]
    lines = [
        "alphabet: a",
        "pnonterminals: " + " ".join(f"{h}{i}" for h in heads for i in range(levels)),
        "snonterminals: " + " ".join(f"s{i}" for i in range(levels + 1)),
        "axioms: s0",
        "rules:",
        f"s{levels} -> a",
    ]
    for i in range(levels):
        for h in heads:
            lines += [f"s{i} -> {h}{i} . a", f"{h}{i} -> s{i + 1} || a"]
    return "\n".join(lines) + "\n"


def test_enumerate_expands_a_deep_chain(grammar_file):
    code, out = call(["enumerate", "-g", grammar_file(deep_chain(300)), "-n", "601"])
    assert code == 0
    graphs = out.splitlines()
    assert len(graphs) == 1
    assert parse_graph(graphs[0]).edges == 601


def test_enumerate_of_a_deep_chain_with_twin_routes_ends_in_an_exit_code(grammar_file):
    # equal deep partial terms, reached by both routes, are compared
    code, out = call(["enumerate", "-g", grammar_file(deep_chain(300, routes=2)), "-n", "601"])
    assert code == 0
    graphs = out.splitlines()
    assert len(graphs) == 1
    assert parse_graph(graphs[0]).edges == 601


# Runs ``spr`` with the arguments after the first, with this process's
# address space limited to the first argument's megabytes above what it maps
# after the imports.
LIMITED = """\
import resource, sys
from spr.cli import entry
with open("/proc/self/status") as f:
    size = next(int(line.split()[1]) * 1024 for line in f if line.startswith("VmSize:"))
headroom = int(sys.argv[1]) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (size + headroom, resource.RLIM_INFINITY))
sys.argv = ["spr", *sys.argv[2:]]
entry()
"""

needs_proc = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="needs /proc/self/status"
)


def src_env() -> dict:
    """This environment with the package's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_limited(args, timeout, headroom_mb=64, stdin=""):
    return subprocess.run(
        [sys.executable, "-c", LIMITED, str(headroom_mb), *args],
        input=stdin, capture_output=True, text=True, env=src_env(), timeout=timeout,
    )


@needs_proc
def test_running_out_of_memory_ends_in_exit_2(tmp_path):
    # spr stats on the k = 2 string-matching grammar at the default cap
    # needs hundreds of megabytes; the leaner the closure, the longer it runs
    # before it has used up a headroom, so the headroom is small
    grammar = tmp_path / "wc2.spg"
    grammar.write_text(format_grammar(gen_worstcase(2)))
    proc = run_limited(["stats", str(grammar)], timeout=120, headroom_mb=16)
    assert (proc.returncode, proc.stderr) == (2, "error: out of memory (try a smaller --cap)\n")
    assert proc.stdout == ""


UNIVERSAL = """\
alphabet: a b
pnonterminals: p
snonterminals: s
axioms: p s
rules:
p -> p || s
p -> s || s
s -> p . s
s -> p . p
p -> a
p -> b
s -> a
s -> b
"""


@pytest.mark.parametrize("module", ["spr", "spr.cli"])
@pytest.mark.parametrize("term, code, out, err", [
    ("a . b", 0, "true\n", ""),
    ("c", 2, "", "error: label 'c' not in the grammar's alphabet\n"),
], ids=["member", "foreign-label"])
def test_python_dash_m_runs_the_command(tmp_path, module, term, code, out, err):
    grammar = tmp_path / "univ.spg"
    grammar.write_text(UNIVERSAL)
    proc = subprocess.run(
        [sys.executable, "-m", module, "member", "-g", str(grammar), "-t", term],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@needs_proc
@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="no int-to-text digit limit: the bound is printed whole")
def test_stats_reports_the_bits_of_a_bound_it_cannot_print(tmp_path):
    # the k = 8 string-matching grammar's bound has 4,148,209,243 bits, so
    # only its bit count is printed; building the int ran out of memory
    grammar = tmp_path / "wc8.spg"
    grammar.write_text(format_grammar(gen_worstcase(8)))
    proc = run_limited(["--json", "--cap", "10", "stats", str(grammar)], timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    data = json.loads(proc.stdout)
    assert (data["bound"], data["bound_bits"]) == (None, 4148209243)
    assert data["serial_profiles"] + data["parallel_profiles"] == 10


@needs_proc
def test_member_of_a_deep_alternating_nest_stays_small(tmp_path):
    # 32,000 edges nested serial and parallel in turn; a node that kept its
    # key string would need gigabytes, and only --json prints the graph back
    grammar = tmp_path / "univ.spg"
    grammar.write_text(UNIVERSAL)
    levels = 31999
    term = "".join(("a . (", "a || (")[i % 2] for i in range(levels)) + "a" + ")" * levels
    proc = run_limited(["member", "-g", str(grammar), "-t", "-"], timeout=120, stdin=term)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "true\n")


NINE_DIGITS = """\
alphabet: a b
pnonterminals: p q
snonterminals: s t
axioms: p
rules:
p -> p || s^999999999
p -> s^3
s -> a
s -> b
t -> a
"""


@needs_proc
@pytest.mark.parametrize(
    "command,alt,code,report",
    [
        ("check", False, 0, "regular: True"),
        ("normalize", False, 0, "p -> p || s^999999999"),
        ("check", True, 1, "  not regular: single-nonterminal alternation is not a regular shape"),
    ],
)
def test_a_nine_digit_exponent_is_read_as_a_count(tmp_path, command, alt, code, report):
    # expanded into its copies, the exponent would need about 100 GB; as a
    # count it is read at once, within the 64 MB left to the process
    grammar = tmp_path / "nine.spg"
    grammar.write_text(NINE_DIGITS + ("q -> t\n" if alt else ""))
    proc = run_limited([command, str(grammar)], timeout=20)
    assert (proc.returncode, proc.stderr) == (code, "")
    assert report in proc.stdout.splitlines()


@needs_proc
@pytest.mark.parametrize(
    "k,rules", [("16", "1835009"), ("100000000", "7 * 2^100000002 + 1")], ids=["k16", "k1e8"])
def test_gen_worstcase_past_the_cap_exits_2_before_building(k, rules):
    # at the default cap of 1,000,000 rules; building the k = 100000000
    # grammar would fill any memory, its word lists first
    start = time.perf_counter()
    proc = run_limited(["gen-worstcase", "-k", k], timeout=20)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: gen-worstcase -k {k} makes {rules} rules, more than the cap of 1000000\n")
    assert elapsed < 1.0


def _one_p_grammar(body: str) -> str:
    return "\n".join(["alphabet: a", "pnonterminals: p", "snonterminals: s", "axioms: p",
                      "rules:", f"p -> {body}", "p -> a", "s -> a"]) + "\n"


@pytest.mark.parametrize("command", ["check", "normalize", "empty"])
def test_a_summed_count_past_the_digit_limit_is_a_positioned_error(grammar_file, command):
    # each exponent has 4,300 digits, which the interpreter reads; their sum
    # has 4,301, which it will not print
    n = "9" * 4300
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run([command, grammar_file(_one_p_grammar(f"s^{n} || s^{n}"))]) == 2
    assert err.getvalue() == "error: 6:6: exponents of s sum to a count with too many digits\n"


@pytest.mark.parametrize("body", ["s^99999999999999999999 || s", "p || s^99999999999999999999"],
                         ids=["B", "A"])
def test_a_count_past_an_index_exits_2_naming_the_rule(grammar_file, body):
    # the count is read and printed, but a term cannot hold that many copies
    path = grammar_file(_one_p_grammar(body))
    assert call(["check", path])[0] == 0
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run(["empty", path]) == 2
    rule = "p -> " + body.replace("99999999999999999999 || s", "100000000000000000000")
    assert err.getvalue() == f"error: rule {rule!r}: s has more copies than a term can hold\n"
