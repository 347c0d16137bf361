"""Seeded input generators: every grammar and graph is produced here as text.

Nothing in this module imports spr, so the inputs of a seed stay the same
whatever the program under test does.
"""

from __future__ import annotations

import itertools
import re

# The grammar of all SP graphs over {a, b}.
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


def _grammar(alphabet, pnames, snames, axioms, rules) -> str:
    return "\n".join(
        [
            "alphabet: " + " ".join(alphabet),
            "pnonterminals: " + " ".join(pnames),
            "snonterminals: " + " ".join(snames),
            "axioms: " + " ".join(axioms),
            "rules:",
            *rules,
        ]
    ) + "\n"


def chain_grammar(m: int, r: int) -> str:
    """Serial chains a . a . ... . a of n >= 1 edges with n = r (mod m).

    ``c{i}`` derives the chains of length n with i + n = r (mod m); the
    alphabet also declares ``b`` so the grammar compares with UNIVERSAL.
    """
    r %= m
    snames = [f"c{i}" for i in range(m)]
    rules = ["p -> a"]
    for i in range(m):
        rules.append(f"c{i} -> p . c{(i + 1) % m}")
        if (i + 2) % m == r:
            rules.append(f"c{i} -> p . p")
        if (i + 1) % m == r:
            rules.append(f"c{i} -> a")
    return _grammar(("a", "b"), ("p",), snames, ("c0",), rules)


def bundle_grammar(periods, base, tag: str = "") -> str:
    """Bundles a || ... || a whose width is base + sum_i x_i * periods[i].

    One S-variable per period, each deriving the same label, so the parallel
    profile of a bundle is a sum over every way of splitting its width.
    ``base`` (at least 2) is the width of the layer that finishes the bundle,
    spelt over the first variable.  ``tag`` is appended to every
    nonterminal name, so that copies of the grammar share no profile.
    """
    p = "p" + tag
    snames = [f"s{i}{tag}" for i in range(len(periods))]
    rules = [f"{p} -> {p} || {s}^{n}" for s, n in zip(snames, periods)]
    rules.append(f"{p} -> {snames[0]}^{base}")
    rules += [f"{s} -> a" for s in snames]
    return _grammar(("a",), (p,), snames, (p,), rules)


def worstcase_grammar(k: int, tag: str = "") -> str:
    """The string-matching family: graphs ``(c || path) . u`` where path
    spells ``(w d w' h)* u d v h (w d w' h)* v`` for u, v in {a,b}^k and
    junk w, w' in {a,b}*.  Tracking which u is being matched forces
    exponentially many serial profiles in k.

    ``tag`` is appended to every nonterminal name, so that copies of the
    grammar share no profile.
    """
    words = {j: ["".join(t) for t in itertools.product("ab", repeat=j)] for j in range(k + 1)}
    full = words[k]
    alphabet = ("a", "b", "c", "d", "h")
    pnames = [f"p_{u}" for u in full] + [f"q_{ch}" for ch in alphabet]
    snames = ["start", "sc", "s0", "s2"]
    for j in range(1, k + 1):
        for pre in ("s0", "s3", "s5"):
            snames += [f"{pre}_{x}" for x in words[j]]
    for pre in ("s1", "s2", "s4", "s6", "s7"):
        snames += [f"{pre}_{u}" for u in full]

    rules = ["sc -> c"] + [f"q_{ch} -> {ch}" for ch in alphabet]
    for u in full:
        rules.append(f"start -> p_{u} . s5_{u}")
        rules.append(f"p_{u} -> s0_{u} || sc")
    for j in range(1, k + 1):
        for x in words[j]:
            rest = f"s0_{x[1:]}" if len(x) > 1 else "s0"
            rules.append(f"s0_{x} -> q_{x[0]} . {rest}")
    rules.append("s0 -> q_d . s2")
    for u in full:
        for ch in "ab":
            rules.append(f"s0_{u} -> q_{ch} . s1_{u}")
            rules.append(f"s1_{u} -> q_{ch} . s1_{u}")
            rules.append(f"s2_{u} -> q_{ch} . s2_{u}")
        rules.append(f"s0_{u} -> q_d . s2_{u}")
        rules.append(f"s1_{u} -> q_d . s2_{u}")
        rules.append(f"s2_{u} -> q_h . s0_{u}")
    for ch in "ab":
        rules.append(f"s2 -> q_{ch} . s3_{ch}")
    for j in range(1, k):
        for y in words[j]:
            for ch in "ab":
                rules.append(f"s3_{y} -> q_{ch} . s3_{y + ch}")
    for v in full:
        rules.append(f"s3_{v} -> q_h . s4_{v}")
    for v in full:
        for ch in "ab":
            rules.append(f"s4_{v} -> q_{ch} . s6_{v}")
            rules.append(f"s6_{v} -> q_{ch} . s6_{v}")
            rules.append(f"s7_{v} -> q_{ch} . s7_{v}")
        rules.append(f"s4_{v} -> q_d . s7_{v}")
        rules.append(f"s6_{v} -> q_d . s7_{v}")
        rules.append(f"s7_{v} -> q_h . s4_{v}")
        rules.append(f"s4_{v} -> q_{v[0]} . s5_{v[1:]}")
    for j in range(2, k + 1):
        for x in words[j]:
            rules.append(f"s5_{x} -> q_{x[0]} . s5_{x[1:]}")
    for ch in "ab":
        rules.append(f"s5_{ch} -> {ch}")
    text = _grammar(alphabet, pnames, snames, ("start",), rules)
    if tag:
        names = sorted(pnames + snames, key=len, reverse=True)
        text = re.sub(r"\b(?:" + "|".join(names) + r")\b", lambda m: m.group() + tag, text)
    return text


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def random_graph(rng, n_edges: int, labels) -> str:
    """A uniformly-split random SP graph with ``n_edges`` edges, as text.

    Each inner node splits its edges at a uniform point and is serial or
    parallel with equal odds; built bottom-up without recursion.
    """
    labels = list(labels)
    out: list = []  # (text, kind) with kind "b", "s" or "p"
    tasks = [("gen", n_edges)]
    while tasks:
        task = tasks.pop()
        if task[0] == "gen":
            m = task[1]
            if m == 1:
                out.append((rng.choice(labels), "b"))
                continue
            i = rng.randint(1, m - 1)
            tasks.append(("mk", rng.choice("sp")))
            tasks.append(("gen", m - i))
            tasks.append(("gen", i))
            continue
        (tb, kb), (ta, ka) = out.pop(), out.pop()
        if task[1] == "s":
            # serial binds tighter than parallel: parenthesise parallel parts
            ta = f"({ta})" if ka == "p" else ta
            tb = f"({tb})" if kb == "p" else tb
            out.append((f"{ta} . {tb}", "s"))
        else:
            out.append((f"{ta} || {tb}", "p"))
    return out[0][0]


def nested_graph(rng, depth: int, width: int) -> str:
    """An alternately nested graph: each level puts the graph so far in
    series with ``width`` random edges, then in parallel with one more."""
    text = rng.choice("ab")
    for _ in range(depth):
        tail = " . ".join(rng.choice("ab") for _ in range(width))
        text = f"({text}) . {tail} || {rng.choice('ab')}"
    return text


def junk_block(rng, max_len: int) -> str:
    """``w d w' h`` with junk words of length at most ``max_len``."""
    w = "".join(rng.choice("ab") for _ in range(rng.randint(0, max_len)))
    w2 = "".join(rng.choice("ab") for _ in range(rng.randint(0, max_len)))
    return w + "d" + w2 + "h"


def worstcase_member(rng, k: int, n_blocks: int, max_len: int) -> tuple[str, str]:
    """(path, trailer) of a graph in ``worstcase_grammar(k)``: n_blocks junk
    blocks with the matching block ``u d v h`` at a random place."""
    u = "".join(rng.choice("ab") for _ in range(k))
    v = "".join(rng.choice("ab") for _ in range(k))
    blocks = [junk_block(rng, max_len) for _ in range(n_blocks)]
    blocks.insert(rng.randint(0, n_blocks), u + "d" + v + "h")
    return "".join(blocks) + v, u


def mutate(rng, path: str, start: int = 0) -> str:
    """Replace one a/b letter of ``path`` at or after ``start`` by the other."""
    spots = [i for i, ch in enumerate(path) if ch in "ab" and i >= start]
    i = rng.choice(spots)
    return path[:i] + ("b" if path[i] == "a" else "a") + path[i + 1:]


def worstcase_graph_text(path: str, trailer: str) -> str:
    return f"(c || {' . '.join(path)}) . {' . '.join(trailer)}"


def bundle_text(width: int, label: str = "a") -> str:
    return " || ".join([label] * width)
