"""Verdict references that never call spr's recognizer or deciders.

Each reference derives the expected answer from how the input was built:
label sets, string conditions, length and width arithmetic.  Graph
structure is read from spr's canonical graph objects, which is parsing,
not deciding.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

from spr import oracle
from spr.spgraph import Bridge, PNode, SNode

_LABEL_RE = re.compile(r"[a-z][a-z0-9_]*")


def labels_within(text: str, alphabet) -> bool:
    """The universal grammar over ``alphabet`` holds every graph on it."""
    return set(_LABEL_RE.findall(text)) <= set(alphabet)


@lru_cache(maxsize=None)
def _worstcase_re(k: int):
    block = "(?:[ab]*d[ab]*h)*"
    return re.compile(rf"{block}([ab]{{{k}}})d([ab]{{{k}}})h{block}\2,\1")


def worstcase_strings(path: str, trailer: str, k: int) -> bool:
    """The docstring condition of the string-matching family: path spells
    ``(w d w' h)* u d v h (w d w' h)* v`` and the trailer is u."""
    return _worstcase_re(k).fullmatch(f"{path},{trailer}") is not None


def worstcase_graph(g, k: int) -> bool:
    """Membership of a canonical graph: it must be ``(c || path) . u`` with
    path a chain of single edges, and the strings must match."""
    if not isinstance(g, SNode):
        return False
    head, tail = g.children[0], g.children[1:]
    if not isinstance(head, PNode) or len(head.children) != 2:
        return False
    if not all(isinstance(c, Bridge) for c in tail):
        return False
    rest = [c for c in head.children if not (isinstance(c, Bridge) and c.label == "c")]
    if len(rest) != 1:
        return False
    path = chain_labels(rest[0])
    if path is None:
        return False
    return worstcase_strings(path, "".join(c.label for c in tail), k)


def chain_labels(g):
    """The labels of a chain of single edges, or None for any other graph."""
    if isinstance(g, Bridge):
        return g.label
    if isinstance(g, SNode) and all(isinstance(c, Bridge) for c in g.children):
        return "".join(c.label for c in g.children)
    return None


def chain_member(n: int, m: int, r: int) -> bool:
    return n >= 1 and (n - r) % m == 0


def min_common_chain(a: int, ra: int, b: int, rb: int):
    """Shortest chain length in both residue languages, or None."""
    for n in range(1, math.lcm(a, b) + 1):
        if chain_member(n, a, ra) and chain_member(n, b, rb):
            return n
    return None


def min_chain_outside(m: int, r: int, m2: int, r2: int):
    """Shortest chain length with residue r mod m but not r2 mod m2."""
    for n in range(1, math.lcm(m, m2) + 1):
        if chain_member(n, m, r) and not chain_member(n, m2, r2):
            return n
    return None


def bundle_widths(periods, base: int, limit: int) -> list:
    """``out[w]`` tells whether base + sum_i x_i * periods[i] = w for some x >= 0."""
    out = [False] * (limit + 1)
    if base <= limit:
        out[base] = True
    for w in range(base + 1, limit + 1):
        out[w] = any(w - p >= base and out[w - p] for p in periods)
    return out


def bundle_classes(periods, base: int) -> int:
    """Bundles that some extension tells apart need distinct parallel
    profiles: count the classes of widths 1..horizon by which extensions
    they accept (a lower bound on a saturation's parallel profiles)."""
    horizon = base + 2 * math.lcm(*periods) + max(periods)
    widths = bundle_widths(periods, base, 3 * horizon)
    return len({tuple(widths[w:w + horizon]) for w in range(1, horizon + 1)})


def small_member(g, graph, limit: int = 4):
    """Cross-check by brute-force enumeration, for graphs of at most
    ``limit`` edges; None when the graph is too large to enumerate."""
    if graph.edges > limit:
        return None
    return any(graph in oracle.lang_from(g, x, graph.edges) for x in g.axioms)
