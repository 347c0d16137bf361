import pytest

from spr import parse_grammar

# The grammar of *all* SP graphs over {a, b}: every serial and parallel
# composition is derivable, and both single edges are.
UNIV_TEXT = """\
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

# Language {a} (the alphabet still declares b, so it can be compared
# against grammars over {a, b}).
GA_TEXT = """\
alphabet: a b
pnonterminals: p
snonterminals: s
axioms: p
rules:
p -> a
"""

# Language {a, b}.
GAB_TEXT = """\
alphabet: a b
pnonterminals: p
snonterminals: s
axioms: p
rules:
p -> a
p -> b
"""

# Serial chains a . a . ... . a (>= 2 edges).
CHAIN_TEXT = """\
alphabet: a
pnonterminals: p
snonterminals: s
axioms: s
rules:
s -> p . s
s -> p . p
p -> a
"""

# Parallel bundles a || ... || a of any width >= 2.
BUNDLE_TEXT = """\
alphabet: a
pnonterminals: p
snonterminals: s
axioms: p
rules:
p -> p || s
p -> s || s
s -> a
"""

# Parallel bundles of even width only.
EVEN_BUNDLE_TEXT = """\
alphabet: a
pnonterminals: p
snonterminals: s
axioms: p
rules:
p -> p || s^2
p -> s^2
s -> a
"""

# Chains a . a . ... . a of even length, by a free-form (non-regular) rule.
EVEN_CHAIN_TEXT = """\
alphabet: a
pnonterminals: p
snonterminals: s
axioms: s
rules:
s -> a . s . a
s -> a . a
"""

# No derivable graph at all (the only S-rule never terminates).
EMPTY_TEXT = """\
alphabet: a
pnonterminals: p
snonterminals: s
axioms: s
rules:
s -> p . s
p -> a
"""


@pytest.fixture
def univ():
    return parse_grammar(UNIV_TEXT)


@pytest.fixture
def ga():
    return parse_grammar(GA_TEXT)


@pytest.fixture
def gab():
    return parse_grammar(GAB_TEXT)


@pytest.fixture
def chain():
    return parse_grammar(CHAIN_TEXT)


@pytest.fixture
def bundle():
    return parse_grammar(BUNDLE_TEXT)


@pytest.fixture
def even_bundle():
    return parse_grammar(EVEN_BUNDLE_TEXT)


@pytest.fixture
def empty_grammar():
    return parse_grammar(EMPTY_TEXT)
