"""Regular grammars describing sets of series-parallel graphs.

Nonterminals are split into two kinds: P-kind ones derive parallel
compositions (and single edges), S-kind ones derive serial compositions (and
single edges).  A grammar is *regular* when every rule has one of the shapes

    A   p -> p || s^l        grow a parallel layer (self-referential)
    B   p -> s1^l1 || ... || sk^lk      finish a parallel layer (sum li >= 2)
    C   s -> p . s1          grow a serial layer
    D   s -> p1 . p2         finish a serial layer
    E   p -> a               a single edge
    F   s -> a               a single edge

Two further shapes exist internally: ``Alt`` rules ``p -> s`` (produced when
every edge rule is routed through a labelled S-copy, see ``to_alternative``)
and ``Free`` rules whose right-hand side is an arbitrary term over labels and
nonterminals (these make the grammar non-regular but are still usable by the
enumeration and filtering machinery).

Each rule kind is a frozen dataclass whose first field is the rule's head,
which every kind reads as ``lhs``.  A grammar is *normalized* when
``normalize`` would copy nothing and no ``Alt`` rule names a variable
periodic for its head (see ``is_normalized``).

The text format mirrors the constructors::

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
    s -> a

Exponents ``s^2`` abbreviate repeated parallel factors and are only accepted
where the A/B/Alt shapes can absorb them.

``parse_grammar`` reads a rule body in one pass: the term reader hands over
its term, whose ``Serial``/``Parallel`` layers hold all their parts, with
each ``s^k`` kept as the pair ``(leaf, k)``, and the regular shapes are read
off those layers, so an exponent stays a count and costs its digits, not
its value.  Only a free-form body (where an exponent is an error) is kept
as a ``Term``.  ``rule_rhs_term`` gives an A- or B-rule body back as one
parallel layer, in which ``s^k`` is k parts sharing one ``Ref``.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass, fields, replace
from typing import Union

from .spgraph import (
    LABEL_RE,
    NAME_RE,
    Atom,
    Parallel,
    ParseError,
    Ref,
    Serial,
    Term,
    _TermParser,
    _flat,
    fold_term,
    format_term,
)


class GrammarError(ValueError):
    pass


class _Rule:
    """A rule kind: a frozen dataclass whose first field is the rule's
    head."""

    @property
    def lhs(self) -> str:
        return getattr(self, self.__match_args__[0])


@dataclass(frozen=True)
class RuleA(_Rule):
    p: str
    s: str
    ell: int


@dataclass(frozen=True)
class RuleB(_Rule):
    p: str
    body: tuple[tuple[str, int], ...]  # sorted by name, exponents >= 1


@dataclass(frozen=True)
class RuleC(_Rule):
    s: str
    p: str
    s1: str


@dataclass(frozen=True)
class RuleD(_Rule):
    s: str
    p1: str
    p2: str


@dataclass(frozen=True)
class RuleE(_Rule):
    p: str
    a: str


@dataclass(frozen=True)
class RuleF(_Rule):
    s: str
    a: str


@dataclass(frozen=True)
class RuleAlt(_Rule):
    p: str
    s: str


@dataclass(frozen=True)
class RuleFree(_Rule):
    name: str
    rhs: Term


Rule = Union[RuleA, RuleB, RuleC, RuleD, RuleE, RuleF, RuleAlt, RuleFree]

REGULAR_KINDS = (RuleA, RuleB, RuleC, RuleD, RuleE, RuleF)


def _ignore(*_):
    """A leaf or node action for folds that only collect leaves."""


@dataclass(frozen=True)
class Grammar:
    alphabet: tuple[str, ...]
    pnames: tuple[str, ...]
    snames: tuple[str, ...]
    axioms: tuple[str, ...]
    rules: tuple[Rule, ...]

    def __post_init__(self):
        for f in ("alphabet", "pnames", "snames", "axioms", "rules"):
            object.__setattr__(self, f, tuple(getattr(self, f)))
        seen = set()
        for a in self.alphabet:
            if not LABEL_RE.match(a):
                raise GrammarError(f"bad label {a!r}")
            if a in seen:
                raise GrammarError(f"duplicate label {a!r}")
            seen.add(a)
        names = set()
        for n in self.pnames + self.snames:
            if not NAME_RE.match(n):
                raise GrammarError(f"bad nonterminal name {n!r}")
            if n in names or n in seen:
                raise GrammarError(f"duplicate or label-shadowing name {n!r}")
            names.add(n)
        for x in self.axioms:
            if x not in names:
                raise GrammarError(f"axiom {x!r} is not a declared nonterminal")
        if len(set(self.axioms)) != len(self.axioms):
            raise GrammarError("duplicate axiom")
        p = set(self.pnames)
        s = set(self.snames)
        for r in self.rules:
            self._check_rule(r, p, s)
        # rule sets: duplicates dropped, first occurrence wins
        object.__setattr__(self, "rules", tuple(dict.fromkeys(self.rules)))

    def _check_rule(self, r, p, s):
        def want(x, kind):
            pool = p if kind == "P" else s
            if x not in pool:
                raise GrammarError(
                    f"{x!r} is not a declared {kind}-nonterminal in {format_rule(r)}"
                )

        if isinstance(r, RuleA):
            want(r.p, "P"), want(r.s, "S")
            if r.ell < 1:
                raise GrammarError(f"exponent must be >= 1 in {format_rule(r)}")
        elif isinstance(r, RuleB):
            want(r.p, "P")
            if not r.body or r.body != tuple(sorted(r.body)):
                raise GrammarError(
                    f"rule body must be sorted and non-empty in {format_rule(r)}"
                )
            names = [v for v, _ in r.body]
            if len(set(names)) != len(names):
                raise GrammarError(f"repeated variable in body of {format_rule(r)}")
            for v, e in r.body:
                want(v, "S")
                if e < 1:
                    raise GrammarError(f"exponent must be >= 1 in {format_rule(r)}")
            if sum(e for _, e in r.body) < 2:
                raise GrammarError(
                    f"parallel body needs at least two factors in {format_rule(r)}"
                )
        elif isinstance(r, RuleC):
            want(r.s, "S"), want(r.p, "P"), want(r.s1, "S")
        elif isinstance(r, RuleD):
            want(r.s, "S"), want(r.p1, "P"), want(r.p2, "P")
        elif isinstance(r, (RuleE, RuleF)):
            want(r.lhs, "P" if isinstance(r, RuleE) else "S")
            if r.a not in self.alphabet:
                raise GrammarError(f"label {r.a!r} not in alphabet in {format_rule(r)}")
        elif isinstance(r, RuleAlt):
            want(r.p, "P"), want(r.s, "S")
        elif isinstance(r, RuleFree):
            if r.name not in p and r.name not in s:
                raise GrammarError(f"undeclared nonterminal {r.name!r} in {format_rule(r)}")
            labels, refs = [], []
            fold_term(r.rhs, labels.append, refs.append, _ignore, _ignore)
            for n in labels:
                if n not in self.alphabet:
                    raise GrammarError(f"label {n!r} not in alphabet in {format_rule(r)}")
            for n in refs:
                if n not in p and n not in s:
                    raise GrammarError(f"undeclared nonterminal {n!r} in {format_rule(r)}")
        else:
            raise GrammarError(f"unknown rule object {r!r}")

    # -- small conveniences --------------------------------------------------

    def rules_for(self, name: str) -> list[Rule]:
        return [r for r in self.rules if r.lhs == name]


def _derived(g: Grammar, **parts) -> Grammar:
    """``g`` with some of its parts replaced, built without ``Grammar``'s
    check: the callers derive the new parts from ``g``'s checked ones, with
    fresh names only, so the check would find nothing."""
    out = object.__new__(Grammar)
    for f in fields(Grammar):
        object.__setattr__(out, f.name, tuple(parts.get(f.name, getattr(g, f.name))))
    return out


@dataclass(frozen=True)
class RegularityReport:
    ok: bool
    offenders: tuple[tuple[Rule, str], ...] = ()


def validate_regular(g: Grammar) -> RegularityReport:
    bad = []
    for r in g.rules:
        if isinstance(r, REGULAR_KINDS):
            continue
        if isinstance(r, RuleAlt):
            bad.append((r, "single-nonterminal alternation is not a regular shape"))
        else:
            bad.append((r, "free-form right-hand side"))
    return RegularityReport(not bad, tuple(bad))


def _require_regular(g: Grammar, what: str) -> None:
    """Raise ``GrammarError`` "``what``: <first offence>" unless ``g`` is
    regular."""
    rep = validate_regular(g)
    if not rep.ok:
        raise GrammarError(f"{what}: {rep.offenders[0][1]}")


def _body_names(r: Rule) -> tuple[str, ...]:
    """The nonterminals ``r``'s body names, read from its fields (with
    repeats, in no set order), so an exponent is not expanded."""
    if isinstance(r, RuleA):
        return r.p, r.s
    if isinstance(r, RuleB):
        return tuple(v for v, _ in r.body)
    if isinstance(r, RuleC):
        return r.p, r.s1
    if isinstance(r, RuleD):
        return r.p1, r.p2
    if isinstance(r, RuleAlt):
        return (r.s,)
    if isinstance(r, RuleFree):
        refs: list = []
        fold_term(r.rhs, _ignore, refs.append, _ignore, _ignore)
        return tuple(refs)
    return ()


def rule_rhs_term(r: Rule) -> Term:
    """The rule body as a term over labels and nonterminal references; an
    A- or B-rule body is one parallel layer, ``s^k`` its k parts that share
    one ``Ref``."""
    if isinstance(r, (RuleA, RuleB)):
        body = ((r.p, 1), (r.s, r.ell)) if isinstance(r, RuleA) else r.body
        parts: list = []
        for v, e in body:
            if e > sys.maxsize:
                raise GrammarError(
                    f"rule {format_rule(r)!r}: {v} has more copies than a term can hold")
            parts += [Ref(v)] * e
        return parts[0] if len(parts) == 1 else Parallel(*parts)
    if isinstance(r, RuleC):
        return Serial(Ref(r.p), Ref(r.s1))
    if isinstance(r, RuleD):
        return Serial(Ref(r.p1), Ref(r.p2))
    if isinstance(r, (RuleE, RuleF)):
        return Atom(r.a)
    if isinstance(r, RuleAlt):
        return Ref(r.s)
    return r.rhs


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------


def _s_rules_of(rules, name):
    return [r for r in rules if isinstance(r, (RuleC, RuleD, RuleF)) and r.lhs == name]


def _with_lhs(r, name):
    return replace(r, **{r.__match_args__[0]: name})


def is_normalized(g: Grammar) -> bool:
    """At most one A-rule per (p, s) pair, and no variable both periodic and
    bounded for the same p: ``normalize`` would copy nothing, and no Alt
    rule ``p -> s`` names an s periodic for its p (an Alt occurrence counts
    as bounded, but ``normalize`` renames only B-rule occurrences).
    Anything free-form fails."""
    if any(isinstance(r, RuleFree) for r in g.rules) or _normalize(g) is not g:
        return False
    periodic = {(r.p, r.s) for r in g.rules if isinstance(r, RuleA)}
    return not any(isinstance(r, RuleAlt) and (r.p, r.s) in periodic for r in g.rules)


def normalize(g: Grammar) -> Grammar:
    """Rewrite a regular grammar into normal form without changing its
    language.

    Where several A-rules share a pair (p, s), each gets a fresh copy of s
    (inheriting all of s's rules).  Where a variable is used by both the
    A-rule and some B-rule of the same p, the B-occurrences are renamed to a
    fresh copy.  Fresh copies are never axioms; with none, ``g`` is returned.
    """
    _require_regular(g, "cannot normalize a non-regular grammar")
    return _normalize(g)


def _normalize(g: Grammar) -> Grammar:
    """``normalize`` of a grammar known to be regular."""
    rules = list(g.rules)
    snames = list(g.snames)
    used = set(g.pnames) | set(g.snames) | set(g.alphabet)

    def fresh(base):
        i = 1
        while f"{base}${i}" in used:
            i += 1
        name = f"{base}${i}"
        used.add(name)
        snames.append(name)
        return name

    groups = defaultdict(list)
    for idx, r in enumerate(rules):
        if isinstance(r, RuleA):
            groups[(r.p, r.s)].append(idx)
    for pair in sorted(groups):
        idxs = groups[pair]
        if len(idxs) < 2:
            continue
        s = pair[1]
        inherited = _s_rules_of(rules, s)
        for idx in idxs:
            copy = fresh(s)
            rules[idx] = RuleA(pair[0], copy, rules[idx].ell)
            rules.extend(_with_lhs(r, copy) for r in inherited)

    periodic = defaultdict(set)
    bvars = defaultdict(set)
    for r in rules:
        if isinstance(r, RuleA):
            periodic[r.p].add(r.s)
        elif isinstance(r, RuleB):
            bvars[r.p].update(v for v, _ in r.body)
    for p in sorted(periodic.keys() & bvars.keys()):
        for s in sorted(bvars[p] & periodic[p]):
            copy = fresh(s)
            for i, r in enumerate(rules):
                if isinstance(r, RuleB) and r.p == p and any(v == s for v, _ in r.body):
                    body = tuple(sorted((copy if v == s else v, e) for v, e in r.body))
                    rules[i] = RuleB(p, body)
            rules.extend(_with_lhs(r, copy) for r in _s_rules_of(rules, s))

    if len(snames) == len(g.snames):
        return g
    return _derived(g, snames=snames, rules=rules)


def to_alternative(g: Grammar) -> Grammar:
    """Route every edge rule ``p -> a`` through a labelled S-copy: add
    ``s_a -> a``, replace the edge rule by ``p -> s_a``, and promote ``s_a``
    to axiom whenever such a p was an axiom (a lone edge must stay in the
    language through an S-kind start symbol)."""
    _require_regular(g, "cannot convert a non-regular grammar")
    return _to_alternative(g)


def _to_alternative(g: Grammar) -> Grammar:
    """``to_alternative`` of a grammar known to be regular."""
    elabels = sorted({r.a for r in g.rules if isinstance(r, RuleE)})
    if not elabels:
        return g
    used = set(g.pnames) | set(g.snames)
    copies = {}
    for a in elabels:
        name = "$alt_" + a
        while name in used:
            name += "$"
        used.add(name)
        copies[a] = name
    axioms = list(g.axioms)
    rules = []
    for r in g.rules:
        if isinstance(r, RuleE):
            rules.append(RuleAlt(r.p, copies[r.a]))
            if r.p in g.axioms and copies[r.a] not in axioms:
                axioms.append(copies[r.a])
        else:
            rules.append(r)
    rules.extend(RuleF(copies[a], a) for a in elabels)
    snames = g.snames + tuple(copies[a] for a in elabels)
    return _derived(g, snames=snames, axioms=axioms, rules=rules)


def is_alternative(g: Grammar) -> bool:
    """No edge rule ``p -> a``, and every target of an alternation rule
    has one rule, ``s -> a``, and is named by no other rule body."""
    heads = defaultdict(list)  # lhs -> its rules
    named = set()  # the nonterminals named by bodies of non-Alt rules
    for r in g.rules:
        if isinstance(r, RuleE):
            return False
        heads[r.lhs].append(r)
        if not isinstance(r, RuleAlt):
            named.update(_body_names(r))
    for t in {r.s for r in g.rules if isinstance(r, RuleAlt)}:
        mine = heads[t]
        if len(mine) != 1 or not isinstance(mine[0], RuleF) or t in named:
            return False
    return True


# ---------------------------------------------------------------------------
# Base/period bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class BasePeriodTable:
    """Per P-nonterminal: which S-variables recur periodically (A-rules) and
    which are bounded (B/Alt occurrences), with their period resp. base
    (base = largest occurring exponent + 1)."""

    periodic: dict
    bounded: dict

    def context(self, p: str) -> dict:
        from .termalg import Bounded, Periodic

        per = self.periodic.get(p, {})
        bnd = self.bounded.get(p, {})
        overlap = set(per) & set(bnd)
        if overlap:
            raise GrammarError(
                f"no single normal-form context for {p}: "
                f"{sorted(overlap)} both periodic and bounded (normalize first)"
            )
        ctx = {s: Periodic(n) for s, n in per.items()}
        ctx.update({s: Bounded(n) for s, n in bnd.items()})
        return ctx


def compute_base_period(g: Grammar) -> BasePeriodTable:
    # Alternation rules are fine here (they behave like exponent-1 B-rules);
    # anything else outside the six regular shapes is not.
    bad = [o for o in validate_regular(g).offenders if not isinstance(o[0], RuleAlt)]
    if bad:
        raise GrammarError(f"base/period need a regular grammar: {bad[0]}")
    seen_a: set = set()
    for r in g.rules:
        if isinstance(r, RuleA):
            if (r.p, r.s) in seen_a:
                raise GrammarError(
                    f"period of {r.s} in {r.p} is ambiguous "
                    f"(several {r.p} -> {r.p} || {r.s}^k rules; normalize first)"
                )
            seen_a.add((r.p, r.s))
    return _base_period(g)


def _base_period(g: Grammar) -> BasePeriodTable:
    """``compute_base_period`` of a normalized grammar of regular and
    alternation rules."""
    periodic: dict = {p: {} for p in g.pnames}
    maxexp: dict = {p: {} for p in g.pnames}
    for r in g.rules:
        if isinstance(r, RuleA):
            periodic[r.p][r.s] = r.ell
        elif isinstance(r, RuleB):
            for v, e in r.body:
                maxexp[r.p][v] = max(maxexp[r.p].get(v, 0), e)
        elif isinstance(r, RuleAlt):
            maxexp[r.p][r.s] = max(maxexp[r.p].get(r.s, 0), 1)
    bounded = {p: {v: e + 1 for v, e in m.items()} for p, m in maxexp.items()}
    return BasePeriodTable(periodic, bounded)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_SECTIONS = ("alphabet", "pnonterminals", "snonterminals", "axioms")


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_grammar(text: str) -> Grammar:
    lines = text.splitlines()
    header: dict[str, tuple[str, ...]] = {}
    i = 0
    want = 0
    while i < len(lines) and want < len(_SECTIONS):
        raw = _strip(lines[i])
        i += 1
        if not raw:
            continue
        key = _SECTIONS[want]
        if not raw.startswith(key + ":"):
            raise ParseError(f"expected '{key}:' section", i, 1)
        header[key] = tuple(raw[len(key) + 1 :].split())
        want += 1
    while i < len(lines):
        raw = _strip(lines[i])
        i += 1
        if not raw:
            continue
        if raw != "rules:":
            raise ParseError("expected 'rules:' section", i, 1)
        break
    else:
        # positions are 1-based: empty text reports its one empty line
        raise ParseError("missing 'rules:' section", max(len(lines), 1), 1)

    kinds = {n: "P" for n in header["pnonterminals"]}
    kinds.update({n: "S" for n in header["snonterminals"]})
    rules = []
    leaves: dict = {}  # each name's leaf, made once for all rule bodies
    for lineno in range(i, len(lines)):
        raw = _strip(lines[lineno])
        if not raw:
            continue
        if "->" not in raw:
            raise ParseError("rule must look like 'lhs -> rhs'", lineno + 1, 1)
        lhs_text, rhs_text = raw.split("->", 1)
        lhs = lhs_text.strip()
        if lhs not in kinds:
            raise ParseError(f"undeclared rule head {lhs!r}", lineno + 1, 1)
        try:
            parser = _TermParser(rhs_text, names=kinds, leaves=leaves)
            body = parser.parse(counts=True)
            rule = _shape(lhs, kinds, body)
            if parser.exponent_at is not None:
                if not isinstance(rule, (RuleA, RuleB, RuleAlt)):
                    msg = "exponents are only valid on S-nonterminals in parallel rule bodies"
                    parser.error(msg, parser.exponent_at)
                # each count was read, but a name's counts sum (``_shape``)
                counts = getattr(rule, "body", ())
                if isinstance(rule, RuleA):
                    counts = ((rule.s, rule.ell),)
                for v, e in counts:
                    try:
                        str(e)
                    except ValueError:  # more digits than the interpreter prints
                        parser.error(f"exponents of {v} sum to a count with too many digits", 0)
        except ParseError as e:  # e.col counts from the text after '->'
            raise ParseError(e.msg, lineno + 1, e.col + lines[lineno].index("->") + 2) from None
        rules.append(rule or RuleFree(lhs, body))
    return Grammar(
        header["alphabet"],
        header["pnonterminals"],
        header["snonterminals"],
        header["axioms"],
        tuple(rules),
    )


def _shape(lhs: str, kinds: dict, body):
    """The regular rule ``lhs -> body`` for a body read with its exponents
    counted (see ``_TermParser.parse``), or ``None`` when the body is
    free-form.

    A label alone makes an ``E`` or ``F`` rule.  Any other P-head body is a
    parallel layer, flattened across parentheses, of nonterminals and
    exponent pairs, counted per name: all S-names make an ``Alt`` (one copy)
    or ``B`` rule, the head once beside one S-name an ``A`` rule.  Any other
    S-head body is a serial layer of two nonterminals, ``P . S`` (``C``) or
    ``P . P`` (``D``)."""
    kind = type(body)
    if kind is Atom:
        return (RuleF if kinds[lhs] == "S" else RuleE)(lhs, body.label)
    if kinds[lhs] == "S":
        if kind is not Serial:
            return None
        parts = _flat(body)
        if len(parts) != 2:
            return None
        p, s = parts
        if type(p) is not Ref or type(s) is not Ref or kinds[p.name] != "P":
            return None
        return (RuleC if kinds[s.name] == "S" else RuleD)(lhs, p.name, s.name)
    counts: dict = {}  # copies per nonterminal
    for x in _flat(body) if kind is Parallel else (body,):
        k = 1
        if type(x) is tuple:
            x, k = x
        if type(x) is not Ref:
            return None
        counts[x.name] = counts.get(x.name, 0) + k
    svars = [(n, c) for n, c in counts.items() if kinds[n] == "S"]
    if len(svars) == len(counts):
        if len(svars) == 1 and svars[0][1] == 1:
            return RuleAlt(lhs, svars[0][0])
        return RuleB(lhs, tuple(sorted(svars)))
    if len(svars) == 1 and len(counts) == 2 and counts.get(lhs) == 1:
        return RuleA(lhs, *svars[0])
    return None


def format_rule(r: Rule) -> str:
    if isinstance(r, RuleA):
        exp = f"^{r.ell}" if r.ell > 1 else ""
        return f"{r.p} -> {r.p} || {r.s}{exp}"
    if isinstance(r, RuleB):
        body = " || ".join(v if e == 1 else f"{v}^{e}" for v, e in r.body)
        return f"{r.p} -> {body}"
    if isinstance(r, RuleC):
        return f"{r.s} -> {r.p} . {r.s1}"
    if isinstance(r, RuleD):
        return f"{r.s} -> {r.p1} . {r.p2}"
    if isinstance(r, (RuleE, RuleF)):
        return f"{r.lhs} -> {r.a}"
    if isinstance(r, RuleAlt):
        return f"{r.p} -> {r.s}"
    return f"{r.name} -> {format_term(r.rhs)}"


def format_grammar(g: Grammar) -> str:
    lines = [
        "alphabet: " + " ".join(g.alphabet),
        "pnonterminals: " + " ".join(g.pnames),
        "snonterminals: " + " ".join(g.snames),
        "axioms: " + " ".join(g.axioms),
        "rules:",
    ]
    lines.extend(format_rule(r) for r in g.rules)
    return "\n".join(lines) + "\n"
