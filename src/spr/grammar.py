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
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
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
    fold_term,
    format_term,
)


class GrammarError(ValueError):
    pass


@dataclass(frozen=True)
class RuleA:
    p: str
    s: str
    ell: int

    @property
    def lhs(self):
        return self.p


@dataclass(frozen=True)
class RuleB:
    p: str
    body: tuple[tuple[str, int], ...]  # sorted by name, exponents >= 1

    @property
    def lhs(self):
        return self.p


@dataclass(frozen=True)
class RuleC:
    s: str
    p: str
    s1: str

    @property
    def lhs(self):
        return self.s


@dataclass(frozen=True)
class RuleD:
    s: str
    p1: str
    p2: str

    @property
    def lhs(self):
        return self.s


@dataclass(frozen=True)
class RuleE:
    p: str
    a: str

    @property
    def lhs(self):
        return self.p


@dataclass(frozen=True)
class RuleF:
    s: str
    a: str

    @property
    def lhs(self):
        return self.s


@dataclass(frozen=True)
class RuleAlt:
    p: str
    s: str

    @property
    def lhs(self):
        return self.p


@dataclass(frozen=True)
class RuleFree:
    name: str
    rhs: Term

    @property
    def lhs(self):
        return self.name


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
        # rules validated and deduplicated (rule sets, first occurrence wins)
        out = []
        seen_rules = set()
        for r in self.rules:
            self._check_rule(r, p, s)
            if r not in seen_rules:
                seen_rules.add(r)
                out.append(r)
        object.__setattr__(self, "rules", tuple(out))

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
        elif isinstance(r, RuleE):
            want(r.p, "P")
            if r.a not in self.alphabet:
                raise GrammarError(f"label {r.a!r} not in alphabet in {format_rule(r)}")
        elif isinstance(r, RuleF):
            want(r.s, "S")
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


def rule_rhs_term(r: Rule) -> Term:
    """The rule body as a term over labels and nonterminal references."""
    if isinstance(r, RuleA):
        t: Term = Ref(r.p)
        for _ in range(r.ell):
            t = Parallel(t, Ref(r.s))
        return t
    if isinstance(r, RuleB):
        t = None
        for v, e in r.body:
            for _ in range(e):
                t = Ref(v) if t is None else Parallel(t, Ref(v))
        return t
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
    if isinstance(r, RuleC):
        return RuleC(name, r.p, r.s1)
    if isinstance(r, RuleD):
        return RuleD(name, r.p1, r.p2)
    return RuleF(name, r.a)


def is_normalized(g: Grammar) -> bool:
    """At most one A-rule per (p, s) pair, and no variable both periodic and
    bounded for the same p.  Tolerates Alt rules (whose variables count as
    bounded occurrences); anything free-form fails."""
    periodic = defaultdict(set)
    pairs = set()
    for r in g.rules:
        if isinstance(r, RuleFree):
            return False
        if isinstance(r, RuleA):
            if (r.p, r.s) in pairs:
                return False
            pairs.add((r.p, r.s))
            periodic[r.p].add(r.s)
    for r in g.rules:
        if isinstance(r, RuleB):
            if any(v in periodic[r.p] for v, _ in r.body):
                return False
        elif isinstance(r, RuleAlt):
            if r.s in periodic[r.p]:
                return False
    return True


def normalize(g: Grammar) -> Grammar:
    """Rewrite a regular grammar into normal form without changing its
    language.

    Where several A-rules share a pair (p, s), each gets a fresh copy of s
    (inheriting all of s's rules).  Where a variable is used by both the
    A-rule and some B-rule of the same p, the B-occurrences are renamed to a
    fresh copy.  Fresh copies are never axioms; with none, ``g`` is returned.
    """
    rep = validate_regular(g)
    if not rep.ok:
        raise GrammarError(f"cannot normalize a non-regular grammar: {rep.offenders[0][1]}")
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
    for r in rules:
        if isinstance(r, RuleA):
            periodic[r.p].add(r.s)
    for p in sorted(set(g.pnames)):
        bvars = set()
        for r in rules:
            if isinstance(r, RuleB) and r.p == p:
                bvars.update(v for v, _ in r.body)
        for s in sorted(bvars & periodic[p]):
            copy = fresh(s)
            for i, r in enumerate(rules):
                if isinstance(r, RuleB) and r.p == p and any(v == s for v, _ in r.body):
                    body = tuple(sorted((copy if v == s else v, e) for v, e in r.body))
                    rules[i] = RuleB(p, body)
            rules.extend(_with_lhs(r, copy) for r in _s_rules_of(rules, s))

    if len(snames) == len(g.snames):
        return g
    return Grammar(g.alphabet, g.pnames, tuple(snames), g.axioms, tuple(rules))


def to_alternative(g: Grammar) -> Grammar:
    """Route every edge rule ``p -> a`` through a labelled S-copy: add
    ``s_a -> a``, replace the edge rule by ``p -> s_a``, and promote ``s_a``
    to axiom whenever such a p was an axiom (a lone edge must stay in the
    language through an S-kind start symbol)."""
    rep = validate_regular(g)
    if not rep.ok:
        raise GrammarError(f"cannot convert a non-regular grammar: {rep.offenders[0][1]}")
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
    return Grammar(g.alphabet, g.pnames, snames, tuple(axioms), tuple(rules))


def is_alternative(g: Grammar) -> bool:
    if any(isinstance(r, RuleE) for r in g.rules):
        return False
    targets = {r.s for r in g.rules if isinstance(r, RuleAlt)}
    for t in targets:
        mine = [r for r in g.rules if r.lhs == t]
        if len(mine) != 1 or not isinstance(mine[0], RuleF):
            return False
        for r in g.rules:
            if isinstance(r, RuleAlt) or r.lhs == t:
                continue
            refs: list = []
            fold_term(rule_rhs_term(r), _ignore, refs.append, _ignore, _ignore)
            if t in refs:
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
        raise ParseError("missing 'rules:' section", len(lines), 1)

    kinds = {n: "P" for n in header["pnonterminals"]}
    kinds.update({n: "S" for n in header["snonterminals"]})
    rules = []
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
            parser = _TermParser(rhs_text, names=kinds)
            rule = _classify(lhs, kinds, parser.parse())
            if parser.exponent_at is not None and not isinstance(rule, (RuleA, RuleB, RuleAlt)):
                msg = "exponents are only valid on S-nonterminals in parallel rule bodies"
                parser.error(msg, parser.exponent_at)
        except ParseError as e:  # e.col counts from the text after '->'
            raise ParseError(e.msg, lineno + 1, e.col + lines[lineno].index("->") + 2) from None
        rules.append(rule)
    return Grammar(
        header["alphabet"],
        header["pnonterminals"],
        header["snonterminals"],
        header["axioms"],
        tuple(rules),
    )


def _flatten(t: Term, cls) -> list[Term]:
    out: list[Term] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, cls):
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def _classify(lhs: str, kinds: dict, rhs: Term) -> Rule:
    """Match a parsed body against the regular shapes; anything else is a
    free-form rule."""
    rule: Rule = RuleFree(lhs, rhs)
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
                total = sum(svars.values())
                if total == 1:
                    rule = RuleAlt(lhs, next(iter(svars)))
                else:
                    rule = RuleB(lhs, tuple(sorted(svars.items())))
            elif (
                others == {lhs}
                and counts.get((lhs, True)) == 1
                and len(svars) == 1
            ):
                (s, ell), = svars.items()
                rule = RuleA(lhs, s, ell)
            elif len(pfactors) == 1 and isinstance(pfactors[0], Atom):
                rule = RuleE(lhs, pfactors[0].label)
        else:
            if len(pfactors) == 1 and isinstance(pfactors[0], Atom):
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
