"""Packed serial profiles against the pair-set algebra they replaced, the
monotonicity that antichain pruning would rely on, and the associativity and
commutativity that saturation relies on."""

import itertools
import random

import pytest

from spr import termalg
from spr.grammar import RuleC, RuleD, parse_grammar
from spr.oracle import gen_random_grammar
from spr.recognizer import (
    PProfile,
    RecognizerCtx,
    SProfile,
    accepts,
    build_ctx,
    op_parallel,
    op_serial,
    par_map,
    reachable_profiles,
    seq_map,
)
from spr.termalg import LinearTerm, TermNF, TermSpace, linear_to_nf, term_mul

# ---------------------------------------------------------------------------
# the reference: relations as sets of (s, q) pairs, terms as TermNFs
# ---------------------------------------------------------------------------


class PairSets:
    """The profile algebra of one context with serial profiles as sets of
    pairs, composed through a ``by_head`` dict, and parallel terms as
    ``TermNF``s over the context mappings."""

    def __init__(self, ctx):
        self.ctx = ctx
        work = ctx.grammar
        self.pnames = work.pnames
        self.pset = frozenset(work.pnames)
        self.contexts = ctx.contexts
        self.accepting = {
            p: sp.decode(ctx.accepting[p]).monomials for p, sp in ctx.spaces.items()
        }
        self.serial_rules = [
            (r.s, r.p, r.s1) if isinstance(r, RuleC) else (r.s, r.p1, r.p2)
            for r in work.rules
            if isinstance(r, (RuleC, RuleD))
        ]
        self.s_axioms = [x for x in work.axioms if x in work.snames]
        self.p_axioms = [x for x in work.axioms if x in work.pnames]

    def par_map(self, h) -> dict:
        """p -> the monomials of p's term."""
        if isinstance(h, PProfile):
            return {p: frozenset(t.monomials) for p, t in h.entries}
        done = {s for s, q in h.pairs if q is None}
        return {
            p: linear_to_nf(LinearTerm.of(set(self.contexts[p]) & done), self.contexts[p]).monomials
            for p in self.pnames
        }

    def finished(self, h) -> set:
        terms = self.par_map(h)
        return {p for p in self.pnames if terms[p] & self.accepting[p]}

    def seq_map(self, h) -> frozenset:
        if isinstance(h, SProfile):
            return h.pairs
        done = self.finished(h)
        return frozenset((lhs, rem) for lhs, head, rem in self.serial_rules if head in done)

    def op_serial(self, h1, h2) -> frozenset:
        by_head = {}
        for s, q in self.seq_map(h2):
            by_head.setdefault(s, set()).add(q)
        out = set()
        for s, q in self.seq_map(h1):
            if q is None:
                continue
            if q in self.pset:
                if q in self.finished(h2):
                    out.add((s, None))
            else:
                out.update((s, q2) for q2 in by_head.get(q, ()))
        return frozenset(out)

    def op_parallel(self, h1, h2) -> dict:
        t1, t2 = self.par_map(h1), self.par_map(h2)
        return {
            p: term_mul(TermNF(t1[p]), TermNF(t2[p]), self.contexts[p]).monomials
            for p in self.pnames
        }

    def accepts(self, h) -> bool:
        if isinstance(h, SProfile):
            return any((s, None) in h.pairs for s in self.s_axioms)
        return bool(self.finished(h) & set(self.p_axioms))

    def saturate(self, bridges) -> set:
        """The closure of ``bridges`` under both laws, as (kind, str) keys."""

        ctx = self.ctx

        def make(value, serial):
            if serial:
                return ctx.pack(value)
            return ctx.pprofile(tuple(
                (p, ctx.spaces[p].encode(TermNF(value[p]))) for p in self.pnames))

        profiles = {key(h): h for h in bridges}
        frontier = list(profiles.values())
        while frontier:
            known = list(profiles.values())
            new = []
            for x, y in itertools.chain.from_iterable(
                ((x, y), (y, x)) for x in frontier for y in known
            ):
                for h in (make(self.op_serial(x, y), True), make(self.op_parallel(x, y), False)):
                    if key(h) not in profiles:
                        profiles[key(h)] = h
                        new.append(h)
            frontier = new
        return set(profiles)


def key(h):
    return type(h).__name__, str(h)


def terms(h) -> dict:
    return {p: frozenset(t.monomials) for p, t in h.entries}


def sample_profiles(ctx, cap=25):
    return list(reachable_profiles(ctx, cap=cap).profiles) + list(ctx.bridge_profiles.values())


# ---------------------------------------------------------------------------
# packed against pair sets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(60))
def test_packed_profiles_agree_with_pair_sets(seed):
    ctx = build_ctx(gen_random_grammar(seed))
    ref = PairSets(ctx)
    profiles = sample_profiles(ctx)
    profiles.append(ctx.make((), ()))  # the empty profile
    for h in profiles:
        assert terms(par_map(h, ctx)) == ref.par_map(h)
        assert seq_map(h, ctx) == ref.seq_map(h)
        assert accepts(h, ctx) == ref.accepts(h)
    for h1, h2 in itertools.product(profiles, repeat=2):
        assert op_serial(h1, h2, ctx).pairs == ref.op_serial(h1, h2)
        assert terms(op_parallel(h1, h2, ctx)) == ref.op_parallel(h1, h2)
    # a profile packed anew is the same value, hashing the same
    for h in profiles:
        if isinstance(h, SProfile):
            again = ctx.pack(h.pairs)
            assert again == h and hash(again) == hash(h) and again.rows == h.rows


@pytest.mark.parametrize("name", ["chain", "bundle", "even_bundle", "univ"])
def test_full_saturations_match_the_pair_set_closure(name, request):
    ctx = build_ctx(request.getfixturevalue(name))
    ref = PairSets(ctx)
    full = reachable_profiles(ctx)
    assert full.saturated
    want = ref.saturate(list(ctx.bridge_profiles.values()))
    assert sorted(key(h) for h in full.profiles) == sorted(want)


def test_profiles_of_another_context_are_rejected(chain, univ):
    # a profile keeps the views of its own context only; an equal grammar
    # built twice is two contexts
    contexts = [build_ctx(chain), build_ctx(univ), build_ctx(chain)]
    for ctx in contexts:
        ref = PairSets(ctx)
        empty = ctx.make((), ())
        for b in ctx.bridge_profiles.values():
            for h1, h2 in ((empty, b), (b, empty), (b, b)):
                assert op_serial(h1, h2, ctx).pairs == ref.op_serial(h1, h2)
        assert not accepts(empty, ctx)
    for ctx, other in itertools.permutations(contexts, 2):
        ours = ctx.bridge_profiles["a"]
        for h in (other.bridge_profiles["a"], other.make((), ()),
                  par_map(other.bridge_profiles["a"], other)):
            for call in (
                lambda: par_map(h, ctx),
                lambda: seq_map(h, ctx),
                lambda: op_serial(h, ours, ctx),
                lambda: op_serial(ours, h, ctx),
                lambda: op_parallel(h, ours, ctx),
                lambda: op_parallel(ours, h, ctx),
                lambda: accepts(h, ctx),
            ):
                with pytest.raises(ValueError, match="of another context"):
                    call()


def test_profiles_compare_only_within_their_context():
    # {(s, ⊥)} packed over ('s', 'p', None), over a second build of the same
    # grammar, and over ('s', 't', 'p', None): equal pairs, three contexts
    text = "alphabet: a\npnonterminals: p\nsnonterminals: {}\naxioms: p\nrules:\np -> s || s\ns -> a\n"
    one, again = build_ctx(parse_grammar(text.format("s"))), build_ctx(parse_grammar(text.format("s")))
    wide = build_ctx(parse_grammar(text.format("s t")))
    assert one.names == again.names == ("s", "p", None)
    assert wide.names == ("s", "t", "p", None)
    x, y, z = (ctx.pack([("s", None)]) for ctx in (one, again, wide))
    px, py, pz = (op_parallel(h, h, ctx) for h, ctx in ((x, one), (y, again), (z, wide)))
    for h, same in ((x, one.pack([("s", None)])), (px, op_parallel(x, x, one))):
        assert h == same and hash(h) == hash(same)
    assert x.pairs == y.pairs == z.pairs
    assert x != y and x != z and y != z
    assert px != py and px != pz and py != pz
    assert len({x, y, z, px, py, pz}) == 6


# ---------------------------------------------------------------------------
# monotonicity: h below h' gives compositions below
# ---------------------------------------------------------------------------


def _below(h, rng, ctx):
    """A random profile contained in ``h``: a subset of its pairs, or of the
    monomials of each of its terms."""
    if isinstance(h, SProfile):
        return ctx.pack(p for p in h.pairs if rng.random() < 0.5)
    entries = []
    for p, t in h.entries:
        space = ctx.spaces[p]
        if type(space) is TermSpace:
            entries.append((p, space.cls(t & rng.getrandbits(max(t.bit_length(), 1)))))
        else:
            entries.append((p, TermNF(frozenset(m for m in t.monomials if rng.random() < 0.5))))
    return ctx.pprofile(tuple(entries))


def _contained(h, h2) -> bool:
    if isinstance(h, SProfile):
        return h.pairs <= h2.pairs
    return all(frozenset(a.monomials) <= frozenset(b.monomials)
               for (_, a), (_, b) in zip(h.entries, h2.entries))


@pytest.mark.parametrize("seed", range(60))
def test_profile_operations_are_monotone(seed):
    ctx = build_ctx(gen_random_grammar(seed))
    profiles = sample_profiles(ctx)
    rng = random.Random(seed)
    for _ in range(60):
        big, k = rng.choice(profiles), rng.choice(profiles)
        small = _below(big, rng, ctx)
        assert _contained(small, big)
        assert _contained(op_serial(small, k, ctx), op_serial(big, k, ctx))
        assert _contained(op_serial(k, small, ctx), op_serial(k, big, ctx))
        assert _contained(op_parallel(small, k, ctx), op_parallel(big, k, ctx))
        assert _contained(op_parallel(k, small, ctx), op_parallel(k, big, ctx))
        assert not accepts(small, ctx) or accepts(big, ctx)


# ---------------------------------------------------------------------------
# the algebra laws the generator-driven saturation rests on
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("packed", [True, False])
@pytest.mark.parametrize(
    "name", ["univ", "chain", "bundle", "even_bundle"] + [f"seed{s}" for s in range(60)])
def test_compositions_are_associative_and_parallel_commutes(name, packed, request, monkeypatch):
    # reachable_profiles multiplies profiles by layer atoms only, which
    # reaches every product only when these laws hold
    if not packed:
        monkeypatch.setattr(termalg, "BOX_LIMIT", 1)
    if name.startswith("seed"):
        ctx = build_ctx(gen_random_grammar(int(name[len("seed"):])))
    else:
        ctx = build_ctx(request.getfixturevalue(name))
    if packed:
        assert all(isinstance(sp, TermSpace) for sp in ctx.spaces.values())
    profiles = sorted(sample_profiles(ctx, cap=40), key=key)
    rng = random.Random(name)
    for _ in range(100):
        x, y, z = (rng.choice(profiles) for _ in range(3))
        assert op_serial(op_serial(x, y, ctx), z, ctx) == op_serial(x, op_serial(y, z, ctx), ctx)
        assert op_parallel(op_parallel(x, y, ctx), z, ctx) == op_parallel(
            x, op_parallel(y, z, ctx), ctx)
        assert op_parallel(x, y, ctx) == op_parallel(y, x, ctx)


# ---------------------------------------------------------------------------
# the row gather of op_serial on every row shape it treats apart
# ---------------------------------------------------------------------------

# its working form keeps one S-name, s, beside the P-name p
ONE_S_TEXT = """\
alphabet: a
pnonterminals: p
snonterminals: s
axioms: s
rules:
s -> p . s
s -> p . p
p -> s || s
s -> a
"""


def _shaped_profiles(ctx, rng):
    """Serial profiles whose rows take every shape: only ⊥, only
    P-remainders, one S-remainder, all S-remainders, and mixes, one row or
    several; then random pair sets."""
    names = ctx.names
    ns = ctx.ns
    snames, rems = names[:ns], names[ns:-1]
    pairs = [(s, q) for s in snames for q in names]
    shapes = []
    for s in snames:
        shapes += [
            {(s, None)},
            {(s, p) for p in rems},
            {(s, None)} | {(s, p) for p in rems},
            {(s, snames[-1])},
            {(s, t) for t in snames},
            {(s, q) for q in names},
        ]
    shapes += [set().union(*shapes[k::6]) for k in range(6)]
    shapes += [{pq for pq in pairs if rng.random() < 0.4} for _ in range(20)]
    return [ctx.pack(pq) for pq in shapes]


def _row_shapes(ctx, h1, h2):
    """The operand types and the left row shapes of ``op_serial(h1, h2)``:
    rows without an S-remainder, rows with several, and P-remainders in the
    finished mask of ``h2`` or not."""
    shapes = {("left", type(h1).__name__), ("right", type(h2).__name__)}
    fin = ctx.finished(par_map(h2, ctx))
    for r in (h1 if isinstance(h1, SProfile) else ctx.seq(h1)).rows:
        s = r & ctx.s_bits
        if not s:
            shapes.add("no S-remainder")
        if s & (s - 1):
            shapes.add("more S-remainders")
        if r & ctx.p_bits:
            shapes.add("finished" if r & ctx.p_bits & fin else "unfinished")
    return shapes


@pytest.mark.parametrize("name", ["univ", "chain", "bundle", "one_s", "seed44", "seed43"])
def test_op_serial_gathers_every_row_shape(name, request):
    if name == "one_s":
        g = parse_grammar(ONE_S_TEXT)
    elif name.startswith("seed"):
        g = gen_random_grammar(int(name[4:]))
    else:
        g = request.getfixturevalue(name)
    ctx = build_ctx(g)
    sp, ref = ctx, PairSets(ctx)
    serial = _shaped_profiles(ctx, random.Random(name))
    parallel = [h for h in sample_profiles(ctx, cap=40) if isinstance(h, PProfile)]
    # parallel operands: closure values and the images of the shaped ones
    parallel += [par_map(h, ctx) for h in serial[:12]]
    # serial atoms (bridges and parallel profiles) through one row table
    # each, shared by every left operand so that later rows hit
    atoms = list(ctx.bridge_profiles.values()) + parallel
    tables = [ctx.row_table(y) for y in atoms]
    shapes, atom_shapes = set(), set()
    for h1, h2 in itertools.product(serial + parallel, repeat=2):
        assert op_serial(h1, h2, ctx).pairs == ref.op_serial(h1, h2)
        shapes |= _row_shapes(ctx, h1, h2)
    for h1, (h2, t) in itertools.product(serial + parallel, zip(atoms, tables)):
        assert ctx.compose(h1, t).pairs == ref.op_serial(h1, h2)
        atom_shapes |= _row_shapes(ctx, h1, h2)
    want = {("left", "SProfile"), ("left", "PProfile"), ("right", "SProfile"),
            ("right", "PProfile"), "no S-remainder", "finished", "unfinished"}
    if sp.ns > 1:
        want.add("more S-remainders")
    assert want <= shapes and want <= atom_shapes
    assert (sp.ns == 1) == (name in ("one_s", "seed44"))


# ---------------------------------------------------------------------------
# the serial layout: two aligned tuples of increasing S-names and their rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("packed", [True, False])
@pytest.mark.parametrize(
    "name", ["univ", "chain", "bundle", "even_bundle"] + [f"seed{s}" for s in range(60)])
def test_every_serial_profile_keeps_its_layout(name, packed, request, monkeypatch):
    # every builder goes through make, so recording make sees the profiles
    # of from_dense, pack, seq, compose, op_serial and the bridge table
    if not packed:
        monkeypatch.setattr(termalg, "BOX_LIMIT", 1)
    made = []
    make = RecognizerCtx.make

    def recording(self, idx, rows):
        h = make(self, idx, rows)
        assert hash(h) == hash(h.rows)  # before any view is read
        made.append(h)
        return h

    monkeypatch.setattr(RecognizerCtx, "make", recording)
    if name.startswith("seed"):
        ctx = build_ctx(gen_random_grammar(int(name[len("seed"):])))
    else:
        ctx = build_ctx(request.getfixturevalue(name))
    bridges = list(ctx.bridge_profiles.values())
    assert bridges and {id(h) for h in bridges} <= {id(h) for h in made}
    rng = random.Random(name)
    profiles = sorted(sample_profiles(ctx, cap=40), key=key)
    parallel = [h for h in profiles if isinstance(h, PProfile)]
    dense = [[rng.choice((0, 0, rng.getrandbits(len(ctx.names)))) for _ in range(ctx.ns)]
             for _ in range(10)]
    extra = [ctx.make((), ()), *map(ctx.from_dense, dense), *map(ctx.seq, parallel)]
    extra += [ctx.pack(pq for pq in h.pairs if rng.random() < 0.5)
              for h in profiles if isinstance(h, SProfile)]
    operands = profiles + extra
    for h, a in itertools.product(operands, bridges + parallel):
        via_table = ctx.compose(h, ctx.row_table(a))
        assert via_table == op_serial(h, a, ctx)
        assert hash(via_table) == hash(op_serial(h, a, ctx))
    for _ in range(100):
        op_serial(rng.choice(operands), rng.choice(operands), ctx)

    ns, width = ctx.ns, len(ctx.names)
    by_pairs = {}
    for h in made:
        ctx.left(h), ctx.heads(h), ctx.par(h), h.pairs
        assert hash(h) == hash(h.rows)
        assert len(h.idx) == len(h.rows)
        assert all(i < j for i, j in zip(h.idx, h.idx[1:]))
        assert all(0 <= i < ns for i in h.idx)
        assert all(0 < r < 1 << width for r in h.rows)
        by_pairs.setdefault(h.pairs, []).append(h)
    # equal pair sets are equal profiles with equal hashes, and only they
    for pairs, hs in by_pairs.items():
        again = ctx.pack(pairs)
        for h in hs:
            assert h == again and hash(h) == hash(again)
            assert (h.idx, h.rows) == (again.idx, again.rows)
    firsts = [hs[0] for hs in by_pairs.values()]
    assert len(set(firsts)) == len(firsts)
