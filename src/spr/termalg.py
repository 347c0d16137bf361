"""A finite commutative dioid of polynomial-like terms.

Terms are idempotent sums of monomials over a finite variable set.  Each
variable is classified, and the classification induces a rewriting axiom on
powers:

* ``Bounded(base)``       s^base = 0          (too many copies kill the term)
* ``Periodic(period)``    s^period = 1        (copies wrap around)
* ``Threshold(theta)``    s^theta = s^(theta-1)   (copies saturate)

A monomial is *reduced* when no axiom applies: bounded exponents stay below
the base, periodic exponents below the period, threshold exponents at most
theta - 1.  A normal form (``TermNF``) is a finite set of distinct reduced
monomials; the empty set is 0 and the singleton empty monomial is 1.  Sum is
set union, product distributes and re-reduces -- both stay inside the finite
space, which is what makes the recognizer algebra finite.

Since the reduced monomials of a context form one finite box, a term is
computed on as an ``int`` bitset over that box (``TermSpace``): bit ``i`` is
the monomial whose mixed-radix digits spell ``i``, and multiplying by a
variable is a masked shift.  A context whose box exceeds ``BOX_LIMIT`` keeps
its terms as ``TermNF``s, multiplied pairwise (``FrozenSpace``).  Which of the
two a context gets is decided here, by ``term_space``, and nowhere else: both
spaces offer the members the recognizer reads (``one``, ``var_bits``,
``cls``, ``mul``, ``linear``, ``encode``, ``decode``), and ``term_mul``,
``linear_to_nf`` and ``nf_linear_product`` run on either.  ``Monomial`` and
``TermNF`` stay the printing format.

The cut-off results are exposed as ``weighted_card`` (how long a product of
linear sums can stay "interesting") and ``cutoff_bound`` (the general bound
mixing bounded and periodic variables).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Union


@dataclass(frozen=True)
class Bounded:
    base: int  # >= 2

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")


@dataclass(frozen=True)
class Periodic:
    period: int  # >= 1

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be >= 1")


@dataclass(frozen=True)
class Threshold:
    theta: int  # >= 2

    def __post_init__(self):
        if self.theta < 2:
            raise ValueError("threshold must be >= 2")


VarClass = Union[Bounded, Periodic, Threshold]
NfContext = Mapping[str, VarClass]


@dataclass(frozen=True)
class Monomial:
    """A product of variable powers, kept sorted by variable name."""

    exps: tuple[tuple[str, int], ...]

    @staticmethod
    def of(pairs: Iterable[tuple[str, int]] | Mapping[str, int]) -> "Monomial":
        if isinstance(pairs, Mapping):
            pairs = pairs.items()
        merged: dict[str, int] = {}
        for v, e in pairs:
            if e < 0:
                raise ValueError("negative exponent")
            if e:
                merged[v] = merged.get(v, 0) + e
        return Monomial(tuple(sorted(merged.items())))

    def degree(self, var: str) -> int:
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    @property
    def total_degree(self) -> int:
        return sum(e for _, e in self.exps)

    @property
    def vars(self) -> frozenset:
        return frozenset(v for v, _ in self.exps)

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exps)

    def sort_key(self):
        return (self.total_degree, self.exps)


MONO_ONE = Monomial(())


def nf_monomial(exps, ctx: NfContext) -> Optional[Monomial]:
    """Reduce a raw exponent map; ``None`` is the zero monomial."""
    if isinstance(exps, Monomial):
        exps = exps.exps
    elif isinstance(exps, Mapping):
        exps = exps.items()
    reduced = []
    for v, e in sorted(exps):
        if e == 0:
            continue
        cls = ctx.get(v)
        if cls is None:
            raise ValueError(f"variable {v!r} not in context")
        if isinstance(cls, Bounded):
            if e >= cls.base:
                return None
        elif isinstance(cls, Periodic):
            e %= cls.period
            if e == 0:
                continue
        else:
            e = min(e, cls.theta - 1)
        reduced.append((v, e))
    return Monomial(tuple(reduced))


def mono_mul(m1: Monomial, m2: Monomial, ctx: NfContext) -> Optional[Monomial]:
    acc = dict(m1.exps)
    for v, e in m2.exps:
        acc[v] = acc.get(v, 0) + e
    return nf_monomial(acc, ctx)


@dataclass(frozen=True, eq=False)
class TermNF:
    """An idempotent sum of distinct reduced monomials.

    A ``TermNF`` equals the ``PackedTerm`` that encodes the same monomials,
    but hashes differently: sets and dict keys must hold one kind only."""

    monomials: frozenset

    def __eq__(self, other):
        if isinstance(other, (TermNF, PackedTerm)):
            return self.monomials == other.monomials
        return NotImplemented

    def __hash__(self):
        return hash(self.monomials)

    def __and__(self, other: "TermNF"):
        """The summands the two terms share."""
        return self.monomials & other.monomials

    @staticmethod
    def of(monos: Iterable[Optional[Monomial]]) -> "TermNF":
        return TermNF(frozenset(m for m in monos if m is not None))

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def sorted(self) -> list[Monomial]:
        return sorted(self.monomials, key=Monomial.sort_key)

    def __str__(self):
        if not self.monomials:
            return "0"
        return " + ".join(str(m) for m in self.sorted())

    def __iter__(self):
        return iter(self.monomials)

    def __len__(self):
        return len(self.monomials)


ZERO = TermNF(frozenset())
ONE = TermNF(frozenset({MONO_ONE}))


def term_add(t1: TermNF, t2: TermNF) -> TermNF:
    return TermNF(t1.monomials | t2.monomials)


# ---------------------------------------------------------------------------
# Packed terms: one bit per monomial of the context's box
# ---------------------------------------------------------------------------

# The largest box (product of the radices) that terms are packed over; a
# packed term of that box takes 8 KiB.  Larger contexts (say ``s^3000`` next
# to a few more variables) keep frozenset terms, whose size follows the
# monomials actually present.
BOX_LIMIT = 1 << 16


def _radix(cls: VarClass) -> int:
    """How many reduced exponents a variable of this class has."""
    if isinstance(cls, Bounded):
        return cls.base
    if isinstance(cls, Periodic):
        return cls.period
    return cls.theta


def _repunit(period: int, count: int) -> int:
    """``sum(1 << k * period for k in range(count))``, by doubling."""
    out, block, width, at = 0, 1, 1, 0
    while count:
        if count & 1:
            out |= block << at
            at += width * period
        block |= block << width * period
        width *= 2
        count >>= 1
    return out


def _set_bits(x: int):
    """Positions of the set bits of ``x``, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class PackedTerm(int):
    """A term as a bitset over its ``TermSpace``.  Every space has its own
    subclass whose ``space`` attribute decodes the bits, so a packed term
    prints, measures (``len`` is the number of monomials) and compares with
    ``TermNF`` like the term it stands for, while hashing and equality among
    packed terms stay those of ``int``."""

    __slots__ = ()
    space: "TermSpace"

    __len__ = int.bit_count

    @property
    def monomials(self) -> frozenset:
        return self.space.decode(self).monomials

    def __str__(self):
        return str(self.space.decode(self))

    def __repr__(self):
        return f"PackedTerm({str(self)!r})"


class TermSpace:
    """The box of reduced monomials of one context.

    Variables are taken in sorted order; variable ``i`` has radix ``r`` (its
    base, period or theta) and stride ``s`` (the product of the radices
    before it), and a monomial's index is the sum of exponent times stride.
    Multiplying a term by ``v_i^e`` moves every monomial whose digit ``i`` is
    below ``r - e`` up by ``e * s``; the monomials at or above ``r - e`` die
    (bounded), wrap down by ``(r - e) * s`` (periodic) or, for ``e = 1``, stay
    on the top digit (threshold).  Both masks are repunits over the blocks of
    ``r * s`` bits, built with one shift and subtraction, and only on first
    use.
    """

    def __init__(self, ctx: NfContext):
        self.ctx = dict(ctx)
        self.vars = tuple(sorted(ctx))
        self.classes = tuple(ctx[v] for v in self.vars)
        self.radix = tuple(_radix(c) for c in self.classes)
        strides = []
        size = 1
        for r in self.radix:
            strides.append(size)
            size *= r
        self.stride = tuple(strides)
        self.position = dict(zip(self.vars, self.stride))
        self.size = size
        self.cls = type("PackedTerm", (PackedTerm,), {"__slots__": (), "space": self})
        self.one = self.cls(1)
        # v^1 reduces to the unit (bit 0) when the radix is 1 (period 1)
        self.var_bits = {
            v: 1 << s if r > 1 else 1 for v, s, r in zip(self.vars, self.stride, self.radix)
        }
        self._steps: dict = {}  # (var index, exponent) -> (low, up, wrap, down)
        self._programs: dict = {0: ()}  # monomial index -> steps multiplying by it
        self._monomials: dict = {}  # monomial index -> Monomial, once decoded

    # -- masks and steps ----------------------------------------------------

    def _below(self, i: int, d: int) -> int:
        """Mask of the indices whose digit ``i`` is below ``d``."""
        s = self.stride[i]
        block = s * self.radix[i]
        rep = _repunit(block, self.size // block)
        return (rep << d * s) - rep

    def _step(self, i: int, e: int) -> tuple:
        """Multiplication by ``v_i^e`` as ``((t & low) << up) | ((t & wrap) >> down)``
        (``e`` a power of two below the radix; ``e = 1`` for thresholds)."""
        step = self._steps.get((i, e))
        if step is None:
            r, s, cls = self.radix[i], self.stride[i], self.classes[i]
            low = self._below(i, r - e)
            if isinstance(cls, Bounded):
                step = (low, e * s, 0, 0)
            elif isinstance(cls, Periodic):
                step = (low, e * s, ((1 << self.size) - 1) ^ low, (r - e) * s)
            else:
                step = (low, s, ((1 << self.size) - 1) ^ low, 0)
            self._steps[(i, e)] = step
        return step

    def _program(self, idx: int) -> tuple:
        """The steps multiplying a term by the monomial of index ``idx``."""
        prog = self._programs.get(idx)
        if prog is None:
            steps = []
            for i, (s, r) in enumerate(zip(self.stride, self.radix)):
                d = idx // s % r
                if not d:
                    continue
                if isinstance(self.classes[i], Threshold):
                    steps += [self._step(i, 1)] * d
                else:
                    steps += [self._step(i, 1 << k) for k in _set_bits(d)]
            prog = self._programs[idx] = tuple(steps)
        return prog

    # -- the algebra --------------------------------------------------------

    def mul(self, a: int, b: int) -> PackedTerm:
        """Product of two packed terms: the larger one times each monomial of
        the smaller one, summed."""
        if a.bit_count() < b.bit_count():
            a, b = b, a
        out = 0
        for idx in _set_bits(b):
            t = a
            for low, up, wrap, down in self._program(idx):
                t = ((t & low) << up) | ((t & wrap) >> down)
            out |= t
        return self.cls(out)

    def linear(self, lin: "LinearTerm"):
        """The term of a linear sum: the unit (bit 0) and the first powers
        ``var_bits`` names, made a term by ``cls``."""
        bits = 1 if lin.one else 0
        for v in lin.vars:
            try:
                bits |= self.var_bits[v]
            except KeyError:
                raise ValueError(f"variable {v!r} not in context") from None
        return self.cls(bits)

    # -- conversions --------------------------------------------------------

    def monomial(self, idx: int) -> Monomial:
        m = self._monomials.get(idx)
        if m is None:
            m = self._monomials[idx] = Monomial(tuple(
                (v, idx // s % r)
                for v, s, r in zip(self.vars, self.stride, self.radix)
                if idx // s % r
            ))
        return m

    def encode(self, t: TermNF) -> PackedTerm:
        bits = 0
        for m in t.monomials:
            m = nf_monomial(m, self.ctx)
            if m is not None:
                bits |= 1 << sum(e * self.position[v] for v, e in m.exps)
        return self.cls(bits)

    def decode(self, bits: int) -> TermNF:
        return TermNF(frozenset(self.monomial(i) for i in _set_bits(bits)))


class FrozenSpace:
    """The terms of a context whose box exceeds ``BOX_LIMIT``: ``TermNF``s,
    whose size follows the monomials actually present, multiplied pairwise.
    ``var_bits`` names the first powers by bits, as in a ``TermSpace``, and
    ``cls`` reads such bits back as a term."""

    def __init__(self, ctx: NfContext):
        self.ctx = dict(ctx)
        self.one = ONE
        self._linear = [MONO_ONE]  # bit i -> its monomial
        self.var_bits = {}
        for v in sorted(ctx):
            m = nf_monomial({v: 1}, ctx)  # the unit when the period is 1
            if m == MONO_ONE:
                self.var_bits[v] = 1
            else:
                self.var_bits[v] = 1 << len(self._linear)
                self._linear.append(m)

    linear = TermSpace.linear

    def cls(self, bits: int) -> TermNF:
        return TermNF(frozenset(self._linear[i] for i in _set_bits(bits)))

    def mul(self, t1: TermNF, t2: TermNF) -> TermNF:
        ctx = self.ctx
        return TermNF.of(mono_mul(m1, m2, ctx) for m1 in t1.monomials for m2 in t2.monomials)

    def encode(self, t: TermNF) -> TermNF:
        return TermNF.of(nf_monomial(m, self.ctx) for m in t.monomials)

    def decode(self, t: TermNF) -> TermNF:
        return t


_SPACES = (TermSpace, FrozenSpace)


@lru_cache(maxsize=256)
def _space(key: tuple, frozen: bool) -> TermSpace | FrozenSpace:
    return (FrozenSpace if frozen else TermSpace)(dict(key))


def term_space(ctx: NfContext) -> TermSpace | FrozenSpace:
    """The (cached) space of a context: a ``TermSpace``, or a
    ``FrozenSpace`` when its box is larger than ``BOX_LIMIT``."""
    key = tuple(sorted(ctx.items()))
    return _space(key, math.prod(_radix(cls) for _, cls in key) > BOX_LIMIT)


def term_mul(t1, t2, ctx):
    """Product of two terms.  Over a space the terms are that space's and so
    is the product; over a context mapping they are ``TermNF``s, and so is
    the product."""
    if isinstance(ctx, _SPACES):
        return ctx.mul(t1, t2)
    space = term_space(ctx)
    return space.decode(space.mul(space.encode(t1), space.encode(t2)))


@dataclass(frozen=True)
class LinearTerm:
    """A sum of distinct variables, optionally with the unit: ``1 + s1 + s2``."""

    vars: frozenset
    one: bool = False

    @staticmethod
    def of(vars: Iterable[str], one: bool = False) -> "LinearTerm":
        return LinearTerm(frozenset(vars), one)

    def __str__(self):
        parts = (["1"] if self.one else []) + sorted(self.vars)
        return " + ".join(parts) if parts else "0"


def linear_to_nf(lin: LinearTerm, ctx):
    """Normal form of a linear sum: a term of the space when ``ctx`` is
    one, a ``TermNF`` over a context mapping."""
    if isinstance(ctx, _SPACES):
        return ctx.linear(lin)
    space = term_space(ctx)
    return space.decode(space.linear(lin))


def nf_linear_product(factors: Iterable[LinearTerm], ctx) -> TermNF:
    """Normal form of a product of linear sums (the workhorse of the
    parallel-composition law) over a context mapping or one of its spaces.
    An empty product is 1."""
    space = ctx if isinstance(ctx, _SPACES) else term_space(ctx)
    acc = space.one
    for lin in factors:
        acc = space.mul(acc, space.linear(lin))
    return space.decode(acc)


def mono_leq(m1: Monomial, m2: Monomial) -> bool:
    """Componentwise exponent order (m1 divides m2, as var multisets)."""
    return all(m2.degree(v) >= e for v, e in m1.exps)


def sup_monomials(t: TermNF) -> TermNF:
    """The maximal monomials of ``t`` under the componentwise order."""
    monos = list(t.monomials)
    keep = []
    for m in monos:
        if not any(m2 != m and mono_leq(m, m2) for m2 in monos):
            keep.append(m)
    return TermNF(frozenset(keep))


def weighted_card(vars: Iterable[str], ctx: NfContext) -> int:
    """Weighted size of a variable set: each variable contributes its number
    of non-unit reduced powers, one less than its class's ``_radix``."""
    total = 0
    for v in set(vars):
        cls = ctx.get(v)
        if cls is None:
            raise ValueError(f"variable {v!r} not in context")
        total += _radix(cls) - 1
    return total


def cutoff_bound(bounded: Iterable[str], periodic: Iterable[str], ctx: NfContext) -> int:
    """Length bound past which products of linear sums over the given
    variables stop producing genuinely new normal forms.

    Requires every periodic period to be >= 2 (a period-1 variable reduces
    to the unit and should be dropped by the caller first).
    """
    bounded = sorted(set(bounded))
    periodic = sorted(set(periodic))
    for v in bounded:
        if not isinstance(ctx.get(v), Bounded):
            raise ValueError(f"{v!r} is not bounded in the context")
    periods = []
    for v in periodic:
        cls = ctx.get(v)
        if not isinstance(cls, Periodic):
            raise ValueError(f"{v!r} is not periodic in the context")
        if cls.period < 2:
            raise ValueError("cutoff bound requires periods >= 2")
        periods.append(cls.period)
    k = len(periods)
    b = weighted_card(bounded, ctx) * (k + 1)
    b += sum(
        math.lcm(periods[i], periods[j])
        for i in range(k)
        for j in range(i, k)
    )
    b -= k * (k + 1) // 2
    return b


def expand_product(factors: Iterable[LinearTerm], ctx: NfContext) -> TermNF:
    """Brute-force reference for ``nf_linear_product``: expand every choice of
    one summand per factor, reduce each resulting monomial, deduplicate.
    Exponential; only sensible on small inputs (used by tests)."""
    choice_lists = []
    for lin in factors:
        choices: list[Optional[str]] = sorted(lin.vars)
        if lin.one:
            choices.append(None)
        choice_lists.append(choices)
    out = set()
    for picks in itertools.product(*choice_lists):
        exps: dict[str, int] = {}
        for v in picks:
            if v is not None:
                exps[v] = exps.get(v, 0) + 1
        m = nf_monomial(exps, ctx)
        if m is not None:
            out.add(m)
    return TermNF(frozenset(out))
