"""Machine speed, measured by a fixed pure-Python kernel between timed calls.

On a shared host the same code runs at different speeds from one stretch of
seconds to the next: on the 2-core machine this benchmark was sized on, a
fixed loop switched between two speeds about 30% apart, and a slow stretch
could outlast a whole run.  Measured times then spread more between runs
than any useful bound.  So every timed call is bracketed by two runs of ``kernel``,
and its time is scaled by ``NOMINAL_S`` over the mean of the two kernel
times: a scaled time reads as seconds on a machine where the kernel takes
``NOMINAL_S``.  The kernel does not touch spr, so a change that makes spr
faster or slower moves the scaled times by the same share as the measured
ones.

The kernel mixes the kinds of work spr does (tuple, frozenset and dict
building, small objects, recursion, integer arithmetic, string scanning),
and hashes only integers, so its work does not depend on the hash seed.
"""

from __future__ import annotations

import time

# a round figure between the two speeds of the reference machine (2 cores,
# Python 3.11.7), where ``probe`` read about 3 ms and about 5 ms
NOMINAL_S = 0.004


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def _fold(n, acc):
    if n == 0:
        return acc
    nxt = dict(acc)
    nxt[n % 17] = acc.get(n % 17, 0) + n
    return _fold(n - 1, nxt)


_TEXT = "(a;b)||(c;(d||e))" * 12


def kernel() -> int:
    """A fixed amount of pure-Python work; returns a checksum."""
    total = 0
    table: dict = {}
    for i in range(2000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        total += len(frozenset((i % 5, i % 7, i % 11)))
    for i in range(100):
        codes = [ord(c) for c in _TEXT if c not in "()"]
        pair = _Pair(len(codes), tuple(sorted({(c, i % 3) for c in codes[:30]})))
        total += pair.left + len(pair.right)
    for _ in range(20):
        total += len(_fold(40, {}))
    for i in range(12000):
        total += i * i % 7
    return total + len(table)


def probe() -> float:
    """Seconds one run of the kernel takes now: the faster of two runs, so
    that an interrupt during one of them does not count."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Scales the times of calls made one after another.  Call ``scale``
    right after each timed call: the probe before it is the one taken after
    the previous call (or at construction)."""

    def __init__(self):
        self.last = probe()

    def scale(self, seconds: float) -> float:
        before = self.last
        self.last = after = probe()
        return seconds * NOMINAL_S * 2.0 / (before + after)
