"""A fixed unit of interpreter work that measures the machine's current speed.

On a shared VM the speed of a vCPU changes by up to 2x for seconds to
minutes at a time, and every time metric of a run moves with it.  ``sample``
times a fixed piece of pure-Python work of the same kind as the library's
(small named tuples, free reduction, cyclic rotation, dictionary counting)
that no change to ``quadeq`` can alter.  ``run.py`` samples it all through
the timed passes and divides its times by the median sample over the nominal
sample time in ``pins.json``, so they read as on a machine running that work
at the nominal speed.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter
from typing import NamedTuple


class _Letter(NamedTuple):
    sym: int
    sign: int

    def inv(self) -> "_Letter":
        return _Letter(self.sym, -self.sign)


class _Word:
    __slots__ = ("letters",)

    def __init__(self, letters):
        self.letters = tuple(letters)

    def __mul__(self, other: "_Word") -> "_Word":
        out = list(self.letters)
        for g in other.letters:
            if out and out[-1] == g.inv():
                out.pop()
            else:
                out.append(g)
        return _Word(out)

    def inverse(self) -> "_Word":
        return _Word(g.inv() for g in reversed(self.letters))

    def cyclic_key(self) -> tuple:
        t = self.letters
        return min(t[i:] + t[:i] for i in range(len(t))) if t else t


_rng = random.Random(7)
_WORDS = [
    _Word(_Letter(_rng.randrange(3), _rng.choice((1, -1))) for _ in range(_rng.randint(1, 6)))
    for _ in range(300)
]


def sample() -> float:
    """Seconds taken by the fixed work, with the collector off so that the
    library's heap does not change it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        seen: dict[tuple, int] = {}
        n = len(_WORDS)
        for i in range(600):
            a, b, c = _WORDS[i % n], _WORDS[(i * 7 + 3) % n], _WORDS[(i * 13 + 5) % n]
            key = (a * b * c.inverse() * b.inverse()).cyclic_key()
            seen[key] = seen.get(key, 0) + 1
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
