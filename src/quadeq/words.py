"""Free-group word algebra.

Words are finite sequences of signed alphabet symbols, kept freely reduced at
all times (no ``g g^-1`` ever survives construction).  Everything here is an
immutable value: words, cyclic words and decompositions can be shared freely.

The canonical letter order is ``a < a^-1 < b < b^-1 < ...`` in declaration
order of the alphabet; it drives cyclic-word canonicalization and the
length-lex enumeration used by the oracle.

Packed words.  A ``Word`` stores its letters packed as ``bytes``, letter
``2*sym + (sign < 0)``, so the inverse of a letter is ``x ^ 1``; the
diagram search and the oracle work on that form directly (``Word.packed``,
``Word.from_packed`` and the ``packed_*`` helpers), and every operation of
the algebra has one implementation, on bytes.  With at most MAX_GENERATORS =
64 symbols every packed letter is below 128, and bytes compare, sort, slice
and concatenate exactly as tuples of those ints do; the integer order is the
canonical letter order, so a packed word's order is ``Word.key``'s.  Bytes
also cache their hash, and reversal, ``translate``, ``count`` and ``find``
run in C.  A ``Generator`` is only a view of one letter: iterating or
indexing a word returns them, and the constructor accepts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

MAX_GENERATORS = 64
_TOO_MANY = f"at most {MAX_GENERATORS} generators supported"


class AlphabetError(ValueError):
    pass


class UnassignedVariableError(KeyError):
    """Raised by substitute() when a declared variable has no image."""

    def __init__(self, sym: int, name: str | None = None):
        self.sym = sym
        self.name = name
        super().__init__(name if name is not None else f"symbol #{sym}")


class Generator(NamedTuple):
    """One signed letter: ``sym`` indexes a declared alphabet symbol."""

    sym: int
    sign: int

    def inv(self) -> "Generator":
        return Generator(self.sym, -self.sign)


@dataclass(frozen=True)
class Alphabet:
    """Ordered, immutable set of symbol names (at most MAX_GENERATORS)."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) > MAX_GENERATORS:
            raise AlphabetError(_TOO_MANY)
        if len(set(self.names)) != len(self.names):
            raise AlphabetError("duplicate generator names")
        for n in self.names:
            if not n or not (n[0].isalpha() or n[0] == "_") or not all(
                c.isalnum() or c == "_" for c in n
            ):
                raise AlphabetError(f"bad generator name {n!r}")

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise AlphabetError(f"undeclared generator {name!r}") from None

    def gen(self, name: str, sign: int = 1) -> Generator:
        return Generator(self.index(name), sign)

    def word(self, *names: str) -> "Word":
        """Convenience: word from letter names, ``-name`` meaning inverse."""
        letters = []
        for n in names:
            if n.startswith("-"):
                letters.append(Generator(self.index(n[1:]), -1))
            else:
                letters.append(Generator(self.index(n), 1))
        return Word(letters)

    def format(self, w: "Word") -> str:
        """Render a word with collapsed powers, ``1`` for the empty word."""
        out: list[str] = []
        for p, run in groupby(w.packed):
            name, exp = self.names[p >> 1], len(list(run)) * (-1 if p & 1 else 1)
            out.append(name if exp == 1 else f"{name}^{exp}")
        return " ".join(out) or "1"

    def extend(self, extra: Sequence[str]) -> "Alphabet":
        return Alphabet(self.names + tuple(extra))


def _pack_letter(g: Generator) -> int:
    if g.sign not in (1, -1):
        raise ValueError(f"letter sign must be +-1, got {g!r}")
    if not 0 <= g.sym < MAX_GENERATORS:
        raise AlphabetError(_TOO_MANY)
    return 2 * g.sym + (g.sign < 0)


def _free_reduce(letters: Iterable[int]) -> bytes:
    """The free reduction of a sequence of packed letters."""
    out = bytearray()
    for p in letters:
        if out and out[-1] == p ^ 1:
            out.pop()
        else:
            out.append(p)
    return bytes(out)


def length_lex(t: bytes) -> tuple[int, bytes]:
    """Length-lex key of a packed word: ``Word.key``'s order."""
    return (len(t), t)


class Word:
    """A freely reduced word.  The constructor packs and reduces its
    letters; ``from_packed`` trusts its bytes."""

    __slots__ = ("_packed",)

    def __init__(self, letters: Iterable[Generator] = ()):
        self._packed = _free_reduce(map(_pack_letter, letters))

    @classmethod
    def from_packed(cls, t: bytes) -> "Word":
        """Trusted constructor: ``t`` is already a reduced packed word."""
        w = cls.__new__(cls)
        w._packed = t
        return w

    @property
    def packed(self) -> bytes:
        return self._packed

    @property
    def letters(self) -> tuple[Generator, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self) -> Iterator[Generator]:
        return map(_LETTERS.__getitem__, self._packed)

    def __getitem__(self, i: int) -> Generator:
        return _LETTERS[self._packed[i]]

    def __bool__(self) -> bool:
        return bool(self._packed)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self._packed == other._packed

    def __hash__(self) -> int:
        return hash(self._packed)

    def __repr__(self) -> str:
        body = ",".join(f"{'-' if p & 1 else ''}{p >> 1}" for p in self._packed)
        return f"Word[{body}]"

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word.from_packed(packed_product(self._packed, other._packed))

    def inverse(self) -> "Word":
        return Word.from_packed(packed_inverse(self._packed))

    def __pow__(self, n: int) -> "Word":
        # w = u c u^-1 with c cyclically reduced, so w^n = u c^n u^-1
        # with no cancellation inside c^n
        core, u = packed_cyclic_reduce(self._packed)
        if n < 0:
            core, n = packed_inverse(core), -n
        return Word.from_packed(packed_product(u, core * n, packed_inverse(u)))

    def conjugated_by(self, z: "Word") -> "Word":
        """``z^-1 * self * z``."""
        return z.inverse() * self * z

    def subword(self, i: int, j: int) -> "Word":
        return Word.from_packed(self._packed[i:j])

    def rotated(self, k: int) -> "Word":
        """The conjugate that reads from position k on, around the end:
        letters ``k..`` then ``..k-1``, freely reduced."""
        t = self._packed
        return Word.from_packed(packed_product(t[k:], t[:k]))

    def key(self) -> tuple[int, bytes]:
        return length_lex(self._packed)

    def is_cyclically_reduced(self) -> bool:
        t = self._packed
        return len(t) < 2 or t[0] != t[-1] ^ 1

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Return ``(core, u)`` with ``self == u * core * u^-1``, core cyclically reduced."""
        core, u = packed_cyclic_reduce(self._packed)
        return Word.from_packed(core), Word.from_packed(u)


def reduce(letters: Iterable[Generator]) -> Word:
    """Freely reduce a raw letter sequence.  Idempotent."""
    return Word(letters)


def solve_letter(w: Word, k: int) -> Word:
    """The value of the letter at position k that makes ``w`` trivial, for a
    letter whose symbol occurs nowhere else in ``w``: u x^s v = 1 gives
    x = (u^-1 v^-1)^s."""
    vu = w.subword(k + 1, len(w)) * w.subword(0, k)
    return vu.inverse() if w[k].sign > 0 else vu


def commutator(x: Word, y: Word) -> Word:
    """``[x, y] = x^-1 y^-1 x y``."""
    return x.inverse() * y.inverse() * x * y


def is_proper_power(w: Word) -> bool:
    """True if w == v^k for some k >= 2 (w taken literally, not cyclically)."""
    return len(w) == 0 or root_of(w)[1] >= 2


def root_of(w: Word) -> tuple[Word, int]:
    """Primitive root: returns (r, k) with w == r^k, k maximal (w nonempty)."""
    n = len(w)
    for d in range(1, n + 1):
        if n % d:
            continue
        if w.packed[:d] * (n // d) == w.packed:
            return w.subword(0, d), n // d
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class CyclicWord:
    """Orbit of a word under cyclic permutation, stored canonically.

    The representative is the lexicographically least rotation (letter order
    ``a < a^-1 < b < b^-1 ...``) of the cyclic reduction.
    """

    representative: Word

    def __post_init__(self):
        if not self.representative.is_cyclically_reduced():
            raise ValueError("representative must be cyclically reduced")

    def __len__(self) -> int:
        return len(self.representative)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.representative)


def cyclic_normalize(w: Word) -> CyclicWord:
    """Canonical cyclic word of w: cyclically reduce, then least rotation."""
    core, _ = w.cyclic_reduce()
    return CyclicWord(core.rotated(least_rotation(core.packed)) if core else core)


def cyclically_equal(u: Word, v: Word) -> bool:
    return cyclic_normalize(u) == cyclic_normalize(v)


# --- packed words -------------------------------------------------------------

# the letter of each packed value
_LETTERS = tuple(Generator(p >> 1, -1 if p & 1 else 1) for p in range(2 * MAX_GENERATORS))
# byte x -> x ^ 1, the inverse letter
_FLIP = bytes(x ^ 1 for x in range(256))


def packed_inverse(t: bytes) -> bytes:
    return t[::-1].translate(_FLIP)


def packed_product(*parts: bytes) -> bytes:
    """Free reduction of the product of reduced packed words."""
    out = bytearray()
    for t in parts:
        k = 0
        while out and k < len(t) and out[-1] == t[k] ^ 1:
            out.pop()
            k += 1
        out += t[k:]
    return bytes(out)


def packed_cyclic_reduce(t: bytes) -> tuple[bytes, bytes]:
    """``(core, u)`` with ``t == u core u^-1``, core cyclically reduced."""
    n, k = len(t), 0
    while n - 2 * k >= 2 and t[k] == t[n - 1 - k] ^ 1:
        k += 1
    return t[k:n - k], t[:k]


def least_rotation(t: bytes) -> int:
    """Where the least rotation of the nonempty word t starts, the first
    such place.  Only the starts of runs of the least letter m can win: a
    rotation that starts inside a run reads fewer m's before a larger letter
    than the one that starts at the run's start.  When t is m^k, 0."""
    m, n, twice = min(t), len(t), t + t
    best, start = None, 0
    i = t.find(m)
    while i >= 0:
        if t[i - 1] != m:
            r = twice[i:i + n]
            if best is None or r < best:
                best, start = r, i
        i = t.find(m, i + 1)
    return start


@dataclass(frozen=True)
class StableBlock:
    """One maximal stable occurrence ``U^(eps*run)`` plus the segment after it."""

    eps: int
    run: int
    tail: Word


@dataclass(frozen=True)
class UDecomposition:
    """Unique splitting of a word along maximal stable U-occurrences.

    ``word == head * U^(e1*r1) * tail1 * U^(e2*r2) * tail2 * ...`` letter for
    letter (reassembly never needs free reduction).
    """

    base: Word
    head: Word
    blocks: tuple[StableBlock, ...]

    def reassemble(self) -> Word:
        t = self.head.packed
        for b in self.blocks:
            piece = self.base if b.eps > 0 else self.base.inverse()
            t += piece.packed * b.run + b.tail.packed
        return Word.from_packed(t)


def _maximal_runs(w: Word, u: Word) -> list[tuple[int, int]]:
    """Maximal runs of literal copies of u inside w: list of (start, count)."""
    n, p = len(w), len(u)
    t, pattern = w.packed, u.packed
    hits = [t[i : i + p] == pattern for i in range(n - p + 1)]
    runs = []
    i = 0
    while i + p <= n:
        if hits[i]:
            k = 1
            while i + (k + 1) * p <= n and hits[i + k * p]:
                k += 1
            runs.append((i, k))
            i += k * p
        else:
            i += 1
    return runs


def u_decompose(w: Word, u: Word) -> UDecomposition:
    """Split w along its maximal stable u-occurrences.

    A u-occurrence ``u^(eps*t)`` is stable when flanked by ``u^eps`` on both
    sides, so a maximal literal run of t copies contributes the middle t-2
    copies once t >= 3.  Distinct maximal stable occurrences never intersect;
    u must be cyclically reduced and not a proper power.
    """
    if len(u) == 0:
        raise ValueError("u must be nonempty")
    if not u.is_cyclically_reduced():
        raise ValueError("u must be cyclically reduced")
    if is_proper_power(u):
        raise ValueError("u must not be a proper power")

    p = len(u)
    stable: list[tuple[int, int, int]] = []  # (start_of_stable, eps, run)
    for eps, pattern in ((1, u), (-1, u.inverse())):
        for start, count in _maximal_runs(w, pattern):
            if count >= 3:
                stable.append((start + p, eps, count - 2))
    stable.sort()
    # the disjoint-maximal reading: stable parts may never overlap
    prev_end = -1
    for start, eps, run in stable:
        if start < prev_end:
            raise AssertionError("overlapping stable occurrences")
        prev_end = start + run * p

    blocks: list[StableBlock] = []
    if not stable:
        return UDecomposition(base=u, head=w, blocks=())
    head = w.subword(0, stable[0][0])
    for idx, (start, eps, run) in enumerate(stable):
        end = start + run * p
        nxt = stable[idx + 1][0] if idx + 1 < len(stable) else len(w)
        blocks.append(StableBlock(eps=eps, run=run, tail=w.subword(end, nxt)))
    return UDecomposition(base=u, head=head, blocks=tuple(blocks))


def substitute(
    template: Word,
    assignment: Mapping[int, Word],
    variables: Iterable[int] | None = None,
) -> Word:
    """Image of ``template`` under the homomorphism sending each assigned
    symbol to its word and fixing everything else.

    When ``variables`` is given, every occurring variable must be assigned;
    a missing one raises UnassignedVariableError naming it.
    """
    varset = set(variables) if variables is not None else None
    t, parts, start = template._packed, [], 0
    for i, p in enumerate(t):
        img = assignment.get(p >> 1)
        if img is None:
            if varset is not None and p >> 1 in varset:
                raise UnassignedVariableError(p >> 1)
            continue
        parts += (t[start:i], packed_inverse(img._packed) if p & 1 else img._packed)
        start = i + 1
    return Word.from_packed(packed_product(*parts, t[start:]))


def replay(
    steps: Iterable[Mapping[int, Word]],
    values: Mapping[int, Word],
    variables: Iterable[int],
) -> dict[int, Word]:
    """Values of ``variables`` after the simultaneous substitutions
    ``steps``, in order: a step sets each of its symbols to its image,
    evaluated at the values before the step.

    An unassigned variable, or a variable letter inside a value, counts as
    the identity, so every variable ends as a word over the other symbols.
    """
    out = dict.fromkeys(variables, Word())
    varset = set(out)
    out.update(values)
    for step in steps:
        out.update({s: substitute(img, out) for s, img in step.items()})
    dropped = bytes(p for p in range(2 * MAX_GENERATORS) if p >> 1 in varset)
    return {s: Word.from_packed(_free_reduce(w.packed.translate(None, dropped)))
            for s, w in out.items()}
