"""Free-group word algebra.

Words are finite sequences of signed alphabet symbols, kept freely reduced at
all times (no ``g g^-1`` ever survives construction).  Everything here is an
immutable value: words, cyclic words and decompositions can be shared freely.

The canonical letter order is ``a < a^-1 < b < b^-1 < ...`` in declaration
order of the alphabet; it drives cyclic-word canonicalization and the
length-lex enumeration used by the oracle.

Packed words.  The diagram search and the oracle work on words packed as
``bytes``, letter ``2*sym + (sign < 0)`` (``pack``, ``unpack``), so the
inverse of a letter is ``x ^ 1``.  With at most MAX_GENERATORS = 64 symbols
every packed letter is below 128, and bytes compare, sort, slice and
concatenate exactly as tuples of those ints do; the integer order is the
canonical letter order, so a packed word's order is ``Word.key``'s.  Bytes
also cache their hash, and reversal, ``translate``, ``count`` and ``find``
run in C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

MAX_GENERATORS = 64


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

    @property
    def key(self) -> tuple[int, int]:
        return (self.sym, 0 if self.sign > 0 else 1)


@dataclass(frozen=True)
class Alphabet:
    """Ordered, immutable set of symbol names (at most MAX_GENERATORS)."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) > MAX_GENERATORS:
            raise AlphabetError(f"at most {MAX_GENERATORS} generators supported")
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
        if len(w) == 0:
            return "1"
        out: list[str] = []
        run: Generator | None = None
        count = 0
        for g in list(w) + [None]:  # type: ignore[list-item]
            if g is not None and run is not None and g == run:
                count += 1
                continue
            if run is not None:
                name = self.names[run.sym]
                exp = count * run.sign
                out.append(name if exp == 1 else f"{name}^{exp}")
            run, count = g, 1
        return " ".join(out)

    def extend(self, extra: Sequence[str]) -> "Alphabet":
        return Alphabet(self.names + tuple(extra))


def _reduce_letters(letters: Iterable[Generator]) -> tuple[Generator, ...]:
    stack: list[Generator] = []
    for g in letters:
        if g.sign not in (1, -1):
            raise ValueError(f"letter sign must be +-1, got {g!r}")
        if stack and stack[-1].sym == g.sym and stack[-1].sign == -g.sign:
            stack.pop()
        else:
            stack.append(g)
    return tuple(stack)


class Word:
    """A freely reduced word.  The constructor reduces its input."""

    __slots__ = ("_letters",)

    def __init__(self, letters: Iterable[Generator] = ()):
        object.__setattr__(self, "_letters", _reduce_letters(letters))

    @classmethod
    def _raw(cls, letters: tuple[Generator, ...]) -> "Word":
        """Trusted constructor for letter tuples that are already reduced."""
        w = cls.__new__(cls)
        object.__setattr__(w, "_letters", letters)
        return w

    @property
    def letters(self) -> tuple[Generator, ...]:
        return self._letters

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self._letters)

    def __getitem__(self, i: int) -> Generator:
        return self._letters[i]

    def __bool__(self) -> bool:
        return bool(self._letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(self._letters)

    def __repr__(self) -> str:
        body = ",".join(f"{'-' if g.sign < 0 else ''}{g.sym}" for g in self._letters)
        return f"Word[{body}]"

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        # concatenation of reduced words only cancels at the seam
        a, b = self._letters, other._letters
        i, j = len(a), 0
        while i > 0 and j < len(b) and a[i - 1] == b[j].inv():
            i -= 1
            j += 1
        return Word._raw(a[:i] + b[j:])

    def inverse(self) -> "Word":
        return Word._raw(tuple(g.inv() for g in reversed(self._letters)))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word()
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def conjugated_by(self, z: "Word") -> "Word":
        """``z^-1 * self * z``."""
        return z.inverse() * self * z

    def subword(self, i: int, j: int) -> "Word":
        return Word._raw(self._letters[i:j])

    def key(self) -> tuple:
        return (len(self._letters), tuple(g.key for g in self._letters))

    def is_cyclically_reduced(self) -> bool:
        return len(self) < 2 or self._letters[0] != self._letters[-1].inv()

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Return ``(core, u)`` with ``self == u * core * u^-1``, core cyclically reduced."""
        letters, n, k = self._letters, len(self._letters), 0
        while n - 2 * k >= 2 and letters[k] == letters[n - 1 - k].inv():
            k += 1
        return Word._raw(letters[k:n - k]), Word._raw(letters[:k])


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
        root = w.subword(0, d)
        if all(w.letters[i * d : (i + 1) * d] == root.letters for i in range(n // d)):
            return root, n // d
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
    if len(core) == 0:
        return CyclicWord(Word())
    i = least_rotation(pack(core))
    return CyclicWord(Word._raw(core.letters[i:] + core.letters[:i]))


def cyclically_equal(u: Word, v: Word) -> bool:
    return cyclic_normalize(u) == cyclic_normalize(v)


# --- packed words -------------------------------------------------------------

# the letter of each packed value
_LETTERS = tuple(Generator(p >> 1, -1 if p & 1 else 1) for p in range(2 * MAX_GENERATORS))
# byte x -> x ^ 1, the inverse letter
_FLIP = bytes(x ^ 1 for x in range(256))


def pack(w: Word) -> bytes:
    """The packed letters of w."""
    return bytes([2 * g.sym + (g.sign < 0) for g in w])


def unpack(t: bytes) -> Word:
    """The Word of a reduced packed word."""
    return Word._raw(tuple([_LETTERS[p] for p in t]))


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
        letters = list(self.head.letters)
        for b in self.blocks:
            piece = self.base if b.eps > 0 else self.base.inverse()
            letters.extend(piece.letters * b.run)
            letters.extend(b.tail.letters)
        return Word._raw(tuple(letters))


def _maximal_runs(w: Word, u: Word) -> list[tuple[int, int]]:
    """Maximal runs of literal copies of u inside w: list of (start, count)."""
    n, p = len(w), len(u)
    hits = [w.letters[i : i + p] == u.letters for i in range(n - p + 1)]
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
    out: list[Generator] = []
    for g in template:
        img = assignment.get(g.sym)
        if img is None:
            if varset is not None and g.sym in varset:
                raise UnassignedVariableError(g.sym)
            out.append(g)
        else:
            out.extend(img.letters if g.sign > 0 else img.inverse().letters)
    return Word(out)


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
    return {s: Word(g for g in w if g.sym not in varset) for s, w in out.items()}
