"""Word literal parser.

Grammar (whitespace separates terms; ``#`` starts a comment to end of line):

    word   := term*
    term   := atom ( '^' INT )?
    atom   := NAME | '1' | '[' word ',' word ']' | '(' word ')'
    NAME   := [A-Za-z_][A-Za-z0-9_]*
    INT    := '-'? [0-9]+

``1`` is the empty word, ``[u,v]`` the commutator ``u^-1 v^-1 u v``,
``(w)^k`` the k-th power.  Every NAME must be declared in the alphabet.
Trailing garbage is rejected, and so is a power or product of more than
MAX_LETTERS letters.
"""

from __future__ import annotations

import re

from .words import Alphabet, Word, commutator, packed_cyclic_reduce

_TOKEN = re.compile(
    r"\s+|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>-?\d+)|(?P<punct>[\^\[\],()])"
)


# The most letters a power or product may have.  A power is built letter by
# letter, so a huge exponent must be refused before it is taken; a million
# letters is five times (a b)^100000 and far more than any search here can
# handle.
MAX_LETTERS = 1_000_000


class WordSyntaxError(ValueError):
    """Parse failure, carrying the 0-based offset in the input text."""

    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} at position {pos}: {text!r}")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos] == "#":
                break
            m = _TOKEN.match(text, pos)
            if not m:
                raise WordSyntaxError("unexpected character", text, pos)
            if m.lastgroup:
                self.items.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.items[self.i] if self.i < len(self.items) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise WordSyntaxError("unexpected end of input", self.text, len(self.text))
        self.i += 1
        return tok


def _parse_atom(toks: _Tokens, alphabet: Alphabet) -> Word:
    kind, value, pos = toks.next()
    if kind == "name":
        if value not in alphabet:
            raise WordSyntaxError(f"undeclared symbol {value!r}", toks.text, pos)
        return Word((alphabet.gen(value),))
    if kind == "int":
        if value == "1":
            return Word()
        raise WordSyntaxError(f"unexpected number {value!r}", toks.text, pos)
    if kind == "punct" and value == "[":
        u = _parse_word(toks, alphabet, stop={",", "]"})
        kind2, v2, p2 = toks.next()
        if not (kind2 == "punct" and v2 == ","):
            raise WordSyntaxError("expected ',' in commutator", toks.text, p2)
        v = _parse_word(toks, alphabet, stop={"]"})
        kind3, v3, p3 = toks.next()
        if not (kind3 == "punct" and v3 == "]"):
            raise WordSyntaxError("expected ']'", toks.text, p3)
        return commutator(u, v)
    if kind == "punct" and value == "(":
        w = _parse_word(toks, alphabet, stop={")"})
        kind2, v2, p2 = toks.next()
        if not (kind2 == "punct" and v2 == ")"):
            raise WordSyntaxError("expected ')'", toks.text, p2)
        return w
    raise WordSyntaxError(f"unexpected token {value!r}", toks.text, pos)


def _parse_word(toks: _Tokens, alphabet: Alphabet, stop: set[str]) -> Word:
    out = Word()
    while True:
        tok = toks.peek()
        if tok is None:
            return out
        kind, value, pos = tok
        if kind == "punct" and value in stop:
            return out
        atom = _parse_atom(toks, alphabet)
        nxt = toks.peek()
        if nxt is not None and nxt[0] == "punct" and nxt[1] == "^":
            toks.next()
            ekind, evalue, epos = toks.next()
            if ekind != "int":
                raise WordSyntaxError("expected integer exponent", toks.text, epos)
            e = int(evalue)
            # atom = u c u^-1 with c cyclically reduced, and atom^e has 2|u| + |e||c| letters
            core = len(packed_cyclic_reduce(atom.packed)[0])
            if e and len(atom) + (abs(e) - 1) * core > MAX_LETTERS:
                raise WordSyntaxError(f"power of more than {MAX_LETTERS} letters", toks.text, pos)
            atom = atom ** e
        out = out * atom
        if len(out) > MAX_LETTERS:
            raise WordSyntaxError(f"product of more than {MAX_LETTERS} letters", toks.text, pos)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse a word literal against a declared alphabet."""
    toks = _Tokens(text)
    w = _parse_word(toks, alphabet, stop=set())
    leftover = toks.peek()
    if leftover is not None:
        raise WordSyntaxError(f"trailing input {leftover[1]!r}", text, leftover[2])
    return w
