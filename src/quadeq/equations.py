"""Equation systems over free groups and their file format.

A system declares constant generators and variables and holds equations
``lhs = rhs`` over the combined alphabet (constants first, then variables).
``w = 1`` is the normalized one-sided shape; two-sided input is kept so the
generalized-equation construction can see both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .parsing import WordSyntaxError, parse_word
from .words import Alphabet, Word, substitute


class EquationError(ValueError):
    pass


@dataclass(frozen=True)
class Equation:
    lhs: Word
    rhs: Word = Word()

    def relator(self) -> Word:
        """The one-sided form: ``lhs * rhs^-1`` (equation holds iff it is 1)."""
        return self.lhs * self.rhs.inverse()

    def length(self) -> int:
        return len(self.lhs) + len(self.rhs)


@dataclass(frozen=True)
class EquationSystem:
    """Equations over ``F(gens)`` with declared variables.

    Symbols 0..len(gens)-1 are constants, the rest variables, in declaration
    order.  Quadraticity counts occurrences of each variable (either sign)
    across all equation sides as written.
    """

    gens: tuple[str, ...]
    variables: tuple[str, ...]
    equations: tuple[Equation, ...]
    alphabet: Alphabet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if set(self.gens) & set(self.variables):
            raise EquationError("generator/variable name clash")
        # built and validated once
        object.__setattr__(self, "alphabet", Alphabet(self.gens + self.variables))
        nsym = len(self.alphabet)
        for eq in self.equations:
            for w in (eq.lhs, eq.rhs):
                if w and max(w.packed) >> 1 >= nsym:
                    raise EquationError(f"undeclared symbol index {max(w.packed) >> 1}")

    @property
    def n_constants(self) -> int:
        return len(self.gens)

    @property
    def var_syms(self) -> frozenset[int]:
        return frozenset(range(len(self.gens), len(self.gens) + len(self.variables)))

    def var_name(self, sym: int) -> str:
        return self.variables[sym - len(self.gens)]

    def var_sym(self, name: str) -> int:
        return len(self.gens) + self.variables.index(name)

    def is_constant_word(self, w: Word) -> bool:
        return all(g.sym < len(self.gens) for g in w)

    def occurrence_counts(self) -> dict[int, int]:
        counts = {s: 0 for s in self.var_syms}
        for eq in self.equations:
            for w in (eq.lhs, eq.rhs):
                for g in w:
                    if g.sym in counts:
                        counts[g.sym] += 1
        return counts

    def is_quadratic(self) -> bool:
        return all(c == 2 for c in self.occurrence_counts().values())

    def total_length(self) -> int:
        return sum(eq.length() for eq in self.equations)

    def check(self, assignment: Mapping[str, Word]) -> bool:
        """Does the named assignment satisfy every equation?"""
        amap = {self.var_sym(n): w for n, w in assignment.items()}
        for eq in self.equations:
            img = substitute(eq.relator(), amap, variables=self.var_syms)
            if len(img):
                return False
        return True

    def relators(self) -> list[Word]:
        return [eq.relator() for eq in self.equations]

    def format_word(self, w: Word) -> str:
        return self.alphabet.format(w)

    def render(self) -> str:
        lines = [f"gens: {' '.join(self.gens)}", f"vars: {' '.join(self.variables)}"]
        for eq in self.equations:
            if len(eq.rhs) == 0:
                lines.append(f"{self.format_word(eq.lhs)} = 1")
            else:
                lines.append(f"{self.format_word(eq.lhs)} = {self.format_word(eq.rhs)}")
        return "\n".join(lines) + "\n"


def header_lines(text: str, prefixes: tuple[str, ...] = ()) -> Iterator[tuple[int, str | None, str]]:
    """``(lineno, name, rest)`` for each ``<name>: rest`` line whose start is
    one of ``prefixes`` (such as ``"gens:"``), ``(lineno, None, line)`` for
    any other line that is not blank once its ``#`` comment is cut; lines
    count from 1."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith(prefixes):
            name, _, rest = line.partition(":")
            yield lineno, name, rest
        else:
            yield lineno, None, line


def parse_system(text: str) -> EquationSystem:
    """Parse the system file format: ``gens:``/``vars:`` headers, then one
    ``<word> = 1`` or ``<word> = <word>`` per line."""
    gens: tuple[str, ...] | None = None
    variables: tuple[str, ...] = ()
    equations: list[Equation] = []
    alphabet: Alphabet | None = None
    for lineno, header, line in header_lines(text, ("gens:", "vars:")):
        if header == "gens":
            gens = tuple(line.split())
            alphabet = None
            continue
        if header == "vars":
            variables = tuple(line.split())
            alphabet = None
            continue
        if gens is None:
            raise EquationError(f"line {lineno}: equation before gens: header")
        if alphabet is None:  # built by a system without equations, which checks the names
            alphabet = EquationSystem(gens, variables, ()).alphabet
        if "=" not in line:
            raise EquationError(f"line {lineno}: expected '=' in equation")
        left, right = line.split("=", 1)
        try:
            lhs = parse_word(left, alphabet)
            rhs = parse_word(right, alphabet)
        except WordSyntaxError as e:
            raise EquationError(f"line {lineno}: {e}") from e
        equations.append(Equation(lhs, rhs))
    if gens is None:
        raise EquationError("missing gens: header")
    return EquationSystem(tuple(gens), tuple(variables), tuple(equations))
