"""Equation systems over free groups and the chain triangulation.

A system declares constant generators and variables and holds equations
``lhs = rhs`` over the combined alphabet (constants first, then variables).
``w = 1`` is the normalized one-sided shape; two-sided input is kept so the
generalized-equation construction can see both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .parsing import WordSyntaxError, parse_word
from .words import Alphabet, Generator, Word, substitute


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

    def __post_init__(self):
        if set(self.gens) & set(self.variables):
            raise EquationError("generator/variable name clash")
        alpha = self.alphabet  # validates names and count
        nsym = len(alpha)
        for eq in self.equations:
            for w in (eq.lhs, eq.rhs):
                for g in w:
                    if not 0 <= g.sym < nsym:
                        raise EquationError(f"undeclared symbol index {g.sym}")

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.gens + self.variables)

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
        if alphabet is None:
            alphabet = Alphabet(tuple(gens) + tuple(variables))
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


def _fresh_names(taken: set[str], prefix: str = "x") -> Iterable[str]:
    i = 1
    while True:
        name = f"{prefix}{i}"
        if name not in taken:
            taken.add(name)
            yield name
        i += 1


@dataclass(frozen=True)
class Triangulation:
    """Result of chain triangulation.

    ``project`` restricts an S'-solution to the original variables; ``lift``
    extends an S-solution by the forced values of the fresh chain variables.
    """

    original: EquationSystem
    system: EquationSystem
    fresh: tuple[str, ...]
    # per original equation: list of (fresh name, prefix word of the relator)
    _defs: tuple[tuple[tuple[str, Word], ...], ...]

    def project(self, assignment: Mapping[str, Word]) -> dict[str, Word]:
        return {n: assignment[n] for n in self.original.variables}

    def lift(self, assignment: Mapping[str, Word]) -> dict[str, Word]:
        out = dict(assignment)
        amap = {self.original.var_sym(n): w for n, w in assignment.items()}
        for defs in self._defs:
            for name, prefix in defs:
                img = substitute(prefix, amap, variables=self.original.var_syms)
                out[name] = img.inverse()
        return out


def triangulate(system: EquationSystem) -> Triangulation:
    """Rewrite every relator longer than 3 as a chain of length-3 equations.

    ``y1 y2 ... yn = 1`` becomes ``y1 y2 x1 = 1``, ``x1^-1 y3 x2 = 1``, ...,
    ``x_{n-3}^-1 y_{n-1} y_n = 1`` with fresh variables; the chain variable
    x_k is forced to ``(y1 ... y_{k+1})^-1``, so solutions transport both
    ways.  Quadraticity is preserved (each fresh variable occurs twice).
    """
    taken = set(system.gens) | set(system.variables)
    names = _fresh_names(taken)
    fresh: list[str] = []
    new_equations: list[Equation] = []
    all_defs: list[tuple[tuple[str, Word], ...]] = []

    # fresh variables get symbols after the existing ones, in creation order
    base_sym = len(system.gens) + len(system.variables)

    for eq in system.equations:
        w = eq.relator()
        n = len(w)
        if n <= 3:
            new_equations.append(Equation(w))
            all_defs.append(())
            continue
        defs: list[tuple[str, Word]] = []
        prev: Generator | None = None
        for k in range(n - 3):
            name = next(names)
            fresh.append(name)
            sym = base_sym + len(fresh) - 1
            x = Generator(sym, 1)
            first = (w[0], w[1]) if k == 0 else (prev.inv(), w[k + 1])  # type: ignore[union-attr]
            new_equations.append(Equation(Word(first + (x,))))
            defs.append((name, w.subword(0, k + 2)))
            prev = x
        if prev is None:
            raise AssertionError("internal: a long relator must open a chain")
        new_equations.append(Equation(Word((prev.inv(), w[n - 2], w[n - 1]))))
        all_defs.append(tuple(defs))

    out = EquationSystem(system.gens, system.variables + tuple(fresh), tuple(new_equations))

    size, orig_size = out.total_length(), system.total_length()
    if orig_size >= 3 and size > (orig_size - 2) * (3 * orig_size):
        raise AssertionError(
            f"internal: triangulation size bound violated: "
            f"{size} > ({orig_size}-2)(3*{orig_size})"
        )
    if system.is_quadratic() and not out.is_quadratic():
        raise AssertionError("internal: triangulation must preserve quadraticity")
    return Triangulation(system, out, tuple(fresh), tuple(all_defs))


@dataclass(frozen=True)
class TriangularConstantForm:
    """Triangular + constant normal form.

    Every equation is either a product of exactly three signed variables
    (a ``triple``) or a constant binding ``var = word-over-constants``.
    ``trivially_false`` marks input equations that reduced to a nonempty
    constant word (the system is then unsolvable).
    """

    original: EquationSystem
    system: EquationSystem
    triangulation: Triangulation
    triples: tuple[tuple[Generator, Generator, Generator], ...]
    constant_eqs: tuple[tuple[str, Word], ...]  # (var name, constant word)
    trivially_false: bool

    def lift(self, assignment: Mapping[str, Word]) -> dict[str, Word]:
        """Extend an original solution to all normal-form variables."""
        out = self.triangulation.lift(assignment)
        out.update((name, cword) for name, cword in self.constant_eqs if name not in assignment)
        return out


def triangular_constant_form(system: EquationSystem) -> TriangularConstantForm:
    """Normalize to pure-variable triples plus constant equations.

    Maximal constant runs become fresh constant-bound variables (one per
    occurrence, keeping quadratic systems quadratic); relators of length 1-2
    in variables are padded with an identity-bound variable; longer ones are
    chain-triangulated over their letters.
    """
    tri = triangulate(system)
    s = tri.system
    taken = set(s.gens) | set(s.variables)
    names = _fresh_names(taken, prefix="u")

    new_vars: list[str] = list(s.variables)
    const_eqs: list[tuple[str, Word]] = []
    triples: list[tuple[Generator, Generator, Generator]] = []
    trivially_false = False
    base = len(s.gens)

    def fresh_var(cword: Word) -> Generator:
        name = next(names)
        new_vars.append(name)
        sym = base + len(new_vars) - 1
        const_eqs.append((name, cword))
        return Generator(sym, 1)

    for eq in s.equations:
        w = eq.relator()
        var_positions = [i for i, g in enumerate(w) if g.sym >= base]
        if not var_positions:
            if len(w):
                trivially_false = True
            continue
        if len(var_positions) == 1:
            # u v^s w = 1 with u, w constant: bind v directly
            i = var_positions[0]
            g = w[i]
            u, v = w.subword(0, i), w.subword(i + 1, len(w))
            img = u.inverse() * v.inverse()
            const_eqs.append(
                (new_vars[g.sym - base], img if g.sign > 0 else img.inverse())
            )
            continue
        items: list[Generator] = []
        run: list[Generator] = []
        for g in list(w) + [None]:  # type: ignore[list-item]
            if g is not None and g.sym < base:
                run.append(g)
                continue
            if run:
                items.append(fresh_var(Word(tuple(run))))
                run = []
            if g is not None:
                items.append(g)
        while len(items) < 3:
            items.append(fresh_var(Word()))
        if len(items) != 3:
            raise AssertionError("internal: a triangulated relator has at most 3 letters")
        triples.append((items[0], items[1], items[2]))

    equations = [Equation(Word(t)) for t in triples]
    sym_of = {n: base + i for i, n in enumerate(new_vars)}
    for name, cword in const_eqs:
        equations.append(Equation(Word((Generator(sym_of[name], 1),)), cword))
    out = EquationSystem(s.gens, tuple(new_vars), tuple(equations))
    if system.is_quadratic() and not trivially_false and not out.is_quadratic():
        raise AssertionError("internal: normal form must preserve quadraticity")
    return TriangularConstantForm(
        original=system,
        system=out,
        triangulation=tri,
        triples=tuple(triples),
        constant_eqs=tuple(const_eqs),
        trivially_false=trivially_false,
    )
