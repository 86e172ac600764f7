"""Chain triangulation of equation systems and the triangular + constant form.

``triangulate`` splits every relator of length four or more into a chain of
relators of length three through fresh variables; ``triangular_constant_form``
further turns every constant letter into a variable bound to it, so each
equation is a triple of variables or a constant binding.  Both keep
solutions: each result lifts solutions of the input and projects solutions
back.  The schema (``schema.py``) starts from the triangular + constant
form; the solver does not use either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .equations import Equation, EquationSystem
from .words import Generator, Word, solve_letter, substitute


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
            const_eqs.append((new_vars[w[i].sym - base], solve_letter(w, i)))
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
