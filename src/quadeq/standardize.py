"""Normalization of a single quadratic equation to standard form.

Standard forms over F(A) with coefficients C_1..C_{m-1}, C:

    orientable:      [x_1,y_1]...[x_g,y_g] z_1^-1 C_1 z_1 ... z_{m-1}^-1 C_{m-1} z_{m-1} C = 1
    non-orientable:  x_1^2 ... x_g^2       z_1^-1 C_1 z_1 ... z_{m-1}^-1 C_{m-1} z_{m-1} C = 1

The normalizer applies invertible substitutions (plus rotations, which do not
touch solutions) to the equation word, in four phases that run once each:

1. square collection: every same-sign pair becomes a square,
   A x B x C -> A x^2 B^-1 C via x -> x B^-1;
2. handle collection: every linked opposite-sign pair becomes a handle,
   x A y B x^-1 C y^-1 D -> (CB) x y x^-1 y^-1 (AD);
3. crosscap absorption: while squares and handles both occur,
   w^2 x y x^-1 y^-1 -> w^2 y'^2 x'^2 (seven moves);
4. assembly: slide the squares or handles to the front,
   D Z E -> Z D E via z -> D^-1 z D; the open pairs left are nested or side
   by side, so some pair has a constant gap K; the least such variable is
   flipped to x^-1 K x and slid behind the prefix via x -> x D, until no pair
   is left.  Flips and slides create no square and no linked pair, so no
   earlier phase has to run again.

Each substitution is recorded, so solutions transport in both directions;
every variable occurring in the input occurs exactly twice (quadraticity) and
the moves preserve that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .equations import EquationSystem, Equation
from .words import Generator, Word, replay, substitute

ORIENTABLE = "orientable"
NONORIENTABLE = "nonorientable"
# the least genus of a form of each kind: a non-orientable one has a square
LEAST_GENUS = {ORIENTABLE: 0, NONORIENTABLE: 1}

_MAX_STEPS = 10_000


class StandardizeError(ValueError):
    pass


@dataclass(frozen=True)
class StandardForm:
    """Shape data of a normalized quadratic equation."""

    kind: str
    genus: int
    coefficients: tuple[Word, ...]  # C_1 .. C_{m-1}, over the constant alphabet
    tail: Word                      # C

    @property
    def n_conjugators(self) -> int:
        return len(self.coefficients)

    def variable_names(self, gens: tuple[str, ...]) -> tuple[list[str], list[str]]:
        """Canonical (genus vars, conjugators), dodging generator names."""
        taken = set(gens)

        def fresh(base: str) -> str:
            name = base
            while name in taken:
                name += "_"
            taken.add(name)
            return name

        letters = "xy" if self.kind == ORIENTABLE else "x"
        genus_names = [fresh(f"{c}{i+1}") for i in range(self.genus) for c in letters]
        conj_names = [fresh(f"z{j+1}") for j in range(self.n_conjugators)]
        return genus_names, conj_names

    def system(self, gens: tuple[str, ...]) -> EquationSystem:
        """The standard equation over fresh names; variable i is symbol
        ``len(gens) + i``, genus variables first, then conjugators."""
        genus_names, conj_names = self.variable_names(gens)
        n = len(gens)
        letters: list[Generator] = []
        if self.kind == ORIENTABLE:
            for x in range(n, n + 2 * self.genus, 2):
                letters += (Generator(x, -1), Generator(x + 1, -1), Generator(x, 1), Generator(x + 1, 1))
        else:
            for x in range(n, n + self.genus):
                letters += (Generator(x, 1), Generator(x, 1))
        for z, c in enumerate(self.coefficients, n + len(genus_names)):
            letters += (Generator(z, -1), *c, Generator(z, 1))
        letters += self.tail
        return EquationSystem(gens, tuple(genus_names + conj_names), (Equation(Word(letters)),))


@dataclass
class Normalization:
    """Standardization result with two-way solution transport.

    ``to_original`` evaluates a solution of the standard-form system back to
    the input equation's variables; ``to_standard`` pushes an input solution
    onto the standard form.  Both directions are exact: they replay the
    normalizer's recorded moves, each a substitution and its inverse.

    ``to_standard`` is how the tests show that input solutions push forward
    onto the standard form, which UNSAT completeness rests on.  Storing each
    inverse takes less code than deriving it from the image x -> L x^±1 R.
    """

    original: EquationSystem
    form: StandardForm
    system: EquationSystem  # the standard equation over canonical names
    _moves: list[tuple[dict[int, Word], dict[int, Word]]]  # (mapping, inverse)
    _layout: list[int]  # the input symbol that became standard variable i

    def to_original(self, assignment: Mapping[str, Word]) -> dict[str, Word]:
        sym_of = dict(zip(self.system.variables, self._layout))
        for name in assignment:
            if name not in sym_of:
                raise StandardizeError(f"unknown standard-form variable {name!r}")
        by_sym = {sym_of[n]: w for n, w in assignment.items()}
        values = replay([m for m, _ in reversed(self._moves)], by_sym, self.original.var_syms)
        return {n: values[self.original.var_sym(n)] for n in self.original.variables}

    def to_standard(self, assignment: Mapping[str, Word]) -> dict[str, Word]:
        by_sym = {self.original.var_sym(n): w for n, w in assignment.items()}
        values = replay([inv for _, inv in self._moves], by_sym, self.original.var_syms)
        return {name: values[sym] for name, sym in zip(self.system.variables, self._layout)}


class _Normalizer:
    def __init__(self, system: EquationSystem):
        if len(system.equations) != 1:
            raise StandardizeError("standardize expects a single equation")
        counts = {}
        rel = system.equations[0].relator()
        for g in rel:
            if g.sym >= system.n_constants:
                counts[g.sym] = counts.get(g.sym, 0) + 1
        if any(c != 2 for c in counts.values()):
            raise StandardizeError("equation is not quadratic")
        self.nc = system.n_constants
        self.word = rel
        self.moves: list[tuple[dict[int, Word], dict[int, Word]]] = []
        self.steps = 0
        self._cyclic_reduce()

    # --- primitive moves ------------------------------------------------------

    def _tick(self):
        self.steps += 1
        if self.steps > _MAX_STEPS:
            raise AssertionError("normalization did not terminate")

    def _cyclic_reduce(self):
        self.word = self.word.cyclic_reduce()[0]

    def subst(self, mapping: dict[int, Word], inverse: dict[int, Word]):
        """Apply an invertible substitution to the word and record it."""
        self._tick()
        self.word = substitute(self.word, mapping)
        self.moves.append((mapping, inverse))
        self._cyclic_reduce()

    def subst1(self, sym: int, image: Word, inverse_image: Word):
        self.subst({sym: image}, {sym: inverse_image})

    def flip(self, sym: int):
        g = Word((Generator(sym, -1),))
        self.subst1(sym, g, g)

    def orient(self, k: int, sign: int):
        """Flip the variable at position k if it does not read ``sign``; a
        flip acts in place, so every position stays."""
        if self.word[k].sign != sign:
            self.flip(self.word[k].sym)

    def rotate(self, k: int):
        self._tick()
        self.word = self.word.rotated(k)
        self._cyclic_reduce()

    def conjugate_block(self, syms: set[int], d: Word):
        """z -> d^-1 z d for each block variable: slides a contiguous all-
        variable block (square or handle) left over the segment d."""
        if not len(d) or not syms:
            return
        mapping = {}
        inverse = {}
        for s in syms:
            v = Word((Generator(s, 1),))
            mapping[s] = d.inverse() * v * d
            inverse[s] = d * v * d.inverse()
        self.subst(mapping, inverse)

    def slide_conj_block(self, sym: int, d: Word):
        """x -> x d slides a coefficient block x^-1 K x left over d
        (the constant interior K must stay outside the substitution)."""
        if not len(d):
            return
        v = Word((Generator(sym, 1),))
        self.subst1(sym, v * d, v * d.inverse())

    def square(self, sym: int):
        """A x B x C -> A x^2 B^-1 C via x -> x B^-1, after flipping a pair
        x^-1 B x^-1."""
        i, j = self.occurrences(sym)
        self.orient(i, 1)
        b = self.segment(i + 1, j)
        x = Word((Generator(sym, 1),))
        self.subst1(sym, x * b.inverse(), x * b)

    # --- scanning helpers -------------------------------------------------------

    def occurrences(self, sym: int) -> list[int]:
        return [i for i, g in enumerate(self.word) if g.sym == sym]

    def var_syms_present(self) -> list[int]:
        return sorted({g.sym for g in self.word if g.sym >= self.nc})

    def segment(self, i: int, j: int) -> Word:
        return self.word.subword(i, j)

    # --- block recognition --------------------------------------------------------

    def blocks(self) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]], dict[int, tuple[int, int]]]:
        """Recognize closed blocks in the current word.

        Returns (squares, handles, spans): squares as (sym, pos); handles as
        (sym1, sym2, pos); spans maps each closed var to its block extent.
        """
        w = self.word
        squares: list[tuple[int, int]] = []
        handles: list[tuple[int, int, int]] = []
        spans: dict[int, tuple[int, int]] = {}
        i = 0
        n = len(w)
        while i < n:
            g = w[i]
            if g.sym >= self.nc:
                if (
                    i + 3 < n
                    and w[i + 2].sym == g.sym
                    and w[i + 2].sign == -g.sign
                    and w[i + 1].sym >= self.nc
                    and w[i + 3].sym == w[i + 1].sym
                    and w[i + 3].sign == -w[i + 1].sign
                    and w[i + 1].sym != g.sym
                ):
                    handles.append((g.sym, w[i + 1].sym, i))
                    spans[g.sym] = (i, i + 4)
                    spans[w[i + 1].sym] = (i, i + 4)
                    i += 4
                    continue
                if i + 1 < n and w[i + 1] == g:
                    squares.append((g.sym, i))
                    spans[g.sym] = (i, i + 2)
                    i += 2
                    continue
            i += 1
        return squares, handles, spans

    # --- phases -----------------------------------------------------------------

    def collect_squares(self):
        while True:
            for s in self.var_syms_present():
                i, j = self.occurrences(s)
                if self.word[i].sign == self.word[j].sign and j > i + 1:
                    self.square(s)
                    break
            else:
                return

    def _find_linked(self) -> tuple[int, int] | None:
        w = self.word
        _, _, spans = self.blocks()
        for s in self.var_syms_present():
            if s in spans:
                continue  # already sits in a collected block
            i, j = self.occurrences(s)
            for k in range(i + 1, j):
                g = w[k]
                if g.sym < self.nc or g.sym == s or g.sym in spans:
                    continue
                other = [t for t in self.occurrences(g.sym) if t != k]
                if other and not (i < other[0] < j):
                    return s, g.sym
        return None

    def collect_handles(self):
        while True:
            pair = self._find_linked()
            if pair is None:
                return
            x, y = pair
            i1 = self.occurrences(x)[0]
            self.orient(i1, 1)
            self.rotate(i1)
            occ = self.occurrences(x)
            if occ[0] != 0 or self.word[0].sign != 1:
                raise AssertionError("internal: rotation must bring x^+1 to the front")
            ys = [k for k in self.occurrences(y) if 0 < k < occ[1]]
            if len(ys) != 1:
                raise AssertionError("internal: linked partner must sit inside the gap")
            k = ys[0]
            self.orient(k, 1)
            # word = x A y B x^-1 C y^-1 D
            i2 = self.occurrences(x)[1]
            j2 = [t for t in self.occurrences(y) if t != k][0]
            if not k < i2 < j2:
                raise AssertionError("internal: handle letters out of order")
            a = self.segment(1, k)
            yw = Word((Generator(y, 1),))
            xw = Word((Generator(x, 1),))
            if len(a):
                self.subst1(y, a.inverse() * yw, a * yw)
            # word = x y B x^-1 C y^-1 D'
            k = self.occurrences(y)[0]
            i2 = self.occurrences(x)[1]
            b = self.segment(k + 1, i2)
            if len(b):
                self.subst1(y, yw * b.inverse(), yw * b)
            # word = x y x^-1 (CB) y^-1 D'
            i2 = self.occurrences(x)[1]
            j2 = self.occurrences(y)[1]
            cb = self.segment(i2 + 1, j2)
            if len(cb):
                self.subst1(x, cb * xw, cb.inverse() * xw)
            # word = (CB) x y x^-1 y^-1 (AD)

    def absorb_handles_into_squares(self):
        """Non-orientable cleanup: w^2 [x,y]-block -> three squares."""
        while True:
            squares, handles, _ = self.blocks()
            if not handles or not squares:
                return
            v, vpos = squares[0]
            self.orient(vpos, 1)  # phase 1 leaves an input square v^-1 v^-1 as it is
            # slide the square to the front
            self.conjugate_block({v}, self.segment(0, vpos))
            squares, handles, _ = self.blocks()
            p, q, hpos = handles[0]
            # slide the handle right behind the square
            self.conjugate_block({p, q}, self.segment(2, hpos))
            # the script below needs the handle to read p q p^-1 q^-1
            self.orient(2, 1)
            self.orient(3, 1)
            vw = Word((Generator(v, 1),))
            pw = Word((Generator(p, 1),))
            qw = Word((Generator(q, 1),))
            block = vw * vw * pw * qw * pw.inverse() * qw.inverse()
            if self.word.subword(0, 6) != block:
                raise StandardizeError("crosscap absorption needs the block v^2 p q p^-1 q^-1")
            # seven-move script: v v p q p^-1 q^-1 R  ->  v^2 q^2 p^2 R
            self.subst1(v, vw * pw.inverse(), vw * pw)      # v p^-1 v q p^-1 q^-1 R
            self.square(p)                                   # v p p q^-1 v^-1 q^-1 R
            self.square(q)                                   # v p^2 q^2 v R
            self.square(v)                                   # v^2 (q^-2 p^-2) R
            self.flip(p)
            self.flip(q)

    def assemble(self) -> tuple[StandardForm, list[int]]:
        """Place every block at the prefix; return the form and its layout.

        Squares or handles go first, in order of their least variable.  The
        open pairs left are then nested or side by side, so some pair has a
        constant gap; the least such variable is flipped to x^-1 K x and slid
        behind the prefix, until none is left.  The layout lists the
        variables in the order of the form's canonical names.
        """
        squares, handles, _ = self.blocks()
        if squares and handles:
            raise AssertionError("internal: mixed blocks must be absorbed first")

        layout: list[int] = []
        prefix_len = 0
        if squares:
            for s in sorted(s for s, _ in squares):
                i = self.occurrences(s)[0]
                self.orient(i, 1)
                self.conjugate_block({s}, self.segment(prefix_len, i))
                prefix_len += 2
                layout.append(s)
        else:
            for p, q, _ in sorted(handles, key=lambda h: min(h[0], h[1])):
                _, hs, _ = self.blocks()
                pos = [h[2] for h in hs if {h[0], h[1]} == {p, q}][0]
                self.conjugate_block({p, q}, self.segment(prefix_len, pos))
                # normalize to the commutator shape x^-1 y^-1 x y
                self.orient(prefix_len, -1)
                self.orient(prefix_len + 1, -1)
                layout += [self.word[prefix_len].sym, self.word[prefix_len + 1].sym]
                prefix_len += 4
        kind = NONORIENTABLE if squares else ORIENTABLE
        genus = len(squares) if squares else len(handles)

        coefficients: list[Word] = []
        while True:
            # re-scan every round: slides can cancel or re-expose pairs
            pending = []
            for s in self.var_syms_present():
                if s in layout:
                    continue
                i, j = self.occurrences(s)
                if all(self.word[k].sym < self.nc for k in range(i + 1, j)):
                    pending.append((s, i, j))
            if not pending:
                break
            s, i, j = min(pending)
            self.orient(i, -1)
            self.slide_conj_block(s, self.segment(prefix_len, i))
            i2, j2 = self.occurrences(s)
            if i2 != prefix_len:
                raise AssertionError("internal: a slid block must start at the prefix")
            coefficients.append(self.segment(i2 + 1, j2))
            prefix_len = j2 + 1
            layout.append(s)

        tail = self.segment(prefix_len, len(self.word))
        if any(g.sym >= self.nc for g in tail):
            raise AssertionError("internal: tail must be constant")
        return StandardForm(kind, genus, tuple(coefficients), tail), layout


def standardize(system: EquationSystem) -> Normalization:
    """Normalize a one-equation quadratic system to its standard form.

    Returns the form, the canonical standard system, and exact two-way
    solution transport.  The kind is non-orientable exactly when some
    variable occurs twice with the same sign (a square survives).
    """
    nz = _Normalizer(system)
    nz.collect_squares()
    nz.collect_handles()
    nz.absorb_handles_into_squares()
    form, layout = nz.assemble()
    out_sys = form.system(system.gens)

    # sanity: the final word, with standard variable i for layout[i], is the
    # standard equation the form writes
    index = {s: nz.nc + i for i, s in enumerate(layout)}
    translated = Word(g if g.sym < nz.nc else Generator(index[g.sym], g.sign) for g in nz.word)
    if translated != out_sys.equations[0].relator():
        raise AssertionError("internal: assembled word must equal the standard shape")

    return Normalization(
        original=system,
        form=form,
        system=out_sys,
        _moves=nz.moves,
        _layout=layout,
    )
